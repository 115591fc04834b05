//! The contend-256 instance: `k` initiators reprotect pages of one shared
//! pmap at once while every other processor writes through it, so rounds
//! contend on the pmap and (with batching) merge. Built from the kernel
//! crate's public processes, after the lab in `crates/bench/src/lab.rs`,
//! with page placement and initiator count as inputs.

use machtlb_core::{
    drive, try_access, AccessOutcome, Driven, ExitIdleProcess, KernelMachine, KernelState, MemOp,
    PmapOp, PmapOpProcess, SwitchUserPmapProcess,
};
use machtlb_pmap::{PageRange, Pfn, PmapId, Prot, Vaddr, Vpn};
use machtlb_sim::{CpuId, Ctx, Process, RunReport, Step, Time};

/// Pages per pmap-lock shard granule (the kernel's shard size). Under the
/// default single shard every page shares one lock; placement across
/// granules only starts to matter once a configuration shards the lock.
pub const GRANULE: u64 = 64;

/// One instance's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContendInput {
    pub n_cpus: usize,
    pub machine_seed: u64,
    /// The page each initiator reprotects (initiator `i` runs on cpu `i`).
    pub pages: Vec<Vpn>,
    /// Writes the trigger page must see before the initiators start.
    pub threshold: u64,
}

#[derive(Debug)]
struct Writer {
    pmap: PmapId,
    va: Vaddr,
    counter: u64,
    exit_idle: Option<ExitIdleProcess>,
    switch: Option<SwitchUserPmapProcess>,
}

impl Process<KernelState, ()> for Writer {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    self.switch = Some(SwitchUserPmapProcess::new(Some(self.pmap)));
                    Step::Run(d)
                }
            };
        }
        if let Some(sw) = self.switch.as_mut() {
            return match drive(sw, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.switch = None;
                    Step::Run(d)
                }
            };
        }
        self.counter += 1;
        match try_access(ctx, self.pmap, self.va, MemOp::Write(self.counter)) {
            AccessOutcome::Ok { cost, .. } | AccessOutcome::Stall { cost } => Step::Run(cost),
            // The reprotect landed: the writer's job is over.
            AccessOutcome::Fault { cost } => Step::Done(cost),
        }
    }

    fn label(&self) -> &'static str {
        "perfbench-writer"
    }
}

/// Waits for the trigger, runs one reprotect, and publishes its
/// completion time (µs, from deciding to operate to finishing, lock wait
/// and merged rounds included) into word `slot` of the scratch frame.
#[derive(Debug)]
struct Initiator {
    pmap: PmapId,
    op: Option<PmapOp>,
    trigger: Pfn,
    threshold: u64,
    scratch: Pfn,
    slot: u64,
    started: Option<Time>,
    exit_idle: Option<ExitIdleProcess>,
    running: Option<PmapOpProcess>,
}

impl Process<KernelState, ()> for Initiator {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    Step::Run(d)
                }
            };
        }
        if self.running.is_none() {
            if ctx.shared.mem.read_word(self.trigger, 0) < self.threshold {
                return Step::Run(ctx.costs().spin_iter);
            }
            self.started = Some(ctx.now);
            let op = self.op.take().expect("the operation runs once");
            self.running = Some(PmapOpProcess::new(self.pmap, op));
        }
        let op = self.running.as_mut().expect("started above");
        match drive(op, ctx) {
            Driven::Yield(s) => s,
            Driven::Finished(d) => {
                let started = self.started.expect("stamped at start");
                let us = (ctx.now + d).duration_since(started).as_micros_f64();
                ctx.shared
                    .mem
                    .write_word(self.scratch, self.slot, us.round().max(1.0) as u64);
                Step::Done(d)
            }
        }
    }

    fn label(&self) -> &'static str {
        "perfbench-initiator"
    }
}

/// A built, populated contend machine and where its results land.
pub struct ContendMachine {
    pub m: KernelMachine,
    scratch: Pfn,
    initiators: usize,
}

/// Maps the pages and spawns writers and initiators (the install step).
pub fn install(mut m: KernelMachine, input: &ContendInput) -> ContendMachine {
    let k = input.pages.len();
    assert!(
        k >= 1 && k < input.n_cpus,
        "initiators need writers beside them"
    );
    let (pmap, pfns, scratch) = {
        let s = m.shared_mut();
        let pmap = s.pmaps.create();
        let pfns: Vec<Pfn> = input
            .pages
            .iter()
            .map(|&vpn| {
                let pfn = s.frames.alloc();
                s.seed_mapping(pmap, vpn, pfn, Prot::READ_WRITE);
                pfn
            })
            .collect();
        (pmap, pfns, s.frames.alloc())
    };
    for c in k..input.n_cpus {
        let page = input.pages[(c - k) % k];
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(Writer {
                pmap,
                va: page.base(),
                counter: 0,
                exit_idle: Some(ExitIdleProcess::new()),
                switch: None,
            }),
        );
    }
    for (i, &page) in input.pages.iter().enumerate() {
        m.spawn_at(
            CpuId::new(i as u32),
            Time::ZERO,
            Box::new(Initiator {
                pmap,
                op: Some(PmapOp::Protect {
                    range: PageRange::single(page),
                    prot: Prot::READ,
                }),
                trigger: pfns[0],
                threshold: input.threshold,
                scratch,
                slot: i as u64,
                started: None,
                exit_idle: Some(ExitIdleProcess::new()),
                running: None,
            }),
        );
    }
    ContendMachine {
        m,
        scratch,
        initiators: k,
    }
}

impl ContendMachine {
    /// Runs to quiescence under the lab's bounds.
    pub fn run(&mut self) -> RunReport {
        self.m
            .run_bounded(Time::from_micros(4_000_000), 400_000_000)
    }

    /// Per-initiator completion times (µs); `None` for one that never
    /// finished.
    pub fn completion_us(&self) -> Vec<Option<f64>> {
        let s = self.m.shared();
        (0..self.initiators as u64)
            .map(|i| {
                let us = s.mem.read_word(self.scratch, i);
                (us > 0).then_some(us as f64)
            })
            .collect()
    }
}
