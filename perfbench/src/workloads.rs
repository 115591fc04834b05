//! The four workloads: how each instance's inputs come from the seed, and
//! how one instance runs through the program's public calls. Why each
//! workload exists is recorded in `perfbench/NOTES.md`.

use std::collections::BTreeMap;

use machtlb_bench::scaled_costs;
use machtlb_core::{
    build_kernel_machine, generate_schedule, is_red, parse_schedule, run_chaos, schedule_json,
    ChaosConfig, FaultSchedule, KernelConfig, KernelMachine, KernelStats, SpinMode, SplitMix64,
};
use machtlb_sim::{BusStats, CostModel, Dur, MulticastStats, RunStatus, Time};
use machtlb_tlb::Tlb;
use machtlb_vm::VmStats;
use machtlb_workloads::{
    build_workload_machine, install_agora, install_camelot, install_machbuild, install_parthenon,
    install_tester, run_until_done, AgoraConfig, AppReport, AppShared, CamelotConfig,
    MachBuildConfig, ParthenonConfig, RunConfig, TesterConfig, WlMachine, WlState,
};
use machtlb_xpr::{assemble_spans, chrome_trace_json, phase_latencies, TraceEvent, TracePhase};

use crate::contend::{self, ContendInput, GRANULE};
use crate::reference::App;
use crate::stats::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper16,
    Scale512,
    Contend256,
    Fuzz64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper16,
        Workload::Scale512,
        Workload::Contend256,
        Workload::Fuzz64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper-16",
            Workload::Scale512 => "scale-512",
            Workload::Contend256 => "contend-256",
            Workload::Fuzz64 => "fuzz-64",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How big a workload's fixed work is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// The Stepped-spin self-check's size: small enough for the oracle.
    Small,
    /// The smoke test's size: seconds for all four workloads.
    Tiny,
}

/// The benchmark's own input generator (SplitMix64), kept separate from
/// the program so a change to the program cannot change the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One instance's inputs: everything the program receives.
#[derive(Clone, Debug)]
pub enum Input {
    /// The Section 5.1 tester: Fig. 2 points on paper-16, the §8 point on
    /// scale-512.
    Tester {
        cfg: RunConfig,
        children: u32,
        warmup: u64,
    },
    /// A Section 5.2 application with the table harnesses' settings.
    App {
        app: App,
        lazy: bool,
        cfg: RunConfig,
    },
    Contend {
        input: ContendInput,
        costs: CostModel,
        kconfig: KernelConfig,
    },
    /// A fault schedule, as the fuzz generator's seed.
    Fuzz {
        schedule_seed: u64,
        n_cpus: usize,
        rounds: u64,
    },
}

impl Input {
    /// A short description for reports.
    pub fn label(&self) -> String {
        match self {
            Input::Tester { cfg, children, .. } => {
                format!(
                    "tester n={} children={children} seed={}",
                    cfg.n_cpus, cfg.seed
                )
            }
            Input::App { app, lazy, cfg } => {
                format!("{} lazy={lazy} seed={}", app.name(), cfg.seed)
            }
            Input::Contend { input, .. } => format!(
                "contend n={} initiators={} seed={}",
                input.n_cpus,
                input.pages.len(),
                input.machine_seed
            ),
            Input::Fuzz {
                schedule_seed,
                n_cpus,
                ..
            } => {
                format!("fuzz n={n_cpus} schedule_seed={schedule_seed}")
            }
        }
    }
}

/// One seeded workload instance: the program runs it consists of.
pub type Instance = Vec<Input>;

fn fig2_config(n_cpus: usize, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus,
        limit: Time::from_micros(30_000_000),
        ..RunConfig::multimax16(seed)
    }
}

fn app_config(seed: u64, lazy: bool) -> RunConfig {
    let mut c = RunConfig::multimax16(seed);
    c.kconfig.lazy_eval = lazy;
    c.device_period = Some(Dur::millis(5));
    c.limit = Time::from_micros(120_000_000);
    c
}

/// The workload's fixed work for `seed`: every instance's inputs.
pub fn instances(w: Workload, seed: u64, size: Size) -> Vec<Instance> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<Instance> = Vec::new();
    match w {
        Workload::Paper16 => {
            // An instance is one seed's sweep: the Fig. 2 tester at every
            // k, the four applications, and Table 1's two lazy-off runs.
            let (ks, count): (Vec<u32>, usize) = match size {
                Size::Full => ((1..=15).collect(), 4),
                Size::Small => ((1..=15).collect(), 1),
                Size::Tiny => (vec![1, 8, 15], 1),
            };
            for _ in 0..count {
                let mut instance: Instance = ks
                    .iter()
                    .map(|&k| Input::Tester {
                        cfg: fig2_config(16, rng.next()),
                        children: k,
                        warmup: 40,
                    })
                    .collect();
                for app in App::ALL {
                    instance.push(Input::App {
                        app,
                        lazy: true,
                        cfg: app_config(rng.next(), true),
                    });
                }
                for app in [App::Mach, App::Parthenon] {
                    instance.push(Input::App {
                        app,
                        lazy: false,
                        cfg: app_config(rng.next(), false),
                    });
                }
                out.push(instance);
            }
        }
        Workload::Scale512 => {
            let (n, count) = match size {
                Size::Full => (512, 4),
                Size::Small => (64, 2),
                Size::Tiny => (32, 1),
            };
            for _ in 0..count {
                let mut cfg = fig2_config(n, rng.next());
                cfg.costs = scaled_costs(n);
                // The run ends near 0.19 s simulated; device interrupts are
                // scheduled up to the limit at build time, so the Fig. 2
                // harness's 30 s limit would make set-up time and memory
                // mostly interrupts that never fire.
                cfg.limit = Time::from_micros(2_000_000);
                out.push(vec![Input::Tester {
                    cfg,
                    children: (n - 1) as u32 - rng.below(8) as u32,
                    warmup: 40,
                }]);
            }
        }
        Workload::Contend256 => {
            // `runs` lab runs per pass, grouped in pairs; 24 give the
            // median ten samples beyond it over a run's two passes.
            let (n, runs) = match size {
                Size::Full => (256, 24),
                Size::Small => (32, 4),
                Size::Tiny => (16, 2),
            };
            let kconfig = KernelConfig {
                fanout: 8,
                batch_initiators: true,
                residency: true,
                ..KernelConfig::default()
            };
            // Every pass covers 3..=10 initiators equally: the latency is
            // a step function of the count (rounds merge), so a seed-drawn
            // mix would move the median by whole steps. An instance pairs
            // k with 13 - k initiators. A run's host time grows about
            // linearly with k (~100 ms per initiator at 256 cpus), so every
            // pair costs about the same, and `run_ms` is not the edge of
            // one k's group, which the seed's page placement moves. The
            // seed rotates which instance gets which pair.
            let rotate = rng.below(4) as usize;
            let mut lab = |k: usize| {
                let pages = (0..k as u64)
                    .map(|j| {
                        if j > 0 && rng.below(3) == 0 {
                            // A page alone in its own 64-page granule.
                            machtlb_pmap::Vpn::new(GRANULE * (2 + j))
                        } else {
                            machtlb_pmap::Vpn::new(GRANULE + j)
                        }
                    })
                    .collect();
                Input::Contend {
                    input: ContendInput {
                        n_cpus: n,
                        machine_seed: rng.next(),
                        pages,
                        threshold: 10 + rng.below(21),
                    },
                    costs: scaled_costs(n),
                    kconfig: kconfig.clone(),
                }
            };
            for i in 0..runs / 2 {
                let k = 3 + (i + rotate) % 4;
                let pair = [k, 13 - k].map(|k| lab(k.min(n / 4)));
                out.push(pair.into());
            }
        }
        Workload::Fuzz64 => {
            // An instance is a four-schedule campaign: single schedules
            // range over 20x in host time, so per-schedule quantiles would
            // jump between modes from seed to seed. The heavy schedules
            // also make a pass's host time depend on the seed; 1,200
            // schedules keep that within a few percent, in one pass.
            let (n, count, per) = match size {
                Size::Full => (64, 300, 4),
                Size::Small => (32, 5, 2),
                Size::Tiny => (16, 3, 1),
            };
            for _ in 0..count {
                out.push(
                    (0..per)
                        .map(|_| Input::Fuzz {
                            schedule_seed: rng.next(),
                            n_cpus: n,
                            rounds: 3,
                        })
                        .collect(),
                );
            }
        }
    }
    out
}

/// Program-side switches a pass runs under.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Turn the flight recorder on (`KernelConfig::trace_shootdowns`).
    pub trace: bool,
    pub spin: SpinMode,
}

/// Phase metrics taken from the flight recorder.
pub const PHASES: [(TracePhase, &str); 6] = [
    (TracePhase::QueueActions, "phase.queue_actions_us"),
    (TracePhase::IpiSend, "phase.ipi_send_us"),
    (TracePhase::SyncWait, "phase.sync_wait_us"),
    (TracePhase::PmapUpdate, "phase.pmap_update_us"),
    (TracePhase::Quiesce, "phase.quiesce_us"),
    (TracePhase::Drain, "phase.drain_us"),
];

/// What one instance produced. Everything but `host` is simulated and
/// must repeat exactly.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Why the instance failed, if it did.
    pub failure: Option<String>,
    /// Whether the failure is a wrong output (an oracle violation, a
    /// tester mismatch, a codec change, a panic) rather than a run that
    /// did not finish (the step guard, a hang the watchdog caught).
    pub wrong: bool,
    /// Simulated initiator latency per shootdown (µs); on a fuzz schedule,
    /// its simulated campaign time per driver round.
    pub shoot_us: Vec<f64>,
    /// Simulated responder latency per responder event (µs).
    pub resp_us: Vec<f64>,
    /// §7.3 overhead: (initiator + scaled responder µs, runtime × cpus µs).
    pub overhead: Option<(f64, f64)>,
    /// Fig. 2 points: (responders, shootdown µs).
    pub fig2: Vec<(u32, f64)>,
    /// Table 1–3 observations: (app, lazy, kernel µs, user µs).
    pub paper: Vec<(App, bool, Vec<f64>, Vec<f64>)>,
    /// Layer counters by metric name (only those this instance observed).
    pub counts: BTreeMap<&'static str, f64>,
    /// Flight-recorder phase samples (µs), traced passes only.
    pub phases: BTreeMap<&'static str, Vec<f64>>,
    /// Flight-recorder events (`None` where the program keeps the
    /// recorder out of reach; 0 on untraced passes).
    pub trace_events: Option<u64>,
    /// Program runs folded into this outcome.
    pub runs: usize,
    /// Host seconds by span name.
    pub host: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// A run that did not finish.
    fn fail(&mut self, why: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(why.into());
        }
    }

    /// A wrong output; its reason replaces a did-not-finish one.
    fn wrong(&mut self, why: impl Into<String>) {
        if !self.wrong {
            self.wrong = true;
            self.failure = Some(why.into());
        }
    }

    fn timed<T>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = tr.span(name, |_| f());
        *self.host.entry(name).or_default() += secs;
        out
    }

    /// Folds another run of the same instance into this one.
    fn absorb(&mut self, o: Outcome) {
        if self.failure.is_none() || (o.wrong && !self.wrong) {
            self.failure = o.failure;
        }
        self.wrong |= o.wrong;
        self.shoot_us.extend(o.shoot_us);
        self.resp_us.extend(o.resp_us);
        self.overhead = match (self.overhead, o.overhead) {
            (Some(a), Some(b)) => Some((a.0 + b.0, a.1 + b.1)),
            (a, b) => a.or(b),
        };
        self.fig2.extend(o.fig2);
        self.paper.extend(o.paper);
        for (k, v) in o.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in o.phases {
            self.phases.entry(k).or_default().extend(v);
        }
        self.trace_events = match (self.trace_events, o.trace_events) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        self.runs += o.runs;
        for (k, v) in o.host {
            *self.host.entry(k).or_default() += v;
        }
    }

    /// FNV-1a over every simulated value (scheduler steps excluded: the
    /// Stepped oracle takes more steps to the same simulated result).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(u64::from(self.failure.is_some()));
        eat(u64::from(self.wrong));
        for xs in [&self.shoot_us, &self.resp_us] {
            eat(xs.len() as u64);
            xs.iter().for_each(|x| eat(x.to_bits()));
        }
        if let Some((a, b)) = self.overhead {
            eat(a.to_bits());
            eat(b.to_bits());
        }
        for &(k, us) in &self.fig2 {
            eat(u64::from(k));
            eat(us.to_bits());
        }
        for (_, _, kern, user) in &self.paper {
            kern.iter().chain(user).for_each(|x| eat(x.to_bits()));
        }
        for (name, v) in &self.counts {
            if *name != "sim.steps" {
                name.bytes().for_each(|b| eat(u64::from(b)));
                eat(v.to_bits());
            }
        }
        h
    }
}

fn kernel_counts(c: &mut BTreeMap<&'static str, f64>, s: &KernelStats) {
    for (name, v) in [
        ("pmap.ops", s.pmap_ops),
        ("pmap.lazy_skips", s.lazy_skips),
        ("pmap.remote_lock_refs", s.remote_lock_refs),
        ("core.shootdowns", s.shootdowns_kernel + s.shootdowns_user),
        ("core.ipis_sent", s.ipis_sent),
        ("core.ipis_filtered", s.ipis_filtered),
        ("core.actions_coalesced", s.actions_coalesced),
        ("core.degraded_flushes", s.degraded_flushes),
        ("core.multicast_rounds", s.multicast_rounds),
        ("core.initiators_batched", s.initiators_batched),
        ("recovery.ipi_retries", s.ipi_retries),
        ("recovery.evictions", s.evictions),
        ("recovery.fenced_rejoins", s.fenced_rejoins),
        ("recovery.locks_stolen", s.locks_stolen),
        ("recovery.ops_retried", s.ops_retried),
    ] {
        c.insert(name, v as f64);
    }
}

fn bus_counts(c: &mut BTreeMap<&'static str, f64>, b: &BusStats) {
    c.insert("bus.transactions", b.transactions as f64);
    c.insert("bus.held_us", b.held.as_micros_f64());
    c.insert("bus.queued_us", b.queued.as_micros_f64());
}

fn mcast_counts(c: &mut BTreeMap<&'static str, f64>, m: MulticastStats) {
    c.insert("mcast.posts", m.posts as f64);
    c.insert("mcast.forwards", m.forwards as f64);
    c.insert("mcast.pruned", m.pruned as f64);
}

fn tlb_counts(c: &mut BTreeMap<&'static str, f64>, tlbs: &[Tlb]) {
    let mut sum = [0u64; 5];
    for t in tlbs {
        let s = t.stats();
        for (acc, v) in
            sum.iter_mut()
                .zip([s.hits, s.misses, s.invalidated, s.flushes, s.epoch_flushes])
        {
            *acc += v;
        }
    }
    for (name, v) in [
        "tlb.hits",
        "tlb.misses",
        "tlb.invalidated",
        "tlb.flushes",
        "tlb.epoch_flushes",
    ]
    .into_iter()
    .zip(sum)
    {
        c.insert(name, v as f64);
    }
}

fn vm_counts(c: &mut BTreeMap<&'static str, f64>, v: Option<&VmStats>) {
    // A kernel-only machine has no VM layer: it does no VM work.
    let v = v.copied().unwrap_or_default();
    c.insert("vm.faults_resolved", v.faults_resolved as f64);
    c.insert("vm.cow_copies", v.cow_copies as f64);
    c.insert("vm.zero_fills", v.zero_fills as f64);
}

/// Assembles the flight recorder's events the way `machtlb trace` does
/// and keeps the phase samples.
fn assemble(out: &mut Outcome, tr: &mut Tracer, events: &[TraceEvent], n_cpus: usize) {
    out.trace_events = Some(events.len() as u64);
    if events.is_empty() {
        return;
    }
    let phases = out.timed(tr, "xpr.assemble", || {
        let spans = assemble_spans(events);
        let phases = phase_latencies(events);
        let json = chrome_trace_json(events, n_cpus);
        std::hint::black_box((spans.len(), json.len()));
        phases
    });
    for (phase, samples) in phases {
        if let Some((_, name)) = PHASES.iter().find(|(p, _)| *p == phase) {
            out.phases.entry(name).or_default().extend(samples);
        }
    }
}

/// Everything a workload machine's report gives, shared by the tester
/// and the applications.
fn workload_outcome(out: &mut Outcome, tr: &mut Tracer, report: &AppReport, m: &WlMachine) {
    if !report.consistent {
        out.wrong(format!("oracle: {} violations", report.violations));
    }
    let initiators = report
        .kernel_initiators
        .iter()
        .chain(&report.user_initiators);
    out.shoot_us = initiators.map(|r| r.elapsed.as_micros_f64()).collect();
    out.resp_us = report
        .responders
        .iter()
        .map(|r| r.elapsed.as_micros_f64())
        .collect();
    let scale = report.n_cpus as f64 / report.responder_sample_size.max(1) as f64;
    out.overhead = Some((
        out.shoot_us.iter().sum::<f64>() + out.resp_us.iter().sum::<f64>() * scale,
        report.runtime.as_micros_f64() * report.n_cpus as f64,
    ));
    let c = &mut out.counts;
    c.insert("sim.steps", m.total_steps() as f64);
    kernel_counts(c, &report.stats);
    bus_counts(c, &report.bus);
    mcast_counts(c, m.multicast_stats());
    tlb_counts(c, &m.shared().sys.kernel.tlbs);
    vm_counts(c, Some(&report.vm_stats));
    c.insert(
        "fault.injected",
        m.fault_stats().map_or(0, |f| f.total()) as f64,
    );
    assemble(out, tr, &report.trace, report.n_cpus);
}

fn with_opts(cfg: &RunConfig, opts: Opts) -> RunConfig {
    let mut cfg = cfg.clone();
    cfg.kconfig.trace_shootdowns = opts.trace;
    cfg.kconfig.spin_mode = opts.spin;
    cfg
}

fn run_tester(cfg: &RunConfig, children: u32, warmup: u64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut m = out.timed(tr, "workloads.build", || {
        build_workload_machine(cfg, AppShared::None)
    });
    let tcfg = TesterConfig {
        children,
        warmup_increments: warmup,
    };
    out.timed(tr, "workloads.install", || install_tester(&mut m, &tcfg));
    let status = out.timed(tr, "sim.run", || {
        run_until_done(&mut m, cfg.limit, |s| {
            let t = s.tester();
            t.mismatch.is_some() && t.children_dead == children
        })
    });
    let report = out.timed(tr, "workloads.extract", || AppReport::extract("tester", &m));
    if status == RunStatus::StepLimit {
        out.fail("step guard");
    }
    match m.shared().tester().mismatch {
        None => out.fail("tester did not conclude"),
        Some(true) => out.wrong("tester saw a counter advance after the reprotect"),
        Some(false) => {}
    }
    workload_outcome(&mut out, tr, &report, &m);
    match report.user_initiators.first() {
        Some(r) if r.processors == children => {
            out.fig2.push((children, r.elapsed.as_micros_f64()));
        }
        Some(_) => out.wrong("the reprotect did not shoot exactly the children"),
        None => out.fail("the reprotect did not complete"),
    }
    out
}

fn install_app(m: &mut WlMachine, app: App) {
    match app {
        App::Mach => install_machbuild(m, &MachBuildConfig::default()),
        App::Parthenon => install_parthenon(m, &ParthenonConfig::default()),
        App::Agora => install_agora(m, &AgoraConfig::default()),
        App::Camelot => install_camelot(m, &CamelotConfig::default()),
    }
}

fn completed_at(s: &WlState, app: App) -> Option<Time> {
    match app {
        App::Mach => s.machbuild().completed_at,
        App::Parthenon => s.parthenon().completed_at,
        App::Agora => s.agora().completed_at,
        App::Camelot => s.camelot().completed_at,
    }
}

/// The machine `run_chaos` builds first for a compiled schedule: the
/// plan's watchdog, fencing, policy and queue-capacity overrides applied
/// to the compiled kernel config, as `run_chaos` applies them.
fn chaos_machine(cfg: &ChaosConfig) -> KernelMachine {
    let mut kconfig = cfg.kconfig.clone();
    if let Some(p) = &cfg.plan {
        kconfig.watchdog.enabled = p.watchdog_enabled;
        kconfig.health.fencing = p.fencing;
        kconfig.health.policy = p.policy;
        if let Some(cap) = p.queue_capacity {
            kconfig.action_queue_capacity = cap;
        }
    }
    build_kernel_machine(cfg.n_cpus, cfg.seed, CostModel::multimax(), kconfig)
}

fn run_app(app: App, lazy: bool, cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut m = out.timed(tr, "workloads.build", || {
        build_workload_machine(cfg, AppShared::None)
    });
    out.timed(tr, "workloads.install", || install_app(&mut m, app));
    let status = out.timed(tr, "sim.run", || {
        run_until_done(&mut m, cfg.limit, |s| completed_at(s, app).is_some())
    });
    let mut report = out.timed(tr, "workloads.extract", || {
        AppReport::extract(app.name(), &m)
    });
    if status == RunStatus::StepLimit {
        out.fail("step guard");
    }
    match completed_at(m.shared(), app) {
        Some(t) => report.runtime = t.duration_since(Time::ZERO),
        None => out.fail(format!("{} did not finish", app.name())),
    }
    workload_outcome(&mut out, tr, &report, &m);
    let us = |rs: &[machtlb_xpr::InitiatorRecord]| -> Vec<f64> {
        rs.iter().map(|r| r.elapsed.as_micros_f64()).collect()
    };
    out.paper.push((
        app,
        lazy,
        us(&report.kernel_initiators),
        us(&report.user_initiators),
    ));
    out
}

fn run_contend(
    input: &ContendInput,
    costs: &CostModel,
    kconfig: &KernelConfig,
    opts: Opts,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let mut kconfig = kconfig.clone();
    kconfig.trace_shootdowns = opts.trace;
    kconfig.spin_mode = opts.spin;
    let m = out.timed(tr, "workloads.build", || {
        build_kernel_machine(input.n_cpus, input.machine_seed, costs.clone(), kconfig)
    });
    let mut cm = out.timed(tr, "workloads.install", || contend::install(m, input));
    let r = out.timed(tr, "sim.run", || cm.run());
    let (done, events) = out.timed(tr, "workloads.extract", || {
        (cm.completion_us(), cm.m.shared().trace.events())
    });
    if r.status == RunStatus::StepLimit {
        out.fail("step guard");
    }
    let s = cm.m.shared();
    if !s.checker.is_consistent() {
        out.wrong(format!(
            "oracle: {} violations",
            s.checker.total_violations()
        ));
    }
    if done.iter().any(Option::is_none) {
        out.fail("an initiator never completed");
    }
    out.shoot_us = done.into_iter().flatten().collect();
    let mut initiator_us = 0.0;
    for e in s.xpr.iter() {
        if let Some(r) = e.as_responder() {
            out.resp_us.push(r.elapsed.as_micros_f64());
        } else if let Some(i) = e.as_initiator() {
            initiator_us += i.elapsed.as_micros_f64();
        }
    }
    out.overhead = Some((
        initiator_us + out.resp_us.iter().sum::<f64>(),
        r.frontier.duration_since(Time::ZERO).as_micros_f64() * input.n_cpus as f64,
    ));
    let c = &mut out.counts;
    c.insert("sim.steps", cm.m.total_steps() as f64);
    kernel_counts(c, &s.stats);
    bus_counts(c, &cm.m.bus_stats());
    mcast_counts(c, cm.m.multicast_stats());
    tlb_counts(c, &s.tlbs);
    vm_counts(c, None);
    c.insert("fault.injected", 0.0);
    assemble(&mut out, tr, &events, input.n_cpus);
    out
}

fn run_fuzz(
    schedule_seed: u64,
    n_cpus: usize,
    rounds: u64,
    opts: Opts,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let schedule: FaultSchedule = out.timed(tr, "fuzz.gen", || {
        generate_schedule(&mut SplitMix64::new(schedule_seed), n_cpus, rounds)
    });
    let parsed = out.timed(tr, "fuzz.codec", || {
        parse_schedule(&schedule_json(&schedule))
    });
    let schedule = match parsed {
        Ok(p) if p == schedule => p,
        Ok(_) => {
            out.wrong("schedule changed through the JSON codec");
            return out;
        }
        Err(e) => {
            out.wrong(format!("schedule JSON did not parse: {e}"));
            return out;
        }
    };
    let mut cfg = out.timed(tr, "workloads.install", || schedule.compile());
    cfg.kconfig.trace_shootdowns = opts.trace;
    cfg.kconfig.spin_mode = opts.spin;
    // `run_schedule(s)` is `run_chaos(&s.compile())`; this is that call
    // with the pass's switches set. `run_chaos` builds its machine inside,
    // so the build is timed apart, by `setup_only`.
    let o = out.timed(tr, "fuzz.run", || run_chaos(&cfg));
    // A checker violation is a wrong output. A red schedule without one
    // is a campaign that did not finish: the watchdog gave up or the
    // run hung, and the program reported it as detected-fatal.
    if o.violations != 0 {
        out.wrong(format!(
            "checker: {} violations (schedule seed {schedule_seed})",
            o.violations
        ));
    }
    if is_red(&o) {
        out.fail(format!(
            "red: {:?} (schedule seed {schedule_seed}, {n_cpus} cpus, {rounds} rounds)",
            o.survival
        ));
    }
    // The chaos outcome carries no per-shootdown records. The sample is
    // the campaign's simulated time per driver round, a count fixed by
    // the inputs, so more or fewer shootdowns cannot read as faster.
    out.shoot_us = vec![o.end.duration_since(Time::ZERO).as_micros_f64() / rounds as f64];
    let c = &mut out.counts;
    c.insert("sim.steps", o.steps as f64);
    kernel_counts(c, &o.stats);
    bus_counts(c, &o.bus);
    vm_counts(c, None);
    c.insert("fault.injected", o.faults.map_or(0, |f| f.total()) as f64);
    out
}

/// Host seconds of an instance's set-up calls alone (build and install,
/// no run); machines are dropped outside the timed region.
pub fn setup_only(instance: &Instance) -> f64 {
    instance.iter().map(setup_input).sum()
}

fn setup_input(input: &Input) -> f64 {
    let start = std::time::Instant::now();
    let machine: Box<dyn std::any::Any> = match input {
        Input::Tester {
            cfg,
            children,
            warmup,
        } => {
            let mut m = build_workload_machine(cfg, AppShared::None);
            let tcfg = TesterConfig {
                children: *children,
                warmup_increments: *warmup,
            };
            install_tester(&mut m, &tcfg);
            Box::new(m)
        }
        Input::App { app, cfg, .. } => {
            let mut m = build_workload_machine(cfg, AppShared::None);
            install_app(&mut m, *app);
            Box::new(m)
        }
        Input::Contend {
            input,
            costs,
            kconfig,
        } => {
            let m = build_kernel_machine(
                input.n_cpus,
                input.machine_seed,
                costs.clone(),
                kconfig.clone(),
            );
            Box::new(contend::install(m, input).m)
        }
        Input::Fuzz {
            schedule_seed,
            n_cpus,
            rounds,
        } => {
            let schedule =
                generate_schedule(&mut SplitMix64::new(*schedule_seed), *n_cpus, *rounds);
            let start = std::time::Instant::now();
            let m = chaos_machine(&schedule.compile());
            let secs = start.elapsed().as_secs_f64();
            drop(m);
            return secs;
        }
    };
    let secs = start.elapsed().as_secs_f64();
    drop(machine);
    secs
}

/// Runs one instance. A panic inside the program counts as a wrong output.
pub fn run(instance: &Instance, opts: Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    for input in instance {
        let mut o = run_input(input, opts, tr);
        o.runs = 1;
        out.absorb(o);
    }
    out
}

fn run_input(input: &Input, opts: Opts, tr: &mut Tracer) -> Outcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match input {
        Input::Tester {
            cfg,
            children,
            warmup,
        } => run_tester(&with_opts(cfg, opts), *children, *warmup, tr),
        Input::App { app, lazy, cfg } => run_app(*app, *lazy, &with_opts(cfg, opts), tr),
        Input::Contend {
            input,
            costs,
            kconfig,
        } => run_contend(input, costs, kconfig, opts, tr),
        Input::Fuzz {
            schedule_seed,
            n_cpus,
            rounds,
        } => run_fuzz(*schedule_seed, *n_cpus, *rounds, opts, tr),
    }));
    result.unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Outcome {
            failure: Some(format!("panic: {msg}")),
            wrong: true,
            ..Outcome::default()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_output_outranks_a_run_that_did_not_finish() {
        let mut o = Outcome::default();
        o.fail("step guard");
        assert!(!o.wrong);
        o.wrong("oracle: 1 violations");
        o.fail("later");
        assert!(o.wrong);
        assert_eq!(o.failure.as_deref(), Some("oracle: 1 violations"));

        let mut whole = Outcome::default();
        let mut unfinished = Outcome::default();
        unfinished.fail("red: DetectedFatal");
        whole.absorb(unfinished);
        assert!(whole.failure.is_some() && !whole.wrong);
        whole.absorb(o);
        assert!(whole.wrong);
        assert_eq!(whole.failure.as_deref(), Some("oracle: 1 violations"));
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        for w in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                let a = instances(w, 1, size);
                let b = instances(w, 2, size);
                assert_eq!(a.len(), b.len(), "{}: fixed work size", w.name());
                for (x, y) in a.iter().zip(&b) {
                    assert_ne!(
                        format!("{x:?}"),
                        format!("{y:?}"),
                        "{}: seeds 1 and 2 gave an identical instance",
                        w.name()
                    );
                }
                let again = instances(w, 1, size);
                assert_eq!(format!("{a:?}"), format!("{again:?}"), "{}", w.name());
            }
        }
    }
}
