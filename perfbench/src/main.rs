//! machtlb's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-16 --seed 1 --seconds 20 --trace 0
//! ... -- --smoke        # every workload at tiny size, both modes
//! ... -- --selfcheck    # Stepped-spin oracle vs the default Event mode
//! ```
//!
//! A run repeats the workload's fixed work (its instances, generated from
//! the seed) for `--seconds`. Simulated numbers come from the first pass
//! and must repeat exactly in every later one; host numbers are medians
//! over passes. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics. The last stdout line is the result object; the line
//! before it carries every metric with its unit and sample count.

mod contend;
mod reference;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use machtlb_core::SpinMode;
use machtlb_xpr::linear_fit;

use reference::{Quantity, FIG2_FIT_MAX_K, FIG2_INTERCEPT_US, FIG2_SLOPE_US, HELD_BACK};
use stats::{median, Metrics, Tracer};
use workloads::{Instance, Opts, Outcome, Size, Workload, PHASES};

/// End-to-end metrics, reported with tracing off (names and units as in
/// `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("shoot_us.p50", "us"),
    ("shoot_us.p90", "us"),
    ("wall_s", "s"),
    ("run_ms.p50", "ms"),
    ("run_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.steps", "count"),
    ("sim.host_s", "s"),
    ("sim.ns_per_step", "ns"),
    ("bus.transactions", "count"),
    ("bus.held_us", "us"),
    ("bus.queued_us", "us"),
    ("mcast.posts", "count"),
    ("mcast.forwards", "count"),
    ("mcast.pruned", "count"),
    ("fault.injected", "count"),
    ("tlb.hits", "count"),
    ("tlb.misses", "count"),
    ("tlb.miss_pct", "%"),
    ("tlb.invalidated", "count"),
    ("tlb.flushes", "count"),
    ("tlb.epoch_flushes", "count"),
    ("pmap.ops", "count"),
    ("pmap.lazy_skips", "count"),
    ("pmap.remote_lock_refs", "count"),
    ("vm.faults_resolved", "count"),
    ("vm.cow_copies", "count"),
    ("vm.zero_fills", "count"),
    ("core.shootdowns", "count"),
    ("core.ipis_sent", "count"),
    ("core.ipis_filtered", "count"),
    ("core.filter_pct", "%"),
    ("core.actions_coalesced", "count"),
    ("core.degraded_flushes", "count"),
    ("core.multicast_rounds", "count"),
    ("core.initiators_batched", "count"),
    ("resp_us.p50", "us"),
    ("phase.queue_actions_us", "us"),
    ("phase.ipi_send_us", "us"),
    ("phase.sync_wait_us", "us"),
    ("phase.pmap_update_us", "us"),
    ("phase.quiesce_us", "us"),
    ("phase.drain_us", "us"),
    ("recovery.ipi_retries", "count"),
    ("recovery.evictions", "count"),
    ("recovery.fenced_rejoins", "count"),
    ("recovery.locks_stolen", "count"),
    ("recovery.ops_retried", "count"),
    ("fuzz.gen_us", "us"),
    ("fuzz.codec_us", "us"),
    ("fuzz.run_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("workloads.install_ms", "ms"),
    ("workloads.extract_ms", "ms"),
    ("xpr.trace_events", "count"),
    ("xpr.assemble_ms", "ms"),
    ("xpr.trace_overhead_pct", "%"),
    ("model.fig2_err_pct", "%"),
];

/// Extra set-ups per instance (build and install without a run) that
/// `setup_s` takes its median over, beside the passes' own.
const SETUP_REPS: usize = 5;

/// The bound `BENCHMARK.json` gives `wall_s`: the self-check requires the
/// Stepped oracle to be slower than this.
const WALL_BOUND: f64 = 0.25;

struct Pass {
    traced: bool,
    wall_s: f64,
    /// Each instance's outcome and its host seconds.
    outcomes: Vec<(Outcome, f64)>,
}

fn run_pass(inputs: &[Instance], opts: Opts, tr: &mut Tracer) -> Pass {
    let start = Instant::now();
    let outcomes = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            tr.instance = i;
            // The parent of the instance's layer spans; its self time is
            // the benchmark's own work between calls.
            tr.span("instance", |tr| workloads::run(input, opts, tr))
        })
        .collect();
    Pass {
        traced: opts.trace,
        wall_s: start.elapsed().as_secs_f64(),
        outcomes,
    }
}

/// The per-pass total of one host span, in seconds.
fn host_sum(p: &Pass, names: &[&str]) -> f64 {
    p.outcomes
        .iter()
        .flat_map(|(o, _)| names.iter().filter_map(|n| o.host.get(n)))
        .sum()
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Measured {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
    passes: usize,
    instances: usize,
}

fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: bool,
) -> Measured {
    let inputs = workloads::instances(w, seed, size);
    let mut quiet = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_mb = None;
    loop {
        let traced = trace && passes.last().is_some_and(|p| !p.traced);
        let opts = Opts {
            trace: traced,
            spin: SpinMode::Event,
        };
        let tr = if traced { &mut tracer } else { &mut quiet };
        passes.push(run_pass(&inputs, opts, tr));
        if passes.len() == 1 {
            // The fresh process's peak over one pass of the fixed work,
            // before later passes add allocator history.
            rss_mb = peak_rss_mb();
        }
        let both = !trace || passes.iter().any(|p| p.traced);
        if both && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let mut correct = true;
    let first = &passes[0];
    let fps: Vec<u64> = first
        .outcomes
        .iter()
        .map(|(o, _)| o.fingerprint())
        .collect();
    for (pi, p) in passes.iter().enumerate() {
        for (i, (o, _)) in p.outcomes.iter().enumerate() {
            if o.fingerprint() != fps[i] {
                eprintln!("pass {pi} instance {i}: simulated results differ from pass 0");
                correct = false;
            }
            if !p.traced && o.trace_events.is_some_and(|n| n != 0) {
                eprintln!("pass {pi} instance {i}: untraced run recorded trace events");
                correct = false;
            }
            if let Some(why) = &o.failure {
                if pi == 0 {
                    let kind = if o.wrong {
                        "wrong output"
                    } else {
                        "did not finish"
                    };
                    eprintln!("instance {i} failed ({kind}): {why}");
                }
            }
            // A wrong output makes the run incorrect; a run that did not
            // finish is counted in `failed` and `fail_pct`.
            correct &= !o.wrong;
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.outcomes.len() as u64).sum();
    let failed: u64 = passes
        .iter()
        .flat_map(|p| &p.outcomes)
        .filter(|(o, _)| o.failure.is_some())
        .count() as u64;

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let mut m = Metrics::default();
    let sim: Vec<&Outcome> = first.outcomes.iter().map(|(o, _)| o).collect();

    // End to end.
    let shoot: Vec<f64> = sim
        .iter()
        .flat_map(|o| o.shoot_us.iter().copied())
        .collect();
    m.set_percentiles("shoot_us", &shoot, "us");
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    m.set("wall_s", median(&walls), "s", walls.len());
    let run_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.outcomes.iter().map(|(_, s)| s * 1e3))
        .collect();
    m.set_percentiles("run_ms", &run_ms, "ms");
    // Set-up of the fixed work: each instance's median build + install
    // time, over its passes and SETUP_REPS set-ups without a run, summed.
    // A fuzz schedule's machine is built inside `run_chaos`, so a pass
    // has no build span there and only the set-ups without a run count.
    let mut setups: Vec<Vec<f64>> = inputs.iter().map(|_| Vec::new()).collect();
    for p in &untraced {
        for (i, (o, _)) in p.outcomes.iter().enumerate() {
            if !o.host.contains_key("workloads.build") {
                continue;
            }
            setups[i].push(
                ["workloads.build", "workloads.install"]
                    .iter()
                    .filter_map(|n| o.host.get(n))
                    .sum(),
            );
        }
    }
    if !trace {
        for _ in 0..SETUP_REPS {
            for (i, input) in inputs.iter().enumerate() {
                setups[i].push(workloads::setup_only(input));
            }
        }
    }
    let setup_s: f64 = setups.iter().map(|xs| median(xs)).sum();
    m.set("setup_s", setup_s, "s", setups.iter().map(Vec::len).sum());
    m.set("peak_rss_mb", rss_mb.unwrap_or(0.0), "MB", 1);
    m.set(
        "fail_pct",
        100.0 * failed as f64 / attempted as f64,
        "%",
        attempted as usize,
    );
    let over: Vec<(f64, f64)> = sim.iter().filter_map(|o| o.overhead).collect();
    let (num, den) = over.iter().fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    if den > 0.0 {
        m.set("overhead_pct", 100.0 * num / den, "%", over.len());
    }
    if w == Workload::Paper16 {
        let (err, n) = paper_err_pct(&sim);
        m.set("paper_err_pct", err, "%", n);
    }

    // Per layer.
    if let (true, Some(t0)) = (trace, traced.first()) {
        let tsim: Vec<&Outcome> = t0.outcomes.iter().map(|(o, _)| o).collect();
        let mut counts: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for o in &tsim {
            for (name, v) in &o.counts {
                let e = counts.entry(name).or_default();
                e.0 += v;
                e.1 += 1;
            }
        }
        let count = |name: &str| counts.get(name).copied().unwrap_or((0.0, 0));
        for (name, unit) in PER_LAYER {
            if unit == "count" || name.starts_with("bus.") {
                let (v, n) = count(name);
                m.set(name, v, unit, n);
            }
        }
        let med = |xs: Vec<f64>| (median(&xs), xs.len());
        let (run_s, n) = med(traced
            .iter()
            .map(|p| host_sum(p, &["sim.run", "fuzz.run"]))
            .collect());
        m.set("sim.host_s", run_s, "s", n);
        let (steps, n_steps) = count("sim.steps");
        m.set(
            "sim.ns_per_step",
            if steps > 0.0 {
                run_s / steps * 1e9
            } else {
                0.0
            },
            "ns",
            n_steps,
        );
        let (hits, n_tlb) = count("tlb.hits");
        let misses = count("tlb.misses").0;
        let refs = hits + misses;
        m.set(
            "tlb.miss_pct",
            if refs > 0.0 {
                100.0 * misses / refs
            } else {
                0.0
            },
            "%",
            n_tlb,
        );
        let (sent, n_core) = count("core.ipis_sent");
        let filtered = count("core.ipis_filtered").0;
        let ipis = sent + filtered;
        m.set(
            "core.filter_pct",
            if ipis > 0.0 {
                100.0 * filtered / ipis
            } else {
                0.0
            },
            "%",
            n_core,
        );
        let resp: Vec<f64> = tsim
            .iter()
            .flat_map(|o| o.resp_us.iter().copied())
            .collect();
        m.set_percentiles("resp_us", &resp, "us");
        for (_, name) in PHASES {
            let xs: Vec<f64> = tsim
                .iter()
                .flat_map(|o| o.phases.get(name).into_iter().flatten().copied())
                .collect();
            m.set(name, median(&xs), "us", xs.len());
        }
        // Per program run (one schedule), averaged within each instance.
        let per_run = |span: &str, scale: f64| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|p| &p.outcomes)
                .filter_map(|(o, _)| o.host.get(span).map(|s| s * scale / o.runs as f64))
                .collect()
        };
        for (name, span, scale) in [
            ("fuzz.gen_us", "fuzz.gen", 1e6),
            ("fuzz.codec_us", "fuzz.codec", 1e6),
            ("fuzz.run_ms", "fuzz.run", 1e3),
        ] {
            let (v, n) = med(per_run(span, scale));
            m.set(name, v, if scale == 1e6 { "us" } else { "ms" }, n);
        }
        for (name, span) in [
            ("workloads.build_ms", "workloads.build"),
            ("workloads.install_ms", "workloads.install"),
            ("workloads.extract_ms", "workloads.extract"),
            ("xpr.assemble_ms", "xpr.assemble"),
        ] {
            let xs: Vec<f64> = traced
                .iter()
                .filter(|p| p.outcomes.iter().any(|(o, _)| o.host.contains_key(span)))
                .map(|p| host_sum(p, &[span]) * 1e3)
                .collect();
            let (v, n) = med(xs);
            m.set(name, v, "ms", n);
        }
        m.set(
            "xpr.trace_events",
            tsim.iter().filter_map(|o| o.trace_events).sum::<u64>() as f64,
            "count",
            tsim.iter().filter(|o| o.trace_events.is_some()).count(),
        );
        // Recording cost only: the traced passes' assembly of the trace
        // is the benchmark's analysis, reported as xpr.assemble_ms.
        let tw = median(
            &traced
                .iter()
                .map(|p| p.wall_s - host_sum(p, &["xpr.assemble"]))
                .collect::<Vec<_>>(),
        );
        let uw = median(&walls);
        m.set(
            "xpr.trace_overhead_pct",
            100.0 * (tw - uw) / uw,
            "%",
            traced.len().min(untraced.len()),
        );
        if spans_out {
            write_spans(w, seed, &tracer);
        }
    }
    let (fig2_err, n) = fig2_err_pct(&sim);
    m.set("model.fig2_err_pct", fig2_err, "%", n);

    Measured {
        metrics: m,
        correct,
        attempted,
        failed,
        passes: passes.len(),
        instances: inputs.len(),
    }
}

/// Mean absolute relative error (%) against the held-back points, and how
/// many points had data.
fn paper_err_pct(sim: &[&Outcome]) -> (f64, usize) {
    let mut errs = Vec::new();
    for p in HELD_BACK {
        let obs: Vec<_> = sim
            .iter()
            .flat_map(|o| &o.paper)
            .filter(|(app, _, _, _)| *app == p.app)
            .collect();
        let pooled = |lazy: bool, user: bool| -> Vec<f64> {
            obs.iter()
                .filter(|(_, l, _, _)| *l == lazy)
                .flat_map(|(_, _, k, u)| if user { u.iter() } else { k.iter() })
                .copied()
                .collect()
        };
        let mean = |xs: &[f64]| (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64);
        let model = match p.quantity {
            Quantity::KernelMeanUs => mean(&pooled(p.lazy, false)),
            Quantity::UserMeanUs => mean(&pooled(p.lazy, true)),
            Quantity::KernelEventRatio => {
                let (on, off) = (pooled(true, false).len(), pooled(false, false).len());
                (off > 0).then(|| on as f64 / off as f64)
            }
        };
        if let Some(v) = model {
            let err = (v - p.paper).abs() / p.paper * 100.0;
            eprintln!(
                "paper: {} {} lazy={} {:?}: paper {} model {v:.4} error {err:.1}%",
                p.source,
                p.app.name(),
                p.lazy,
                p.quantity,
                p.paper
            );
            errs.push(err);
        }
    }
    let mean = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    (mean, errs.len())
}

/// Residual (%) of the Fig. 2 least-squares fit against the calibration
/// target, averaged over intercept and slope; the sample count is the
/// number of tester points fitted (0 off paper-16).
fn fig2_err_pct(sim: &[&Outcome]) -> (f64, usize) {
    let mut by_k: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for &(k, us) in sim.iter().flat_map(|o| &o.fig2) {
        if k <= FIG2_FIT_MAX_K {
            by_k.entry(k).or_default().push(us);
        }
    }
    let pts: Vec<(f64, f64)> = by_k
        .iter()
        .map(|(k, v)| (f64::from(*k), v.iter().sum::<f64>() / v.len() as f64))
        .collect();
    let n = by_k.values().map(Vec::len).sum();
    match (pts.len() >= 2).then(|| linear_fit(&pts)).flatten() {
        Some(fit) => (
            50.0 * ((fit.intercept - FIG2_INTERCEPT_US).abs() / FIG2_INTERCEPT_US
                + (fit.slope - FIG2_SLOPE_US).abs() / FIG2_SLOPE_US),
            n,
        ),
        None => (0.0, 0),
    }
}

/// Writes the traced passes' spans under the build directory.
fn write_spans(w: Workload, seed: u64, tr: &Tracer) {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&base).join("perfbench-spans");
    let path = dir.join(format!("spans-{}-{seed}.json", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => eprintln!("spans: {} written to {}", tr.spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
    eprintln!(
        "{:<20} {:>6} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (total, own, count)) in tr.totals() {
        eprintln!("{name:<20} {count:>6} {total:>12.4} {own:>12.4}");
    }
}

fn header(w: Workload, seed: u64, trace: bool, r: &Measured) -> String {
    format!(
        "\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"passes\": {}, \"instances\": {}",
        w.name(),
        u8::from(trace),
        r.passes,
        r.instances
    )
}

fn names(trace: bool) -> Vec<&'static str> {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    list.iter().map(|(n, _)| *n).collect()
}

fn report(w: Workload, seed: u64, trace: bool, r: &Measured) {
    println!("{}", r.metrics.detail_json(&header(w, seed, trace, r)));
    println!(
        "{}",
        r.metrics
            .result_json(&names(trace), r.correct, r.attempted, r.failed)
    );
}

/// Every workload at tiny size, untraced then traced.
fn smoke() -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = measure(w, 1, 0.0, trace, Size::Tiny, false);
            report(w, 1, trace, &r);
            ok &= r.correct;
        }
    }
    ok
}

/// Reruns three workloads at small size under the Stepped spin oracle:
/// every simulated result must be identical, and the host metrics must
/// see the oracle's extra work.
fn selfcheck() -> bool {
    let mut ok = true;
    for w in [Workload::Paper16, Workload::Scale512, Workload::Contend256] {
        // One program run per instance, so a divergence names its run.
        let inputs: Vec<Instance> = workloads::instances(w, 1, Size::Small)
            .into_iter()
            .flatten()
            .map(|input| vec![input])
            .collect();
        let mut tr = Tracer::new(false);
        let mut event = Vec::new();
        let mut stepped = Vec::new();
        for _ in 0..3 {
            for (spin, into) in [
                (SpinMode::Event, &mut event),
                (SpinMode::Stepped, &mut stepped),
            ] {
                into.push(run_pass(&inputs, Opts { trace: false, spin }, &mut tr));
            }
        }
        let same = event.iter().chain(&stepped).all(|p| {
            p.outcomes
                .iter()
                .zip(&event[0].outcomes)
                .all(|((a, _), (b, _))| a.fingerprint() == b.fingerprint())
        });
        for (i, ((a, _), (b, _))) in stepped[0]
            .outcomes
            .iter()
            .zip(&event[0].outcomes)
            .enumerate()
        {
            if a.fingerprint() != b.fingerprint() {
                let diff: Vec<&str> = a
                    .counts
                    .iter()
                    .filter(|(k, v)| b.counts.get(*k) != Some(*v))
                    .map(|(k, _)| *k)
                    .collect();
                eprintln!(
                    "{}: run {i} ({}) diverged; counters {diff:?}",
                    w.name(),
                    inputs[i][0].label()
                );
            }
        }
        let failures = event
            .iter()
            .chain(&stepped)
            .flat_map(|p| &p.outcomes)
            .filter(|(o, _)| o.failure.is_some())
            .count();
        let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let ns_per_step = |ps: &[Pass]| {
            let steps: f64 = ps[0]
                .outcomes
                .iter()
                .filter_map(|(o, _)| o.counts.get("sim.steps"))
                .sum();
            median(
                &ps.iter()
                    .map(|p| host_sum(p, &["sim.run"]))
                    .collect::<Vec<_>>(),
            ) / steps
                * 1e9
        };
        let wall_ratio = wall(&stepped) / wall(&event);
        let nps_ratio = ns_per_step(&stepped) / ns_per_step(&event);
        let pass =
            same && failures == 0 && wall_ratio > 1.0 + WALL_BOUND && nps_ratio > 1.0 + WALL_BOUND;
        println!(
            "selfcheck {}: simulated identical: {same}, failures: {failures}, wall_s x{wall_ratio:.2}, sim.ns_per_step x{nps_ratio:.2} (need > x{:.2}): {}",
            w.name(),
            1.0 + WALL_BOUND,
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }
    ok
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.smoke && !a.selfcheck && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-16|scale-512|contend-256|fuzz-64> \
                 --seed N --seconds S --trace 0|1 | --smoke | --selfcheck"
            );
            return ExitCode::from(2);
        }
    };
    let ok = if args.smoke {
        smoke()
    } else if args.selfcheck {
        selfcheck()
    } else {
        let w = args.workload.expect("checked by parse_args");
        let r = measure(
            w,
            args.seed,
            args.seconds as f64,
            args.trace,
            Size::Full,
            true,
        );
        report(w, args.seed, args.trace, &r);
        true
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
