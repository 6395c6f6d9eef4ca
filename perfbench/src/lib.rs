//! The repository benchmark: time to a certified latency assignment,
//! measured end to end through the public APIs of `lla-workloads`,
//! `lla-core`, `lla-dist` and `lla-sim`, with a separate traced run that
//! derives per-layer costs. See `README.md` beside this crate for the
//! workloads, the metrics and how to read them.

mod admission;
mod host;
mod rng;
mod stats;
mod trace;
mod workloads;

use host::HostClock;
use std::time::Instant;
use trace::Tracer;

/// Feasibility and duality-gap tolerance every certified op must meet.
pub const TOL: f64 = 1e-3;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("rounds_per_op", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// Figures that do not apply to a workload read 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.generate_s", "s"),
    ("workloads.precheck_s", "s"),
    ("workloads.rejected", "count"),
    ("workloads.uncertified", "count"),
    ("plan.allocate_ns", "ns"),
    ("plan.price_ns", "ns"),
    ("plan.lagrangian_ns", "ns"),
    ("plan.trace_ns", "ns"),
    ("plan.lower_ns", "ns"),
    ("optimizer.step_ns", "ns"),
    ("optimizer.iters_per_op", "count"),
    ("lagrangian.certify_ns", "ns"),
    ("shard.local_ns_max", "ns"),
    ("shard.coordinator_ns", "ns"),
    ("shard.relower_ns", "ns"),
    ("shard.round_ns", "ns"),
    ("system.construct_s", "s"),
    ("system.round_ns", "ns"),
    ("runtime.tick_ns", "ns"),
    ("runtime.dispatch_ns", "ns"),
    ("runtime.msgs_per_round", "count"),
    ("runtime.drop_share", "ratio"),
    ("runtime.dup_share", "ratio"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_round", "bytes"),
    ("codec.frames_rejected", "count"),
    ("fleet.reports_merged", "count"),
    ("fleet.reports_lost", "count"),
    ("fleet.plane_overhead", "ratio"),
    ("simulator.ns_per_window", "ns"),
    ("simulator.dropped", "count"),
    ("closedloop.opt_ns_per_window", "ns"),
    ("closedloop.iters_per_window", "count"),
    ("closedloop.enactments", "count"),
    ("msgs_per_op", "count"),
    ("miss_ratio", "ratio"),
    ("op.tail_ms", "ms"),
    ("op.tail_pct", "%"),
    ("op.tail_samples", "count"),
    ("trace.attributed_share", "ratio"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Monolithic optimizer, cold solves of fresh flat instances.
    ColdSolve,
    /// Sharded optimizer re-certifying after each perturbation.
    OnlineChurn,
    /// Distributed runtime over the wire codec and a lossy network.
    DistWire,
    /// Optimizer in the loop with the discrete-event simulator.
    ClosedLoop,
}

impl WorkloadKind {
    /// Every workload, in documentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::ColdSolve,
        WorkloadKind::OnlineChurn,
        WorkloadKind::DistWire,
        WorkloadKind::ClosedLoop,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdSolve => "cold_solve",
            WorkloadKind::OnlineChurn => "online_churn",
            WorkloadKind::DistWire => "dist_wire",
            WorkloadKind::ClosedLoop => "closed_loop",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a workload's set-up and ops are given.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed every input is derived from.
    pub seed: u64,
    /// Round budget per op, overriding the workload's default.
    pub budget: Option<u64>,
    /// Whether the set-up is for a traced phase (attach the program's
    /// profiler and metrics handles).
    pub traced: bool,
}

/// One op's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct OpRecord {
    /// Wall time of the op, certification excluded.
    pub wall_ns: u64,
    /// `wall_ns` at the nominal host speed (see `host.rs`).
    pub norm_ns: f64,
    /// LLA iterations (protocol rounds on `dist_wire`; optimizer
    /// iterations on `closed_loop`).
    pub rounds: u64,
    /// Whether the op's output passed every check.
    pub certified: bool,
    /// Whether the program reported success on an output the checks
    /// refute (a correctness failure, not merely a missed budget).
    pub wrong: bool,
    /// Messages the deployment sent during the op (`dist_wire`).
    pub msgs: u64,
    /// Mean over tasks of the window's deadline-miss fraction
    /// (`closed_loop`).
    pub miss_rate: f64,
    /// Job sets the simulator dropped in the window (`closed_loop`).
    pub dropped: u64,
}

/// Timings and counts of one set-up.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetupReport {
    /// Instance generation.
    pub generate_s: f64,
    /// Admission prechecks (instances and event-stream states).
    pub precheck_s: f64,
    /// Optimizer / deployment / loop construction.
    pub construct_s: f64,
    /// Instances or stream states the precheck rejected.
    pub rejected: u64,
    /// Admitted instances or stream states whose reference solve did not
    /// certify, so that no op on them could be checked.
    pub uncertified: u64,
}

/// Named figures with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// A workload: set-up, ops, and the per-layer figures of a traced phase.
pub(crate) trait Workload: Sized {
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;

    /// Generates and admits the inputs, builds the system under test and
    /// brings it to the state the first op starts from.
    fn setup(opts: &Options) -> Result<(Self, SetupReport), String>;

    /// Runs op number `index` and checks its output.
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpRecord;

    /// Adds the per-layer figures of a traced phase of `ops`.
    fn summarize(&mut self, ops: &[OpRecord], tracer: &mut Tracer, out: &mut Metrics);
}

/// The inputs of slice `k` of a run: each set-up of a run draws its own
/// instances, so a run covers several times the instances one set-up
/// holds, at no extra set-up cost.
fn slice(opts: &Options, k: usize) -> Options {
    Options { seed: rng::derive(opts.seed, u64::MAX, k as u64), ..*opts }
}

/// When a phase stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many wall-clock seconds (at least one op).
    Seconds(f64),
    /// After exactly this many ops.
    Ops(usize),
}

/// Runs ops one at a time, appending to `ops`, until `stop`: after
/// `Seconds` (and at least one op) or when `ops` holds `Ops` records.
fn run_phase<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    host: &mut HostClock,
    stop: Stop,
    ops: &mut Vec<OpRecord>,
) {
    let start = Instant::now();
    let first = ops.len();
    loop {
        let more = match stop {
            Stop::Seconds(s) => ops.len() == first || start.elapsed().as_secs_f64() < s,
            Stop::Ops(n) => ops.len() < n,
        };
        if !more {
            return;
        }
        let index = ops.len() as u64;
        tracer.set_op(u32::try_from(index).unwrap_or(u32::MAX));
        let factor = host.op_factor();
        let mut record = w.op(index, tracer);
        record.norm_ns = record.wall_ns as f64 * factor;
        ops.push(record);
    }
}

/// Certified ops per second of normalized op time (failed ops' time
/// included).
fn ops_per_s(ops: &[OpRecord]) -> f64 {
    let secs: f64 = ops.iter().map(|o| o.norm_ns).sum::<f64>() / 1e9;
    ops.iter().filter(|o| o.certified).count() as f64 / secs.max(1e-12)
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No op returned an output its checks refute.
    pub correct: bool,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that did not certify (missed budget or failed a check).
    pub failed: u64,
    /// The figures for the final JSON line.
    pub metrics: Metrics,
    /// Everything else measured, printed before the JSON line.
    pub detail: Metrics,
}

/// Runs one workload for `seconds`, or for exactly `max_ops` ops;
/// `opts.traced` selects the per-layer run.
pub fn run(
    kind: WorkloadKind,
    opts: &Options,
    seconds: f64,
    max_ops: Option<usize>,
) -> Result<RunResult, String> {
    match kind {
        WorkloadKind::ColdSolve => {
            run_with::<workloads::cold_solve::ColdSolve>(kind, opts, seconds, max_ops)
        }
        WorkloadKind::OnlineChurn => {
            run_with::<workloads::online_churn::OnlineChurn>(kind, opts, seconds, max_ops)
        }
        WorkloadKind::DistWire => {
            run_with::<workloads::dist_wire::DistWire>(kind, opts, seconds, max_ops)
        }
        WorkloadKind::ClosedLoop => {
            run_with::<workloads::closed_loop::ClosedLoopBench>(kind, opts, seconds, max_ops)
        }
    }
}

fn op_figures(ops: &[OpRecord], out: &mut Metrics) {
    let walls: Vec<f64> = ops.iter().map(|o| o.norm_ns / 1e6).collect();
    out.set("ops_per_s", ops_per_s(ops), "1/s");
    out.set("op_p50_ms", stats::median(&walls), "ms");
    let raw: Vec<f64> = ops.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
    let raw_s = raw.iter().sum::<f64>() / 1e3;
    let certified = ops.iter().filter(|o| o.certified).count() as f64;
    out.set("ops_per_s.raw", certified / raw_s.max(1e-12), "1/s");
    out.set("op_p50_ms.raw", stats::median(&raw), "ms");
    let rounds: Vec<f64> = ops.iter().map(|o| o.rounds as f64).collect();
    out.set("rounds_per_op", stats::median(&rounds), "count");
    let (pct, ms, beyond) = stats::tail(&walls).unwrap_or((0.0, 0.0, 0));
    out.set("op.tail_ms", ms, "ms");
    out.set("op.tail_pct", 100.0 * pct, "%");
    out.set("op.tail_samples", beyond as f64, "count");
    let n = ops.len().max(1) as f64;
    out.set("msgs_per_op", ops.iter().map(|o| o.msgs as f64).sum::<f64>() / n, "count");
    out.set("miss_ratio", ops.iter().map(|o| o.miss_rate).sum::<f64>() / n, "ratio");
    out.set("simulator.dropped", ops.iter().map(|o| o.dropped as f64).sum(), "count");
}

fn run_with<W: Workload>(
    kind: WorkloadKind,
    opts: &Options,
    seconds: f64,
    max_ops: Option<usize>,
) -> Result<RunResult, String> {
    let mut detail = Metrics::default();
    let mut ops = Vec::new();
    let reported = if opts.traced {
        // An untraced phase, then the same ops again on a fresh set-up
        // with spans recorded, so the overhead is measured on identical
        // work.
        let mut host = HostClock::new();
        let (mut w, _) = W::setup(&Options { traced: false, ..slice(opts, 0) })?;
        let mut untraced = Vec::new();
        let stop = max_ops.map_or(Stop::Seconds(seconds / 2.0), Stop::Ops);
        run_phase(&mut w, &mut Tracer::new(false), &mut host, stop, &mut untraced);
        op_figures(&untraced, &mut detail);
        drop(w);
        let (mut w, report) = W::setup(&slice(opts, 0))?;
        let mut tracer = Tracer::new(true);
        run_phase(&mut w, &mut tracer, &mut host, Stop::Ops(untraced.len()), &mut ops);
        w.summarize(&ops, &mut tracer, &mut detail);
        let layers = tracer.layers();
        let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
        let certify = layer("lagrangian.certify");
        detail.set("lagrangian.certify_ns", certify.total_ns / certify.calls.max(1) as f64, "ns");
        let op = layer("op");
        detail.set("trace.attributed_share", 1.0 - op.self_ns / op.total_ns.max(1.0), "ratio");
        detail.set("trace.ops_per_s_untraced", ops_per_s(&untraced), "1/s");
        detail.set("trace.ops_per_s_traced", ops_per_s(&ops), "1/s");
        detail.set("trace.overhead_ops_per_s", ops_per_s(&untraced) - ops_per_s(&ops), "1/s");
        detail.set("workloads.generate_s", report.generate_s, "s");
        detail.set("workloads.precheck_s", report.precheck_s, "s");
        detail.set("workloads.rejected", report.rejected as f64, "count");
        detail.set("workloads.uncertified", report.uncertified as f64, "count");
        detail.set("system.construct_s", report.construct_s, "s");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
            "spans-{}-{}.tsv",
            kind.name(),
            opts.seed
        ));
        tracer.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        &PER_LAYER[..]
    } else {
        // The timed phase is cut into one slice per set-up, and each
        // slice runs on a fresh set-up of its own inputs, so the set-ups
        // sample the host over the whole run as the ops do. The previous
        // set-up is freed first, so peak RSS stays one set-up's.
        let reps = W::SETUP_REPS;
        let mut host = HostClock::new();
        let mut setup_s = Vec::with_capacity(reps);
        let mut setup_raw_s = Vec::with_capacity(reps);
        let mut current: Option<W> = None;
        let mut rejected = (0, 0);
        for k in 0..reps {
            drop(current.take());
            let (setup, raw_s, norm_s) = host.time_setup(|| W::setup(&slice(opts, k)));
            let (mut w, report) = setup?;
            setup_raw_s.push(raw_s);
            setup_s.push(norm_s);
            rejected.0 += report.rejected;
            rejected.1 += report.uncertified;
            let stop = match max_ops {
                Some(n) => Stop::Ops(n * (k + 1) / reps),
                None => Stop::Seconds(seconds / reps as f64),
            };
            run_phase(&mut w, &mut Tracer::new(false), &mut host, stop, &mut ops);
            current = Some(w);
        }
        op_figures(&ops, &mut detail);
        detail.set("workloads.rejected", rejected.0 as f64, "count");
        detail.set("workloads.uncertified", rejected.1 as f64, "count");
        detail.set("setup_s", stats::median(&setup_s), "s");
        detail.set("setup_s.raw", stats::median(&setup_raw_s), "s");
        detail.set("host.kernel_ms", host.median_ms(), "ms");
        detail.set("peak_rss_mb", peak_rss_mb(), "MB");
        &END_TO_END[..]
    };
    let mut metrics = Metrics::default();
    for &(name, unit) in reported {
        metrics.set(name, detail.get(name).unwrap_or(0.0), unit);
    }
    Ok(RunResult {
        correct: !ops.iter().any(|o| o.wrong),
        attempted: ops.len() as u64,
        failed: ops.iter().filter(|o| !o.certified).count() as u64,
        metrics,
        detail,
    })
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The final-line JSON object.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
