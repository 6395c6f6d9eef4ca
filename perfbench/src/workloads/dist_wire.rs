//! `dist_wire`: a `DistributedLla` deployment with wire mode on (every
//! delivery round-trips the validated codec), the fleet telemetry plane
//! on, and a network that loses and duplicates about 1% of messages with
//! delays below a quarter round. Each op announces one availability
//! change and runs protocol rounds until the allocation is feasible and
//! within [`TOL`](crate::TOL) of the centralized certified optimum for
//! the new availability state. A set-up holds [`DEPLOYMENTS`] deployments
//! of distinct admitted instances and gives the ops to them in turn.

use super::{admitted, certify, near_optimum, solver_config};
use crate::admission::precheck;
use crate::rng::{derive, SplitMix};
use crate::trace::Tracer;
use crate::{Metrics, OpRecord, Options, SetupReport, TOL};
use lla_core::{Optimizer, OptimizerConfig, Problem, ResourceId};
use lla_dist::{Address, DistConfig, DistTelemetry, DistributedLla, Message, NetworkModel};
use lla_telemetry::{EventLog, MetricsRegistry, Profiler};
use lla_workloads::large_scale_workload;
use std::time::Instant;

/// Tasks per instance.
pub const TASKS: usize = 25;
/// Independent deployments per set-up.
pub const DEPLOYMENTS: usize = 48;
/// Resources per deployment whose availability the stream drops (and
/// restores).
pub const DROPS: usize = 8;
/// Availability factor of a drop.
pub const DROP: f64 = 0.9;
/// Protocol-round budget per op.
pub const BUDGET: u64 = 30_000;
/// Round budget of the initial convergence. A deployment still
/// unsettled after it is replaced by the next instance.
const COLD_ROUNDS: u64 = 30_000;
/// Instances drawn per deployment before the set-up gives up finding
/// one with a certified reference optimum that the deployment reaches.
const REFERENCE_ATTEMPTS: u64 = 4;
/// Iteration budget of each centralized reference solve.
const REFERENCE_BUDGET: usize = 50_000;
/// Rounds per arm of the telemetry-plane overhead comparison.
const PLANE_ROUNDS: usize = 100;
/// Passes over the message mix when timing the codec.
const CODEC_PASSES: usize = 20;

/// The deployment settings: wire mode, fleet plane, lossy duplicating
/// network with one-way delays in `[0.5, 1.5)` ms of a 10 ms round.
fn dist_config(seed: u64, report_cadence: f64) -> DistConfig {
    let config = solver_config();
    DistConfig {
        step_policy: config.step_policy,
        allocation: config.allocation,
        network: NetworkModel::lossy(0.5, 1.0, 0.01).with_duplication(0.01),
        seed,
        wire_mode: true,
        report_cadence,
        ..DistConfig::default()
    }
}

/// One availability change and the certified optimum of the state it
/// leads to.
#[derive(Debug, Clone, Copy)]
struct Event {
    resource: usize,
    value: f64,
    optimum: f64,
}

/// One deployment and its availability stream.
#[derive(Debug)]
struct Deployment {
    dist: DistributedLla,
    base: Problem,
    net_seed: u64,
    stream: Vec<Event>,
    /// Ops this deployment has taken.
    next: usize,
}

/// The workload state.
#[derive(Debug)]
pub struct DistWire {
    deployments: Vec<Deployment>,
    budget: u64,
    registry: MetricsRegistry,
    profiler: Profiler,
    /// `(sent, dropped, duplicated, merged, lost)` when the first op began.
    start: Option<[u64; 5]>,
}

/// Runs one solver to a certified optimum of `problem`.
fn reference_optimum(problem: &Problem, config: OptimizerConfig) -> Option<f64> {
    let mut opt = Optimizer::new(problem.clone(), config);
    let outcome = opt.run_to_convergence(REFERENCE_BUDGET);
    let lats = opt.allocation();
    let ok = outcome.converged
        && certify(opt.problem(), lats.lats(), opt.prices(), opt.utility(), &config.allocation);
    ok.then(|| opt.utility())
}

/// Whether the deployment's allocation is feasible and at `optimum`.
fn settled(dist: &DistributedLla, optimum: f64) -> bool {
    let lats = dist.allocation();
    dist.problem().is_feasible(lats.lats(), TOL)
        && near_optimum(dist.problem().total_utility(lats.lats()), optimum)
}

impl DistWire {
    fn counters(&mut self) -> [u64; 5] {
        let mut out = [0; 5];
        for d in &mut self.deployments {
            out[0] += d.dist.messages_sent();
            if let Some(view) = d.dist.fleet_view() {
                out[3] += view.reports_merged();
                out[4] += view.reports_lost();
            }
        }
        out[1] = self.registry.counter("lla_dist_messages_dropped_total", "").get();
        out[2] = self.registry.counter("lla_dist_messages_duplicated_total", "").get();
        out
    }

    /// Nanoseconds per round of `PLANE_ROUNDS` rounds from construction
    /// of the first deployment's instance.
    fn round_ns(&self, report_cadence: f64) -> f64 {
        let d = &self.deployments[0];
        let mut dist = DistributedLla::new(d.base.clone(), dist_config(d.net_seed, report_cadence));
        let t0 = Instant::now();
        dist.run_rounds(PLANE_ROUNDS);
        t0.elapsed().as_nanos() as f64 / PLANE_ROUNDS as f64
    }
}

/// Per-frame encode and decode nanoseconds and mean frame bytes over a
/// message mix modelled on one round of `problem`'s protocol: a latency
/// and a price message per subtask and a telemetry report per agent.
fn codec_costs(problem: &Problem) -> (f64, f64, f64) {
    let mut mix = Vec::new();
    for (t, task) in problem.tasks().iter().enumerate() {
        for (s, sub) in task.subtasks().iter().enumerate() {
            mix.push(Message::Latency { task: t, subtask: s, latency: 1.0 + s as f64 });
            let resource = sub.resource().index();
            mix.push(Message::Price { resource, mu: 0.25 + t as f64 * 1e-3, congested: s == 0 });
        }
        mix.push(Message::TelemetryReport {
            from: Address::Controller(t),
            seq: 1 + t as u64,
            watermark: 10.0,
            deltas: vec![(0, 1), (1, 4), (4, 4)],
        });
    }
    let frames: Vec<Vec<u8>> = mix.iter().map(lla_dist::encode).collect();
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    let t0 = Instant::now();
    for _ in 0..CODEC_PASSES {
        for m in &mix {
            std::hint::black_box(lla_dist::encode(std::hint::black_box(m)));
        }
    }
    let per_frame = (CODEC_PASSES * mix.len()) as f64;
    let encode_ns = t0.elapsed().as_nanos() as f64 / per_frame;
    let t0 = Instant::now();
    for _ in 0..CODEC_PASSES {
        for f in &frames {
            let decoded = lla_dist::decode(std::hint::black_box(f));
            assert!(decoded.is_ok(), "the codec round-trips its own frames");
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / per_frame;
    (encode_ns, decode_ns, bytes)
}

/// Generates and admits instance `k` of the run, solves every state of
/// its availability stream centrally, deploys it and converges it.
///
/// No op on an instance can be checked without a certified optimum of its
/// base state, and an op on a deployment that never settled at it would
/// start unconverged; such an instance counts in `uncertified` and the
/// next one is drawn.
fn deployment(
    seed: u64,
    k: u64,
    registry: &MetricsRegistry,
    profiler: &Profiler,
    report: &mut SetupReport,
) -> Result<Deployment, String> {
    let config = solver_config();
    for attempt in 0..REFERENCE_ATTEMPTS {
        let base = admitted(
            seed,
            k + 3 * DEPLOYMENTS as u64 * attempt,
            &config.allocation,
            report,
            |s| large_scale_workload(TASKS, s),
            |p| p,
        )?;
        let Some(base_optimum) = reference_optimum(&base, config) else {
            report.uncertified += 1;
            continue;
        };
        let stream = drop_stream(seed, k, &base, base_optimum, config, report)?;

        let tel =
            DistTelemetry::new(registry, EventLog::disabled()).with_profiler(profiler.clone());
        let net_seed = derive(seed, 2 * DEPLOYMENTS as u64 + k, 0);
        let t0 = Instant::now();
        let mut dist =
            DistributedLla::with_telemetry(base.clone(), dist_config(net_seed, 10.0), tel);
        report.construct_s += t0.elapsed().as_secs_f64();
        let mut rounds = 0;
        while !settled(&dist, base_optimum) && rounds < COLD_ROUNDS {
            dist.run_rounds(1);
            rounds += 1;
        }
        if settled(&dist, base_optimum) {
            return Ok(Deployment { dist, base, net_seed, stream, next: 0 });
        }
        report.uncertified += 1;
    }
    Err("no instance with a certified reference optimum that the deployment reaches".into())
}

/// The availability stream of instance `k`: distinct resources dropped
/// to [`DROP`] and restored, each drop state prechecked and solved
/// centrally for its reference optimum.
fn drop_stream(
    seed: u64,
    k: u64,
    base: &Problem,
    base_optimum: f64,
    config: OptimizerConfig,
    report: &mut SetupReport,
) -> Result<Vec<Event>, String> {
    let nr = base.resources().len();
    let mut rng = SplitMix::new(derive(seed, DEPLOYMENTS as u64 + k, 0));
    let mut picked = Vec::new();
    while picked.len() < DROPS.min(nr) {
        let r = rng.below(nr);
        if !picked.contains(&r) {
            picked.push(r);
        }
    }
    let mut stream = Vec::with_capacity(2 * DROPS);
    for resource in picked {
        let orig = base.resources()[resource].availability();
        let mut state = base.clone();
        state
            .set_resource_availability(ResourceId::new(resource), orig * DROP)
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let admitted = precheck(&state, &config.allocation).admitted();
        report.precheck_s += t0.elapsed().as_secs_f64();
        if !admitted {
            report.rejected += 1;
            continue;
        }
        match reference_optimum(&state, config) {
            Some(optimum) => {
                stream.push(Event { resource, value: orig * DROP, optimum });
                stream.push(Event { resource, value: orig, optimum: base_optimum });
            }
            None => report.uncertified += 1,
        }
    }
    if stream.is_empty() {
        return Err("every availability drop was rejected".into());
    }
    Ok(stream)
}

impl crate::Workload for DistWire {
    const SETUP_REPS: usize = 3;

    fn setup(opts: &Options) -> Result<(Self, SetupReport), String> {
        let mut report = SetupReport::default();
        let registry =
            if opts.traced { MetricsRegistry::new() } else { MetricsRegistry::disabled() };
        let profiler = if opts.traced { Profiler::recording() } else { Profiler::disabled() };
        let deployments = (0..DEPLOYMENTS as u64)
            .map(|k| deployment(opts.seed, k, &registry, &profiler, &mut report))
            .collect::<Result<Vec<_>, _>>()?;
        profiler.reset();
        let budget = opts.budget.unwrap_or(BUDGET);
        let state = DistWire { deployments, budget, registry, profiler, start: None };
        Ok((state, report))
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpRecord {
        if self.start.is_none() {
            self.start = Some(self.counters());
        }
        let d = &mut self.deployments[index as usize % DEPLOYMENTS];
        let event = d.stream[d.next % d.stream.len()];
        d.next += 1;
        let dist = &mut d.dist;
        let sent = dist.messages_sent();
        let rejected = dist.frames_rejected();
        tracer.open("op");
        let t0 = Instant::now();
        let applied = tracer.span("system.set_availability", || {
            dist.set_resource_availability(ResourceId::new(event.resource), event.value).is_ok()
        });
        let mut wall_ns = t0.elapsed().as_nanos() as u64;
        tracer.close();
        let mut rounds = 0;
        let mut certified = false;
        while applied && rounds < self.budget {
            tracer.open("op");
            let t0 = Instant::now();
            tracer.span("system.round", || dist.run_rounds(1));
            wall_ns += t0.elapsed().as_nanos() as u64;
            tracer.close();
            rounds += 1;
            if tracer.span("lagrangian.certify", || settled(dist, event.optimum)) {
                certified = true;
                break;
            }
        }
        // A frame the codec refuses on a corruption-free network is a
        // wrong output, as is a refused availability change.
        let clean = dist.frames_rejected() == rejected;
        OpRecord {
            wall_ns,
            rounds,
            certified: certified && clean,
            wrong: !applied || !clean,
            msgs: dist.messages_sent() - sent,
            ..OpRecord::default()
        }
    }

    fn summarize(&mut self, ops: &[OpRecord], tracer: &mut Tracer, out: &mut Metrics) {
        let start = self.start.unwrap_or_default();
        let end = self.counters();
        let delta = |i: usize| end[i].saturating_sub(start[i]) as f64;
        let snap = self.profiler.snapshot();
        for (scope, layer) in [("tick", "runtime.tick"), ("dispatch", "runtime.dispatch")] {
            let (ns, calls) = snap
                .frames
                .iter()
                .filter(|f| f.path == scope)
                .fold((0, 0), |(ns, calls), f| (ns + f.total_ns, calls + f.calls));
            tracer.attribute("system.round", layer, ns, calls);
        }
        let layers = tracer.layers();
        let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
        let rounds = layer("system.round").calls.max(1) as f64;
        out.set("system.round_ns", layer("system.round").total_ns / rounds, "ns");
        out.set("runtime.tick_ns", layer("runtime.tick").total_ns / rounds, "ns");
        out.set("runtime.dispatch_ns", layer("runtime.dispatch").total_ns / rounds, "ns");
        let msgs_per_round = delta(0) / rounds;
        out.set("runtime.msgs_per_round", msgs_per_round, "count");
        out.set("runtime.drop_share", delta(1) / delta(0).max(1.0), "ratio");
        out.set("runtime.dup_share", delta(2) / delta(0).max(1.0), "ratio");
        out.set("fleet.reports_merged", delta(3), "count");
        out.set("fleet.reports_lost", delta(4), "count");
        let (encode_ns, decode_ns, frame_bytes) = codec_costs(&self.deployments[0].base);
        out.set("codec.encode_ns", encode_ns, "ns");
        out.set("codec.decode_ns", decode_ns, "ns");
        out.set("codec.bytes_per_round", frame_bytes * msgs_per_round, "bytes");
        let rejected: u64 = self.deployments.iter().map(|d| d.dist.frames_rejected()).sum();
        out.set("codec.frames_rejected", rejected as f64, "count");
        let off = self.round_ns(0.0);
        let on = self.round_ns(10.0);
        out.set("fleet.plane_overhead", on / off - 1.0, "ratio");
        let iters: u64 = ops.iter().map(|o| o.rounds).sum();
        out.set("optimizer.iters_per_op", iters as f64 / ops.len().max(1) as f64, "count");
    }
}
