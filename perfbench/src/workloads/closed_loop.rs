//! `closed_loop`: LLA in the loop with the discrete-event simulator.
//! Error correction is on and per-job execution times are uniform in
//! `[0.5, 1.0]` of the WCET. A set-up holds [`LOOPS`] independent loops on
//! distinct admitted instances that certify from cold; each op is one
//! 1000 ms window of the next loop in turn: measure, correct, re-optimize
//! from the warm state, enact.

use super::{admitted, certifies, solver_config};
use crate::trace::Tracer;
use crate::{Metrics, OpRecord, Options, SetupReport, TOL};
use lla_core::OptimizerConfig;
use lla_sim::simulator::ExecTimeModel;
use lla_sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla_telemetry::MetricsRegistry;
use lla_workloads::large_scale_workload;
use std::time::Instant;

/// Tasks per instance.
pub const TASKS: usize = 100;
/// Independent loops (instances) per set-up.
pub const LOOPS: usize = 48;
/// Optimizer trace records each loop retains.
const TRACE_CAPACITY: usize = 256;
/// Optimizer iteration budget per window.
pub const BUDGET: u64 = 10_000;

/// Optimizer phase histograms the loop publishes, all inside
/// `ClosedLoop::step_window`.
const PHASES: [&str; 3] = [
    "lla_opt_phase_allocate_seconds",
    "lla_opt_phase_price_seconds",
    "lla_opt_phase_diagnostics_seconds",
];

/// One loop and the registry it publishes into.
#[derive(Debug)]
struct Loop {
    cl: ClosedLoop,
    registry: MetricsRegistry,
}

/// The workload state.
#[derive(Debug)]
pub struct ClosedLoopBench {
    loops: Vec<Loop>,
    budget: u64,
    /// Optimizer phase seconds inside the traced windows.
    opt_s: f64,
}

impl Loop {
    /// Seconds the optimizer's phases took so far (looking the
    /// histograms up returns the handles the loop registered).
    fn phase_seconds(&self) -> f64 {
        PHASES.iter().map(|name| self.registry.histogram(name, "", &[1.0]).sum()).sum()
    }
}

impl crate::Workload for ClosedLoopBench {
    const SETUP_REPS: usize = 5;

    fn setup(opts: &Options) -> Result<(Self, SetupReport), String> {
        // A long-running loop keeps a bounded trace, so memory does not
        // grow with the windows run.
        let config = OptimizerConfig { trace_capacity: Some(TRACE_CAPACITY), ..solver_config() };
        let mut report = SetupReport::default();
        let budget = opts.budget.unwrap_or(BUDGET);
        let loop_config = ClosedLoopConfig {
            correction_enabled: true,
            optimizer_iters: usize::try_from(budget).unwrap_or(usize::MAX),
            ..ClosedLoopConfig::default()
        };
        let mut loops = Vec::with_capacity(LOOPS);
        for k in 0..LOOPS as u64 {
            // An admitted instance that does not certify from cold would
            // leave its loop unconverged from construction on; it counts
            // as uncertified and the next one is drawn.
            let mut stream = k;
            let problem = loop {
                let p = admitted(
                    opts.seed,
                    stream,
                    &config.allocation,
                    &mut report,
                    |s| large_scale_workload(TASKS, s),
                    |p| p,
                )?;
                if certifies(&p, &config) {
                    break p;
                }
                report.uncertified += 1;
                if report.uncertified > LOOPS as u64 {
                    return Err("most admitted instances did not certify".into());
                }
                stream += 2 * LOOPS as u64;
            };
            let sim = SimConfig {
                seed: crate::rng::derive(opts.seed, LOOPS as u64 + k, 0),
                exec_model: ExecTimeModel::Uniform { lo: 0.5, hi: 1.0 },
                ..SimConfig::default()
            };
            let t0 = Instant::now();
            let mut cl = ClosedLoop::new(problem, config, sim, loop_config);
            report.construct_s += t0.elapsed().as_secs_f64();
            // The loop's registry carries the per-window drop count the
            // output check reads; it also times the optimizer's phases.
            let registry = MetricsRegistry::new();
            cl.attach_telemetry(&registry);
            loops.push(Loop { cl, registry });
        }
        let state = ClosedLoopBench { loops, budget, opt_s: 0.0 };
        Ok((state, report))
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpRecord {
        let lp = &mut self.loops[index as usize % LOOPS];
        let iters = lp.cl.optimizer().iterations();
        let opt_s = if tracer.is_on() { lp.phase_seconds() } else { 0.0 };
        tracer.open("op");
        let t0 = Instant::now();
        tracer.span("closedloop.step_window", || {
            lp.cl.step_window();
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        tracer.close();
        if tracer.is_on() {
            let s = lp.phase_seconds() - opt_s;
            self.opt_s += s;
            tracer.attribute("closedloop.step_window", "closedloop.optimizer", (s * 1e9) as u64, 1);
        }
        let rounds = (lp.cl.optimizer().iterations() - iters) as u64;
        let (ok, dropped) = tracer.span("lagrangian.certify", || {
            let opt = lp.cl.optimizer();
            let lats = opt.allocation();
            let feasible = opt.problem().is_feasible(lats.lats(), TOL);
            let dropped = lp.registry.gauge("lla_sim_dropped_jobs", "").get() as u64;
            (feasible && dropped == 0, dropped)
        });
        // Per-task miss fractions: the loop resets the simulator's
        // completion counts at the end of every window.
        let record = lp.cl.history().last().expect("a window was recorded");
        let tasks = record.miss_rate.len().max(1) as f64;
        let miss_rate = record.miss_rate.iter().sum::<f64>() / tasks;
        let converged = rounds < self.budget || lp.cl.optimizer().has_converged();
        OpRecord {
            wall_ns,
            rounds,
            certified: converged && ok,
            wrong: converged && !ok,
            miss_rate,
            dropped,
            ..OpRecord::default()
        }
    }

    fn summarize(&mut self, ops: &[OpRecord], tracer: &mut Tracer, out: &mut Metrics) {
        let windows = ops.len().max(1) as f64;
        let layers = tracer.layers();
        let window = layers.get("closedloop.step_window").copied().unwrap_or_default();
        out.set("simulator.ns_per_window", window.self_ns / windows, "ns");
        out.set("closedloop.opt_ns_per_window", self.opt_s * 1e9 / windows, "ns");
        let iters: u64 = ops.iter().map(|o| o.rounds).sum();
        out.set("closedloop.iters_per_window", iters as f64 / windows, "count");
        let enactments: usize = self.loops.iter().map(|l| l.cl.enactments()).sum();
        out.set("closedloop.enactments", enactments as f64, "count");
    }
}
