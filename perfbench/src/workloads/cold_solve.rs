//! `cold_solve`: each op builds a monolithic `Optimizer` on an admitted
//! flat instance, runs it to convergence from cold and certifies the
//! result. The plan kernels are nearly all of the op time; there is no
//! churn and no network.
//!
//! Set-up solves every pool instance once as its reference: an instance
//! the precheck admits but that does not certify within [`BUDGET`] is
//! counted in `workloads.uncertified` and replaced by the next candidate.
//! A cold solve is deterministic, so the timed ops repeat certified
//! solves.

use super::{admitted, certifies, certify, solver_config};
use crate::trace::Tracer;
use crate::{Metrics, OpRecord, Options, SetupReport};
use lla_core::{Optimizer, OptimizerConfig, Problem};
use lla_telemetry::Profiler;
use lla_workloads::large_scale_workload;
use std::time::Instant;

/// Tasks per instance.
pub const TASKS: usize = 100;
/// Certified instances per set-up; ops cycle through them.
pub const POOL: usize = 256;
/// Iteration budget per op, and of each reference solve.
pub const BUDGET: u64 = 10_000;

/// Optimizer profiler scopes: `(path, enclosing layer, layer)`.
const SCOPES: [(&str, &str, &str); 6] = [
    ("plan_lower", "optimizer.step", "plan.lower"),
    ("step", "optimizer.step", "optimizer.step_body"),
    ("step;allocate", "optimizer.step_body", "plan.allocate"),
    ("step;price", "optimizer.step_body", "plan.price"),
    ("step;lagrangian", "optimizer.step_body", "plan.lagrangian"),
    ("step;trace", "optimizer.step_body", "plan.trace"),
];

/// The workload state.
#[derive(Debug)]
pub struct ColdSolve {
    pool: Vec<Problem>,
    config: OptimizerConfig,
    budget: u64,
    profiler: Profiler,
}

/// Solves `problem` from cold within `budget` iterations and certifies
/// the result; the optimizer reports into `profiler` when one is given.
pub(crate) fn solve(
    problem: Problem,
    config: &OptimizerConfig,
    budget: u64,
    profiler: Option<&Profiler>,
    tracer: &mut Tracer,
) -> OpRecord {
    tracer.open("op");
    let t0 = Instant::now();
    let mut opt = tracer.span("optimizer.new", || Optimizer::new(problem, *config));
    if let Some(profiler) = profiler {
        opt.attach_profiler(profiler);
    }
    let mut rounds = 0;
    let mut converged = false;
    while rounds < budget {
        tracer.span("optimizer.step", || opt.step());
        rounds += 1;
        if opt.has_converged() {
            converged = true;
            break;
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    tracer.close();
    let ok = tracer.span("lagrangian.certify", || {
        let lats = opt.allocation();
        certify(opt.problem(), lats.lats(), opt.prices(), opt.utility(), &config.allocation)
    });
    OpRecord {
        wall_ns,
        rounds,
        certified: converged && ok,
        wrong: converged && !ok,
        ..OpRecord::default()
    }
}

impl crate::Workload for ColdSolve {
    const SETUP_REPS: usize = 4;

    fn setup(opts: &Options) -> Result<(Self, SetupReport), String> {
        let config = solver_config();
        let mut report = SetupReport::default();
        let mut pool = Vec::with_capacity(POOL);
        let mut stream = 0;
        while pool.len() < POOL {
            let p = admitted(
                opts.seed,
                stream,
                &config.allocation,
                &mut report,
                |s| large_scale_workload(TASKS, s),
                |p| p,
            )?;
            stream += 1;
            if certifies(&p, &config) {
                pool.push(p);
            } else {
                report.uncertified += 1;
                if report.uncertified > POOL as u64 {
                    return Err("most admitted instances did not certify".into());
                }
            }
        }
        let budget = opts.budget.unwrap_or(BUDGET);
        Ok((ColdSolve { pool, config, budget, profiler: Profiler::recording() }, report))
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpRecord {
        let problem = self.pool[index as usize % self.pool.len()].clone();
        let profiler = tracer.is_on().then_some(&self.profiler);
        solve(problem, &self.config, self.budget, profiler, tracer)
    }

    fn summarize(&mut self, ops: &[OpRecord], tracer: &mut Tracer, out: &mut Metrics) {
        // The optimizer's profiler scopes all run inside the benchmark's
        // `optimizer.step` spans; enter them as that layer's children.
        let snap = self.profiler.snapshot();
        for (path, parent, layer) in SCOPES {
            let (ns, calls) = snap
                .frames
                .iter()
                .filter(|f| f.path == path)
                .fold((0, 0), |(ns, calls), f| (ns + f.total_ns, calls + f.calls));
            tracer.attribute(parent, layer, ns, calls);
        }
        let layers = tracer.layers();
        let iters: u64 = ops.iter().map(|o| o.rounds).sum();
        let per_iter =
            |layer: &str| layers.get(layer).map_or(0.0, |l| l.self_ns) / iters.max(1) as f64;
        out.set("plan.allocate_ns", per_iter("plan.allocate"), "ns");
        out.set("plan.price_ns", per_iter("plan.price"), "ns");
        out.set("plan.lagrangian_ns", per_iter("plan.lagrangian"), "ns");
        out.set("plan.trace_ns", per_iter("plan.trace"), "ns");
        let lower = layers.get("plan.lower").copied().unwrap_or_default();
        out.set("plan.lower_ns", lower.total_ns / ops.len().max(1) as f64, "ns");
        let step = layers.get("optimizer.step").copied().unwrap_or_default();
        out.set("optimizer.step_ns", step.total_ns / iters.max(1) as f64, "ns");
        out.set("optimizer.iters_per_op", iters as f64 / ops.len().max(1) as f64, "count");
    }
}
