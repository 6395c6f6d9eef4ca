//! The four workloads and the helpers they share: admitted-instance
//! generation and the solver certificate.

pub mod closed_loop;
pub mod cold_solve;
pub mod dist_wire;
pub mod online_churn;

use crate::admission::precheck;
use crate::trace::Tracer;
use crate::{rng, SetupReport, TOL};
use lla_core::{
    dual_value, AllocationSettings, ModelError, OptimizerConfig, PriceState, Problem,
    StepSizePolicy, Task, TaskBuilder,
};
use std::time::Instant;

/// Candidate instances tried before a set-up gives up.
const MAX_CANDIDATES: u64 = 64;

/// The optimizer configuration every workload uses: the defaults users
/// get (trace recording on) with the sign-adaptive price step.
pub fn solver_config() -> OptimizerConfig {
    OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    }
}

/// Draws candidates `generate(seed')` for seeds derived from `(seed,
/// stream)` until one passes the admission precheck. Generation and
/// precheck times and the rejected count go into `report`.
pub fn admitted<T>(
    seed: u64,
    stream: u64,
    settings: &AllocationSettings,
    report: &mut SetupReport,
    mut generate: impl FnMut(u64) -> Result<T, ModelError>,
    problem_of: impl Fn(&T) -> &Problem,
) -> Result<T, String> {
    for i in 0..MAX_CANDIDATES {
        let t0 = Instant::now();
        let candidate = generate(rng::derive(seed, stream, i)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let verdict = precheck(problem_of(&candidate), settings);
        report.generate_s += (t1 - t0).as_secs_f64();
        report.precheck_s += t1.elapsed().as_secs_f64();
        if verdict.admitted() {
            return Ok(candidate);
        }
        report.rejected += 1;
    }
    Err(format!("no admissible instance in {MAX_CANDIDATES} candidates"))
}

/// Whether `problem` certifies when solved from cold within the
/// `cold_solve` op budget: the reference solve that finds admitted
/// instances the precheck cannot tell from schedulable ones.
pub fn certifies(problem: &Problem, config: &OptimizerConfig) -> bool {
    let budget = cold_solve::BUDGET;
    cold_solve::solve(problem.clone(), config, budget, None, &mut Tracer::new(false)).certified
}

/// The solver certificate: feasibility at [`TOL`] and
/// `|D(prices) − U| ≤ TOL·max(1, |U|)`.
pub fn certify(
    problem: &Problem,
    lats: &[Vec<f64>],
    prices: &PriceState,
    utility: f64,
    settings: &AllocationSettings,
) -> bool {
    let feasible = problem.is_feasible(lats, TOL);
    let dual = dual_value(problem, prices, settings).value;
    feasible && (dual - utility).abs() <= TOL * utility.abs().max(1.0)
}

/// Whether `utility` is within [`TOL`] (relative) of `optimum`.
pub fn near_optimum(utility: f64, optimum: f64) -> bool {
    (utility - optimum).abs() <= TOL * optimum.abs().max(1.0)
}

/// A builder that re-creates `task` (for leave / re-join churn).
pub fn builder_of(task: &Task) -> Result<TaskBuilder, ModelError> {
    let mut b = TaskBuilder::new(task.name());
    for s in task.subtasks() {
        match s.max_latency() {
            Some(cap) => b.subtask_with_max_latency(s.name(), s.resource(), s.exec_time(), cap),
            None => b.subtask(s.name(), s.resource(), s.exec_time()),
        };
    }
    let graph = task.graph();
    for v in 0..graph.len() {
        for &w in graph.successors(v) {
            b.edge(v, w)?;
        }
    }
    b.critical_time(task.critical_time())
        .utility(task.utility_fn().clone())
        .aggregation(task.aggregation())
        .trigger(task.trigger())
        .percentile(task.percentile());
    Ok(b)
}
