//! The LLA optimizer: the iteration loop tying allocation and pricing
//! together (§4.1).
//!
//! LLA solves the optimization problem iteratively. A single iteration
//! consists of **latency allocation** (each task controller predicts
//! optimal latencies at fixed prices) and **price computation** (each
//! resource and path adjusts its price at fixed latencies). The algorithm
//! iterates indefinitely; allocations may be enacted periodically or when
//! significant changes occur. [`Optimizer`] runs this loop in a single
//! address space as the one-shard case of the
//! [`ShardedOptimizer`] engine; the
//! `lla-dist` crate runs the same steps as message-passing actors.

use crate::allocation::AllocationSettings;
use crate::error::ModelError;
use crate::ids::TaskId;
use crate::prices::{PriceState, StepSizePolicy};
use crate::problem::Problem;
use crate::shard::ShardedOptimizer;
use crate::task::{Task, TaskBuilder};
use serde::{Deserialize, Serialize};

/// Configuration of the [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Step-size policy for price updates (paper's best: adaptive, γ₀ = 1).
    pub step_policy: StepSizePolicy,
    /// Latency-allocation solver settings.
    pub allocation: AllocationSettings,
    /// Relative utility-change threshold for convergence detection (the
    /// paper's prototype stops refining below 1% = `0.01`).
    pub convergence_tol: f64,
    /// Number of consecutive below-threshold iterations required.
    pub convergence_window: usize,
    /// Feasibility tolerance used when declaring convergence.
    pub feasibility_tol: f64,
    /// Price-quiescence tolerance: convergence additionally requires the
    /// last price update's largest relative movement
    /// (`|Δprice|/(1+price)`) to fall below this. Guards against declaring
    /// convergence mid-way through a slow price drift whose effect on
    /// utility per iteration is tiny.
    pub price_tol: f64,
    /// Whether an [`Optimizer`] records a full [`Trace`](crate::Trace)
    /// (cheap; on by default). A [`ShardedOptimizer`] built with
    /// [`ShardedOptimizer::new`] never records one.
    pub record_trace: bool,
    /// Maximum trace records to retain (`None` = unbounded). When set,
    /// the trace downsamples by stride doubling so long soaks keep a
    /// uniform, bounded history (see [`Trace::bounded`](crate::Trace::bounded)).
    #[serde(default)]
    pub trace_capacity: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            step_policy: StepSizePolicy::default(),
            allocation: AllocationSettings::default(),
            convergence_tol: 1e-6,
            convergence_window: 10,
            feasibility_tol: 1e-3,
            price_tol: 1e-4,
            record_trace: true,
            trace_capacity: None,
        }
    }
}

/// The latencies LLA has assigned to every subtask, plus derived views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    lats: Vec<Vec<f64>>,
}

impl Allocation {
    /// Wraps raw per-task latency vectors.
    pub fn from_lats(lats: Vec<Vec<f64>>) -> Self {
        Allocation { lats }
    }

    /// `lats[t][s]`: latency of subtask `s` of task `t`, in milliseconds.
    pub fn lats(&self) -> &[Vec<f64>] {
        &self.lats
    }

    /// Latency of one subtask.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn latency(&self, task: usize, subtask: usize) -> f64 {
        self.lats[task][subtask]
    }

    /// The end-to-end (critical-path) latency of a task under this
    /// allocation.
    pub fn task_latency(&self, task: &Task) -> f64 {
        task.critical_path(&self.lats[task.id().index()]).1
    }

    /// The share each subtask of `task` demands under this allocation.
    pub fn shares(&self, problem: &Problem, task: &Task) -> Vec<f64> {
        let t = task.id().index();
        (0..task.len())
            .map(|s| problem.share_model(task.subtask_id(s)).share_for_latency(self.lats[t][s]))
            .collect()
    }
}

/// Summary of one optimizer iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Iteration number (0-based, monotonically increasing over the
    /// optimizer's lifetime).
    pub iteration: usize,
    /// Total utility after the allocation step.
    pub utility: f64,
    /// `max_r (usage_r − B_r)`.
    pub max_resource_violation: f64,
    /// `max_p (path_latency/C − 1)`.
    pub max_path_violation: f64,
}

/// Outcome of [`ShardedOptimizer::run_to_convergence`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Whether the convergence criterion fired within the budget.
    pub converged: bool,
    /// Iterations actually executed in this call.
    pub iterations: usize,
    /// Utility at the last iteration.
    pub final_utility: f64,
    /// Whether the final allocation satisfies both constraint families.
    pub feasible: bool,
}

/// The LLA optimization loop over a [`Problem`]: the
/// [`ShardedOptimizer`] engine with exactly one shard.
///
/// Every engine method — [`step`](ShardedOptimizer::step),
/// [`run_to_convergence`](ShardedOptimizer::run_to_convergence), the
/// online mutators, health and checkpoint export/import — is available
/// through `Deref`. One shard is what this type adds: every resource is
/// shard 0's, so [`prices`](Self::prices) is the whole dual state, and
/// [`add_task`](Self::add_task) needs no shard index. The engine offers no
/// way to change its shard count, so the guarantee holds through
/// `DerefMut`. See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct Optimizer {
    engine: ShardedOptimizer,
}

impl Optimizer {
    /// Creates an optimizer with the problem's
    /// [`initial_allocation`](Problem::initial_allocation) and zero prices.
    pub fn new(problem: Problem, config: OptimizerConfig) -> Self {
        let all = (0..problem.tasks().len()).collect();
        Optimizer {
            engine: ShardedOptimizer::with_groups(problem, config, vec![all], config.record_trace),
        }
    }

    /// The current dual variables.
    pub fn prices(&self) -> &PriceState {
        self.engine.shard_prices(0)
    }

    /// Admits a task mid-run with warm-started duals (see
    /// [`ShardedOptimizer::add_task`]). Returns the new task's id.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::add_task`]; the optimizer is unchanged on
    /// error.
    pub fn add_task(&mut self, builder: &TaskBuilder) -> Result<TaskId, ModelError> {
        self.engine.add_task(builder, Some(0))
    }
}

impl std::ops::Deref for Optimizer {
    type Target = ShardedOptimizer;

    fn deref(&self) -> &ShardedOptimizer {
        &self.engine
    }
}

impl std::ops::DerefMut for Optimizer {
    fn deref_mut(&mut self) -> &mut ShardedOptimizer {
        &mut self.engine
    }
}

/// Why a checkpointed [`OptimizerState`] was rejected on import: the
/// typed alternative to the legacy `import_state` panic, so failover
/// paths can fall back to a fresh start instead of restoring bad duals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateImportError {
    /// The checkpoint was captured under a different topology epoch than
    /// the importer runs at — its duals index a different membership.
    EpochMismatch {
        /// The importer's current topology epoch.
        expected: u64,
        /// The epoch the checkpoint was captured under.
        found: u64,
    },
    /// The state's latency matrix has a different task count than the
    /// problem.
    TaskCountMismatch {
        /// Tasks in the importing problem.
        expected: usize,
        /// Task rows in the checkpoint.
        found: usize,
    },
    /// One task's latency row has the wrong subtask count.
    RowShapeMismatch {
        /// The offending task index.
        task: usize,
        /// Subtasks in the importing problem's task.
        expected: usize,
        /// Entries in the checkpoint row.
        found: usize,
    },
    /// One task's λ row has the wrong path count (its graph differs).
    PathCountMismatch {
        /// The offending task index.
        task: usize,
        /// Paths in the importing problem's task.
        expected: usize,
        /// λ entries in the checkpoint row.
        found: usize,
    },
    /// Per-resource state in the checkpoint covers a different resource
    /// count than the problem.
    ResourceCountMismatch {
        /// Resources in the importing problem.
        expected: usize,
        /// Resources covered by the checkpoint.
        found: usize,
    },
}

impl std::fmt::Display for StateImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StateImportError::EpochMismatch { expected, found } => {
                write!(f, "checkpoint epoch {found} does not match topology epoch {expected}")
            }
            StateImportError::TaskCountMismatch { expected, found } => {
                write!(f, "checkpoint has {found} task rows, problem has {expected}")
            }
            StateImportError::RowShapeMismatch { task, expected, found } => {
                write!(f, "task {task} row has {found} entries, problem expects {expected}")
            }
            StateImportError::PathCountMismatch { task, expected, found } => {
                write!(f, "task {task} has {found} path prices, problem expects {expected}")
            }
            StateImportError::ResourceCountMismatch { expected, found } => {
                write!(f, "checkpoint covers {found} resources, problem has {expected}")
            }
        }
    }
}

impl std::error::Error for StateImportError {}

/// The mutable state of an [`Optimizer`] or [`ShardedOptimizer`], as
/// captured by [`ShardedOptimizer::export_state`]. The problem
/// specification itself travels separately (it is configuration, not
/// state).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    pub(crate) prices: PriceState,
    pub(crate) lats: Vec<Vec<f64>>,
    pub(crate) iteration: usize,
    /// Topology epoch the state was captured under, when the capturing
    /// driver tracks one (`None` for plain centralized exports).
    epoch: Option<u64>,
}

impl OptimizerState {
    /// Assembles a state from its parts. Lets other drivers of the LLA
    /// iteration — e.g. a distributed task controller writing a
    /// checkpoint — capture their state in the same format the
    /// [`Optimizer`] exports, so one restore path serves both.
    pub fn from_parts(prices: PriceState, lats: Vec<Vec<f64>>, iteration: usize) -> Self {
        OptimizerState { prices, lats, iteration, epoch: None }
    }

    /// Tags the state with the topology epoch it was captured under, so
    /// [`ShardedOptimizer::try_import_state`] can reject stale
    /// checkpoints.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Updates (or clears) the topology-epoch tag in place.
    pub fn set_epoch(&mut self, epoch: Option<u64>) {
        self.epoch = epoch;
    }

    /// The topology-epoch tag, if the capturing driver set one.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// The captured price state.
    pub fn prices(&self) -> &PriceState {
        &self.prices
    }

    /// The captured latency assignment.
    pub fn lats(&self) -> &[Vec<f64>] {
        &self.lats
    }

    /// The captured iteration counter.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Checks that the state fits `problem`: the epoch (when both sides
    /// know one), one latency row and one λ row per task, one μ per
    /// resource, and per task as many latencies as subtasks and as many
    /// λ as paths.
    pub(crate) fn validate(
        &self,
        problem: &Problem,
        expected_epoch: Option<u64>,
    ) -> Result<(), StateImportError> {
        if let (Some(expected), Some(found)) = (expected_epoch, self.epoch) {
            if expected != found {
                return Err(StateImportError::EpochMismatch { expected, found });
            }
        }
        let expected = problem.tasks().len();
        for found in [self.lats.len(), self.prices.lambda_rows()] {
            if found != expected {
                return Err(StateImportError::TaskCountMismatch { expected, found });
            }
        }
        let (expected, found) = (problem.resources().len(), self.prices.mus().len());
        if found != expected {
            return Err(StateImportError::ResourceCountMismatch { expected, found });
        }
        for (t, task) in problem.tasks().iter().enumerate() {
            let (expected, found) = (task.len(), self.lats[t].len());
            if found != expected {
                return Err(StateImportError::RowShapeMismatch { task: t, expected, found });
            }
            let (expected, found) = (task.graph().paths().len(), self.prices.lambdas(t).len());
            if found != expected {
                return Err(StateImportError::PathCountMismatch { task: t, expected, found });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceId;
    use crate::resource::{Resource, ResourceKind};
    use crate::shard::PHASE_SECONDS_BOUNDS;
    use crate::utility::UtilityFn;
    use lla_telemetry::{MetricsRegistry, SpanRecorder};

    /// Two tasks sharing two CPUs, comfortably schedulable.
    fn small_problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut tasks = Vec::new();
        for (i, c) in [(0usize, 40.0), (1usize, 60.0)] {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 2.0);
            let d = b.subtask("b", ResourceId::new(1), 3.0);
            b.edge(a, d).unwrap();
            b.critical_time(c).utility(UtilityFn::linear_for_deadline(2.0, c));
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn config() -> OptimizerConfig {
        OptimizerConfig {
            allocation: AllocationSettings { throughput_floor: false, ..Default::default() },
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn converges_on_schedulable_problem() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged, "LLA must converge on a schedulable workload");
        assert!(outcome.feasible);
    }

    #[test]
    fn telemetry_publishes_iterations_and_health_gauges() {
        let registry = MetricsRegistry::new();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        opt.run(50);
        let text = registry.prometheus_text();
        assert!(text.contains("lla_opt_iterations_total 50"), "missing iteration count:\n{text}");
        // The plan lowered exactly once (no membership churn).
        assert!(text.contains("lla_opt_plan_lowerings_total 1"));
        // Gauges mirror the optimizer's own view.
        let g = registry.gauge("lla_opt_utility", "");
        assert!((g.get() - opt.utility()).abs() < 1e-12);
        // Phase histograms saw one observation per iteration.
        let h = registry.histogram("lla_opt_phase_allocate_seconds", "", &PHASE_SECONDS_BOUNDS);
        assert_eq!(h.count(), 50);
    }

    #[test]
    fn telemetry_counts_plan_relowering_on_membership_change() {
        let registry = MetricsRegistry::new();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        opt.run(5);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(0), 1.0);
        b.critical_time(50.0).utility(UtilityFn::linear_for_deadline(1.0, 50.0));
        opt.add_task(&b).unwrap();
        opt.run(5);
        let c = registry.counter("lla_opt_plan_lowerings_total", "");
        assert_eq!(c.get(), 2, "initial lowering + one re-lowering after the join");
    }

    #[test]
    fn telemetry_attached_to_disabled_registry_records_nothing() {
        let registry = MetricsRegistry::disabled();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        let mut plain = Optimizer::new(small_problem(), config());
        opt.run(100);
        plain.run(100);
        // Bit-identical to the un-instrumented run.
        assert_eq!(opt.utility(), plain.utility());
        assert_eq!(registry.prometheus_text(), "");
    }

    #[test]
    fn span_recording_is_passive_and_one_span_per_step() {
        let rec = SpanRecorder::recording();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_spans(&rec);
        let mut plain = Optimizer::new(small_problem(), config());
        opt.run(40);
        plain.run(40);
        assert_eq!(opt.utility(), plain.utility(), "spans must be bit-passive");
        assert_eq!(rec.len(), 40);
        let spans = rec.snapshot();
        assert_eq!(spans[7].start, 7.0);
        assert_eq!(spans[7].end, 8.0);
        assert_eq!(spans[7].name, "iteration");
    }

    #[test]
    fn diag_sample_mirrors_optimizer_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run(50);
        let s = opt.diag_sample();
        assert_eq!(s.iteration, 50);
        assert_eq!(s.utility, opt.utility());
        assert_eq!(s.gamma_doublings, opt.prices().gamma_doublings());
        assert_eq!(s.max_rel_price_step, opt.prices().last_max_rel_step());
        assert_eq!(s.prices, opt.prices().mus());
        assert_eq!(s.frozen_agents, 0);
        assert_eq!(s.worst_violation_factor, opt.worst_violation_factor());
        // The factor agrees with the health snapshot's.
        assert_eq!(s.worst_violation_factor, opt.health_snapshot().worst_violation_factor);
    }

    #[test]
    fn trace_capacity_bounds_the_trace() {
        let cfg = OptimizerConfig { trace_capacity: Some(32), ..config() };
        let mut opt = Optimizer::new(small_problem(), cfg);
        opt.run(500);
        assert!(opt.trace().len() <= 32, "trace grew to {}", opt.trace().len());
        assert_eq!(opt.trace().seen(), 500);
        // The retained records still span the whole run.
        assert_eq!(opt.trace().records()[0].iteration, 0);
        assert!(opt.trace().records().last().unwrap().iteration >= 400);
    }

    #[test]
    fn health_snapshot_matches_kkt_and_convergence_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged);
        let h = opt.health_snapshot();
        let kkt = opt.kkt();
        assert!(h.converged && h.feasible && h.healthy());
        assert_eq!(h.max_stationarity_residual, kkt.max_stationarity_residual);
        assert_eq!(h.max_resource_violation, kkt.max_resource_violation);
        assert_eq!(h.max_path_violation, kkt.max_path_violation);
        assert_eq!(h.max_complementary_slackness, kkt.max_complementary_slackness);
        assert_eq!(h.resources.len(), 2);
        assert!(h.worst_violation_factor <= 1.0 + 1e-6);
        for (r, res) in h.resources.iter().zip(opt.problem().resources()) {
            assert_eq!(r.availability, res.availability());
            assert!(r.usage <= r.availability + 1e-6);
        }
    }

    #[test]
    fn converged_allocation_is_feasible_and_kkt_clean() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged);
        let kkt = opt.kkt();
        assert!(kkt.max_resource_violation <= 1e-6, "resource violated: {kkt:?}");
        assert!(kkt.max_path_violation <= 1e-6, "path violated: {kkt:?}");
        // Complementary slackness is approximate at finite step sizes.
        assert!(kkt.max_complementary_slackness < 0.5, "slackness too large: {kkt:?}");
    }

    #[test]
    fn utility_improves_over_initial() {
        let mut opt = Optimizer::new(small_problem(), config());
        let initial = opt.utility();
        opt.run_to_convergence(5_000);
        assert!(
            opt.utility() >= initial - 1e-9,
            "optimization should not end below the initial utility"
        );
    }

    #[test]
    fn trace_is_recorded() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run(25);
        assert_eq!(opt.trace().len(), 25);
        assert_eq!(opt.iterations(), 25);
    }

    #[test]
    fn trace_can_be_disabled() {
        let mut cfg = config();
        cfg.record_trace = false;
        let mut opt = Optimizer::new(small_problem(), cfg);
        opt.run(10);
        assert!(opt.trace().is_empty());
    }

    #[test]
    fn availability_drop_reconverges_to_lower_utility() {
        let mut opt = Optimizer::new(small_problem(), config());
        let first = opt.run_to_convergence(5_000);
        assert!(first.converged);
        let u_before = opt.utility();
        // Halve resource 0's availability; re-converge.
        opt.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
        assert!(!opt.has_converged(), "detector must re-arm after a change");
        let second = opt.run_to_convergence(10_000);
        assert!(second.converged, "must re-converge after availability change");
        assert!(
            opt.utility() <= u_before + 1e-6,
            "less resource cannot increase utility: {} > {u_before}",
            opt.utility()
        );
    }

    #[test]
    fn correction_shifts_allocation() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let lat_before = opt.allocation().latency(0, 0);
        // Model over-predicted by 1ms: corrected model reaches the same
        // latency with less share, so the optimizer can lower latencies.
        let sid = opt.problem().tasks()[0].subtask_id(0);
        opt.set_correction(sid, -1.0);
        opt.run_to_convergence(5_000);
        let lat_after = opt.allocation().latency(0, 0);
        assert!(
            lat_after < lat_before,
            "negative correction should reduce assigned latency ({lat_after} !< {lat_before})"
        );
    }

    #[test]
    fn allocation_views() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let alloc = opt.allocation();
        let task = &opt.problem().tasks()[0];
        let shares = alloc.shares(opt.problem(), task);
        assert_eq!(shares.len(), 2);
        for (s, &lat) in shares.iter().zip(&alloc.lats()[0]) {
            assert!(*s > 0.0 && *s <= 1.0, "share {s} out of range");
            assert!(lat > 0.0);
        }
        assert!(alloc.task_latency(task) <= task.critical_time() + 1e-6);
    }

    #[test]
    fn failover_continues_exactly() {
        // Run half the iterations, export, import into a fresh optimizer,
        // and verify the trajectories coincide step by step.
        let mut primary = Optimizer::new(small_problem(), config());
        primary.run(120);
        let state = primary.export_state();

        let mut replacement = Optimizer::new(small_problem(), config());
        replacement.import_state(state);
        assert_eq!(replacement.iterations(), 120);

        for i in 0..200 {
            let a = primary.step();
            let b = replacement.step();
            assert!(
                (a.utility - b.utility).abs() < 1e-12,
                "failover diverged at step {i}: {} vs {}",
                a.utility,
                b.utility
            );
        }
    }

    #[test]
    fn warm_add_task_keeps_incumbent_duals_and_reconverges() {
        let mut opt = Optimizer::new(small_problem(), config());
        assert!(opt.run_to_convergence(5_000).converged);
        let mu_before = opt.prices().mus().to_vec();

        let mut b = TaskBuilder::new("late-joiner");
        b.subtask("solo", ResourceId::new(0), 1.0);
        b.critical_time(50.0).utility(UtilityFn::linear_for_deadline(2.0, 50.0));
        let id = opt.add_task(&b).unwrap();
        assert_eq!(id, TaskId::new(2));
        assert_eq!(opt.prices().mus(), &mu_before[..], "incumbent duals must carry over");
        assert!(!opt.has_converged(), "membership change must re-arm the detector");
        assert!(opt.run_to_convergence(10_000).converged, "warm restart must re-converge");
        assert_eq!(opt.allocation().lats().len(), 3);
    }

    #[test]
    fn warm_remove_task_shifts_survivor_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        assert!(opt.run_to_convergence(5_000).converged);
        let lat1 = opt.allocation().lats()[1].clone();
        let report = opt.remove_task(TaskId::new(0)).unwrap();
        assert_eq!(report.task_map, vec![None, Some(0)]);
        assert_eq!(opt.allocation().lats()[0], lat1, "survivor keeps its latencies");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn warm_matches_cold_solve_within_tolerance() {
        // Converge, churn a task in, re-converge warm; a cold solve of the
        // final problem must land on (essentially) the same utility.
        let mut warm = Optimizer::new(small_problem(), config());
        warm.run_to_convergence(5_000);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(1), 2.0);
        b.critical_time(45.0).utility(UtilityFn::linear_for_deadline(2.0, 45.0));
        warm.add_task(&b).unwrap();
        assert!(warm.run_to_convergence(20_000).converged);

        let mut cold = Optimizer::new(warm.problem().clone(), config());
        assert!(cold.run_to_convergence(20_000).converged);
        let (wu, cu) = (warm.utility(), cold.utility());
        assert!(
            (wu - cu).abs() <= 1e-2 * cu.abs().max(1.0),
            "warm {wu} vs cold {cu} differ beyond tolerance"
        );
    }

    #[test]
    fn warm_retire_resource_after_drain() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let moved = opt.reassign_resource(ResourceId::new(1), ResourceId::new(0)).unwrap();
        assert_eq!(moved, 2);
        let report = opt.retire_resource(ResourceId::new(1)).unwrap();
        assert_eq!(report.resource_map, vec![Some(0), None]);
        assert_eq!(opt.problem().resources().len(), 1);
        assert!(opt.run_to_convergence(20_000).converged, "must re-converge on one resource");
    }

    #[test]
    #[should_panic(expected = "state shape mismatch")]
    fn import_state_rejects_foreign_shape() {
        let mut opt = Optimizer::new(small_problem(), config());
        let mut state = opt.export_state();
        state.lats.pop();
        opt.import_state(state);
    }

    #[test]
    fn try_import_state_returns_typed_shape_errors() {
        let mut opt = Optimizer::new(small_problem(), config());
        let pristine = opt.export_state();

        let mut missing_row = pristine.clone();
        missing_row.lats.pop();
        assert_eq!(
            opt.try_import_state(missing_row, None),
            Err(StateImportError::TaskCountMismatch { expected: 2, found: 1 })
        );

        let mut short_row = pristine.clone();
        short_row.lats[1].pop();
        assert_eq!(
            opt.try_import_state(short_row, None),
            Err(StateImportError::RowShapeMismatch { task: 1, expected: 2, found: 1 })
        );
        // Failed imports leave the optimizer untouched.
        assert_eq!(opt.export_state(), pristine);
    }

    #[test]
    fn try_import_state_validates_topology_epoch() {
        let mut opt = Optimizer::new(small_problem(), config());
        let tagged = opt.export_state().with_epoch(3);
        assert_eq!(tagged.epoch(), Some(3));

        // A stale epoch is rejected even though the shape fits.
        assert_eq!(
            opt.try_import_state(tagged.clone(), Some(7)),
            Err(StateImportError::EpochMismatch { expected: 7, found: 3 })
        );
        // Matching epochs and untagged legacy states import fine.
        assert!(opt.try_import_state(tagged, Some(3)).is_ok());
        let untagged = opt.export_state();
        assert!(opt.try_import_state(untagged, Some(9)).is_ok());
        // Errors render human-readably for event payloads.
        let msg = StateImportError::EpochMismatch { expected: 7, found: 3 }.to_string();
        assert!(msg.contains('7') && msg.contains('3'), "{msg}");
    }
}
