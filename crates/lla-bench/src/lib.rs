//! # `lla-bench` — experiment harness for the LLA reproduction
//!
//! One binary per table/figure of the paper's evaluation (§5–§6), each
//! built on the experiment functions in this library so the criterion
//! benches measure exactly the code the binaries run:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1_base_workload` | Table 1 (optimization results on the base workload) |
//! | `fig5_stepsize` | Figure 5 (fixed vs adaptive step sizes) |
//! | `fig6_scalability` | Figure 6 (convergence as tasks scale 3→6→12) |
//! | `fig7_schedulability` | Figure 7 (unschedulable workload detection) |
//! | `fig8_error_correction` | Figure 8 (prototype with model error correction) |
//!
//! Binaries print a human-readable summary and write the raw series as CSV
//! under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod corruption;
pub mod fleet;
pub mod perf;
pub mod render;
pub mod supervised;

use lla_core::{
    allocate_latencies, Aggregation, Allocation, AllocationSettings, Optimizer, OptimizerConfig,
    PriceState, Problem, ShardSpec, ShardedOptimizer, StepSizePolicy,
};
use lla_sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla_telemetry::{HealthSnapshot, MetricsRegistry, ProfileSnapshot, Profiler, SpanRecorder};
use lla_workloads::{
    base_workload_with, clustered_workload, large_scale_workload, prototype_workload,
    scaled_workload, PrototypeParams,
};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The optimizer configuration used across the simulation experiments
/// (§5): the paper's defaults — adaptive step size starting at γ = 1,
/// path-weighted utility handled by the workload itself.
pub fn paper_optimizer_config(policy: StepSizePolicy) -> OptimizerConfig {
    OptimizerConfig {
        step_policy: policy,
        allocation: AllocationSettings::default(),
        ..OptimizerConfig::default()
    }
}

/// A rendered experiment series: column headers plus rows of numbers.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Column names.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Series { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "{v:.6}");
                first = false;
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `results/<name>.csv` (creating the directory),
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Result of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// The converged optimizer (problem + allocation inside).
    pub utility: f64,
    /// Iterations to convergence.
    pub iterations: usize,
    /// Whether convergence was reached.
    pub converged: bool,
    /// Final allocation.
    pub allocation: Allocation,
    /// Per-task `(critical path latency, critical time)`.
    pub critical: Vec<(f64, f64)>,
    /// Per-resource share sums.
    pub usage: Vec<f64>,
}

/// Runs the Table 1 experiment: LLA with adaptive γ on the base workload.
pub fn run_table1(aggregation: Aggregation, max_iters: usize) -> Table1Result {
    run_table1_health(aggregation, max_iters).0
}

/// [`run_table1`] plus the converged optimizer's [`HealthSnapshot`] — the
/// telemetry-driven readout of the same run: convergence and feasibility
/// flags, KKT residual norms, and per-resource price/usage/utilization.
pub fn run_table1_health(
    aggregation: Aggregation,
    max_iters: usize,
) -> (Table1Result, HealthSnapshot) {
    let problem = base_workload_with(aggregation, 2.0);
    let mut opt = Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::adaptive(1.0)));
    let outcome = opt.run_to_convergence(max_iters);
    let health = opt.health_snapshot();
    let allocation = opt.allocation();
    let critical: Vec<(f64, f64)> = opt
        .problem()
        .tasks()
        .iter()
        .map(|t| (allocation.task_latency(t), t.critical_time()))
        .collect();
    let usage: Vec<f64> = opt
        .problem()
        .resources()
        .iter()
        .map(|r| opt.problem().resource_usage(r.id(), allocation.lats()))
        .collect();
    let result = Table1Result {
        utility: opt.utility(),
        iterations: opt.iterations(),
        converged: outcome.converged,
        allocation,
        critical,
        usage,
    };
    (result, health)
}

/// One Figure 5 series.
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Utility after each iteration.
    pub utilities: Vec<f64>,
    /// Whether the final allocation satisfies both constraint families
    /// within 0.1% — an infeasible allocation reports an *inflated*
    /// utility, so cross-series utility comparisons are only meaningful
    /// among feasible ones.
    pub feasible: bool,
}

/// Runs one Figure 5 series: utility per iteration under the given step
/// policy, for `iters` iterations.
pub fn run_fig5_series(policy: StepSizePolicy, iters: usize) -> Fig5Series {
    let problem = base_workload_with(Aggregation::PathWeighted, 2.0);
    let mut opt = Optimizer::new(problem, paper_optimizer_config(policy));
    let utilities: Vec<f64> = opt.run(iters).into_iter().map(|r| r.utility).collect();
    let feasible = opt.problem().is_feasible(opt.allocation().lats(), 1e-3);
    Fig5Series { utilities, feasible }
}

/// Result of one Figure 6 scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Number of tasks.
    pub tasks: usize,
    /// Whether LLA converged within the budget.
    pub converged: bool,
    /// Iterations to convergence (or the budget).
    pub iterations: usize,
    /// First iteration after which the utility stays within 1% of its
    /// final mean — how the paper's Figure 6 "flattening" reads.
    pub settling: Option<usize>,
    /// Final utility.
    pub utility: f64,
    /// Wall-clock time of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Mean wall-clock cost of one iteration, in microseconds.
    pub us_per_iteration: f64,
}

/// Runs the Figure 6 experiment: replicate the base workload (scaling
/// critical times to preserve schedulability) and measure convergence.
///
/// Uses the sign-adaptive policy: the paper's congestion-only heuristic
/// fails to formally converge on the 12-task point (see the ablation bench
/// and EXPERIMENTS.md).
pub fn run_fig6_point(replication: usize, max_iters: usize) -> ScalePoint {
    let problem = scaled_workload(replication, true);
    let tasks = problem.tasks().len();
    let mut opt =
        Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)));
    let start = Instant::now();
    let outcome = opt.run_to_convergence(max_iters);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ScalePoint {
        tasks,
        converged: outcome.converged,
        iterations: outcome.iterations,
        settling: opt.trace().settling_iteration(0.01),
        utility: outcome.final_utility,
        wall_ms,
        us_per_iteration: wall_ms * 1e3 / outcome.iterations.max(1) as f64,
    }
}

/// Runs one Figure 6 point with a recording [`Profiler`] attached and
/// returns the scope-tree snapshot: a `plan_lower` root, a `step` root
/// with `allocate` / `price` / `lagrangian` / `trace` children, and a
/// `kkt` root from the final optimality check.
///
/// The run is fully deterministic (fixed workload, fixed policy), so the
/// snapshot's *call counts* are identical on every run and pinned by a
/// golden test; the wall-clock fields are this machine's.
pub fn run_fig6_profile(replication: usize, max_iters: usize) -> ProfileSnapshot {
    let problem = scaled_workload(replication, true);
    let mut opt =
        Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)));
    let profiler = Profiler::recording();
    opt.attach_profiler(&profiler);
    opt.run_to_convergence(max_iters);
    std::hint::black_box(opt.kkt());
    profiler.snapshot()
}

/// One LLA round over the naive (nested-`Vec`) code path, exactly as the
/// pre-plan optimizer stepped under its default configuration: allocate at
/// the stored prices, update the prices from the new allocation, recompute
/// the diagnostics the step reports (utility and both violation families),
/// and rebuild the trace record's columns (per-resource usage and per-task
/// critical-path ratios — each another full pass, which is precisely the
/// recomputation the compiled plan eliminates).
///
/// This is the baseline the compiled [`lla_core::Plan`] is benchmarked
/// against; `lla-bench`'s `bench_optimizer` binary and the
/// `optimizer_plan` criterion bench both call it. The returned sink value
/// folds every computed quantity so none of the passes can be optimized
/// out.
pub fn naive_round(
    problem: &Problem,
    prices: &mut PriceState,
    settings: &AllocationSettings,
    lats: &mut Vec<Vec<f64>>,
) -> f64 {
    *lats = allocate_latencies(problem, prices, settings, lats);
    // The seed's price update: gradients for every resource and path
    // collected into freshly allocated vectors, then applied in a second
    // walk that re-enumerates each path's subtasks. (`PriceState::update`
    // has since folded this into one walk, so the baseline preserves the
    // original shape through the public per-entity appliers, which are
    // unchanged.)
    let grad_r: Vec<f64> = problem
        .resources()
        .iter()
        .map(|r| r.availability() - problem.resource_usage(r.id(), lats))
        .collect();
    let grad_p: Vec<Vec<f64>> = problem
        .tasks()
        .iter()
        .map(|task| {
            let tl = &lats[task.id().index()];
            task.graph()
                .paths()
                .iter()
                .map(|path| 1.0 - path.latency(tl) / task.critical_time())
                .collect()
        })
        .collect();
    let congested: Vec<bool> = grad_r.iter().map(|&g| g < 0.0).collect();
    prices.reset_step_tracking();
    for (r, &g) in grad_r.iter().enumerate() {
        prices.apply_resource_step(r, g);
    }
    for (t, task) in problem.tasks().iter().enumerate() {
        for (p, path) in task.graph().paths().iter().enumerate() {
            let traverses_congested =
                path.subtasks().iter().any(|&s| congested[task.subtasks()[s].resource().index()]);
            prices.apply_path_step(t, p, grad_p[t][p], traverses_congested);
        }
    }
    let utility = problem.total_utility(lats);
    let res = problem.max_resource_violation(lats).max(0.0);
    let path = problem.max_path_violation(lats).max(0.0);
    // The seed step's trace record: usage per resource and critical-path
    // ratio per task, recomputed from scratch as `Trace` stored them.
    let usage: Vec<f64> =
        problem.resources().iter().map(|r| problem.resource_usage(r.id(), lats)).collect();
    let ratios: Vec<f64> = problem
        .tasks()
        .iter()
        .map(|t| {
            let (_, cp) = t.graph().critical_path(&lats[t.id().index()]);
            cp / t.critical_time()
        })
        .collect();
    utility + res + path + usage.iter().sum::<f64>() + ratios.iter().sum::<f64>()
}

/// One scaling point of the optimizer benchmark: per-iteration wall-clock
/// cost of the naive round vs the compiled-plan
/// [`Optimizer::step`](lla_core::ShardedOptimizer::step).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerBenchPoint {
    /// Number of tasks in the workload.
    pub tasks: usize,
    /// Total subtasks (the hot loop's true size).
    pub subtasks: usize,
    /// Mean nanoseconds per naive iteration.
    pub naive_ns_per_iter: f64,
    /// Mean nanoseconds per compiled-plan iteration.
    pub plan_ns_per_iter: f64,
    /// Mean nanoseconds per compiled-plan iteration with telemetry
    /// attached to a *disabled* registry (all handles branch-no-op).
    pub telemetry_disabled_ns_per_iter: f64,
    /// Mean nanoseconds per compiled-plan iteration with telemetry
    /// attached to an *enabled* registry (counters, gauges, and phase
    /// histograms live).
    pub telemetry_enabled_ns_per_iter: f64,
    /// Mean nanoseconds per compiled-plan iteration with a *recording*
    /// span recorder attached (one causal span per iteration on top of
    /// the bare step).
    pub span_enabled_ns_per_iter: f64,
    /// Mean nanoseconds per compiled-plan iteration with a *disabled*
    /// [`Profiler`] attached (every scope a branch-on-bool no-op; the
    /// perf gate bounds this within noise of the bare step).
    pub profile_disabled_ns_per_iter: f64,
    /// Iterations a fresh optimizer ran in the convergence measurement:
    /// the iteration it formally converged at, or [`max_rounds`]
    /// (`Self::max_rounds`) if the cap was hit first (see
    /// [`converged`](Self::converged)). `None` only when the measurement
    /// was skipped (budget 0).
    pub rounds_to_converge: Option<usize>,
    /// Whether the convergence measurement formally converged within
    /// [`max_rounds`](Self::max_rounds).
    pub converged: bool,
    /// The explicit round cap of the convergence measurement (0 when
    /// skipped).
    pub max_rounds: usize,
}

impl OptimizerBenchPoint {
    /// Naive-over-plan speedup factor.
    pub fn speedup(&self) -> f64 {
        self.naive_ns_per_iter / self.plan_ns_per_iter
    }

    /// Relative per-iteration overhead of disabled telemetry vs the
    /// un-instrumented step (should be noise, ≤ ~1%).
    pub fn telemetry_disabled_overhead(&self) -> f64 {
        self.telemetry_disabled_ns_per_iter / self.plan_ns_per_iter - 1.0
    }

    /// Relative per-iteration overhead of enabled telemetry vs the
    /// un-instrumented step (clock reads + atomic bumps, ≤ ~5%).
    pub fn telemetry_enabled_overhead(&self) -> f64 {
        self.telemetry_enabled_ns_per_iter / self.plan_ns_per_iter - 1.0
    }

    /// Relative per-iteration overhead of recording causal spans vs the
    /// un-instrumented step (one span append per iteration under a
    /// mutex; stays small because the hot loop shares one recorder).
    pub fn span_enabled_overhead(&self) -> f64 {
        self.span_enabled_ns_per_iter / self.plan_ns_per_iter - 1.0
    }

    /// Relative per-iteration overhead of a disabled profiler vs the
    /// un-instrumented step (a handful of branches; the acceptance gate
    /// keeps it within ±2% measurement noise).
    pub fn profile_disabled_overhead(&self) -> f64 {
        self.profile_disabled_ns_per_iter / self.plan_ns_per_iter - 1.0
    }
}

/// Measures one optimizer scaling point on [`large_scale_workload`]:
/// `warmup` untimed iterations followed by `iters` timed ones, for the
/// naive round and the compiled-plan step on identical fresh copies of the
/// problem. Both sides run the default configuration's full step,
/// including the trace columns (the plan reads them off its scratch
/// buffers; the naive path recomputes them, as the seed optimizer did).
pub fn bench_optimizer_point(
    num_tasks: usize,
    seed: u64,
    warmup: usize,
    iters: usize,
    converge_budget: usize,
) -> OptimizerBenchPoint {
    let problem = large_scale_workload(num_tasks, seed).expect("generator config is valid");
    let subtasks = problem.tasks().iter().map(|t| t.len()).sum();
    let config = OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    };

    // Every measurement below is best-of-3 with the variants
    // *interleaved*: repetition r runs every variant once (fresh state,
    // `warmup` untimed iterations, `iters` timed) before repetition r+1
    // starts. Clock-frequency and cache drift over the point's wall time
    // then hits all variants alike instead of accumulating against the
    // ones measured last — sequential ordering was enough to fake a
    // double-digit-percent "overhead" on a branch-only no-op handle at
    // the 10k point. The per-variant min across repetitions still
    // filters scheduler preemption and first-touch page faults.

    // Naive side: the seed optimizer's step, hand-inlined over nested Vecs.
    let naive_rep = || {
        let mut prices = PriceState::new(&problem, config.step_policy);
        let mut lats = problem.initial_allocation();
        let mut sink = 0.0;
        for _ in 0..warmup {
            sink += naive_round(&problem, &mut prices, &config.allocation, &mut lats);
        }
        let start = Instant::now();
        for _ in 0..iters {
            sink += naive_round(&problem, &mut prices, &config.allocation, &mut lats);
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
    };

    // Plan side and telemetry cost: the real optimizer (which lowers the
    // problem once), bare, with a disabled registry attached (every
    // publish is a branch no-op), and with a live one (atomic bumps plus
    // three phase-timing clock reads).
    let timed_run = |registry: Option<MetricsRegistry>| -> f64 {
        let mut opt = Optimizer::new(problem.clone(), config);
        if let Some(registry) = &registry {
            opt.attach_telemetry(registry);
        }
        for _ in 0..warmup {
            std::hint::black_box(opt.step());
        }
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(opt.step());
        }
        start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
    };

    // Span tracing cost: the same step with a recording span recorder
    // attached — one "iteration" span appended per step, nothing else.
    let span_rep = || {
        let mut opt = Optimizer::new(problem.clone(), config);
        let recorder = SpanRecorder::recording();
        opt.attach_spans(&recorder);
        for _ in 0..warmup {
            std::hint::black_box(opt.step());
        }
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(opt.step());
        }
        start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
    };

    // Profiler-handle cost: the same step with a *disabled* profiler
    // attached — every scope entry is one branch, no clock reads.
    let profile_rep = || {
        let mut opt = Optimizer::new(problem.clone(), config);
        let profiler = Profiler::disabled();
        opt.attach_profiler(&profiler);
        for _ in 0..warmup {
            std::hint::black_box(opt.step());
        }
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(opt.step());
        }
        start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
    };

    let mut naive_ns_per_iter = f64::INFINITY;
    let mut plan_ns_per_iter = f64::INFINITY;
    let mut telemetry_disabled_ns_per_iter = f64::INFINITY;
    let mut telemetry_enabled_ns_per_iter = f64::INFINITY;
    let mut span_enabled_ns_per_iter = f64::INFINITY;
    let mut profile_disabled_ns_per_iter = f64::INFINITY;
    for _ in 0..3 {
        naive_ns_per_iter = naive_ns_per_iter.min(naive_rep());
        plan_ns_per_iter = plan_ns_per_iter.min(timed_run(None));
        telemetry_disabled_ns_per_iter =
            telemetry_disabled_ns_per_iter.min(timed_run(Some(MetricsRegistry::disabled())));
        telemetry_enabled_ns_per_iter =
            telemetry_enabled_ns_per_iter.min(timed_run(Some(MetricsRegistry::new())));
        span_enabled_ns_per_iter = span_enabled_ns_per_iter.min(span_rep());
        profile_disabled_ns_per_iter = profile_disabled_ns_per_iter.min(profile_rep());
    }

    // Rounds to formal convergence (utility stable + prices quiescent +
    // feasible) from a fresh start — the other axis the scaling story
    // needs besides per-iteration cost. The executed round count is
    // reported even when the cap is hit (`converged` tells them apart),
    // so the regression gate can track convergence cost at every scale.
    let (rounds_to_converge, converged) = if converge_budget > 0 {
        let mut opt = Optimizer::new(problem.clone(), config);
        let outcome = opt.run_to_convergence(converge_budget);
        (Some(outcome.iterations), outcome.converged)
    } else {
        (None, false)
    };

    OptimizerBenchPoint {
        tasks: num_tasks,
        subtasks,
        naive_ns_per_iter,
        plan_ns_per_iter,
        telemetry_disabled_ns_per_iter,
        telemetry_enabled_ns_per_iter,
        span_enabled_ns_per_iter,
        profile_disabled_ns_per_iter,
        rounds_to_converge,
        converged,
        max_rounds: converge_budget,
    }
}

/// One point of the sharded scaling sweep: a fixed clustered problem
/// optimized monolithically and with `shards` shards, with the sharded
/// round's cost decomposed per shard ([`ShardedOptimizer::step_timed`]).
///
/// Efficiency reporting is honest about the measurement machine: every
/// phase is *executed* sequentially and `critical_path_ns_per_iter` is
/// the modeled round cost with one free core per shard (slowest shard +
/// sequential coordinator round). `sharded_wall_ns_per_iter` is what the
/// round actually cost wall-clock on this machine.
#[derive(Debug, Clone)]
pub struct ShardedBenchPoint {
    /// Number of tasks in the workload.
    pub tasks: usize,
    /// Total subtasks.
    pub subtasks: usize,
    /// Shard count of this point.
    pub shards: usize,
    /// Resources shared between shards (coordinator-priced).
    pub shared_resources: usize,
    /// Mean nanoseconds per monolithic
    /// [`Optimizer::step`](lla_core::ShardedOptimizer::step) on the same
    /// problem.
    pub monolithic_ns_per_iter: f64,
    /// Mean wall-clock nanoseconds per sharded round, executed
    /// sequentially.
    pub sharded_wall_ns_per_iter: f64,
    /// Mean modeled nanoseconds per round with one core per shard:
    /// `max_s(shard cost) + coordinator cost`.
    pub critical_path_ns_per_iter: f64,
    /// Mean nanoseconds of the coordinator round alone.
    pub coordinator_ns_per_iter: f64,
    /// Rounds the convergence measurement ran: the round it formally
    /// converged at, or [`max_rounds`](Self::max_rounds) if the cap was
    /// hit first (see [`converged`](Self::converged)). `None` only when
    /// the measurement was skipped (budget 0, or a shard count the sweep
    /// does not measure).
    pub rounds_to_converge: Option<usize>,
    /// Whether the convergence measurement formally converged within
    /// [`max_rounds`](Self::max_rounds).
    pub converged: bool,
    /// The explicit round cap of the convergence measurement (0 when
    /// skipped).
    pub max_rounds: usize,
}

impl ShardedBenchPoint {
    /// Modeled parallel efficiency at one core per shard:
    /// `monolithic / (shards × critical path)`. 1.0 is perfect linear
    /// scaling; the gap is shard imbalance + the sequential coordinator +
    /// per-shard resource-array overhead.
    pub fn parallel_efficiency(&self) -> f64 {
        self.monolithic_ns_per_iter / (self.shards as f64 * self.critical_path_ns_per_iter)
    }

    /// Modeled speedup over the monolithic step at one core per shard.
    pub fn modeled_speedup(&self) -> f64 {
        self.monolithic_ns_per_iter / self.critical_path_ns_per_iter
    }

    /// Sequential-execution overhead of sharding: total sharded work per
    /// round relative to the monolithic step (what a one-core machine
    /// pays for the decomposition; the CI guard bounds this).
    pub fn sequential_overhead(&self) -> f64 {
        self.sharded_wall_ns_per_iter / self.monolithic_ns_per_iter - 1.0
    }
}

/// Geometry and measurement protocol for [`bench_sharded_sweep`].
#[derive(Debug, Clone)]
pub struct ShardedSweepConfig {
    /// Total tasks in the clustered workload.
    pub num_tasks: usize,
    /// Clusters in the generator; every entry of `shard_counts` must
    /// divide it so contiguous shards align with cluster boundaries.
    pub num_clusters: usize,
    /// Shard counts to measure — one [`ShardedBenchPoint`] each.
    pub shard_counts: Vec<usize>,
    /// Workload seed.
    pub seed: u64,
    /// Untimed warmup rounds per measurement.
    pub warmup: usize,
    /// Timed rounds per measurement.
    pub iters: usize,
    /// Repetitions; every reported number is the best of these.
    pub reps: usize,
    /// Rounds-to-convergence budget (0 = skip).
    pub converge_budget: usize,
}

/// Runs the sharded scaling sweep on one clustered workload
/// ([`clustered_workload`] with `num_clusters` clusters): measures the
/// monolithic per-iteration cost once, then one [`ShardedBenchPoint`] per
/// entry of `shard_counts`. All measurements are best-of-`reps` over
/// `warmup` untimed + `iters` timed rounds; `converge_budget` (0 = skip)
/// bounds the rounds-to-convergence run at the largest shard count only —
/// convergence rounds are shard-count independent in practice, and at the
/// million-task point one run is already minutes.
pub fn bench_sharded_sweep(sweep: &ShardedSweepConfig) -> Vec<ShardedBenchPoint> {
    let &ShardedSweepConfig {
        num_tasks,
        num_clusters,
        seed,
        warmup,
        iters,
        reps,
        converge_budget,
        ..
    } = sweep;
    let shard_counts = &sweep.shard_counts;
    let (problem, _) = clustered_workload(num_tasks, num_clusters, seed).expect("valid geometry");
    let subtasks = problem.tasks().iter().map(|t| t.len()).sum();
    // Every arm runs the same config; with a trace the monolithic arm
    // alone would pay a record per round.
    let config = OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        record_trace: false,
        ..OptimizerConfig::default()
    };
    let reps = reps.max(1);

    let monolithic_ns_per_iter = (0..reps)
        .map(|_| {
            let mut opt = Optimizer::new(problem.clone(), config);
            for _ in 0..warmup {
                std::hint::black_box(opt.step());
            }
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(opt.step());
            }
            start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min);

    shard_counts
        .iter()
        .map(|&shards| {
            let spec = ShardSpec::contiguous(problem.tasks().len(), shards);
            let mut best_wall = f64::INFINITY;
            let mut best_crit = f64::INFINITY;
            let mut best_coord = f64::INFINITY;
            let mut shared_resources = 0;
            for _ in 0..reps {
                let mut opt = ShardedOptimizer::new(problem.clone(), config, spec.clone())
                    .expect("contiguous spec is a partition");
                shared_resources = opt.num_shared_resources();
                for _ in 0..warmup {
                    std::hint::black_box(opt.step());
                }
                let mut crit = 0.0;
                let mut coord = 0.0;
                let start = Instant::now();
                for _ in 0..iters {
                    let (rep, timing) = opt.step_timed();
                    std::hint::black_box(rep);
                    crit += timing.critical_path_ns();
                    coord += timing.coordinator_ns;
                }
                let wall = start.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64;
                if wall < best_wall {
                    best_wall = wall;
                    best_crit = crit / iters.max(1) as f64;
                    best_coord = coord / iters.max(1) as f64;
                }
            }
            let measured =
                converge_budget > 0 && shards == *shard_counts.iter().max().unwrap_or(&1);
            let (rounds_to_converge, converged) = if measured {
                let mut opt = ShardedOptimizer::new(problem.clone(), config, spec.clone())
                    .expect("contiguous spec is a partition");
                let outcome = opt.run_to_convergence(converge_budget);
                (Some(outcome.iterations), outcome.converged)
            } else {
                (None, false)
            };
            ShardedBenchPoint {
                tasks: num_tasks,
                subtasks,
                shards,
                shared_resources,
                monolithic_ns_per_iter,
                sharded_wall_ns_per_iter: best_wall,
                critical_path_ns_per_iter: best_crit,
                coordinator_ns_per_iter: best_coord,
                rounds_to_converge,
                converged,
                max_rounds: if measured { converge_budget } else { 0 },
            }
        })
        .collect()
}

/// Result of the Figure 7 schedulability experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Utility and per-resource share sums per iteration.
    pub series: Series,
    /// Whether the run converged (the paper's point: it must not).
    pub converged: bool,
    /// Mean critical-path/critical-time ratio per task over the last 50
    /// iterations (paper reports 1.75–2.41).
    pub violation_ratios: Vec<f64>,
    /// Mean share-sum/availability ratio per resource over the last 50
    /// iterations — where the infeasibility parks under our clamped
    /// allocator.
    pub resource_ratios: Vec<f64>,
}

/// Runs the Figure 7 experiment: the 6-task workload *without* scaling
/// critical times, which is unschedulable.
pub fn run_fig7(iterations: usize) -> Fig7Result {
    let problem = scaled_workload(2, false);
    let num_resources = problem.resources().len();
    let num_tasks = problem.tasks().len();
    let mut opt = Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::adaptive(1.0)));
    let mut headers: Vec<String> = vec!["iteration".into(), "utility".into()];
    headers.extend((0..num_resources).map(|r| format!("usage_r{r}")));
    let mut series = Series { headers, rows: Vec::new() };
    for _ in 0..iterations {
        let rep = opt.step();
        let lats = opt.allocation();
        let mut row = vec![rep.iteration as f64, rep.utility];
        for r in opt.problem().resources() {
            row.push(opt.problem().resource_usage(r.id(), lats.lats()));
        }
        series.rows.push(row);
    }
    let converged = opt.has_converged();
    let trace = opt.trace();
    let window = 50.min(trace.len()).max(1);
    let mut ratios = vec![0.0; num_tasks];
    let mut res_ratios = vec![0.0; num_resources];
    for rec in &trace.records()[trace.len() - window..] {
        for (t, &r) in rec.critical_path_ratio.iter().enumerate() {
            ratios[t] += r / window as f64;
        }
        for (r, &u) in rec.resource_usage.iter().enumerate() {
            let b = opt.problem().resources()[r].availability().max(1e-9);
            res_ratios[r] += u / b / window as f64;
        }
    }
    Fig7Result { series, converged, violation_ratios: ratios, resource_ratios: res_ratios }
}

/// Result of the Figure 8 closed-loop experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Per-window series: time, fast/slow shares, corrections.
    pub series: Series,
    /// Fast-subtask share before error correction.
    pub fast_before: f64,
    /// Fast-subtask share at the end.
    pub fast_after: f64,
    /// Slow-subtask share before error correction.
    pub slow_before: f64,
    /// Slow-subtask share at the end.
    pub slow_after: f64,
}

/// Runs the Figure 8 experiment: the §6.2 prototype workload in the
/// closed loop, enabling error correction after `warmup_windows`.
pub fn run_fig8(warmup_windows: usize, corrected_windows: usize, window_ms: f64) -> Fig8Result {
    let problem = prototype_workload(&PrototypeParams::default());
    let mut cl = ClosedLoop::new(
        problem,
        paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)),
        SimConfig::default(),
        ClosedLoopConfig { window: window_ms, correction_enabled: false, ..Default::default() },
    );
    cl.run_windows(warmup_windows);
    cl.set_correction_enabled(true);
    cl.run_windows(corrected_windows);

    let mut series = Series::new(&[
        "time_ms",
        "fast_share",
        "slow_share",
        "fast_correction",
        "slow_correction",
        "utility",
    ]);
    for rec in cl.history() {
        series.push(vec![
            rec.time,
            rec.shares[0][0],
            rec.shares[2][0],
            rec.corrections[0][0],
            rec.corrections[2][0],
            rec.utility,
        ]);
    }
    let before = &cl.history()[warmup_windows.saturating_sub(1)];
    let after = cl.history().last().expect("windows ran");
    Fig8Result {
        fast_before: before.shares[0][0],
        fast_after: after.shares[0][0],
        slow_before: before.shares[2][0],
        slow_after: after.shares[2][0],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip() {
        let mut s = Series::new(&["a", "b"]);
        s.push(vec![1.0, 2.0]);
        let csv = s.to_csv();
        assert!(csv.starts_with("a,b\n1.000000,2.000000\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn series_rejects_ragged_rows() {
        let mut s = Series::new(&["a"]);
        s.push(vec![1.0, 2.0]);
    }

    #[test]
    fn table1_converges_and_respects_deadlines() {
        let result = run_table1(Aggregation::PathWeighted, 3_000);
        assert!(result.converged);
        for &(cp, c) in &result.critical {
            assert!(cp <= c * 1.001, "critical path {cp} vs critical time {c}");
            // The paper: critical path within 1% below the critical time.
            assert!(cp >= c * 0.97, "critical path {cp} should be near {c}");
        }
    }

    #[test]
    fn table1_health_snapshot_is_healthy() {
        let (result, health) = run_table1_health(Aggregation::PathWeighted, 3_000);
        assert!(health.converged && health.feasible, "{health}");
        assert!(health.healthy(), "{health}");
        assert_eq!(health.utility, result.utility);
        assert_eq!(health.resources.len(), result.usage.len());
        for (r, &usage) in health.resources.iter().zip(&result.usage) {
            assert_eq!(r.usage, usage, "snapshot usage must match the Table 1 readout");
        }
    }

    #[test]
    fn fig6_points_converge() {
        let p = run_fig6_point(2, 4_000);
        assert_eq!(p.tasks, 6);
        assert!(p.converged);
    }
}
