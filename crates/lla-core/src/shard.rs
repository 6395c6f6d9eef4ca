//! The LLA engine: the one implementation of the iteration (§4.1), run
//! over a partition of the task set into shards that coordinate only
//! through the prices of shared resources.
//!
//! A [`ShardedOptimizer`] partitions the task set into shards that each
//! run the full LLA iteration over a *subset plan*
//! ([`Plan::lower_subset`]) on flat plan-ordered latencies, and
//! reconciles the prices of resources used by more than one shard in a
//! deterministic coordinator round — the price-discovery decomposition of
//! Agrawal et al. ("Allocation of Fungible Resources via a Fast, Scalable
//! Price Discovery Method"). The centralized
//! [`Optimizer`](crate::optimizer::Optimizer) is this engine with one
//! shard.
//!
//! # Resource ownership
//!
//! Every resource has exactly one price authority, its
//! [`ResourceOwner`]:
//!
//! - **`Shard(k)`** — every subtask on the resource belongs to shard `k`,
//!   or no subtask uses it at all (unused resources belong to shard 0);
//!   the shard applies the μ step (Eq. 8) locally.
//! - **`Coordinator`** — the resource is shared by two or more shards;
//!   the coordinator sums the shards' partial usages *in shard order*,
//!   applies one μ step, and broadcasts the new price and congestion bit
//!   back to every shard touching the resource.
//!
//! With one shard nothing is shared, so shard 0's [`PriceState`] is the
//! whole, global dual state.
//!
//! # The round
//!
//! One [`step`](ShardedOptimizer::step) is:
//!
//! 1. **allocate** (fans out across shards under the `parallel`
//!    feature): latency allocation over each shard plan.
//! 2. **price**: each shard computes usage and path latencies and steps
//!    the μ of the resources it owns; the coordinator round (sequential,
//!    ascending resource order) steps and broadcasts every shared μ; each
//!    shard then steps its λ (Eq. 9) with the now-complete congestion
//!    bits.
//! 3. **lagrangian** and **trace**: per-shard utility and violations,
//!    reduced in shard order, then convergence bookkeeping and telemetry.
//!
//! Every kernel is the plan module's bit-exact CSR kernel and every
//! cross-shard reduction runs in fixed shard order, so one shard is
//! bit-identical to the naive nested round (`tests/plan_equivalence.rs`)
//! and k shards differ from it only by the reassociation of shared-usage
//! sums (`tests/shard_equivalence.rs` pins them within `1e-9`).
//!
//! # Lowering
//!
//! Plans are lowered per shard: a never-stepped engine lowers at its
//! first step; `add_task`/`remove_task` re-lower the one shard they
//! touch, and `set_resource_availability(r)` the shards touching or
//! owning `r`, at once; corrections and demand scales only mark their
//! shard stale, so a burst of them costs one re-lowering at the next
//! step. Every lowering counts in `lla_opt_plan_lowerings_total`.

use crate::error::ModelError;
use crate::ids::{ResourceId, SubtaskId, TaskId};
use crate::lagrangian::{kkt_report, KktReport};
use crate::optimizer::{
    Allocation, IterationReport, OptimizerConfig, OptimizerState, RunOutcome, StateImportError,
};
use crate::plan::{Plan, PlanScratch};
use crate::prices::PriceState;
use crate::problem::{MembershipReport, Problem};
use crate::resource::Resource;
use crate::task::{Task, TaskBuilder};
use crate::trace::{Trace, TraceRecord};
use lla_telemetry::{
    Counter, DiagSample, Gauge, HealthSnapshot, Histogram, MetricsRegistry, Profiler,
    ResourceHealth, SpanRecorder, TraceCtx,
};
use std::time::Instant;

/// Which authority applies the μ price step for a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceOwner {
    /// Used by this shard alone (or, for shard 0, by no shard): the shard
    /// prices it locally.
    Shard(usize),
    /// Shared by two or more shards: the coordinator prices it from
    /// aggregated usage.
    Coordinator,
}

/// A partition of a problem's task set into shards.
///
/// Groups are disjoint, jointly cover every task, and each group is
/// nonempty; group order defines shard order and the order *within* a
/// group defines the shard's plan-local task order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    groups: Vec<Vec<usize>>,
}

impl ShardSpec {
    /// Contiguous equal-size blocks: shard `w` of `k` gets tasks
    /// `[n·w/k, n·(w+1)/k)`. The shard count is clamped to the task count
    /// (and to at least one) so no group is empty.
    pub fn contiguous(num_tasks: usize, num_shards: usize) -> ShardSpec {
        let k = num_shards.clamp(1, num_tasks.max(1));
        ShardSpec {
            groups: (0..k)
                .map(|w| (num_tasks * w / k..num_tasks * (w + 1) / k).collect())
                .collect(),
        }
    }

    /// Wraps explicit task groups; validated against the problem by
    /// [`ShardedOptimizer::new`].
    pub fn from_groups(groups: Vec<Vec<usize>>) -> ShardSpec {
        ShardSpec { groups }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// The task groups (global task indices).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

/// One shard: a subset plan over its tasks, its flat latency state, a
/// price state holding λ rows for its tasks plus a full-width μ mirror,
/// and per-round diagnostics.
#[derive(Debug, Clone)]
struct Shard {
    /// Global task indices in plan-local order.
    tasks: Vec<usize>,
    plan: Plan,
    scratch: PlanScratch,
    /// The plan does not reflect the problem (never lowered, or a
    /// correction changed its constants); the next step re-lowers it.
    /// Only a step reads the plan, and it lowers stale shards first.
    stale: bool,
    /// λ rows for `tasks` (plan-local order); μ entries for *all* global
    /// resources. Authoritative for owned resources, a mirror refreshed
    /// by the coordinator broadcast for shared ones.
    prices: PriceState,
    /// Flat latencies in plan order (`scratch` is transient — re-lowerings
    /// reset it, this survives them).
    lats: Vec<f64>,
    /// `owned[r]`: this shard is `r`'s price authority.
    owned: Vec<bool>,
    /// `touches[r]`: any of this shard's subtasks runs on `r`.
    touches: Vec<bool>,
    /// Per-round outputs of [`diagnose`](Shard::diagnose).
    utility: f64,
    res_violation: f64,
    path_violation: f64,
}

impl Shard {
    /// Latency allocation at the current prices. `inner_parallel` permits
    /// the plan's own threaded allocator (only when shards are not
    /// already fanned out across threads).
    fn allocate(&mut self, inner_parallel: bool) {
        self.scratch.prev_mut().copy_from_slice(&self.lats);
        if inner_parallel {
            self.plan.allocate_into(&self.prices, &mut self.scratch);
        } else {
            self.plan.allocate_seq(&self.prices, &mut self.scratch);
        }
        self.lats.copy_from_slice(self.scratch.lats());
    }

    /// Usage, path latencies, and μ steps for the owned resources.
    fn resource_steps(&mut self) {
        self.plan.owned_resource_steps(&mut self.prices, &mut self.scratch, &self.owned);
    }

    /// λ steps with the coordinator-completed congestion bits.
    fn path_steps(&mut self) {
        self.plan.path_price_steps(&mut self.prices, &self.scratch);
    }

    /// Utility and the worst owned-resource and path violations.
    fn diagnose(&mut self) {
        let (usage, avail) = (self.scratch.usage(), self.plan.availability());
        self.res_violation = (0..self.owned.len())
            .filter(|&r| self.owned[r])
            .map(|r| usage[r] - avail[r])
            .fold(f64::NEG_INFINITY, f64::max);
        self.path_violation = self.plan.max_path_violation(self.scratch.path_lat());
        self.utility = self.plan.total_utility(self.scratch.lats());
    }
}

/// Wall-clock bucket bounds for the per-phase step timings (seconds):
/// 1 µs … 1 s, one decade per bucket.
pub(crate) const PHASE_SECONDS_BOUNDS: [f64; 7] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// The `lla_opt_*` metric family, registered by
/// [`ShardedOptimizer::attach_telemetry`]. Updates are atomic-only; when
/// the backing registry is disabled the handles no-op and the per-phase
/// `Instant` reads are skipped entirely.
#[derive(Debug, Clone)]
struct Telemetry {
    enabled: bool,
    iterations: Counter,
    plan_lowerings: Counter,
    gamma_doublings: Counter,
    phase_allocate: Histogram,
    phase_price: Histogram,
    phase_diagnostics: Histogram,
    utility: Gauge,
    resource_violation: Gauge,
    path_violation: Gauge,
    price_step: Gauge,
    shards: Gauge,
    coordinated_resources: Gauge,
    /// Gamma doublings already mirrored into the counter; the next step
    /// adds only the delta.
    doublings_seen: u64,
}

impl Telemetry {
    fn new(registry: &MetricsRegistry) -> Self {
        let phase = |name, help| registry.histogram(name, help, &PHASE_SECONDS_BOUNDS);
        Telemetry {
            enabled: registry.is_enabled(),
            iterations: registry
                .counter("lla_opt_iterations_total", "optimizer iterations executed"),
            plan_lowerings: registry.counter(
                "lla_opt_plan_lowerings_total",
                "compiled-plan (re-)lowering epochs (membership/problem mutations)",
            ),
            gamma_doublings: registry.counter(
                "lla_opt_gamma_doublings_total",
                "adaptive step-size growth events across all duals",
            ),
            phase_allocate: phase(
                "lla_opt_phase_allocate_seconds",
                "wall-clock cost of the latency-allocation phase per iteration",
            ),
            phase_price: phase(
                "lla_opt_phase_price_seconds",
                "wall-clock cost of the price-computation phase per iteration",
            ),
            phase_diagnostics: phase(
                "lla_opt_phase_diagnostics_seconds",
                "wall-clock cost of utility/violation/trace bookkeeping per iteration",
            ),
            utility: registry.gauge("lla_opt_utility", "total utility after the last iteration"),
            resource_violation: registry.gauge(
                "lla_opt_max_resource_violation",
                "max_r (usage_r - B_r) after the last iteration",
            ),
            path_violation: registry.gauge(
                "lla_opt_max_path_violation",
                "max_p (path_latency/C - 1) after the last iteration",
            ),
            price_step: registry.gauge(
                "lla_opt_last_max_rel_price_step",
                "largest relative price movement of the last update",
            ),
            shards: registry.gauge("lla_opt_shards", "shards the optimizer partitions tasks into"),
            coordinated_resources: registry.gauge(
                "lla_opt_coordinated_resources",
                "resources shared across shards and priced by the coordinator",
            ),
            doublings_seen: 0,
        }
    }
}

/// Wall-clock decomposition of one sequentially executed round, from
/// [`ShardedOptimizer::step_timed`].
#[derive(Debug, Clone)]
pub struct ShardStepTiming {
    /// Per-shard nanoseconds (allocation, μ and λ steps, diagnostics).
    pub shard_ns: Vec<f64>,
    /// Coordinator-round nanoseconds (aggregate, step, broadcast).
    pub coordinator_ns: f64,
}

impl ShardStepTiming {
    /// Modeled cost of the round with one free core per shard: the
    /// slowest shard plus the sequential coordinator round.
    pub fn critical_path_ns(&self) -> f64 {
        self.shard_ns.iter().fold(0.0_f64, |a, &b| a.max(b)) + self.coordinator_ns
    }
}

/// The LLA engine (see the [module docs](self)).
///
/// The engine is deliberately *online*: [`step`](Self::step) can be
/// called forever, the problem can be mutated between steps, and the
/// convergence detector re-arms after every change.
#[derive(Debug, Clone)]
pub struct ShardedOptimizer {
    problem: Problem,
    config: OptimizerConfig,
    shards: Vec<Shard>,
    /// Price authority per resource.
    owner: Vec<ResourceOwner>,
    /// Coordinator-owned (shared) resource indices, ascending.
    coordinated: Vec<usize>,
    /// Authoritative duals for coordinator-owned resources (λ-row free).
    coordinator: PriceState,
    /// `B_r` mirror for the coordinator round.
    availability: Vec<f64>,
    /// Global task index → owning shard.
    task_shard: Vec<usize>,
    iteration: usize,
    below_tol: usize,
    last_utility: f64,
    /// `(max_resource_violation, max_path_violation)` of the last step;
    /// cleared by anything that changes latencies or the problem, so
    /// [`has_converged`](Self::has_converged) can skip recomputing
    /// feasibility on the hot path.
    last_violations: Option<(f64, f64)>,
    /// Whether each round appends a [`TraceRecord`]: only a one-shard
    /// [`Optimizer`](crate::Optimizer) records, since a record holds the
    /// global usage vector and per-task ratios in global task order.
    record_trace: bool,
    trace: Trace,
    /// Boxed so an uninstrumented engine stays one pointer wider.
    telemetry: Option<Box<Telemetry>>,
    spans: Option<SpanRecorder>,
    profiler: Profiler,
}

impl ShardedOptimizer {
    /// Partitions `problem` by `spec` and classifies every resource's
    /// price authority; shard plans lower at the first step.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] when the spec is not a partition
    /// of the task set (empty, out-of-range, duplicated, or uncovered
    /// task indices; an empty group).
    pub fn new(
        problem: Problem,
        config: OptimizerConfig,
        spec: ShardSpec,
    ) -> Result<Self, ModelError> {
        let nt = problem.tasks().len();
        if spec.groups.is_empty() {
            return Err(ModelError::InvalidParameter { what: "shard count", value: 0.0 });
        }
        let mut seen = vec![false; nt];
        for (k, group) in spec.groups.iter().enumerate() {
            if group.is_empty() {
                return Err(ModelError::InvalidParameter {
                    what: "empty shard group",
                    value: k as f64,
                });
            }
            for &t in group {
                if t >= nt {
                    return Err(ModelError::InvalidParameter {
                        what: "shard task index",
                        value: t as f64,
                    });
                }
                if seen[t] {
                    return Err(ModelError::InvalidParameter {
                        what: "task assigned to two shards",
                        value: t as f64,
                    });
                }
                seen[t] = true;
            }
        }
        if let Some(t) = seen.iter().position(|&s| !s) {
            return Err(ModelError::InvalidParameter {
                what: "task not covered by any shard",
                value: t as f64,
            });
        }
        Ok(Self::with_groups(problem, config, spec.groups, false))
    }

    /// Builds the engine over unvalidated `groups` (the one-shard
    /// [`Optimizer`](crate::Optimizer) passes one group, possibly empty).
    pub(crate) fn with_groups(
        problem: Problem,
        config: OptimizerConfig,
        groups: Vec<Vec<usize>>,
        record_trace: bool,
    ) -> Self {
        let last_utility = problem.total_utility(&problem.initial_allocation());
        let mut engine = ShardedOptimizer {
            coordinator: PriceState::for_shard(&problem, &[], config.step_policy),
            problem,
            config,
            shards: Vec::new(),
            owner: Vec::new(),
            coordinated: Vec::new(),
            availability: Vec::new(),
            task_shard: Vec::new(),
            iteration: 0,
            below_tol: 0,
            last_utility,
            last_violations: None,
            record_trace,
            trace: Trace::bounded(config.trace_capacity),
            telemetry: None,
            spans: None,
            profiler: Profiler::disabled(),
        };
        engine.install_shards(groups);
        engine
    }

    /// (Re)builds every shard from the live problem with fresh duals, the
    /// initial allocation and stale plans, and classifies ownership.
    fn install_shards(&mut self, groups: Vec<Vec<usize>>) {
        let problem = &self.problem;
        let nr = problem.resources().len();
        let init = problem.initial_allocation();
        self.task_shard = vec![0; problem.tasks().len()];
        self.shards = groups
            .into_iter()
            .enumerate()
            .map(|(k, tasks)| {
                let mut touches = vec![false; nr];
                for &t in &tasks {
                    self.task_shard[t] = k;
                    for sub in problem.tasks()[t].subtasks() {
                        touches[sub.resource().index()] = true;
                    }
                }
                Shard {
                    prices: PriceState::for_shard(problem, &tasks, self.config.step_policy),
                    lats: tasks.iter().flat_map(|&t| init[t].iter().copied()).collect(),
                    tasks,
                    plan: Plan::default(),
                    scratch: PlanScratch::default(),
                    stale: true,
                    owned: Vec::new(),
                    touches,
                    utility: 0.0,
                    res_violation: f64::NEG_INFINITY,
                    path_violation: f64::NEG_INFINITY,
                }
            })
            .collect();
        self.coordinator = PriceState::for_shard(problem, &[], self.config.step_policy);
        self.availability = problem.resources().iter().map(|r| r.availability()).collect();
        self.owner = (0..nr).map(|r| self.touch_owner(r)).collect();
        for (k, sh) in self.shards.iter_mut().enumerate() {
            sh.owned = self.owner.iter().map(|&o| o == ResourceOwner::Shard(k)).collect();
        }
        self.coordinated =
            (0..nr).filter(|&r| self.owner[r] == ResourceOwner::Coordinator).collect();
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The driver configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The price authority for resource `r`.
    pub fn resource_owner(&self, r: usize) -> ResourceOwner {
        self.owner[r]
    }

    /// Resources priced by the coordinator because more than one shard
    /// uses them.
    pub fn num_shared_resources(&self) -> usize {
        self.coordinated.len()
    }

    /// The shard owning task `id`.
    pub fn shard_of(&self, id: TaskId) -> usize {
        self.task_shard[id.index()]
    }

    /// Global task indices of shard `k`, in plan-local order.
    pub fn shard_tasks(&self, k: usize) -> &[usize] {
        &self.shards[k].tasks
    }

    /// Shard `k`'s price state: λ rows in plan-local task order, μ
    /// authoritative for the resources the shard owns.
    pub(crate) fn shard_prices(&self, k: usize) -> &PriceState {
        &self.shards[k].prices
    }

    /// Total iterations executed over the driver's lifetime.
    pub fn iterations(&self) -> usize {
        self.iteration
    }

    /// The recorded trace (empty unless this is an
    /// [`Optimizer`](crate::Optimizer) with `record_trace` on).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The current total utility (summed per shard, then in shard
    /// order, like the step's).
    pub fn utility(&self) -> f64 {
        let tasks = self.problem.tasks();
        self.shards
            .iter()
            .map(|sh| rows(tasks, sh).map(|(t, lats)| tasks[t].utility(lats)).sum::<f64>())
            .sum()
    }

    /// The current allocation, in global task order.
    pub fn allocation(&self) -> Allocation {
        Allocation::from_lats(self.nested_lats())
    }

    /// The largest relative price movement of the most recent step, over
    /// every shard and the coordinator.
    pub fn max_rel_price_step(&self) -> f64 {
        self.shards
            .iter()
            .map(|sh| sh.prices.last_max_rel_step())
            .fold(self.coordinator.last_max_rel_step(), f64::max)
    }

    /// Cumulative adaptive step-size growth events over every shard and
    /// the coordinator.
    pub fn gamma_doublings(&self) -> u64 {
        self.shards.iter().map(|sh| sh.prices.gamma_doublings()).sum::<u64>()
            + self.coordinator.gamma_doublings()
    }

    /// Registers the `lla_opt_*` metric family on `registry` and starts
    /// publishing from every subsequent step and plan lowering. With a
    /// disabled registry the handles no-op and phase timing is skipped.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        let mut tel = Telemetry::new(registry);
        tel.doublings_seen = self.gamma_doublings();
        tel.shards.set(self.shards.len() as f64);
        tel.coordinated_resources.set(self.coordinated.len() as f64);
        self.telemetry = Some(Box::new(tel));
    }

    /// Starts recording one causal span per step on `recorder`, timed on
    /// the iteration-index clock (iteration `i` spans `[i, i+1]`). Purely
    /// passive; a disabled recorder costs one branch per step.
    pub fn attach_spans(&mut self, recorder: &SpanRecorder) {
        self.spans = Some(recorder.clone());
    }

    /// Starts charging wall time and call counts to `profiler`: every
    /// [`step`](Self::step) opens a `step` scope with `allocate` /
    /// `price` / `lagrangian` / `trace` children, a lowering a top-level
    /// `plan_lower` scope, and [`kkt`](Self::kkt) a `kkt` scope. With
    /// several shards, `allocate` gets one `shard` child per shard and
    /// `price` gets `shard_resources`, `coordinator` and `shard_paths`
    /// children, attributed from worker threads under the `parallel`
    /// feature. Purely passive; a disabled profiler costs one branch per
    /// scope.
    pub fn attach_profiler(&mut self, profiler: &Profiler) {
        self.profiler = profiler.clone();
    }

    /// Executes one LLA iteration: latency allocation at the current
    /// prices, then price computation at the new latencies (see the
    /// [module docs](self)). The hot loop touches only flat arrays and
    /// reusable scratch — no per-iteration heap allocation.
    pub fn step(&mut self) -> IterationReport {
        self.lower_stale();
        let _step_prof = self.profiler.scope("step");
        // Phase timing only when telemetry is attached to a *live*
        // registry; the plain path performs no clock reads at all.
        let timed = self.telemetry.as_ref().is_some_and(|t| t.enabled);
        let t0 = timed.then(Instant::now);
        {
            let _prof = self.profiler.scope("allocate");
            let inner_parallel = self.shards.len() == 1;
            self.each_shard("shard", |sh| sh.allocate(inner_parallel));
        }
        let t1 = timed.then(Instant::now);
        let coord_violation = {
            let _prof = self.profiler.scope("price");
            self.each_shard("shard_resources", Shard::resource_steps);
            let violation = self.coordinator_round();
            self.each_shard("shard_paths", Shard::path_steps);
            violation
        };
        let t2 = timed.then(Instant::now);
        {
            let _prof = self.profiler.scope("lagrangian");
            self.shards.iter_mut().for_each(Shard::diagnose);
        }
        let report = self.finish_round(coord_violation);
        if let (Some(tel), Some(t0), Some(t1), Some(t2)) = (&self.telemetry, t0, t1, t2) {
            tel.phase_allocate.observe((t1 - t0).as_secs_f64());
            tel.phase_price.observe((t2 - t1).as_secs_f64());
            tel.phase_diagnostics.observe(t2.elapsed().as_secs_f64());
        }
        report
    }

    /// [`step`](Self::step) with a wall-clock decomposition of the round,
    /// executed strictly sequentially (one shard at a time regardless of
    /// the `parallel` feature) so each shard's cost is measured in
    /// isolation. The shard-scaling bench uses this for its critical-path
    /// efficiency model: with one free core per shard, a round costs
    /// `max_s(shard_ns[s]) + coordinator_ns`.
    pub fn step_timed(&mut self) -> (IterationReport, ShardStepTiming) {
        self.lower_stale();
        let mut shard_ns = vec![0.0; self.shards.len()];
        for (ns, sh) in shard_ns.iter_mut().zip(&mut self.shards) {
            let t0 = Instant::now();
            sh.allocate(false);
            sh.resource_steps();
            sh.diagnose();
            *ns += t0.elapsed().as_secs_f64() * 1e9;
        }
        let t0 = Instant::now();
        let coord_violation = self.coordinator_round();
        let coordinator_ns = t0.elapsed().as_secs_f64() * 1e9;
        for (ns, sh) in shard_ns.iter_mut().zip(&mut self.shards) {
            let t0 = Instant::now();
            sh.path_steps();
            *ns += t0.elapsed().as_secs_f64() * 1e9;
        }
        (self.finish_round(coord_violation), ShardStepTiming { shard_ns, coordinator_ns })
    }

    /// Runs `f` on every shard. Several shards fan out one worker each
    /// under the `parallel` feature, each charging a `scope` child to the
    /// enclosing profiler scope; a single shard runs inline with no child
    /// scope.
    fn each_shard(&mut self, scope: &'static str, f: impl Fn(&mut Shard) + Sync) {
        if let [only] = self.shards.as_mut_slice() {
            return f(only);
        }
        #[cfg(feature = "parallel")]
        {
            let (ctx, profiler, f) = (self.profiler.ctx(), &self.profiler, &f);
            rayon::scope(|s| {
                for sh in self.shards.iter_mut() {
                    s.spawn(move || {
                        let _prof = profiler.scope_in(ctx, scope);
                        f(sh);
                    });
                }
            });
        }
        #[cfg(not(feature = "parallel"))]
        for sh in self.shards.iter_mut() {
            let _prof = self.profiler.scope(scope);
            f(sh);
        }
    }

    /// The coordinator round: for each shared resource in ascending
    /// index order, sum the shards' partial usages in shard order, apply
    /// one μ step, and broadcast price + congestion bit to every shard
    /// touching the resource. Returns the worst shared-resource
    /// violation.
    fn coordinator_round(&mut self) -> f64 {
        self.coordinator.reset_step_tracking();
        if self.coordinated.is_empty() {
            return f64::NEG_INFINITY;
        }
        let _prof = self.profiler.scope("coordinator");
        let mut worst = f64::NEG_INFINITY;
        for &r in &self.coordinated {
            let mut total = 0.0;
            for sh in &self.shards {
                total += sh.scratch.usage()[r];
            }
            let g = self.availability[r] - total;
            self.coordinator.apply_resource_step(r, g);
            worst = worst.max(total - self.availability[r]);
            let mu = self.coordinator.mu(r);
            for sh in self.shards.iter_mut().filter(|sh| sh.touches[r]) {
                sh.prices.set_mu(r, mu);
                sh.scratch.congested_mut()[r] = g < 0.0;
            }
        }
        worst
    }

    /// The deterministic tail of a round: shard-order reduction of the
    /// diagnostics, the trace record, convergence bookkeeping, telemetry
    /// and spans.
    fn finish_round(&mut self, coord_violation: f64) -> IterationReport {
        let _prof = self.profiler.scope("trace");
        let utility: f64 = self.shards.iter().map(|sh| sh.utility).sum();
        let max_resource_violation =
            self.shards.iter().map(|sh| sh.res_violation).fold(coord_violation, f64::max);
        let max_path_violation =
            self.shards.iter().map(|sh| sh.path_violation).fold(f64::NEG_INFINITY, f64::max);
        let report = IterationReport {
            iteration: self.iteration,
            utility,
            max_resource_violation,
            max_path_violation,
        };
        if self.record_trace {
            let sh = &self.shards[0];
            self.trace.push(TraceRecord {
                iteration: self.iteration,
                utility,
                resource_usage: sh.scratch.usage().to_vec(),
                critical_path_ratio: sh.plan.critical_path_ratios(sh.scratch.path_lat()),
            });
        }
        self.last_violations = Some((max_resource_violation, max_path_violation));
        let delta = (utility - self.last_utility).abs();
        if delta <= self.config.convergence_tol * utility.abs().max(1.0) {
            self.below_tol += 1;
        } else {
            self.below_tol = 0;
        }
        self.last_utility = utility;
        self.iteration += 1;

        let doublings_total = self.gamma_doublings();
        let price_step = self.max_rel_price_step();
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.iterations.inc();
            tel.gamma_doublings.add(doublings_total.saturating_sub(tel.doublings_seen));
            tel.doublings_seen = doublings_total;
            tel.utility.set(utility);
            tel.resource_violation.set(max_resource_violation);
            tel.path_violation.set(max_path_violation);
            tel.price_step.set(price_step);
        }
        if let Some(spans) = &self.spans {
            let i = report.iteration as f64;
            spans.span_with(
                "iteration",
                "optimizer",
                i,
                i + 1.0,
                TraceCtx::NONE,
                vec![("utility", utility.into()), ("price_step", price_step.into())],
            );
        }
        report
    }

    /// Whether the convergence criterion currently holds: utility stable
    /// for `convergence_window` iterations, the last price update's
    /// largest relative movement below `price_tol`, and the allocation
    /// feasible.
    pub fn has_converged(&self) -> bool {
        self.below_tol >= self.config.convergence_window
            && self.max_rel_price_step() <= self.config.price_tol
            && self.feasible()
    }

    /// Feasibility of the current point: the last step's violations
    /// while they are still valid, else a walk over the latencies.
    fn feasible(&self) -> bool {
        let tol = self.config.feasibility_tol;
        match self.last_violations {
            Some((res, path)) => res <= tol && path <= tol,
            None => self.problem.is_feasible(&self.nested_lats(), tol),
        }
    }

    /// Runs exactly `iters` iterations (batch mode).
    pub fn run(&mut self, iters: usize) -> Vec<IterationReport> {
        (0..iters).map(|_| self.step()).collect()
    }

    /// Runs until convergence or until `max_iters` iterations elapse.
    pub fn run_to_convergence(&mut self, max_iters: usize) -> RunOutcome {
        for executed in 1..=max_iters {
            self.step();
            if self.has_converged() {
                return RunOutcome {
                    converged: true,
                    iterations: executed,
                    final_utility: self.last_utility,
                    feasible: true,
                };
            }
        }
        RunOutcome {
            converged: false,
            iterations: max_iters,
            final_utility: self.last_utility,
            feasible: self.problem.is_feasible(&self.nested_lats(), self.config.feasibility_tol),
        }
    }

    /// KKT optimality diagnostics at the current point (cold path).
    pub fn kkt(&self) -> KktReport {
        let _prof = self.profiler.scope("kkt");
        let state = self.export_state();
        kkt_report(&self.problem, &state.lats, &state.prices, &self.config.allocation, 1e-9)
    }

    /// A point-in-time [`HealthSnapshot`]: convergence + feasibility
    /// state, the KKT residuals of [`kkt`](Self::kkt), the
    /// [`worst_violation_factor`](Self::worst_violation_factor), and
    /// per-resource price + usage.
    ///
    /// The shed/membership/failover counts are zero here — the engine has
    /// no such events; deployment layers (`lla-dist`, `lla-bench`)
    /// overwrite those fields from their own counters.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let kkt = self.kkt();
        let lats = self.nested_lats();
        let resources = self
            .problem
            .resources()
            .iter()
            .map(|res| ResourceHealth {
                name: res.name().to_owned(),
                price: self.authority(res.id().index()).mu(res.id().index()),
                usage: self.problem.resource_usage(res.id(), &lats),
                availability: res.availability(),
            })
            .collect();
        HealthSnapshot {
            converged: self.has_converged(),
            feasible: self.feasible(),
            iteration: self.iteration as u64,
            utility: self.problem.total_utility(&lats),
            max_stationarity_residual: kkt.max_stationarity_residual,
            max_resource_violation: kkt.max_resource_violation,
            max_path_violation: kkt.max_path_violation,
            max_complementary_slackness: kkt.max_complementary_slackness,
            worst_violation_factor: self.problem.worst_violation_factor(&lats),
            resources,
            shed_count: 0,
            membership_changes: 0,
            failovers: 0,
        }
    }

    /// The worst constraint-violation factor at the current point (see
    /// [`Problem::worst_violation_factor`]).
    pub fn worst_violation_factor(&self) -> f64 {
        self.problem.worst_violation_factor(&self.nested_lats())
    }

    /// One [`DiagSample`] for the convergence-diagnostics engine
    /// (`lla_telemetry::DiagnosticsEngine`). `frozen_agents` is zero
    /// here; the distributed facade overwrites it from its own counters.
    pub fn diag_sample(&self) -> DiagSample {
        DiagSample {
            iteration: self.iteration as u64,
            utility: self.utility(),
            worst_violation_factor: self.worst_violation_factor(),
            gamma_doublings: self.gamma_doublings(),
            max_rel_price_step: self.max_rel_price_step(),
            frozen_agents: 0,
            prices: (0..self.owner.len()).map(|r| self.authority(r).mu(r)).collect(),
        }
    }

    /// Re-arms the convergence detector (call after any external change
    /// to the problem).
    pub fn rearm(&mut self) {
        self.below_tol = 0;
        self.last_violations = None;
    }

    /// Discards the dual state and restarts every price (and step size)
    /// from the initial point, keeping the current allocation.
    ///
    /// Warm duals are normally the point of online membership — but duals
    /// that integrated a *sustained-infeasible* gradient are poisoned:
    /// they grow without bound while the overload lasts, and once load is
    /// shed the re-bound constraints leave them decaying at a near-zero
    /// rate (`γ·slack` with `slack → 0`), parking the allocation far from
    /// the optimum indefinitely. Overload shedding therefore resets the
    /// prices (see [`governed_step`](crate::overload::governed_step));
    /// re-convergence is then bounded by the cold-start rate.
    pub fn reset_prices(&mut self) {
        let policy = self.config.step_policy;
        for sh in &mut self.shards {
            sh.prices = PriceState::for_shard(&self.problem, &sh.tasks, policy);
        }
        self.coordinator = PriceState::for_shard(&self.problem, &[], policy);
    }

    /// Updates a subtask's additive latency error correction `ê` (§6.3).
    /// The owning shard re-lowers once at the next step, however many
    /// corrections arrive before it.
    pub fn set_correction(&mut self, s: SubtaskId, correction: f64) {
        self.problem.set_correction(s, correction);
        self.mark_stale(s.task());
    }

    /// Updates a subtask's multiplicative demand correction (the
    /// demand-scaling alternative to §6.3's additive model); re-lowers
    /// like [`set_correction`](Self::set_correction).
    pub fn set_demand_scale(&mut self, s: SubtaskId, scale: f64) {
        self.problem.set_demand_scale(s, scale);
        self.mark_stale(s.task());
    }

    fn mark_stale(&mut self, task: TaskId) {
        self.shards[self.task_shard[task.index()]].stale = true;
        self.rearm();
    }

    /// Admits a task mid-run into `shard` (or the least-loaded shard when
    /// `None`; ties break to the lowest index) with warm-started duals:
    /// incumbents keep their prices and latencies, the newcomer starts
    /// from the problem's initial allocation and zero duals. Only the
    /// receiving shard re-lowers — O(shard), not O(problem); resources
    /// newly shared by the join move to the coordinator with their full
    /// adaptive dual state.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] for an out-of-range shard index,
    /// or any error from [`Problem::add_task`]; the driver is unchanged
    /// on error.
    pub fn add_task(
        &mut self,
        builder: &TaskBuilder,
        shard: Option<usize>,
    ) -> Result<TaskId, ModelError> {
        let k = match shard {
            Some(k) if k < self.shards.len() => k,
            Some(k) => {
                return Err(ModelError::InvalidParameter { what: "shard index", value: k as f64 })
            }
            None => (0..self.shards.len())
                .min_by_key(|&k| (self.shards[k].tasks.len(), k))
                .expect("at least one shard"),
        };
        let report = self.problem.add_task(builder)?;
        let id = report.added_task.expect("add_task reports the new id");
        self.task_shard.push(k);
        let task = &self.problem.tasks()[id.index()];
        let sh = &mut self.shards[k];
        sh.tasks.push(id.index());
        sh.prices.push_lambda_row(task.graph().paths().len());
        sh.lats.extend(self.problem.initial_task_allocation(id));
        for sub in task.subtasks() {
            sh.touches[sub.resource().index()] = true;
        }
        for r in resources_of(task) {
            self.reclassify(r);
        }
        self.relower_shard(k);
        self.finish_membership_change();
        Ok(id)
    }

    /// Removes a task mid-run; survivors keep warm duals and latencies
    /// under their re-densified ids. Every shard's task list is remapped
    /// (index arithmetic only); **only the owning shard re-lowers**.
    /// Resources left exclusive (or unused) by the departure are
    /// reclassified with dual-state transfer.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::remove_task`]; the driver is unchanged
    /// on error.
    pub fn remove_task(&mut self, id: TaskId) -> Result<MembershipReport, ModelError> {
        let tasks = self.problem.tasks();
        let Some(task) = tasks.get(id.index()) else {
            return Err(ModelError::UnknownTask { task: id, len: tasks.len() });
        };
        let touched = resources_of(task);
        let k = self.task_shard[id.index()];
        let sh = &mut self.shards[k];
        let local = sh.tasks.iter().position(|&t| t == id.index()).expect("shard tracks its task");
        let start: usize = sh.tasks[..local].iter().map(|&t| tasks[t].len()).sum();
        let range = start..start + task.len();

        let report = self.problem.remove_task(id)?;
        sh.lats.drain(range);
        sh.prices.remove_lambda_row(local);
        sh.tasks.remove(local);
        self.task_shard.remove(id.index());
        for sh in &mut self.shards {
            for t in &mut sh.tasks {
                *t = report.task_map[*t].expect("surviving tasks keep an index");
            }
        }
        let sh = &mut self.shards[k];
        sh.touches.fill(false);
        for &t in &sh.tasks {
            for sub in self.problem.tasks()[t].subtasks() {
                sh.touches[sub.resource().index()] = true;
            }
        }
        for r in touched.into_iter().filter_map(|r| report.resource_map[r]) {
            self.reclassify(r);
        }
        self.relower_shard(k);
        self.finish_membership_change();
        Ok(report)
    }

    /// Updates a resource's availability `B_r` mid-run. Clamping boxes
    /// are lowered from `B_r`, so every shard touching (or owning) the
    /// resource re-lowers; the others keep their plans.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] or
    /// [`ModelError::InvalidParameter`] (non-finite or out-of-`[0, 1]`
    /// availability); the driver is unchanged on error.
    pub fn set_resource_availability(
        &mut self,
        id: ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        self.problem.set_resource_availability(id, availability)?;
        let r = id.index();
        self.availability[r] = self.problem.resources()[r].availability();
        for k in 0..self.shards.len() {
            if self.shards[k].touches[r] || self.shards[k].owned[r] {
                self.relower_shard(k);
            }
        }
        self.rearm();
        Ok(())
    }

    /// Adds a resource mid-run (it starts unpriced and empty). Returns the
    /// new resource's id. Every shard keeps its tasks, latencies and warm
    /// duals; the shards are rebuilt around the new resource set (a cold
    /// path: each re-lowers at the next step).
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::add_resource`].
    pub fn add_resource(&mut self, resource: Resource) -> Result<ResourceId, ModelError> {
        let state = self.export_state();
        let report = self.problem.add_resource(resource)?;
        self.rebuild(state, Some(&report));
        Ok(report.added_resource.expect("add_resource reports the new id"))
    }

    /// Retires a (drained) resource mid-run; surviving resources keep warm
    /// duals under their re-densified ids. Returns the id-remap report.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::retire_resource`].
    pub fn retire_resource(&mut self, id: ResourceId) -> Result<MembershipReport, ModelError> {
        let state = self.export_state();
        let report = self.problem.retire_resource(id)?;
        self.rebuild(state, Some(&report));
        Ok(report)
    }

    /// Moves every subtask on `from` over to `to` (drain before
    /// retirement); share models are rebuilt with the destination lag.
    /// Returns how many subtasks moved.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::reassign_resource`].
    pub fn reassign_resource(
        &mut self,
        from: ResourceId,
        to: ResourceId,
    ) -> Result<usize, ModelError> {
        let state = self.export_state();
        let moved = self.problem.reassign_resource(from, to)?;
        if moved > 0 {
            self.rebuild(state, None);
        }
        Ok(moved)
    }

    /// Re-installs the shards over the mutated problem, keeping each
    /// shard's tasks, and restores `state` with its duals remapped by
    /// `report`.
    fn rebuild(&mut self, mut state: OptimizerState, report: Option<&MembershipReport>) {
        if let Some(report) = report {
            state.prices = state.prices.remap(&self.problem, report);
        }
        let groups = self.shards.iter().map(|sh| sh.tasks.clone()).collect();
        self.install_shards(groups);
        self.try_import_state(state, None).expect("a remapped state fits its own problem");
        if let Some(tel) = &self.telemetry {
            tel.coordinated_resources.set(self.coordinated.len() as f64);
        }
    }

    /// Exports the full mutable state — shard λ rows and owner-side μ
    /// duals gathered into one global [`PriceState`], latencies in global
    /// task order, the iteration counter — for failover or migration: an
    /// engine over an equal problem, with any shard count, restored from
    /// this state continues the run where this one left off.
    pub fn export_state(&self) -> OptimizerState {
        let mut prices = PriceState::new(&self.problem, self.config.step_policy);
        for r in 0..self.owner.len() {
            prices.set_resource_dual_raw(r, self.authority(r).resource_dual_raw(r));
        }
        for sh in &self.shards {
            for (local, &t) in sh.tasks.iter().enumerate() {
                for p in 0..sh.prices.lambdas(local).len() {
                    prices.set_path_dual_raw(t, p, sh.prices.path_dual_raw(local, p));
                }
            }
        }
        let rejected = self.shards.iter().map(|sh| sh.prices.rejected_samples()).sum::<u64>()
            + self.coordinator.rejected_samples();
        prices.set_bookkeeping(self.max_rel_price_step(), rejected, self.gamma_doublings());
        OptimizerState::from_parts(prices, self.nested_lats(), self.iteration)
    }

    /// Restores state captured with [`export_state`](Self::export_state).
    /// The trace and convergence window restart empty (they are
    /// diagnostics, not algorithm state).
    ///
    /// # Panics
    ///
    /// Panics if the state does not fit the problem (see
    /// [`try_import_state`](Self::try_import_state)).
    pub fn import_state(&mut self, state: OptimizerState) {
        if let Err(e) = self.try_import_state(state, None) {
            panic!("state shape mismatch: {e}");
        }
    }

    /// Fallible counterpart of [`import_state`](Self::import_state): the
    /// state must fit the problem (task count, subtasks per task, paths
    /// per task, resource count) and — when `expected_epoch` is given and
    /// the state is tagged — carry that topology epoch. A stale or
    /// foreign checkpoint carries duals indexed for a different layout;
    /// callers get a typed error and the driver is left untouched.
    ///
    /// # Errors
    ///
    /// The [`StateImportError`] of the first mismatch found.
    pub fn try_import_state(
        &mut self,
        state: OptimizerState,
        expected_epoch: Option<u64>,
    ) -> Result<(), StateImportError> {
        state.validate(&self.problem, expected_epoch)?;
        let OptimizerState { prices, lats, iteration, .. } = state;
        for r in 0..self.owner.len() {
            let raw = prices.resource_dual_raw(r);
            match self.owner[r] {
                ResourceOwner::Shard(k) => self.shards[k].prices.set_resource_dual_raw(r, raw),
                ResourceOwner::Coordinator => self.coordinator.set_resource_dual_raw(r, raw),
            }
            for sh in self.shards.iter_mut().filter(|sh| sh.touches[r]) {
                sh.prices.set_mu(r, raw.0);
            }
        }
        for (k, sh) in self.shards.iter_mut().enumerate() {
            let mut end = 0;
            for (local, &t) in sh.tasks.iter().enumerate() {
                sh.lats[end..end + lats[t].len()].copy_from_slice(&lats[t]);
                end += lats[t].len();
                for p in 0..prices.lambdas(t).len() {
                    sh.prices.set_path_dual_raw(local, p, prices.path_dual_raw(t, p));
                }
            }
            // Shard 0 carries the imported diagnostic counters, so a
            // one-shard engine's prices equal the imported ones.
            let (step, rejected, doublings) = match k {
                0 => (
                    prices.last_max_rel_step(),
                    prices.rejected_samples(),
                    prices.gamma_doublings(),
                ),
                _ => (0.0, 0, 0),
            };
            sh.prices.set_bookkeeping(step, rejected, doublings);
        }
        self.coordinator.set_bookkeeping(0.0, 0, 0);
        self.iteration = iteration;
        self.finish_membership_change();
        Ok(())
    }

    /// The price state holding resource `r`'s authoritative dual.
    fn authority(&self, r: usize) -> &PriceState {
        match self.owner[r] {
            ResourceOwner::Shard(k) => &self.shards[k].prices,
            ResourceOwner::Coordinator => &self.coordinator,
        }
    }

    /// Re-lowers every stale shard.
    fn lower_stale(&mut self) {
        for k in 0..self.shards.len() {
            if self.shards[k].stale {
                self.relower_shard(k);
            }
        }
    }

    /// Lowers shard `k`'s plan against the live problem, reusing its
    /// scratch pool, and counts the lowering in telemetry.
    fn relower_shard(&mut self, k: usize) {
        let _prof = self.profiler.scope("plan_lower");
        let sh = &mut self.shards[k];
        sh.plan = Plan::lower_subset(&self.problem, &self.config.allocation, &sh.tasks);
        sh.scratch.resize_for(&sh.plan);
        sh.stale = false;
        if let Some(tel) = &self.telemetry {
            tel.plan_lowerings.inc();
        }
    }

    /// The ownership rule: the one shard touching `r`, the coordinator
    /// when several do, shard 0 when none does.
    fn touch_owner(&self, r: usize) -> ResourceOwner {
        let mut touchers = (0..self.shards.len()).filter(|&k| self.shards[k].touches[r]);
        match (touchers.next(), touchers.next()) {
            (None, _) => ResourceOwner::Shard(0),
            (Some(k), None) => ResourceOwner::Shard(k),
            (Some(_), Some(_)) => ResourceOwner::Coordinator,
        }
    }

    /// Re-applies the ownership rule to resource `r` after its touch sets
    /// changed, transferring the full raw dual state `(μ, γ, last_grad)`
    /// on an ownership change and refreshing every toucher's μ mirror.
    fn reclassify(&mut self, r: usize) {
        let new_owner = self.touch_owner(r);
        if new_owner != self.owner[r] {
            let raw = self.authority(r).resource_dual_raw(r);
            match new_owner {
                ResourceOwner::Shard(k) => {
                    let sh = &mut self.shards[k];
                    sh.prices.set_resource_dual_raw(r, raw);
                    // A shard that does not touch `r` did not re-lower on
                    // its availability changes; its plan's `B_r` may be old.
                    sh.stale |= !sh.touches[r];
                }
                ResourceOwner::Coordinator => self.coordinator.set_resource_dual_raw(r, raw),
            }
            self.owner[r] = new_owner;
            for (k, sh) in self.shards.iter_mut().enumerate() {
                sh.owned[r] = new_owner == ResourceOwner::Shard(k);
            }
            self.coordinated = (0..self.owner.len())
                .filter(|&x| self.owner[x] == ResourceOwner::Coordinator)
                .collect();
            if let Some(tel) = &self.telemetry {
                tel.coordinated_resources.set(self.coordinated.len() as f64);
            }
        }
        let mu = self.authority(r).mu(r);
        for sh in self.shards.iter_mut().filter(|sh| sh.touches[r]) {
            sh.prices.set_mu(r, mu);
        }
    }

    fn finish_membership_change(&mut self) {
        self.last_utility = self.utility();
        self.rearm();
    }

    /// The latencies as a nested matrix in global task order.
    fn nested_lats(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.problem.tasks().len()];
        for sh in &self.shards {
            for (t, row) in rows(self.problem.tasks(), sh) {
                out[t] = row.to_vec();
            }
        }
        out
    }
}

/// `(global task index, latency row)` for each of `shard`'s tasks, in
/// plan order.
fn rows<'a>(tasks: &'a [Task], shard: &'a Shard) -> impl Iterator<Item = (usize, &'a [f64])> {
    let mut end = 0;
    shard.tasks.iter().map(move |&t| {
        end += tasks[t].len();
        (t, &shard.lats[end - tasks[t].len()..end])
    })
}

/// The distinct resources `task`'s subtasks run on, ascending.
fn resources_of(task: &Task) -> Vec<usize> {
    let mut rs: Vec<usize> = task.subtasks().iter().map(|s| s.resource().index()).collect();
    rs.sort_unstable();
    rs.dedup();
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSettings;
    use crate::optimizer::Optimizer;
    use crate::resource::ResourceKind;
    use crate::utility::UtilityFn;

    /// Four three-stage tasks over four CPUs: tasks {0,1} live on CPUs
    /// {0,1}, tasks {2,3} on CPUs {2,3}, and every task's last stage
    /// crosses the shared link (resource 4). With `fork`, stage `a` feeds
    /// both other stages (two paths per task) instead of a chain (one).
    fn clustered_problem_with(fork: bool) -> Problem {
        let mut resources: Vec<Resource> = (0..4)
            .map(|i| Resource::new(ResourceId::new(i), ResourceKind::Cpu).with_lag(1.0))
            .collect();
        resources.push(Resource::new(ResourceId::new(4), ResourceKind::NetworkLink).with_lag(0.5));
        let mut tasks = Vec::new();
        for i in 0..4usize {
            let cpu = |n: usize| ResourceId::new(2 * (i / 2) + n);
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", cpu(0), 2.0);
            let c = b.subtask("b", cpu(1), 3.0);
            let l = b.subtask("l", ResourceId::new(4), 1.0);
            b.edge(a, c).unwrap();
            b.edge(if fork { a } else { c }, l).unwrap();
            let ct = 50.0 + 10.0 * i as f64;
            b.critical_time(ct).utility(UtilityFn::linear_for_deadline(2.0, ct));
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn clustered_problem() -> Problem {
        clustered_problem_with(false)
    }

    fn two_shards() -> ShardSpec {
        ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]])
    }

    fn config() -> OptimizerConfig {
        OptimizerConfig {
            allocation: AllocationSettings { throughput_floor: false, ..Default::default() },
            ..OptimizerConfig::default()
        }
    }

    fn lowerings(registry: &MetricsRegistry) -> u64 {
        registry.counter("lla_opt_plan_lowerings_total", "").get()
    }

    #[test]
    fn spec_validation_rejects_non_partitions() {
        let p = clustered_problem();
        let bad = |groups: Vec<Vec<usize>>| {
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::from_groups(groups)).unwrap_err()
        };
        assert!(matches!(bad(vec![]), ModelError::InvalidParameter { what: "shard count", .. }));
        assert!(matches!(
            bad(vec![vec![0, 1, 2, 3], vec![]]),
            ModelError::InvalidParameter { what: "empty shard group", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1], vec![2, 9]]),
            ModelError::InvalidParameter { what: "shard task index", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1, 2], vec![2, 3]]),
            ModelError::InvalidParameter { what: "task assigned to two shards", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1], vec![3]]),
            ModelError::InvalidParameter { what: "task not covered by any shard", .. }
        ));
    }

    #[test]
    fn ownership_classifies_exclusive_shared_and_unused() {
        let mut p = clustered_problem();
        p.add_resource(Resource::new(ResourceId::new(5), ResourceKind::Cpu).with_lag(1.0)).unwrap();
        let opt = ShardedOptimizer::new(p, config(), two_shards()).unwrap();
        assert_eq!(opt.resource_owner(0), ResourceOwner::Shard(0));
        assert_eq!(opt.resource_owner(1), ResourceOwner::Shard(0));
        assert_eq!(opt.resource_owner(2), ResourceOwner::Shard(1));
        assert_eq!(opt.resource_owner(3), ResourceOwner::Shard(1));
        assert_eq!(opt.resource_owner(4), ResourceOwner::Coordinator, "link is shared");
        assert_eq!(opt.resource_owner(5), ResourceOwner::Shard(0), "unused goes to shard 0");
        assert_eq!(opt.num_shared_resources(), 1);
    }

    #[test]
    fn single_shard_is_bit_identical_to_monolithic() {
        let p = clustered_problem();
        let mut mono = Optimizer::new(p.clone(), config());
        let mut sharded =
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::contiguous(4, 1)).unwrap();
        for i in 0..400 {
            let a = mono.step();
            let b = sharded.step();
            assert_eq!(a.utility, b.utility, "utility diverged at step {i}");
            assert_eq!(a.max_resource_violation, b.max_resource_violation, "step {i}");
            assert_eq!(a.max_path_violation, b.max_path_violation, "step {i}");
        }
        assert_eq!(mono.allocation(), sharded.allocation());
        let state = sharded.export_state();
        assert_eq!(state.prices().mus(), mono.prices().mus());
        for t in 0..4 {
            assert_eq!(state.prices().lambdas(t), mono.prices().lambdas(t));
        }
        assert_eq!(mono.has_converged(), sharded.has_converged());
    }

    #[test]
    fn two_shards_track_monolithic_within_tolerance() {
        let p = clustered_problem();
        let mut mono = Optimizer::new(p.clone(), config());
        let mut sharded = ShardedOptimizer::new(p, config(), two_shards()).unwrap();
        mono.run(600);
        sharded.run(600);
        let (ma, sa) = (mono.allocation(), sharded.allocation());
        for t in 0..4 {
            for s in 0..3 {
                let (x, y) = (ma.latency(t, s), sa.latency(t, s));
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "task {t} sub {s}: {x} vs {y}");
            }
        }
        let kkt = sharded.kkt();
        assert!(kkt.max_resource_violation <= 1e-6, "{kkt:?}");
        assert!(kkt.max_path_violation <= 1e-6, "{kkt:?}");
    }

    #[test]
    fn sharded_converges_and_is_feasible() {
        let mut sharded =
            ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        let outcome = sharded.run_to_convergence(5_000);
        assert!(outcome.converged, "sharded LLA must converge on a schedulable workload");
        assert!(outcome.feasible);
    }

    #[test]
    fn plans_lower_at_the_first_step() {
        let registry = MetricsRegistry::new();
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.attach_telemetry(&registry);
        assert_eq!(lowerings(&registry), 0, "construction lowers nothing");
        opt.run(10);
        assert_eq!(lowerings(&registry), 2, "one lowering per shard, then none");
    }

    #[test]
    fn add_task_relowers_only_the_receiving_shard() {
        let registry = MetricsRegistry::new();
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let before = lowerings(&registry);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(0), 1.0);
        b.critical_time(60.0).utility(UtilityFn::linear_for_deadline(1.0, 60.0));
        let id = opt.add_task(&b, Some(0)).unwrap();
        assert_eq!(opt.shard_of(id), 0);
        assert_eq!(lowerings(&registry) - before, 1, "exactly one shard re-lowered on a join");
        assert_eq!(opt.shard_tasks(0), &[0, 1, 4]);
        assert_eq!(opt.shard_tasks(1), &[2, 3]);
        opt.run(10);
        assert_eq!(lowerings(&registry) - before, 1, "steady-state rounds never re-lower");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn remove_task_relowers_only_the_owning_shard() {
        let registry = MetricsRegistry::new();
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let before = lowerings(&registry);
        let report = opt.remove_task(TaskId::new(1)).unwrap();
        assert_eq!(report.task_map, vec![Some(0), None, Some(1), Some(2)]);
        assert_eq!(lowerings(&registry) - before, 1, "only the owning shard re-lowers");
        assert_eq!(opt.shard_tasks(0), &[0]);
        assert_eq!(opt.shard_tasks(1), &[1, 2], "other shards remap indices without re-lowering");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn availability_change_relowers_only_touching_shards() {
        let registry = MetricsRegistry::new();
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let before = lowerings(&registry);
        // CPU 0 is touched only by shard 0.
        opt.set_resource_availability(ResourceId::new(0), 0.8).unwrap();
        assert_eq!(lowerings(&registry) - before, 1);
        // The shared link is touched by both shards.
        opt.set_resource_availability(ResourceId::new(4), 0.9).unwrap();
        assert_eq!(lowerings(&registry) - before, 3);
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn corrections_relower_their_shard_once_at_the_next_step() {
        let registry = MetricsRegistry::new();
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let before = lowerings(&registry);
        for t in [2, 3] {
            for s in 0..3 {
                let sid = opt.problem().tasks()[t].subtask_id(s);
                opt.set_correction(sid, 0.1);
                opt.set_demand_scale(sid, 1.1);
            }
        }
        assert_eq!(lowerings(&registry), before, "corrections only mark the shard stale");
        opt.step();
        assert_eq!(lowerings(&registry) - before, 1, "shard 1 re-lowers once");
    }

    #[test]
    fn join_reclassifies_ownership_and_transfers_duals() {
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        opt.run(50);
        let mu_before = opt.export_state().prices().mu(2);
        // A shard-0 task landing on CPU 2 makes it shared: ownership moves
        // Shard(1) → Coordinator with the μ carried over.
        let mut b = TaskBuilder::new("crosser");
        b.subtask("x", ResourceId::new(2), 1.0);
        b.critical_time(70.0).utility(UtilityFn::linear_for_deadline(1.0, 70.0));
        opt.add_task(&b, Some(0)).unwrap();
        assert_eq!(opt.resource_owner(2), ResourceOwner::Coordinator);
        assert_eq!(opt.export_state().prices().mu(2), mu_before, "dual state must transfer");
        // Removing the crosser hands CPU 2 back to shard 1.
        opt.remove_task(TaskId::new(4)).unwrap();
        assert_eq!(opt.resource_owner(2), ResourceOwner::Shard(1));
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn resource_left_unused_moves_to_shard_zero_with_its_current_availability() {
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        // Shard 1 alone uses CPU 3, so this re-lowers only shard 1 and
        // drives μ_3 up.
        opt.set_resource_availability(ResourceId::new(3), 0.05).unwrap();
        opt.run(50);
        // Draining shard 1 leaves CPU 3 unused: shard 0 takes over its
        // price and must step it against the current B_r.
        opt.remove_task(TaskId::new(3)).unwrap();
        opt.remove_task(TaskId::new(2)).unwrap();
        assert_eq!(opt.resource_owner(3), ResourceOwner::Shard(0));
        assert!(opt.export_state().prices().mu(3) > 1.0, "a congested price to decay");
        let mut reference = Optimizer::new(opt.problem().clone(), config());
        reference.import_state(opt.export_state());
        opt.step();
        reference.step();
        assert_eq!(opt.export_state().prices().mu(3), reference.prices().mu(3));
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn resource_membership_keeps_warm_duals() {
        let mut opt = ShardedOptimizer::new(clustered_problem(), config(), two_shards()).unwrap();
        assert!(opt.run_to_convergence(10_000).converged);
        let before = opt.export_state();
        let id = opt
            .add_resource(Resource::new(ResourceId::new(5), ResourceKind::Cpu).with_lag(1.0))
            .unwrap();
        assert_eq!(id, ResourceId::new(5));
        assert_eq!(opt.resource_owner(5), ResourceOwner::Shard(0));
        let after = opt.export_state();
        assert_eq!(&after.prices().mus()[..5], before.prices().mus());
        assert_eq!(after.lats(), before.lats());
        assert_eq!(opt.iterations(), before.iteration());
        // Drain CPU 1 into CPU 0 and retire it; shard 0 keeps both tasks.
        assert_eq!(opt.reassign_resource(ResourceId::new(1), ResourceId::new(0)).unwrap(), 2);
        let report = opt.retire_resource(ResourceId::new(1)).unwrap();
        assert_eq!(report.resource_map[1], None);
        assert_eq!(opt.problem().resources().len(), 5);
        assert_eq!(opt.shard_tasks(0), &[0, 1]);
        assert!(opt.run_to_convergence(20_000).converged);
    }

    #[test]
    fn export_state_imports_into_monolithic_and_continues_exactly() {
        let p = clustered_problem();
        let mut sharded =
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::contiguous(4, 1)).unwrap();
        sharded.run(120);
        let state = sharded.export_state();
        let mut mono = Optimizer::new(p, config());
        mono.try_import_state(state, None).unwrap();
        assert_eq!(mono.iterations(), 120);
        for i in 0..150 {
            let a = sharded.step();
            let b = mono.step();
            assert_eq!(a.utility, b.utility, "handoff diverged at step {i}");
        }
    }

    #[test]
    fn import_state_roundtrips_through_sharded() {
        let p = clustered_problem();
        let mut a = ShardedOptimizer::new(p.clone(), config(), two_shards()).unwrap();
        a.run(80);
        let state = a.export_state();
        let mut b = ShardedOptimizer::new(p, config(), two_shards()).unwrap();
        b.try_import_state(state, None).unwrap();
        assert_eq!(b.iterations(), 80);
        for i in 0..100 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.utility, rb.utility, "restore diverged at step {i}");
        }
    }

    /// Every way a checkpoint can fail to fit is a typed error on both
    /// the one-shard and the sharded type, and leaves the driver as it
    /// was: the next steps match an untouched twin's bit for bit.
    #[test]
    fn import_rejects_foreign_checkpoints_on_both_types() {
        let p = clustered_problem();
        let mut wider = p.clone();
        wider.add_resource(Resource::new(ResourceId::new(5), ResourceKind::Cpu)).unwrap();
        let forked = clustered_problem_with(true);
        let fresh = |p: &Problem| Optimizer::new(p.clone(), config()).export_state();
        let mut short = fresh(&p);
        short.lats.pop();
        let mut ragged = fresh(&p);
        ragged.lats[1].pop();
        let cases = [
            (fresh(&p).with_epoch(3), StateImportError::EpochMismatch { expected: 7, found: 3 }),
            (short, StateImportError::TaskCountMismatch { expected: 4, found: 3 }),
            (ragged, StateImportError::RowShapeMismatch { task: 1, expected: 3, found: 2 }),
            (fresh(&wider), StateImportError::ResourceCountMismatch { expected: 5, found: 6 }),
            (
                fresh(&forked),
                StateImportError::PathCountMismatch { task: 0, expected: 1, found: 2 },
            ),
        ];
        let mut mono = Optimizer::new(p.clone(), config());
        let mut sharded = ShardedOptimizer::new(p.clone(), config(), two_shards()).unwrap();
        let (mut mono_twin, mut sharded_twin) = (mono.clone(), sharded.clone());
        for engine in [&mut *mono, &mut sharded] {
            engine.run(30);
            for (state, err) in &cases {
                assert_eq!(engine.try_import_state(state.clone(), Some(7)), Err(*err));
            }
        }
        mono_twin.run(30);
        sharded_twin.run(30);
        for _ in 0..30 {
            assert_eq!(mono.step(), mono_twin.step());
            assert_eq!(sharded.step(), sharded_twin.step());
        }
        assert_eq!(mono.prices(), mono_twin.prices());
        assert_eq!(sharded.export_state(), sharded_twin.export_state());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_shard_fanout_is_bit_identical_to_sequential_merge() {
        // With the feature on, multi-shard rounds fan out one thread per
        // shard; determinism must not depend on the worker count because
        // every cross-shard reduction happens in fixed shard order.
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 2], vec![1, 3]]);
        let mut a = ShardedOptimizer::new(p.clone(), config(), spec.clone()).unwrap();
        let mut b = ShardedOptimizer::new(p, config(), spec).unwrap();
        for _ in 0..200 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.utility, rb.utility);
        }
        assert_eq!(a.allocation(), b.allocation());
    }
}
