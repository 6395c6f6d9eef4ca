//! The compiled iteration plan must be indistinguishable from the naive
//! nested-`Vec` code paths it replaces: identical allocations, identical
//! price trajectories, and diagnostics (utility, usage, Lagrangian, KKT)
//! matching to 1e-12 on randomly generated problems — and the opt-in
//! parallel allocation kernel must be *bit-identical* to the sequential
//! one across long seeded runs, including a membership epoch mid-run.
//! The optimizer itself is pinned bitwise against the naive nested round
//! through online changes, and two traffic traps of the one-engine design
//! are pinned: a sharded run keeps no trace, and a window of closed-loop
//! corrections re-lowers the plan once.

use lla_core::{
    allocate_latencies, kkt_report, lagrangian_value, AllocationSettings, Optimizer,
    OptimizerConfig, Plan, PriceState, Problem, ResourceId, ShardedOptimizer, StepSizePolicy,
    TaskBuilder, TaskId, UtilityFn,
};
use lla_sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla_telemetry::MetricsRegistry;
use lla_workloads::{
    clustered_workload, large_scale_workload, prototype_workload, scaled_workload, PrototypeParams,
    RandomWorkloadConfig, TaskShape,
};

fn close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0), "{what}: {a} vs {b}");
}

/// Runs `rounds` LLA rounds twice — once through the naive nested-`Vec`
/// path, once through the compiled plan — and checks every intermediate
/// quantity against the other side.
fn check_equivalence(problem: &Problem, rounds: usize) {
    let settings = AllocationSettings::default();
    let policy = StepSizePolicy::sign_adaptive(1.0);

    let mut naive_prices = PriceState::new(problem, policy);
    let mut naive_lats = problem.initial_allocation();

    let plan = Plan::lower(problem, &settings);
    let mut scratch = plan.scratch();
    let mut plan_prices = PriceState::new(problem, policy);
    let mut plan_lats = problem.initial_allocation();

    for round in 0..rounds {
        naive_lats = allocate_latencies(problem, &naive_prices, &settings, &naive_lats);
        naive_prices.update(problem, &naive_lats);

        plan.flatten_into(&plan_lats, scratch.prev_mut());
        plan.allocate_into(&plan_prices, &mut scratch);
        plan.unflatten_into(scratch.lats(), &mut plan_lats);
        plan.price_update(&mut plan_prices, &mut scratch);

        assert_eq!(naive_lats, plan_lats, "allocation diverged at round {round}");
        assert_eq!(naive_prices, plan_prices, "prices diverged at round {round}");

        close(
            problem.total_utility(&naive_lats),
            plan.total_utility(scratch.lats()),
            "total utility",
        );
        for (r, res) in problem.resources().iter().enumerate() {
            close(
                problem.resource_usage(res.id(), &naive_lats),
                scratch.usage()[r],
                "resource usage",
            );
        }
        close(
            problem.max_resource_violation(&naive_lats),
            plan.max_resource_violation(scratch.usage()),
            "max resource violation",
        );
        close(
            problem.max_path_violation(&naive_lats),
            plan.max_path_violation(scratch.path_lat()),
            "max path violation",
        );

        if round % 5 == 0 {
            close(
                lagrangian_value(problem, &naive_lats, &naive_prices),
                plan.lagrangian_value(scratch.lats(), &plan_prices),
                "Lagrangian",
            );
            let naive_kkt = kkt_report(problem, &naive_lats, &naive_prices, &settings, 1e-9);
            let flat: Vec<f64> = scratch.lats().to_vec();
            let plan_kkt = plan.kkt_report(&flat, &plan_prices, 1e-9, &mut scratch);
            close(
                naive_kkt.max_stationarity_residual,
                plan_kkt.max_stationarity_residual,
                "KKT stationarity",
            );
            close(
                naive_kkt.max_resource_violation,
                plan_kkt.max_resource_violation,
                "KKT resource violation",
            );
            close(naive_kkt.max_path_violation, plan_kkt.max_path_violation, "KKT path violation");
            close(
                naive_kkt.max_complementary_slackness,
                plan_kkt.max_complementary_slackness,
                "KKT complementary slackness",
            );
        }
    }
}

#[test]
fn plan_matches_naive_on_random_problems() {
    for seed in 0..6 {
        let cfg = RandomWorkloadConfig {
            num_tasks: 6,
            num_resources: 10,
            shape: TaskShape::Mixed,
            seed,
            ..Default::default()
        };
        let problem = cfg.generate().expect("valid config");
        check_equivalence(&problem, 25);
    }
}

#[test]
fn plan_matches_naive_on_every_shape_family() {
    for (i, shape) in
        [TaskShape::Chain, TaskShape::FanOut, TaskShape::Diamond, TaskShape::RandomDag]
            .into_iter()
            .enumerate()
    {
        let cfg = RandomWorkloadConfig {
            num_tasks: 5,
            shape,
            target_load: 0.95,
            seed: 100 + i as u64,
            ..Default::default()
        };
        let problem = cfg.generate().expect("valid config");
        check_equivalence(&problem, 20);
    }
}

/// Drives the sequential and threaded allocation kernels side by side for
/// 200 rounds and demands *bitwise* identical latencies and prices every
/// round. A membership epoch (admit one task, retire another) lands at
/// round 100; both sides re-lower the plan and must stay identical after
/// it. `RAYON_NUM_THREADS` forces real multi-worker fan-out even on
/// single-core CI runners.
#[test]
fn parallel_allocation_is_bit_identical_to_sequential() {
    std::env::set_var("RAYON_NUM_THREADS", "5");
    let settings = AllocationSettings::default();
    let policy = StepSizePolicy::sign_adaptive(1.0);

    // Large enough that `allocate_into` takes the parallel path when the
    // feature is on (the workspace test suite enables it).
    let mut problem = large_scale_workload(600, 11).expect("valid config");
    assert!(problem.num_subtasks() >= 2048, "workload must clear the parallel threshold");

    let mut plan = Plan::lower(&problem, &settings);
    let mut seq = plan.scratch();
    let mut par = plan.scratch();
    let mut seq_prices = PriceState::new(&problem, policy);
    let mut par_prices = PriceState::new(&problem, policy);
    let init = problem.initial_allocation();
    plan.flatten_into(&init, seq.prev_mut());
    plan.flatten_into(&init, par.prev_mut());

    for round in 0..200 {
        if round == 100 {
            // Membership epoch: admit a newcomer and retire task 3, then
            // re-lower the plan — exactly what the optimizer does when its
            // epoch check fires.
            let mut b = TaskBuilder::new("newcomer");
            let a = b.subtask("n0", ResourceId::new(0), 2.0);
            let c = b.subtask("n1", ResourceId::new(1), 3.0);
            b.edge(a, c).expect("valid edge");
            b.critical_time(400.0);
            let add = problem.add_task(&b).expect("admission");
            seq_prices = seq_prices.remap(&problem, &add);
            par_prices = par_prices.remap(&problem, &add);
            let remove = problem.remove_task(TaskId::new(3)).expect("retirement");
            seq_prices = seq_prices.remap(&problem, &remove);
            par_prices = par_prices.remap(&problem, &remove);

            assert_ne!(plan.epoch(), problem.epoch(), "mutation must stale the plan");
            plan = Plan::lower(&problem, &settings);
            seq = plan.scratch();
            par = plan.scratch();
            let init = problem.initial_allocation();
            plan.flatten_into(&init, seq.prev_mut());
            plan.flatten_into(&init, par.prev_mut());
        }

        plan.allocate_seq(&seq_prices, &mut seq);
        plan.price_update(&mut seq_prices, &mut seq);

        plan.allocate_into(&par_prices, &mut par);
        plan.price_update(&mut par_prices, &mut par);

        assert_eq!(seq.lats(), par.lats(), "latencies diverged at round {round}");
        assert_eq!(seq_prices, par_prices, "prices diverged at round {round}");

        // Next round allocates from this round's output.
        let l: Vec<f64> = seq.lats().to_vec();
        seq.prev_mut().copy_from_slice(&l);
        let l: Vec<f64> = par.lats().to_vec();
        par.prev_mut().copy_from_slice(&l);
    }
}

/// `Optimizer::step` against the naive nested reference round
/// (`allocate_latencies` + `PriceState::update`) on Figure 6 ×1 for 300
/// rounds, with a task join, an availability change and an error
/// correction applied to both sides mid-run: every latency and the whole
/// dual state must match bit for bit, every round.
#[test]
fn optimizer_matches_naive_round_through_online_changes() {
    let config = OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    };
    let mut problem = scaled_workload(1, true);
    let mut opt = Optimizer::new(problem.clone(), config);
    let mut prices = PriceState::new(&problem, config.step_policy);
    let mut lats = problem.initial_allocation();
    for round in 0..300 {
        match round {
            100 => {
                let mut b = TaskBuilder::new("joiner");
                let a = b.subtask("j0", ResourceId::new(0), 2.0);
                let c = b.subtask("j1", ResourceId::new(1), 3.0);
                b.edge(a, c).expect("valid edge");
                b.critical_time(120.0).utility(UtilityFn::linear_for_deadline(2.0, 120.0));
                let report = problem.add_task(&b).expect("admission");
                let id = report.added_task.expect("new id");
                prices = prices.remap(&problem, &report);
                lats.push(problem.initial_task_allocation(id));
                assert_eq!(opt.add_task(&b), Ok(id));
            }
            150 => {
                problem.set_resource_availability(ResourceId::new(0), 0.8).expect("valid");
                opt.set_resource_availability(ResourceId::new(0), 0.8).expect("valid");
            }
            200 => {
                let sid = problem.tasks()[1].subtask_id(0);
                problem.set_correction(sid, 0.5);
                opt.set_correction(sid, 0.5);
            }
            _ => {}
        }
        lats = allocate_latencies(&problem, &prices, &config.allocation, &lats);
        prices.update(&problem, &lats);
        opt.step();
        assert_eq!(opt.allocation().lats(), &lats[..], "latencies diverged at round {round}");
        assert_eq!(opt.prices(), &prices, "duals diverged at round {round}");
    }
}

/// The default config records a trace, and only a one-shard optimizer
/// honours it: a sharded engine would otherwise append a record per
/// round for as long as it runs.
#[test]
fn sharded_optimizer_keeps_no_trace_under_the_default_config() {
    let (problem, spec) = clustered_workload(200, 4, 7).expect("valid geometry");
    let mut opt = ShardedOptimizer::new(problem, OptimizerConfig::default(), spec).expect("spec");
    assert!(OptimizerConfig::default().record_trace);
    opt.run(200);
    assert_eq!(opt.trace().len(), 0);
}

/// A closed-loop window applies one correction per measured subtask;
/// the plan must re-lower once for the whole batch, not once per call.
#[test]
fn closed_loop_window_relowers_the_plan_once() {
    let config = OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    };
    let mut cl = ClosedLoop::new(
        prototype_workload(&PrototypeParams::default()),
        config,
        SimConfig::default(),
        ClosedLoopConfig { correction_enabled: true, ..Default::default() },
    );
    let registry = MetricsRegistry::new();
    cl.attach_telemetry(&registry);
    let lowerings = registry.counter("lla_opt_plan_lowerings_total", "");
    let before = lowerings.get();
    let window = cl.step_window();
    assert!(window.corrections.iter().flatten().any(|&e| e != 0.0), "window corrected");
    assert_eq!(lowerings.get() - before, 1);
}
