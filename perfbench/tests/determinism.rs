//! The benchmark's own checks: runs are reproducible from the seed, no op
//! of an admitted input fails, the seed reaches the inputs, a starved
//! round budget shows up as failed ops, the traced run emits every
//! per-layer figure, and the metric lists agree with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the set-ups solve real instances and are slow in a debug build).

use perfbench::{run, Options, RunResult, WorkloadKind, END_TO_END, PER_LAYER};

fn fixed(kind: WorkloadKind, seed: u64, ops: usize, budget: Option<u64>) -> RunResult {
    let opts = Options { seed, budget, traced: false };
    run(kind, &opts, 1.0, Some(ops)).expect("set-up succeeds")
}

/// The figures a run must reproduce exactly for a given seed.
fn counts(r: &RunResult) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = ["rounds_per_op", "msgs_per_op", "miss_ratio"]
        .iter()
        .filter_map(|&n| r.detail.get(n).map(|v| (n.to_owned(), v)))
        .collect();
    out.push(("attempted".into(), r.attempted as f64));
    out.push(("failed".into(), r.failed as f64));
    out
}

#[test]
fn same_seed_reproduces_counts() {
    for kind in WorkloadKind::ALL {
        let a = fixed(kind, 7, 12, None);
        let b = fixed(kind, 7, 12, None);
        assert_eq!(counts(&a), counts(&b), "{}", kind.name());
        assert!(a.correct, "{}", kind.name());
        assert_eq!(a.failed, 0, "{}: every op of an admitted input certifies", kind.name());
    }
}

#[test]
fn seed_changes_the_instances() {
    let a = fixed(WorkloadKind::ColdSolve, 1, 8, None);
    let b = fixed(WorkloadKind::ColdSolve, 2, 8, None);
    assert_ne!(a.detail.get("rounds_per_op"), b.detail.get("rounds_per_op"));
}

#[test]
fn one_round_budget_fails_every_solver_op() {
    for kind in [WorkloadKind::ColdSolve, WorkloadKind::OnlineChurn, WorkloadKind::ClosedLoop] {
        let r = fixed(kind, 3, 4, Some(1));
        assert_eq!(r.attempted, 4, "{}", kind.name());
        assert_eq!(r.failed, 4, "{}", kind.name());
        assert!(r.correct, "a missed budget is a failed op, not a wrong output");
    }
}

#[test]
fn traced_run_emits_every_per_layer_figure() {
    let opts = Options { seed: 5, budget: None, traced: true };
    let r = run(WorkloadKind::ClosedLoop, &opts, 1.0, Some(16)).expect("set-up succeeds");
    let names: Vec<&str> = r.metrics.0.iter().map(|m| m.0.as_str()).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, expected);
    let share = r.metrics.get("trace.attributed_share").expect("share reported");
    assert!(share >= 0.9, "layers account for {share} of op time");
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let count = json.matches("\"name\"").count();
    assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + WorkloadKind::ALL.len());
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for kind in WorkloadKind::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
    }
}
