//! The admission precheck: a static, necessary condition for
//! schedulability decided on the input alone, before any solve.
//!
//! Every subtask is set to the largest latency its clamping box allows
//! (`lat_hi` from [`clamping_box`]); the resulting usage is the least any
//! feasible allocation can put on a resource. If it exceeds `B_r` on some
//! resource the instance is provably unschedulable and is rejected. The
//! check is not sufficient: an admitted instance may still never certify.
//! The workloads whose ops start cold catch those in set-up with a
//! reference solve and count them as uncertified.

use lla_core::{clamping_box, AllocationSettings, Problem};

/// Outcome of the precheck on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Precheck {
    /// `max_r usage_r(lat_hi) / B_r`.
    pub worst_ratio: f64,
    /// Resources whose usage at `lat_hi` exceeds `B_r` (the certificate).
    pub over: Vec<usize>,
}

impl Precheck {
    /// Whether the instance passes the necessary condition.
    pub fn admitted(&self) -> bool {
        self.over.is_empty()
    }
}

/// Runs the precheck on `problem` under the allocator `settings`.
pub fn precheck(problem: &Problem, settings: &AllocationSettings) -> Precheck {
    let hi: Vec<Vec<f64>> =
        problem.tasks().iter().map(|t| clamping_box(problem, t, settings).1).collect();
    let mut worst_ratio = 0.0_f64;
    let mut over = Vec::new();
    for (r, res) in problem.resources().iter().enumerate() {
        let usage = problem.resource_usage(res.id(), &hi);
        let b = res.availability();
        worst_ratio = worst_ratio.max(usage / b.max(f64::MIN_POSITIVE));
        if usage > b {
            over.push(r);
        }
    }
    Precheck { worst_ratio, over }
}
