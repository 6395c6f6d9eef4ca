//! Clustered large-scale workloads and task-set partitioners for the
//! sharded optimizer.
//!
//! The million-task north star assumes workloads with *locality*: most
//! traffic stays inside a resource cluster (a rack, a site), and only a
//! thin backbone is shared. [`ClusteredWorkloadConfig`] generates exactly
//! that shape — per-cluster resource pools with a small shared backbone of
//! network links — while carrying over the witness-allocation
//! schedulability guarantee of [`RandomWorkloadConfig`]. Because each
//! cluster's tasks occupy a contiguous index range of equal size,
//! [`ShardSpec::contiguous`] with any shard count dividing the cluster
//! count aligns exactly with cluster boundaries, which is what the
//! shard-scaling bench sweeps exploit.
//!
//! For workloads without a known clustering, [`partition_by_affinity`]
//! recovers one greedily from resource-touch sets.

use crate::random::{RandomWorkloadConfig, TaskShape};
use lla_core::{ModelError, Problem, Resource, ResourceId, ResourceKind, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`ClusteredWorkloadConfig::generate`]: `num_clusters`
/// clusters, each with its own resource pool and a contiguous block of
/// `tasks_per_cluster` tasks, plus `backbone_links` network links shared by
/// every cluster's cross-traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredWorkloadConfig {
    /// Number of resource clusters (= natural shard count).
    pub num_clusters: usize,
    /// Tasks per cluster (tasks are numbered cluster-contiguously).
    pub tasks_per_cluster: usize,
    /// Resources per cluster (alternating CPU / link).
    pub resources_per_cluster: usize,
    /// Globally shared backbone links, appended after all cluster pools.
    pub backbone_links: usize,
    /// Probability that a task gains one extra hop over a backbone link
    /// (in `[0, 1]`; requires `backbone_links > 0` when positive).
    pub cross_traffic: f64,
    /// Structure/witness parameters shared with the flat generator; its
    /// `num_resources`/`num_tasks` fields are ignored (derived from the
    /// cluster geometry) and its `seed` drives the whole generation.
    pub base: RandomWorkloadConfig,
}

impl Default for ClusteredWorkloadConfig {
    fn default() -> Self {
        ClusteredWorkloadConfig {
            num_clusters: 4,
            tasks_per_cluster: 25,
            resources_per_cluster: 16,
            backbone_links: 2,
            cross_traffic: 0.1,
            base: RandomWorkloadConfig {
                min_subtasks: 3,
                max_subtasks: 6,
                shape: TaskShape::Mixed,
                target_load: 0.85,
                ..RandomWorkloadConfig::default()
            },
        }
    }
}

impl ClusteredWorkloadConfig {
    /// Generates the workload and its natural partition (one shard per
    /// cluster). Deterministic given the config.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for an empty cluster
    /// geometry, `cross_traffic` outside `[0, 1]` (or positive with no
    /// backbone), or invalid base structure/witness parameters.
    pub fn generate(&self) -> Result<(Problem, ShardSpec), ModelError> {
        self.validate()?;
        let nr = self.num_clusters * self.resources_per_cluster + self.backbone_links;
        let nt = self.num_clusters * self.tasks_per_cluster;
        let core = RandomWorkloadConfig { num_resources: nr, num_tasks: nt, ..self.base };
        let mut rng = StdRng::seed_from_u64(self.base.seed);

        let mut resources: Vec<Resource> = Vec::with_capacity(nr);
        for c in 0..self.num_clusters {
            for i in 0..self.resources_per_cluster {
                let kind = if i % 2 == 0 { ResourceKind::Cpu } else { ResourceKind::NetworkLink };
                let id = ResourceId::new(c * self.resources_per_cluster + i);
                resources.push(Resource::new(id, kind).with_lag(self.base.lag));
            }
        }
        let backbone_base = self.num_clusters * self.resources_per_cluster;
        for i in 0..self.backbone_links {
            let id = ResourceId::new(backbone_base + i);
            resources.push(Resource::new(id, ResourceKind::NetworkLink).with_lag(self.base.lag));
        }

        let (lo, hi) = self.base.exec_time_range;
        let mut drafts = Vec::with_capacity(nt);
        for c in 0..self.num_clusters {
            let pool: Vec<usize> =
                (c * self.resources_per_cluster..(c + 1) * self.resources_per_cluster).collect();
            for t in 0..self.tasks_per_cluster {
                let index = c * self.tasks_per_cluster + t;
                let mut draft = core.draw_task_in_pool(index, &mut rng, &pool)?;
                if self.cross_traffic > 0.0 && rng.gen_bool(self.cross_traffic) {
                    // One extra hop over a shared backbone link, appended as
                    // a successor of a random existing subtask.
                    let n = draft.resources.len();
                    let link = backbone_base + rng.gen_range(0..self.backbone_links);
                    draft.resources.push(ResourceId::new(link));
                    draft.exec_times.push(if lo == hi { lo } else { rng.gen_range(lo..hi) });
                    draft.edges.push((rng.gen_range(0..n), n));
                }
                drafts.push(draft);
            }
        }

        let problem = core.assemble(resources, &drafts)?;
        let groups = (0..self.num_clusters)
            .map(|c| (c * self.tasks_per_cluster..(c + 1) * self.tasks_per_cluster).collect())
            .collect();
        Ok((problem, ShardSpec::from_groups(groups)))
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.num_clusters == 0 {
            return Err(ModelError::InvalidParameter { what: "num_clusters", value: 0.0 });
        }
        if self.tasks_per_cluster == 0 {
            return Err(ModelError::InvalidParameter { what: "tasks_per_cluster", value: 0.0 });
        }
        if self.resources_per_cluster == 0 {
            return Err(ModelError::InvalidParameter { what: "resources_per_cluster", value: 0.0 });
        }
        if !(0.0..=1.0).contains(&self.cross_traffic) {
            return Err(ModelError::InvalidParameter {
                what: "cross_traffic",
                value: self.cross_traffic,
            });
        }
        if self.cross_traffic > 0.0 && self.backbone_links == 0 {
            return Err(ModelError::InvalidParameter {
                what: "backbone_links (required by cross_traffic)",
                value: 0.0,
            });
        }
        Ok(())
    }
}

/// The scaling-sweep entry point used by `lla-bench` for the 100k/1M
/// points: `num_tasks` tasks over `num_clusters` equal clusters (task
/// count must be divisible by the cluster count) with a thin shared
/// backbone (two links per cluster) and 10% cross-traffic. Returns the
/// problem and its natural per-cluster [`ShardSpec`]; coarser shardings
/// come from [`ShardSpec::contiguous`] with any divisor of
/// `num_clusters`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParameter`] when `num_clusters` is zero or
/// does not divide `num_tasks`.
pub fn clustered_workload(
    num_tasks: usize,
    num_clusters: usize,
    seed: u64,
) -> Result<(Problem, ShardSpec), ModelError> {
    if num_clusters == 0 || !num_tasks.is_multiple_of(num_clusters) {
        return Err(ModelError::InvalidParameter {
            what: "num_clusters must divide num_tasks",
            value: num_clusters as f64,
        });
    }
    let tasks_per_cluster = num_tasks / num_clusters;
    // Keep per-cluster contention roughly constant as the sweep scales:
    // one resource per two tasks, floored at 16, like the flat generator.
    let resources_per_cluster = (tasks_per_cluster / 2).max(16).next_multiple_of(2);
    let base = ClusteredWorkloadConfig::default();
    ClusteredWorkloadConfig {
        num_clusters,
        tasks_per_cluster,
        resources_per_cluster,
        backbone_links: 2 * num_clusters,
        cross_traffic: 0.1,
        base: RandomWorkloadConfig { seed, ..base.base },
    }
    .generate()
}

/// Greedy resource-affinity partitioner for problems with no known
/// clustering: tasks are placed in index order onto the shard (of
/// `num_shards`, capacity `⌈nt/num_shards⌉`) that already touches the
/// most of their resources, ties breaking to the lowest shard index.
/// Deterministic; always returns a valid partition accepted by
/// [`ShardedOptimizer::new`](lla_core::ShardedOptimizer::new).
pub fn partition_by_affinity(problem: &Problem, num_shards: usize) -> ShardSpec {
    let nt = problem.tasks().len();
    let k = num_shards.clamp(1, nt.max(1));
    let capacity = nt.div_ceil(k);
    let nr = problem.resources().len();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut touches: Vec<Vec<bool>> = vec![vec![false; nr]; k];
    for (t, task) in problem.tasks().iter().enumerate() {
        let mut best = 0;
        let mut best_score = -1i64;
        for (s, group) in groups.iter().enumerate() {
            if group.len() >= capacity {
                continue;
            }
            let score =
                task.subtasks().iter().filter(|sub| touches[s][sub.resource().index()]).count()
                    as i64;
            if score > best_score {
                best = s;
                best_score = score;
            }
        }
        groups[best].push(t);
        for sub in problem.tasks()[t].subtasks() {
            touches[best][sub.resource().index()] = true;
        }
    }
    groups.retain(|g| !g.is_empty());
    ShardSpec::from_groups(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_core::{Optimizer, OptimizerConfig, ResourceOwner, ShardedOptimizer};

    #[test]
    fn clustered_generation_is_deterministic_and_partitioned() {
        let (p1, spec1) = clustered_workload(100, 4, 7).unwrap();
        let (p2, spec2) = clustered_workload(100, 4, 7).unwrap();
        assert_eq!(spec1, spec2);
        assert_eq!(spec1.num_shards(), 4);
        assert_eq!(spec1.groups().iter().map(Vec::len).sum::<usize>(), 100);
        for (ta, tb) in p1.tasks().iter().zip(p2.tasks()) {
            assert_eq!(ta.critical_time(), tb.critical_time());
        }
    }

    #[test]
    fn cluster_resources_are_exclusive_and_backbone_is_shared() {
        let (p, spec) = clustered_workload(200, 4, 11).unwrap();
        let nr = p.resources().len();
        let sharded = ShardedOptimizer::new(p, OptimizerConfig::default(), spec).unwrap();
        let mut coordinated = 0;
        for r in 0..nr {
            if sharded.resource_owner(r) == ResourceOwner::Coordinator {
                coordinated += 1;
            }
        }
        // Only the shared backbone goes to the coordinator; with 10%
        // cross-traffic that is a thin slice.
        assert!(coordinated < nr / 4, "{coordinated}/{nr} coordinator-owned");
        assert!(sharded.num_shared_resources() <= 8, "at most the backbone is shared");
    }

    #[test]
    fn clustered_workload_is_schedulable_and_sharded_lla_converges() {
        let (p, spec) = clustered_workload(40, 4, 3).unwrap();
        let mut opt = ShardedOptimizer::new(p, OptimizerConfig::default(), spec).unwrap();
        let outcome = opt.run_to_convergence(20_000);
        assert!(outcome.converged, "clustered workloads keep the witness guarantee");
    }

    #[test]
    fn contiguous_spec_aligns_with_cluster_boundaries() {
        let (_, spec) = clustered_workload(80, 8, 5).unwrap();
        let coarse = lla_core::ShardSpec::contiguous(80, 4);
        for (w, group) in coarse.groups().iter().enumerate() {
            let merged: Vec<usize> =
                spec.groups()[2 * w..2 * w + 2].iter().flatten().copied().collect();
            assert_eq!(group, &merged, "2 clusters per shard at half the cluster count");
        }
    }

    #[test]
    fn affinity_partitioner_recovers_clusters() {
        let (p, spec) = clustered_workload(80, 4, 9).unwrap();
        let recovered = partition_by_affinity(&p, 4);
        assert_eq!(recovered, spec, "greedy affinity recovers the planted clustering");
    }

    #[test]
    fn affinity_partitioner_is_valid_on_unclustered_workloads() {
        let p = crate::random::large_scale_workload(60, 17).unwrap();
        let spec = partition_by_affinity(&p, 8);
        let mono_utility = {
            let mut o = Optimizer::new(p.clone(), OptimizerConfig::default());
            o.run(400);
            o.utility()
        };
        let mut sharded = ShardedOptimizer::new(p, OptimizerConfig::default(), spec).unwrap();
        sharded.run(400);
        assert!(
            (sharded.utility() - mono_utility).abs() <= 1e-6 * mono_utility.abs().max(1.0),
            "sharded {} vs monolithic {mono_utility}",
            sharded.utility()
        );
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(clustered_workload(100, 3, 1).is_err(), "3 does not divide 100");
        assert!(clustered_workload(100, 0, 1).is_err());
        let bad = ClusteredWorkloadConfig {
            cross_traffic: 0.5,
            backbone_links: 0,
            ..ClusteredWorkloadConfig::default()
        };
        assert!(bad.generate().is_err());
    }
}
