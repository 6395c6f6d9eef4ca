//! `online_churn`: 4-shard `ShardedOptimizer`s, cold-converged in
//! set-up, take one perturbation per op from a seeded stream, re-solve
//! from their warm state and certify. Each stream drops a resource's
//! availability to 0.9 of its value and restores it (cluster and backbone
//! resources alike), and makes a task leave and re-join its shard. A
//! set-up holds [`INSTANCES`] optimizers on distinct admitted instances
//! and gives the ops to them in turn.

use super::{admitted, builder_of, certify, solver_config};
use crate::admission::precheck;
use crate::rng::{derive, SplitMix};
use crate::trace::Tracer;
use crate::{Metrics, OpRecord, Options, SetupReport};
use lla_core::{OptimizerConfig, ResourceId, ShardedOptimizer, TaskBuilder, TaskId};
use lla_telemetry::Profiler;
use lla_workloads::clustered_workload;
use std::collections::HashSet;
use std::time::Instant;

/// Tasks per instance.
pub const TASKS: usize = 100;
/// Independent instances per set-up.
pub const INSTANCES: usize = 32;
/// Shards (= clusters of the generator).
pub const SHARDS: usize = 4;
/// Backbone links the generator appends after the cluster pools.
const BACKBONE: usize = 2 * SHARDS;
/// Perturbation pairs per instance's stream (each pair is two ops and
/// returns the instance to its set-up state); the ops cycle through it.
pub const PAIRS: usize = 48;
/// Availability factor of a drop.
pub const DROP: f64 = 0.9;
/// Iteration budget per op.
pub const BUDGET: u64 = 10_000;
/// Iteration budget of the initial cold convergence.
const COLD_BUDGET: usize = 50_000;
/// Candidates drawn per instance before the set-up gives up finding one
/// whose cold convergence certifies.
const ATTEMPTS: u64 = 4;

/// One perturbation of the stream.
#[derive(Debug, Clone)]
enum Event {
    Availability { resource: usize, value: f64 },
    Leave { name: String },
    Join { builder: Box<TaskBuilder> },
}

/// One optimizer and its perturbation stream.
#[derive(Debug)]
struct Instance {
    opt: ShardedOptimizer,
    stream: Vec<Event>,
    /// Ops this instance has taken.
    next: usize,
    /// Shard the last leaver belonged to; its re-join goes back there.
    rejoin_shard: usize,
}

/// The workload state.
#[derive(Debug)]
pub struct OnlineChurn {
    instances: Vec<Instance>,
    config: OptimizerConfig,
    budget: u64,
    profiler: Option<Profiler>,
    local_max_ns: f64,
    coordinator_ns: f64,
    timed_rounds: u64,
}

/// Generates, admits and cold-converges candidate `attempt` for instance
/// `k` of the run and builds its perturbation stream. A candidate whose
/// cold convergence does not certify counts as uncertified and yields
/// `None`.
fn instance(
    seed: u64,
    k: u64,
    attempt: u64,
    config: OptimizerConfig,
    report: &mut SetupReport,
) -> Result<Option<Instance>, String> {
    let (problem, spec) = admitted(
        seed,
        k + 2 * INSTANCES as u64 * attempt,
        &config.allocation,
        report,
        |s| clustered_workload(TASKS, SHARDS, s),
        |(p, _)| p,
    )?;
    let names: HashSet<&str> = problem.tasks().iter().map(|t| t.name()).collect();
    if names.len() != problem.tasks().len() {
        return Err("task names are not unique".into());
    }

    // Build the stream on a copy of the problem, prechecking the state
    // each perturbation leads to; rejected perturbations are skipped.
    let mut sim = problem.clone();
    let mut rng = SplitMix::new(derive(seed, INSTANCES as u64 + k, 0));
    let nr = sim.resources().len();
    let mut stream = Vec::with_capacity(2 * PAIRS);
    for pair in 0..PAIRS {
        if pair % 3 == 2 {
            let t = rng.below(sim.tasks().len());
            let task = &sim.tasks()[t];
            let name = task.name().to_owned();
            let builder = builder_of(task).map_err(|e| e.to_string())?;
            sim.remove_task(TaskId::new(t)).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let admitted = precheck(&sim, &config.allocation).admitted();
            report.precheck_s += t0.elapsed().as_secs_f64();
            sim.add_task(&builder).map_err(|e| e.to_string())?;
            if admitted {
                stream.push(Event::Leave { name });
                stream.push(Event::Join { builder: Box::new(builder) });
            } else {
                report.rejected += 1;
            }
        } else {
            let resource = if pair % 3 == 0 {
                rng.below(nr - BACKBONE)
            } else {
                nr - BACKBONE + rng.below(BACKBONE)
            };
            let id = ResourceId::new(resource);
            let orig = sim.resources()[resource].availability();
            sim.set_resource_availability(id, orig * DROP).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let admitted = precheck(&sim, &config.allocation).admitted();
            report.precheck_s += t0.elapsed().as_secs_f64();
            sim.set_resource_availability(id, orig).map_err(|e| e.to_string())?;
            if admitted {
                stream.push(Event::Availability { resource, value: orig * DROP });
                stream.push(Event::Availability { resource, value: orig });
            } else {
                report.rejected += 1;
            }
        }
    }
    if stream.is_empty() {
        return Err("every perturbation was rejected".into());
    }

    let t0 = Instant::now();
    let mut opt = ShardedOptimizer::new(problem, config, spec).map_err(|e| e.to_string())?;
    report.construct_s += t0.elapsed().as_secs_f64();
    let outcome = opt.run_to_convergence(COLD_BUDGET);
    let lats = opt.allocation();
    let state = opt.export_state();
    if !outcome.converged
        || !certify(opt.problem(), lats.lats(), state.prices(), opt.utility(), &config.allocation)
    {
        report.uncertified += 1;
        return Ok(None);
    }
    Ok(Some(Instance { opt, stream, next: 0, rejoin_shard: 0 }))
}

impl crate::Workload for OnlineChurn {
    const SETUP_REPS: usize = 7;

    fn setup(opts: &Options) -> Result<(Self, SetupReport), String> {
        let config = solver_config();
        let mut report = SetupReport::default();
        let mut instances = Vec::with_capacity(INSTANCES);
        for k in 0..INSTANCES as u64 {
            let mut found = None;
            for attempt in 0..ATTEMPTS {
                found = instance(opts.seed, k, attempt, config, &mut report)?;
                if found.is_some() {
                    break;
                }
            }
            instances.push(found.ok_or("no instance whose cold convergence certifies")?);
        }
        let budget = opts.budget.unwrap_or(BUDGET);
        let state = OnlineChurn {
            instances,
            config,
            budget,
            profiler: None,
            local_max_ns: 0.0,
            coordinator_ns: 0.0,
            timed_rounds: 0,
        };
        Ok((state, report))
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer) -> OpRecord {
        if tracer.is_on() && self.profiler.is_none() {
            let profiler = Profiler::recording();
            for inst in &mut self.instances {
                inst.opt.attach_profiler(&profiler);
            }
            self.profiler = Some(profiler);
        }
        let inst = &mut self.instances[index as usize % INSTANCES];
        let event = &inst.stream[inst.next % inst.stream.len()];
        inst.next += 1;
        let leaver = match event {
            Event::Leave { name } => {
                let t = inst.opt.problem().tasks().iter().position(|t| t.name() == name);
                let id = TaskId::new(t.expect("the stream only removes present tasks"));
                inst.rejoin_shard = inst.opt.shard_of(id);
                Some(id)
            }
            _ => None,
        };
        let rejoin_shard = inst.rejoin_shard;
        let opt = &mut inst.opt;
        tracer.open("op");
        let t0 = Instant::now();
        let applied = tracer.span("shard.mutate", || match event {
            Event::Availability { resource, value } => {
                opt.set_resource_availability(ResourceId::new(*resource), *value).is_ok()
            }
            Event::Leave { .. } => opt.remove_task(leaver.expect("resolved above")).is_ok(),
            Event::Join { builder } => opt.add_task(builder, Some(rejoin_shard)).is_ok(),
        });
        let mut rounds = 0;
        let mut converged = false;
        while applied && rounds < self.budget {
            if tracer.is_on() {
                let (_, timing) = tracer.span("shard.step", || opt.step_timed());
                let local_max = timing.shard_ns.iter().fold(0.0_f64, |a, &b| a.max(b));
                self.local_max_ns += local_max;
                self.coordinator_ns += timing.coordinator_ns;
                self.timed_rounds += 1;
                let locals: f64 = timing.shard_ns.iter().sum();
                tracer.attribute("shard.step", "shard.local", locals as u64, 1);
                tracer.attribute(
                    "shard.step",
                    "shard.coordinator",
                    timing.coordinator_ns as u64,
                    1,
                );
            } else {
                opt.step();
            }
            rounds += 1;
            if opt.has_converged() {
                converged = true;
                break;
            }
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        tracer.close();
        let config = &self.config;
        let ok = tracer.span("lagrangian.certify", || {
            let lats = opt.allocation();
            let state = opt.export_state();
            certify(opt.problem(), lats.lats(), state.prices(), opt.utility(), &config.allocation)
        });
        OpRecord {
            wall_ns,
            rounds,
            certified: applied && converged && ok,
            wrong: !applied || (converged && !ok),
            ..OpRecord::default()
        }
    }

    fn summarize(&mut self, ops: &[OpRecord], tracer: &mut Tracer, out: &mut Metrics) {
        let Some(profiler) = &self.profiler else {
            return;
        };
        let (lower_ns, lowerings) = profiler
            .snapshot()
            .frames
            .iter()
            .filter(|f| f.name == "plan_lower")
            .fold((0, 0), |(ns, calls), f| (ns + f.total_ns, calls + f.calls));
        tracer.attribute("shard.mutate", "shard.relower", lower_ns, lowerings);
        let rounds = self.timed_rounds.max(1) as f64;
        out.set("shard.local_ns_max", self.local_max_ns / rounds, "ns");
        out.set("shard.coordinator_ns", self.coordinator_ns / rounds, "ns");
        out.set("shard.relower_ns", lower_ns as f64 / ops.len().max(1) as f64, "ns");
        let layers = tracer.layers();
        let step = layers.get("shard.step").copied().unwrap_or_default();
        out.set("shard.round_ns", step.total_ns / rounds, "ns");
        let iters: u64 = ops.iter().map(|o| o.rounds).sum();
        out.set("optimizer.iters_per_op", iters as f64 / ops.len().max(1) as f64, "count");
    }
}
