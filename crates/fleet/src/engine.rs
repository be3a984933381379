//! The streaming fleet engine: cut the workload index space into
//! contiguous shards, simulate each shard with reusable scratch state, and
//! merge shard-local aggregates in shard-index order.
//!
//! Memory is bounded by the grid size and the shard size, never by the
//! fleet size: no per-node result is ever materialized. Determinism is
//! inherited from `stadvs_experiments::shard::run_sharded_streaming`
//! (pinned merge order) plus the pure per-workload seed derivation, so
//! the aggregate bits do not depend on the thread count or the schedule.

use std::ops::ControlFlow;

use stadvs_experiments::make_governor;
use stadvs_experiments::shard::run_sharded_streaming;
use stadvs_power::Processor;
use stadvs_sim::{SimConfig, SimError, SimScratch, Simulator};
use stadvs_workload::{ExecutionModel, PeriodGenerator, TaskSetSpec};

use crate::agg::{FleetAggregate, NodeOutcome};
use crate::spec::FleetSpec;
use crate::FleetError;

/// Execution knobs of a fleet run; what a sweep computes lives in
/// [`FleetSpec`].
///
/// `threads` never changes a bit. `shard_size` moves the shard
/// boundaries, and with them how each compensated sum splits between
/// its `sum` and `compensation` terms. Measured on [`FleetSpec::quick`]
/// at master seeds 42, 1 and 7, shards of 1, 7, 33 and 1000 workloads
/// against the default 64: none of the 72 per-cell compensated values
/// and means or the 8 sketch means and medians differed, and the family
/// CSV differed only in its shard count, while the raw `norm_sum.sum`
/// differed in 9 to 24 of the 24 cells.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Workloads per shard: each workload is one task set and every
    /// governor's node on it, so a shard holds `shard_size` ×
    /// `spec.governors.len()` nodes (the last shard may hold fewer).
    /// Larger shards amortize worker hand-off; smaller ones balance the
    /// load across workers. Must be positive.
    pub shard_size: u64,
    /// Worker threads (`None` = host parallelism).
    pub threads: Option<usize>,
}

impl Default for FleetConfig {
    /// 64 workloads per shard: 256 nodes on the standard four-governor
    /// axis.
    fn default() -> FleetConfig {
        FleetConfig {
            shard_size: 64,
            threads: None,
        }
    }
}

/// The result of one [`run_fleet`] call.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merged aggregate over every shard.
    pub aggregate: FleetAggregate,
    /// Shards merged.
    pub shards_done: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
}

impl FleetOutcome {
    /// Whether the whole fleet has been swept.
    pub fn complete(&self) -> bool {
        self.shards_done == self.shards_total
    }
}

/// The immutable per-run state shared by every worker.
struct Engine<'a> {
    spec: &'a FleetSpec,
    processor: Processor,
    sim_config: SimConfig,
}

impl Engine<'_> {
    /// Simulates one workload and folds its nodes into `agg`: generate
    /// the task set and demand model from the workload's seed, run the
    /// `no-dvs` normalization baseline once, then run every governor of
    /// the axis on the same simulator and scratch (a `no-dvs` column
    /// reuses the baseline) and record each governor's node into its
    /// cell, in governor order.
    ///
    /// Kept out of the shard loop body on purpose: all allocation on the
    /// fleet path (task-set generation, governor boxing, simulator
    /// setup) happens here, leaving the loop itself allocation-free.
    fn run_workload(&self, workload: u64, scratch: &mut SimScratch, agg: &mut FleetAggregate) {
        let first = self.spec.node(self.spec.workload_node(workload, 0));
        let spread = &self.spec.spreads[first.spread];
        let tasks = TaskSetSpec::new(self.spec.n_tasks, first.utilization)
            .expect("spec was validated")
            .with_periods(PeriodGenerator::LogUniform {
                min: spread.min,
                max: spread.max,
            })
            .with_seed(first.seed)
            .generate()
            .expect("validated parameters generate");
        let exec = ExecutionModel::new(self.spec.pattern.clone())
            .expect("spec was validated")
            .with_seed(first.seed ^ 0x5EED_5EED_5EED_5EED);
        let cells = first.cell..first.cell + self.spec.governors.len();

        let sim = match Simulator::new(tasks, self.processor.clone(), self.sim_config.clone()) {
            Ok(sim) => sim,
            Err(SimError::Infeasible { .. }) => {
                cells.for_each(|cell| agg.record_infeasible(cell));
                return;
            }
            Err(e) => panic!("validated spec produced an invalid simulation: {e}"),
        };

        let mut no_dvs = make_governor("no-dvs").expect("no-dvs exists");
        let baseline = sim
            .run_with_scratch(no_dvs.as_mut(), &exec, scratch)
            .expect("no-dvs run succeeds on a feasible set");
        agg.record_sim(baseline.events);
        let baseline_energy = baseline.total_energy();

        for (governor, (cell, name)) in cells.zip(&self.spec.governors).enumerate() {
            let run;
            let outcome = if name.as_str() == "no-dvs" {
                &baseline
            } else {
                let mut g = make_governor(name).expect("spec was validated");
                run = sim
                    .run_with_scratch(g.as_mut(), &exec, scratch)
                    .expect("governor run succeeds on a feasible set");
                agg.record_sim(run.events);
                &run
            };
            let jobs = outcome.completed_jobs();
            agg.record(&NodeOutcome {
                cell,
                governor,
                normalized: outcome.total_energy() / baseline_energy,
                switches_per_job: outcome.switches as f64 / jobs.max(1) as f64,
                misses: outcome.miss_count() as u64,
                jobs: jobs as u64,
            });
        }
    }
}

/// Sweeps every node of `spec` under `config`, one workload at a time.
///
/// # Errors
///
/// Returns [`FleetError::Spec`] for invalid specs or configs, and
/// [`FleetError::Overflow`] if an open-ended total would pass
/// `u64::MAX`.
///
/// # Panics
///
/// Propagates panics from worker threads (a validated spec never
/// panics; a panic here is an engine bug).
pub fn run_fleet(spec: &FleetSpec, config: &FleetConfig) -> Result<FleetOutcome, FleetError> {
    spec.validate()?;
    if config.shard_size == 0 {
        return Err(FleetError::Spec("shard_size must be positive".to_string()));
    }
    let workloads = spec.workloads();
    let shards_total = usize::try_from(workloads.div_ceil(config.shard_size))
        .map_err(|_| FleetError::Spec("fleet too large for this platform".to_string()))?;
    let mut aggregate = FleetAggregate::new(spec);
    let engine = Engine {
        spec,
        processor: Processor::ideal_continuous(),
        sim_config: SimConfig::new(spec.horizon)
            .map_err(|e| FleetError::Spec(format!("horizon rejected: {e}")))?,
    };

    let mut error: Option<FleetError> = None;
    let shards_done = run_sharded_streaming(
        shards_total,
        config.threads,
        SimScratch::new,
        |scratch, s| {
            let mut local = FleetAggregate::new(spec);
            let lo = s as u64 * config.shard_size;
            let hi = (lo + config.shard_size).min(workloads);
            for w in lo..hi {
                engine.run_workload(w, scratch, &mut local);
            }
            local
        },
        |_, local| match aggregate.merge(&local) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                error = Some(e);
                ControlFlow::Break(())
            }
        },
    );
    match error {
        Some(e) => Err(e),
        None => Ok(FleetOutcome {
            aggregate,
            shards_done,
            shards_total,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PeriodSpread;
    use stadvs_workload::DemandPattern;

    /// A one-cell fleet cheap enough for debug-build unit tests.
    fn small_spec(governor: &str, replications: u64) -> FleetSpec {
        FleetSpec {
            master_seed: 7,
            n_tasks: 4,
            horizon: 0.25,
            utilizations: vec![0.6],
            spreads: vec![PeriodSpread::new("narrow", 0.05, 0.2)],
            governors: vec![governor.to_string()],
            replications,
            pattern: DemandPattern::Uniform { min: 0.4, max: 1.0 },
        }
    }

    #[test]
    fn sweeps_every_node_exactly_once() {
        let spec = small_spec("cc-edf", 13);
        let config = FleetConfig {
            shard_size: 4,
            threads: Some(2),
        };
        let out = run_fleet(&spec, &config).expect("fleet runs");
        assert!(out.complete());
        assert_eq!(out.shards_total, 4);
        assert_eq!(out.aggregate.nodes, 13);
        assert_eq!(
            out.aggregate.cells[0].count + out.aggregate.cells[0].infeasible,
            13
        );
        assert!(out.aggregate.sims >= out.aggregate.cells[0].count);
        assert_eq!(out.aggregate.misses, 0, "cc-edf is hard real-time");
    }

    #[test]
    fn rejects_zero_shard_size() {
        let spec = small_spec("cc-edf", 2);
        let config = FleetConfig {
            shard_size: 0,
            ..FleetConfig::default()
        };
        assert!(run_fleet(&spec, &config).is_err());
    }

    #[test]
    fn no_dvs_governor_reuses_the_baseline() {
        let spec = small_spec("no-dvs", 3);
        let out = run_fleet(&spec, &FleetConfig::default()).expect("fleet runs");
        assert_eq!(out.aggregate.sims, out.aggregate.cells[0].count);
        // Beside other governors, the workload's one baseline serves them all.
        let mut shared = spec.clone();
        shared.governors.push("cc-edf".to_string());
        let out_shared = run_fleet(&shared, &FleetConfig::default()).expect("fleet runs");
        assert_eq!(out_shared.aggregate.sims, 2 * out.aggregate.sims);
        for agg in [&out.aggregate, &out_shared.aggregate] {
            assert_eq!(
                agg.cells[0].mean_normalized().to_bits(),
                1.0_f64.to_bits(),
                "no-dvs normalizes to itself"
            );
        }
    }
}
