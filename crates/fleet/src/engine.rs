//! The streaming fleet engine: cut the node index space into contiguous
//! shards, simulate each shard with reusable scratch state, and merge
//! shard-local aggregates in shard-index order.
//!
//! Memory is bounded by the grid size and the shard size, never by the
//! fleet size: no per-node result is ever materialized. Determinism is
//! inherited from `stadvs_experiments::shard::run_sharded_streaming`
//! (pinned merge order) plus the pure per-node seed derivation, so the
//! aggregate bits do not depend on the thread count or the schedule.

use std::ops::ControlFlow;

use stadvs_experiments::make_governor;
use stadvs_experiments::shard::run_sharded_streaming;
use stadvs_power::Processor;
use stadvs_sim::{SimConfig, SimError, SimScratch, Simulator};
use stadvs_workload::{ExecutionModel, PeriodGenerator, TaskSetSpec};

use crate::agg::{FleetAggregate, NodeOutcome};
use crate::spec::{FleetSpec, NodeParams};
use crate::FleetError;

/// Execution knobs of a fleet run; what a sweep computes lives in
/// [`FleetSpec`].
///
/// `threads` never changes a bit. `shard_size` moves the shard
/// boundaries, and with them how each compensated sum splits between
/// its `sum` and `compensation` terms. Measured on [`FleetSpec::quick`]
/// at master seeds 42, 1 and 7, shard sizes 1, 7, 33 and 1000 against
/// the default 256: none of the 72 per-cell compensated values and
/// means or the 8 sketch means and medians differed, and the family CSV
/// differed only in its shard count, while the raw `norm_sum.sum`
/// differed in 7 to 23 of the 24 cells.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Nodes per shard. Larger shards amortize worker hand-off; smaller
    /// ones balance the load across workers. Must be positive.
    pub shard_size: u64,
    /// Worker threads (`None` = host parallelism).
    pub threads: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shard_size: 256,
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
    /// Simulates one node and folds it into `agg`: generate the node's
    /// task set from its derived seed, run the `no-dvs` normalization
    /// baseline, run the node's governor (reusing the baseline when the
    /// governor *is* `no-dvs`), record normalized energy and counters.
    ///
    /// Kept out of the shard loop body on purpose: all allocation on the
    /// fleet path (task-set generation, governor boxing, simulator
    /// setup) happens here, leaving the loop itself allocation-free.
    fn run_node(&self, params: NodeParams, scratch: &mut SimScratch, agg: &mut FleetAggregate) {
        let spread = &self.spec.spreads[params.spread];
        let tasks = TaskSetSpec::new(self.spec.n_tasks, params.utilization)
            .expect("spec was validated")
            .with_periods(PeriodGenerator::LogUniform {
                min: spread.min,
                max: spread.max,
            })
            .with_seed(params.seed)
            .generate()
            .expect("validated parameters generate");
        let exec = ExecutionModel::new(self.spec.pattern.clone())
            .expect("spec was validated")
            .with_seed(params.seed ^ 0x5EED_5EED_5EED_5EED);

        let sim = match Simulator::new(tasks, self.processor.clone(), self.sim_config.clone()) {
            Ok(sim) => sim,
            Err(SimError::Infeasible { .. }) => {
                agg.record_infeasible(params.cell);
                return;
            }
            Err(e) => panic!("validated spec produced an invalid simulation: {e}"),
        };

        let mut no_dvs = make_governor("no-dvs").expect("no-dvs exists");
        let baseline = sim
            .run_with_scratch(no_dvs.as_mut(), &exec, scratch)
            .expect("no-dvs run succeeds on a feasible set");
        let baseline_energy = baseline.total_energy();
        let mut events = baseline.events;

        let name = &self.spec.governors[params.governor];
        let (outcome, sims) = if name.as_str() == "no-dvs" {
            (baseline, 1)
        } else {
            let mut governor = make_governor(name).expect("spec was validated");
            let run = sim
                .run_with_scratch(governor.as_mut(), &exec, scratch)
                .expect("governor run succeeds on a feasible set");
            events += run.events;
            (run, 2)
        };

        let jobs = outcome.completed_jobs();
        agg.record(&NodeOutcome {
            cell: params.cell,
            governor: params.governor,
            normalized: outcome.total_energy() / baseline_energy,
            switches_per_job: outcome.switches as f64 / jobs.max(1) as f64,
            misses: outcome.miss_count() as u64,
            events,
            jobs: jobs as u64,
            sims,
        });
    }
}

/// Sweeps every node of `spec` under `config`.
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
    let nodes = spec.nodes();
    let shards_total = usize::try_from(nodes.div_ceil(config.shard_size))
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
            let hi = (lo + config.shard_size).min(nodes);
            for i in lo..hi {
                engine.run_node(spec.node(i), scratch, &mut local);
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
        let cell = &out.aggregate.cells[0];
        assert_eq!(
            cell.mean_normalized().to_bits(),
            1.0_f64.to_bits(),
            "no-dvs normalizes to itself"
        );
    }
}
