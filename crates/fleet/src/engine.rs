//! The streaming fleet engine: cut the node index space into contiguous
//! shards, simulate each shard with reusable scratch state, merge
//! shard-local aggregates in shard-index order, and checkpoint the
//! merged prefix.
//!
//! Memory is bounded by the grid size and the shard size, never by the
//! fleet size: no per-node result is ever materialized. Determinism is
//! inherited from `stadvs_experiments::shard::run_sharded_streaming`
//! (pinned merge order) plus the pure per-node seed derivation — the
//! aggregate bits do not depend on thread count, scheduling, or whether
//! the run was interrupted and resumed from a checkpoint.

use std::ops::ControlFlow;
use std::path::PathBuf;

use stadvs_experiments::make_governor;
use stadvs_experiments::shard::run_sharded_streaming;
use stadvs_power::Processor;
use stadvs_sim::{SimConfig, SimError, SimScratch, Simulator};
use stadvs_workload::{ExecutionModel, PeriodGenerator, TaskSetSpec};

use crate::agg::{FleetAggregate, NodeOutcome};
use crate::checkpoint::Checkpoint;
use crate::spec::{FleetSpec, NodeParams};
use crate::FleetError;

/// Execution knobs of a fleet run (everything that may *not* change the
/// result bits lives here; everything that may lives in [`FleetSpec`]).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Nodes per shard. Smaller shards checkpoint at a finer grain;
    /// larger shards amortize worker hand-off. Must be positive.
    pub shard_size: u64,
    /// Worker threads (`None` = host parallelism). Any value produces
    /// the same bits.
    pub threads: Option<usize>,
    /// Checkpoint file. When the file already exists the run *resumes*
    /// from it (after validating it matches the spec); the file is
    /// rewritten atomically as the run progresses.
    pub checkpoint: Option<PathBuf>,
    /// Rewrite the checkpoint every this many merged shards (in
    /// addition to at stop and at completion).
    pub checkpoint_every: usize,
    /// Stop after merging at most this many shards in this call —
    /// the hook for testing kill/resume. `None` runs to completion.
    pub max_shards: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shard_size: 256,
            threads: None,
            checkpoint: None,
            checkpoint_every: 64,
            max_shards: None,
        }
    }
}

/// The result of one [`run_fleet`] call.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merged aggregate over shards `0..shards_done`.
    pub aggregate: FleetAggregate,
    /// Shards merged so far (across resumed calls).
    pub shards_done: usize,
    /// Total shards in the fleet.
    pub shards_total: usize,
    /// The shard index this call resumed from (0 for a fresh run).
    pub resumed_from: usize,
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

/// Sweeps `spec` under `config`, resuming from `config.checkpoint` if
/// that file exists.
///
/// # Errors
///
/// Returns [`FleetError::Spec`] for invalid specs or configs,
/// [`FleetError::Checkpoint`] for a checkpoint that is malformed or does
/// not match `spec`, and [`FleetError::Io`] for checkpoint file I/O
/// failures.
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

    let (start, mut aggregate) = match &config.checkpoint {
        Some(path) if path.exists() => {
            let cp = Checkpoint::load(path)?;
            cp.validate_against(spec, config.shard_size)?;
            (cp.shards_done, cp.aggregate)
        }
        _ => (0, FleetAggregate::new(spec)),
    };
    if start >= shards_total || config.max_shards.is_some_and(|m| m == 0) {
        return Ok(FleetOutcome {
            aggregate,
            shards_done: start,
            shards_total,
            resumed_from: start,
        });
    }
    let limit = config.max_shards.map(|m| start.saturating_add(m));

    let engine = Engine {
        spec,
        processor: Processor::ideal_continuous(),
        sim_config: SimConfig::new(spec.horizon)
            .map_err(|e| FleetError::Spec(format!("horizon rejected: {e}")))?,
    };

    let mut done = start;
    let mut error: Option<FleetError> = None;
    let every = config.checkpoint_every.max(1);
    let merged = run_sharded_streaming(
        start..shards_total,
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
        |s, local| {
            if let Err(e) = aggregate.merge(&local) {
                error = Some(e);
                return ControlFlow::Break(());
            }
            done = s + 1;
            let at_limit = limit.is_some_and(|l| done >= l);
            let finished = done == shards_total;
            if let Some(path) = &config.checkpoint {
                if (done - start) % every == 0 || at_limit || finished {
                    if let Err(e) =
                        Checkpoint::save(path, spec, config.shard_size, done, &aggregate)
                    {
                        error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
            }
            if at_limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    if let Some(e) = error {
        return Err(e);
    }
    debug_assert_eq!(done, start + merged);
    Ok(FleetOutcome {
        aggregate,
        shards_done: done,
        shards_total,
        resumed_from: start,
    })
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
            ..FleetConfig::default()
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
    fn max_shards_stops_early() {
        let spec = small_spec("cc-edf", 13);
        let config = FleetConfig {
            shard_size: 4,
            threads: Some(1),
            max_shards: Some(2),
            ..FleetConfig::default()
        };
        let out = run_fleet(&spec, &config).expect("fleet runs");
        assert!(!out.complete());
        assert_eq!(out.shards_done, 2);
        assert_eq!(out.aggregate.nodes, 8);
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

    /// A checkpoint path private to one test of this process.
    fn temp_checkpoint(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "stadvs-fleet-engine-{name}-{}.json",
            std::process::id()
        ))
    }

    /// The tiny fleet cut into shards of 4, merging at most one shard per
    /// call, checkpointed at `path`.
    fn one_shard_at_a_time(path: &std::path::Path) -> FleetConfig {
        FleetConfig {
            shard_size: 4,
            threads: Some(1),
            checkpoint: Some(path.to_path_buf()),
            max_shards: Some(1),
            ..FleetConfig::default()
        }
    }

    /// The text of the tiny fleet's checkpoint after its first shard.
    fn first_shard_checkpoint(spec: &FleetSpec, path: &std::path::Path) -> String {
        let _ = std::fs::remove_file(path);
        run_fleet(spec, &one_shard_at_a_time(path)).expect("first shard runs");
        std::fs::read_to_string(path).expect("checkpoint written")
    }

    /// Events have no bound a checkpoint can be checked against, so a
    /// total at `u64::MAX` passes validation; the resumed merge must then
    /// refuse it, not panic on the overflow (dev) or wrap (release).
    #[test]
    fn resuming_an_event_total_at_the_limit_is_refused() {
        let spec = FleetSpec::tiny(9);
        let path = temp_checkpoint("events");
        let text = first_shard_checkpoint(&spec, &path);
        let totals = text.lines().nth(1).expect("a totals line");
        let start = totals.find("\"events\": ").expect("an events total") + 10;
        let len = totals[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("the total ends");
        let edited = text.replacen(
            totals,
            &format!("{}{}{}", &totals[..start], u64::MAX, &totals[start + len..]),
            1,
        );
        std::fs::write(&path, edited).expect("checkpoint rewritten");
        let resumed = run_fleet(&spec, &one_shard_at_a_time(&path));
        let _ = std::fs::remove_file(&path);
        match resumed {
            Err(FleetError::Checkpoint(msg)) => assert!(msg.contains("event"), "{msg}"),
            other => panic!("resumed a wrapped event total: {other:?}"),
        }
    }

    /// Property: a corrupt checkpoint that parses is resumed to `Ok` or a
    /// typed error, never a panic. Each case applies one corruption to
    /// the tiny fleet's first-shard checkpoint: a truncation, one digit
    /// replaced by another digit or by `u64::MAX`, or one byte replaced by
    /// another printable ASCII byte. The runner reports a panic inside
    /// `run_fleet` with its case seed.
    #[test]
    fn corrupt_checkpoints_resume_or_fail_typed() {
        let spec = FleetSpec::tiny(9);
        let path = temp_checkpoint("corrupt");
        let text = first_shard_checkpoint(&spec, &path);
        assert!(text.is_ascii(), "byte edits below keep the text UTF-8");
        let digits: Vec<usize> = text
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let len = text.len() as u64;
        stadvs_sim::rng::check("corrupt_checkpoints_resume_or_fail_typed", 256, |rng| {
            let corrupted = match rng.below(3) {
                0 => text[..rng.below(len + 1) as usize].to_string(),
                1 => {
                    let at = digits[rng.below(digits.len() as u64) as usize];
                    let with = if rng.below(2) == 0 {
                        let old = u64::from(text.as_bytes()[at] - b'0');
                        ((old + 1 + rng.below(9)) % 10).to_string()
                    } else {
                        u64::MAX.to_string()
                    };
                    format!("{}{with}{}", &text[..at], &text[at + 1..])
                }
                _ => {
                    let mut bytes = text.clone().into_bytes();
                    let at = rng.below(len) as usize;
                    // Another of the 95 printable ASCII bytes.
                    let mut byte = b' ' + rng.below(95) as u8;
                    if byte == bytes[at] {
                        byte = if byte == b'~' { b' ' } else { byte + 1 };
                    }
                    bytes[at] = byte;
                    String::from_utf8(bytes).map_err(|e| e.to_string())?
                }
            };
            if Checkpoint::parse(&corrupted).is_err() {
                return Ok(());
            }
            std::fs::write(&path, &corrupted).map_err(|e| e.to_string())?;
            match run_fleet(&spec, &one_shard_at_a_time(&path)) {
                Ok(_) | Err(FleetError::Checkpoint(_)) => Ok(()),
                Err(e) => Err(format!("untyped failure: {e}")),
            }
        });
        let _ = std::fs::remove_file(&path);
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
