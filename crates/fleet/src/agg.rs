//! Online fleet aggregation: per-cell compensated sums, per-governor
//! quantile sketches, and fleet-wide totals — all in memory bounded by
//! the grid size, never by the node count.
//!
//! The engine builds one [`FleetAggregate`] per shard (workloads folded
//! in workload order, each workload's nodes in governor order) and merges
//! shards in shard-index order, so the result is bit-identical for any
//! thread count. Every cell and every sketch therefore sees its nodes in
//! node-index order.

use crate::sketch::{NeumaierSum, QuantileSketch};
use crate::spec::FleetSpec;
use crate::FleetError;

/// Lower edge of the normalized-energy sketch range.
pub const SKETCH_LO: f64 = 0.0;
/// Upper edge of the normalized-energy sketch range (normalized energy
/// above `no-dvs` by more than 50 % lands in the overflow counter).
pub const SKETCH_HI: f64 = 1.5;
/// Bucket count of the normalized-energy sketch: width `1/64`, so
/// quantile estimates are exact to within `0.015625`.
pub const SKETCH_BUCKETS: usize = 96;

/// Per-grid-cell statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellStats {
    /// Feasible nodes recorded into this cell.
    pub count: u64,
    /// Nodes whose generated task set was infeasible on the processor.
    pub infeasible: u64,
    /// Deadline misses across the cell's governor runs (must stay zero:
    /// every swept governor is hard-real-time).
    pub misses: u64,
    /// Compensated sum of normalized energy.
    pub norm_sum: NeumaierSum,
    /// Compensated sum of speed switches per completed job.
    pub spj_sum: NeumaierSum,
}

impl CellStats {
    /// Mean normalized energy (NaN when the cell is empty).
    pub fn mean_normalized(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.norm_sum.value() / self.count as f64
        }
    }

    /// Mean switches per job (NaN when the cell is empty).
    pub fn mean_switches_per_job(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.spj_sum.value() / self.count as f64
        }
    }

    /// Folds `other` into this cell.
    pub fn merge(&mut self, other: &CellStats) {
        self.count += other.count;
        self.infeasible += other.infeasible;
        self.misses += other.misses;
        self.norm_sum.merge(&other.norm_sum);
        self.spj_sum.merge(&other.spj_sum);
    }
}

/// Everything one node contributes to its cell and its governor's
/// sketch, as plain `Copy` data. The simulations behind it are counted
/// apart ([`FleetAggregate::record_sim`]): a workload's nodes share one
/// `no-dvs` baseline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutcome {
    /// Flat cell index of the node.
    pub cell: usize,
    /// Governor axis index of the node.
    pub governor: usize,
    /// Energy normalized to `no-dvs` on the same workload.
    pub normalized: f64,
    /// Speed switches per completed job.
    pub switches_per_job: f64,
    /// Deadline misses in the governor run.
    pub misses: u64,
    /// Jobs completed in the governor run.
    pub jobs: u64,
}

/// The streaming aggregate of a fleet sweep.
///
/// All fields are public for readers (the family table, digests over
/// the totals); the engine is the only writer.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    /// One entry per grid cell, indexed by flat cell index.
    pub cells: Vec<CellStats>,
    /// One normalized-energy sketch per governor axis point.
    pub sketches: Vec<QuantileSketch>,
    /// Nodes processed (feasible + infeasible).
    pub nodes: u64,
    /// Nodes whose task set was infeasible.
    pub infeasible: u64,
    /// Total deadline misses.
    pub misses: u64,
    /// Total scheduler events processed, each simulation counted once.
    pub events: u64,
    /// Total jobs completed in governor runs.
    pub jobs: u64,
    /// Total simulations executed: one `no-dvs` baseline per feasible
    /// workload plus one run per other governor of the axis.
    pub sims: u64,
}

impl FleetAggregate {
    /// An empty aggregate shaped for `spec`.
    pub fn new(spec: &FleetSpec) -> FleetAggregate {
        FleetAggregate {
            cells: vec![CellStats::default(); spec.cell_count()],
            sketches: (0..spec.governors.len())
                .map(|_| QuantileSketch::new(SKETCH_LO, SKETCH_HI, SKETCH_BUCKETS))
                .collect(),
            nodes: 0,
            infeasible: 0,
            misses: 0,
            events: 0,
            jobs: 0,
            sims: 0,
        }
    }

    /// Records one feasible node.
    pub fn record(&mut self, o: &NodeOutcome) {
        let cell = &mut self.cells[o.cell];
        cell.count += 1;
        cell.misses += o.misses;
        cell.norm_sum.add(o.normalized);
        cell.spj_sum.add(o.switches_per_job);
        self.sketches[o.governor].record(o.normalized);
        self.nodes += 1;
        self.misses += o.misses;
        self.jobs += o.jobs;
    }

    /// Counts one simulation and the scheduler events it processed.
    pub fn record_sim(&mut self, events: u64) {
        self.sims += 1;
        self.events += events;
    }

    /// Records one node whose generated task set was infeasible (density
    /// above 1 on the ideal processor) and therefore not simulated.
    pub fn record_infeasible(&mut self, cell: usize) {
        self.cells[cell].infeasible += 1;
        self.nodes += 1;
        self.infeasible += 1;
    }

    /// Folds `other` into this aggregate, cell by cell and sketch by
    /// sketch. Callers must present merges in a pinned order (the shard
    /// merge does) for bit-determinism of the f64 sums.
    ///
    /// The node, cell and sketch counters are bounded by the fleet's node
    /// count. Misses, events and jobs are not, so they merge with checked
    /// arithmetic, which refuses a wrapped total in every build profile.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Overflow`], leaving `self` unchanged, if a
    /// miss, event or job total would pass `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if the two aggregates have different shapes.
    pub fn merge(&mut self, other: &FleetAggregate) -> Result<(), FleetError> {
        assert_eq!(self.cells.len(), other.cells.len(), "cell count mismatch");
        assert_eq!(
            self.sketches.len(),
            other.sketches.len(),
            "sketch count mismatch"
        );
        let sum = |a: u64, b: u64, what| a.checked_add(b).ok_or(FleetError::Overflow(what));
        let misses = sum(self.misses, other.misses, "miss")?;
        let events = sum(self.events, other.events, "event")?;
        let jobs = sum(self.jobs, other.jobs, "job")?;
        for (a, b) in self.cells.iter().zip(&other.cells) {
            sum(a.misses, b.misses, "cell miss")?;
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.merge(b);
        }
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge(b);
        }
        self.nodes += other.nodes;
        self.infeasible += other.infeasible;
        self.misses = misses;
        self.events = events;
        self.jobs = jobs;
        self.sims += other.sims;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FleetSpec;

    fn outcome(cell: usize, governor: usize, normalized: f64) -> NodeOutcome {
        NodeOutcome {
            cell,
            governor,
            normalized,
            switches_per_job: normalized * 2.0,
            misses: 0,
            jobs: 10,
        }
    }

    #[test]
    fn shard_merge_equals_sequential_recording() {
        let spec = FleetSpec::tiny(1);
        let outcomes: Vec<NodeOutcome> = (0..200)
            .map(|i| {
                outcome(
                    i % spec.cell_count(),
                    i % spec.governors.len(),
                    0.4 + (i % 7) as f64 * 0.05,
                )
            })
            .collect();

        let mut whole = FleetAggregate::new(&spec);
        for o in &outcomes {
            whole.record(o);
            whole.record_sim(100);
        }

        let mut left = FleetAggregate::new(&spec);
        let mut right = FleetAggregate::new(&spec);
        for o in &outcomes[..77] {
            left.record(o);
            left.record_sim(100);
        }
        for o in &outcomes[77..] {
            right.record(o);
            right.record_sim(100);
        }
        left.merge(&right).unwrap();

        assert_eq!(whole.nodes, left.nodes);
        assert_eq!(whole.events, left.events);
        assert_eq!(whole.sims, left.sims);
        // The merge re-splits each total between `sum` and
        // `compensation`, so the compensated value is what must agree.
        for (a, b) in whole.cells.iter().zip(&left.cells) {
            assert_eq!(a.count, b.count);
            assert_eq!(a.norm_sum.value().to_bits(), b.norm_sum.value().to_bits());
            assert_eq!(a.spj_sum.value().to_bits(), b.spj_sum.value().to_bits());
        }
        for (a, b) in whole.sketches.iter().zip(&left.sketches) {
            assert_eq!(a.count(), b.count());
        }
    }

    #[test]
    fn open_ended_totals_refuse_to_wrap() {
        let spec = FleetSpec::tiny(1);
        let mut agg = FleetAggregate::new(&spec);
        agg.record(&outcome(0, 0, 0.5));
        agg.record_sim(100);
        for what in ["event", "job", "miss", "cell miss"] {
            let mut full = agg.clone();
            match what {
                "event" => full.events = u64::MAX,
                "job" => full.jobs = u64::MAX,
                "miss" => full.misses = u64::MAX,
                _ => full.cells[0].misses = u64::MAX,
            }
            let mut shard = agg.clone();
            shard.misses = 1;
            shard.cells[0].misses = 1;
            let before = full.clone();
            let err = full.merge(&shard).unwrap_err();
            assert!(
                matches!(err, FleetError::Overflow(total) if total == what),
                "{what}: {err}"
            );
            assert_eq!(full, before, "{what}: a refused merge changes nothing");
        }
    }

    #[test]
    fn infeasible_nodes_count_without_stats() {
        let spec = FleetSpec::tiny(1);
        let mut agg = FleetAggregate::new(&spec);
        agg.record_infeasible(3);
        assert_eq!(agg.nodes, 1);
        assert_eq!(agg.infeasible, 1);
        assert_eq!(agg.cells[3].infeasible, 1);
        assert_eq!(agg.cells[3].count, 0);
        assert!(agg.cells[3].mean_normalized().is_nan());
    }
}
