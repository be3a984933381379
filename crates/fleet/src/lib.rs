//! # stadvs-fleet — the fleet-scale streaming sweep engine
//!
//! Sweeps 10⁴–10⁶ parameterized task-set simulations ("nodes") as a
//! streaming pipeline in memory bounded independent of fleet size:
//!
//! * [`FleetSpec`] — a deterministic parameter grid (utilization ×
//!   period spread × governor × replication). Every node's seed is
//!   derived from the master seed and the node index alone
//!   ([`node_seed`]), so any node is reproducible in isolation.
//! * [`run_fleet`] — sharded execution over
//!   `stadvs_experiments::shard::run_sharded_streaming`: workers reuse
//!   one `SimScratch` each, aggregate shard-locally, and the shard
//!   results merge in shard-index order — aggregates are bit-identical
//!   for any thread count or schedule.
//! * [`FleetAggregate`] / [`QuantileSketch`] — online aggregation in
//!   O(1) memory per metric: Neumaier-compensated per-cell sums (the
//!   `stadvs_analysis::compensated_sum` discipline, held incrementally)
//!   and fixed-bucket quantile sketches per governor. No per-node result
//!   rows exist anywhere on this path.
//! * [`Checkpoint`] — a versioned, self-describing resume format. f64
//!   state round-trips as IEEE bit patterns, so a killed sweep resumed
//!   from its checkpoint finishes bit-identical to an uninterrupted one.
//! * [`fleet_table`] — renders the merged aggregate as the golden-pinned
//!   `fleet` experiment family table.
//!
//! The crate is determinism-bound (DESIGN.md §12/§13): no wall clock, no
//! unseeded randomness, no hash-order iteration. Throughput measurement
//! lives in `stadvs-bench`/`stadvs-cli`, which time around this engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Compiler-checked domain lint (DESIGN.md §8): exact float compares in
// library code; tests are exempt.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod agg;
mod checkpoint;
mod engine;
mod family;
mod seed;
mod sketch;
mod spec;

pub use agg::{CellStats, FleetAggregate, NodeOutcome, SKETCH_BUCKETS, SKETCH_HI, SKETCH_LO};
pub use checkpoint::Checkpoint;
pub use engine::{run_fleet, FleetConfig, FleetOutcome};
pub use family::fleet_table;
pub use seed::node_seed;
pub use sketch::{NeumaierSum, QuantileSketch, SketchState};
pub use spec::{FleetSpec, NodeParams, PeriodSpread};

use std::fmt;

/// Errors of the fleet engine: invalid specs, I/O on checkpoint files,
/// and malformed or mismatched checkpoints.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet spec is invalid (empty axis, unknown governor, …).
    Spec(String),
    /// Reading or writing a checkpoint file failed.
    Io(std::io::Error),
    /// A checkpoint file is malformed or does not match the spec.
    Checkpoint(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spec(msg) => write!(f, "invalid fleet spec: {msg}"),
            FleetError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            FleetError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}
