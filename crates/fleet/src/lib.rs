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
//!   results merge in shard-index order, so the thread count and the
//!   schedule never change a result bit.
//! * [`FleetAggregate`] / [`QuantileSketch`] — online aggregation in
//!   O(1) memory per metric: Neumaier-compensated per-cell sums (the
//!   `stadvs_analysis::compensated_sum` discipline, held incrementally)
//!   and fixed-bucket quantile sketches per governor. No per-node result
//!   rows exist anywhere on this path.
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
mod engine;
mod family;
mod seed;
mod sketch;
mod spec;

pub use agg::{CellStats, FleetAggregate, NodeOutcome, SKETCH_BUCKETS, SKETCH_HI, SKETCH_LO};
pub use engine::{run_fleet, FleetConfig, FleetOutcome};
pub use family::fleet_table;
pub use seed::node_seed;
pub use sketch::{NeumaierSum, QuantileSketch};
pub use spec::{FleetSpec, NodeParams, PeriodSpread};

use std::fmt;

/// Errors of the fleet engine.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet spec is invalid (empty axis, unknown governor, …).
    Spec(String),
    /// Merging a shard would carry the named open-ended total (misses,
    /// events or jobs) past `u64::MAX`.
    Overflow(&'static str),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spec(msg) => write!(f, "invalid fleet spec: {msg}"),
            FleetError::Overflow(what) => write!(f, "merged {what} total passes u64::MAX"),
        }
    }
}

impl std::error::Error for FleetError {}
