//! # stadvs-experiments — the evaluation harness
//!
//! Regenerates every figure and table of the reproduced evaluation (see
//! `DESIGN.md` §4 for the experiment index):
//!
//! * [`WorkloadCase`] / [`Comparison`] — run many governors on identical,
//!   seeded workloads (in parallel across cases) and aggregate normalized
//!   energy, switch counts, and deadline misses,
//! * [`PlatformWorkload`] / [`PlatformComparison`] — the multiprocessor
//!   siblings: partitioned union workloads on an N-core platform, one
//!   fresh governor instance per core,
//! * [`experiments`] — one module per figure/table, each returning a
//!   [`Table`]; [`experiments::all`] is the registry the bench binaries
//!   iterate,
//! * [`shard`] — deterministic sharded execution (shard-local work,
//!   ordered merge) shared by the runner above and the fleet-scale sweep
//!   engine in `stadvs-fleet`,
//! * [`Table`] — markdown/CSV rendering, [`write_csv`] / [`write_markdown`]
//!   for artifacts.
//! * [`golden`] — the byte-for-byte fixture check behind every golden
//!   test (`STADVS_BLESS=1` re-blesses).
//!
//! ```no_run
//! use stadvs_experiments::experiments::{by_id, RunOptions};
//!
//! let experiment = by_id("fig1_util").expect("registered");
//! let table = (experiment.run)(&RunOptions::quick());
//! println!("{table}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Compiler-checked domain lint (DESIGN.md §8): exact float compares in
// library code; tests are exempt.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod csv;
pub mod experiments;
pub mod golden;
mod governors;
mod runner;
pub mod shard;
mod table;

pub use csv::{write_csv, write_markdown};
pub use governors::{
    capable_lineup, governor_caps, governor_entry, governor_supports_jitter, jitter_safe_lineup,
    make_governor, required_caps, GovernorCaps, GovernorEntry, GOVERNORS, STANDARD_LINEUP,
};
pub use runner::{
    AggregatedOutcome, Comparison, GovernorOutcome, PlatformComparison, PlatformWorkload,
    WorkloadCase, ORACLE, YDS_BOUND,
};
pub use table::Table;
