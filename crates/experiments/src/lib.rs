//! # stadvs-experiments — the evaluation harness
//!
//! Regenerates every figure and table of the reproduced evaluation (see
//! `DESIGN.md` §4 for the experiment index):
//!
//! * [`Comparison`] — run many governors on identical, seeded workloads
//!   (in parallel across cases) on a platform, one fresh governor
//!   instance per core, and aggregate energy normalized to `no-dvs`,
//!   switch counts, and deadline misses; a [`WorkloadCase`] runs on a
//!   one-core platform, a [`PlatformWorkload`] (a union workload and its
//!   partition) on an N-core one,
//! * [`experiments`] — one module per figure/table, each returning a
//!   [`Table`]; [`experiments::all`] is the registry `stadvs experiments`
//!   iterates,
//! * [`shard`] — deterministic sharded execution (shard-local work,
//!   ordered merge) shared by the runner above and the fleet-scale sweep
//!   engine in `stadvs-fleet`,
//! * [`Table`] — markdown and CSV rendering,
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

pub mod experiments;
pub mod golden;
mod governors;
mod runner;
pub mod shard;
mod table;

pub use governors::{
    capable_lineup, governor_caps, governor_entry, governor_supports_jitter, jitter_safe_lineup,
    make_governor, required_caps, GovernorCaps, GovernorEntry, GOVERNORS, STANDARD_LINEUP,
};
pub use runner::{
    AggregatedOutcome, Comparison, GovernorOutcome, PlatformWorkload, WorkloadCase, ORACLE,
    YDS_BOUND,
};
pub use table::Table;
