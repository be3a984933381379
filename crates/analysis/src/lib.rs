//! # stadvs-analysis — schedulability and clairvoyant bounds
//!
//! The off-line analysis of the `stadvs` reproduction (the run referee is
//! `stadvs_sim::audit_outcome`):
//!
//! * [`edf_schedulable`] / [`dbf`] — EDF schedulability at full speed
//!   (utilization bound for implicit deadlines, demand-bound function and
//!   QPA for constrained deadlines),
//! * [`materialize_jobs`] — the exact, deterministic job list a simulation
//!   will execute (the clairvoyant view),
//! * [`yds_schedule`] / [`optimal_static_speed`] — the Yao–Demers–Shenker
//!   optimal offline voltage schedule and the oracle static speed, the
//!   lower bounds every on-line governor is measured against,
//! * [`NeumaierSum`] / [`compensated_sum`] — error-compensated f64
//!   accumulation in a pinned order, mergeable across shards without
//!   breaking bit-identical replay (DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Compiler-checked domain lints (DESIGN.md §8): exact float compares,
// panics, wildcard enum arms in library code; tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm
    )
)]

mod accum;
mod jobs;
mod response;
mod schedulability;
mod static_speed;
mod yds;

pub use accum::{compensated_sum, NeumaierSum};
pub use jobs::{due_within, materialize_jobs, JobInstance};
pub use response::{response_profile, TaskResponse};
pub use schedulability::{busy_period, dbf, edf_schedulable, SchedulabilityTest};
pub use static_speed::minimum_static_speed;
pub use yds::{optimal_static_speed, yds_schedule, SpeedBlock, SpeedSchedule, WorkKind};
