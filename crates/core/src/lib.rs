//! # stadvs-core — the slack-time-analysis DVS governor (the contribution)
//!
//! The reproduction target: *"A Dynamic Voltage Scaling Algorithm for
//! Dynamic-Priority Hard Real-Time Systems Using Slack Time Analysis"*
//! (DATE 2002). At every EDF scheduling point the governor analyses how
//! much slack the dispatched job may safely consume and slows the
//! processor so the job's remaining worst case exactly fits — while every
//! deadline remains guaranteed.
//!
//! * [`SlackLedger`] — deadline-tagged slack bookkeeping,
//! * [`sources`] — the three slack sources (reclaimed earliness, arrival
//!   stretching, look-ahead demand analysis) with their safety arguments,
//! * [`SlackEdf`] + [`SlackEdfConfig`] — the composed governor, its
//!   ablation variants, the overhead-aware mode, the leakage-aware
//!   critical-speed floor, and PACE-style intra-job acceleration,
//! * [`pace`] — the closed-form accelerating step schedule.
//!
//! ```
//! use stadvs_core::{SlackEdf, SlackEdfConfig};
//!
//! let full = SlackEdf::new();
//! assert_eq!(full.name(), "st-edf");
//! let ablation = SlackEdf::with_config(SlackEdfConfig::reclaiming_only());
//! assert_eq!(ablation.name(), "st-edf[r]");
//! # use stadvs_sim::Governor as _;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Compiler-checked domain lints (DESIGN.md §8): exact float compares,
// panics, wildcard enum arms and `as` casts in library code; tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::wildcard_enum_match_arm,
        clippy::as_conversions
    )
)]

mod config;
mod ledger;
mod num;
pub mod pace;
mod slack_edf;
pub mod sources;

pub use config::SlackEdfConfig;
pub use ledger::SlackLedger;
pub use slack_edf::SlackEdf;
