//! # stadvs-baselines — published baseline DVS-EDF governors
//!
//! The comparator algorithms of the DVS-EDF literature, re-implemented from
//! their published rules:
//!
//! * [`NoDvs`] — full speed always (the normalization baseline),
//! * [`StaticEdf`] — the off-line optimal constant speed `U`,
//! * [`LppsEdf`] — stretch only when a single job is ready (Shin & Choi),
//! * [`CcEdf`] — cycle-conserving utilization tracking (Pillai & Shin),
//! * [`Dra`] — canonical-schedule dynamic reclaiming with an α-queue
//!   (Aydin et al.), optionally with the one-task extension,
//! * [`FeedbackEdf`] — PID-predicted task splitting (Zhu & Mueller),
//! * [`LaEdf`] — look-ahead work deferral (Pillai & Shin),
//! * [`OracleStatic`] — the clairvoyant constant-speed bound (not on-line).
//!
//! Each on-line baseline is selectable by name through the governor table
//! of `stadvs-experiments` (`GOVERNORS`, `make_governor`), one row per
//! governor with its capability flags and a one-sentence deadline-safety
//! argument; each type's docs here keep the full argument.

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

mod cc_edf;
mod dra;
mod feedback_edf;
mod la_edf;
mod lpps_edf;
mod no_dvs;
mod oracle;
mod static_edf;

pub use cc_edf::CcEdf;
pub use dra::Dra;
pub use feedback_edf::FeedbackEdf;
pub use la_edf::LaEdf;
pub use lpps_edf::LppsEdf;
pub use no_dvs::NoDvs;
pub use oracle::OracleStatic;
pub use static_edf::StaticEdf;
