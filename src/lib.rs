//! # stadvs — slack-time-analysis DVS for EDF hard real-time systems
//!
//! Umbrella crate re-exporting the whole `stadvs` workspace: a
//! production-quality reproduction of the DATE 2002 paper *"A Dynamic Voltage
//! Scaling Algorithm for Dynamic-Priority Hard Real-Time Systems Using Slack
//! Time Analysis"*.
//!
//! * [`power`] — variable-voltage processor, power, and energy models,
//! * [`sim`] — event-driven preemptive EDF scheduler and DVS simulator,
//!   and the referee that audits its runs,
//! * [`workload`] — task-set and execution-time generators,
//! * [`analysis`] — schedulability, clairvoyant bounds, compensated sums,
//! * [`baselines`] — published baseline governors (ccEDF, laEDF, lppsEDF,
//!   DRA, …),
//! * [`core`] — the paper's contribution: the slack-time-analysis governor,
//! * [`experiments`] — the harness regenerating every figure and table.
//!
//! See `examples/quickstart.rs` for a five-minute tour and [`theory`] for
//! the safety arguments behind the slack analysis.

#![forbid(unsafe_code)]
// Compiler-checked domain lint (DESIGN.md §8): exact float compares in
// library code; tests are exempt.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub mod theory;

pub use stadvs_analysis as analysis;
pub use stadvs_baselines as baselines;
pub use stadvs_core as core;
pub use stadvs_experiments as experiments;
pub use stadvs_power as power;
pub use stadvs_sim as sim;
pub use stadvs_workload as workload;

/// Convenience prelude importing the names used by almost every program.
pub mod prelude {
    pub use stadvs_analysis::{
        edf_schedulable, minimum_static_speed, response_profile, SchedulabilityTest,
    };
    pub use stadvs_baselines::{CcEdf, Dra, FeedbackEdf, LaEdf, LppsEdf, NoDvs, StaticEdf};
    pub use stadvs_core::{SlackEdf, SlackEdfConfig};
    pub use stadvs_power::{Processor, Speed};
    pub use stadvs_sim::{
        audit_outcome, render_gantt, FaultPlan, Governor, MissPolicy, SimConfig, Simulator, Task,
        TaskSet,
    };
    pub use stadvs_workload::{DemandPattern, ExecutionModel, TaskSetSpec};
}
