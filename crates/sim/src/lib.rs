//! # stadvs-sim — event-driven preemptive EDF scheduler and DVS simulator
//!
//! The simulation substrate of the `stadvs` reproduction of the DATE 2002
//! paper *"A Dynamic Voltage Scaling Algorithm for Dynamic-Priority Hard
//! Real-Time Systems Using Slack Time Analysis"*.
//!
//! * [`Task`] / [`TaskSet`] — periodic hard real-time tasks (WCET, period,
//!   constrained deadline, phase),
//! * [`ExecutionSource`] — deterministic per-job *actual* execution demand,
//! * [`Governor`] — the plug-in interface every DVS algorithm implements;
//!   it sees a non-clairvoyant [`SchedulerView`] at each scheduling point,
//! * [`Simulator`] — the preemptive EDF engine (one core engine stepped
//!   in a plain drive loop): releases, dispatches, preempts, applies
//!   speed changes (with optional transition latency and energy),
//!   integrates energy, and records [`JobRecord`]s and an optional
//!   [`Trace`],
//! * [`SimOutcome`] — energy breakdown, deadline audit, switch counts,
//!   per-core event accounting ([`KernelStats`]),
//! * [`PlatformSim`] — N per-core engines under partitioned multiprocessor
//!   EDF (fresh governor, scratch, and energy account per core; no
//!   migration), aggregated into a [`PlatformOutcome`] — optionally under
//!   a shared power cap ([`BudgetLedger`]), whose drive loop steps the
//!   cores in global wake order.
//! * [`Kernel`] — a discrete-event kernel: one binary heap of typed
//!   [`SimEvent`]s on the total `(time, seq, component)` key, delivered
//!   to pre-registered [`EventHandler`] components. The drive loop
//!   reproduces its delivery order; no simulator runs on it.
//! * [`rng`] — the one seeded random stream every workload draw and
//!   property test derives from, plus the property runner.
//!
//! ```
//! use stadvs_power::{Processor, Speed};
//! use stadvs_sim::{ActiveJob, ConstantRatio, Governor, SchedulerView,
//!                  SimConfig, Simulator, Task, TaskSet};
//!
//! /// The classic static-EDF policy: run at the utilization.
//! struct Static;
//! impl Governor for Static {
//!     fn name(&self) -> &str { "static" }
//!     fn select_speed(&mut self, view: &SchedulerView<'_>, _: &ActiveJob) -> Speed {
//!         Speed::clamped(view.utilization(), view.processor().min_speed())
//!     }
//! }
//!
//! # fn main() -> Result<(), stadvs_sim::SimError> {
//! let tasks = TaskSet::new(vec![Task::new(1.0e-3, 4.0e-3)?, Task::new(1.0e-3, 8.0e-3)?])?;
//! let sim = Simulator::new(tasks, Processor::ideal_continuous(), SimConfig::new(1.0)?)?;
//! let out = sim.run(&mut Static, &ConstantRatio::new(0.6))?;
//! assert!(out.all_deadlines_met());
//! # Ok(())
//! # }
//! ```

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

mod audit;
mod budget;
mod component;
mod error;
mod event;
mod exec;
mod fault;
mod governor;
mod job;
mod kernel;
mod model;
mod outcome;
mod platform_sim;
mod queue;
mod render;
pub mod rng;
mod simulator;
mod task;
mod trace;

pub use audit::{audit_outcome, AuditIssue, AuditReport, MkWindow};
pub use budget::{BudgetLedger, BudgetReport};
pub use error::SimError;
pub use event::{ComponentId, EventKind, QueueStats, SimEvent, EVENT_KINDS};
pub use exec::{ConstantRatio, ExecutionSource, WorstCase};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultReport, OverrunPolicy};
pub use governor::{Governor, SchedulerView};
pub use job::{ActiveJob, JobId, JobRecord};
pub use kernel::{ComponentCtx, EventHandler, Kernel, KernelStats, SharedState};
pub use model::{ModelReport, SkipPolicy};
pub use outcome::{AnalysisStats, SimOutcome};
pub use platform_sim::{PlatformOutcome, PlatformScratch, PlatformSim};
pub use render::render_gantt;
pub use simulator::{MissPolicy, SimConfig, SimScratch, Simulator, TIME_EPS, WORK_EPS};
pub use task::{Task, TaskId, TaskKind, TaskSet};
pub use trace::{Segment, SegmentKind, Trace};
