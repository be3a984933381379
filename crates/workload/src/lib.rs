//! # stadvs-workload — task-set and execution-time workload generation
//!
//! Generates the workloads the DVS-EDF evaluation literature uses:
//!
//! * [`uunifast`] / [`uunifast_capped`] — unbiased utilization splitting,
//! * [`PeriodGenerator`] — log-uniform / menu / harmonic period draws,
//! * [`TaskSetSpec`] — a seeded, fully reproducible task-set recipe,
//! * [`ModelMix`] — positional assignment of weakly-hard, sporadic, and
//!   frame task models within a generated set,
//! * [`ExecutionModel`] + [`DemandPattern`] — deterministic per-job actual
//!   demand (uniform BCET/WCET, clamped normal, bimodal, sinusoidal drift,
//!   bursty phases),
//! * [`RecordedDemand`] — replay of captured per-job demand traces,
//! * [`Partitioner`] ([`FirstFitDecreasing`] / [`WorstFitDecreasing`]) —
//!   partitioned-EDF task-to-core assignment with [`PartitionReport`],
//! * [`mod@reference`] — the CNC, INS, and generic-avionics task sets.
//!
//! Everything is deterministic given its seed, so the same workload can be
//! replayed under every governor and inspected by clairvoyant analyses.
//!
//! ```
//! use stadvs_workload::{ExecutionModel, TaskSetSpec};
//!
//! # fn main() -> Result<(), stadvs_workload::WorkloadError> {
//! let tasks = TaskSetSpec::new(8, 0.7)?.with_seed(1).generate()?;
//! let demand = ExecutionModel::uniform_bcet(0.5)?.with_seed(1);
//! assert_eq!(tasks.len(), 8);
//! # let _ = demand;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Compiler-checked domain lint (DESIGN.md §8): exact float compares in
// library code; tests are exempt.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod error;
mod exec_model;
mod faults;
mod partition;
mod periods;
mod recorded;
pub mod reference;
mod spec;
mod uunifast;

pub use error::WorkloadError;
pub use exec_model::{DemandPattern, ExecutionModel};
pub use faults::{FaultPlanSpec, JitterSpec, OverrunSpec};
pub use partition::{
    partitioner_by_name, CoreAssignment, CoreDemand, FirstFitDecreasing, PartitionReport,
    Partitioner, WorstFitDecreasing, EDF_BOUND,
};
pub use periods::PeriodGenerator;
pub use recorded::RecordedDemand;
pub use spec::{ModelMix, TaskSetSpec};
pub use uunifast::{uunifast, uunifast_capped};
