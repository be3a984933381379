//! # stadvs-power — variable-voltage processor, power, and energy models
//!
//! This crate is the *hardware substrate* of the `stadvs` reproduction of the
//! DATE 2002 paper *"A Dynamic Voltage Scaling Algorithm for Dynamic-Priority
//! Hard Real-Time Systems Using Slack Time Analysis"*. It models a
//! voltage/frequency-scalable processor of the class that paper targets:
//!
//! * a normalized [`Speed`] in `(0, 1]` (1.0 = maximum frequency),
//! * a [`FrequencyModel`] that is either continuous within a range or a set of
//!   discrete [`OperatingPoint`]s (speed quantized *up* for hard guarantees),
//! * a [`VoltageMap`] giving the minimum supply voltage that sustains a speed,
//! * a [`PowerModel`] (`P = C_eff · V² · f` CMOS dynamic power, or a simple
//!   polynomial), plus idle and always-on static power,
//! * a [`TransitionOverhead`] charging both wall-clock latency and energy per
//!   speed switch (e.g. the `η·C_DD·|V₁²−V₂²|` capacitive model),
//! * an [`EnergyAccumulator`] that integrates a schedule's energy.
//!
//! Ready-made [`Processor`] profiles mirror the processor classes used by the
//! 2002-era DVS literature (StrongARM SA-1100-class, Intel XScale-class,
//! Transmeta Crusoe-class) plus an ideal continuous processor.
//!
//! ```
//! use stadvs_power::{Processor, Speed};
//!
//! # fn main() -> Result<(), stadvs_power::PowerError> {
//! let cpu = Processor::ideal_continuous();
//! let half = cpu.quantize_up(Speed::new(0.5)?);
//! // At half speed an ideal cubic processor draws 1/8 of full power:
//! let p = cpu.power_model().active_power(half);
//! assert!((p - 0.125).abs() < 1e-12);
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

mod energy;
mod error;
mod freq_model;
mod overhead;
mod platform;
mod power_model;
mod processor;
mod speed;
mod voltage;

pub use energy::{EnergyAccumulator, EnergyBreakdown};
pub use error::PowerError;
pub use freq_model::{FrequencyModel, OperatingPoint};
pub use overhead::{TransitionEnergy, TransitionOverhead};
pub use platform::{Platform, PlatformEnergy};
pub use power_model::{PowerKind, PowerModel};
pub use processor::Processor;
pub use speed::Speed;
pub use voltage::VoltageMap;
