//! Multiprocessor platform: a fixed set of voltage-scalable cores.
//!
//! The DATE 2002 algorithm is defined on one processor; the canonical
//! multiprocessor extension (Nélis et al., partitioned EDF) keeps every
//! core's frequency state and energy account *independent* — there is no
//! shared voltage rail and no migration. A [`Platform`] is therefore just
//! an ordered, non-empty collection of [`Processor`]s, and a
//! [`PlatformEnergy`] is the per-core [`EnergyBreakdown`]s plus their sum.

use crate::energy::EnergyBreakdown;
use crate::error::PowerError;
use crate::processor::Processor;

/// A fixed multiprocessor platform.
///
/// Cores are identified by their index (`0..len()`); each core scales its
/// voltage/frequency independently of every other core. A platform with
/// one core is exactly the uniprocessor model of the paper.
///
/// ```
/// use stadvs_power::{Platform, Processor};
///
/// # fn main() -> Result<(), stadvs_power::PowerError> {
/// let quad = Platform::homogeneous(4, Processor::ideal_continuous())?;
/// assert_eq!(quad.len(), 4);
/// assert_eq!(quad.core(0).name(), quad.core(3).name());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    cores: Vec<Processor>,
}

impl Platform {
    /// Creates a platform from explicit (possibly heterogeneous) cores.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyPlatform`] if `cores` is empty.
    pub fn new(cores: Vec<Processor>) -> Result<Platform, PowerError> {
        if cores.is_empty() {
            return Err(PowerError::EmptyPlatform);
        }
        Ok(Platform { cores })
    }

    /// Creates an identical-multiprocessor platform: `count` copies of
    /// `core`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::EmptyPlatform`] if `count` is zero.
    pub fn homogeneous(count: usize, core: Processor) -> Result<Platform, PowerError> {
        if count == 0 {
            return Err(PowerError::EmptyPlatform);
        }
        Ok(Platform {
            cores: vec![core; count],
        })
    }

    /// A single-core platform (the paper's uniprocessor model).
    pub fn uniprocessor(core: Processor) -> Platform {
        Platform { cores: vec![core] }
    }

    /// The cores, indexable by core id.
    pub fn cores(&self) -> &[Processor] {
        &self.cores
    }

    /// The core with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn core(&self, index: usize) -> &Processor {
        &self.cores[index]
    }

    /// Number of cores (always at least 1).
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the platform has no cores (never true for a constructed
    /// platform; provided for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// A short human-readable description, e.g. `4x ideal-continuous`.
    pub fn describe(&self) -> String {
        let first = self.cores[0].name();
        if self.cores.iter().all(|c| c.name() == first) {
            format!("{}x {}", self.cores.len(), first)
        } else {
            let names: Vec<&str> = self.cores.iter().map(Processor::name).collect();
            names.join("+")
        }
    }
}

impl From<Processor> for Platform {
    /// The one-core platform of `core` ([`Platform::uniprocessor`]).
    fn from(core: Processor) -> Platform {
        Platform::uniprocessor(core)
    }
}

/// Platform-level energy account: the per-core breakdowns and switch
/// counts of one multiprocessor run.
///
/// Under partitioned scheduling every core integrates its own dynamic,
/// idle, and transition energy with its own [`crate::EnergyAccumulator`];
/// the platform total is the plain sum — there is no shared component.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlatformEnergy {
    per_core: Vec<EnergyBreakdown>,
    per_core_switches: Vec<u64>,
}

impl PlatformEnergy {
    /// Builds the account from per-core `(breakdown, switch count)` pairs
    /// in core order.
    pub fn from_cores(cores: Vec<(EnergyBreakdown, u64)>) -> PlatformEnergy {
        let (per_core, per_core_switches) = cores.into_iter().unzip();
        PlatformEnergy {
            per_core,
            per_core_switches,
        }
    }

    /// Per-core energy breakdowns, in core order.
    pub fn per_core(&self) -> &[EnergyBreakdown] {
        &self.per_core
    }

    /// Per-core speed-switch counts, in core order.
    pub fn per_core_switches(&self) -> &[u64] {
        &self.per_core_switches
    }

    /// The component-wise sum over all cores.
    pub fn aggregate(&self) -> EnergyBreakdown {
        let mut sum = EnergyBreakdown::default();
        for b in &self.per_core {
            sum.active += b.active;
            sum.idle += b.idle;
            sum.transition += b.transition;
        }
        sum
    }

    /// Total platform energy in joules.
    pub fn total(&self) -> f64 {
        self.aggregate().total()
    }

    /// Total speed switches across all cores.
    pub fn switches(&self) -> u64 {
        self.per_core_switches.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_platform_has_identical_cores() {
        let p = Platform::homogeneous(4, Processor::ideal_continuous()).unwrap();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        for c in p.cores() {
            assert_eq!(c.name(), p.core(0).name());
        }
        assert_eq!(p.describe(), format!("4x {}", p.core(0).name()));
    }

    #[test]
    fn empty_platforms_are_rejected() {
        assert_eq!(
            Platform::homogeneous(0, Processor::ideal_continuous()).unwrap_err(),
            PowerError::EmptyPlatform
        );
        assert_eq!(
            Platform::new(vec![]).unwrap_err(),
            PowerError::EmptyPlatform
        );
    }

    #[test]
    fn uniprocessor_is_one_core() {
        let p = Platform::uniprocessor(Processor::strongarm_class());
        assert_eq!(p.len(), 1);
        assert_eq!(p.describe(), format!("1x {}", p.core(0).name()));
        assert_eq!(Platform::from(Processor::strongarm_class()), p);
    }

    #[test]
    fn heterogeneous_describe_joins_names() {
        let p = Platform::new(vec![
            Processor::ideal_continuous(),
            Processor::strongarm_class(),
        ])
        .unwrap();
        assert!(p.describe().contains('+'));
    }

    #[test]
    fn platform_energy_sums_components() {
        let a = EnergyBreakdown {
            active: 1.0,
            idle: 0.5,
            transition: 0.25,
        };
        let b = EnergyBreakdown {
            active: 2.0,
            idle: 0.0,
            transition: 0.75,
        };
        let e = PlatformEnergy::from_cores(vec![(a, 3), (b, 7)]);
        let sum = e.aggregate();
        assert!((sum.active - 3.0).abs() < 1e-12);
        assert!((sum.idle - 0.5).abs() < 1e-12);
        assert!((sum.transition - 1.0).abs() < 1e-12);
        assert!((e.total() - 4.5).abs() < 1e-12);
        assert_eq!(e.switches(), 10);
        assert_eq!(e.per_core().len(), 2);
        assert_eq!(e.per_core_switches(), &[3, 7]);
    }
}
