//! Complete processor profiles.

use crate::{
    EnergyAccumulator, FrequencyModel, OperatingPoint, PowerError, PowerKind, PowerModel, Speed,
    TransitionEnergy, TransitionOverhead, VoltageMap,
};

/// A complete variable-voltage processor: which speeds exist, what they cost,
/// and what a speed switch costs.
///
/// Construct one of the ready-made profiles, or assemble a custom processor
/// with [`Processor::new`].
///
/// ```
/// use stadvs_power::Processor;
///
/// let cpu = Processor::xscale_class();
/// assert_eq!(cpu.frequency_model().levels(), Some(5));
/// assert!(!cpu.name().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    name: String,
    frequency_model: FrequencyModel,
    power_model: PowerModel,
    overhead: TransitionOverhead,
}

/// Unwraps a preset-catalog component. The ready-made profiles below are
/// built from compile-time constant tables, each exercised by the catalog
/// unit tests; a failure here is a broken constant, not a runtime
/// condition, so the panic path is sanctioned in this one place.
#[expect(
    clippy::expect_used,
    reason = "single sanctioned site for constant catalogs"
)]
fn preset<T>(component: Result<T, PowerError>) -> T {
    component.expect("preset catalog constant is valid")
}

impl Processor {
    /// Assembles a custom processor.
    pub fn new(
        name: impl Into<String>,
        frequency_model: FrequencyModel,
        power_model: PowerModel,
        overhead: TransitionOverhead,
    ) -> Processor {
        Processor {
            name: name.into(),
            frequency_model,
            power_model,
            overhead,
        }
    }

    /// The idealized processor used for the paper family's synthetic
    /// experiments: continuous speeds in `[0.05, 1]`, normalized cubic power
    /// (`P(s) = s³`), zero idle power, free speed switches.
    pub fn ideal_continuous() -> Processor {
        Processor {
            name: "ideal-continuous".to_string(),
            frequency_model: FrequencyModel::continuous(preset(Speed::new(0.05))),
            power_model: PowerModel::normalized_cubic(),
            overhead: TransitionOverhead::free(),
        }
    }

    /// An ideal continuous processor with the given speed floor.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidSpeed`] if `min_speed` is not in `(0, 1]`.
    pub fn ideal_continuous_with_floor(min_speed: f64) -> Result<Processor, PowerError> {
        Ok(Processor {
            name: format!("ideal-continuous-floor-{min_speed}"),
            frequency_model: FrequencyModel::continuous(Speed::new(min_speed)?),
            power_model: PowerModel::normalized_cubic(),
            overhead: TransitionOverhead::free(),
        })
    }

    /// A synthetic discrete processor with `levels` uniformly spaced speeds,
    /// a proportional-with-floor voltage curve, and CMOS power. Used for the
    /// level-count sensitivity experiment (`fig4_levels`).
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `levels == 0`.
    pub fn uniform_discrete(levels: usize) -> Result<Processor, PowerError> {
        let voltage = VoltageMap::affine(0.8, 1.8)?;
        let volt = voltage.clone();
        let frequency_model =
            FrequencyModel::uniform_levels(levels, 1.0e9, move |s| volt.voltage_at(s))?;
        // Normalize so that full-speed power is 1 W: C_eff·V_max²·f_max = 1.
        let c_eff = 1.0 / (voltage.v_max() * voltage.v_max() * 1.0e9);
        let power_model = PowerModel::new(
            PowerKind::Cmos {
                c_eff,
                f_max_hz: 1.0e9,
                voltage,
            },
            0.0,
            0.0,
        )?;
        Ok(Processor {
            name: format!("uniform-discrete-{levels}"),
            frequency_model,
            power_model,
            overhead: TransitionOverhead::free(),
        })
    }

    /// A StrongARM SA-1100-class processor: 11 levels from 59 MHz to
    /// 206 MHz, supply voltage 0.8–1.5 V, 140 µs synchronous switch latency.
    /// Values follow the figures quoted for that chip in the DVS literature.
    pub fn strongarm_class() -> Processor {
        let f_max = 206.0e6;
        let mut points = Vec::new();
        let levels = 11usize;
        for i in 0..levels {
            let f = 59.0e6 + (f_max - 59.0e6) * i as f64 / (levels - 1) as f64;
            let ratio = f / f_max;
            let v = 0.8 + (1.5 - 0.8) * (i as f64 / (levels - 1) as f64);
            points.push(OperatingPoint {
                speed: preset(Speed::new(ratio.min(1.0))),
                frequency_hz: f,
                voltage: v,
            });
        }
        let voltage = preset(VoltageMap::table(
            points
                .iter()
                .map(|p| (p.speed.ratio(), p.voltage))
                .collect(),
        ));
        let c_eff = 1.0 / (1.5 * 1.5 * f_max); // full-speed power normalized to 1 W
        Processor {
            name: "strongarm-sa1100-class".to_string(),
            frequency_model: preset(FrequencyModel::discrete(points)),
            power_model: preset(PowerModel::new(
                PowerKind::Cmos {
                    c_eff,
                    f_max_hz: f_max,
                    voltage: voltage.clone(),
                },
                0.02,
                0.0,
            )),
            overhead: preset(TransitionOverhead::new(
                140.0e-6,
                TransitionEnergy::CapacitiveSwing {
                    eta: 0.9,
                    c_dd: 5.0e-6,
                    voltage,
                },
            )),
        }
    }

    /// An Intel XScale-class processor with the 5-point table that circulates
    /// in the DVS literature: (150 MHz, 0.75 V), (400, 1.0), (600, 1.3),
    /// (800, 1.6), (1000, 1.8); 20 µs switch latency.
    pub fn xscale_class() -> Processor {
        let f_max = 1000.0e6;
        let table: [(f64, f64); 5] = [
            (150.0e6, 0.75),
            (400.0e6, 1.0),
            (600.0e6, 1.3),
            (800.0e6, 1.6),
            (1000.0e6, 1.8),
        ];
        let points: Vec<OperatingPoint> = table
            .iter()
            .map(|&(f, v)| OperatingPoint {
                speed: preset(Speed::new(f / f_max)),
                frequency_hz: f,
                voltage: v,
            })
            .collect();
        let voltage = preset(VoltageMap::table(
            points
                .iter()
                .map(|p| (p.speed.ratio(), p.voltage))
                .collect(),
        ));
        let c_eff = 1.0 / (1.8 * 1.8 * f_max);
        Processor {
            name: "xscale-class".to_string(),
            frequency_model: preset(FrequencyModel::discrete(points)),
            power_model: preset(PowerModel::new(
                PowerKind::Cmos {
                    c_eff,
                    f_max_hz: f_max,
                    voltage: voltage.clone(),
                },
                0.05,
                0.0,
            )),
            overhead: preset(TransitionOverhead::new(
                20.0e-6,
                TransitionEnergy::CapacitiveSwing {
                    eta: 0.9,
                    c_dd: 5.0e-6,
                    voltage,
                },
            )),
        }
    }

    /// A Transmeta Crusoe-class processor: (300 MHz, 1.2 V), (400, 1.225),
    /// (500, 1.35), (600, 1.5), (667, 1.6); 30 µs switch latency.
    pub fn crusoe_class() -> Processor {
        let f_max = 667.0e6;
        let table: [(f64, f64); 5] = [
            (300.0e6, 1.2),
            (400.0e6, 1.225),
            (500.0e6, 1.35),
            (600.0e6, 1.5),
            (667.0e6, 1.6),
        ];
        let points: Vec<OperatingPoint> = table
            .iter()
            .map(|&(f, v)| OperatingPoint {
                speed: preset(Speed::new((f / f_max).min(1.0))),
                frequency_hz: f,
                voltage: v,
            })
            .collect();
        let voltage = preset(VoltageMap::table(
            points
                .iter()
                .map(|p| (p.speed.ratio(), p.voltage))
                .collect(),
        ));
        let c_eff = 1.0 / (1.6 * 1.6 * f_max);
        Processor {
            name: "crusoe-class".to_string(),
            frequency_model: preset(FrequencyModel::discrete(points)),
            power_model: preset(PowerModel::new(
                PowerKind::Cmos {
                    c_eff,
                    f_max_hz: f_max,
                    voltage: voltage.clone(),
                },
                0.03,
                0.0,
            )),
            overhead: preset(TransitionOverhead::new(
                30.0e-6,
                TransitionEnergy::CapacitiveSwing {
                    eta: 0.9,
                    c_dd: 5.0e-6,
                    voltage,
                },
            )),
        }
    }

    /// Returns this processor with a different transition-overhead model
    /// (used by the overhead-sensitivity experiment).
    pub fn with_overhead(mut self, overhead: TransitionOverhead) -> Processor {
        self.overhead = overhead;
        self
    }

    /// Returns this processor with a different power model.
    pub fn with_power_model(mut self, power_model: PowerModel) -> Processor {
        self.power_model = power_model;
        self
    }

    /// The profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The frequency model.
    pub fn frequency_model(&self) -> &FrequencyModel {
        &self.frequency_model
    }

    /// The power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// The speed-switch overhead model.
    pub fn overhead(&self) -> &TransitionOverhead {
        &self.overhead
    }

    /// Shorthand for `self.frequency_model().quantize_up(speed)`.
    pub fn quantize_up(&self, speed: Speed) -> Speed {
        self.frequency_model.quantize_up(speed)
    }

    /// Shorthand for the lowest available speed.
    pub fn min_speed(&self) -> Speed {
        self.frequency_model.min_speed()
    }

    /// Creates an [`EnergyAccumulator`] bound to this processor's models.
    pub fn energy_accumulator(&self) -> EnergyAccumulator {
        EnergyAccumulator::new(self.power_model.clone(), self.overhead.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_profile_is_cubic_and_free() {
        let p = Processor::ideal_continuous();
        assert!(p.overhead().is_free());
        assert_eq!(p.frequency_model().levels(), None);
        let half = Speed::new(0.5).unwrap();
        assert!((p.power_model().active_power(half) - 0.125).abs() < 1e-12);
        assert_eq!(p.quantize_up(half), half);
    }

    #[test]
    fn chip_profiles_are_valid_and_normalized() {
        for p in [
            Processor::strongarm_class(),
            Processor::xscale_class(),
            Processor::crusoe_class(),
        ] {
            assert!(p.frequency_model().levels().unwrap() >= 5);
            // Full-speed dynamic power is normalized to ~1 W.
            let full = p.power_model().active_power(Speed::FULL);
            assert!((full - 1.0).abs() < 0.1, "{}: full power {full}", p.name());
            // Lowest level draws much less than full.
            let low = p.power_model().active_power(p.min_speed());
            assert!(low < 0.5 * full, "{}: low power {low}", p.name());
            // Quantization never goes down.
            for i in 1..=20 {
                let req = Speed::new(i as f64 / 20.0).unwrap();
                assert!(p.quantize_up(req) >= req);
            }
            assert!(!p.overhead().is_free());
        }
    }

    #[test]
    fn uniform_discrete_level_count() {
        let p = Processor::uniform_discrete(8).unwrap();
        assert_eq!(p.frequency_model().levels(), Some(8));
        assert!(Processor::uniform_discrete(0).is_err());
        let full = p.power_model().active_power(Speed::FULL);
        assert!((full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_overhead_replaces_model() {
        let p = Processor::ideal_continuous().with_overhead(
            TransitionOverhead::new(1.0e-3, TransitionEnergy::Constant(1.0e-6)).unwrap(),
        );
        assert_eq!(p.overhead().latency(), 1.0e-3);
    }

    #[test]
    fn xscale_speeds_match_table() {
        let p = Processor::xscale_class();
        let speeds: Vec<f64> = p
            .frequency_model()
            .points()
            .iter()
            .map(|op| op.speed.ratio())
            .collect();
        assert_eq!(speeds, vec![0.15, 0.4, 0.6, 0.8, 1.0]);
    }
}
