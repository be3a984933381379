//! Energy accounting over a simulated schedule.
//!
//! The accumulator runs once per execution segment of every simulated
//! core, so it evaluates the power curve once per *distinct* speed: it
//! keeps the last `(speed bits, active power)` pair, and a segment at the
//! same operating point reuses the power instead of re-evaluating the
//! curve (a `powf` on the polynomial models). The product is the one
//! [`PowerModel::active_energy`] computes, so every energy bit is the
//! same as evaluating the model per segment.

use std::fmt;

use crate::{PowerModel, Speed, TransitionOverhead};

/// Energy totals of one simulation run, by component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy spent executing jobs, in joules.
    pub active: f64,
    /// Energy spent idling, in joules.
    pub idle: f64,
    /// Energy spent in speed transitions, in joules.
    pub transition: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.active + self.idle + self.transition
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.6} J (active {:.6}, idle {:.6}, transition {:.6})",
            self.total(),
            self.active,
            self.idle,
            self.transition
        )
    }
}

/// Integrates the energy of a schedule as it is produced.
///
/// The simulator drives this accumulator with execution segments, idle
/// segments, and speed-switch events; the accumulator applies the
/// [`PowerModel`] and [`TransitionOverhead`] to produce an
/// [`EnergyBreakdown`].
///
/// ```
/// use stadvs_power::{EnergyAccumulator, PowerModel, Speed, TransitionOverhead};
///
/// # fn main() -> Result<(), stadvs_power::PowerError> {
/// let mut acc = EnergyAccumulator::new(PowerModel::normalized_cubic(), TransitionOverhead::free());
/// acc.add_execution(Speed::FULL, 1.0);          // 1 s at full speed: 1 J
/// acc.add_execution(Speed::new(0.5)?, 2.0);     // 2 s at half speed: 0.25 J
/// acc.add_idle(5.0);                            // free in this model
/// let e = acc.breakdown();
/// assert!((e.total() - 1.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnergyAccumulator {
    power: PowerModel,
    overhead: TransitionOverhead,
    breakdown: EnergyBreakdown,
    switches: u64,
    /// The bits of the last speed whose active power was evaluated
    /// ([`NO_SPEED`] before the first).
    last_speed: u64,
    /// The active power at `last_speed`.
    last_power: f64,
}

/// All-ones bits are a NaN, never a speed, so the first lookup misses.
const NO_SPEED: u64 = u64::MAX;

impl EnergyAccumulator {
    /// Creates an accumulator for the given models.
    pub fn new(power: PowerModel, overhead: TransitionOverhead) -> EnergyAccumulator {
        EnergyAccumulator {
            power,
            overhead,
            breakdown: EnergyBreakdown::default(),
            switches: 0,
            last_speed: NO_SPEED,
            last_power: 0.0,
        }
    }

    /// The model's active power at `speed`, in watts: the same bits as
    /// [`PowerModel::active_power`], evaluated only when `speed` differs
    /// from the last speed asked for.
    pub fn active_power(&mut self, speed: Speed) -> f64 {
        let bits = speed.ratio().to_bits();
        if bits != self.last_speed {
            self.last_speed = bits;
            self.last_power = self.power.active_power(speed);
        }
        self.last_power
    }

    /// Adds an execution segment of `duration` seconds at `speed`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `duration` is negative.
    pub fn add_execution(&mut self, speed: Speed, duration: f64) {
        debug_assert!(duration >= -1e-12, "negative execution duration {duration}");
        self.breakdown.active += self.active_power(speed) * duration.max(0.0);
    }

    /// Adds an idle segment of `duration` seconds.
    pub fn add_idle(&mut self, duration: f64) {
        debug_assert!(duration >= -1e-12, "negative idle duration {duration}");
        self.breakdown.idle += self.power.idle_energy(duration.max(0.0));
    }

    /// Records a speed switch from `from` to `to`, charging its energy.
    /// (The *latency* of the switch is modelled by the simulator as a
    /// segment during which no work executes.)
    pub fn add_transition(&mut self, from: Speed, to: Speed) {
        self.breakdown.transition += self.overhead.energy(from, to);
        self.switches += 1;
    }

    /// The totals so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// The number of speed switches recorded.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// The power model in use.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransitionEnergy;

    #[test]
    fn breakdown_components_accumulate() {
        let power = PowerModel::normalized_cubic_with_idle(0.1).unwrap();
        let overhead = TransitionOverhead::new(1.0e-4, TransitionEnergy::Constant(1.0e-3)).unwrap();
        let mut acc = EnergyAccumulator::new(power, overhead);
        acc.add_execution(Speed::FULL, 2.0);
        acc.add_idle(10.0);
        acc.add_transition(Speed::FULL, Speed::new(0.5).unwrap());
        acc.add_transition(Speed::new(0.5).unwrap(), Speed::FULL);
        let b = acc.breakdown();
        assert!((b.active - 2.0).abs() < 1e-12);
        assert!((b.idle - 1.0).abs() < 1e-12);
        assert!((b.transition - 2.0e-3).abs() < 1e-12);
        assert_eq!(acc.switch_count(), 2);
        assert!((b.total() - (2.0 + 1.0 + 2.0e-3)).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let b = EnergyBreakdown::default();
        assert!(b.to_string().contains('J'));
        assert_eq!(b.total(), 0.0);
    }

    /// One SplitMix64 step (the workspace's seeded stream lives in
    /// `stadvs-sim`, which depends on this crate).
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)` on the 53-bit grid.
    fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Property: a stream of execution, idle and transition segments
    /// accumulates the same bits as evaluating the model per segment, on
    /// every power kind. Speeds come from a pool of one to four, so
    /// streams repeat a speed, alternate between two, and change at every
    /// segment; a few durations are tiny negatives, which both sides clamp.
    #[test]
    fn cached_power_matches_per_segment_evaluation() {
        let models = [
            PowerModel::new(
                crate::PowerKind::Polynomial {
                    coefficient: 1.0,
                    exponent: 3.0,
                },
                0.05,
                0.02,
            )
            .unwrap(),
            crate::Processor::uniform_discrete(5)
                .unwrap()
                .power_model()
                .clone(),
            PowerModel::new(
                crate::PowerKind::Sleepable {
                    coefficient: 0.9,
                    exponent: 2.7,
                    on_power: 0.1,
                },
                0.0,
                0.0,
            )
            .unwrap(),
        ];
        let overhead = TransitionOverhead::new(0.0, TransitionEnergy::Constant(1.0e-4)).unwrap();
        for case in 0..256u64 {
            let mut state = case.wrapping_mul(0xD1B5_4A32_D192_ED03);
            let model = &models[(case % 3) as usize];
            let pool: Vec<Speed> = (0..1 + next(&mut state) % 4)
                .map(|_| Speed::clamped(unit(&mut state), Speed::new(0.05).unwrap()))
                .collect();
            let mut acc = EnergyAccumulator::new(model.clone(), overhead.clone());
            let mut expected = EnergyBreakdown::default();
            let mut current = Speed::FULL;
            for _ in 0..next(&mut state) % 64 {
                let speed = pool[(next(&mut state) % pool.len() as u64) as usize];
                let duration = if next(&mut state).is_multiple_of(16) {
                    -1.0e-15
                } else {
                    0.01 * unit(&mut state)
                };
                match next(&mut state) % 4 {
                    0 => {
                        acc.add_idle(duration);
                        expected.idle += model.idle_energy(duration.max(0.0));
                    }
                    1 => {
                        acc.add_transition(current, speed);
                        expected.transition += overhead.energy(current, speed);
                        current = speed;
                    }
                    _ => {
                        acc.add_execution(speed, duration);
                        expected.active += model.active_energy(speed, duration.max(0.0));
                    }
                }
            }
            let got = acc.breakdown();
            for (what, a, b) in [
                ("active", got.active, expected.active),
                ("idle", got.idle, expected.idle),
                ("transition", got.transition, expected.transition),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}: {what} {a} vs {b}");
            }
        }
    }

    #[test]
    fn tiny_negative_durations_are_clamped() {
        // Floating-point event math can produce -1e-16 segments; they must
        // not poison the totals.
        let mut acc =
            EnergyAccumulator::new(PowerModel::normalized_cubic(), TransitionOverhead::free());
        acc.add_execution(Speed::FULL, -1.0e-15);
        acc.add_idle(-1.0e-15);
        assert!(acc.breakdown().total() >= 0.0);
    }
}
