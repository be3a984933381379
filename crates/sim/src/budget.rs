//! Platform-level shared power budget.
//!
//! The scenario the monolithic per-core loop could not express: all cores
//! draw from one power rail with a hard cap on *aggregate active draw*.
//! [`crate::PlatformSim::run_budgeted`]'s drive loop lends the
//! [`BudgetLedger`] to every core-engine step; at every dispatch the
//! engine asks it to grant a speed, and the ledger throttles the request
//! down to whatever the remaining headroom (cap minus the other cores'
//! current draws) can power. Because the loop steps the cores in global
//! time order, the ledger's per-core draws are a time-consistent picture
//! across cores — the coupling partitioned sequential stepping
//! fundamentally could not see.
//!
//! Semantics (kept deliberately simple for the `budget` demonstrator):
//!
//! * Only **active** draw counts against the cap; idle power is rail
//!   baseline and excluded (an idling core reports zero draw).
//! * Throttling never grants below the processor's minimum speed — a
//!   starved core keeps scheduling and its deadline misses are *recorded*
//!   (run under [`crate::MissPolicy::Record`]): the cap knowingly trades
//!   deadlines for power.
//! * Grants are deterministic: fixed summation order over the draw table
//!   and a fixed-iteration bisection on the monotone speed→power curve.

use stadvs_power::{Processor, Speed};

use crate::SimError;

/// Iterations of the speed-grant bisection: enough to pin the granted
/// ratio to ~1 ulp over `[min_speed, 1]`, and exactly the same count on
/// every grant (determinism).
const BISECT_STEPS: u32 = 60;

/// The shared power-budget ledger: one draw slot per core, a cap, and
/// the throttle statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedger {
    cap: f64,
    draw: Vec<f64>,
    grants: u64,
    throttles: u64,
    peak: f64,
}

impl BudgetLedger {
    /// Creates a ledger capping aggregate active draw at `cap_watts`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cap_watts` is not finite
    /// and positive.
    pub fn new(cap_watts: f64, cores: usize) -> Result<BudgetLedger, SimError> {
        if !cap_watts.is_finite() || cap_watts <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "budget_cap",
                value: cap_watts,
            });
        }
        Ok(BudgetLedger {
            cap: cap_watts,
            draw: vec![0.0; cores],
            grants: 0,
            throttles: 0,
            peak: 0.0,
        })
    }

    /// The configured cap, in watts.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Grants `core` the fastest speed not above `requested` whose active
    /// power fits the remaining headroom, floored at the processor's
    /// minimum speed, and updates the core's draw slot.
    pub(crate) fn grant(&mut self, core: usize, requested: Speed, processor: &Processor) -> Speed {
        let model = processor.power_model();
        let mut others = 0.0;
        for (i, d) in self.draw.iter().enumerate() {
            if i != core {
                others += d;
            }
        }
        self.grants += 1;
        let granted = if others + model.active_power(requested) <= self.cap {
            requested
        } else {
            self.throttles += 1;
            let headroom = (self.cap - others).max(0.0);
            let floor = processor.min_speed();
            let mut lo = floor.ratio().min(requested.ratio());
            let mut hi = requested.ratio().max(lo);
            if model.active_power(Speed::clamped(lo, floor)) >= headroom {
                // Even the floor exceeds the headroom: grant the floor
                // anyway — the core must keep making progress.
                Speed::clamped(lo, floor)
            } else {
                for _ in 0..BISECT_STEPS {
                    let mid = 0.5 * (lo + hi);
                    if model.active_power(Speed::clamped(mid, floor)) <= headroom {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Speed::clamped(lo, floor)
            }
        };
        self.draw[core] = model.active_power(granted);
        let total: f64 = self.draw.iter().sum();
        if total > self.peak {
            self.peak = total;
        }
        granted
    }

    /// Marks `core` idle: its active draw leaves the rail.
    pub(crate) fn settle_idle(&mut self, core: usize) {
        self.draw[core] = 0.0;
    }

    /// The run's budget statistics.
    pub fn report(&self) -> BudgetReport {
        BudgetReport {
            cap: self.cap,
            grants: self.grants,
            throttles: self.throttles,
            peak_draw: self.peak,
        }
    }
}

/// Summary of one budgeted run (returned by
/// [`crate::PlatformSim::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BudgetReport {
    /// The aggregate active-draw cap, in watts.
    pub cap: f64,
    /// Speed-grant decisions taken by the ledger.
    pub grants: u64,
    /// Grants that throttled the requested speed down.
    pub throttles: u64,
    /// Peak aggregate active draw observed at grant instants, in watts.
    pub peak_draw: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_must_be_finite_positive() {
        assert!(BudgetLedger::new(0.0, 2).is_err());
        assert!(BudgetLedger::new(-1.0, 2).is_err());
        assert!(BudgetLedger::new(f64::NAN, 2).is_err());
        assert!(BudgetLedger::new(1.0, 2).is_ok());
    }

    #[test]
    fn within_cap_grants_pass_through_bitwise() {
        let cpu = Processor::ideal_continuous();
        let mut ledger = BudgetLedger::new(10.0, 2).unwrap();
        let req = Speed::FULL;
        let granted = ledger.grant(0, req, &cpu);
        assert!(granted.same_point(req));
        assert_eq!(granted.ratio().to_bits(), req.ratio().to_bits());
        let report = ledger.report();
        assert_eq!(report.grants, 1);
        assert_eq!(report.throttles, 0);
        assert!(report.peak_draw > 0.0);
    }

    #[test]
    fn over_cap_requests_are_throttled_to_headroom() {
        // Cubic model: full speed draws 1 W per core. Cap 1.5 W, two
        // cores: core 0 takes 1 W, core 1's full-speed request must be
        // throttled to ~0.5 W → ratio ~0.5^(1/3).
        let cpu = Processor::ideal_continuous();
        let mut ledger = BudgetLedger::new(1.5, 2).unwrap();
        let g0 = ledger.grant(0, Speed::FULL, &cpu);
        assert!(g0.same_point(Speed::FULL));
        let g1 = ledger.grant(1, Speed::FULL, &cpu);
        assert!(g1.ratio() < 1.0);
        let p1 = cpu.power_model().active_power(g1);
        assert!((p1 - 0.5).abs() < 1e-9, "throttled draw {p1}");
        let report = ledger.report();
        assert_eq!(report.throttles, 1);
        assert!(report.peak_draw <= 1.5 + 1e-9);
    }

    #[test]
    fn floor_is_granted_even_without_headroom() {
        let cpu = Processor::ideal_continuous();
        let mut ledger = BudgetLedger::new(0.5, 2).unwrap();
        let g0 = ledger.grant(0, Speed::FULL, &cpu);
        assert!(g0.ratio() < 1.0);
        // Core 0 already holds the whole cap; core 1 still gets the floor.
        let g1 = ledger.grant(1, Speed::FULL, &cpu);
        assert!((g1.ratio() - cpu.min_speed().ratio()).abs() < 1e-12);
    }

    #[test]
    fn settle_idle_returns_headroom() {
        let cpu = Processor::ideal_continuous();
        let mut ledger = BudgetLedger::new(1.0, 2).unwrap();
        let _ = ledger.grant(0, Speed::FULL, &cpu);
        let throttled = ledger.grant(1, Speed::FULL, &cpu);
        assert!(throttled.ratio() < 1.0);
        ledger.settle_idle(0);
        let recovered = ledger.grant(1, Speed::FULL, &cpu);
        assert!(recovered.same_point(Speed::FULL));
    }

    #[test]
    fn grants_are_deterministic() {
        let cpu = Processor::ideal_continuous();
        let run = || {
            let mut ledger = BudgetLedger::new(1.3, 3).unwrap();
            let mut bits = Vec::new();
            for core in 0..3 {
                bits.push(ledger.grant(core, Speed::FULL, &cpu).ratio().to_bits());
            }
            (bits, ledger.report())
        };
        assert_eq!(run(), run());
    }
}
