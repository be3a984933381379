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
//!   A throttled grant is a pure function of the requested speed's bits,
//!   the headroom's bits and the core's processor (its floor and power
//!   model), so recent throttled grants are remembered in fixed tables
//!   and a repeated request skips the bisection's 62 power evaluations.
//!   Cores whose processors are equal share a table, so a homogeneous
//!   platform bisects each request once rather than once per core, while
//!   heterogeneous cores stay apart. A table returns the bits the
//!   bisection would, so a hit still counts a grant and a throttle, and
//!   the report is unchanged.
//! * The engine passes the requested speed's active power along with
//!   the request (its energy accumulator already evaluated it), and that
//!   power is the core's draw when the request fits.

use stadvs_power::{Platform, Processor, Speed};

use crate::SimError;

/// Iterations of the speed-grant bisection: enough to pin the granted
/// ratio to ~1 ulp over `[min_speed, 1]`, and exactly the same count on
/// every grant (determinism).
const BISECT_STEPS: u32 = 60;

/// Slots in a table of throttled grants. A power of two: a slot's index
/// is the top bits of a hash of its key. Measured on the benchmark's
/// `platform-budget` workload (eight equal cores under a 4 W cap; seed
/// 42, a warm-up and three passes), one table shared by the eight cores
/// misses 11 368 times at 64 slots, 7 344 at 128, 7 108 at 256, 6 840 at
/// 1024 and 6 832 at 2048, against 30 172 for the former 64-slot table
/// per core.
const GRANT_SLOTS: usize = 256;

/// One remembered throttled grant: the request and headroom bits it
/// answers, the granted speed and that speed's active power.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GrantSlot {
    requested: u64,
    headroom: u64,
    granted: Speed,
    draw: f64,
}

/// An unused slot: all-ones request bits are a NaN, never a speed.
const EMPTY_SLOT: GrantSlot = GrantSlot {
    requested: u64::MAX,
    headroom: u64::MAX,
    granted: Speed::FULL,
    draw: 0.0,
};

/// The slot of a `(request, headroom)` key in a table.
fn slot_index(requested: u64, headroom: u64) -> usize {
    let hash = (requested ^ headroom.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (hash >> (64 - GRANT_SLOTS.trailing_zeros())) as usize
}

/// The fastest speed not above `requested` whose active power on
/// `processor` fits `headroom`, floored at the processor's minimum speed:
/// a fixed-iteration bisection on the monotone speed→power curve.
fn throttle(requested: Speed, headroom: f64, processor: &Processor) -> Speed {
    let model = processor.power_model();
    let floor = processor.min_speed();
    let mut lo = floor.ratio().min(requested.ratio());
    let mut hi = requested.ratio().max(lo);
    if model.active_power(Speed::clamped(lo, floor)) >= headroom {
        // Even the floor exceeds the headroom: grant the floor anyway —
        // the core must keep making progress.
        return Speed::clamped(lo, floor);
    }
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

/// Where a core's throttled grants are remembered.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    /// Not throttled yet: the table will be that of the lowest-numbered
    /// core whose processor equals this core's (the core itself if none
    /// does, or if the ledger was never told the processors).
    Class(usize),
    /// The table that starts at this slot of `tables`.
    Table(usize),
}

/// One core's entry in the ledger: its current active draw and where its
/// throttled grants are remembered.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoreEntry {
    draw: f64,
    route: Route,
}

/// The shared power-budget ledger: one draw slot per core, a cap, the
/// throttle statistics, and the tables of throttled grants.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetLedger {
    cap: f64,
    cores: Vec<CoreEntry>,
    /// [`GRANT_SLOTS`] slots per table, one table per class of cores with
    /// equal processors, each added on its class's first throttle. A key
    /// needs no processor: every core that reads a table has the same one.
    tables: Vec<GrantSlot>,
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
            cores: (0..cores)
                .map(|core| CoreEntry {
                    draw: 0.0,
                    route: Route::Class(core),
                })
                .collect(),
            tables: Vec::new(),
            grants: 0,
            throttles: 0,
            peak: 0.0,
        })
    }

    /// Lets the cores of `platform` whose processors are equal share one
    /// table of throttled grants; call it before the first grant. Without
    /// this call each core keeps its own.
    pub(crate) fn share_tables(&mut self, platform: &Platform) {
        for core in 0..self.cores.len() {
            if let Some(first) =
                (0..core).find(|&other| platform.core(other) == platform.core(core))
            {
                self.cores[core].route = Route::Class(first);
            }
        }
    }

    /// The configured cap, in watts.
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Grants `core` the fastest speed not above `requested` whose active
    /// power fits the remaining headroom, floored at the processor's
    /// minimum speed, and updates the core's draw slot. `power` is the
    /// active power at `requested` on `processor`, which must be the same
    /// processor on every grant to `core`.
    pub(crate) fn grant(
        &mut self,
        core: usize,
        requested: Speed,
        power: f64,
        processor: &Processor,
    ) -> Speed {
        debug_assert_eq!(
            power.to_bits(),
            processor.power_model().active_power(requested).to_bits(),
            "the request's power is not the model's"
        );
        let mut others = 0.0;
        for (i, entry) in self.cores.iter().enumerate() {
            if i != core {
                others += entry.draw;
            }
        }
        self.grants += 1;
        let (granted, draw) = if others + power <= self.cap {
            (requested, power)
        } else {
            self.throttles += 1;
            let headroom = (self.cap - others).max(0.0);
            let (requested_bits, headroom_bits) = (requested.ratio().to_bits(), headroom.to_bits());
            let table = self.table_of(core);
            let slot = &mut self.tables[table + slot_index(requested_bits, headroom_bits)];
            if slot.requested != requested_bits || slot.headroom != headroom_bits {
                let granted = throttle(requested, headroom, processor);
                *slot = GrantSlot {
                    requested: requested_bits,
                    headroom: headroom_bits,
                    granted,
                    draw: processor.power_model().active_power(granted),
                };
            }
            (slot.granted, slot.draw)
        };
        self.cores[core].draw = draw;
        let total: f64 = self.cores.iter().map(|entry| entry.draw).sum();
        if total > self.peak {
            self.peak = total;
        }
        granted
    }

    /// The first slot of `core`'s table of throttled grants, adding its
    /// class's table on the class's first throttle.
    fn table_of(&mut self, core: usize) -> usize {
        let first = match self.cores[core].route {
            Route::Table(table) => return table,
            Route::Class(first) => first,
        };
        let table = match self.cores[first].route {
            Route::Table(table) => table,
            Route::Class(_) => {
                let table = self.tables.len();
                self.tables.resize(table + GRANT_SLOTS, EMPTY_SLOT);
                self.cores[first].route = Route::Table(table);
                table
            }
        };
        self.cores[core].route = Route::Table(table);
        table
    }

    /// Marks `core` idle: its active draw leaves the rail.
    pub(crate) fn settle_idle(&mut self, core: usize) {
        self.cores[core].draw = 0.0;
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
    use stadvs_power::{EnergyAccumulator, PowerKind, PowerModel};

    use crate::rng::Rng;

    /// A grant as the engine asks for it: with the request's power.
    fn grant(ledger: &mut BudgetLedger, core: usize, requested: Speed, cpu: &Processor) -> Speed {
        let power = cpu.power_model().active_power(requested);
        ledger.grant(core, requested, power, cpu)
    }

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
        let granted = grant(&mut ledger, 0, req, &cpu);
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
        let g0 = grant(&mut ledger, 0, Speed::FULL, &cpu);
        assert!(g0.same_point(Speed::FULL));
        let g1 = grant(&mut ledger, 1, Speed::FULL, &cpu);
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
        let g0 = grant(&mut ledger, 0, Speed::FULL, &cpu);
        assert!(g0.ratio() < 1.0);
        // Core 0 already holds the whole cap; core 1 still gets the floor.
        let g1 = grant(&mut ledger, 1, Speed::FULL, &cpu);
        assert!((g1.ratio() - cpu.min_speed().ratio()).abs() < 1e-12);
    }

    #[test]
    fn settle_idle_returns_headroom() {
        let cpu = Processor::ideal_continuous();
        let mut ledger = BudgetLedger::new(1.0, 2).unwrap();
        let _ = grant(&mut ledger, 0, Speed::FULL, &cpu);
        let throttled = grant(&mut ledger, 1, Speed::FULL, &cpu);
        assert!(throttled.ratio() < 1.0);
        ledger.settle_idle(0);
        let recovered = grant(&mut ledger, 1, Speed::FULL, &cpu);
        assert!(recovered.same_point(Speed::FULL));
    }

    #[test]
    fn grants_are_deterministic() {
        let cpu = Processor::ideal_continuous();
        let run = || {
            let mut ledger = BudgetLedger::new(1.3, 3).unwrap();
            let mut bits = Vec::new();
            for core in 0..3 {
                bits.push(
                    grant(&mut ledger, core, Speed::FULL, &cpu)
                        .ratio()
                        .to_bits(),
                );
            }
            (bits, ledger.report())
        };
        assert_eq!(run(), run());
    }

    /// The ledger without its tables: every grant evaluates the model
    /// and every throttle runs the bisection.
    struct Reference {
        cap: f64,
        draw: Vec<f64>,
        grants: u64,
        throttles: u64,
        peak: f64,
    }

    impl Reference {
        fn grant(&mut self, core: usize, requested: Speed, processor: &Processor) -> Speed {
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
                throttle(requested, (self.cap - others).max(0.0), processor)
            };
            self.draw[core] = model.active_power(granted);
            let total: f64 = self.draw.iter().sum();
            if total > self.peak {
                self.peak = total;
            }
            granted
        }

        fn report(&self) -> BudgetReport {
            BudgetReport {
                cap: self.cap,
                grants: self.grants,
                throttles: self.throttles,
                peak_draw: self.peak,
            }
        }
    }

    /// A random processor of one of the three power kinds: cubic with
    /// static power, CMOS on discrete levels, or sleepable, each
    /// continuous kind with a random floor.
    fn processor(rng: &mut Rng) -> Processor {
        let floor = [0.05, 0.1, 0.3][rng.below(3) as usize];
        let continuous = Processor::ideal_continuous_with_floor(floor).unwrap();
        match rng.below(3) {
            0 => continuous.with_power_model(
                PowerModel::new(
                    PowerKind::Polynomial {
                        coefficient: 1.0,
                        exponent: 3.0,
                    },
                    0.0,
                    rng.range_f64(0.0, 0.2),
                )
                .unwrap(),
            ),
            1 => Processor::uniform_discrete(2 + rng.below(7) as usize).unwrap(),
            _ => continuous.with_power_model(
                PowerModel::new(
                    PowerKind::Sleepable {
                        coefficient: rng.range_f64(0.5, 1.5),
                        exponent: rng.range_f64(2.0, 3.0),
                        on_power: rng.range_f64(0.0, 0.2),
                    },
                    0.0,
                    0.0,
                )
                .unwrap(),
            ),
        }
    }

    /// Property: the ledger with its tables grants the same bits, keeps
    /// the same draws and reports the same statistics as the ledger that
    /// evaluates the model on every grant and bisects on every throttle.
    /// Requests come from a small shared pool (full speed included) and
    /// idle settles are frequent, so `(request, headroom)` pairs repeat on
    /// one core and across cores. A third of the platforms are
    /// homogeneous, a third heterogeneous and a third two equal cores and
    /// one different core, in random order, where a table shared by
    /// unequal cores would hand one core another's grant. Most ledgers
    /// share tables among equal cores; the rest keep one per core.
    #[test]
    fn cached_grants_match_the_bisection() {
        crate::rng::check("cached_grants_match_the_bisection", 256, |rng| {
            let processors: Vec<Processor> = match rng.below(3) {
                0 => vec![processor(rng); 1 + rng.below(8) as usize],
                1 => (0..1 + rng.below(8)).map(|_| processor(rng)).collect(),
                _ => {
                    let equal = processor(rng);
                    let mut other = processor(rng);
                    while other == equal {
                        other = processor(rng);
                    }
                    let mut cores = vec![equal.clone(), equal];
                    cores.insert(rng.below(3) as usize, other);
                    cores
                }
            };
            let cores = processors.len();
            let cap = rng.range_f64(0.05, 0.8 * cores as f64);
            let pool: Vec<f64> = std::iter::once(1.0)
                .chain((0..rng.below(4)).map(|_| rng.range_f64(0.05, 1.0)))
                .collect();
            let mut ledger = BudgetLedger::new(cap, cores).map_err(|e| e.to_string())?;
            if rng.below(4) != 0 {
                ledger.share_tables(&Platform::new(processors.clone()).map_err(|e| e.to_string())?);
            }
            let mut reference = Reference {
                cap,
                draw: vec![0.0; cores],
                grants: 0,
                throttles: 0,
                peak: 0.0,
            };
            let mut accs: Vec<EnergyAccumulator> = processors
                .iter()
                .map(Processor::energy_accumulator)
                .collect();
            for step in 0..rng.below(400) {
                let core = rng.below(cores as u64) as usize;
                let cpu = &processors[core];
                if rng.below(4) == 0 {
                    ledger.settle_idle(core);
                    reference.draw[core] = 0.0;
                    continue;
                }
                let ratio = pool[rng.below(pool.len() as u64) as usize];
                let requested = cpu.quantize_up(Speed::clamped(ratio, cpu.min_speed()));
                let power = accs[core].active_power(requested);
                let got = ledger.grant(core, requested, power, cpu);
                let want = reference.grant(core, requested, cpu);
                if got.ratio().to_bits() != want.ratio().to_bits() {
                    return Err(format!(
                        "step {step}, core {core}: granted {got:?}, want {want:?}"
                    ));
                }
                let draws: Vec<f64> = ledger.cores.iter().map(|entry| entry.draw).collect();
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if bits(&draws) != bits(&reference.draw) {
                    return Err(format!(
                        "step {step}: draws {draws:?}, want {:?}",
                        reference.draw
                    ));
                }
            }
            let (got, want) = (ledger.report(), reference.report());
            if got != want || got.peak_draw.to_bits() != want.peak_draw.to_bits() {
                return Err(format!("report {got:?}, want {want:?}"));
            }
            Ok(())
        });
    }
}
