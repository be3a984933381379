//! `budget` — partitioned EDF-DVS under a shared platform power cap.
//!
//! The payoff demonstrator for stepping all cores in one global order: a
//! platform-level [`stadvs_sim::BudgetLedger`], lent to every core
//! engine's step by the platform's drive loop, observes every core's
//! speed grant and throttles requests whose aggregate active draw would
//! exceed a global cap — a coupling between per-core engines that the old
//! independently-stepped per-core loops could not express.
//!
//! Union workloads of five tasks per core at a worst-case utilization of
//! 0.5 per core are partitioned onto four identical cubic-power cores by
//! worst-fit-decreasing, and the standard lineup runs under a cap sweep
//! from the physical maximum (never binds — bit-identical to the
//! uncapped path) down to 1.5 W. Energy is normalized per governor
//! against its own uncapped run, so a row reads as "what does the cap
//! cost *this* policy".
//!
//! Expected shape — the headline: a shared cap is ruinous for `no-dvs`
//! (it always requests full speed, so the fixed-order grant loop starves
//! later cores down to the floor: throttles pile up and hard deadlines
//! fall) but nearly free for the slack-reclaiming governors, whose
//! steady-state speeds already draw far less than the cap — `st-edf`
//! sails under even the tightest cap with zero throttles, zero misses,
//! and unchanged energy.

use stadvs_power::{Platform, Processor};
use stadvs_sim::{PlatformScratch, SimConfig};
use stadvs_workload::{partitioner_by_name, DemandPattern};

use crate::experiments::RunOptions;
use crate::governors::{make_governor, STANDARD_LINEUP};
use crate::runner::{PlatformWorkload, WorkloadCase};
use crate::table::Table;

/// Cores on the shared-budget platform.
pub const CORES: usize = 4;
/// Tasks per core of every union workload.
pub const N_TASKS_PER_CORE: usize = 5;
/// Worst-case utilization contributed per core (fully admitted by WFD,
/// see `fig8_cores`).
pub const UTIL_PER_CORE: f64 = 0.5;
/// The cap sweep, in watts of aggregate active draw (label, cap). The
/// first entry is the physical maximum — [`CORES`] cores at full speed
/// on the normalized cubic model draw exactly `CORES` watts — so it
/// never binds and pins the uncapped baseline through the same path.
pub const CAPS: &[(&str, f64)] = &[
    ("uncapped", CORES as f64),
    ("3.0W", 3.0),
    ("2.0W", 2.0),
    ("1.5W", 1.5),
];

/// The per-row report columns.
const COLUMNS: &[&str] = &["energy", "normalized", "throttles", "misses", "peak_draw"];

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let mut table = Table::new(
        "budget — shared platform power cap (4 WFD-partitioned cores, \
         5 tasks/core, U = 0.5/core)",
        "cap/governor",
        COLUMNS.iter().map(|s| s.to_string()).collect(),
    );
    let partitioner = partitioner_by_name("wfd").expect("registered partitioner");
    let workloads: Vec<PlatformWorkload> = (0..opts.replications)
        .map(|rep| {
            let case = WorkloadCase::synthetic_union(
                CORES,
                N_TASKS_PER_CORE,
                UTIL_PER_CORE,
                DemandPattern::Uniform { min: 0.2, max: 1.0 },
                rep as u64,
            );
            PlatformWorkload::partitioned(case, partitioner.as_ref(), CORES)
        })
        .collect();
    for w in &workloads {
        assert!(
            w.partition.admitted(),
            "WFD partition rejected a task at U = {UTIL_PER_CORE}/core"
        );
    }
    let platform = Platform::homogeneous(CORES, Processor::ideal_continuous())
        .expect("core counts are positive");
    let config = SimConfig::new(opts.horizon).expect("experiment horizon is valid");
    let sims: Vec<_> = workloads
        .iter()
        .map(|w| w.simulator(&platform, config.clone()))
        .collect();
    let mut scratch = PlatformScratch::new();

    // Per-governor uncapped energies, one per replication — the
    // normalization denominators for every capped row of that governor.
    let mut uncapped: Vec<Vec<f64>> = vec![Vec::new(); STANDARD_LINEUP.len()];
    for (cap_label, cap_watts) in CAPS {
        for (g, name) in STANDARD_LINEUP.iter().enumerate() {
            let mut energy_sum = 0.0;
            let mut normalized_sum = 0.0;
            let mut throttles = 0u64;
            let mut misses = 0usize;
            let mut peak = 0.0f64;
            for (rep, (sim, execs)) in sims.iter().enumerate() {
                let (outcome, report) = sim
                    .run_budgeted(
                        |_| make_governor(name).expect("lineup names are platform-simulable"),
                        execs,
                        *cap_watts,
                        &mut scratch,
                    )
                    .expect("budgeted platform simulation succeeds");
                let energy = outcome.total_energy();
                if uncapped[g].len() == rep {
                    // First (widest) cap in the sweep: record the
                    // never-binding baseline.
                    uncapped[g].push(energy);
                }
                energy_sum += energy;
                normalized_sum += energy / uncapped[g][rep];
                throttles += report.throttles;
                misses += outcome.miss_count();
                peak = peak.max(report.peak_draw);
            }
            let reps = sims.len() as f64;
            table.push_row(
                format!("{cap_label}/{name}"),
                vec![
                    energy_sum / reps,
                    normalized_sum / reps,
                    throttles as f64,
                    misses as f64,
                    peak,
                ],
            );
        }
        table.note(format!(
            "{cap_label}: cap {cap_watts} W over {CORES} cores (physical max {CORES} W)",
        ));
    }
    table.note(format!(
        "{} replications, horizon {} s, homogeneous ideal continuous cores under one \
         shared budget ledger, WFD partition, fixed-order grant arbitration; energy \
         normalized per governor against its own never-binding cap run",
        opts.replications, opts.horizon
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use stadvs_sim::FaultPlan;

    #[test]
    fn cap_sweep_shape_and_headline() {
        let table = run(&RunOptions::quick());
        assert_eq!(table.rows.len(), CAPS.len() * STANDARD_LINEUP.len());
        // The never-binding cap is a true uncapped baseline: no throttle,
        // unit normalized energy, and an aggregate draw within the cap.
        for name in STANDARD_LINEUP {
            let key = format!("uncapped/{name}");
            assert_eq!(table.value(&key, "throttles"), Some(0.0), "{key}");
            let norm = table.value(&key, "normalized").unwrap();
            assert!((norm - 1.0).abs() < 1e-12, "{key}: {norm}");
            assert!(table.value(&key, "peak_draw").unwrap() <= CORES as f64 + 1e-9);
        }
        // The headline: the tightest cap cripples no-dvs (starved cores,
        // lost hard deadlines) but is nearly free for st-edf.
        assert!(table.value("1.5W/no-dvs", "throttles").unwrap() > 0.0);
        assert!(table.value("1.5W/no-dvs", "misses").unwrap() > 0.0);
        assert_eq!(table.value("1.5W/st-edf", "throttles"), Some(0.0));
        assert_eq!(table.value("1.5W/st-edf", "misses"), Some(0.0));
        let st_norm = table.value("1.5W/st-edf", "normalized").unwrap();
        assert!((st_norm - 1.0).abs() < 1e-9, "st-edf under cap: {st_norm}");
        // Peak draws respect each cap (up to the floor grants, which draw
        // microwatts on the cubic model).
        for (cap_label, cap_watts) in CAPS {
            for name in STANDARD_LINEUP {
                let peak = table
                    .value(&format!("{cap_label}/{name}"), "peak_draw")
                    .unwrap();
                assert!(peak <= cap_watts + 0.01, "{cap_label}/{name}: {peak}");
            }
        }
    }

    #[test]
    fn never_binding_cap_is_bitwise_uncapped() {
        // The widest cap must be unobservable: bit-identical energy to the
        // plain (ledger-free) platform path on the same workload.
        let workload = PlatformWorkload::partitioned(
            WorkloadCase::synthetic_union(
                CORES,
                N_TASKS_PER_CORE,
                UTIL_PER_CORE,
                DemandPattern::Uniform { min: 0.2, max: 1.0 },
                0,
            ),
            partitioner_by_name("wfd").expect("registered").as_ref(),
            CORES,
        );
        let platform = Platform::homogeneous(CORES, Processor::ideal_continuous())
            .expect("core counts are positive");
        let (sim, execs) = workload.simulator(&platform, SimConfig::new(2.0).expect("valid"));
        let (capped, report) = sim
            .run_budgeted(
                |_| make_governor("st-edf").expect("st-edf exists"),
                &execs,
                CORES as f64,
                &mut PlatformScratch::new(),
            )
            .expect("budgeted run succeeds");
        let plain = sim
            .run_faulted_with_scratch(
                |_| make_governor("st-edf").expect("st-edf exists"),
                &execs,
                &FaultPlan::NONE,
                &mut PlatformScratch::new(),
            )
            .expect("plain run succeeds");
        assert_eq!(report.throttles, 0);
        assert_eq!(
            capped.total_energy().to_bits(),
            plain.total_energy().to_bits()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&RunOptions::quick());
        let b = run(&RunOptions::quick());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.notes, b.notes);
    }
}
