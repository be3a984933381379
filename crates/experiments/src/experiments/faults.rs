//! `faults` — graceful degradation under injected faults.
//!
//! The same synthetic workloads under the named fault regimes of
//! [`FaultPlanSpec`]: WCET-overrun storms, a degraded platform (dropped
//! downward switches plus a coarsened level set), noisy release timing,
//! and everything combined. Normalized energy is measured against `no-dvs`
//! *under the same plan*, so a row answers "how much of the DVS advantage
//! survives this fault regime", not "how expensive is the regime".
//!
//! Expected shape: the deadline-safe channels (jitter, drops, floor) cost
//! energy but never deadlines; overrun regimes may miss deadlines, but
//! only on fault-contaminated jobs — the notes pin both halves of that
//! guarantee, and an unattributed miss fails this experiment's test.
//!
//! `la-edf` is excluded (rendered `-`) under the jittered regimes: the
//! differential harness showed its deferral argument requires strictly
//! periodic arrivals — alone among the lineup it misses deadlines under
//! delayed releases (see DESIGN.md §10), and those misses would be
//! algorithm-attributable, not injection-attributable.

use stadvs_power::Processor;
use stadvs_workload::{DemandPattern, FaultPlanSpec};

use crate::experiments::RunOptions;
use crate::governors::{jitter_safe_lineup, STANDARD_LINEUP};
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Tasks per synthetic set.
pub const N_TASKS: usize = 6;
/// Worst-case utilization of every set (head-room keeps the deadline-safe
/// regimes feasible even on the coarsened level set).
pub const UTILIZATION: f64 = 0.65;

/// The fault regimes compared (label, recipe), in row order.
pub fn regimes() -> Vec<(&'static str, FaultPlanSpec)> {
    vec![
        ("none", FaultPlanSpec::none()),
        ("overrun-storm", FaultPlanSpec::overrun_storm(0xFA01)),
        (
            "degraded-platform",
            FaultPlanSpec::degraded_platform(0xFA02),
        ),
        ("noisy-releases", FaultPlanSpec::noisy_releases(0xFA03)),
        ("combined", FaultPlanSpec::combined(0xFA04)),
    ]
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let mut table = Table::new(
        "faults — normalized energy under injected faults (6 tasks, U = 0.65)",
        "regime",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    // The same workload seeds under every regime, so a column reads as
    // "this exact workload set, progressively degraded".
    let cases: Vec<WorkloadCase> = (0..opts.replications)
        .map(|rep| {
            WorkloadCase::synthetic(
                N_TASKS,
                UTILIZATION,
                DemandPattern::Uniform { min: 0.2, max: 1.0 },
                rep as u64,
            )
        })
        .collect();
    for (label, spec) in regimes() {
        let plan = spec.build().expect("named regimes are valid");
        // laEDF's safety argument does not extend to jittered releases
        // (module docs); the governor table's capability column keeps it off
        // regimes without periodic arrivals.
        let lineup = jitter_safe_lineup(STANDARD_LINEUP, &plan);
        let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon)
            .with_governors(lineup.iter().copied())
            .with_fault_plan(plan);
        let agg = comparison.run_cases(&cases);
        let attributed: usize = agg.iter().map(|a| a.total_fault_misses).sum();
        let total: usize = agg.iter().map(|a| a.total_misses).sum();
        let overruns: u64 = agg.iter().map(|a| a.total_overruns).sum();
        let worst_recovery = agg
            .iter()
            .map(|a| a.mean_recovery_latency)
            .fold(0.0, f64::max);
        let values: Vec<f64> = STANDARD_LINEUP
            .iter()
            .map(|name| {
                agg.iter()
                    .find(|a| &a.name == name)
                    .map_or(f64::NAN, |a| a.mean_normalized)
            })
            .collect();
        table.push_row(label, values);
        table.note(format!(
            "{label}: overruns {overruns}, attributed misses {attributed}, \
             unattributed misses {}, worst mean recovery {worst_recovery:.4} s",
            total - attributed
        ));
    }
    table.note(format!(
        "{} replications per regime, horizon {} s, ideal continuous processor; \
         every simulation (including the no-dvs baseline) runs under the row's fault plan; \
         la-edf is excluded (-) under jittered regimes (DESIGN.md §10)",
        opts.replications, opts.horizon
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_attributed_and_bounded() {
        let table = run(&RunOptions::quick());
        assert_eq!(table.rows.len(), regimes().len());
        // Every miss in every regime must be fault-attributed: the per-
        // regime notes all report zero unattributed misses.
        for (i, (label, _)) in regimes().into_iter().enumerate() {
            assert!(
                table.notes[i].contains("unattributed misses 0"),
                "{label}: {}",
                table.notes[i]
            );
        }
        // Fault-free row: no fault activity at all, and st-edf keeps its
        // energy advantage.
        assert!(table.notes[0].contains("overruns 0"));
        assert!(table.notes[0].contains("attributed misses 0"));
        assert!(table.value("none", "st-edf").unwrap() < 0.95);
        // The deadline-safe regimes (no overrun channel) must not miss at
        // all — their notes report zero attributed misses too.
        for i in [2, 3] {
            assert!(
                table.notes[i].contains("attributed misses 0"),
                "{}",
                table.notes[i]
            );
        }
        // The degraded platform erodes (but need not erase) the advantage:
        // speeds only ever go up, so energy can only rise.
        let none = table.value("none", "st-edf").unwrap();
        let degraded = table.value("degraded-platform", "st-edf").unwrap();
        assert!(
            degraded >= none - 1e-9,
            "degraded {degraded} < fault-free {none}"
        );
        // la-edf runs on periodic-arrival regimes only.
        assert!(!table.value("none", "la-edf").unwrap().is_nan());
        assert!(table.value("noisy-releases", "la-edf").unwrap().is_nan());
        assert!(table.value("combined", "la-edf").unwrap().is_nan());
    }

    #[test]
    fn runs_are_deterministic() {
        // Compare the rendered artifact, not the Table: the la-edf NaN
        // placeholders are (correctly) not self-equal.
        let a = run(&RunOptions::quick());
        let b = run(&RunOptions::quick());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.notes, b.notes);
    }
}
