//! `tab1_refsets` — the reference embedded task sets.
//!
//! The CNC machine controller, the inertial navigation system, and the
//! generic avionics platform, each under uniform demand in `[0.5, 1]·WCET`,
//! on the ideal continuous processor and on the XScale-class 5-level chip
//! (which has a real 20 µs switch latency). Expected shape: per-set savings
//! track the set's static slack (CNC at U ≈ 0.5 saves the most) plus the
//! dynamic slack from early completions; the discrete chip gives up a few
//! points to quantization, and overhead-*oblivious* governors can shave a
//! handful of deadlines there — which the misses note reports honestly and
//! the overhead-aware `st-edf-oa` avoids by construction.

use stadvs_power::Processor;
use stadvs_workload::{reference, DemandPattern};

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Execution-demand pattern.
pub const PATTERN: DemandPattern = DemandPattern::Uniform { min: 0.5, max: 1.0 };

/// The lineup: every standard governor plus the overhead-aware variant.
pub fn lineup() -> Vec<&'static str> {
    let mut names: Vec<&str> = STANDARD_LINEUP.to_vec();
    names.push("st-edf-oa");
    names
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let names = lineup();
    let mut table = Table::new(
        "tab1_refsets — normalized energy on reference embedded task sets (uniform demand 0.5–1.0 WCET)",
        "task set / platform",
        names.iter().map(|s| s.to_string()).collect(),
    );
    let mut miss_report = Vec::new();
    for (name, tasks) in reference::all() {
        // Horizon: enough periods of the slowest task to reach steady
        // state, independent of the set's absolute time scale.
        let horizon = opts.ref_periods * tasks.max_period();
        for (platform_name, processor) in [
            ("continuous", Processor::ideal_continuous()),
            ("xscale", Processor::xscale_class()),
        ] {
            let comparison =
                Comparison::new(processor, horizon).with_governors(names.iter().copied());
            let cases: Vec<WorkloadCase> = (0..opts.replications)
                .map(|rep| WorkloadCase::fixed(tasks.clone(), PATTERN, rep as u64))
                .collect();
            let agg = comparison.run_cases(&cases);
            for a in &agg {
                if a.total_misses > 0 {
                    miss_report.push(format!(
                        "{} on {name} ({platform_name}): {}",
                        a.name, a.total_misses
                    ));
                }
            }
            table.push_row(
                format!("{name} ({platform_name})"),
                agg.iter().map(|a| a.mean_normalized).collect(),
            );
        }
    }
    table.note(format!(
        "{} demand seeds per set, horizon = {} slowest periods; U(cnc) ≈ 0.53, U(ins) ≈ 0.74, \
         U(avionics) ≈ 0.90; the xscale platform has a real 20 µs switch latency",
        opts.replications, opts.ref_periods
    ));
    if miss_report.is_empty() {
        table.note("deadline misses: none".to_string());
    } else {
        table.note(format!(
            "deadline misses by overhead-oblivious governors on the xscale platform: {}",
            miss_report.join("; ")
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sets_save_energy_and_aware_variant_is_spotless() {
        let mut opts = RunOptions::quick();
        opts.replications = 2;
        let table = run(&opts);
        assert_eq!(table.rows.len(), 6); // 3 sets × 2 platforms
        for v in table.column("st-edf").unwrap() {
            assert!(v < 1.0, "st-edf should always save energy, got {v}");
        }
        // The overhead-aware variant must never appear in the miss note.
        for note in &table.notes {
            assert!(
                !note.contains("st-edf-oa on"),
                "aware variant missed: {note}"
            );
        }
        // Continuous platforms have zero switch overhead: no misses at all.
        for note in &table.notes {
            assert!(
                !note.contains("(continuous)"),
                "miss without overhead: {note}"
            );
        }
        // CNC (lowest U) saves more than avionics (highest U) on the
        // continuous platform.
        let cnc = table.value("cnc (continuous)", "st-edf").unwrap();
        let avionics = table.value("avionics (continuous)", "st-edf").unwrap();
        assert!(cnc < avionics);
    }
}
