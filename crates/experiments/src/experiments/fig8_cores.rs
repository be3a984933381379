//! `fig8_cores` — normalized energy vs core count under partitioned
//! EDF-DVS.
//!
//! The multiprocessor extension of the evaluation: union workloads of
//! five tasks per core at a worst-case utilization of 0.5 per core are
//! partitioned onto {1, 2, 4, 8} identical cores by first-fit-decreasing
//! and worst-fit-decreasing, and every governor of the standard lineup
//! runs with one fresh instance per core. Energy is normalized against
//! `no-dvs` on the *same* platform and partition; on the ideal
//! continuous processor (no idle draw) the `no-dvs` denominator is
//! partition-invariant, so rows are cross-comparable.
//!
//! Expected shape: the two 1-core rows coincide (any partitioner is the
//! identity on one core), and at every core count the balanced WFD
//! packing is no worse than the dense FFD packing for the DVS governors —
//! spreading load lowers per-core speeds, and convex (cubic) power makes
//! many slow cores cheaper than few fast ones. The admission notes pin
//! that every task is admitted and no deadline is ever missed.

use stadvs_power::{Platform, Processor};
use stadvs_workload::{partitioner_by_name, DemandPattern};

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, PlatformWorkload, WorkloadCase};
use crate::table::Table;

/// Tasks per core of every union workload.
pub const N_TASKS_PER_CORE: usize = 5;
/// Worst-case utilization contributed per core. At this load every union
/// workload is fully admitted by both partitioners (a rejected task would
/// need utilization above `0.5 m / (m - 1) >= 0.571`, but no single task
/// exceeds its sub-set's total of 0.5).
pub const UTIL_PER_CORE: f64 = 0.5;
/// The platform sizes swept.
pub const CORE_COUNTS: &[usize] = &[1, 2, 4, 8];
/// The partitioners compared, in row order.
pub const PARTITIONERS: &[&str] = &["ffd", "wfd"];

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let mut table = Table::new(
        "fig8_cores — normalized energy vs core count (partitioned EDF-DVS, \
         5 tasks/core, U = 0.5/core)",
        "platform",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    for &cores in CORE_COUNTS {
        // The same union workloads for both partitioners, so an FFD/WFD
        // row pair differs only in the task-to-core assignment.
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| {
                WorkloadCase::synthetic_union(
                    cores,
                    N_TASKS_PER_CORE,
                    UTIL_PER_CORE,
                    DemandPattern::Uniform { min: 0.2, max: 1.0 },
                    rep as u64,
                )
            })
            .collect();
        for &pname in PARTITIONERS {
            let partitioner = partitioner_by_name(pname).expect("registered partitioner");
            let workloads: Vec<PlatformWorkload> = cases
                .iter()
                .cloned()
                .map(|case| PlatformWorkload::partitioned(case, partitioner.as_ref(), cores))
                .collect();
            for w in &workloads {
                assert!(
                    w.partition.admitted(),
                    "{cores}-core {pname} partition rejected a task at U = {UTIL_PER_CORE}/core"
                );
            }
            let platform = Platform::homogeneous(cores, Processor::ideal_continuous())
                .expect("core counts are positive");
            let agg = Comparison::new(platform, opts.horizon).run_partitioned(&workloads);
            let misses: usize = agg.iter().map(|a| a.total_misses).sum();
            let values: Vec<f64> = STANDARD_LINEUP
                .iter()
                .map(|name| {
                    agg.iter()
                        .find(|a| &a.name == name)
                        .map_or(f64::NAN, |a| a.mean_normalized)
                })
                .collect();
            let (lo, hi, used) = utilization_spread(&workloads[0]);
            table.push_row(format!("{cores}-{pname}"), values);
            table.note(format!(
                "{cores}-{pname}: misses {misses}, rep-0 busy cores {used}/{cores}, \
                 rep-0 per-core utilization [{lo:.3}, {hi:.3}]"
            ));
        }
    }
    table.note(format!(
        "{} replications per platform, horizon {} s, homogeneous ideal \
         continuous cores, one fresh governor instance per core; energy \
         normalized against no-dvs on the same platform and partition",
        opts.replications, opts.horizon
    ));
    table
}

/// Min/max per-core WCET utilization over busy cores, plus the busy count.
fn utilization_spread(workload: &PlatformWorkload) -> (f64, f64, usize) {
    let busy: Vec<f64> = workload
        .partition
        .cores()
        .iter()
        .filter(|c| !c.is_idle())
        .map(|c| c.utilization())
        .collect();
    let lo = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = busy.iter().copied().fold(0.0, f64::max);
    (lo, hi, busy.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_shape_and_partitioning_invariants() {
        let table = run(&RunOptions::quick());
        assert_eq!(table.rows.len(), CORE_COUNTS.len() * PARTITIONERS.len());
        // Full admission, zero misses, everywhere.
        for note in table.notes.iter().take(table.rows.len()) {
            assert!(note.contains("misses 0"), "{note}");
        }
        // One core: the partitioner cannot matter.
        for name in STANDARD_LINEUP {
            let ffd = table.value("1-ffd", name).unwrap();
            let wfd = table.value("1-wfd", name).unwrap();
            assert!((ffd - wfd).abs() < 1e-12, "{name}: {ffd} vs {wfd}");
        }
        // Every row: no-dvs defines the scale, DVS governors beat it.
        for &cores in CORE_COUNTS {
            for &pname in PARTITIONERS {
                let key = format!("{cores}-{pname}");
                assert!((table.value(&key, "no-dvs").unwrap() - 1.0).abs() < 1e-9);
                let st = table.value(&key, "st-edf").unwrap();
                let stat = table.value(&key, "static-edf").unwrap();
                assert!(st < stat, "{key}: st-edf {st} >= static-edf {stat}");
            }
        }
        // The headline: on many cores the balanced WFD packing saves more
        // energy than the dense FFD packing (convex power).
        let ffd8 = table.value("8-ffd", "st-edf").unwrap();
        let wfd8 = table.value("8-wfd", "st-edf").unwrap();
        assert!(wfd8 <= ffd8 + 1e-9, "8 cores: wfd {wfd8} > ffd {ffd8}");
        let ffd8_static = table.value("8-ffd", "static-edf").unwrap();
        let wfd8_static = table.value("8-wfd", "static-edf").unwrap();
        assert!(wfd8_static <= ffd8_static + 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&RunOptions::quick());
        let b = run(&RunOptions::quick());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.notes, b.notes);
    }
}
