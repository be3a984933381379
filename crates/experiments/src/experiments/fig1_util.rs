//! `fig1_util` — normalized energy vs worst-case utilization.
//!
//! The headline figure of every DVS-EDF comparison: 8 synthetic tasks,
//! literature-default periods, uniform execution demand in `[0.5, 1]·WCET`,
//! worst-case utilization swept from 0.1 to 1.0. Expected shape: all
//! dynamic schemes beat `static-edf`; `lpps-edf` is weakest (rarely alone);
//! reclaiming (`dra`) and look-ahead (`la-edf`) trade places with load; the
//! slack-analysis `st-edf` tracks the lowest curve throughout.

use stadvs_power::Processor;
use stadvs_workload::DemandPattern;

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Tasks per synthetic set.
pub const N_TASKS: usize = 8;
/// Execution-demand pattern of this figure.
pub const PATTERN: DemandPattern = DemandPattern::Uniform { min: 0.5, max: 1.0 };
/// Utilization sweep points.
pub const UTILIZATIONS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon);
    let mut table = Table::new(
        "fig1_util — normalized energy vs worst-case utilization (8 tasks, uniform demand 0.5–1.0 WCET)",
        "U",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    let mut misses = 0;
    for (ui, &u) in UTILIZATIONS.iter().enumerate() {
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| WorkloadCase::synthetic(N_TASKS, u, PATTERN, (ui * 1_000 + rep) as u64))
            .collect();
        let agg = comparison.run_cases(&cases);
        misses += agg.iter().map(|a| a.total_misses).sum::<usize>();
        table.push_row(
            format!("{u:.1}"),
            agg.iter().map(|a| a.mean_normalized).collect(),
        );
    }
    table.note(format!(
        "{} replications per point, horizon {} s, ideal continuous processor; total deadline misses: {}",
        opts.replications, opts.horizon, misses
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shape() {
        let table = run(&RunOptions::quick());
        assert_eq!(table.rows.len(), UTILIZATIONS.len());
        // no-dvs is the normalization baseline.
        for v in table.column("no-dvs").unwrap() {
            assert!((v - 1.0).abs() < 1e-9);
        }
        // st-edf saves energy at every utilization and never misses.
        let st = table.column("st-edf").unwrap();
        let stat = table.column("static-edf").unwrap();
        for (s, t) in st.iter().zip(&stat) {
            assert!(*s <= *t + 1e-9, "st-edf {s} worse than static {t}");
            assert!(*s < 1.0);
        }
        assert!(table.notes[0].contains("misses: 0"));
    }
}
