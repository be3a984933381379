//! `fig3_ntasks` — normalized energy vs task-set size.
//!
//! Fixed utilization 0.7 and BCET/WCET 0.5 while the number of tasks grows
//! from 2 to 20. Expected shape: `lpps-edf` degrades sharply with more
//! tasks (it is almost never alone); the other dynamic schemes are largely
//! size-insensitive — the robustness/stability claim of the paper family.

use stadvs_power::Processor;
use stadvs_workload::DemandPattern;

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Worst-case utilization of every set.
pub const UTILIZATION: f64 = 0.7;
/// Execution-demand pattern.
pub const PATTERN: DemandPattern = DemandPattern::Uniform { min: 0.5, max: 1.0 };
/// Task-count sweep points.
pub const SIZES: [usize; 7] = [2, 4, 6, 8, 12, 16, 20];

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon);
    let mut table = Table::new(
        "fig3_ntasks — normalized energy vs task-set size (U = 0.7, BCET/WCET = 0.5)",
        "tasks",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    let mut misses = 0;
    for (ni, &n) in SIZES.iter().enumerate() {
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| WorkloadCase::synthetic(n, UTILIZATION, PATTERN, (ni * 1_000 + rep) as u64))
            .collect();
        let agg = comparison.run_cases(&cases);
        misses += agg.iter().map(|a| a.total_misses).sum::<usize>();
        table.push_row(
            format!("{n}"),
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
    fn lpps_degrades_with_size_while_stedf_is_stable() {
        let table = run(&RunOptions::quick());
        let lpps = table.column("lpps-edf").unwrap();
        let st = table.column("st-edf").unwrap();
        // lpps at 2 tasks is much better than at 20 tasks.
        assert!(lpps.first().unwrap() + 0.05 < *lpps.last().unwrap());
        // st-edf stays in a narrow band.
        let min = st.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = st.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 0.25, "st-edf band [{min}, {max}] too wide");
        assert!(table.notes[0].contains("misses: 0"));
    }
}
