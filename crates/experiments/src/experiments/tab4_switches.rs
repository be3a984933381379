//! `tab4_switches` — speed switches per job.
//!
//! Transition counts determine how exposed each algorithm is to switching
//! overhead. Expected shape: `no-dvs` never switches; `static-edf`
//! switches once; per-dispatch schemes (cc-edf, la-edf, dra, st-edf) pay
//! roughly one to two switches per job.

use stadvs_power::Processor;
use stadvs_workload::DemandPattern;

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Tasks per synthetic set.
pub const N_TASKS: usize = 8;
/// Execution-demand pattern.
pub const PATTERN: DemandPattern = DemandPattern::Uniform { min: 0.5, max: 1.0 };
/// Utilization points.
pub const UTILIZATIONS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// Runs the experiment. Values are mean speed switches per completed job.
pub fn run(opts: &RunOptions) -> Table {
    let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon);
    let mut table = Table::new(
        "tab4_switches — speed switches per job (8 tasks, BCET/WCET = 0.5)",
        "U",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    for (ui, &u) in UTILIZATIONS.iter().enumerate() {
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| WorkloadCase::synthetic(N_TASKS, u, PATTERN, (ui * 1_000 + rep) as u64))
            .collect();
        let agg = comparison.run_cases(&cases);
        table.push_row(
            format!("{u:.1}"),
            agg.iter().map(|a| a.switches_per_job).collect(),
        );
    }
    table.note(format!(
        "{} replications per point, horizon {} s, ideal continuous processor (every requested \
         speed is distinct, so this is the worst case for switch counts)",
        opts.replications, opts.horizon
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_count_ordering() {
        let table = run(&RunOptions::quick());
        for v in table.column("no-dvs").unwrap() {
            assert_eq!(v, 0.0);
        }
        for v in table.column("static-edf").unwrap() {
            assert!(v > 0.0 && v < 0.2, "static switches/job {v}");
        }
        for v in table.column("st-edf").unwrap() {
            assert!(v < 6.0, "st-edf switches/job {v} implausibly high");
        }
    }
}
