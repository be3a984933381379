//! `fig6_patterns` — robustness across execution-demand patterns.
//!
//! The "dynamic workload" stress test: the same task sets under six demand
//! patterns, from constant to bursty two-phase. Expected shape: history-
//! free slack analysis is pattern-insensitive (it reacts to measured slack
//! only), so `st-edf` keeps a similar advantage under every pattern.

use stadvs_power::Processor;
use stadvs_workload::DemandPattern;

use crate::experiments::RunOptions;
use crate::governors::STANDARD_LINEUP;
use crate::runner::{Comparison, WorkloadCase};
use crate::table::Table;

/// Tasks per synthetic set.
pub const N_TASKS: usize = 8;
/// Worst-case utilization of every set.
pub const UTILIZATION: f64 = 0.7;

/// The demand patterns compared (label, pattern).
pub fn patterns() -> Vec<(&'static str, DemandPattern)> {
    vec![
        ("constant-0.5", DemandPattern::Constant { ratio: 0.5 }),
        (
            "uniform-0.1-1.0",
            DemandPattern::Uniform { min: 0.1, max: 1.0 },
        ),
        (
            "normal-0.5",
            DemandPattern::Normal {
                mean: 0.5,
                std_dev: 0.2,
                floor: 0.05,
            },
        ),
        (
            "bimodal-0.25/0.95",
            DemandPattern::Bimodal {
                low: 0.25,
                high: 0.95,
                high_probability: 0.3,
            },
        ),
        (
            "sinusoidal",
            DemandPattern::Sinusoidal {
                mean: 0.5,
                amplitude: 0.4,
                period_jobs: 40,
            },
        ),
        (
            "bursty",
            DemandPattern::Bursty {
                low: 0.2,
                high: 0.9,
                burst_jobs: 20,
                duty: 0.4,
            },
        ),
    ]
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon);
    let mut table = Table::new(
        "fig6_patterns — normalized energy across execution-demand patterns (8 tasks, U = 0.7)",
        "pattern",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    let mut misses = 0;
    for (pi, (label, pattern)) in patterns().into_iter().enumerate() {
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| {
                WorkloadCase::synthetic(
                    N_TASKS,
                    UTILIZATION,
                    pattern.clone(),
                    (pi * 1_000 + rep) as u64,
                )
            })
            .collect();
        let agg = comparison.run_cases(&cases);
        misses += agg.iter().map(|a| a.total_misses).sum::<usize>();
        table.push_row(label, agg.iter().map(|a| a.mean_normalized).collect());
    }
    table.note(format!(
        "{} replications per pattern, horizon {} s, ideal continuous processor; total deadline misses: {}",
        opts.replications, opts.horizon, misses
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stedf_saves_energy_under_every_pattern() {
        let table = run(&RunOptions::quick());
        assert_eq!(table.rows.len(), patterns().len());
        for v in table.column("st-edf").unwrap() {
            assert!(v < 0.95, "st-edf normalized energy {v} too close to 1");
        }
        assert!(table.notes[0].contains("misses: 0"));
    }
}
