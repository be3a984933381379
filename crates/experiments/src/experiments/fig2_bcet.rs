//! `fig2_bcet` — normalized energy vs BCET/WCET ratio.
//!
//! Fixed utilization 0.7; the execution demand of every job is uniform in
//! `[ratio, 1]·WCET` with the ratio swept from 0.1 (wildly varying demand)
//! to 1.0 (every job at worst case). Expected shape: the dynamic schemes'
//! advantage over `static-edf` grows as the ratio falls; at ratio 1.0 all
//! reclaiming-based schemes collapse onto static while `la-edf` pays a
//! catch-up penalty.

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
/// BCET/WCET sweep points.
pub const RATIOS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let comparison = Comparison::new(Processor::ideal_continuous(), opts.horizon);
    let mut table = Table::new(
        "fig2_bcet — normalized energy vs BCET/WCET ratio (8 tasks, U = 0.7)",
        "BCET/WCET",
        STANDARD_LINEUP.iter().map(|s| s.to_string()).collect(),
    );
    let mut misses = 0;
    for (ri, &ratio) in RATIOS.iter().enumerate() {
        let pattern = DemandPattern::Uniform {
            min: ratio,
            max: 1.0,
        };
        let cases: Vec<WorkloadCase> = (0..opts.replications)
            .map(|rep| {
                WorkloadCase::synthetic(
                    N_TASKS,
                    UTILIZATION,
                    pattern.clone(),
                    (ri * 1_000 + rep) as u64,
                )
            })
            .collect();
        let agg = comparison.run_cases(&cases);
        misses += agg.iter().map(|a| a.total_misses).sum::<usize>();
        table.push_row(
            format!("{ratio:.1}"),
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
    fn savings_grow_as_ratio_falls() {
        let table = run(&RunOptions::quick());
        let st = table.column("st-edf").unwrap();
        // Lower ratio → lower normalized energy (allow small noise).
        assert!(
            st.first().unwrap() < st.last().unwrap(),
            "st-edf at ratio 0.1 ({}) should beat ratio 1.0 ({})",
            st.first().unwrap(),
            st.last().unwrap()
        );
        assert!(table.notes[0].contains("misses: 0"));
    }
}
