//! `tab3_misses` — the hard-real-time audit.
//!
//! Every governor, across a stress mix of utilizations and demand
//! patterns, with full trace recording and the independent referee
//! (`stadvs_sim::audit_outcome` under the no-fault plan): deadline misses,
//! release-pattern and record-stream violations, work and wall-time
//! conservation, speed availability, broken timelines and the energy
//! re-derivation. Every row must read zero for a hard-real-time claim to
//! stand.

use stadvs_power::Processor;
use stadvs_sim::{audit_outcome, FaultPlan, SimConfig, SimScratch, Simulator};
use stadvs_workload::DemandPattern;

use crate::experiments::RunOptions;
use crate::governors::{make_governor, STANDARD_LINEUP};
use crate::runner::WorkloadCase;
use crate::table::Table;

/// The stress mix: (utilization, pattern label, pattern).
pub fn stress_mix() -> Vec<(f64, DemandPattern)> {
    vec![
        (0.3, DemandPattern::Uniform { min: 0.1, max: 1.0 }),
        (0.7, DemandPattern::Uniform { min: 0.5, max: 1.0 }),
        (0.9, DemandPattern::Uniform { min: 0.2, max: 1.0 }),
        (1.0, DemandPattern::Constant { ratio: 1.0 }),
        (
            1.0,
            DemandPattern::Bursty {
                low: 0.1,
                high: 1.0,
                burst_jobs: 10,
                duty: 0.5,
            },
        ),
    ]
}

/// Runs the audit. Columns: jobs simulated, deadline misses, audit issues.
pub fn run(opts: &RunOptions) -> Table {
    let mut table = Table::new(
        "tab3_misses — hard-real-time audit (independent trace validation)",
        "governor",
        vec![
            "jobs".to_string(),
            "deadline misses".to_string(),
            "audit issues".to_string(),
            "min margin (ms)".to_string(),
        ],
    );
    let processor = Processor::ideal_continuous();
    let mut scratch = SimScratch::new();
    for name in STANDARD_LINEUP {
        let mut jobs = 0usize;
        let mut misses = 0usize;
        let mut issues = 0usize;
        let mut min_margin = f64::INFINITY;
        for (mi, (u, pattern)) in stress_mix().into_iter().enumerate() {
            for rep in 0..opts.replications {
                let case =
                    WorkloadCase::synthetic(6, u, pattern.clone(), (mi * 1_000 + rep) as u64);
                let sim = Simulator::new(
                    case.tasks.clone(),
                    processor.clone(),
                    SimConfig::new(opts.horizon)
                        .expect("valid horizon")
                        .with_trace(true),
                )
                .expect("feasible");
                let mut governor = make_governor(name).expect("lineup resolves");
                let outcome = sim
                    .run_with_scratch(governor.as_mut(), &case.exec, &mut scratch)
                    .expect("simulation succeeds");
                let report = audit_outcome(&outcome, &case.tasks, &FaultPlan::NONE);
                jobs += outcome.jobs.len();
                misses += outcome.miss_count();
                issues += report.issues.len();
                if let Some(m) = outcome.min_margin() {
                    min_margin = min_margin.min(m);
                }
            }
        }
        table.push_row(
            name.to_string(),
            vec![
                jobs as f64,
                misses as f64,
                issues as f64,
                min_margin * 1.0e3,
            ],
        );
    }
    table.note(format!(
        "stress mix: U ∈ {{0.3, 0.7, 0.9, 1.0}} incl. full worst case and bursty patterns, \
         {} replications each, horizon {} s; a negative minimum margin would be a miss",
        opts.replications, opts.horizon
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_governor_passes_the_audit() {
        let table = run(&RunOptions::quick());
        for (gov, values) in &table.rows {
            assert_eq!(values[1], 0.0, "{gov} missed deadlines");
            assert_eq!(values[2], 0.0, "{gov} has audit issues");
            assert!(values[3] >= 0.0, "{gov} has negative margin");
            assert!(values[0] > 0.0);
        }
    }
}
