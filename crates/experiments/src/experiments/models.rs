//! `models` — task models beyond hard-periodic.
//!
//! The same synthetic workloads under five task-model mixes: all-hard (the
//! control — must behave exactly like the rest of the suite), weakly-hard
//! ((m,k)-firm contracts with greedy skip reclamation), sporadic (seeded
//! inter-arrival stretches), frame (miss-driven boost floors under a
//! deliberately slow fixed-speed-capable lineup — here the governors keep
//! deadlines, so boosts stay rare), and everything mixed.
//!
//! Every run is audited by the model-aware referee: hard and sporadic
//! tasks must never miss, weakly-hard tasks must never violate their
//! (m,k) window, and the reported model counters must be consistent with
//! the job stream. A row reports the governor's normalized energy under
//! the mix plus the per-model activity columns (skips, sporadic jobs,
//! frame misses), so the CSV answers "what does each task model cost or
//! save under each governor".
//!
//! `la-edf` is excluded from the sporadic-bearing mixes: sporadic arrivals
//! are delay-only, the same safety class as release jitter, and laEDF's
//! lookahead requires strictly periodic arrivals (DESIGN.md §10). The
//! exclusion is derived from the governor capability table, not a name
//! list (see [`crate::runner::governor_caps`]).

use stadvs_power::Processor;
use stadvs_sim::{
    audit_outcome, AuditIssue, FaultPlan, SimConfig, SimOutcome, SimScratch, Simulator, TaskSet,
};
use stadvs_workload::{DemandPattern, ExecutionModel, ModelMix, TaskSetSpec};

use crate::experiments::RunOptions;
use crate::runner::{capable_lineup, make_governor, required_caps, STANDARD_LINEUP};
use crate::table::Table;

/// Tasks per synthetic set.
pub const N_TASKS: usize = 6;
/// Worst-case utilization of every set (head-room keeps every mix
/// feasible for the whole lineup).
pub const UTILIZATION: f64 = 0.6;

/// The model mixes compared (label, recipe), in row-group order.
///
/// # Panics
///
/// Panics if a mix constant is out of range (they are literals).
pub fn mixes() -> Vec<(&'static str, ModelMix)> {
    let mk = |r: Result<ModelMix, stadvs_workload::WorkloadError>| r.expect("mix literals valid");
    vec![
        ("all-hard", ModelMix::new()),
        ("weakly-hard", mk(ModelMix::new().with_weakly_hard(2, 1, 3))),
        ("sporadic", mk(ModelMix::new().with_sporadic(2, 0.5))),
        ("frame", mk(ModelMix::new().with_frame(2, 0.5))),
        (
            "mixed",
            mk(
                mk(mk(ModelMix::new().with_weakly_hard(2, 1, 3)).with_sporadic(2, 0.5))
                    .with_frame(1, 0.5),
            ),
        ),
    ]
}

/// The per-model statistics columns, after the energy column.
const STAT_COLUMNS: &[&str] = &[
    "hard_misses",
    "mk_violations",
    "skips",
    "sporadic_jobs",
    "frame_misses",
    "max_streak",
];

fn simulate(
    tasks: &TaskSet,
    exec: &ExecutionModel,
    name: &str,
    horizon: f64,
    scratch: &mut SimScratch,
) -> SimOutcome {
    let mut governor = make_governor(name).expect("lineup names resolve");
    let config = SimConfig::new(horizon).expect("experiment horizon is valid");
    let sim = Simulator::new(tasks.clone(), Processor::ideal_continuous(), config)
        .expect("generated sets are valid");
    sim.run_with_scratch(governor.as_mut(), exec, scratch)
        .expect("simulation succeeds on valid input")
}

/// Runs the experiment.
pub fn run(opts: &RunOptions) -> Table {
    let mut columns = vec!["normalized".to_string()];
    columns.extend(STAT_COLUMNS.iter().map(|s| s.to_string()));
    let mut table = Table::new(
        "models — task models beyond hard-periodic (6 tasks, U = 0.60)",
        "mix/governor",
        columns,
    );
    let mut scratch = SimScratch::new();
    for (label, mix) in mixes() {
        // The same workload seeds under every mix, so a column reads as
        // "this exact workload set, re-modelled".
        let cases: Vec<(TaskSet, ExecutionModel)> = (0..opts.replications)
            .map(|rep| {
                let tasks = TaskSetSpec::new(N_TASKS, UTILIZATION)
                    .expect("experiment parameters are valid")
                    .with_model_mix(mix)
                    .expect("mix fits the task count")
                    .with_seed(rep as u64)
                    .generate()
                    .expect("generation succeeds for valid parameters");
                let exec = ExecutionModel::new(DemandPattern::Uniform { min: 0.2, max: 1.0 })
                    .expect("experiment pattern is valid")
                    .with_seed(rep as u64 ^ 0x5EED_5EED_5EED_5EED);
                (tasks, exec)
            })
            .collect();
        let lineup = capable_lineup(STANDARD_LINEUP, required_caps(&cases[0].0));
        let baseline: Vec<f64> = cases
            .iter()
            .map(|(tasks, exec)| {
                simulate(tasks, exec, "no-dvs", opts.horizon, &mut scratch).total_energy()
            })
            .collect();
        let mut audit_issues = 0usize;
        for name in &lineup {
            let mut normalized_sum = 0.0;
            let mut hard_misses = 0u64;
            let mut mk_violations = 0u64;
            let mut skips = 0u64;
            let mut sporadic_jobs = 0u64;
            let mut frame_misses = 0u64;
            let mut max_streak = 0u64;
            for ((tasks, exec), base) in cases.iter().zip(&baseline) {
                let out = simulate(tasks, exec, name, opts.horizon, &mut scratch);
                let audit = audit_outcome(&out, tasks, &FaultPlan::NONE);
                audit_issues += audit.issues.len();
                mk_violations += audit
                    .issues
                    .iter()
                    .filter(|i| matches!(i, AuditIssue::MkViolation { .. }))
                    .count() as u64;
                normalized_sum += out.total_energy() / base;
                hard_misses += out
                    .jobs
                    .iter()
                    .filter(|j| j.missed(out.horizon) && tasks.task(j.id.task).is_hard())
                    .count() as u64;
                skips += out.models.skips;
                sporadic_jobs += out.models.sporadic_jobs;
                frame_misses += out.models.frame_misses;
                max_streak = max_streak.max(out.models.max_frame_miss_streak);
            }
            table.push_row(
                format!("{label}/{name}"),
                vec![
                    normalized_sum / cases.len() as f64,
                    hard_misses as f64,
                    mk_violations as f64,
                    skips as f64,
                    sporadic_jobs as f64,
                    frame_misses as f64,
                    max_streak as f64,
                ],
            );
        }
        table.note(format!(
            "{label}: lineup {} of {} governors, audit issues {audit_issues}",
            lineup.len(),
            STANDARD_LINEUP.len()
        ));
    }
    table.note(format!(
        "{} replications per mix, horizon {} s, ideal continuous processor, greedy (m,k) \
         skip policy; normalized to no-dvs under the same mix; la-edf is excluded from \
         sporadic-bearing mixes (capability table, DESIGN.md §10/§14)",
        opts.replications, opts.horizon
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_valid_and_distinct() {
        let mixes = mixes();
        assert_eq!(mixes.len(), 5);
        assert!(mixes[0].1.is_all_hard());
        for (label, mix) in &mixes[1..] {
            assert!(!mix.is_all_hard(), "{label}");
            assert!(mix.total() <= N_TASKS, "{label}");
        }
    }

    #[test]
    fn model_guarantees_hold_across_the_family() {
        let table = run(&RunOptions::quick());
        // Every (mix, governor) row: no hard miss, no (m,k) violation —
        // and the audit saw no issue of any kind.
        for (key, _) in &table.rows {
            assert_eq!(table.value(key, "hard_misses"), Some(0.0), "{key}");
            assert_eq!(table.value(key, "mk_violations"), Some(0.0), "{key}");
        }
        for (i, (label, _)) in mixes().into_iter().enumerate() {
            assert!(
                table.notes[i].contains("audit issues 0"),
                "{label}: {}",
                table.notes[i]
            );
        }
        // The all-hard control is quiet on every model counter.
        for (key, _) in table
            .rows
            .iter()
            .filter(|(k, _)| k.starts_with("all-hard/"))
        {
            for col in &["skips", "sporadic_jobs", "frame_misses", "max_streak"] {
                assert_eq!(table.value(key, col), Some(0.0), "{key}/{col}");
            }
        }
        // Weakly-hard mixes actually skip under the greedy policy, and
        // st-edf keeps a real energy advantage over no-dvs under skips.
        assert!(table.value("weakly-hard/st-edf", "skips").unwrap() > 0.0);
        assert!(table.value("weakly-hard/st-edf", "normalized").unwrap() < 0.95);
        // Sporadic mixes release sporadic jobs and exclude la-edf.
        assert!(table.value("sporadic/st-edf", "sporadic_jobs").unwrap() > 0.0);
        assert!(table.value("sporadic/la-edf", "normalized").is_none());
        assert!(table.value("mixed/la-edf", "normalized").is_none());
        assert!(table.value("all-hard/la-edf", "normalized").is_some());
        // no-dvs normalizes to exactly 1 in every mix.
        for (key, _) in table.rows.iter().filter(|(k, _)| k.ends_with("/no-dvs")) {
            let v = table.value(key, "normalized").unwrap();
            assert!((v - 1.0).abs() < 1e-12, "{key}: {v}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&RunOptions::quick());
        let b = run(&RunOptions::quick());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.notes, b.notes);
    }
}
