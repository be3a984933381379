//! The differential sporadic harness: every sporadic-capable governor,
//! same mixed workload, same seeded arrival processes — compared against
//! the `no-dvs` reference run.
//!
//! Three facts pin the sporadic subsystem to the guarantees:
//!
//! 1. **Arrivals are governor-invariant.** Inter-arrival gaps are pure
//!    seeded functions of `(task seed, job index)`, so every governor
//!    must observe the *identical* job stream (checked bit-for-bit
//!    against the `no-dvs` run) and the same run must replay
//!    bit-identically.
//! 2. **Admission holds at release time.** Every observed gap is at least
//!    the task's `min_interarrival` (= its period) and matches the
//!    seeded draw exactly, so sporadic arrivals never precede the
//!    periodic lattice — the same delay-only safety class as release
//!    jitter, which is why delayed arrivals can never overload a schedule
//!    that was feasible under periodic arrivals.
//! 3. **Hard tasks are untouched.** `MissPolicy::Fail` stays armed and
//!    zero misses are tolerated for the whole mixed set.
//!
//! The lineup is derived from the governor capability table: `la-edf` is
//! excluded (its lookahead defers work against *future periodic*
//! releases; see DESIGN.md §10), exactly as it is under the jitter
//! regimes — this harness and the experiments can never disagree about
//! who is sporadic-safe.
//!
//! Case counts: 64 per property by default (each case exercises every
//! capable governor), raised in CI's full job via `STADVS_PROPTEST_CASES`.

use stadvs::experiments::{make_governor, GOVERNORS};
use stadvs::power::Processor;
use stadvs::sim::rng::check;
use stadvs::sim::{
    audit_outcome, FaultPlan, MissPolicy, SimConfig, SimOutcome, Simulator, TaskKind, TaskSet,
};
use stadvs::workload::{DemandPattern, ExecutionModel, ModelMix, TaskSetSpec};

/// The governors whose safety arguments extend to sporadic (delayed)
/// arrivals — derived from the governor table's capability column (everything
/// except `la-edf`; see the module docs).
fn sporadic_safe_governors() -> Vec<&'static str> {
    GOVERNORS
        .iter()
        .filter(|g| g.caps.sporadic)
        .map(|g| g.name)
        .collect()
}

const HORIZON: f64 = 1.2;

/// A synthetic mixed case: the first `sporadic` tasks draw seeded
/// inter-arrival stretches up to `burst` periods; the rest stay hard.
fn mixed_case(
    n_tasks: usize,
    utilization: f64,
    sporadic: usize,
    burst: f64,
    bcet: f64,
    seed: u64,
) -> (TaskSet, ExecutionModel) {
    let tasks = TaskSetSpec::new(n_tasks, utilization)
        .expect("parameters in range")
        .with_model_mix(
            ModelMix::new()
                .with_sporadic(sporadic, burst)
                .expect("burst in range"),
        )
        .expect("mix fits")
        .with_seed(seed)
        .generate()
        .expect("generation succeeds");
    let exec = ExecutionModel::new(DemandPattern::Uniform {
        min: bcet,
        max: 1.0,
    })
    .expect("pattern in range")
    .with_seed(seed ^ 0x5EED_5EED_5EED_5EED);
    (tasks, exec)
}

/// The governor-invariant part of an outcome: every released job's
/// identity, release, deadline, WCET, and actual demand (exact bits),
/// sorted.
fn job_signature(out: &SimOutcome) -> Vec<(usize, u64, u64, u64, u64, u64)> {
    let mut sig: Vec<_> = out
        .jobs
        .iter()
        .map(|r| {
            (
                r.id.task.0,
                r.id.index,
                r.release.to_bits(),
                r.deadline.to_bits(),
                r.wcet.to_bits(),
                r.actual.to_bits(),
            )
        })
        .collect();
    sig.sort_unstable();
    sig
}

fn run_governor(tasks: &TaskSet, exec: &ExecutionModel, name: &str) -> Result<SimOutcome, String> {
    let sim = Simulator::new(
        tasks.clone(),
        Processor::ideal_continuous(),
        SimConfig::new(HORIZON)
            .expect("valid horizon")
            .with_miss_policy(MissPolicy::Fail),
    )
    .expect("generated sets are feasible");
    let mut governor = make_governor(name).expect("governor resolves");
    sim.run(governor.as_mut(), exec)
        .map_err(|e| format!("{name} violated the hard guarantee: {e}"))
}

/// Checks every sporadic task's observed release sequence: gaps at least
/// the period and equal to the task's seeded draws.
fn assert_admission(out: &SimOutcome, tasks: &TaskSet) {
    for (id, task) in tasks.iter() {
        if !matches!(task.kind(), TaskKind::Sporadic { .. }) {
            continue;
        }
        // `out.jobs` is sorted by (task, index), so releases come out in
        // arrival order.
        let releases: Vec<f64> = out
            .jobs
            .iter()
            .filter(|r| r.id.task == id)
            .map(|r| r.release)
            .collect();
        for (i, pair) in releases.windows(2).enumerate() {
            let gap = pair[1] - pair[0];
            assert!(
                gap >= task.period() - 1e-9,
                "task {id}: gap {gap} compressed below the period {}",
                task.period()
            );
            let expected = task.arrival_gap(i as u64 + 1);
            assert!(
                (gap - expected).abs() < 1e-9,
                "task {id}: gap {gap} != seeded draw {expected} at #{i}"
            );
        }
    }
}

/// In-contract mixed sporadic sets: every capable governor meets every
/// deadline (`MissPolicy::Fail` armed), observes the bit-identical job
/// stream of the `no-dvs` reference, respects every minimum
/// inter-arrival separation, and passes the model-aware audit.
#[test]
fn in_contract_sporadic_sets_never_miss_and_agree() {
    check(
        "in_contract_sporadic_sets_never_miss_and_agree",
        64,
        |rng| {
            let n_tasks = 2 + rng.below(5) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.9);
            let sporadic = 1 + rng.below(6) as usize;
            let burst = rng.range_inclusive_f64(0.0, 1.5);
            let bcet = rng.range_inclusive_f64(0.1, 1.0);
            let seed = rng.below(1_000_000);
            let sporadic = sporadic.min(n_tasks);
            let (tasks, exec) = mixed_case(n_tasks, utilization, sporadic, burst, bcet, seed);

            let reference = run_governor(&tasks, &exec, "no-dvs")?;
            let ref_sig = job_signature(&reference);
            assert!(
                reference.models.sporadic_jobs > 0,
                "no sporadic job released"
            );
            assert_eq!(reference.models.skips, 0, "sporadic jobs are never skipped");

            for name in sporadic_safe_governors() {
                let outcome = run_governor(&tasks, &exec, name)?;
                assert_eq!(outcome.miss_count(), 0, "{} missed in-contract", name);
                assert_eq!(
                    &job_signature(&outcome),
                    &ref_sig,
                    "{} observed a different arrival stream than no-dvs",
                    name
                );
                assert_eq!(
                    outcome.models.sporadic_jobs, reference.models.sporadic_jobs,
                    "{} counted a different number of sporadic jobs",
                    name
                );
                assert_admission(&outcome, &tasks);
                let audit = audit_outcome(&outcome, &tasks, &FaultPlan::NONE);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}

/// Sporadic generation is a deterministic function of the seed: the
/// same governor run twice replays bit-identically — job records and
/// the full model report — for any burst, including the degenerate
/// `burst = 0` process (sporadic separation with periodic arrivals).
#[test]
fn sporadic_arrivals_replay_bit_identically() {
    check("sporadic_arrivals_replay_bit_identically", 64, |rng| {
        let n_tasks = 2 + rng.below(4) as usize;
        let utilization = rng.range_inclusive_f64(0.2, 0.8);
        let burst = rng.range_inclusive_f64(0.0, 2.0);
        let bcet = rng.range_inclusive_f64(0.2, 1.0);
        let seed = rng.below(1_000_000);
        let (tasks, exec) = mixed_case(n_tasks, utilization, n_tasks.min(2), burst, bcet, seed);
        for name in ["st-edf", "dra"] {
            let a = run_governor(&tasks, &exec, name)?;
            let b = run_governor(&tasks, &exec, name)?;
            assert_eq!(&a.jobs, &b.jobs, "{}'s job records did not replay", name);
            assert_eq!(
                &a.models, &b.models,
                "{}'s model report did not replay",
                name
            );
            assert_eq!(a.miss_count(), 0, "{} missed in-contract", name);
        }
        Ok(())
    });
}

/// The exclusion list is the capability table, not a name list: exactly
/// `la-edf` is dropped from this harness's lineup.
#[test]
fn sporadic_exclusions_are_table_derived() {
    let lineup = sporadic_safe_governors();
    assert!(!lineup.contains(&"la-edf"));
    assert_eq!(lineup.len(), GOVERNORS.len() - 1);
}
