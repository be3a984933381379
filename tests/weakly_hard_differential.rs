//! The differential weakly-hard harness: every governor, same mixed
//! workload, same (m,k) contracts — compared against the `no-dvs`
//! reference run.
//!
//! Three facts pin the (m,k) skip subsystem to the guarantees:
//!
//! 1. **Skip decisions are governor-invariant in-contract.** A skip is
//!    licensed purely by the task's met/loss window, and in-contract every
//!    executed job completes on time under every governor, so all
//!    governors must observe the *identical* job stream — releases,
//!    deadlines, demands, and the skip set itself — bit-for-bit against
//!    `no-dvs`.
//! 2. **Contracts are never violated.** The sliding-window admissibility
//!    check only licenses a skip when the (m,k) contract stays satisfiable,
//!    so an independent [`MkWindow`] replay over the job stream (skips
//!    counted as losses) must never report a violation, under any skip
//!    policy.
//! 3. **Hard tasks are untouched.** Mixing weakly-hard tasks in must not
//!    cost a single hard deadline: `MissPolicy::Fail` stays armed and zero
//!    misses are tolerated.
//!
//! Case counts: 64 per property by default (each case exercises every
//! governor), raised in CI's full job via `STADVS_PROPTEST_CASES`. The
//! lineup is derived from the governor capability table (weakly-hard skips
//! are an extreme early completion, so every governor qualifies) — this
//! harness and the experiments can never disagree about who runs.

use std::collections::BTreeSet;

use stadvs::experiments::{governor_caps, make_governor};
use stadvs::power::Processor;
use stadvs::sim::rng::check;
use stadvs::sim::{
    audit_outcome, FaultPlan, MissPolicy, MkWindow, SimConfig, SimOutcome, Simulator, SkipPolicy,
    TaskKind, TaskSet,
};
use stadvs::workload::{DemandPattern, ExecutionModel, ModelMix, TaskSetSpec};

const GOVERNORS: &[&str] = &[
    "no-dvs",
    "static-edf",
    "lpps-edf",
    "cc-edf",
    "dra",
    "dra-ote",
    "feedback-edf",
    "la-edf",
    "st-edf",
    "st-edf[r]",
    "st-edf[a]",
    "st-edf[d]",
    "st-edf-pace",
    "st-edf-cs",
];

/// The governors safe under weakly-hard skips, derived from the registry's
/// capability table (all of them — a skip only removes demand).
fn weakly_hard_safe_governors() -> Vec<&'static str> {
    GOVERNORS
        .iter()
        .copied()
        .filter(|name| {
            governor_caps(name)
                .expect("lineup names are known")
                .weakly_hard
        })
        .collect()
}

const HORIZON: f64 = 1.2;

/// A synthetic mixed case: the first `weakly_hard` tasks carry the (m,k)
/// contract, the rest stay hard.
fn mixed_case(
    n_tasks: usize,
    utilization: f64,
    weakly_hard: usize,
    m: u32,
    k: u32,
    bcet: f64,
    seed: u64,
) -> (TaskSet, ExecutionModel) {
    let tasks = TaskSetSpec::new(n_tasks, utilization)
        .expect("parameters in range")
        .with_model_mix(
            ModelMix::new()
                .with_weakly_hard(weakly_hard, m, k)
                .expect("contract in range"),
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
/// identity, release, deadline, WCET, and actual demand (exact bits) —
/// skipped jobs appear with zero demand — sorted.
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

/// `out.jobs` is strictly increasing in `(task, index)`, and each task's
/// indices run `0..n` with no gap: exactly one record per released job,
/// in id order, however the engine pushed them (completions,
/// weakly-hard skips and horizon drains all arrive out of id order).
fn assert_records_in_id_order(out: &SimOutcome, name: &str) {
    let mut prev: Option<(usize, u64)> = None;
    for r in &out.jobs {
        let (task, index) = (r.id.task.0, r.id.index);
        let next_in_order = match prev {
            Some((p_task, p_index)) if p_task == task => index == p_index + 1,
            Some((p_task, _)) => task > p_task && index == 0,
            None => index == 0,
        };
        assert!(
            next_in_order,
            "{name}: record {:?} follows {:?} out of (task, index) order",
            r.id, prev
        );
        prev = Some((task, index));
    }
}

fn run_governor(
    tasks: &TaskSet,
    exec: &ExecutionModel,
    name: &str,
    policy: SkipPolicy,
) -> Result<SimOutcome, String> {
    let sim = Simulator::new(
        tasks.clone(),
        Processor::ideal_continuous(),
        SimConfig::new(HORIZON)
            .expect("valid horizon")
            .with_miss_policy(MissPolicy::Fail)
            .with_skip_policy(policy),
    )
    .expect("generated sets are feasible");
    let mut governor = make_governor(name).expect("governor resolves");
    sim.run(governor.as_mut(), exec)
        .map_err(|e| format!("{name} violated the hard guarantee: {e}"))
}

/// Replays every weakly-hard task's job stream through an independent
/// [`MkWindow`] — skips count as losses — and fails on any violation.
fn assert_contracts(out: &SimOutcome, tasks: &TaskSet) {
    let skipped: BTreeSet<_> = out.models.skipped.iter().copied().collect();
    for (id, task) in tasks.iter() {
        let TaskKind::WeaklyHard { m, k } = task.kind() else {
            continue;
        };
        let mut window = MkWindow::new(m, k).expect("generated contracts are valid");
        // `out.jobs` is sorted by (task, index), so this filter visits the
        // task's jobs in release order.
        for r in out.jobs.iter().filter(|r| r.id.task == id) {
            window.record(!r.missed(out.horizon) && !skipped.contains(&r.id));
            assert!(
                !window.violated(),
                "task {} violated its ({},{}) contract at job #{}",
                id,
                m,
                k,
                r.id.index
            );
        }
    }
}

/// In-contract mixed sets under the greedy skip policy: every governor
/// meets every deadline (`MissPolicy::Fail` armed), observes the
/// bit-identical job stream *and skip set* of the `no-dvs` reference,
/// never violates an (m,k) window, and passes the model-aware audit.
#[test]
fn in_contract_mixed_sets_meet_contracts_and_agree() {
    check(
        "in_contract_mixed_sets_meet_contracts_and_agree",
        64,
        |rng| {
            let n_tasks = 2 + rng.below(5) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.9);
            let weakly_hard = 1 + rng.below(6) as usize;
            let k = 1 + rng.below(5) as u32;
            let m_off = rng.below(5) as u32;
            let bcet = rng.range_inclusive_f64(0.1, 1.0);
            let seed = rng.below(1_000_000);
            let weakly_hard = weakly_hard.min(n_tasks);
            let m = (m_off % k) + 1;
            let (tasks, exec) = mixed_case(n_tasks, utilization, weakly_hard, m, k, bcet, seed);

            let reference = run_governor(&tasks, &exec, "no-dvs", SkipPolicy::Greedy)?;
            let ref_sig = job_signature(&reference);
            // Greedy skipping with surplus in the window starts skipping at
            // job 0 (virtual mets), so a strict contract surplus guarantees
            // skip activity.
            if m < k {
                assert!(
                    reference.models.skips > 0,
                    "greedy never skipped under ({m},{k})"
                );
            } else {
                assert_eq!(
                    reference.models.skips, 0,
                    "skip licensed under a full ({m},{k}) contract"
                );
            }

            for name in weakly_hard_safe_governors() {
                let outcome = run_governor(&tasks, &exec, name, SkipPolicy::Greedy)?;
                assert_records_in_id_order(&outcome, name);
                assert_eq!(outcome.miss_count(), 0, "{} missed in-contract", name);
                assert_eq!(
                    &job_signature(&outcome),
                    &ref_sig,
                    "{} observed a different job stream than no-dvs",
                    name
                );
                assert_eq!(
                    &outcome.models.skipped, &reference.models.skipped,
                    "{}'s skip decisions diverged from no-dvs",
                    name
                );
                assert_contracts(&outcome, &tasks);
                let audit = audit_outcome(&outcome, &tasks, &FaultPlan::NONE);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}

/// Every skip policy is a deterministic function of the seed: two runs
/// of the same governor replay bit-identically (job records and the
/// full model report), `Never` executes everything, and no admissible
/// policy ever violates a window.
#[test]
fn skip_policies_replay_bit_identically_and_stay_in_contract() {
    check(
        "skip_policies_replay_bit_identically_and_stay_in_contract",
        64,
        |rng| {
            let n_tasks = 2 + rng.below(4) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.8);
            let k = 2 + rng.below(4) as u32;
            let m_off = rng.below(4) as u32;
            let bcet = rng.range_inclusive_f64(0.2, 1.0);
            let seed = rng.below(1_000_000);
            let policy_choice = rng.below(3) as usize;
            let skip_p = rng.range_inclusive_f64(0.0, 1.0);
            let skip_seed = rng.below(1_000_000);
            let m = (m_off % k) + 1;
            let (tasks, exec) = mixed_case(n_tasks, utilization, n_tasks.min(2), m, k, bcet, seed);
            let policy = match policy_choice {
                0 => SkipPolicy::Greedy,
                1 => SkipPolicy::Never,
                _ => SkipPolicy::seeded(skip_p, skip_seed).expect("probability in range"),
            };

            for name in ["st-edf", "cc-edf"] {
                let a = run_governor(&tasks, &exec, name, policy)?;
                let b = run_governor(&tasks, &exec, name, policy)?;
                assert_records_in_id_order(&a, name);
                assert_eq!(&a.jobs, &b.jobs, "{}'s job records did not replay", name);
                assert_eq!(
                    &a.models, &b.models,
                    "{}'s model report did not replay",
                    name
                );
                if matches!(policy, SkipPolicy::Never) {
                    assert_eq!(a.models.skips, 0, "{} skipped under Never", name);
                }
                assert_eq!(a.miss_count(), 0, "{} missed in-contract", name);
                assert_contracts(&a, &tasks);
                let audit = audit_outcome(&a, &tasks, &FaultPlan::NONE);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}
