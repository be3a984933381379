//! The differential fault harness: every governor, same workload, same
//! fault plan — compared against the `no-dvs` reference run.
//!
//! Two facts pin the fault subsystem to the hard-deadline guarantee:
//!
//! 1. **Injection is governor-invariant.** Releases, deadlines, WCETs, and
//!    post-injection actual demands are decided by the plan and the
//!    workload alone; every governor must observe the *identical* job
//!    stream (checked bit-for-bit against the `no-dvs` run).
//! 2. **Only injected overruns may miss.** With every overrun factor
//!    ≤ 1.0 the plan stays inside the WCET contract, so *zero* misses are
//!    tolerated under [`MissPolicy::Fail`]. With factors > 1.0 the
//!    contract is violated on purpose — and `Fail` still runs, because it
//!    only fires on *unattributed* misses: an error here means a governor
//!    (not the injection) broke the guarantee.
//!
//! Case counts: 64 per property by default (each case exercises every
//! governor), raised in CI's full job via `STADVS_PROPTEST_CASES`.
//!
//! **laEDF is excluded from the jitter-bearing properties** (and covered
//! by a jitter-free property instead): its published deferral argument
//! predicts every next arrival *exactly at* the task's current deadline —
//! strict periodicity — and this harness empirically refutes the
//! extension to delayed (sporadic) releases, where laEDF alone of the
//! governor table's rows misses deadlines. See DESIGN.md §10.

use stadvs::experiments::{make_governor, WorkloadCase, GOVERNORS};
use stadvs::power::Processor;
use stadvs::sim::rng::check;
use stadvs::sim::{
    audit_outcome, FaultPlan, MissPolicy, OverrunPolicy, SimConfig, SimOutcome, Simulator,
};
use stadvs::workload::DemandPattern;

/// The governors whose safety arguments are arrival-time-agnostic and so
/// extend to jittered (sporadic) releases — derived from the governor
/// table's jitter column (everything except `la-edf`; see the
/// module docs), so this harness and the experiments can never disagree
/// about who is jitter-safe.
fn jitter_safe_governors() -> Vec<&'static str> {
    GOVERNORS
        .iter()
        .filter(|g| g.caps.jitter)
        .map(|g| g.name)
        .collect()
}

const HORIZON: f64 = 1.2;

/// The governor-invariant part of an outcome: every released job's
/// identity, release, deadline, WCET, and post-injection actual demand
/// (as exact bits), sorted.
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
/// in id order, however the engine pushed them (completions, aborts,
/// shed releases and horizon drains all arrive out of id order).
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

fn run_governor(case: &WorkloadCase, plan: &FaultPlan, name: &str) -> Result<SimOutcome, String> {
    let sim = Simulator::new(
        case.tasks.clone(),
        Processor::ideal_continuous(),
        SimConfig::new(HORIZON)
            .expect("valid horizon")
            .with_miss_policy(MissPolicy::Fail)
            .with_trace(true),
    )
    .expect("generated sets are feasible");
    let mut governor = make_governor(name).expect("governor resolves");
    sim.run_faulted(governor.as_mut(), &case.exec, plan)
        .map_err(|e| format!("{name} violated the hard guarantee: {e}"))
}

/// Overrun factors ≤ 1.0 stay inside the WCET contract: all governors
/// see the identical (jittered) job stream, meet every deadline under
/// `MissPolicy::Fail`, complete every job due within the horizon, and
/// pass the fault-aware audit.
#[test]
fn in_contract_plans_never_miss_and_agree_on_the_job_stream() {
    check(
        "in_contract_plans_never_miss_and_agree_on_the_job_stream",
        64,
        |rng| {
            let n_tasks = 2 + rng.below(5) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.9);
            let bcet = rng.range_inclusive_f64(0.1, 1.0);
            let seed = rng.below(1_000_000);
            let fault_seed = rng.below(1_000_000);
            let overrun_p = rng.range_inclusive_f64(0.0, 0.5);
            let factor = rng.range_inclusive_f64(0.5, 1.0);
            let jitter_p = rng.range_inclusive_f64(0.0, 0.5);
            let jitter_frac = rng.range_inclusive_f64(0.0, 0.3);
            let drop_p = rng.range_inclusive_f64(0.0, 0.3);
            let case = WorkloadCase::synthetic(
                n_tasks,
                utilization,
                DemandPattern::Uniform {
                    min: bcet,
                    max: 1.0,
                },
                seed,
            );
            let plan = FaultPlan::new(fault_seed)
                .with_overrun(overrun_p, factor)
                .expect("valid channel")
                .with_release_jitter(jitter_p, jitter_frac)
                .expect("valid channel")
                .with_switch_drops(drop_p)
                .expect("valid channel")
                .with_policy_override(OverrunPolicy::CompleteAtMax);

            let reference = run_governor(&case, &plan, "no-dvs")?;
            let ref_sig = job_signature(&reference);

            for name in jitter_safe_governors() {
                let outcome = run_governor(&case, &plan, name)?;
                assert_records_in_id_order(&outcome, name);
                assert_eq!(outcome.miss_count(), 0, "{} missed in-contract", name);
                assert_eq!(
                    &job_signature(&outcome),
                    &ref_sig,
                    "{} observed a different job stream than no-dvs",
                    name
                );
                // Every job due within the horizon completed.
                for r in &outcome.jobs {
                    assert!(
                        r.deadline > HORIZON || r.completion.is_some(),
                        "{}: job {:?} due at {} never completed",
                        name,
                        r.id,
                        r.deadline
                    );
                }
                let audit = audit_outcome(&outcome, &case.tasks, &plan);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}

/// Overrun factors > 1.0 violate the WCET contract on purpose. The
/// run must still succeed under `MissPolicy::Fail` — which fires on
/// *unattributed* misses only — every miss must trace back to the
/// contamination closure, and the injected job stream must still be
/// bit-identical to the `no-dvs` reference.
#[test]
fn overruns_degrade_gracefully_and_only_where_injected() {
    check(
        "overruns_degrade_gracefully_and_only_where_injected",
        64,
        |rng| {
            let n_tasks = 2 + rng.below(5) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.9);
            let bcet = rng.range_inclusive_f64(0.1, 1.0);
            let seed = rng.below(1_000_000);
            let fault_seed = rng.below(1_000_000);
            let overrun_p = rng.range_inclusive_f64(0.05, 0.6);
            let factor = rng.range_inclusive_f64(1.0, 2.5);
            let jitter_p = rng.range_inclusive_f64(0.0, 0.3);
            let jitter_frac = rng.range_inclusive_f64(0.0, 0.2);
            let case = WorkloadCase::synthetic(
                n_tasks,
                utilization,
                DemandPattern::Uniform {
                    min: bcet,
                    max: 1.0,
                },
                seed,
            );
            let declared = FaultPlan::new(fault_seed)
                .with_overrun(overrun_p, factor)
                .expect("valid channel")
                .with_release_jitter(jitter_p, jitter_frac)
                .expect("valid channel");
            let plan = declared.with_policy_override(OverrunPolicy::CompleteAtMax);

            let reference = run_governor(&case, &plan, "no-dvs")?;
            let ref_sig = job_signature(&reference);
            // Even the full-speed reference may miss — but only on jobs the
            // injection contaminated.
            assert_eq!(
                reference.unattributed_misses(),
                0,
                "no-dvs unattributed miss"
            );

            for name in jitter_safe_governors() {
                let outcome = run_governor(&case, &plan, name)?;
                assert_records_in_id_order(&outcome, name);
                // A governor's own policy, where it differs from the
                // override (`dra` aborts, `feedback-edf` sheds the next
                // release), pushes records in yet another order, and its
                // aborted or shed jobs must still satisfy the referee.
                let policy = make_governor(name)
                    .expect("governor resolves")
                    .overrun_policy();
                if policy != OverrunPolicy::CompleteAtMax {
                    let own = run_governor(&case, &declared, name)?;
                    assert_records_in_id_order(&own, name);
                    let audit = audit_outcome(&own, &case.tasks, &declared);
                    assert!(
                        audit.is_clean(),
                        "{name} ({policy:?}) failed the audit: {audit}"
                    );
                }
                assert_eq!(
                    outcome.unattributed_misses(),
                    0,
                    "{}: a miss outside the contamination closure is an \
                 algorithm bug, not an injection artifact",
                    name
                );
                assert_eq!(
                    &job_signature(&outcome),
                    &ref_sig,
                    "{} observed a different job stream than no-dvs",
                    name
                );
                let audit = audit_outcome(&outcome, &case.tasks, &plan);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}

/// Jitter-free plans (overruns straddling the contract boundary, plus
/// dropped switches) keep arrivals strictly periodic, so *every*
/// governor — `la-edf` included — must degrade gracefully: no
/// unattributed miss, the injected job stream bit-identical to
/// `no-dvs`, and a clean audit.
#[test]
fn periodic_arrivals_cover_every_governor() {
    check("periodic_arrivals_cover_every_governor", 64, |rng| {
        let n_tasks = 2 + rng.below(5) as usize;
        let utilization = rng.range_inclusive_f64(0.2, 0.9);
        let bcet = rng.range_inclusive_f64(0.1, 1.0);
        let seed = rng.below(1_000_000);
        let fault_seed = rng.below(1_000_000);
        let overrun_p = rng.range_inclusive_f64(0.0, 0.5);
        let factor = rng.range_inclusive_f64(0.5, 2.0);
        let drop_p = rng.range_inclusive_f64(0.0, 0.3);
        let case = WorkloadCase::synthetic(
            n_tasks,
            utilization,
            DemandPattern::Uniform {
                min: bcet,
                max: 1.0,
            },
            seed,
        );
        let plan = FaultPlan::new(fault_seed)
            .with_overrun(overrun_p, factor)
            .expect("valid channel")
            .with_switch_drops(drop_p)
            .expect("valid channel")
            .with_policy_override(OverrunPolicy::CompleteAtMax);

        let reference = run_governor(&case, &plan, "no-dvs")?;
        let ref_sig = job_signature(&reference);

        for name in GOVERNORS.iter().map(|g| g.name) {
            let outcome = run_governor(&case, &plan, name)?;
            assert_records_in_id_order(&outcome, name);
            assert_eq!(
                outcome.unattributed_misses(),
                0,
                "{}: unattributed miss under periodic arrivals",
                name
            );
            if factor <= 1.0 {
                assert_eq!(outcome.miss_count(), 0, "{} missed in-contract", name);
            }
            assert_eq!(
                &job_signature(&outcome),
                &ref_sig,
                "{} observed a different job stream than no-dvs",
                name
            );
            let audit = audit_outcome(&outcome, &case.tasks, &plan);
            assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
        }
        Ok(())
    });
}
