//! The central property of the whole repository: **every governor meets
//! every deadline on every feasible workload** — enforced with randomized
//! task sets, demand patterns, and utilizations, under the strict
//! [`MissPolicy::Fail`] policy plus the independent referee
//! ([`audit_outcome`]) on the recorded traces.
//!
//! Case counts: 48 per property by default, raised in CI's full job via
//! `STADVS_PROPTEST_CASES`.

use stadvs::experiments::{make_governor, WorkloadCase};
use stadvs::power::Processor;
use stadvs::sim::rng::{check, Rng};
use stadvs::sim::{audit_outcome, FaultPlan, MissPolicy, SimConfig, Simulator};
use stadvs::workload::DemandPattern;

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

/// A demand pattern drawn from one of five families, with its parameters.
fn random_pattern(rng: &mut Rng) -> DemandPattern {
    match rng.below(5) {
        0 => DemandPattern::Constant {
            ratio: rng.range_inclusive_f64(0.0, 1.0),
        },
        1 => DemandPattern::Uniform {
            min: rng.range_inclusive_f64(0.0, 1.0),
            max: 1.0,
        },
        2 => DemandPattern::Normal {
            mean: rng.range_inclusive_f64(0.1, 0.9),
            std_dev: rng.range_inclusive_f64(0.05, 0.4),
            floor: 0.01,
        },
        3 => {
            let low = rng.range_inclusive_f64(0.05, 0.5);
            let spread = rng.range_inclusive_f64(0.05, 0.45);
            DemandPattern::Bimodal {
                low,
                high: (low + spread + 0.1).min(1.0),
                high_probability: 0.3,
            }
        }
        _ => DemandPattern::Bursty {
            low: 0.1,
            high: 0.95,
            burst_jobs: 2 + rng.below(29) as u32,
            duty: 0.5,
        },
    }
}

/// Random (n, U, pattern, seed) → all governors, zero misses, clean
/// audit.
#[test]
fn no_governor_ever_misses() {
    check("no_governor_ever_misses", 48, |rng| {
        let n_tasks = 2 + rng.below(8) as usize;
        let utilization = rng.range_inclusive_f64(0.1, 1.0);
        let pattern = random_pattern(rng);
        let seed = rng.below(1_000_000);
        let case = WorkloadCase::synthetic(n_tasks, utilization, pattern, seed);
        let sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            SimConfig::new(1.5)
                .expect("valid horizon")
                .with_miss_policy(MissPolicy::Fail)
                .with_trace(true),
        )
        .expect("generated sets are feasible");
        for name in GOVERNORS {
            let mut governor = make_governor(name).expect("governor resolves");
            let outcome = sim
                .run(governor.as_mut(), &case.exec)
                .unwrap_or_else(|e| panic!("{name} violated the hard guarantee: {e}"));
            let audit = audit_outcome(&outcome, &case.tasks, &FaultPlan::NONE);
            assert!(audit.is_clean(), "{name} failed the audit: {audit}");
        }
        Ok(())
    });
}

/// Discrete platforms quantize speeds up; the guarantee must survive
/// coarse operating-point grids, and every traced execution speed must be
/// one of the grid's operating points.
#[test]
fn discrete_platforms_preserve_the_guarantee() {
    check("discrete_platforms_preserve_the_guarantee", 48, |rng| {
        let levels = 2 + rng.below(6) as usize;
        let utilization = rng.range_inclusive_f64(0.2, 1.0);
        let bcet = rng.range_inclusive_f64(0.0, 1.0);
        let seed = rng.below(100_000);
        let case = WorkloadCase::synthetic(
            5,
            utilization,
            DemandPattern::Uniform {
                min: bcet,
                max: 1.0,
            },
            seed,
        );
        let processor = Processor::uniform_discrete(levels).expect("levels >= 1");
        let sim = Simulator::new(
            case.tasks.clone(),
            processor,
            SimConfig::new(1.0)
                .expect("valid horizon")
                .with_miss_policy(MissPolicy::Fail)
                .with_trace(true),
        )
        .expect("feasible");
        for name in ["static-edf", "cc-edf", "dra", "la-edf", "st-edf"] {
            let mut governor = make_governor(name).expect("resolves");
            let out = sim.run(governor.as_mut(), &case.exec);
            assert!(out.is_ok(), "{name} missed on {levels}-level platform");
            let audit = audit_outcome(&out.unwrap(), &case.tasks, &FaultPlan::NONE);
            assert!(audit.is_clean(), "{name} failed the audit: {audit}");
        }
        Ok(())
    });
}

/// Constrained deadlines (`D < T`) break the naive `1/U` canonical
/// stretch; the governors whose arguments extend (the slack-analysis
/// family, the canonical-stretch baselines rebased on the dbf-intensity
/// speed, and the stretch/full-speed schemes) must stay spotless.
/// (ccEDF and laEDF are excluded: their published utilization-bound
/// arguments genuinely assume implicit deadlines.)
#[test]
fn constrained_deadlines_preserve_the_guarantee() {
    check("constrained_deadlines_preserve_the_guarantee", 48, |rng| {
        let n_tasks = 2 + rng.below(5) as usize;
        let utilization = rng.range_inclusive_f64(0.1, 0.55);
        let deadline_fraction = rng.range_inclusive_f64(0.6, 1.0);
        let bcet = rng.range_inclusive_f64(0.0, 1.0);
        let seed = rng.below(1_000_000);
        use stadvs::sim::{Task, TaskSet};
        let base = WorkloadCase::synthetic(
            n_tasks,
            utilization,
            DemandPattern::Uniform {
                min: bcet,
                max: 1.0,
            },
            seed,
        );
        // Shrink every deadline; density stays ≤ U / fraction ≤ 0.92.
        let tasks = TaskSet::new(
            base.tasks
                .iter()
                .map(|(_, t)| {
                    let deadline = (deadline_fraction * t.period()).max(t.wcet());
                    Task::with_deadline(t.wcet(), t.period(), deadline).expect("valid")
                })
                .collect(),
        )
        .expect("non-empty");
        let sim = Simulator::new(
            tasks.clone(),
            Processor::ideal_continuous(),
            SimConfig::new(1.5)
                .expect("valid horizon")
                .with_miss_policy(MissPolicy::Fail)
                .with_trace(true),
        )
        .expect("density bounded above");
        for name in [
            "no-dvs",
            "static-edf",
            "lpps-edf",
            "dra",
            "dra-ote",
            "feedback-edf",
            "st-edf",
            "st-edf[r]",
            "st-edf[a]",
            "st-edf[d]",
            "st-edf-pace",
        ] {
            let mut governor = make_governor(name).expect("resolves");
            let outcome = sim
                .run(governor.as_mut(), &base.exec)
                .unwrap_or_else(|e| panic!("{name} missed under constrained deadlines: {e}"));
            let audit = audit_outcome(&outcome, &tasks, &FaultPlan::NONE);
            assert!(audit.is_clean(), "{name} failed the audit: {audit}");
        }
        Ok(())
    });
}

/// Asynchronous releases (random per-task phases) must not break any
/// governor: every safety argument in the repository is phase-agnostic
/// (synchronous arrivals are the worst case, but bookkeeping bugs love
/// offsets).
#[test]
fn random_phases_preserve_the_guarantee() {
    check("random_phases_preserve_the_guarantee", 48, |rng| {
        let n_tasks = 2 + rng.below(6) as usize;
        let utilization = rng.range_inclusive_f64(0.1, 1.0);
        let bcet = rng.range_inclusive_f64(0.0, 1.0);
        let seed = rng.below(1_000_000);
        use stadvs::workload::{ExecutionModel, TaskSetSpec};
        let tasks = TaskSetSpec::new(n_tasks, utilization)
            .expect("valid")
            .with_random_phases(true)
            .with_seed(seed)
            .generate()
            .expect("generates");
        let exec = ExecutionModel::uniform_bcet(bcet)
            .expect("valid")
            .with_seed(seed ^ 0xFEED);
        let sim = Simulator::new(
            tasks.clone(),
            Processor::ideal_continuous(),
            SimConfig::new(1.5)
                .expect("valid horizon")
                .with_miss_policy(MissPolicy::Fail)
                .with_trace(true),
        )
        .expect("feasible");
        for name in GOVERNORS {
            let mut governor = make_governor(name).expect("resolves");
            let outcome = sim
                .run(governor.as_mut(), &exec)
                .unwrap_or_else(|e| panic!("{name} missed with phases: {e}"));
            let audit = audit_outcome(&outcome, &tasks, &FaultPlan::NONE);
            assert!(audit.is_clean(), "{name} failed the audit: {audit}");
        }
        Ok(())
    });
}

/// Hard tasks keep the zero-miss guarantee when co-scheduled with
/// weakly-hard and sporadic tasks under every fault regime: skips,
/// stretched arrivals, in- and out-of-contract overruns, jitter, and
/// dropped switches may degrade the model-bearing tasks, but a hard
/// miss outside the contamination closure is an algorithm bug.
/// (`la-edf` is excluded by the capability table: the sets carry
/// sporadic arrivals.)
#[test]
fn mixed_models_preserve_the_hard_guarantee_under_faults() {
    check(
        "mixed_models_preserve_the_hard_guarantee_under_faults",
        48,
        |rng| {
            let n_tasks = 3 + rng.below(5) as usize;
            let utilization = rng.range_inclusive_f64(0.2, 0.9);
            let weakly_hard = 1 + rng.below(2) as usize;
            let sporadic = 1 + rng.below(2) as usize;
            let k = 2 + rng.below(3) as u32;
            let burst = rng.range_inclusive_f64(0.0, 1.0);
            let bcet = rng.range_inclusive_f64(0.1, 1.0);
            let seed = rng.below(1_000_000);
            let fault_seed = rng.below(1_000_000);
            let overrun_p = rng.range_inclusive_f64(0.0, 0.4);
            let factor = rng.range_inclusive_f64(0.5, 2.0);
            let jitter_p = rng.range_inclusive_f64(0.0, 0.4);
            let jitter_frac = rng.range_inclusive_f64(0.0, 0.3);
            let drop_p = rng.range_inclusive_f64(0.0, 0.3);
            use stadvs::experiments::governor_caps;
            use stadvs::sim::OverrunPolicy;
            use stadvs::workload::{ExecutionModel, ModelMix, TaskSetSpec};
            // Keep at least one hard task in every set — the property under
            // test is *their* guarantee.
            let weakly_hard = weakly_hard.min(n_tasks - 2);
            let sporadic = sporadic.min(n_tasks - 1 - weakly_hard);
            let tasks = TaskSetSpec::new(n_tasks, utilization)
                .expect("valid")
                .with_model_mix(
                    ModelMix::new()
                        .with_weakly_hard(weakly_hard, 1, k)
                        .expect("contract in range")
                        .with_sporadic(sporadic, burst)
                        .expect("burst in range"),
                )
                .expect("mix fits")
                .with_seed(seed)
                .generate()
                .expect("generates");
            let exec = ExecutionModel::uniform_bcet(bcet)
                .expect("valid")
                .with_seed(seed ^ 0xFEED);
            let plan = FaultPlan::new(fault_seed)
                .with_overrun(overrun_p, factor)
                .expect("valid channel")
                .with_release_jitter(jitter_p, jitter_frac)
                .expect("valid channel")
                .with_switch_drops(drop_p)
                .expect("valid channel")
                .with_policy_override(OverrunPolicy::CompleteAtMax);
            let sim = Simulator::new(
                tasks.clone(),
                Processor::ideal_continuous(),
                SimConfig::new(1.2)
                    .expect("valid horizon")
                    .with_miss_policy(MissPolicy::Fail)
                    .with_trace(true),
            )
            .expect("feasible");
            for name in GOVERNORS
                .iter()
                .filter(|n| governor_caps(n).expect("lineup names are known").sporadic)
            {
                let mut governor = make_governor(name).expect("resolves");
                let outcome = sim
                    .run_faulted(governor.as_mut(), &exec, &plan)
                    .unwrap_or_else(|e| panic!("{name} violated the hard guarantee: {e}"));
                assert_eq!(
                    outcome.unattributed_misses(),
                    0,
                    "{}: miss outside the contamination closure in a mixed set",
                    name
                );
                if factor <= 1.0 {
                    assert_eq!(outcome.miss_count(), 0, "{} missed in-contract", name);
                }
                // Hard jobs must never miss without fault attribution, and
                // must never be skipped.
                for r in outcome
                    .jobs
                    .iter()
                    .filter(|r| tasks.task(r.id.task).is_hard())
                {
                    assert!(
                        !r.missed(outcome.horizon) || outcome.faults.is_contaminated(r.id),
                        "{}: hard job {:?} missed uncontaminated",
                        name,
                        r.id
                    );
                }
                assert!(
                    outcome
                        .models
                        .skipped
                        .iter()
                        .all(|id| !tasks.task(id.task).is_hard()),
                    "{}: a hard job was skipped",
                    name
                );
                let audit = audit_outcome(&outcome, &tasks, &plan);
                assert!(audit.is_clean(), "{} failed the audit: {}", name, audit);
            }
            Ok(())
        },
    );
}

/// With transition overhead, the overhead-aware variant must still be
/// spotless (the oblivious ones are allowed to fail here — that hazard
/// is the point of the fig5 experiment).
#[test]
fn overhead_aware_variant_is_always_safe() {
    check("overhead_aware_variant_is_always_safe", 48, |rng| {
        let latency_us = rng.range_inclusive_f64(0.0, 1000.0);
        let utilization = rng.range_inclusive_f64(0.2, 1.0);
        let seed = rng.below(100_000);
        use stadvs::power::{TransitionEnergy, TransitionOverhead};
        let case = WorkloadCase::synthetic(
            6,
            utilization,
            DemandPattern::Uniform { min: 0.3, max: 1.0 },
            seed,
        );
        let overhead =
            TransitionOverhead::new(latency_us * 1.0e-6, TransitionEnergy::Constant(1.0e-6))
                .expect("valid overhead");
        let processor = Processor::ideal_continuous().with_overhead(overhead);
        let sim = Simulator::new(
            case.tasks.clone(),
            processor,
            SimConfig::new(1.5)
                .expect("valid horizon")
                .with_miss_policy(MissPolicy::Fail),
        )
        .expect("feasible");
        let mut governor = make_governor("st-edf-oa").expect("resolves");
        let out = sim.run(governor.as_mut(), &case.exec);
        assert!(
            out.is_ok(),
            "st-edf-oa missed at {latency_us} µs: {:?}",
            out.err()
        );
        let audit = audit_outcome(&out.unwrap(), &case.tasks, &FaultPlan::NONE);
        assert!(audit.is_clean(), "st-edf-oa failed the audit: {audit}");
        Ok(())
    });
}
