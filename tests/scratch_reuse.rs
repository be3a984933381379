//! `SimScratch` reuse must be state-free.
//!
//! The experiment workers thread one scratch through thousands of runs;
//! any engine or governor-side state leaking across runs (ready queues,
//! release cursors, the fault machinery's `skip_next` marks) would make
//! results depend on *run order* — silently, since each run still looks
//! plausible. This regression test replays two different seeds
//! back-to-back through one shared scratch and diffs every outcome —
//! energy, job records, and full traces — against fresh-scratch runs.
//!
//! The scratch keeps one piece of state on purpose: the release schedule,
//! replayed by the next run whose schedule inputs are equal. So the
//! second half replays run pairs that differ in exactly one of those
//! inputs, each difference as small as it gets.

use stadvs::experiments::{make_governor, WorkloadCase};
use stadvs::power::Processor;
use stadvs::sim::{
    ConstantRatio, FaultPlan, OverrunPolicy, SimConfig, SimOutcome, SimScratch, Simulator, Task,
    TaskSet,
};
use stadvs::workload::DemandPattern;

const GOVERNORS: &[&str] = &[
    "no-dvs",
    "cc-edf",
    "dra",
    "feedback-edf",
    "la-edf",
    "st-edf",
];

fn run_one(scratch: &mut SimScratch, seed: u64, governor: &str, plan: &FaultPlan) -> SimOutcome {
    let case = WorkloadCase::synthetic(5, 0.7, DemandPattern::Uniform { min: 0.2, max: 1.0 }, seed);
    let sim = Simulator::new(
        case.tasks.clone(),
        Processor::ideal_continuous(),
        SimConfig::new(2.0).expect("valid horizon").with_trace(true),
    )
    .expect("generated sets are feasible");
    let mut g = make_governor(governor).expect("governor resolves");
    sim.run_faulted_with_scratch(g.as_mut(), &case.exec, plan, scratch)
        .expect("run succeeds")
}

fn assert_reuse_clean(plan: &FaultPlan, label: &str) {
    // Two different workloads (different task counts would be even harsher,
    // but synthetic(5, …) with distant seeds already changes every period,
    // WCET, and demand draw).
    const SEED_A: u64 = 11;
    const SEED_B: u64 = 97;
    for name in GOVERNORS {
        let mut shared = SimScratch::new();
        let a_shared = run_one(&mut shared, SEED_A, name, plan);
        let b_shared = run_one(&mut shared, SEED_B, name, plan);
        // And back again: a third run must also be unaffected by the two
        // before it.
        let a_again = run_one(&mut shared, SEED_A, name, plan);

        let a_fresh = run_one(&mut SimScratch::new(), SEED_A, name, plan);
        let b_fresh = run_one(&mut SimScratch::new(), SEED_B, name, plan);

        assert_eq!(a_shared, a_fresh, "{label}/{name}: first run differs");
        assert_eq!(
            b_shared, b_fresh,
            "{label}/{name}: scratch reuse leaked state into the second run"
        );
        assert_eq!(
            a_again, a_fresh,
            "{label}/{name}: scratch reuse leaked state into the third run"
        );
    }
}

#[test]
fn scratch_reuse_is_bit_identical_without_faults() {
    assert_reuse_clean(&FaultPlan::NONE, "fault-free");
}

/// The harsh case: `SkipNext` recovery writes per-task marks into the
/// scratch mid-run, and the fault channels consume seeded draws — none of
/// it may survive into the next run.
#[test]
fn scratch_reuse_is_bit_identical_under_faults() {
    let plan = FaultPlan::new(7)
        .with_overrun(0.3, 1.6)
        .expect("valid overrun channel")
        .with_release_jitter(0.2, 0.2)
        .expect("valid jitter channel")
        .with_policy_override(OverrunPolicy::SkipNext);
    assert_reuse_clean(&plan, "skip-next storm");
}

/// One run's inputs, which every schedule input is part of.
#[derive(Clone)]
struct Inputs {
    /// `(wcet, period, phase, sporadic seed)` per task.
    tasks: Vec<(f64, f64, f64, Option<u64>)>,
    horizon: f64,
    plan: FaultPlan,
}

impl Inputs {
    /// Five tasks over 2 s: the 0.25 s task releases exactly at the
    /// horizon, the 0.3 s task is sporadic, and the plan injects jitter
    /// only where a pair sets one.
    fn base() -> Inputs {
        Inputs {
            tasks: vec![
                (0.025, 0.25, 0.0, None),
                (0.05, 0.5, 0.1, None),
                (0.06, 0.4, 0.0, None),
                (0.045, 0.3, 0.0, Some(11)),
                (0.05, 1.0 / 3.0, 0.05, None),
            ],
            horizon: 2.0,
            plan: FaultPlan::NONE,
        }
    }

    fn jittered(seed: u64) -> Inputs {
        Inputs {
            plan: FaultPlan::new(seed)
                .with_release_jitter(0.5, 0.3)
                .expect("valid jitter channel"),
            ..Inputs::base()
        }
    }

    fn run(&self, scratch: &mut SimScratch, governor: &str) -> SimOutcome {
        let tasks = self
            .tasks
            .iter()
            .map(|&(wcet, period, phase, sporadic)| {
                let task = Task::new(wcet, period)
                    .and_then(|t| t.with_phase(phase))
                    .expect("valid task");
                match sporadic {
                    Some(seed) => task.sporadic(0.5, seed).expect("valid sporadic task"),
                    None => task,
                }
            })
            .collect();
        let sim = Simulator::new(
            TaskSet::new(tasks).expect("non-empty set"),
            Processor::ideal_continuous(),
            SimConfig::new(self.horizon)
                .expect("valid horizon")
                .with_trace(true),
        )
        .expect("feasible set");
        let mut g = make_governor(governor).expect("governor resolves");
        sim.run_faulted_with_scratch(g.as_mut(), &ConstantRatio::new(0.6), &self.plan, scratch)
            .expect("run succeeds")
    }
}

/// Runs `a`, `b` and `a` again back to back on one scratch under every
/// governor and compares each with a fresh-scratch run.
fn assert_pair_reuse_clean(a: &Inputs, b: &Inputs, label: &str) {
    for name in GOVERNORS {
        let mut shared = SimScratch::new();
        let runs = [
            (a.run(&mut shared, name), a),
            (b.run(&mut shared, name), b),
            (a.run(&mut shared, name), a),
        ];
        for (i, (got, inputs)) in runs.iter().enumerate() {
            let fresh = inputs.run(&mut SimScratch::new(), name);
            assert_eq!(*got, fresh, "{label}/{name}: shared run {i} differs");
        }
        assert_ne!(
            runs[0].0.jobs, runs[1].0.jobs,
            "{label}/{name}: the pair must release differently"
        );
    }
}

/// The next float above `x` (`x` positive and finite).
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn schedule_reuse_tells_apart_runs_one_input_apart() {
    let base = Inputs::base();
    // The 0.25 s task's release at exactly 2 s is past the horizon in one
    // run and before it in the other.
    let horizon = Inputs {
        horizon: next_up(base.horizon),
        ..base.clone()
    };
    assert_pair_reuse_clean(&base, &horizon, "horizon's last bit");

    let mut period = base.clone();
    period.tasks[2].1 = next_up(period.tasks[2].1);
    assert_pair_reuse_clean(&base, &period, "one period's last ulp");

    let mut phase = base.clone();
    phase.tasks[1].2 = 0.15;
    assert_pair_reuse_clean(&base, &phase, "one phase");

    let mut sporadic = base.clone();
    sporadic.tasks[3].3 = Some(12);
    assert_pair_reuse_clean(&base, &sporadic, "a sporadic seed");

    assert_pair_reuse_clean(
        &Inputs::jittered(7),
        &Inputs::jittered(8),
        "the jitter seed",
    );
}
