//! Deterministic replays of counterexamples the property tests once
//! shrank to, so the fixes stay guarded even when the properties explore
//! different random cases. The inputs are fixed, but the task sets they
//! generate come from the seeded stream (`stadvs::sim::rng`), so a stream
//! change re-samples what each replay checks.

use stadvs::analysis::{
    materialize_jobs, minimum_static_speed, optimal_static_speed, yds_schedule, WorkKind,
};
use stadvs::experiments::{make_governor, WorkloadCase};
use stadvs::power::{Processor, Speed};
use stadvs::sim::{
    audit_outcome, ConstantRatio, FaultPlan, Governor, MissPolicy, SchedulerView, SimConfig,
    Simulator, Task, TaskSet, WorstCase,
};
use stadvs::workload::{DemandPattern, TaskSetSpec};

struct Fixed(Speed);
impl Governor for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn select_speed(&mut self, _: &SchedulerView<'_>, _: &stadvs::sim::ActiveJob) -> Speed {
        self.0
    }
}

/// `analysis_cross_check::oracle_speed_equals_yds_peak_and_is_tight`
/// shrunk to `seed = 0, n = 2, utilization = 0.2, ratio = 0.2`.
#[test]
fn oracle_speed_tightness_seed0() {
    let (seed, n, utilization, ratio) = (0u64, 2usize, 0.2f64, 0.2f64);
    let tasks = TaskSetSpec::new(n, utilization)
        .expect("valid")
        .with_seed(seed)
        .generate()
        .expect("generates");
    let exec = ConstantRatio::new(ratio);
    let horizon = 1.5;
    let jobs = materialize_jobs(&tasks, &exec, horizon);
    let jobs = stadvs::analysis::due_within(&jobs, horizon);
    if jobs.is_empty() {
        return;
    }
    let oracle = optimal_static_speed(&jobs, WorkKind::Actual);
    let yds_peak = yds_schedule(&jobs, WorkKind::Actual).peak_speed();
    assert!(
        (oracle - yds_peak).abs() < 1e-9,
        "oracle {oracle} != YDS peak {yds_peak}"
    );
    let sim = Simulator::new(
        tasks,
        Processor::ideal_continuous_with_floor(1.0e-6).expect("valid floor"),
        SimConfig::new(horizon)
            .expect("valid")
            .with_miss_policy(MissPolicy::Record),
    )
    .expect("feasible");
    if oracle <= 1.0 && oracle > 0.0 {
        let out = sim
            .run(
                &mut Fixed(Speed::new(oracle.min(1.0)).expect("valid")),
                &exec,
            )
            .expect("runs");
        assert_eq!(out.miss_count(), 0, "oracle speed missed");
        if oracle < 0.95 {
            let slow = sim
                .run(&mut Fixed(Speed::new(oracle * 0.95).expect("valid")), &exec)
                .expect("runs");
            assert!(slow.miss_count() > 0, "oracle speed {oracle} is not tight");
        }
    }
}

/// `analysis_cross_check::minimum_static_speed_is_sufficient_for_constrained_deadlines`
/// shrunk to `seed = 0, n = 2, utilization = 0.5839579715603067,
/// fraction = 0.55`.
#[test]
fn minimum_static_speed_constrained_seed0() {
    let (seed, n, utilization, fraction) = (0u64, 2usize, 0.5839579715603067f64, 0.55f64);
    let base = TaskSetSpec::new(n, utilization)
        .expect("valid")
        .with_seed(seed)
        .generate()
        .expect("generates");
    let tasks = TaskSet::new(
        base.iter()
            .map(|(_, t)| {
                let deadline = (fraction * t.period()).max(t.wcet());
                Task::with_deadline(t.wcet(), t.period(), deadline).expect("valid")
            })
            .collect(),
    )
    .expect("non-empty");
    if tasks.density() > 1.0 {
        return;
    }
    let speed = minimum_static_speed(&tasks);
    assert!(speed <= 1.0 + 1e-9, "density-bounded set infeasible?");
    let sim = Simulator::new(
        tasks,
        Processor::ideal_continuous_with_floor(1.0e-6).expect("valid floor"),
        SimConfig::new(3.0)
            .expect("valid")
            .with_miss_policy(MissPolicy::Fail),
    )
    .expect("feasible");
    let clamped = Speed::new((speed + 1e-9).min(1.0)).expect("valid");
    let out = sim.run(&mut Fixed(clamped), &WorstCase);
    assert!(
        out.is_ok(),
        "minimum static speed {speed} missed: {:?}",
        out.err()
    );
}

fn constrained_case(
    n_tasks: usize,
    utilization: f64,
    deadline_fraction: f64,
    bcet: f64,
    seed: u64,
) {
    let base = WorkloadCase::synthetic(
        n_tasks,
        utilization,
        DemandPattern::Uniform {
            min: bcet,
            max: 1.0,
        },
        seed,
    );
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
        let report = audit_outcome(&outcome, &tasks, &FaultPlan::NONE);
        assert!(report.is_clean(), "{name} failed the audit: {report}");
    }
}

/// `hard_guarantee::constrained_deadlines_preserve_the_guarantee` shrunk to
/// `n_tasks = 3, utilization = 0.3387182379962101, deadline_fraction = 0.6,
/// bcet = 0.0, seed = 479033`.
#[test]
fn constrained_deadlines_seed_479033() {
    constrained_case(3, 0.3387182379962101, 0.6, 0.0, 479033);
}

/// `hard_guarantee::constrained_deadlines_preserve_the_guarantee` shrunk to
/// `n_tasks = 6, utilization = 0.1, deadline_fraction = 0.6986663226100975,
/// bcet = 0.9711453377050555, seed = 486028`.
#[test]
fn constrained_deadlines_seed_486028() {
    constrained_case(6, 0.1, 0.6986663226100975, 0.9711453377050555, 486028);
}
