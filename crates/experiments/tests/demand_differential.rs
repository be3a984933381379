//! Differential pinning of the incremental slack analysis.
//!
//! The governed hot path ([`DemandAnalysis::analyze`]) is incremental:
//! cached descriptors, a repaired cross-dispatch event sequence, and a
//! pruned sweep. Its contract is that none of that machinery is
//! observable — every dispatch must return a `DemandSlack` **bit-identical**
//! to the from-scratch, unpruned oracle
//! ([`DemandAnalysis::analyze_reference`]), while visiting no more events.
//!
//! This harness drives the exact st-edf hook sequence (allowance grant
//! before the sweep, settle on completion, drain on idle, invalidate on
//! overrun) through full simulations over a seeds × workloads × fault-plan
//! matrix, comparing the two analyzers at **every** dispatch. The fault
//! plans matter: release jitter moves release bases off the periodic
//! lattice (forcing the general sequence repair), and overruns exercise
//! the ledger-clear invalidation path. The workloads are a 6-task
//! synthetic set, the avionics reference set, and a 12-task set with a
//! 1000:1 period spread, whose long, dense cached sequences give every
//! in-place re-stamp of a moved chain many neighbours to stay ordered
//! against.

use stadvs_core::sources::{DemandAnalysis, ReclaimedPool};
use stadvs_experiments::WorkloadCase;
use stadvs_power::{Processor, Speed};
use stadvs_sim::{
    ActiveJob, FaultPlan, Governor, JobRecord, SchedulerView, SimConfig, SimScratch, Simulator,
    TaskSet,
};
use stadvs_workload::{reference, DemandPattern, PeriodGenerator, TaskSetSpec};

/// Test governor replaying the st-edf hook sequence, running both
/// analyzers at every dispatch and asserting their agreement in place.
struct DifferentialProbe {
    pool: ReclaimedPool,
    demand: DemandAnalysis,
    /// Dispatches checked (also how many times each repair-path family
    /// had a chance to run).
    checked: u64,
    /// Dispatches where the pruned sweep visited strictly fewer events.
    pruned: u64,
    label: String,
}

impl Governor for DifferentialProbe {
    fn name(&self) -> &str {
        "differential-probe"
    }

    fn on_start(&mut self, tasks: &TaskSet, _processor: &Processor) {
        self.pool.reset(tasks);
        self.demand.invalidate();
        self.demand.reset_stats();
    }

    fn select_speed(&mut self, view: &SchedulerView<'_>, job: &ActiveJob) -> Speed {
        let _allowance = self.pool.allowance(view, job);
        let swept_before = self.demand.stats().events_swept;
        let result = self.demand.analyze(view, job, &self.pool);
        let swept = self.demand.stats().events_swept - swept_before;
        let (oracle, oracle_events) = self.demand.analyze_reference(view, job, &self.pool);
        assert!(
            // xtask:allow(float-eq): deliberate bit-identity check against the oracle
            result.slack.to_bits() == oracle.slack.to_bits()
                // xtask:allow(float-eq): deliberate bit-identity check, as above
                && result.binding_claims.to_bits() == oracle.binding_claims.to_bits(),
            "{}: dispatch {} at t={} diverged: incremental {result:?}, oracle {oracle:?}",
            self.label,
            self.checked,
            view.now(),
        );
        assert!(
            swept <= oracle_events,
            "{}: dispatch {} at t={}: pruned sweep visited {swept} events, oracle {oracle_events}",
            self.label,
            self.checked,
            view.now(),
        );
        self.checked += 1;
        if swept < oracle_events {
            self.pruned += 1;
        }
        Speed::FULL
    }

    fn on_completion(&mut self, _view: &SchedulerView<'_>, record: &JobRecord) {
        self.pool.settle(record, true);
    }

    fn on_idle(&mut self, _view: &SchedulerView<'_>) {
        self.pool.drain_on_idle();
    }

    fn on_overrun(&mut self, _view: &SchedulerView<'_>, _job: &ActiveJob) {
        self.pool.invalidate_on_overrun();
    }
}

/// The fault-plan axis: fault-free, WCET overruns (ledger clears), and
/// release jitter (off-lattice release bases).
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::NONE),
        (
            "overrun",
            FaultPlan::new(seed)
                .with_overrun(0.2, 1.3)
                .expect("valid overrun parameters"),
        ),
        (
            "jitter",
            FaultPlan::new(seed)
                .with_release_jitter(0.3, 0.2)
                .expect("valid jitter parameters"),
        ),
    ]
}

fn run_case(label: String, case: &WorkloadCase, horizon: f64, plan: &FaultPlan) -> (u64, u64) {
    let sim = Simulator::new(
        case.tasks.clone(),
        Processor::ideal_continuous(),
        SimConfig::new(horizon).expect("test horizon is valid"),
    )
    .expect("test task sets are feasible");
    let mut probe = DifferentialProbe {
        pool: ReclaimedPool::new(),
        demand: DemandAnalysis::new(1.0),
        checked: 0,
        pruned: 0,
        label,
    };
    sim.run_faulted_with_scratch(&mut probe, &case.exec, plan, &mut SimScratch::new())
        .expect("test simulation succeeds");
    (probe.checked, probe.pruned)
}

#[test]
fn incremental_analysis_matches_oracle_across_seeds_workloads_and_faults() {
    let avionics_tasks = reference::all()
        .into_iter()
        .find(|(name, _)| *name == "avionics")
        .expect("avionics reference set exists")
        .1;
    let avionics_horizon = avionics_tasks.max_period();

    let mut total_checked = 0u64;
    let mut total_pruned = 0u64;
    for seed in [11, 42, 77] {
        let synthetic =
            WorkloadCase::synthetic(6, 0.75, DemandPattern::Uniform { min: 0.3, max: 1.0 }, seed);
        let avionics = WorkloadCase::fixed(
            avionics_tasks.clone(),
            DemandPattern::Uniform { min: 0.5, max: 1.0 },
            seed,
        );
        let wide_tasks = TaskSetSpec::new(12, 0.75)
            .expect("valid spec")
            .with_periods(PeriodGenerator::LogUniform {
                min: 0.001,
                max: 1.0,
            })
            .with_seed(seed)
            .generate()
            .expect("generation succeeds");
        let wide = WorkloadCase::fixed(
            wide_tasks,
            DemandPattern::Uniform { min: 0.3, max: 1.0 },
            seed,
        );
        for (plan_name, plan) in fault_plans(seed ^ 0xD1FF) {
            for (workload, case, horizon) in [
                ("synthetic", &synthetic, 12.0),
                ("avionics", &avionics, avionics_horizon),
                ("wide", &wide, 0.5),
            ] {
                let label = format!("seed {seed} / {workload} / {plan_name}");
                let (checked, pruned) = run_case(label, case, horizon, &plan);
                assert!(
                    checked > 0,
                    "seed {seed} {workload} {plan_name}: no dispatches"
                );
                total_checked += checked;
                total_pruned += pruned;
            }
        }
    }
    // The matrix must actually exercise the incremental machinery: many
    // dispatches overall, and the pruned sweep must beat the oracle on a
    // meaningful share of them (tail-binding sweeps legitimately tie).
    assert!(
        total_checked > 1_000,
        "matrix too small: {total_checked} dispatches"
    );
    assert!(
        total_pruned * 10 >= total_checked,
        "pruning never engaged: {total_pruned} of {total_checked} dispatches pruned"
    );
}
