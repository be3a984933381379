//! The platform differential harness: the multiprocessor engine against
//! the uniprocessor engine it generalizes.
//!
//! Two facts pin [`PlatformSim`] to the existing single-core semantics:
//!
//! 1. **One core is the identity.** A 1-core `PlatformSim` (original task
//!    order, same config) must reproduce the legacy [`Simulator`]
//!    *bit-for-bit* — energy breakdown, switch/event counts, every job
//!    record, every trace segment, and the miss set — across the golden
//!    corpus parameters (3 seeds × 3 governors). Any divergence means the
//!    platform layer changed simulation semantics, not just arity.
//! 2. **Many cores keep the hard guarantee.** Partitioned union workloads
//!    on 4 cores run under [`MissPolicy::Fail`] with one fresh governor
//!    per core, and every core's outcome must pass the fault-aware audit
//!    referee ([`PlatformSim::audit`]) — for both partitioners, with the
//!    per-core demand streams routed through the partition's id
//!    translation.

use stadvs::experiments::{make_governor, PlatformWorkload, WorkloadCase};
use stadvs::power::{Platform, Processor};
use stadvs::sim::{MissPolicy, PlatformSim, SimConfig, SimOutcome, Simulator};
use stadvs::workload::{partitioner_by_name, DemandPattern};

/// The golden-trace corpus parameters (see
/// `crates/experiments/tests/golden_trace.rs`): the trivial, the
/// baseline-reclaiming, and the full slack-analysis scheduling paths.
const SEEDS: [u64; 3] = [11, 23, 47];
const GOVERNORS: [&str; 3] = ["no-dvs", "cc-edf", "st-edf"];
const N_TASKS: usize = 6;
const UTILIZATION: f64 = 0.75;
const HORIZON: f64 = 4.0;

/// The identity of every missed job, sorted.
fn miss_set(out: &SimOutcome) -> Vec<(usize, u64)> {
    let mut set: Vec<(usize, u64)> = out
        .jobs
        .iter()
        .filter(|j| j.missed(out.horizon))
        .map(|j| (j.id.task.0, j.id.index))
        .collect();
    set.sort_unstable();
    set
}

#[test]
fn one_core_platform_is_bit_identical_to_the_legacy_simulator() {
    for seed in SEEDS {
        let case = WorkloadCase::synthetic(
            N_TASKS,
            UTILIZATION,
            DemandPattern::Uniform { min: 0.3, max: 1.0 },
            seed,
        );
        let config = SimConfig::default()
            .with_horizon(HORIZON)
            .expect("valid horizon")
            .with_trace(true);
        let legacy_sim = Simulator::new(
            case.tasks.clone(),
            Processor::ideal_continuous(),
            config.clone(),
        )
        .expect("corpus task sets are feasible");
        let platform_sim =
            PlatformSim::uniprocessor(case.tasks.clone(), Processor::ideal_continuous(), config)
                .expect("same feasibility check as the legacy engine");
        for name in GOVERNORS {
            let mut governor = make_governor(name).expect("corpus governor exists");
            let legacy = legacy_sim
                .run(governor.as_mut(), &case.exec)
                .expect("legacy run succeeds");
            let platform = platform_sim
                .run(
                    |_| make_governor(name).expect("corpus governor exists"),
                    &case.exec,
                )
                .expect("platform run succeeds");
            assert_eq!(platform.cores.len(), 1);
            // The acceptance triple, by name, for readable failures …
            assert_eq!(
                platform.cores[0].energy, legacy.energy,
                "{name}/{seed}: energy diverged"
            );
            assert_eq!(
                miss_set(&platform.cores[0]),
                miss_set(&legacy),
                "{name}/{seed}: miss set diverged"
            );
            assert_eq!(
                platform.cores[0].trace, legacy.trace,
                "{name}/{seed}: trace diverged"
            );
            // … and the full-outcome equality that subsumes it (job
            // records, switches, event counts, preemptions, …).
            assert_eq!(platform.cores[0], legacy, "{name}/{seed}: outcome diverged");
            // Platform-level aggregates collapse to the single core.
            assert_eq!(platform.total_energy(), legacy.energy.total());
            assert_eq!(platform.switches(), legacy.switches);
            assert_eq!(platform.miss_count(), legacy.miss_count());
        }
    }
}

#[test]
fn multi_core_partitions_keep_the_hard_guarantee() {
    const CORES: usize = 4;
    for partitioner_name in ["ffd", "wfd"] {
        let partitioner = partitioner_by_name(partitioner_name).expect("registered");
        for seed in SEEDS {
            let case = WorkloadCase::synthetic_union(
                CORES,
                N_TASKS,
                0.5,
                DemandPattern::Uniform { min: 0.3, max: 1.0 },
                seed,
            );
            let workload = PlatformWorkload::partitioned(case, partitioner.as_ref(), CORES);
            assert!(
                workload.partition.admitted(),
                "{partitioner_name}/{seed}: rejected a task at U = 0.5/core"
            );
            let (sim, execs) = workload.simulator(
                &Platform::homogeneous(CORES, Processor::ideal_continuous())
                    .expect("positive core count"),
                SimConfig::default()
                    .with_horizon(HORIZON)
                    .expect("valid horizon")
                    .with_miss_policy(MissPolicy::Fail),
            );
            for name in GOVERNORS {
                let outcome = sim
                    .run_faulted_with_scratch(
                        |_| make_governor(name).expect("corpus governor exists"),
                        &execs,
                        &stadvs::sim::FaultPlan::NONE,
                        &mut stadvs::sim::PlatformScratch::new(),
                    )
                    .unwrap_or_else(|e| {
                        panic!("{partitioner_name}/{name}/{seed} violated the hard guarantee: {e}")
                    });
                assert!(outcome.all_deadlines_met());
                // The per-core audit referee: exact periodic releases, no
                // overruns, no unattributed misses, on every core.
                let reports = sim
                    .audit(&outcome, &stadvs::sim::FaultPlan::NONE)
                    .expect("outcome matches the platform");
                assert_eq!(reports.len(), CORES);
                for (core, audit) in reports.iter().enumerate() {
                    assert!(
                        audit.is_clean(),
                        "{partitioner_name}/{name}/{seed} core {core} failed the audit: {audit}"
                    );
                }
            }
        }
    }
}
