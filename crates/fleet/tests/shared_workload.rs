//! The shared workload leaks nothing across the governor axis: a sweep's
//! cells and sketches equal, bit for bit, an aggregate built node by node
//! from `FleetSpec::node`, where every node generates its own task set
//! and runs its own `no-dvs` baseline on a fresh scratch.

use stadvs_experiments::make_governor;
use stadvs_fleet::{run_fleet, FleetAggregate, FleetConfig, FleetSpec, NodeOutcome, PeriodSpread};
use stadvs_power::Processor;
use stadvs_sim::{SimConfig, SimScratch, Simulator};
use stadvs_workload::{DemandPattern, ExecutionModel, PeriodGenerator, TaskSetSpec};

/// Two utilizations × two spreads × four governors, `no-dvs` among them,
/// three workloads per row: 12 workloads, 48 nodes.
fn spec() -> FleetSpec {
    FleetSpec {
        master_seed: 11,
        n_tasks: 4,
        horizon: 0.25,
        utilizations: vec![0.5, 0.8],
        spreads: vec![
            PeriodSpread::new("narrow", 0.05, 0.2),
            PeriodSpread::new("wide", 0.01, 1.0),
        ],
        governors: ["cc-edf", "no-dvs", "dra", "st-edf"]
            .map(String::from)
            .to_vec(),
        replications: 3,
        pattern: DemandPattern::Uniform { min: 0.4, max: 1.0 },
    }
}

/// The aggregate as one shard of `run_fleet` builds it, but node by node
/// in node-index order: each node generates its task set and demand model
/// from its own seed and runs its own baseline, on a fresh scratch.
fn node_by_node(spec: &FleetSpec) -> FleetAggregate {
    let config = SimConfig::new(spec.horizon).expect("valid horizon");
    let mut shard = FleetAggregate::new(spec);
    for i in 0..spec.nodes() {
        let node = spec.node(i);
        let spread = &spec.spreads[node.spread];
        let tasks = TaskSetSpec::new(spec.n_tasks, node.utilization)
            .expect("valid axes")
            .with_periods(PeriodGenerator::LogUniform {
                min: spread.min,
                max: spread.max,
            })
            .with_seed(node.seed)
            .generate()
            .expect("valid axes generate");
        let exec = ExecutionModel::new(spec.pattern.clone())
            .expect("valid pattern")
            .with_seed(node.seed ^ 0x5EED_5EED_5EED_5EED);
        let sim = Simulator::new(tasks, Processor::ideal_continuous(), config.clone())
            .expect("implicit-deadline sets at U < 1 are feasible");
        let mut scratch = SimScratch::new();
        let mut run = |name: &str| {
            let mut governor = make_governor(name).expect("known governor");
            sim.run_with_scratch(governor.as_mut(), &exec, &mut scratch)
                .expect("hard real-time run")
        };
        let baseline = run("no-dvs");
        let outcome = run(&spec.governors[node.governor]);
        let jobs = outcome.completed_jobs();
        shard.record(&NodeOutcome {
            cell: node.cell,
            governor: node.governor,
            normalized: outcome.total_energy() / baseline.total_energy(),
            switches_per_job: outcome.switches as f64 / jobs.max(1) as f64,
            misses: outcome.miss_count() as u64,
            jobs: jobs as u64,
        });
    }
    let mut merged = FleetAggregate::new(spec);
    merged.merge(&shard).expect("small totals");
    merged
}

#[test]
fn a_shared_workload_equals_its_nodes_run_apart() {
    let spec = spec();
    let config = FleetConfig {
        shard_size: spec.workloads(),
        threads: Some(1),
    };
    let outcome = run_fleet(&spec, &config).expect("fleet runs");
    assert_eq!(outcome.shards_total, 1);
    let fleet = outcome.aggregate;
    let reference = node_by_node(&spec);

    assert_eq!(
        format!("{:?}", fleet.cells),
        format!("{:?}", reference.cells)
    );
    assert_eq!(
        format!("{:?}", fleet.sketches),
        format!("{:?}", reference.sketches)
    );
    assert_eq!(
        (fleet.nodes, fleet.jobs, fleet.misses),
        (reference.nodes, reference.jobs, reference.misses)
    );
    // One baseline per workload, plus one run per governor but `no-dvs`.
    assert_eq!(fleet.sims, spec.workloads() * 4);
    assert!(fleet.cells.iter().all(|c| c.count == spec.replications));
}
