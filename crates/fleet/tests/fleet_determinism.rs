//! The fleet engine's determinism acceptance bar: the merged aggregate
//! is bit-identical for 1 worker and N workers (any schedule), pinned by
//! comparing the aggregate's `Debug` rendering (every count, and every
//! f64 in its shortest round-trip form: each sum and compensation term,
//! sketch bucket, min and max) and the rendered family CSV.

use stadvs_fleet::{fleet_table, run_fleet, FleetConfig, FleetOutcome, FleetSpec, PeriodSpread};
use stadvs_sim::rng::check;
use stadvs_workload::DemandPattern;

/// A one-cell fleet cheap enough to sweep repeatedly in debug builds.
fn small_spec(master: u64, governor: &str, replications: u64) -> FleetSpec {
    FleetSpec {
        master_seed: master,
        n_tasks: 4,
        horizon: 0.25,
        utilizations: vec![0.6],
        spreads: vec![PeriodSpread::new("narrow", 0.05, 0.2)],
        governors: vec![governor.to_string()],
        replications,
        pattern: DemandPattern::Uniform { min: 0.4, max: 1.0 },
    }
}

/// Every output bit of a run, as text: the aggregate's `Debug` form plus
/// the family CSV.
fn fingerprint(spec: &FleetSpec, outcome: &FleetOutcome) -> String {
    format!(
        "{:?}\n{}",
        outcome.aggregate,
        fleet_table(spec, outcome).to_csv()
    )
}

fn sweep(spec: &FleetSpec, threads: usize) -> String {
    sweep_sharded(spec, 8, threads).1
}

/// The outcome of one sweep and its fingerprint.
fn sweep_sharded(spec: &FleetSpec, shard_size: u64, threads: usize) -> (FleetOutcome, String) {
    let config = FleetConfig {
        shard_size,
        threads: Some(threads),
    };
    let outcome = run_fleet(spec, &config).expect("fleet runs");
    assert!(outcome.complete());
    let print = fingerprint(spec, &outcome);
    (outcome, print)
}

#[test]
fn threads_do_not_change_the_bits() {
    for master in [1, 2, 3] {
        // st-edf exercises the incremental slack analysis (with its
        // debug-build oracle re-check), so it gets a smaller fleet.
        for (governor, replications) in [("cc-edf", 48), ("st-edf", 16)] {
            let spec = small_spec(master, governor, replications);
            let serial = sweep(&spec, 1);
            let parallel = sweep(&spec, 4);
            assert_eq!(
                serial, parallel,
                "aggregate bits changed with thread count (master {master}, {governor})"
            );
        }
    }
}

#[test]
fn any_master_seed_is_thread_invariant() {
    check("any_master_seed_is_thread_invariant", 4, |rng| {
        let spec = small_spec(rng.next_u64(), "cc-edf", 24);
        assert_eq!(sweep(&spec, 1), sweep(&spec, 3));
        Ok(())
    });
}

/// A governor axis that shares each workload's `no-dvs` baseline: the
/// `no-dvs` column reuses it, and `cc-edf` and `st-edf` replay the same
/// task set on the worker's scratch. Every output bit is the same at 1
/// and 4 threads, at one workload per shard and at five. Across the two
/// shard sizes only the shard boundaries move: the counts, totals and
/// every compensated value agree, while the raw sums may split
/// differently between `sum` and `compensation`.
#[test]
fn a_shared_baseline_is_thread_invariant_at_two_shard_sizes() {
    let mut spec = small_spec(5, "no-dvs", 12);
    spec.governors
        .extend(["cc-edf", "st-edf"].map(String::from));
    let mut outcomes = Vec::new();
    for shard_size in [1, 5] {
        let (outcome, serial) = sweep_sharded(&spec, shard_size, 1);
        let (_, parallel) = sweep_sharded(&spec, shard_size, 4);
        assert_eq!(
            serial, parallel,
            "aggregate bits changed with thread count (shard size {shard_size})"
        );
        assert_eq!(outcome.shards_total as u64, 12_u64.div_ceil(shard_size));
        outcomes.push(outcome.aggregate);
    }
    let [one, five] = &outcomes[..] else {
        unreachable!("two shard sizes")
    };
    assert_eq!(
        (one.nodes, one.sims, one.events, one.jobs, one.misses),
        (five.nodes, five.sims, five.events, five.jobs, five.misses)
    );
    assert_eq!(
        one.sims,
        12 * 3,
        "one baseline and two governor runs per workload"
    );
    for (a, b) in one.cells.iter().zip(&five.cells) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.mean_normalized().to_bits(), b.mean_normalized().to_bits());
        assert_eq!(
            a.mean_switches_per_job().to_bits(),
            b.mean_switches_per_job().to_bits()
        );
    }
    for (a, b) in one.sketches.iter().zip(&five.sketches) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.quantile(0.5).to_bits(), b.quantile(0.5).to_bits());
    }
}
