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
    let config = FleetConfig {
        shard_size: 8,
        threads: Some(threads),
    };
    let outcome = run_fleet(spec, &config).expect("fleet runs");
    assert!(outcome.complete());
    fingerprint(spec, &outcome)
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
