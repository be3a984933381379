//! Golden fixture for the `fleet` experiment family.
//!
//! Pins the rendered aggregate CSV — grid values *and* the totals /
//! quantile-sketch notes — byte-for-byte for a fixed small fleet. The
//! whole pipeline is deterministic (counter-based seeds, pinned shard
//! merge, compensated sums), so any change to simulation, aggregation or
//! rendering semantics shows up here as a readable diff.
//!
//! Regenerate (after an intentional semantic change) with:
//!
//! ```text
//! STADVS_BLESS=1 cargo test -p stadvs-fleet --test fleet_golden
//! ```

use stadvs_experiments::golden;
use stadvs_fleet::{fleet_table, run_fleet, FleetConfig, FleetSpec};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fleet_family.csv");

fn render() -> String {
    // 24 cells × 8 replications (48 workloads): every governor ×
    // utilization × spread combination exercised, small enough for
    // debug-build CI.
    let spec = FleetSpec::tiny(42).with_nodes(192);
    let config = FleetConfig {
        shard_size: 8,
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&spec, &config).expect("fleet runs");
    assert!(outcome.complete());
    golden::table_artifact(&fleet_table(&spec, &outcome))
}

#[test]
fn fleet_family_matches_committed_csv() {
    golden::check(FIXTURE, &render());
}

/// Two consecutive in-process runs must agree byte-for-byte.
#[test]
fn fleet_family_is_deterministic_across_consecutive_runs() {
    assert_eq!(render(), render());
}
