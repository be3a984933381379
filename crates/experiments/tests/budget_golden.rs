//! Golden fixture for the `budget` experiment.
//!
//! Pins the shared-power-cap sweep's entire quick-run artifact — the CSV
//! grid *and* the notes — byte-for-byte. The budgeted platform path is
//! deterministic end to end (seeded workloads, fixed-order grant
//! arbitration inside the shared ledger the drive loop lends to each
//! core's step, a total `(time, seq, core)` step order), so two
//! consecutive runs must agree exactly, and any change to the drive
//! loop's step order or the ledger's bisection shows up here as a
//! readable CSV diff.
//!
//! Regenerate (after an intentional semantic change) with:
//!
//! ```text
//! STADVS_BLESS=1 cargo test -p stadvs-experiments --test budget_golden
//! ```

use stadvs_experiments::experiments::{by_id, RunOptions};
use stadvs_experiments::golden;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/budget_sweep.csv");

fn render() -> String {
    let experiment = by_id("budget").expect("budget experiment is registered");
    golden::table_artifact(&(experiment.run)(&RunOptions::quick()))
}

#[test]
fn budget_sweep_matches_committed_csv() {
    golden::check(FIXTURE, &render());
}

/// Two consecutive in-process runs must agree byte-for-byte — the
/// acceptance bar for the budgeted platform path's determinism.
#[test]
fn budget_sweep_is_deterministic_across_consecutive_runs() {
    assert_eq!(render(), render());
}
