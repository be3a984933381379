//! Golden fixtures for the four experiment families whose entire
//! quick-run artifact is pinned byte for byte: the CSV grid *and* the
//! notes.
//!
//! Each pipeline is deterministic end to end, so two consecutive
//! in-process runs must agree exactly, and any semantic change shows up
//! as a readable CSV diff:
//!
//! * `faults` — seeded plans, workloads and demand; injection draws,
//!   contamination closure and recovery accounting;
//! * `fig8_cores` — seeded union workloads, deterministic partitioning,
//!   one fresh governor per core; per-core energy accounting;
//! * `models` — seeded mixes and sporadic arrival processes, pure-hash
//!   skip draws; skip admissibility, boost floors, referee counters;
//! * `budget` — fixed-order grant arbitration in the shared ledger and a
//!   total `(time, seq, core)` step order in the drive loop.
//!
//! One test per family, named by its experiment id, so a run can filter
//! to one. Regenerate (after an intentional semantic change) with:
//!
//! ```text
//! STADVS_BLESS=1 cargo test -p stadvs-experiments --test family_golden
//! ```

use stadvs_experiments::experiments::{by_id, RunOptions};
use stadvs_experiments::golden;

/// Renders the quick-run artifact of experiment `id` twice, asserts the
/// two renders agree, then checks the first against
/// `tests/golden/{fixture}`.
fn check_family(id: &str, fixture: &str) {
    let experiment = by_id(id).unwrap_or_else(|| panic!("{id} is registered"));
    let render = || golden::table_artifact(&(experiment.run)(&RunOptions::quick()));
    let first = render();
    assert_eq!(first, render(), "{id}: two consecutive runs differ");
    golden::check(
        &format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR")),
        &first,
    );
}

#[test]
fn faults() {
    check_family("faults", "fault_family.csv");
}

#[test]
fn fig8_cores() {
    check_family("fig8_cores", "fig8_cores.csv");
}

#[test]
fn models() {
    check_family("models", "models_family.csv");
}

#[test]
fn budget() {
    check_family("budget", "budget_sweep.csv");
}
