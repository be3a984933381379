//! End-to-end smoke of the full pipeline: every registered experiment runs
//! at quick scale, produces a well-formed table, and the headline shape
//! claims of the reproduction hold.

use stadvs::experiments::experiments::{all, by_id, RunOptions};

#[test]
fn every_registered_experiment_runs_and_renders() {
    let mut opts = RunOptions::quick();
    opts.replications = 2;
    for experiment in all() {
        let table = (experiment.run)(&opts);
        assert!(!table.rows.is_empty(), "{} produced no rows", experiment.id);
        let md = table.to_markdown();
        assert!(md.contains("###"), "{} markdown malformed", experiment.id);
        let csv = table.to_csv();
        assert!(
            csv.lines().count() == table.rows.len() + 1,
            "{} CSV row count mismatch",
            experiment.id
        );
    }
}

/// The reproduction's headline claim, end to end: on the fig1 sweep the
/// slack-analysis algorithm beats the weakest dynamic baseline (lppsEDF)
/// and the static optimum at every utilization, and tracks the best curve.
#[test]
fn headline_shape_holds_at_moderate_scale() {
    let mut opts = RunOptions::quick();
    opts.replications = 4;
    opts.horizon = 3.0;
    let experiment = by_id("fig1_util").expect("registered");
    let table = (experiment.run)(&opts);

    let st = table.column("st-edf").expect("present");
    let lpps = table.column("lpps-edf").expect("present");
    let static_edf = table.column("static-edf").expect("present");
    let dra = table.column("dra").expect("present");

    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&st) < mean(&lpps),
        "st-edf ({}) should beat lpps-edf ({})",
        mean(&st),
        mean(&lpps)
    );
    assert!(
        mean(&st) < mean(&static_edf),
        "st-edf ({}) should beat static ({})",
        mean(&st),
        mean(&static_edf)
    );
    assert!(
        mean(&st) <= mean(&dra) + 0.01,
        "st-edf ({}) should be at least as good as dra ({})",
        mean(&st),
        mean(&dra)
    );
    // Normalized energy rises with utilization for the dynamic schemes.
    assert!(st.first().expect("rows") < st.last().expect("rows"));
}
