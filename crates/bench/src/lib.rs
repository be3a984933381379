//! # stadvs-bench — figure/table regeneration
//!
//! * `src/bin/<experiment id>.rs` — one binary per reproduced figure/table;
//!   each prints the markdown table and writes `results/<id>.{md,csv}`.
//!   Pass `--quick` (or set `STADVS_QUICK=1`) for a fast smoke run.
//! * `src/bin/all_experiments.rs` — regenerates everything (the source of
//!   `EXPERIMENTS.md` measurements).
//!
//! Performance is measured by the separate benchmark package in
//! `benchmark/` (see its README).

#![warn(missing_docs)]

use stadvs_experiments::experiments::{by_id, RunOptions};
use stadvs_experiments::{write_csv, write_markdown, Table};
use stadvs_fleet::{fleet_table, run_fleet, FleetConfig, FleetSpec};

/// Resolves run options from the process arguments/environment: `--quick`
/// or `STADVS_QUICK=1` selects the reduced preset.
pub fn options_from_env() -> RunOptions {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("STADVS_QUICK").is_ok_and(|v| v == "1");
    if quick {
        RunOptions::quick()
    } else {
        RunOptions::standard()
    }
}

/// Runs the registered experiment `id`, prints its markdown table, and
/// writes `results/<id>.md` and `results/<id>.csv`.
///
/// # Panics
///
/// Panics if `id` is not registered or the result files cannot be written
/// (binaries crash loudly on harness errors).
pub fn regenerate(id: &str, opts: &RunOptions) -> Table {
    let experiment = by_id(id).unwrap_or_else(|| panic!("unknown experiment `{id}`"));
    eprintln!("running {id} ({})...", experiment.title);
    let table = (experiment.run)(opts);
    println!("{table}");
    write_markdown(&table, format!("results/{id}.md")).expect("write results markdown");
    write_csv(&table, format!("results/{id}.csv")).expect("write results csv");
    if let Some(script) = gnuplot_script(&table, id) {
        std::fs::write(format!("results/{id}.gnuplot"), script).expect("write gnuplot script");
    }
    table
}

/// Runs the fleet sweep (the `fleet` family artifact, which lives outside
/// the experiment registry because `experiments` cannot depend on
/// `fleet`), prints its markdown table, and writes
/// `results/fleet.{md,csv}`. `quick` selects the ~10⁴-node preset instead
/// of the standard ~10⁵; `threads` pins the worker count — the table bits
/// are identical either way (the engine's contract), only the wall-clock
/// changes.
///
/// # Panics
///
/// Panics if the sweep fails, leaves nodes unswept, or the result files
/// cannot be written (binaries crash loudly on harness errors).
pub fn regenerate_fleet(quick: bool, threads: Option<usize>) -> Table {
    let spec = if quick {
        FleetSpec::quick(42)
    } else {
        FleetSpec::standard(42)
    };
    let config = FleetConfig {
        threads,
        ..FleetConfig::default()
    };
    eprintln!(
        "running fleet ({} nodes, {} cells x {} replications)...",
        spec.nodes(),
        spec.cell_count(),
        spec.replications
    );
    let outcome = run_fleet(&spec, &config).expect("fleet sweep runs");
    assert!(outcome.complete(), "an unchecked run sweeps everything");
    let table = fleet_table(&spec, &outcome);
    println!("{table}");
    write_markdown(&table, "results/fleet.md").expect("write results markdown");
    write_csv(&table, "results/fleet.csv").expect("write results csv");
    table
}

/// Peak resident set size of this process, in bytes (`VmHWM` from
/// `/proc/self/status`). Returns 0 on platforms without procfs or when
/// the file is unreadable — callers treat 0 as "unknown", never as an
/// actual measurement.
///
/// The `fleet` binary reports it: the streaming engine's acceptance bar
/// is a peak RSS that stays flat as the node count grows.
pub fn peak_rss_bytes() -> u64 {
    if !cfg!(target_os = "linux") {
        return 0;
    }
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// A gnuplot script rendering the table as line series over its numeric
/// key column (`gnuplot results/<id>.gnuplot` → `results/<id>.svg`).
/// Returns `None` for tables with non-numeric keys (bar-style tables).
pub fn gnuplot_script(table: &Table, id: &str) -> Option<String> {
    if table.rows.is_empty() || table.rows.iter().any(|(k, _)| k.parse::<f64>().is_err()) {
        return None;
    }
    let mut script = String::new();
    script.push_str(&format!(
        "set terminal svg size 900,560 dynamic background rgb 'white'\n\
         set output '{id}.svg'\n\
         set title \"{}\" noenhanced\n\
         set xlabel \"{}\" noenhanced\n\
         set ylabel \"normalized energy\"\n\
         set key outside right\n\
         set grid\n\
         set datafile separator ','\n",
        table.title.replace('"', "'"),
        table.key_label
    ));
    script.push_str("plot ");
    let series: Vec<String> = table
        .columns
        .iter()
        .enumerate()
        .map(|(i, name)| {
            format!(
                "'{id}.csv' using 1:{} skip 1 with linespoints title \"{name}\" noenhanced",
                i + 2
            )
        })
        .collect();
    script.push_str(&series.join(", \\\n     "));
    script.push('\n');
    Some(script)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_as_a_plausible_number() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test binary has certainly touched > 1 MiB.
            assert!(rss > 1 << 20, "VmHWM parse produced {rss}");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn gnuplot_only_for_numeric_keys() {
        let mut numeric = Table::new("t", "U", vec!["a".to_string()]);
        numeric.push_row("0.5", vec![1.0]);
        let script = gnuplot_script(&numeric, "demo").expect("numeric keys plot");
        assert!(script.contains("'demo.csv' using 1:2"));
        assert!(script.contains("set output 'demo.svg'"));

        let mut labelled = Table::new("t", "pattern", vec!["a".to_string()]);
        labelled.push_row("bursty", vec![1.0]);
        assert!(gnuplot_script(&labelled, "demo").is_none());
    }
}
