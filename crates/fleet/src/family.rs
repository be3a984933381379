//! Rendering of the `fleet` experiment family: the merged aggregate as
//! a `stadvs_experiments::Table` (markdown + golden-pinned CSV).

use crate::engine::FleetOutcome;
use crate::spec::FleetSpec;
use stadvs_analysis::compensated_sum;
use stadvs_experiments::Table;

/// The fleet sweep as a table: one row per utilization × period-spread
/// cell (plus a final mean row), one column per governor, values are
/// per-cell mean normalized energy. Notes carry the fleet totals and the
/// per-governor quantile-sketch summaries.
///
/// Row, column and note order are pure functions of the spec, and every
/// value's bits are pinned by the determinism contract — the CSV
/// rendering is golden-diffable.
pub fn fleet_table(spec: &FleetSpec, outcome: &FleetOutcome) -> Table {
    let agg = &outcome.aggregate;
    let governors = spec.governors.len();
    let mut table = Table::new(
        "fleet — normalized energy across the utilization × period-spread grid",
        "U/spread",
        spec.governors.clone(),
    );

    let cells_per_row = governors;
    for row in 0..agg.cells.len() / cells_per_row {
        let key = spec.cell_key(row * cells_per_row);
        let values: Vec<f64> = (0..governors)
            .map(|g| agg.cells[row * cells_per_row + g].mean_normalized())
            .collect();
        table.push_row(key, values);
    }

    // Column means over the per-cell means, in pinned (row) order via the
    // compensated-sum discipline — never a bare `.sum()` over floats.
    let mean_row: Vec<f64> = (0..governors)
        .map(|g| {
            let col: Vec<f64> = table
                .rows
                .iter()
                .map(|(_, values)| values[g])
                .filter(|v| v.is_finite())
                .collect();
            if col.is_empty() {
                f64::NAN
            } else {
                compensated_sum(&col) / col.len() as f64
            }
        })
        .collect();
    table.push_row("mean", mean_row);

    table.note(format!(
        "nodes {} / {} (shards {} / {})",
        agg.nodes,
        spec.nodes(),
        outcome.shards_done,
        outcome.shards_total,
    ));
    table.note(format!(
        "infeasible {}, misses {}, sims {}, events {}, jobs {}",
        agg.infeasible, agg.misses, agg.sims, agg.events, agg.jobs,
    ));
    for (g, sketch) in agg.sketches.iter().enumerate() {
        if sketch.count() == 0 {
            table.note(format!("{}: no feasible nodes", spec.governors[g]));
            continue;
        }
        table.note(format!(
            "{}: mean {:.4}, p10 {:.4}, p50 {:.4}, p90 {:.4}, min {:.4}, max {:.4} \
             (n {}, quantile error <= {:.4})",
            spec.governors[g],
            sketch.mean(),
            sketch.quantile(0.10),
            sketch.quantile(0.50),
            sketch.quantile(0.90),
            sketch.min(),
            sketch.max(),
            sketch.count(),
            sketch.bucket_width() / 2.0,
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{FleetAggregate, NodeOutcome};
    use crate::spec::FleetSpec;

    fn fake_outcome(spec: &FleetSpec) -> FleetOutcome {
        let mut agg = FleetAggregate::new(spec);
        for i in 0..(spec.cell_count() * 2) {
            agg.record(&NodeOutcome {
                cell: i % spec.cell_count(),
                governor: i % spec.governors.len(),
                normalized: 0.6 + (i % 4) as f64 * 0.05,
                switches_per_job: 1.0,
                misses: 0,
                events: 100,
                jobs: 10,
                sims: 2,
            });
        }
        FleetOutcome {
            aggregate: agg,
            shards_done: 3,
            shards_total: 3,
        }
    }

    #[test]
    fn table_shape_follows_the_grid() {
        let spec = FleetSpec::tiny(5);
        let table = fleet_table(&spec, &fake_outcome(&spec));
        // 3 utilizations × 2 spreads rows, plus the mean row.
        assert_eq!(table.rows.len(), 7);
        assert_eq!(table.columns, spec.governors);
        assert_eq!(table.rows[0].0, "0.55/narrow");
        assert_eq!(table.rows[5].0, "0.85/wide");
        assert_eq!(table.rows[6].0, "mean");
        // Totals + one note per governor.
        assert_eq!(table.notes.len(), 2 + spec.governors.len());
    }
}
