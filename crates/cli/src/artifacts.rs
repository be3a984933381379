//! The files a command writes for one table: `{id}.md`, `{id}.csv` and,
//! when every row key is a number, a `{id}.gnuplot` script that plots the
//! CSV.

use std::error::Error;
use std::fs;

use stadvs_experiments::Table;

/// Writes `table` as `{out_dir}/{id}.md`, `{out_dir}/{id}.csv` and, for
/// numeric keys, `{out_dir}/{id}.gnuplot`, creating `out_dir` if needed.
///
/// # Errors
///
/// Returns the first file that cannot be written.
pub fn write_table(table: &Table, out_dir: &str, id: &str) -> Result<(), Box<dyn Error>> {
    fs::create_dir_all(out_dir)?;
    fs::write(format!("{out_dir}/{id}.md"), table.to_markdown())?;
    fs::write(format!("{out_dir}/{id}.csv"), table.to_csv())?;
    if let Some(script) = gnuplot_script(table, id) {
        fs::write(format!("{out_dir}/{id}.gnuplot"), script)?;
    }
    Ok(())
}

/// A gnuplot script rendering the table as line series over its numeric
/// key column (`gnuplot results/<id>.gnuplot` → `results/<id>.svg`).
/// Returns `None` for tables with non-numeric keys (bar-style tables).
fn gnuplot_script(table: &Table, id: &str) -> Option<String> {
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
