//! `stadvs` — the command-line interface of the slack-time-analysis DVS
//! reproduction.
//!
//! ```text
//! stadvs experiments list                  list the figure/table registry
//! stadvs experiments all --quick           regenerate everything (smoke scale)
//! stadvs experiments fig1_util             regenerate one experiment
//! stadvs compare --tasks 8 --util 0.7 --bcet 0.3 --bounds
//! stadvs compare --refset avionics --processor xscale
//! stadvs analyze 1e-3:10e-3 5e-3:40e-3     schedulability & speed bounds
//! stadvs refsets                           the reference embedded task sets
//! stadvs trace --governor st-edf --out trace.csv
//! stadvs fleet --quick                     10⁴-node streaming sweep
//! ```

mod args;
mod artifacts;
mod commands;

use commands::{Command, COMMANDS};
use stadvs_experiments::GOVERNORS;

const HEADER: &str = "stadvs — slack-time-analysis DVS for EDF hard real-time systems\n\n";

/// The usage text of `commands`, then the processor names and every row
/// of the governor table, wrapped at 72 columns.
fn usage(commands: &[Command]) -> String {
    let mut text = String::from("USAGE:\n");
    for command in commands {
        text.push_str(&format!("  {}\n", command.usage));
    }
    text.push_str("\nPROCESSORS: ideal (default), xscale, strongarm, crusoe, levels:<n>\n");
    let mut line = String::from("GOVERNORS: ");
    for (i, governor) in GOVERNORS.iter().enumerate() {
        let comma = if i + 1 < GOVERNORS.len() { "," } else { "" };
        let word = format!(" {}{comma}", governor.name);
        if line.len() + word.len() > 72 {
            text.push_str(&line);
            text.push('\n');
            line = " ".repeat("GOVERNORS: ".len());
        }
        line.push_str(&word);
    }
    text.push_str(&line);
    text.push('\n');
    text
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let name = match raw.first().map(String::as_str) {
        None | Some("help" | "--help") => {
            print!("{HEADER}{}", usage(&COMMANDS));
            return;
        }
        Some(name) => name,
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command `{name}`\n\n{}", usage(&COMMANDS));
        std::process::exit(2);
    };
    let rest = &raw[1..];
    if rest.iter().any(|a| a == "--help") {
        print!("{}", usage(std::slice::from_ref(command)));
        return;
    }
    if let Err(error) = command.run(rest) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
