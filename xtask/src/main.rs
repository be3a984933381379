//! `cargo xtask` — workspace automation entry point.
//!
//! Exit codes are part of the CLI contract (CI branches on them):
//! 0 = clean, 1 = violations found, 2 = internal error (bad usage,
//! unreadable workspace).

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lint::lint_workspace;
use xtask::rules::RULES;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask lint [--json | --sarif] [--list-rules] [--root <dir>]

lint: runs the workspace's domain lints. Exit codes: 0 clean, 1
violations, 2 internal error (bad usage, unreadable workspace).

  --json             machine-readable report on stdout
  --sarif            SARIF 2.1.0 log on stdout (GitHub code scanning)
  --list-rules       print the rule names and summaries, then exit
  --root <dir>       lint a different workspace root (default: this
                     workspace)
";

/// The workspace root: the xtask crate lives one level below it.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits inside the workspace")
        .to_path_buf()
}

struct LintOpts {
    json: bool,
    sarif: bool,
    root: Option<PathBuf>,
}

fn parse_lint_args(args: &[String]) -> Result<Option<LintOpts>, String> {
    let mut opts = LintOpts {
        json: false,
        sarif: false,
        root: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--list-rules" => return Ok(None),
            "--root" => match iter.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root needs a directory argument".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".into());
    }
    Ok(Some(opts))
}

fn lint(args: &[String]) -> ExitCode {
    let opts = match parse_lint_args(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            for rule in RULES {
                println!("{}: {}", rule.name, rule.summary);
            }
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = opts.root.unwrap_or_else(workspace_root);
    let report = match lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        println!("{}", report.render_json());
    } else if opts.sarif {
        println!("{}", report.render_sarif());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
