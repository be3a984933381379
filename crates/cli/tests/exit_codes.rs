//! Exit codes of the built `stadvs` binary: bad input is refused with an
//! `error:` line and exit 1, never a panic (exit 101) and never ignored,
//! `--help` prints a command's usage without running it, and every
//! subcommand succeeds at a tiny valid size.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The six subcommands.
const COMMANDS: [&str; 6] = [
    "experiments",
    "compare",
    "analyze",
    "refsets",
    "trace",
    "fleet",
];

/// A fresh, empty scratch directory private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("exit-codes-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the target tmp dir is writable");
    dir
}

/// Whether `dir` holds no entry.
fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .expect("the scratch dir is readable")
        .next()
        .is_none()
}

/// Runs `stadvs` in `dir` on the whitespace-separated `args`.
fn stadvs(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stadvs"))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .expect("the stadvs binary runs")
}

#[test]
fn bad_input_is_refused_with_exit_1() {
    let dir = scratch("bad-input");
    for args in [
        // An option the command does not declare, on each subcommand.
        "experiments --bogus",
        "compare --horizn 3",
        "analyze 1:4 --bogus",
        "refsets --bogus",
        "trace --bogus 1",
        "fleet --checkpoint f",
        // A positional argument where none is taken; a missing or
        // repeated value.
        "compare 3",
        "fleet --nodes",
        "fleet --nodes 48 --nodes 96",
        // Empty runs.
        "compare --seeds 0",
        "fleet --nodes 0",
        // Values out of range.
        "fleet --nodes 10 --shard-size 0",
        "compare --seeds 1 --horizon 0",
        "compare --seeds 1 --util 1.5",
        "compare --seeds 1 --tasks 0",
        "compare --seeds 1 --bcet 2",
        "compare --seeds 1 --governors bogus",
        "compare --seeds 1 --refset cnc --bcet -1",
        "trace --tasks 0",
        "trace --util 0",
        "trace --bcet 2",
        "trace --governor bogus --horizon 0.1",
        "analyze",
        "analyze nope",
        "experiments no-such-experiment",
    ] {
        let run = stadvs(&dir, args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args}: {stderr}");
    }
    assert!(is_empty(&dir), "a refused command wrote files");
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    let dir = scratch("help");
    let runs = COMMANDS
        .iter()
        .map(|command| (*command, format!("{command} --help")))
        .chain([(
            "fleet",
            "fleet --nodes 48 --help --bogus ck.txt".to_string(),
        )]);
    for (command, args) in runs {
        let run = stadvs(&dir, &args);
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert_eq!(run.status.code(), Some(0), "{args}");
        let usage = stdout.strip_prefix("USAGE:\n  stadvs ").unwrap_or_default();
        assert_eq!(usage.split_whitespace().next(), Some(command), "{args}");
        assert!(run.stderr.is_empty(), "{args} ran the command");
    }
    assert!(is_empty(&dir), "--help wrote files");
}

#[test]
fn every_subcommand_runs_at_a_tiny_size() {
    let dir = scratch("tiny");
    for args in [
        "help",
        "experiments list",
        "experiments tab3_misses --quick --out out",
        "compare --tasks 3 --seeds 2 --horizon 0.2 --governors no-dvs,st-edf --bounds",
        "analyze 1:4 2:8:6",
        "refsets",
        "trace --tasks 2 --horizon 0.2 --governor dra --out trace.csv",
        "fleet --nodes 10 --shard-size 8 --threads 1 --out out",
    ] {
        let run = stadvs(&dir, args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{args}: {stderr}");
    }
    // `trace` prints its referee's verdict and writes the trace as CSV.
    let run = stadvs(&dir, "trace --tasks 2 --horizon 0.2 --out trace.csv");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("audit: clean ("), "{stderr}");
    let csv = std::fs::read_to_string(dir.join("trace.csv")).expect("trace wrote its CSV");
    assert!(csv.starts_with("start,end,speed,kind"));
}

/// A bare flag takes no value: the experiment id after `--quick` is run.
#[test]
fn an_id_after_quick_is_run() {
    let dir = scratch("quick-id");
    let run = stadvs(&dir, "experiments --quick tab1_refsets");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("running tab1_refsets..."), "{stderr}");
    assert!(dir.join("results/tab1_refsets.csv").is_file());
}
