//! Exit codes of the built `stadvs` binary: bad input is refused with an
//! `error:` line and exit 1, never a panic (exit 101), and every
//! subcommand succeeds at a tiny valid size.

use std::process::{Command, Output};

/// Runs `stadvs` on the whitespace-separated `args`, with `{out}`
/// standing for a scratch directory.
fn stadvs(args: &str) -> Output {
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/exit-codes");
    std::fs::create_dir_all(out).expect("the target tmp dir is writable");
    Command::new(env!("CARGO_BIN_EXE_stadvs"))
        .args(args.split_whitespace().map(|a| a.replace("{out}", out)))
        .output()
        .expect("the stadvs binary runs")
}

#[test]
fn bad_input_is_refused_with_exit_1() {
    for args in [
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
        let run = stadvs(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args}: {stderr}");
    }
}

#[test]
fn every_subcommand_runs_at_a_tiny_size() {
    for args in [
        "help",
        "experiments list",
        "experiments tab3_misses --quick --out {out}",
        "compare --tasks 3 --seeds 2 --horizon 0.2 --governors no-dvs,st-edf --bounds",
        "analyze 1:4 2:8:6",
        "refsets",
        "trace --tasks 2 --horizon 0.2 --governor dra --out {out}/trace.csv",
        "fleet --nodes 10 --shard-size 8 --threads 1 --out {out}",
    ] {
        let run = stadvs(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{args}: {stderr}");
    }
    // `trace` prints its referee's verdict and writes the trace as CSV.
    let run = stadvs("trace --tasks 2 --horizon 0.2 --out {out}/trace.csv");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("audit: clean ("), "{stderr}");
    let csv = concat!(env!("CARGO_TARGET_TMPDIR"), "/exit-codes/trace.csv");
    let csv = std::fs::read_to_string(csv).expect("trace wrote its CSV");
    assert!(csv.starts_with("start,end,speed,kind"));
}
