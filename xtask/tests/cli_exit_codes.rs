//! End-to-end exit-code contract of `cargo xtask lint`, driven against
//! throwaway fake workspaces: 0 = clean, 1 = violations, 2 = internal
//! error. CI branches on these codes, so they are pinned here.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn xtask_bin() -> &'static str {
    env!("CARGO_BIN_EXE_xtask")
}

/// Creates a unique throwaway workspace root under the target tmp dir.
fn fake_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("stadvs-xtask-cli-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, contents).unwrap();
    }
    root
}

fn run(args: &[&str]) -> Output {
    Command::new(xtask_bin())
        .args(args)
        .output()
        .expect("xtask binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("xtask exits normally")
}

const CLEAN: &str = "pub fn ok(xs: &[u32]) -> Vec<u32> { xs.to_vec() }\n";
/// The same allocation inside a loop body: a `hot-path-alloc` finding in
/// `crates/sim`.
const DIRTY: &str = "pub fn t(xs: &[u32]) { loop { let _ = xs.to_vec(); } }\n";

#[test]
fn clean_workspace_exits_zero() {
    let root = fake_workspace("clean", &[("crates/sim/src/lib.rs", CLEAN)]);
    let out = run(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn violations_exit_one() {
    let root = fake_workspace("dirty", &[("crates/sim/src/lib.rs", DIRTY)]);
    let out = run(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot-path-alloc"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["lint", "--no-such-flag"][..],
        &["lint", "--json", "--sarif"][..],
        &["lint", "--root"][..],
        &["no-such-subcommand"][..],
    ] {
        let out = run(args);
        assert_eq!(code(&out), 2, "{args:?}: {out:?}");
    }
}

#[test]
fn sarif_and_json_outputs_carry_the_violation() {
    let root = fake_workspace("formats", &[("crates/sim/src/lib.rs", DIRTY)]);
    let out = run(&["lint", "--root", root.to_str().unwrap(), "--sarif"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"ruleId\":\"hot-path-alloc\""), "{sarif}");

    let out = run(&["lint", "--root", root.to_str().unwrap(), "--json"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\":\"hot-path-alloc\""), "{json}");
}

/// `--list-rules` is informational and always exits 0. The two rules no
/// compiler lint can express are all that is left.
#[test]
fn list_rules_exits_zero() {
    let out = run(&["lint", "--list-rules"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout.lines().filter_map(|l| l.split(':').next()).collect();
    assert_eq!(names, ["governor-doc", "hot-path-alloc"], "{stdout}");
}
