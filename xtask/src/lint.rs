//! Lint orchestration: workspace discovery, rule scoping, allow-list
//! application.
//!
//! Scope policy (library code only — integration tests, benches and
//! examples are exercised by the compiler and test suite, not by this
//! gate):
//!
//! * scanned roots: `crates/*/src`, `src`, `xtask/src`;
//! * `float-eq` and `governor-doc` run everywhere scanned;
//! * `no-panic` and `fault-policy-exhaustive` run in the
//!   guarantee-critical crates (`sim`, `core`, `power`, `analysis`,
//!   `baselines`);
//! * `as-cast` runs in `core` (the claims/ledger arithmetic);
//! * `hot-path-alloc` runs in `sim` (the per-event dispatch loops), in
//!   the per-dispatch analysis files `crates/core/src/sources/demand.rs`
//!   and `crates/core/src/slack_edf.rs`, and in the fleet engine's
//!   per-node shard loop `crates/fleet/src/engine.rs`;
//! * the determinism rules (`nondet-iter`, `unordered-float-reduction`,
//!   `wall-clock-in-sim`) run in the determinism-bound crates — everything
//!   that executes between workload generation and CSV aggregation;
//! * `unseeded-rng` runs everywhere except `xtask` and `bench` (the only
//!   places allowed to observe the host);
//! * `shared-mut-state` flags `static mut` everywhere scanned; its lazy
//!   global check is restricted to the guarantee-critical crates.
//!
//! A violation is suppressed by `// xtask:allow(<rule>): <reason>` on the
//! same or the immediately preceding line, or
//! `// xtask:allow-file(<rule>): <reason>` anywhere in the file. The
//! reason is mandatory; a directive without one is inert. Directives
//! naming unknown rules are themselves reported. Pre-existing debt is
//! recorded in the committed baseline file instead (see
//! [`crate::baseline`]).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, LexedFile};
use crate::report::{LintReport, Violation};
use crate::rules;
use crate::syntax::{self, FileSyntax};

/// Crates whose library code must be panic-free (rule `no-panic`).
/// `baselines` joined after its construction paths were swept clean:
/// comparison governors run inside the same simulations as the governor
/// under test, so a baseline panic also aborts the guarantee experiment.
const GUARANTEE_CRATES: &[&str] = &["sim", "core", "power", "analysis", "baselines"];

/// Crates subject to the `as-cast` rule.
const CLAIMS_CRATES: &[&str] = &["core"];

/// Crates subject to the `hot-path-alloc` rule: per-event code that the
/// experiment suite multiplies by millions of simulated events.
const HOT_PATH_CRATES: &[&str] = &["sim"];

/// Individual files outside [`HOT_PATH_CRATES`] that are also on the
/// per-dispatch path: the slack analysis and the st-edf governor run once
/// per dispatch, so a stray allocation there multiplies the same way.
/// One-time cache growth is fine — escape it with
/// `// xtask:allow(hot-path-alloc): <reason>`.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/sources/demand.rs",
    "crates/core/src/slack_edf.rs",
    "crates/fleet/src/engine.rs",
    // The simulators' per-step path lives inside the `sim` crate and is
    // already covered by HOT_PATH_CRATES; it is pinned here by name so
    // the coverage survives any future re-scoping of the crate-level
    // list. `component.rs` holds the core engine (SoA task table, batched
    // release loop) and the drive loop that steps it; `queue.rs` holds
    // its dense ready/release sets. `event.rs` and `kernel.rs` are no
    // longer on the simulators' path — the drive loop queues no events —
    // but the kernel they implement is still benchmarked per event.
    "crates/sim/src/event.rs",
    "crates/sim/src/kernel.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/component.rs",
];

/// Crates bound by the determinism contract (DESIGN.md §12): everything
/// whose behaviour feeds the bit-identity harnesses — the simulator and
/// its governors, the slack analysis, workload generation, the experiment
/// aggregation that writes golden-pinned CSVs, and the fleet sweep engine
/// (whose merged aggregates and checkpoints must be bit-identical across
/// thread counts). `cli` only parses arguments and prints; `bench` and
/// `xtask` measure the host on purpose.
const DETERMINISM_CRATES: &[&str] = &[
    "sim",
    "core",
    "power",
    "analysis",
    "baselines",
    "workload",
    "experiments",
    "fleet",
    "stadvs",
];

/// Crates exempt from `unseeded-rng`: the lint tooling itself and the
/// bench binaries (which may time and shuffle on the host).
const RNG_EXEMPT_CRATES: &[&str] = &["xtask", "bench"];

/// A scanned source file, lexed and classified.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The owning crate's directory name (`sim`, `core`, ... or `stadvs`
    /// for the root package, `xtask` for the tool itself).
    pub crate_name: String,
    pub lexed: LexedFile,
    pub mask: Vec<bool>,
    /// The syntactic index (use-resolution, scoped type bindings) the
    /// dataflow determinism rules run on.
    pub syn: FileSyntax,
}

impl SourceFile {
    /// Lexes `src` as the file `rel` belonging to `crate_name` — the entry
    /// point used by fixture tests.
    pub fn from_source(rel: &str, crate_name: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mask = rules::test_mask(&lexed.tokens);
        let syn = syntax::parse(&lexed.tokens);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            lexed,
            mask,
            syn,
        }
    }
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = discover(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = fs::read_to_string(&path)?;
        let rel = relative(root, &path);
        let crate_name = classify(&rel);
        sources.push(SourceFile::from_source(&rel, &crate_name, &text));
    }
    Ok(analyze(&sources))
}

/// Runs every applicable rule over the given sources and applies the
/// allow-lists. Pure (no I/O) — fixture tests call this directly.
pub fn analyze(sources: &[SourceFile]) -> LintReport {
    let mut violations = Vec::new();

    // governor-doc needs the cross-file declaration index first.
    let mut docs = rules::TypeDocs::new();
    for s in sources {
        rules::collect_type_docs(&s.rel, &s.lexed.tokens, &s.mask, &mut docs);
    }

    for s in sources {
        let krate = s.crate_name.as_str();
        let mut found = Vec::new();
        found.extend(rules::check_float_eq(&s.rel, &s.lexed.tokens, &s.mask));
        found.extend(rules::check_governor_doc(
            &s.rel,
            &s.lexed.tokens,
            &s.mask,
            &docs,
        ));
        if GUARANTEE_CRATES.contains(&krate) {
            found.extend(rules::check_no_panic(&s.rel, &s.lexed.tokens, &s.mask));
            found.extend(rules::check_fault_policy(&s.rel, &s.lexed.tokens, &s.mask));
        }
        if CLAIMS_CRATES.contains(&krate) {
            found.extend(rules::check_as_cast(&s.rel, &s.lexed.tokens, &s.mask));
        }
        if HOT_PATH_CRATES.contains(&krate) || HOT_PATH_FILES.contains(&s.rel.as_str()) {
            found.extend(rules::check_hot_path_alloc(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
            ));
        }
        if DETERMINISM_CRATES.contains(&krate) {
            found.extend(rules::check_nondet_iter(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
                &s.syn,
            ));
            found.extend(rules::check_unordered_float_reduction(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
                &s.syn,
            ));
            found.extend(rules::check_wall_clock(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
                &s.syn,
            ));
        }
        if !RNG_EXEMPT_CRATES.contains(&krate) {
            found.extend(rules::check_unseeded_rng(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
                &s.syn,
            ));
        }
        found.extend(rules::check_shared_mut_state(
            &s.rel,
            &s.lexed.tokens,
            &s.mask,
            &s.syn,
            GUARANTEE_CRATES.contains(&krate),
        ));
        violations.extend(apply_allows(s, found));
        // Directives naming unknown rules are dead suppressions — report
        // them so typos cannot silently disable the gate.
        for allow in &s.lexed.allows {
            if !rules::is_known_rule(&allow.rule) {
                violations.push(Violation {
                    rule: "unknown-allow",
                    file: s.rel.clone(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "allow directive names unknown rule `{}` (known: {})",
                        allow.rule,
                        rules::RULES
                            .iter()
                            .map(|r| r.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
    }

    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    LintReport {
        files_scanned: sources.len(),
        violations,
        ..LintReport::default()
    }
}

/// Filters `found` through the file's allow directives. A directive with
/// an empty reason is inert (the violation stands).
fn apply_allows(s: &SourceFile, found: Vec<Violation>) -> Vec<Violation> {
    found
        .into_iter()
        .filter(|v| {
            !s.lexed.allows.iter().any(|a| {
                a.rule == v.rule
                    && !a.reason.is_empty()
                    && (a.file_level || a.line == v.line || a.line + 1 == v.line)
            })
        })
        .collect()
}

/// All `.rs` files under the scanned roots, sorted for stable output.
fn discover(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    for dir in [root.join("src"), root.join("xtask").join("src")] {
        if dir.is_dir() {
            walk_rs(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The owning crate's directory name for rule scoping.
fn classify(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("xtask") => "xtask".to_string(),
        Some("src") => "stadvs".to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, krate: &str, src: &str) -> LintReport {
        analyze(&[SourceFile::from_source(rel, krate, src)])
    }

    #[test]
    fn no_panic_scoped_to_guarantee_crates() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
        assert!(one("crates/cli/src/a.rs", "cli", src).is_clean());
    }

    #[test]
    fn fault_policy_scoped_to_guarantee_crates() {
        let src = "fn f(p: OverrunPolicy) -> u8 { match p { OverrunPolicy::Abort => 0, _ => 1 } }";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
        assert!(one("crates/experiments/src/a.rs", "experiments", src).is_clean());
    }

    #[test]
    fn as_cast_scoped_to_core() {
        let src = "fn f(n: usize) -> f64 { n as f64 }";
        assert_eq!(one("crates/core/src/a.rs", "core", src).violations.len(), 1);
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn hot_path_alloc_covers_the_platform_stepping_loop() {
        // The multiprocessor engine's per-core stepping loop lives in
        // `crates/sim/src/platform_sim.rs` and is subject to the same
        // allocation discipline as the uniprocessor dispatch loop.
        let src = "fn f() { for core in cores { let o = outcome.clone(); } }";
        let report = one("crates/sim/src/platform_sim.rs", "sim", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "hot-path-alloc");
    }

    #[test]
    fn hot_path_alloc_covers_the_demand_analysis_files() {
        // The slack analysis runs once per dispatch; its file is covered
        // even though the `core` crate as a whole is not.
        let src = "fn f() { loop { let v = xs.to_vec(); } }";
        let report = one("crates/core/src/sources/demand.rs", "core", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "hot-path-alloc");
        let report = one("crates/core/src/slack_edf.rs", "core", src);
        assert_eq!(report.violations.len(), 1);
        // Other core files stay exempt.
        assert!(one("crates/core/src/ledger.rs", "core", src).is_clean());
    }

    #[test]
    fn hot_path_alloc_pins_the_kernel_files_by_name() {
        // The kernel's queue and dispatch are covered twice over: by the
        // `sim` crate-level scope and by the explicit file pins. The pin
        // must hold even for a hypothetical re-scoping, so assert the
        // file list directly as well as the end-to-end coverage.
        assert!(HOT_PATH_FILES.contains(&"crates/sim/src/event.rs"));
        assert!(HOT_PATH_FILES.contains(&"crates/sim/src/kernel.rs"));
        assert!(HOT_PATH_FILES.contains(&"crates/sim/src/queue.rs"));
        assert!(HOT_PATH_FILES.contains(&"crates/sim/src/component.rs"));
        let src = "fn f() { loop { let v = xs.to_vec(); } }";
        for rel in [
            "crates/sim/src/event.rs",
            "crates/sim/src/kernel.rs",
            "crates/sim/src/queue.rs",
            "crates/sim/src/component.rs",
        ] {
            let report = one(rel, "sim", src);
            assert_eq!(report.violations.len(), 1, "{rel}");
            assert_eq!(report.violations[0].rule, "hot-path-alloc", "{rel}");
        }
    }

    #[test]
    fn determinism_rules_cover_the_kernel_files() {
        // The kernel orders events by iterating collections; the
        // determinism dataflow rules (nondet-iter and friends) must see
        // those files through the `sim` crate scope.
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) { for (k, v) in m.iter() { emit(*k, *v); } }";
        let report = one("crates/sim/src/kernel.rs", "sim", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "nondet-iter");
    }

    #[test]
    fn hot_path_alloc_covers_the_fleet_engine() {
        // The fleet engine's per-node shard loop runs once per simulated
        // node — 10^5..10^6 times per sweep — so it keeps the same
        // allocation discipline as the dispatch loops.
        let src = "fn f() { for i in lo..hi { let v = xs.to_vec(); } }";
        let report = one("crates/fleet/src/engine.rs", "fleet", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "hot-path-alloc");
        // The rest of the fleet crate is not on the per-node path.
        assert!(one("crates/fleet/src/spec.rs", "fleet", src).is_clean());
    }

    #[test]
    fn model_subsystem_files_inherit_the_guarantee_discipline() {
        // The task-model layer (skip admissibility in `sim::model`, seeded
        // sporadic arrival draws in `workload::spec`) sits inside the
        // scanned scopes: determinism rules cover both crates and the
        // no-panic rule covers `sim`, with no per-file scope edits.
        let unseeded = "fn f() { let mut r = rand::thread_rng(); }";
        for (rel, krate) in [
            ("crates/sim/src/model.rs", "sim"),
            ("crates/workload/src/spec.rs", "workload"),
        ] {
            assert_eq!(one(rel, krate, unseeded).violations.len(), 1, "{rel}");
        }
        let panicky = "fn f() { x.unwrap(); }";
        assert_eq!(
            one("crates/sim/src/model.rs", "sim", panicky)
                .violations
                .len(),
            1
        );
        // `workload` is not a guarantee crate: its validation surface
        // returns `Result`s, so no-panic does not apply there.
        assert!(one("crates/workload/src/spec.rs", "workload", panicky).is_clean());
    }

    #[test]
    fn nondet_iter_scoped_to_determinism_crates() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, f64>) { for k in m.keys() { go(k); } }";
        for krate in ["sim", "experiments", "workload", "analysis", "fleet"] {
            let rel = format!("crates/{krate}/src/a.rs");
            assert_eq!(one(&rel, krate, src).violations.len(), 1, "{krate}");
        }
        assert!(one("crates/cli/src/a.rs", "cli", src).is_clean());
        assert!(one("xtask/src/a.rs", "xtask", src).is_clean());
    }

    #[test]
    fn unordered_float_reduction_scoped_to_determinism_crates() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, f64>) -> f64 { m.values().map(|v| v + 1.0).sum::<f64>() }";
        let report = one("crates/power/src/a.rs", "power", src);
        // Both the iteration and the reduction fire — each names a
        // different fix.
        assert_eq!(report.violations.len(), 2, "{report:?}");
        assert!(one("crates/bench/src/a.rs", "bench", src).is_clean());
    }

    #[test]
    fn wall_clock_scoped_to_determinism_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
        assert_eq!(one("src/theory.rs", "stadvs", src).violations.len(), 1);
        assert!(one("crates/bench/src/a.rs", "bench", src).is_clean());
        assert!(one("crates/cli/src/a.rs", "cli", src).is_clean());
    }

    #[test]
    fn unseeded_rng_exempts_only_xtask_and_bench() {
        let src = "fn f() { let mut r = rand::thread_rng(); }";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
        assert_eq!(one("crates/cli/src/a.rs", "cli", src).violations.len(), 1);
        assert!(one("crates/bench/src/a.rs", "bench", src).is_clean());
        assert!(one("xtask/src/a.rs", "xtask", src).is_clean());
    }

    #[test]
    fn shared_mut_state_static_mut_everywhere_lazies_in_guarantee() {
        let static_mut = "static mut S: u64 = 0;";
        assert_eq!(
            one("crates/cli/src/a.rs", "cli", static_mut)
                .violations
                .len(),
            1
        );
        let lazy = "use std::sync::OnceLock;\nstatic T: OnceLock<u64> = OnceLock::new();";
        assert_eq!(one("crates/sim/src/a.rs", "sim", lazy).violations.len(), 2);
        assert!(one("crates/experiments/src/a.rs", "experiments", lazy).is_clean());
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = "fn f() { x.unwrap(); // xtask:allow(no-panic): infallible by construction\n}";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let src = "fn f() {\n    // xtask:allow(no-panic): infallible by construction\n    x.unwrap();\n}";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn file_level_allow_suppresses_everywhere() {
        let src = "// xtask:allow-file(no-panic): prototype module\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn allow_without_reason_is_inert() {
        let src = "fn f() { x.unwrap(); // xtask:allow(no-panic)\n}";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src = "fn f() { x.unwrap(); // xtask:allow(float-eq): wrong rule\n}";
        let report = one("crates/sim/src/a.rs", "sim", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "no-panic");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// xtask:allow(no-such-rule): whatever\nfn f() {}";
        let report = one("crates/sim/src/a.rs", "sim", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "unknown-allow");
    }

    #[test]
    fn governor_doc_resolves_across_files() {
        let decl = SourceFile::from_source(
            "crates/core/src/g.rs",
            "core",
            "/// Deadline safety: bounded by the certified allowance.\npub struct Cross;",
        );
        let imp = SourceFile::from_source(
            "crates/core/src/i.rs",
            "core",
            "impl Governor for Cross { }",
        );
        assert!(analyze(&[decl, imp]).is_clean());
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/sim/src/lib.rs"), "sim");
        assert_eq!(classify("src/lib.rs"), "stadvs");
        assert_eq!(classify("xtask/src/main.rs"), "xtask");
    }
}
