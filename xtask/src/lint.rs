//! Lint orchestration: workspace discovery, rule scoping, allow-list
//! application.
//!
//! Scope policy (library code only — integration tests, benches and
//! examples are exercised by the compiler and test suite, not by this
//! gate):
//!
//! * scanned roots: `crates/*/src`, `src`, `xtask/src`;
//! * `governor-doc` runs everywhere scanned;
//! * `hot-path-alloc` runs in `sim` (the per-event dispatch loops), in
//!   the per-dispatch analysis files `crates/core/src/sources/demand.rs`
//!   and `crates/core/src/slack_edf.rs`, and in the fleet engine's
//!   per-node shard loop `crates/fleet/src/engine.rs`.
//!
//! The type-aware gates are clippy lints, scoped by the crate roots and
//! the workspace `clippy.toml` (DESIGN.md §8).
//!
//! A violation is suppressed by `// xtask:allow(<rule>): <reason>` on the
//! same or the immediately preceding line, or
//! `// xtask:allow-file(<rule>): <reason>` anywhere in the file. The
//! reason is mandatory; a directive without one is inert. Directives
//! naming unknown rules are themselves reported.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, LexedFile};
use crate::report::{LintReport, Violation};
use crate::rules;

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

/// A scanned source file, lexed and classified.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The owning crate's directory name (`sim`, `core`, ... or `stadvs`
    /// for the root package, `xtask` for the tool itself).
    pub crate_name: String,
    pub lexed: LexedFile,
    pub mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes `src` as the file `rel` belonging to `crate_name` — the entry
    /// point used by fixture tests.
    pub fn from_source(rel: &str, crate_name: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mask = rules::test_mask(&lexed.tokens);
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            lexed,
            mask,
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
        let mut found = rules::check_governor_doc(&s.rel, &s.lexed.tokens, &s.mask, &docs);
        if HOT_PATH_CRATES.contains(&krate) || HOT_PATH_FILES.contains(&s.rel.as_str()) {
            found.extend(rules::check_hot_path_alloc(
                &s.rel,
                &s.lexed.tokens,
                &s.mask,
            ));
        }
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

    /// One allocation inside a loop body: a `hot-path-alloc` finding
    /// wherever that rule is in scope.
    const LOOP_ALLOC: &str = "fn f() { loop { let v = xs.to_vec(); } }";

    fn one(rel: &str, krate: &str, src: &str) -> LintReport {
        analyze(&[SourceFile::from_source(rel, krate, src)])
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
        let report = one("crates/core/src/sources/demand.rs", "core", LOOP_ALLOC);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "hot-path-alloc");
        let report = one("crates/core/src/slack_edf.rs", "core", LOOP_ALLOC);
        assert_eq!(report.violations.len(), 1);
        // Other core files stay exempt.
        assert!(one("crates/core/src/ledger.rs", "core", LOOP_ALLOC).is_clean());
    }

    #[test]
    fn hot_path_alloc_pins_the_kernel_files_by_name() {
        // The kernel's queue and dispatch are covered twice over: by the
        // `sim` crate-level scope and by the explicit file pins. The pin
        // must hold even for a hypothetical re-scoping, so assert the
        // file list directly as well as the end-to-end coverage.
        for rel in [
            "crates/sim/src/event.rs",
            "crates/sim/src/kernel.rs",
            "crates/sim/src/queue.rs",
            "crates/sim/src/component.rs",
        ] {
            assert!(HOT_PATH_FILES.contains(&rel), "{rel}");
            let report = one(rel, "sim", LOOP_ALLOC);
            assert_eq!(report.violations.len(), 1, "{rel}");
            assert_eq!(report.violations[0].rule, "hot-path-alloc", "{rel}");
        }
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
    fn same_line_allow_suppresses() {
        let src =
            "fn f() { loop { let v = xs.to_vec(); // xtask:allow(hot-path-alloc): cold path\n} }";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let src = "fn f() { loop {\n    // xtask:allow(hot-path-alloc): cold path\n    let v = xs.to_vec();\n} }";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn file_level_allow_suppresses_everywhere() {
        let src = "// xtask:allow-file(hot-path-alloc): setup module\n\
                   fn f() { loop { let v = xs.to_vec(); } }\n\
                   fn g() { loop { let w = ys.clone(); } }";
        assert!(one("crates/sim/src/a.rs", "sim", src).is_clean());
    }

    #[test]
    fn allow_without_reason_is_inert() {
        let src = "fn f() { loop { let v = xs.to_vec(); // xtask:allow(hot-path-alloc)\n} }";
        assert_eq!(one("crates/sim/src/a.rs", "sim", src).violations.len(), 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src =
            "fn f() { loop { let v = xs.to_vec(); // xtask:allow(governor-doc): wrong rule\n} }";
        let report = one("crates/sim/src/a.rs", "sim", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "hot-path-alloc");
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        // A rule that moved to clippy is unknown here too: its directive
        // would silently excuse nothing.
        for rule in ["no-such-rule", "float-eq"] {
            let src = format!("// xtask:allow({rule}): whatever\nfn f() {{}}");
            let report = one("crates/sim/src/a.rs", "sim", &src);
            assert_eq!(report.violations.len(), 1, "{rule}");
            assert_eq!(report.violations[0].rule, "unknown-allow", "{rule}");
        }
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
