//! Fixture-based proof that the lint rules flag their seeded violations —
//! and nothing else — with the right spans.
//!
//! Each file under `tests/fixtures/` seeds violations for one rule next to
//! near-miss code that must NOT be flagged. Expected columns are derived
//! from the fixture text itself so the assertions stay honest about
//! spans. `hot-path-alloc` is covered by its unit tests and the scope
//! tests in `lint.rs`.

use xtask::lint::{analyze, SourceFile};
use xtask::report::Violation;

const GOVERNOR_DOC: &str = include_str!("fixtures/governor_doc.rs");

/// 1-based column of the `occurrence`-th `needle` on 1-based `line`.
fn col_of(src: &str, line: usize, needle: &str, occurrence: usize) -> usize {
    let text = src.lines().nth(line - 1).unwrap_or_else(|| {
        panic!("fixture has no line {line}");
    });
    text.match_indices(needle)
        .nth(occurrence - 1)
        .map(|(i, _)| i + 1)
        .unwrap_or_else(|| panic!("line {line} has no occurrence {occurrence} of {needle:?}"))
}

fn spans(violations: &[Violation], rule: &str) -> Vec<(usize, usize)> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.line, v.col))
        .collect()
}

#[test]
fn governor_doc_fixture_is_flagged_with_spans() {
    let report = analyze(&[SourceFile::from_source(
        "crates/baselines/src/fixture.rs",
        "baselines",
        GOVERNOR_DOC,
    )]);
    assert_eq!(
        spans(&report.violations, "governor-doc"),
        vec![(8, col_of(GOVERNOR_DOC, 8, "impl", 1))],
        "{report:?}"
    );
    let v = &report.violations[0];
    assert!(
        v.message.contains("Undocumented"),
        "message must name the type: {}",
        v.message
    );
    // `Documented` states its safety argument and must pass.
    assert_eq!(report.violations.len(), 1, "{report:?}");
}
