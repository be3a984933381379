//! SARIF smoke test: the emitted log is well-formed JSON and carries the
//! structure GitHub code scanning requires (schema, version, driver
//! rules, resolvable ruleIds, physical locations).
//!
//! The workspace is dependency-free by design, so well-formedness is
//! checked with a minimal recursive-descent JSON reader rather than a
//! parser crate — it validates syntax only, which is exactly what a
//! smoke test needs.

use xtask::lint::{analyze, SourceFile};
use xtask::report::SYNTHETIC_RULES;
use xtask::rules::RULES;

/// A fixture with violations from both rules, so the SARIF log has
/// results to check.
fn dirty_report() -> xtask::report::LintReport {
    let src = "\
pub struct Bare;
impl Governor for Bare {
    fn f(&self, xs: &[f64]) {
        for _ in 0..4 {
            let _ = xs.to_vec();
        }
    }
}
";
    analyze(&[SourceFile::from_source(
        "crates/sim/src/fixture.rs",
        "sim",
        src,
    )])
}

#[test]
fn sarif_log_is_well_formed_json() {
    let report = dirty_report();
    assert!(!report.is_clean(), "fixture must produce results");
    let sarif = report.render_sarif();
    parse_json(&sarif).unwrap_or_else(|e| panic!("invalid JSON at byte {e}: {sarif}"));
    // The empty log must be valid too.
    let empty = analyze(&[]).render_sarif();
    parse_json(&empty).unwrap_or_else(|e| panic!("invalid JSON at byte {e}: {empty}"));
}

#[test]
fn sarif_log_has_required_github_structure() {
    let sarif = dirty_report().render_sarif();
    for key in [
        "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\"",
        "\"version\":\"2.1.0\"",
        "\"runs\":[{",
        "\"tool\":{\"driver\":{",
        "\"name\":\"stadvs-xtask-lint\"",
        "\"rules\":[",
        "\"results\":[",
        "\"physicalLocation\"",
        "\"artifactLocation\"",
        "\"uriBaseId\":\"%SRCROOT%\"",
        "\"startLine\"",
        "\"partialFingerprints\"",
    ] {
        assert!(sarif.contains(key), "missing {key} in {sarif}");
    }
}

#[test]
fn every_result_rule_id_resolves_to_driver_metadata() {
    let sarif = dirty_report().render_sarif();
    // Each declared rule appears exactly once in the driver metadata.
    for rule in RULES {
        assert_eq!(
            sarif.matches(&format!("\"id\":\"{}\"", rule.name)).count(),
            1,
            "rule {} must appear once",
            rule.name
        );
    }
    for (name, _) in SYNTHETIC_RULES {
        assert_eq!(sarif.matches(&format!("\"id\":\"{name}\"")).count(), 1);
    }
    // Results carry a ruleIndex pointing into that array.
    assert!(sarif.contains("\"ruleIndex\":"), "{sarif}");
}

// ---------------------------------------------------------------------
// Minimal JSON syntax checker. Returns Err(byte offset) on the first
// syntax error.
// ---------------------------------------------------------------------

fn parse_json(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => parse_object(b, i),
        Some(b'[') => parse_array(b, i),
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, b"true"),
        Some(b'f') => parse_lit(b, i, b"false"),
        Some(b'n') => parse_lit(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, i),
        _ => Err(*i),
    }
}

fn parse_object(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // {
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        parse_string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(*i);
        }
        *i += 1;
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn parse_array(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // [
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        parse_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => match b.get(*i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                Some(b'u') => {
                    if b.len() < *i + 6 || !b[*i + 2..*i + 6].iter().all(u8::is_ascii_hexdigit) {
                        return Err(*i);
                    }
                    *i += 6;
                }
                _ => return Err(*i),
            },
            0x00..=0x1f => return Err(*i),
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    if *i == start {
        Err(*i)
    } else {
        Ok(())
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}
