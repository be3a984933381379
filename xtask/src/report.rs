//! Violation data model and the human/JSON/SARIF renderers.

use std::fmt;

use crate::rules::RULES;

/// Synthetic rule ids the linter can report beyond [`RULES`]: dead allow
/// directives. They appear in SARIF rule metadata so every result's
/// `ruleId` resolves.
pub const SYNTHETIC_RULES: &[(&str, &str)] = &[(
    "unknown-allow",
    "an xtask:allow directive names a rule the linter does not know — \
     a typo here silently disables the gate",
)];

/// One finding, anchored to a workspace-relative path and 1-based span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule name (one of [`crate::rules::RULES`] or
    /// [`SYNTHETIC_RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// Whether the run found nothing (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        out
    }

    /// Renders the machine-readable report (stable JSON shape).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"violation_count\":{},", self.violations.len()));
        out.push_str("\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_string(v.rule),
                json_string(&v.file),
                v.line,
                v.col,
                json_string(&v.message)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders a SARIF 2.1.0 log for GitHub code scanning. Every result's
    /// `ruleId` resolves through `ruleIndex` into the driver's rule
    /// metadata; file URIs are workspace-relative under `%SRCROOT%`.
    pub fn render_sarif(&self) -> String {
        let rule_ids: Vec<(&str, &str)> = RULES
            .iter()
            .map(|r| (r.name, r.summary))
            .chain(SYNTHETIC_RULES.iter().copied())
            .collect();
        let rule_index = |id: &str| rule_ids.iter().position(|(name, _)| *name == id);

        let mut out = String::from("{");
        out.push_str(
            "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{",
        );
        out.push_str("\"tool\":{\"driver\":{");
        out.push_str("\"name\":\"stadvs-xtask-lint\",");
        out.push_str(&format!(
            "\"version\":{},",
            json_string(env!("CARGO_PKG_VERSION"))
        ));
        out.push_str("\"informationUri\":\"https://github.com/stadvs/stadvs\",\"rules\":[");
        for (i, (name, summary)) in rule_ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Collapse the summaries' continuation-line whitespace.
            let summary = summary.split_whitespace().collect::<Vec<_>>().join(" ");
            out.push_str(&format!(
                "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
                 \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
                json_string(name),
                json_string(&summary)
            ));
        }
        out.push_str("]}},");
        out.push_str("\"columnKind\":\"utf16CodeUnits\",");
        out.push_str("\"results\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"ruleId\":{},", json_string(v.rule)));
            if let Some(idx) = rule_index(v.rule) {
                out.push_str(&format!("\"ruleIndex\":{idx},"));
            }
            out.push_str(&format!(
                "\"level\":\"error\",\"message\":{{\"text\":{}}},\
                 \"locations\":[{{\"physicalLocation\":{{\
                 \"artifactLocation\":{{\"uri\":{},\"uriBaseId\":\"%SRCROOT%\"}},\
                 \"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}],\
                 \"partialFingerprints\":{{\"stadvsLintV1\":{}}}}}",
                json_string(&v.message),
                json_string(&v.file),
                v.line.max(1),
                v.col.max(1),
                json_string(&format!("{}:{}:{}", v.rule, v.file, v.line))
            ));
        }
        out.push_str("]}]}");
        out
    }
}

/// Minimal JSON string escaping (the lint is dependency-free by design).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_violation_report() -> LintReport {
        LintReport {
            files_scanned: 2,
            violations: vec![Violation {
                rule: "hot-path-alloc",
                file: "crates/sim/src/simulator.rs".into(),
                line: 3,
                col: 7,
                message: "msg".into(),
            }],
        }
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_shape() {
        let json = one_violation_report().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"violation_count\":1"));
        assert!(json.contains("\"rule\":\"hot-path-alloc\""));
        assert!(json.contains("\"line\":3"));
    }

    #[test]
    fn text_report_counts_files_and_violations() {
        let text = one_violation_report().render_text();
        assert!(text.starts_with("crates/sim/src/simulator.rs:3:7: [hot-path-alloc] msg\n"));
        assert!(text.ends_with("2 file(s) scanned, 1 violation(s)\n"));
    }

    #[test]
    fn sarif_has_schema_version_and_resolvable_rules() {
        let sarif = one_violation_report().render_sarif();
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("sarif-2.1.0.json"));
        assert!(sarif.contains("\"ruleId\":\"hot-path-alloc\""));
        assert!(sarif.contains("\"startLine\":3"));
        // The driver advertises every reportable rule, including the
        // synthetic ones.
        for rule in RULES {
            assert!(
                sarif.contains(&format!("\"id\":\"{}\"", rule.name)),
                "missing rule metadata for {}",
                rule.name
            );
        }
        for (name, _) in SYNTHETIC_RULES {
            assert!(sarif.contains(&format!("\"id\":\"{name}\"")));
        }
    }

    #[test]
    fn sarif_rule_index_points_at_the_rule() {
        let sarif = one_violation_report().render_sarif();
        // hot-path-alloc is the second declared rule.
        assert!(sarif.contains("\"ruleId\":\"hot-path-alloc\",\"ruleIndex\":1,"));
    }
}
