//! The domain rules, implemented over the token stream.
//!
//! Shared infrastructure lives here: `#[cfg(test)]` / `#[test]` masking
//! and delimiter matching.

mod governor_doc;
mod hot_path_alloc;

pub use governor_doc::{check_governor_doc, collect_type_docs, TypeDocs};
pub use hot_path_alloc::check_hot_path_alloc;

use crate::lexer::{Token, TokenKind};

/// Static description of a rule, for `--list-rules` and allow validation.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Every rule the linter knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "governor-doc",
        summary: "every type implementing Governor must carry a doc comment \
                  naming its safety argument (a `Safety` section)",
    },
    RuleInfo {
        name: "hot-path-alloc",
        summary: "no fresh heap allocations (Vec::new, vec!, clone(), \
                  collect(), ...) inside loop bodies on the per-event path \
                  (crates/sim, the demand analysis, the fleet shard loop); \
                  hoist buffers into SimScratch and reuse them",
    },
];

/// Whether `name` is a known rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// For each token, whether it lies inside test-only code: an item annotated
/// with an attribute whose arguments mention `test` (`#[cfg(test)]`,
/// `#[test]`, `#[cfg(any(test, ...))]`, ...). Conservative by construction:
/// masking too much only makes the lint quieter in test code, never louder
/// in shipping code.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind.is_punct("#")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Open('['))
        {
            let attr_end = match matching_close(tokens, i + 1) {
                Some(e) => e,
                None => break,
            };
            let mentions_test = tokens[i + 1..attr_end]
                .iter()
                .any(|t| t.kind.is_ident("test"));
            if mentions_test {
                if let Some(item_end) = item_end_after(tokens, attr_end + 1) {
                    for m in mask.iter_mut().take(item_end + 1).skip(i) {
                        *m = true;
                    }
                    i = item_end + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// The index of the last token of the item starting at `start` (skipping
/// further attributes and doc comments): either a terminating `;` or the
/// matching close of its first `{` block.
fn item_end_after(tokens: &[Token], start: usize) -> Option<usize> {
    let mut i = start;
    // Skip doc comments and further attributes between the attribute and
    // the item keyword.
    loop {
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::DocComment(_)) => i += 1,
            Some(TokenKind::Punct("#"))
                if tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Open('[')) =>
            {
                i = matching_close(tokens, i + 1)? + 1;
            }
            _ => break,
        }
    }
    // Scan to the first top-level `;` or brace block.
    let mut depth = 0usize;
    while let Some(tok) = tokens.get(i) {
        match &tok.kind {
            TokenKind::Open('{') if depth == 0 => return matching_close(tokens, i),
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) => depth = depth.saturating_sub(1),
            TokenKind::Punct(";") if depth == 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `Close` matching the `Open` at `open_idx`.
pub fn matching_close(tokens: &[Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open_idx) {
        match tok.kind {
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("unwrap"))
            .unwrap();
        let tail_idx = lexed
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("tail"))
            .unwrap();
        assert!(mask[unwrap_idx], "inside cfg(test) must be masked");
        assert!(!mask[tail_idx], "after the test mod must be unmasked");
        assert!(!mask[0], "before the test mod must be unmasked");
    }

    #[test]
    fn test_mask_covers_test_fn_attribute() {
        let src = "#[test]\nfn unit() { y.expect(\"x\"); }\nfn lib() {}\n";
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        let expect_idx = lexed
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("expect"))
            .unwrap();
        let lib_idx = lexed
            .tokens
            .iter()
            .position(|t| t.kind.is_ident("lib"))
            .unwrap();
        assert!(mask[expect_idx]);
        assert!(!mask[lib_idx]);
    }
}
