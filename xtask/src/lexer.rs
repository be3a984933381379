//! A small self-contained Rust lexer: enough token fidelity for the
//! domain lints (comments, strings, char/lifetime disambiguation, numeric
//! literal classification, multi-char operators) without pulling a parser
//! crate into the trust base.

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: usize,
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// Integer literal (suffix included verbatim).
    Int(String),
    /// Float literal (suffix included verbatim).
    Float(String),
    /// Any string literal (contents dropped — never lint-relevant).
    Str,
    /// Character literal.
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
    /// `///`, `//!`, `/** */` or `/*! */` contents, markers stripped.
    DocComment(String),
    /// Operator / punctuation, longest-match (`==`, `..=`, `->`, ...).
    Punct(&'static str),
    /// `(`, `[` or `{`.
    Open(char),
    /// `)`, `]` or `}`.
    Close(char),
}

impl TokenKind {
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, TokenKind::Ident(i) if i == s)
    }

    pub fn is_punct(&self, s: &str) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == s)
    }
}

/// A `// xtask:allow(rule): reason` directive found in a plain comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    pub rule: String,
    /// `xtask:allow-file(...)` applies to the whole file.
    pub file_level: bool,
    pub line: usize,
    pub reason: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
}

const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "=>", "::",
    "..", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

const SINGLE_PUNCT: &[(char, &str)] = &[
    ('+', "+"),
    ('-', "-"),
    ('*', "*"),
    ('/', "/"),
    ('%', "%"),
    ('^', "^"),
    ('!', "!"),
    ('&', "&"),
    ('|', "|"),
    ('<', "<"),
    ('>', ">"),
    ('=', "="),
    ('@', "@"),
    ('_', "_"),
    ('.', "."),
    (',', ","),
    (';', ";"),
    (':', ":"),
    ('#', "#"),
    ('$', "$"),
    ('?', "?"),
    ('~', "~"),
];

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src`, returning tokens plus any `xtask:allow` directives found in
/// ordinary (non-doc) comments.
pub fn lex(src: &str) -> LexedFile {
    let mut cur = Cursor::new(src);
    let mut out = LexedFile::default();

    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.starts_with("//") => {
                lex_line_comment(&mut cur, &mut out, line);
            }
            b'/' if cur.starts_with("/*") => {
                lex_block_comment(&mut cur, &mut out, line, col);
            }
            b'r' | b'b' | b'c' if raw_or_byte_string_ahead(&cur) => {
                lex_string_prefixed(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                    col,
                });
            }
            _ if is_ident_start(b) => {
                let ident = lex_ident(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Ident(ident),
                    line,
                    col,
                });
            }
            b'0'..=b'9' => {
                let kind = lex_number(&mut cur);
                out.tokens.push(Token { kind, line, col });
            }
            b'"' => {
                lex_plain_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    line,
                    col,
                });
            }
            b'\'' => {
                let kind = lex_quote(&mut cur);
                out.tokens.push(Token { kind, line, col });
            }
            b'(' | b'[' | b'{' => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Open(b as char),
                    line,
                    col,
                });
            }
            b')' | b']' | b'}' => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokenKind::Close(b as char),
                    line,
                    col,
                });
            }
            _ => {
                if let Some(p) = MULTI_PUNCT.iter().find(|p| cur.starts_with(p)) {
                    cur.bump_n(p.len());
                    out.tokens.push(Token {
                        kind: TokenKind::Punct(p),
                        line,
                        col,
                    });
                } else if let Some(&(_, p)) = SINGLE_PUNCT.iter().find(|&&(c, _)| c as u8 == b) {
                    cur.bump();
                    out.tokens.push(Token {
                        kind: TokenKind::Punct(p),
                        line,
                        col,
                    });
                } else {
                    // Unknown byte (e.g. stray unicode punctuation): skip.
                    cur.bump();
                }
            }
        }
    }
    out
}

fn lex_line_comment(cur: &mut Cursor<'_>, out: &mut LexedFile, line: usize) {
    let col = cur.col;
    let is_doc = cur.starts_with("///") && !cur.starts_with("////");
    let is_inner_doc = cur.starts_with("//!");
    let mut text = String::new();
    while let Some(b) = cur.peek() {
        if b == b'\n' {
            break;
        }
        text.push(cur.bump().unwrap() as char);
    }
    if is_doc || is_inner_doc {
        let stripped = text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .to_string();
        out.tokens.push(Token {
            kind: TokenKind::DocComment(stripped),
            line,
            col,
        });
    } else if let Some(dir) = parse_allow(&text, line) {
        out.allows.push(dir);
    }
}

fn lex_block_comment(cur: &mut Cursor<'_>, out: &mut LexedFile, line: usize, col: usize) {
    let is_doc = (cur.starts_with("/**") && !cur.starts_with("/***") && !cur.starts_with("/**/"))
        || cur.starts_with("/*!");
    let mut text = String::new();
    cur.bump_n(2);
    let mut depth = 1usize;
    while depth > 0 {
        if cur.starts_with("/*") {
            depth += 1;
            cur.bump_n(2);
            text.push_str("/*");
        } else if cur.starts_with("*/") {
            depth -= 1;
            cur.bump_n(2);
            if depth > 0 {
                text.push_str("*/");
            }
        } else if let Some(b) = cur.bump() {
            text.push(b as char);
        } else {
            break; // unterminated; tolerate
        }
    }
    if is_doc {
        let stripped = text
            .trim_start_matches('*')
            .trim_start_matches('!')
            .to_string();
        out.tokens.push(Token {
            kind: TokenKind::DocComment(stripped),
            line,
            col,
        });
    } else if let Some(dir) = parse_allow(&text, line) {
        out.allows.push(dir);
    }
}

/// Parses `xtask:allow(rule): reason` / `xtask:allow-file(rule): reason`
/// from a comment body. The reason is mandatory: an allow without a
/// recorded justification is itself a process violation.
fn parse_allow(comment: &str, line: usize) -> Option<AllowDirective> {
    let idx = comment.find("xtask:allow")?;
    let rest = &comment[idx + "xtask:allow".len()..];
    let (file_level, rest) = match rest.strip_prefix("-file") {
        Some(r) => (true, r),
        None => (false, rest),
    };
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if rule.is_empty() {
        return None;
    }
    Some(AllowDirective {
        rule,
        file_level,
        line,
        reason: reason.to_string(),
    })
}

fn raw_or_byte_string_ahead(cur: &Cursor<'_>) -> bool {
    // r"..", r#"..", br".., b"..", rb? (not legal), c"..", br#"..
    let s = &cur.src[cur.pos..];
    let strip = |s: &[u8], b: u8| -> Option<usize> {
        if s.first() == Some(&b) {
            Some(1)
        } else {
            None
        }
    };
    let mut i = 0;
    if let Some(n) = strip(s, b'b').or_else(|| strip(s, b'c')) {
        i += n;
    }
    if s.get(i) == Some(&b'r') {
        i += 1;
        while s.get(i) == Some(&b'#') {
            i += 1;
        }
    }
    s.get(i) == Some(&b'"') && i > 0
}

fn lex_string_prefixed(cur: &mut Cursor<'_>) {
    // Consume optional b/c prefix.
    if matches!(cur.peek(), Some(b'b') | Some(b'c')) {
        cur.bump();
    }
    if cur.peek() == Some(b'r') {
        cur.bump();
        let mut hashes = 0usize;
        while cur.peek() == Some(b'#') {
            hashes += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        loop {
            match cur.bump() {
                None => break,
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && cur.peek() == Some(b'#') {
                        seen += 1;
                        cur.bump();
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
    } else {
        lex_plain_string(cur);
    }
}

fn lex_plain_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(b) = cur.bump() {
        match b {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

fn lex_ident(cur: &mut Cursor<'_>) -> String {
    // Raw identifier?
    if cur.starts_with("r#") && cur.peek_at(2).is_some_and(is_ident_start) {
        cur.bump_n(2);
    }
    let mut s = String::new();
    while let Some(b) = cur.peek() {
        if is_ident_continue(b) {
            s.push(cur.bump().unwrap() as char);
        } else {
            break;
        }
    }
    s
}

fn lex_number(cur: &mut Cursor<'_>) -> TokenKind {
    let mut text = String::new();
    let mut is_float = false;
    let radix_prefix = cur.starts_with("0x")
        || cur.starts_with("0X")
        || cur.starts_with("0o")
        || cur.starts_with("0O")
        || cur.starts_with("0b")
        || cur.starts_with("0B");
    if radix_prefix {
        text.push(cur.bump().unwrap() as char);
        text.push(cur.bump().unwrap() as char);
        while let Some(b) = cur.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                text.push(cur.bump().unwrap() as char);
            } else {
                break;
            }
        }
        return TokenKind::Int(text);
    }
    while let Some(b) = cur.peek() {
        if b.is_ascii_digit() || b == b'_' {
            text.push(cur.bump().unwrap() as char);
        } else {
            break;
        }
    }
    // Fractional part: a `.` followed by a digit (NOT `..` or a method).
    if cur.peek() == Some(b'.') && cur.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
        is_float = true;
        text.push(cur.bump().unwrap() as char);
        while let Some(b) = cur.peek() {
            if b.is_ascii_digit() || b == b'_' {
                text.push(cur.bump().unwrap() as char);
            } else {
                break;
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(), Some(b'e') | Some(b'E')) {
        let next = cur.peek_at(1);
        let next2 = cur.peek_at(2);
        let exp_ok = next.is_some_and(|b| b.is_ascii_digit())
            || (matches!(next, Some(b'+') | Some(b'-'))
                && next2.is_some_and(|b| b.is_ascii_digit()));
        if exp_ok {
            is_float = true;
            text.push(cur.bump().unwrap() as char);
            if matches!(cur.peek(), Some(b'+') | Some(b'-')) {
                text.push(cur.bump().unwrap() as char);
            }
            while let Some(b) = cur.peek() {
                if b.is_ascii_digit() || b == b'_' {
                    text.push(cur.bump().unwrap() as char);
                } else {
                    break;
                }
            }
        }
    }
    // Type suffix (f64, u32, usize, ...).
    if cur.peek().is_some_and(is_ident_start) {
        let mut suffix = String::new();
        while let Some(b) = cur.peek() {
            if is_ident_continue(b) {
                suffix.push(cur.bump().unwrap() as char);
            } else {
                break;
            }
        }
        if suffix.starts_with('f') {
            is_float = true;
        }
        text.push_str(&suffix);
    }
    if is_float {
        TokenKind::Float(text)
    } else {
        TokenKind::Int(text)
    }
}

fn lex_quote(cur: &mut Cursor<'_>) -> TokenKind {
    cur.bump(); // the opening '
    match cur.peek() {
        Some(b'\\') => {
            // Escaped char literal.
            cur.bump();
            cur.bump();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            } else {
                // \u{...} or similar: consume until closing quote.
                while let Some(b) = cur.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
            }
            TokenKind::Char
        }
        Some(b) if is_ident_start(b) => {
            // `'a'` is a char; `'a` (no closing quote) is a lifetime. The
            // run length is counted in *characters* (UTF-8 lead bytes) so
            // multi-byte literals like '█' lex as chars, not lifetimes.
            let mut bytes = 1;
            while cur.peek_at(bytes).is_some_and(is_ident_continue) {
                bytes += 1;
            }
            let chars = (0..bytes)
                .filter(|&i| cur.peek_at(i).is_some_and(|b| b & 0xC0 != 0x80))
                .count();
            if cur.peek_at(bytes) == Some(b'\'') && chars == 1 {
                cur.bump_n(bytes + 1);
                TokenKind::Char
            } else {
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                TokenKind::Lifetime
            }
        }
        Some(_) => {
            // Some other char literal like '(' or '0'.
            cur.bump();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            }
            TokenKind::Char
        }
        None => TokenKind::Lifetime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers_and_ranges() {
        let k = kinds("0..200 1.0e-9 0x1F 2usize 3.5f64 1e6");
        assert_eq!(
            k,
            vec![
                TokenKind::Int("0".into()),
                TokenKind::Punct(".."),
                TokenKind::Int("200".into()),
                TokenKind::Float("1.0e-9".into()),
                TokenKind::Int("0x1F".into()),
                TokenKind::Int("2usize".into()),
                TokenKind::Float("3.5f64".into()),
                TokenKind::Float("1e6".into()),
            ]
        );
    }

    #[test]
    fn method_on_int_is_not_float() {
        let k = kinds("1.max(2)");
        assert_eq!(k[0], TokenKind::Int("1".into()));
        assert_eq!(k[1], TokenKind::Punct("."));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let k = kinds("'a 'x' '\\n' 'static");
        assert_eq!(
            k,
            vec![
                TokenKind::Lifetime,
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Lifetime
            ]
        );
    }

    #[test]
    fn multibyte_char_literals_are_chars_not_lifetimes() {
        // A mis-lex here desynchronizes brace matching for the whole file.
        let k = kinds("s.push('█'); s.push('─'); fn f() {}");
        assert_eq!(k.iter().filter(|t| matches!(t, TokenKind::Char)).count(), 2);
        assert!(!k.iter().any(|t| matches!(t, TokenKind::Lifetime)));
    }

    #[test]
    fn strings_including_raw() {
        let k = kinds(r####"  "a == b" r#"x != y"# b"bytes"  "####);
        assert_eq!(k, vec![TokenKind::Str, TokenKind::Str, TokenKind::Str]);
    }

    #[test]
    fn doc_comments_are_tokens_plain_comments_are_not() {
        let lexed = lex("/// doc here\n// plain\nfn f() {}\n");
        assert!(
            matches!(lexed.tokens[0].kind, TokenKind::DocComment(ref s) if s.contains("doc here"))
        );
        assert!(lexed.tokens[1].kind.is_ident("fn"));
    }

    #[test]
    fn allow_directives_parse() {
        let lexed = lex(
            "// xtask:allow(hot-path-alloc): setup only\nlet a = 1;\n// xtask:allow-file(governor-doc): generated code\n",
        );
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].rule, "hot-path-alloc");
        assert!(!lexed.allows[0].file_level);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].reason, "setup only");
        assert!(lexed.allows[1].file_level);
    }

    #[test]
    fn nested_block_comments() {
        let k = kinds("/* a /* b */ c */ fn");
        assert_eq!(k, vec![TokenKind::Ident("fn".into())]);
    }

    #[test]
    fn multi_char_operators() {
        let k = kinds("a == b != c ..= d :: e -> f");
        let puncts: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "..=", "::", "->"]);
    }
}
