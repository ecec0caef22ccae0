//! A minimal lexical scanner for Rust source.
//!
//! The analyzer's lints are *lexical*: they look at identifier/punctuation
//! streams and at comments, never at a full AST. That keeps the crate
//! std-only (no `syn`/`proc-macro2`, which this offline workspace does not
//! vendor) while still being precise enough for the invariants it guards —
//! everything it needs to see (a `%` next to `q`, a `wrapping_mul` call, a
//! `cfg` attribute, an `analyzer:` comment) survives tokenization intact.
//!
//! The scanner understands the parts of Rust's grammar that would otherwise
//! produce false tokens: line and (nested) block comments, string / raw
//! string / byte string literals, character literals vs. lifetimes, and raw
//! identifiers. Numeric literals are folded into single tokens so that
//! suffixes (`2654435761u64`) and hex digits never masquerade as
//! identifiers.

/// Kind of a lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `q`, `wrapping_mul`, ...).
    Ident,
    /// A single punctuation character (`%`, `#`, `[`, `{`, ...).
    Punct,
    /// String / char / numeric literal. For string literals `text` keeps the
    /// surrounding quotes so `"simd"` can be matched exactly.
    Literal,
    /// A lifetime such as `'a` (kept distinct so it is never confused with a
    /// char literal or an identifier).
    Lifetime,
}

/// One token of the source stream.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. Punctuation is always a single character.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// One comment (line or block) of the source.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment body *without* the `//` / `/*` markers, trimmed.
    pub text: String,
    /// 1-based source line the comment starts on.
    pub line: usize,
    /// 1-based source line the comment ends on (differs for block comments).
    pub end_line: usize,
    /// True for `///`, `//!`, `/** */` and `/*! */` doc comments.
    pub doc: bool,
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Scan `src` into tokens and comments.
pub fn scan(src: &str) -> Scan {
    let b = src.as_bytes();
    let mut out = Scan::default();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let doc = matches!(b.get(start), Some(b'/') | Some(b'!'))
                    && b.get(start + 1) != Some(&b'/');
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                let text = src[start..j].trim_matches(['/', '!']).trim().to_string();
                out.comments.push(Comment {
                    text,
                    line,
                    end_line: line,
                    doc,
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let body_start = i + 2;
                let doc = matches!(b.get(body_start), Some(b'*') | Some(b'!'));
                let mut depth = 1usize;
                let mut j = body_start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let body_end = j.saturating_sub(2).max(body_start);
                let text = src[body_start..body_end]
                    .trim_matches(['*', '!'])
                    .trim()
                    .to_string();
                out.comments.push(Comment {
                    text,
                    line: start_line,
                    end_line: line,
                    doc,
                });
                i = j;
            }
            b'"' => {
                let (j, nl) = skip_string(b, i + 1, 0);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..j].to_string(),
                    line,
                });
                line += nl;
                i = j;
            }
            b'\'' => {
                // Char literal or lifetime. `'\...'` and `'x'` are chars;
                // `'ident` not followed by a closing quote is a lifetime.
                if b.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    if b.get(j) == Some(&b'u') && b.get(j + 1) == Some(&b'{') {
                        while j < b.len() && b[j] != b'}' {
                            j += 1;
                        }
                    } else {
                        j += 1; // the escaped character
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    j = (j + 1).min(b.len());
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    if j == i + 2 && b.get(j) == Some(&b'\'') {
                        // 'x'
                        out.tokens.push(Token {
                            kind: TokKind::Literal,
                            text: src[i..j + 1].to_string(),
                            line,
                        });
                        i = j + 1;
                    } else {
                        out.tokens.push(Token {
                            kind: TokKind::Lifetime,
                            text: src[i..j].to_string(),
                            line,
                        });
                        i = j;
                    }
                }
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let (tok_end, nl) = scan_raw_or_byte_string(b, i);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..tok_end].to_string(),
                    line,
                });
                line += nl;
                i = tok_end;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len() {
                    let d = b[j];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        j += 1;
                    } else if d == b'.'
                        && b.get(j + 1).is_some_and(u8::is_ascii_digit)
                        && !src[i..j].contains('.')
                    {
                        // `1.5` but not the range `0..n`.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Skip past a (cooked) string literal body starting right after the opening
/// quote; returns (index past the closing quote, newlines crossed).
fn skip_string(b: &[u8], mut i: usize, mut newlines: usize) -> (usize, usize) {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (i + 1, newlines),
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, newlines)
}

/// Is this the start of `r"`, `r#"`, `b"`, `br"`, `br#"`, `b'`, or a raw
/// identifier `r#ident`? (Raw identifiers are handled by the caller falling
/// through to the raw-string scanner, which detects the `#ident` form.)
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if b.get(j) == Some(&b'\'') || b.get(j) == Some(&b'"') {
            return true;
        }
    }
    if b.get(j) == Some(&b'r') {
        j += 1;
        let mut k = j;
        while b.get(k) == Some(&b'#') {
            k += 1;
        }
        return b.get(k) == Some(&b'"')
            || (k > j
                && b.get(k)
                    .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_'));
    }
    false
}

/// Scan a raw / byte string (or raw identifier) starting at `i`; returns
/// (index past the end, newlines crossed).
fn scan_raw_or_byte_string(b: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if b.get(j) == Some(&b'\'') {
            // Byte char literal b'x' / b'\n'.
            j += 1;
            if b.get(j) == Some(&b'\\') {
                j += 2;
            } else {
                j += 1;
            }
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            return ((j + 1).min(b.len()), 0);
        }
        if b.get(j) == Some(&b'"') {
            return skip_string(b, j + 1, 0);
        }
    }
    // `r...`
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        // Raw identifier r#ident.
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return (j, 0);
    }
    j += 1; // past the opening quote
    let mut newlines = 0usize;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while seen < hashes && b.get(k) == Some(&b'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, newlines);
            }
        }
        j += 1;
    }
    (j, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_tokens_are_separated() {
        let s = scan("// SAFETY: fine\nunsafe fn f() {} /* block */ let q = 3 % q;");
        assert_eq!(s.comments.len(), 2);
        assert_eq!(s.comments[0].text, "SAFETY: fine");
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[1].text, "block");
        let idents: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["unsafe", "fn", "f", "let", "q", "q"]);
        assert!(s.tokens.iter().any(|t| t.text == "%"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let s = scan(r##"let a = "unsafe % q"; let b = r#"wrapping_mul"# ;"##);
        assert!(!s.tokens.iter().any(|t| t.text == "unsafe"));
        assert!(!s.tokens.iter().any(|t| t.text == "wrapping_mul"));
        assert!(!s.tokens.iter().any(|t| t.text == "%"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn numeric_literals_do_not_swallow_ranges() {
        let s = scan("for i in 0..n { let x = 1.5f64; let y = 0xffu64; }");
        let lits: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, ["0", "1.5f64", "0xffu64"]);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let s = scan("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.tokens[0].text, "fn");
    }

    #[test]
    fn block_comment_lines_are_tracked() {
        let s = scan("/* a\nb\nc */\nfn f() {}");
        assert_eq!(s.comments[0].line, 1);
        assert_eq!(s.comments[0].end_line, 3);
        assert_eq!(s.tokens[0].line, 4);
    }
}
