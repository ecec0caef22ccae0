//! The lint catalogue and the engine that applies it to one source file.
//!
//! Four lints guard the datapath invariants (see `docs/ANALYSIS.md` for the
//! full catalogue with rationale). `unsafe` code needs no lint: the
//! workspace forbids it through `[workspace.lints.rust]`, so the compiler
//! rejects it in every target of every member.
//!
//! * `raw_residue_op` — inside the residue scope (`crates/ntt-ref/src`,
//!   non-test code) no raw `% q` reduction, `wrapping_*` arithmetic, or
//!   `as u128` / `as u32` cast may touch residue data; such operations
//!   belong in `modmath` behind the typed `modmath::bound` API.
//! * `missing_bound_assert` — every `*_lazy` function must contain an
//!   `assert!`/`debug_assert!`/`assume` token so its magnitude contract is
//!   replayed in debug builds.
//! * `missing_portable_sibling` — a file gating items on
//!   `#[cfg(feature = "simd")]` must also contain a portable sibling
//!   (a `portable_*` identifier or a `not(feature = "simd")` counterpart).
//! * `malformed_allow` — an `// analyzer: allow(...)` marker that does not
//!   parse, names an unknown lint, or lacks a reason.
//!
//! Suppression: a finding on line `L` is suppressed by a well-formed
//! `// analyzer: allow(<lint>) — <reason>` marker either trailing on `L`
//! itself or on a comment line whose next code line is `L`.

use crate::lex::{Scan, TokKind, Token};

/// Names of every lint the analyzer knows, in catalogue order.
pub const LINT_NAMES: &[&str] = &[
    "raw_residue_op",
    "missing_bound_assert",
    "missing_portable_sibling",
    "malformed_allow",
];

/// One analyzer finding (an unsuppressed violation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint name from [`LINT_NAMES`].
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Result of analyzing one file: surviving findings plus the number of
/// violations silenced by valid allow-markers (reported so suppressions
/// stay visible in the JSON report).
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Violations matched by a valid allow-marker.
    pub suppressed: usize,
}

/// A parsed, well-formed allow-marker.
struct AllowMarker {
    lint: String,
    /// Line the marker comment starts on.
    line: usize,
    /// First code line at or after the marker — the line it applies to.
    applies_to: usize,
}

/// An attribute `#[...]` / `#![...]` located in the token stream.
struct Attr {
    /// Token index of the `#`.
    start: usize,
    /// Token index one past the closing `]`.
    end: usize,
    /// Line span of the attribute.
    lines: (usize, usize),
}

/// Analyze one file. `path` must be repo-relative with `/` separators —
/// it decides lint scoping (residue scope, test paths).
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let scan = crate::lex::scan(src);
    let toks = &scan.tokens;

    let attrs = find_attrs(toks);
    let test_lines = cfg_test_lines(toks, &attrs);
    let token_lines: std::collections::BTreeSet<usize> = toks.iter().map(|t| t.line).collect();

    let path_is_test = path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    let in_test =
        |line: usize| path_is_test || test_lines.iter().any(|&(a, b)| a <= line && line <= b);

    let mut raw = Vec::new();
    let (markers, mut marker_findings) = parse_markers(path, &scan, &token_lines);
    raw.append(&mut marker_findings);

    if path.starts_with("crates/ntt-ref/src") {
        lint_raw_residue_op(path, toks, &in_test, &mut raw);
    }
    lint_missing_bound_assert(path, toks, &in_test, &mut raw);
    lint_missing_portable_sibling(path, toks, &attrs, &mut raw);

    let mut out = FileAnalysis::default();
    for f in raw {
        let suppressed = markers
            .iter()
            .any(|m| m.lint == f.lint && (f.line == m.applies_to || f.line == m.line));
        if suppressed {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Locate every attribute in the token stream.
fn find_attrs(toks: &[Token]) -> Vec<Attr> {
    let mut attrs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" {
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "!" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "[" {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end = (k + 1).min(toks.len());
                attrs.push(Attr {
                    start: i,
                    end,
                    lines: (toks[i].line, toks[end.saturating_sub(1)].line),
                });
                i = end;
                continue;
            }
        }
        i += 1;
    }
    attrs
}

/// Does the attribute's token slice contain this identifier?
fn attr_has_ident(toks: &[Token], a: &Attr, ident: &str) -> bool {
    toks[a.start..a.end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == ident)
}

/// Does the attribute's token slice contain this string literal (quoted)?
fn attr_has_str(toks: &[Token], a: &Attr, quoted: &str) -> bool {
    toks[a.start..a.end]
        .iter()
        .any(|t| t.kind == TokKind::Literal && t.text == quoted)
}

/// First identifier inside the attribute brackets (`cfg`, `cfg_attr`, ...).
fn attr_head<'t>(toks: &'t [Token], a: &Attr) -> Option<&'t str> {
    toks[a.start..a.end]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Line ranges of `#[cfg(test)] mod ... { ... }` regions.
fn cfg_test_lines(toks: &[Token], attrs: &[Attr]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in attrs {
        if attr_head(toks, a) != Some("cfg") || !attr_has_ident(toks, a, "test") {
            continue;
        }
        // The attribute must introduce a `mod` item; find its brace span.
        let mut i = a.end;
        // Skip further attributes / visibility between the cfg and the item.
        while i < toks.len() && (toks[i].text == "#" || toks[i].text == "[") {
            if let Some(next) = attrs.iter().find(|b| b.start == i) {
                i = next.end;
            } else {
                break;
            }
        }
        if toks.get(i).map(|t| t.text.as_str()) == Some("pub") {
            i += 1;
        }
        if toks.get(i).map(|t| t.text.as_str()) != Some("mod") {
            continue;
        }
        // Find the opening brace and match it.
        while i < toks.len() && toks[i].text != "{" && toks[i].text != ";" {
            i += 1;
        }
        if toks.get(i).map(|t| t.text.as_str()) != Some("{") {
            continue;
        }
        let mut depth = 0usize;
        let start_line = toks[a.start].line;
        let mut end_line = start_line;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[i].line;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        out.push((start_line, end_line));
    }
    out
}

/// Parse `analyzer:` comment markers. Returns the valid markers plus
/// `malformed_allow` findings for the invalid ones.
fn parse_markers(
    path: &str,
    scan: &Scan,
    token_lines: &std::collections::BTreeSet<usize>,
) -> (Vec<AllowMarker>, Vec<Finding>) {
    let mut markers = Vec::new();
    let mut findings = Vec::new();
    for c in &scan.comments {
        // Markers live in plain comments only; doc comments that *describe*
        // the marker grammar (like this module's) are not markers.
        if c.doc {
            continue;
        }
        let Some(pos) = c.text.find("analyzer:") else {
            continue;
        };
        let rest = c.text[pos + "analyzer:".len()..].trim();
        let mut fail = |why: &str| {
            findings.push(Finding {
                lint: "malformed_allow",
                path: path.to_string(),
                line: c.line,
                message: format!("malformed allow-marker: {why}"),
            });
        };
        let Some(inner) = rest.strip_prefix("allow(") else {
            fail("expected `allow(<lint>)` after `analyzer:`");
            continue;
        };
        let Some(close) = inner.find(')') else {
            fail("unclosed `allow(`");
            continue;
        };
        let lint = inner[..close].trim();
        if !LINT_NAMES.contains(&lint) {
            fail(&format!("unknown lint `{lint}`"));
            continue;
        }
        let after = inner[close + 1..].trim();
        let reason = after
            .strip_prefix('\u{2014}') // em dash
            .or_else(|| after.strip_prefix("--"))
            .map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => {
                // The marker applies to its own line (trailing form) or to
                // the first code line after the comment.
                let applies_to = token_lines
                    .range(c.line..)
                    .next()
                    .copied()
                    .unwrap_or(c.line);
                markers.push(AllowMarker {
                    lint: lint.to_string(),
                    line: c.line,
                    applies_to,
                });
            }
            _ => fail("missing `\u{2014} <reason>` after `allow(...)`"),
        }
    }
    (markers, findings)
}

/// `raw_residue_op`: raw `% q`, `wrapping_*`, `as u128` / `as u32` in the
/// residue scope outside test code.
fn lint_raw_residue_op(
    path: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    const WRAPPING: &[&str] = &[
        "wrapping_add",
        "wrapping_sub",
        "wrapping_mul",
        "wrapping_neg",
        "wrapping_rem",
    ];
    let mut push = |line: usize, message: String| {
        out.push(Finding {
            lint: "raw_residue_op",
            path: path.to_string(),
            line,
            message,
        });
    };
    for (i, t) in toks.iter().enumerate() {
        if in_test(t.line) {
            continue;
        }
        match t.kind {
            TokKind::Punct
                if t.text == "%"
                    && toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text == "q") =>
            {
                push(
                    t.line,
                    "raw `% q` reduction on residue data (use the modmath typed ops)".into(),
                );
            }
            TokKind::Ident if WRAPPING.contains(&t.text.as_str()) => {
                push(
                    t.line,
                    format!(
                        "`{}` on residue data (wrap-around must stay inside modmath)",
                        t.text
                    ),
                );
            }
            TokKind::Ident if t.text == "as" => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokKind::Ident && (n.text == "u128" || n.text == "u32") {
                        push(
                            t.line,
                            format!(
                                "`as {}` cast on residue data (widen/narrow inside modmath only)",
                                n.text
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// `missing_bound_assert`: every `fn *_lazy*` must replay its magnitude
/// contract with an assert / debug_assert / assume in its body.
fn lint_missing_bound_assert(
    path: &str,
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let is_assertish = |t: &Token| {
        t.kind == TokKind::Ident
            && (t.text.starts_with("assert")
                || t.text.starts_with("debug_assert")
                || t.text == "assume")
    };
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" {
            if let Some(name) = toks.get(i + 1) {
                if name.kind == TokKind::Ident && name.text.contains("_lazy") && !in_test(name.line)
                {
                    // Body = the brace block after the signature. Predicates
                    // *about* laziness (`-> bool`, e.g. `uses_lazy`) are not
                    // datapath legs and carry no magnitude contract.
                    let mut j = i + 2;
                    let mut returns_bool = false;
                    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                        if toks[j].text == ">"
                            && j > 0
                            && toks[j - 1].text == "-"
                            && toks.get(j + 1).is_some_and(|t| t.text == "bool")
                        {
                            returns_bool = true;
                        }
                        j += 1;
                    }
                    if returns_bool {
                        i = j;
                        continue;
                    }
                    if toks.get(j).map(|t| t.text.as_str()) == Some("{") {
                        let mut depth = 0usize;
                        let mut found = false;
                        let mut k = j;
                        while k < toks.len() {
                            match toks[k].text.as_str() {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {
                                    if is_assertish(&toks[k]) {
                                        found = true;
                                    }
                                }
                            }
                            k += 1;
                        }
                        if !found {
                            out.push(Finding {
                                lint: "missing_bound_assert",
                                path: path.to_string(),
                                line: name.line,
                                message: format!(
                                    "lazy leg `{}` has no bound assert in its body",
                                    name.text
                                ),
                            });
                        }
                        i = k;
                    }
                }
            }
        }
        i += 1;
    }
}

/// `missing_portable_sibling`: a file with `#[cfg(feature = "simd")]` items
/// must carry a portable fallback in the same file.
fn lint_missing_portable_sibling(
    path: &str,
    toks: &[Token],
    attrs: &[Attr],
    out: &mut Vec<Finding>,
) {
    let simd_attr = |a: &&Attr| {
        attr_head(toks, a) == Some("cfg")
            && attr_has_ident(toks, a, "feature")
            && attr_has_str(toks, a, "\"simd\"")
    };
    let positive: Vec<&Attr> = attrs
        .iter()
        .filter(simd_attr)
        .filter(|a| !attr_has_ident(toks, a, "not"))
        .collect();
    if positive.is_empty() {
        return;
    }
    let has_negative = attrs
        .iter()
        .filter(simd_attr)
        .any(|a| attr_has_ident(toks, a, "not"));
    let has_portable = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.starts_with("portable_"));
    if !has_negative && !has_portable {
        out.push(Finding {
            lint: "missing_portable_sibling",
            path: path.to_string(),
            line: positive[0].lines.0,
            message: "`#[cfg(feature = \"simd\")]` items with no portable sibling in this file"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<&'static str> {
        analyze_file(path, src)
            .findings
            .iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn residue_ops_flag_only_in_scope_and_outside_tests() {
        let src = "fn f(x: u64, q: u64) -> u64 { x % q }\n#[cfg(test)]\nmod tests { fn g(x: u64, q: u64) -> u64 { x % q } }\n";
        assert_eq!(lints_of("crates/ntt-ref/src/a.rs", src), ["raw_residue_op"]);
        assert!(lints_of("crates/other/src/a.rs", src).is_empty());
        assert!(lints_of("crates/ntt-ref/tests/a.rs", src).is_empty());
    }

    #[test]
    fn modulo_of_non_residue_ident_is_fine() {
        let src = "fn f(i: usize, n: usize) -> usize { i % n }\n";
        assert!(lints_of("crates/ntt-ref/src/a.rs", src).is_empty());
    }

    #[test]
    fn lazy_fn_without_assert_fails() {
        let src = "fn mul_lazy_custom(x: u64) -> u64 { x }\n";
        assert_eq!(
            lints_of("crates/x/src/lib.rs", src),
            ["missing_bound_assert"]
        );
        let ok = "fn mul_lazy_custom(x: u64, q: u64) -> u64 { debug_assert!(x < q); x }\n";
        assert!(lints_of("crates/x/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn bool_predicates_about_laziness_are_exempt() {
        let src = "fn uses_lazy(&self) -> bool { self.lazy }\n";
        assert!(lints_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn simd_cfg_needs_a_portable_sibling() {
        let bad = "#[cfg(feature = \"simd\")]\nfn fast() {}\n";
        assert_eq!(
            lints_of("crates/x/src/lib.rs", bad),
            ["missing_portable_sibling"]
        );
        let ok = "#[cfg(feature = \"simd\")]\nfn fast() {}\n#[cfg(not(feature = \"simd\"))]\nfn slow() {}\n";
        assert!(lints_of("crates/x/src/lib.rs", ok).is_empty());
        let ok2 = "#[cfg(all(feature = \"simd\", target_arch = \"x86_64\"))]\nfn fast() {}\nfn portable_fallback() {}\n";
        assert!(lints_of("crates/x/src/lib.rs", ok2).is_empty());
    }

    #[test]
    fn cfg_attr_does_not_trigger_the_sibling_lint() {
        let src = "#![cfg_attr(feature = \"simd\", deny(unsafe_code))]\nfn f() {}\n";
        assert!(lints_of("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn valid_marker_suppresses_and_counts() {
        let src = "fn f(x: u64, q: u64) -> u64 {\n    // analyzer: allow(raw_residue_op) \u{2014} deterministic input generator, not residue math\n    x % q\n}\n";
        let a = analyze_file("crates/ntt-ref/src/a.rs", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn trailing_marker_suppresses() {
        let src = "fn f(x: u64, q: u64) -> u64 {\n    x % q // analyzer: allow(raw_residue_op) -- input generator\n}\n";
        let a = analyze_file("crates/ntt-ref/src/a.rs", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn malformed_markers_fail() {
        for bad in [
            "// analyzer: allow(raw_residue_op)\nfn f() {}\n", // no reason
            "// analyzer: allow(not_a_lint) \u{2014} why\nfn f() {}\n", // unknown lint
            "// analyzer: disable(raw_residue_op) \u{2014} why\nfn f() {}\n", // wrong verb
        ] {
            assert_eq!(
                lints_of("crates/x/src/lib.rs", bad),
                ["malformed_allow"],
                "{bad}"
            );
        }
    }

    #[test]
    fn marker_does_not_suppress_a_different_lint() {
        let src = "// analyzer: allow(raw_residue_op) \u{2014} wrong lint\nfn add_lazy_raw(x: u64) -> u64 { x }\n";
        assert_eq!(
            lints_of("crates/ntt-ref/src/a.rs", src),
            ["missing_bound_assert"]
        );
    }
}
