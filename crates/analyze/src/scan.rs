//! Item/block scanning on top of the token stream.
//!
//! Lints need just enough structure to be precise: which lines belong to
//! `#[cfg(test)]` items or `#[test]` functions (panics there are fine),
//! which function encloses a finding, and which lines carry an inline
//! `funnel-lint: allow(...)` suppression. The journal-before-commit pass
//! additionally needs token-index spans per `fn` and the token ranges
//! covered by attributes (so `#[cfg(feature = "x")]` never reads as a call
//! to `cfg`).

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` item: name, line span and token-index span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// 1-based line of the closing brace.
    pub end_line: u32,
    /// Index of the `fn` keyword in [`FileScan::code`].
    pub fn_tok: usize,
    /// Index of the body's opening `{` in [`FileScan::code`].
    pub body_open: usize,
    /// Index of the body's closing `}` (or `code.len()` when unbalanced).
    pub body_close: usize,
}

/// One inline `funnel-lint: allow(...)` comment, with whatever explanatory
/// note follows the closing paren — the raw material of the
/// suppression-hygiene lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionSite {
    /// 1-based line of the comment.
    pub line: u32,
    /// The lint ids listed inside `allow(...)`.
    pub lints: Vec<String>,
    /// Whether a non-empty note follows the `allow(...)` — either
    /// `allow(x): why it is safe` or `allow(x) note: why`.
    pub has_note: bool,
}

/// Everything the lint passes need to know about one file.
#[derive(Debug)]
pub struct FileScan {
    /// Code tokens only — comments stripped, strings/chars opaque.
    pub code: Vec<Token>,
    /// All `fn` items, in source order (nested fns included).
    pub fns: Vec<FnSpan>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` items or
    /// `#[test]`-attributed functions.
    pub test_regions: Vec<(u32, u32)>,
    /// Lines on which findings of the named lints are suppressed.
    pub suppressions: BTreeMap<u32, BTreeSet<String>>,
    /// Every `funnel-lint: allow` comment with its note status, in source
    /// order.
    pub suppression_sites: Vec<SuppressionSite>,
    /// Inclusive token-index ranges covered by `#[…]` / `#![…]` attributes
    /// (from the `#` to the closing `]`).
    pub attr_ranges: Vec<(usize, usize)>,
}

impl FileScan {
    /// Lexes and scans `source`.
    pub fn of(source: &str) -> Self {
        build(lex(source))
    }

    /// Whether `line` falls inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Whether a `funnel-lint: allow(lint)` comment covers `line`.
    pub fn suppressed(&self, line: u32, lint: &str) -> bool {
        self.suppressions
            .get(&line)
            .is_some_and(|set| set.contains(lint))
    }

    /// The innermost function containing `line`, if any.
    pub fn enclosing_fn(&self, line: u32) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| (f.start_line..=f.end_line).contains(&line))
            .min_by_key(|f| f.end_line - f.start_line)
    }

    /// Whether token index `idx` falls inside an attribute (`#[…]`).
    pub fn in_attr(&self, idx: usize) -> bool {
        self.attr_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&idx))
    }
}

fn build(all: Vec<Token>) -> FileScan {
    let mut suppressions: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut suppression_sites = Vec::new();
    for t in &all {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(site) = parse_suppression(t.line, &t.text) else {
            continue;
        };
        for lint in &site.lints {
            // A suppression covers its own line and the next one, so it
            // works both inline and as a standalone comment above.
            suppressions.entry(t.line).or_default().insert(lint.clone());
            suppressions
                .entry(t.line + 1)
                .or_default()
                .insert(lint.clone());
        }
        suppression_sites.push(site);
    }

    let code: Vec<Token> = all
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    FileScan {
        attr_ranges: scan_attr_ranges(&code),
        fns: scan_fns(&code),
        test_regions: scan_test_regions(&code),
        code,
        suppressions,
        suppression_sites,
    }
}

/// `funnel-lint: allow(a, b)` anywhere inside a comment, plus whether a
/// note follows the closing paren.
fn parse_suppression(line: u32, comment: &str) -> Option<SuppressionSite> {
    let idx = comment.find("funnel-lint:")?;
    let rest = &comment[idx + "funnel-lint:".len()..];
    let rest = rest.trim_start();
    let args = rest.strip_prefix("allow(")?;
    let close = args.find(')')?;
    let lints: Vec<String> = args[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    // `allow(x): why` or `allow(x) note: why` — anything non-empty after
    // the paren (modulo leading punctuation) counts as the note.
    let tail = args[close + 1..]
        .trim_start()
        .trim_start_matches([':', '-', '—'])
        .trim();
    let has_note = !tail.is_empty();
    Some(SuppressionSite {
        line,
        lints,
        has_note,
    })
}

/// Inclusive token ranges of `#[…]` / `#![…]` attributes.
fn scan_attr_ranges(code: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') {
            let open = if code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                i + 1
            } else if code.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && code.get(i + 2).is_some_and(|t| t.is_punct('['))
            {
                i + 2
            } else {
                i += 1;
                continue;
            };
            let close = matching_bracket(code, open);
            ranges.push((i, close.min(code.len().saturating_sub(1))));
            i = close + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Index of the `]` matching the `[` at `open` (or `code.len()` if
/// unbalanced — the scanner stays total on malformed input).
fn matching_bracket(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// Index of the `}` matching the `{` at `open` (or `code.len()`).
fn matching_brace(code: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// All `fn name … { … }` items. `fn` pointer types (`fn(u32) -> u32`) are
/// skipped because no identifier follows the keyword; trait method
/// declarations are skipped because `;` arrives before `{`.
fn scan_fns(code: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Find the body's opening brace, bailing at `;` (a bodyless trait
        // method). Braces cannot appear in a signature before the body.
        let mut j = i + 2;
        let mut open = None;
        while j < code.len() {
            if code[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if code[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let close = matching_brace(code, open);
        fns.push(FnSpan {
            name: name_tok.text.clone(),
            start_line: code[i].line,
            end_line: code.get(close).map_or(code[i].line, |t| t.line),
            fn_tok: i,
            body_open: open,
            body_close: close,
        });
    }
    fns
}

/// Line ranges of items marked `#[cfg(test)]` / `#[cfg(all(test, …))]` /
/// `#[test]`. The attribute marks the next braced item; a `;` first means
/// the attribute decorated a bodyless item (e.g. a `use`), which has no
/// region to record.
fn scan_test_regions(code: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        let is_outer_attr = code[i].is_punct('#') && code[i + 1].is_punct('[');
        if !is_outer_attr {
            i += 1;
            continue;
        }
        let attr_line = code[i].line;
        let end = matching_bracket(code, i + 1);
        let body = &code[i + 2..end.min(code.len())];
        let is_test_attr = match body.first() {
            Some(t) if t.is_ident("test") => true,
            Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        i = end + 1;
        if !is_test_attr {
            continue;
        }
        // Attach to the next braced item.
        let mut j = i;
        while j < code.len() {
            if code[j].is_punct('{') {
                let close = matching_brace(code, j);
                let end_line = code.get(close).map_or(code[j].line, |t| t.line);
                regions.push((attr_line, end_line));
                i = close + 1;
                break;
            }
            if code[j].is_punct(';') {
                break;
            }
            j += 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_spans() {
        let s = FileScan::of("fn a() {\n  1\n}\n\nfn b(x: u8) -> u8 {\n  x\n}\n");
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "a");
        assert_eq!((s.fns[0].start_line, s.fns[0].end_line), (1, 3));
        assert_eq!(s.fns[1].name, "b");
        assert_eq!(s.enclosing_fn(6).map(|f| f.name.as_str()), Some("b"));
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { panic!() }\n}\n";
        let s = FileScan::of(src);
        assert!(!s.in_test(1));
        assert!(s.in_test(3));
        assert!(s.in_test(5));
    }

    #[test]
    fn test_attr_fn_only_covers_that_fn() {
        let src = "#[test]\nfn t() {\n  x\n}\nfn prod() {}\n";
        let s = FileScan::of(src);
        assert!(s.in_test(2));
        assert!(s.in_test(3));
        assert!(!s.in_test(5));
    }

    #[test]
    fn suppression_comment_covers_its_line_and_the_next() {
        let src = "// funnel-lint: allow(panic-in-hot-path, journal-before-commit)\nlet x = m[&k];\nlet y = 2;\n";
        let s = FileScan::of(src);
        assert!(s.suppressed(1, "panic-in-hot-path"));
        assert!(s.suppressed(2, "panic-in-hot-path"));
        assert!(s.suppressed(2, "journal-before-commit"));
        assert!(!s.suppressed(3, "panic-in-hot-path"));
        assert!(!s.suppressed(2, "float-accumulation-order"));
    }

    #[test]
    fn attr_before_use_does_not_eat_following_block() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {\n  body\n}\n";
        let s = FileScan::of(src);
        assert!(!s.in_test(4), "regions: {:?}", s.test_regions);
    }

    #[test]
    fn fn_token_spans_cover_the_body() {
        let s = FileScan::of("fn a() { inner(1) }\n");
        let f = &s.fns[0];
        assert!(s.code[f.fn_tok].is_ident("fn"));
        assert!(s.code[f.body_open].is_punct('{'));
        assert!(s.code[f.body_close].is_punct('}'));
    }

    #[test]
    fn suppression_notes_are_detected() {
        let src = "\
// funnel-lint: allow(panic-in-hot-path): bound checked above\n\
// funnel-lint: allow(journal-before-commit)\n\
// funnel-lint: allow(float-accumulation-order) note: slice order is fixed\n";
        let s = FileScan::of(src);
        assert_eq!(s.suppression_sites.len(), 3);
        assert!(s.suppression_sites[0].has_note);
        assert!(!s.suppression_sites[1].has_note);
        assert!(s.suppression_sites[2].has_note);
        assert_eq!(s.suppression_sites[1].line, 2);
    }

    #[test]
    fn attr_ranges_cover_attribute_tokens() {
        let s = FileScan::of("#[cfg(feature = \"x\")]\nfn a() { real(1) }\n");
        let cfg_idx = s
            .code
            .iter()
            .position(|t| t.is_ident("cfg"))
            .expect("cfg token");
        let real_idx = s
            .code
            .iter()
            .position(|t| t.is_ident("real"))
            .expect("real token");
        assert!(s.in_attr(cfg_idx));
        assert!(!s.in_attr(real_idx));
    }
}
