//! The lint registry and the two per-file FUNNEL domain lints.
//!
//! What the compiler can say, the compiler holds (DESIGN.md §7): the
//! workspace denies `unsafe_code` and `iter_over_hash_type`, `clippy.toml`
//! bans the wall clock, thread identity and the hashed collections, and
//! every crate root's `#![deny(clippy::unwrap_used, …)]` line bans the
//! panicking calls (with `clippy::indexing_slicing` on the core, sim and
//! resilience roots). The rules here are the two it cannot say: map
//! indexing on the hot path, and the journal before the store commit. The
//! passes are deliberately shallow — token patterns plus the [`FileScan`]
//! structure — and take no exemption: a false positive is rewritten, not
//! silenced.

use crate::scan::{FileScan, FnSpan};
use std::collections::BTreeSet;

/// The lint ids: L3 (`m[&k]` on the hot path panics on a missing key,
/// and clippy's `indexing_slicing` does not see it) and L9 (the WAL journal
/// before the store commit). L1 (wall clock) and L2 (hashed collections)
/// are `clippy.toml`'s, and L3's panicking calls are the crate roots'
/// `deny` line's. L4 (`unsafe_code`) and L5 (folds in hasher order,
/// `iter_over_hash_type`) are workspace lints. L6's unwrapped filesystem
/// results and L7's panic sources are the `deny` line's, and L8's
/// nondeterminism sources `clippy.toml`'s. There is no L10: the obs
/// vocabulary is closed by the type `funnel_obs::names::Name`. There is no
/// L11 either: with no inline suppression, no note needs policing.
pub const REGISTRY: [&str; 2] = ["panic-in-hot-path", "journal-before-commit"];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired (an id from [`REGISTRY`]).
    pub lint: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Enclosing function name (or `<file>`).
    pub context: String,
    /// Human-readable explanation.
    pub message: String,
}

// ---------------------------------------------------------------- scopes --

/// The ingestion-to-verdict hot path (L3 scope): four crates whole, the
/// one fan-out (`funnel-obs`), and the agent replay loop, wire decoding,
/// the collector and the store of `funnel-sim`.
pub const HOT_PATH: [&str; 9] = [
    "crates/core/src/",
    "crates/did/src/",
    "crates/detect/src/",
    "crates/resilience/src/",
    "crates/obs/src/parallel.rs",
    "crates/sim/src/agent.rs",
    "crates/sim/src/wire.rs",
    "crates/sim/src/collector.rs",
    "crates/sim/src/store.rs",
];

// ------------------------------------------------------------ the passes --

/// Runs every lint on one file. `path` is workspace-relative with forward
/// slashes; it drives the per-lint scoping above.
pub fn run_lints(path: &str, scan: &FileScan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_map_index(path, scan, &mut out);
    lint_journal_before_commit(path, scan, &mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Shared emit helper: test code may do what product code may not.
fn emit(
    out: &mut Vec<Diagnostic>,
    scan: &FileScan,
    id: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    if scan.in_test(line) {
        return;
    }
    out.push(Diagnostic {
        lint: id,
        file: path.to_string(),
        line,
        context: scan
            .enclosing_fn(line)
            .map_or_else(|| "<file>".to_string(), |f| f.name.clone()),
        message,
    });
}

/// Names in this file bound to a type mentioning `BTreeMap` or `HashMap`
/// (let bindings, struct fields, fn params — found by walking back from
/// each type-name token to the nearest `name:` or `name =` in the same
/// statement). Heuristic by design: shadowing across scopes is not
/// tracked.
fn map_bindings(scan: &FileScan) -> BTreeSet<String> {
    let code = &scan.code;
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].is_ident("BTreeMap") || code[i].is_ident("HashMap")) {
            continue;
        }
        // Walk back to the statement boundary looking for `ident :` (not
        // `::`) or `ident =` / `ident = SomePath::new()`.
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &code[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            let next_colon = code[j + 1].is_punct(':');
            let part_of_path = j + 2 < code.len() && code[j + 2].is_punct(':');
            let next_eq =
                code[j + 1].is_punct('=') && !code.get(j + 2).is_some_and(|t| t.is_punct('='));
            if t.kind == crate::lexer::TokenKind::Ident
                && !matches!(t.text.as_str(), "let" | "mut" | "pub" | "ref")
                && ((next_colon && !part_of_path) || next_eq)
            {
                names.insert(t.text.clone());
                break;
            }
        }
    }
    names
}

/// L3: indexing a map binding on the ingestion-to-verdict path. `m[&k]`
/// panics on a missing key; one poisoned frame must degrade coverage, not
/// kill the collector thread.
fn lint_map_index(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !HOT_PATH.iter().any(|p| path.starts_with(p)) {
        return;
    }
    let map_names = map_bindings(scan);
    let code = &scan.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind == crate::lexer::TokenKind::Ident
            && map_names.contains(&t.text)
            && code.get(i + 1).is_some_and(|p| p.is_punct('['))
        {
            emit(
                out,
                scan,
                "panic-in-hot-path",
                path,
                t.line,
                format!("`{}[…]` panics on a missing key; use `.get()`", t.text),
            );
        }
    }
}

/// Tokens that may consume a journal call's `Result` right after the
/// closing paren.
const RESULT_CHECKS: [&str; 7] = [
    "is_err", "is_ok", "err", "ok", "map_err", "expect", "unwrap",
];

/// L9: in a fn that touches the ingest-hooks protocol and commits to the
/// store, the WAL journal hook (`on_accepted_frame`) must be called before
/// the first `commit` and its `Result` checked (`?`, a Result method, or an
/// `if`/`match`/`while` condition), so that WAL ⊇ store holds at every
/// crash point (DESIGN.md §10).
fn lint_journal_before_commit(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for f in &scan.fns {
        if !mentions_hooks(scan, f) {
            continue;
        }
        let Some(&commit) = calls_in(scan, f, "commit").first() else {
            continue;
        };
        let journals = calls_in(scan, f, "on_accepted_frame");
        let before: Vec<usize> = journals.iter().copied().filter(|&j| j < commit).collect();
        let problem = if journals.is_empty() {
            "commits to the store on an IngestHooks path without journaling \
             (`on_accepted_frame`) first; a crash here loses the accepted frame"
        } else if before.is_empty() {
            "journals only *after* committing; the WAL must lexically precede the store \
             commit so WAL ⊇ store holds at every crash point"
        } else if !before.iter().any(|&j| journal_guarded(scan, j)) {
            "ignores the journal hook's Result before committing; check it (`?`, \
             `if …is_err()`, `match`) so a failed WAL write blocks the commit"
        } else {
            continue;
        };
        emit(
            out,
            scan,
            "journal-before-commit",
            path,
            scan.code[commit].line,
            format!("`{}` {problem}", f.name),
        );
    }
}

/// Whether `f`'s signature or body mentions the ingest-hooks protocol.
fn mentions_hooks(scan: &FileScan, f: &FnSpan) -> bool {
    scan.code[f.fn_tok..f.body_close]
        .iter()
        .any(|t| t.is_ident("hooks") || t.is_ident("IngestHooks") || t.is_ident("DurableHooks"))
}

/// Token indices of the `name(…)` calls in `f`'s body, in order: fns
/// nested in the body are their own, and attributes are not calls.
fn calls_in(scan: &FileScan, f: &FnSpan, name: &str) -> Vec<usize> {
    let nested: Vec<(usize, usize)> = scan
        .fns
        .iter()
        .filter(|g| g.fn_tok > f.fn_tok && g.body_close <= f.body_close)
        .map(|g| (g.fn_tok, g.body_close))
        .collect();
    (f.body_open + 1..f.body_close)
        .filter(|&i| {
            scan.code[i].is_ident(name)
                && scan.code.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !nested.iter().any(|&(a, b)| (a..=b).contains(&i))
                && !scan.in_attr(i)
        })
        .collect()
}

/// Whether the journal call at token `tok` has its `Result` consumed: a
/// `?` or a Result-inspecting method follows the closing paren, or the
/// call sits inside an `if`/`match`/`while` condition within the same
/// statement.
fn journal_guarded(scan: &FileScan, tok: usize) -> bool {
    let code = &scan.code;
    let mut depth = 0usize;
    let mut close = tok + 1;
    while close < code.len() {
        if code[close].is_punct('(') {
            depth += 1;
        } else if code[close].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        close += 1;
    }
    if code.get(close + 1).is_some_and(|t| t.is_punct('?')) {
        return true;
    }
    if code.get(close + 1).is_some_and(|t| t.is_punct('.'))
        && code
            .get(close + 2)
            .is_some_and(|t| RESULT_CHECKS.iter().any(|m| t.is_ident(m)))
    {
        return true;
    }
    code[..tok]
        .iter()
        .rev()
        .take_while(|t| !(t.is_punct(';') || t.is_punct('{') || t.is_punct('}')))
        .any(|t| t.is_ident("if") || t.is_ident("match") || t.is_ident("while"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_findings(src: &str) -> Vec<Diagnostic> {
        run_lints("crates/sim/src/agent.rs", &FileScan::of(src))
            .into_iter()
            .filter(|d| d.lint == "journal-before-commit")
            .collect()
    }

    #[test]
    fn journal_before_commit_protocol() {
        let good = "pub fn drive(hooks: &mut H) {\n\
                    if hooks.on_accepted_frame().is_err() { return; }\n\
                    store.commit();\n}\n";
        let missing = "pub fn drive(hooks: &mut H) {\n  store.commit();\n}\n";
        let after = "pub fn drive(hooks: &mut H) {\n  store.commit();\n\
                     if hooks.on_accepted_frame().is_err() { return; }\n}\n";
        let unchecked = "pub fn drive(hooks: &mut H) {\n  hooks.on_accepted_frame();\n\
                         store.commit();\n}\n";
        for (src, expect) in [
            (good, None),
            (missing, Some("without journaling")),
            (after, Some("only *after*")),
            (unchecked, Some("ignores the journal")),
        ] {
            let l9 = journal_findings(src);
            match expect {
                None => assert!(l9.is_empty(), "false positive on: {src}\n{l9:?}"),
                Some(frag) => {
                    assert_eq!(l9.len(), 1, "missing finding on: {src}");
                    assert!(l9[0].message.contains(frag), "got: {}", l9[0].message);
                    assert_eq!(l9[0].context, "drive");
                }
            }
        }
    }

    #[test]
    fn question_mark_guards_the_journal() {
        let l9 = journal_findings(
            "pub fn drive(hooks: &mut H) -> R<()> {\n\
             hooks.on_accepted_frame()?;\n  store.commit();\n  Ok(())\n}\n",
        );
        assert!(l9.is_empty(), "`?` must count as guarded: {l9:?}");
    }

    #[test]
    fn a_nested_fn_keeps_its_own_calls() {
        // The outer fn journals and commits in order; the commit inside the
        // nested fn is the nested fn's, and it never mentions the hooks.
        let l9 = journal_findings(
            "pub fn drive(hooks: &mut H) -> R<()> {\n\
             fn flush(store: &mut S) { store.commit(); }\n\
             hooks.on_accepted_frame()?;\n  store.commit();\n  Ok(())\n}\n",
        );
        assert!(
            l9.is_empty(),
            "nested fn calls are not the outer fn's: {l9:?}"
        );
    }
}
