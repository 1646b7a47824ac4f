//! The lint registry and the per-file FUNNEL domain lints.
//!
//! What clippy can say, clippy holds (DESIGN.md §7): `clippy.toml` bans the
//! wall clock and the hashed collections, and the hot path's
//! `#![deny(clippy::unwrap_used, …)]` line bans the panicking calls. The
//! per-file rules here are the ones it cannot say: map indexing on the hot
//! path, `#![forbid(unsafe_code)]` on every crate root, float fold order,
//! unwrapped filesystem I/O, and notes on suppressions. The passes are
//! deliberately shallow — token patterns plus the [`FileScan`] structure —
//! so `funnel-lint` runs wherever the workspace builds. Shallow means
//! heuristic: false positives are expected and handled by inline
//! `// funnel-lint: allow(<lint>)` suppressions, never by weakening
//! the pass.

use crate::scan::FileScan;
use std::collections::BTreeSet;

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable kebab-case identifier (used in suppressions).
    pub id: &'static str,
    /// One-line description for `--help` and reports.
    pub description: &'static str,
}

/// L3–L9 and L11, in order. L1 (wall clock) and L2 (hashed collections) are
/// `clippy.toml`'s, and L3's panicking calls are the hot-path `deny` line's;
/// there is no L10: the obs vocabulary is closed by the type
/// `funnel_obs::names::Name`, not by a lint.
pub const REGISTRY: [LintInfo; 8] = [
    LintInfo {
        id: "panic-in-hot-path",
        description: "indexing a map (`m[&k]`) on the ingestion-to-verdict path panics on a \
                      missing key, and clippy's indexing_slicing does not see it; use .get()",
    },
    LintInfo {
        id: "missing-forbid-unsafe",
        description: "every non-shim crate root must carry #![forbid(unsafe_code)]",
    },
    LintInfo {
        id: "float-accumulation-order",
        description: "f64 sums over containers must fold in a documented stable order \
                      (sort first, or suppress with a note explaining why order is fixed)",
    },
    LintInfo {
        id: "fs-io-unwrap",
        description: "unwrap()/expect() on a filesystem I/O result turns a full disk, missing \
                      path, or permission error into a crash; propagate the io::Error with `?`",
    },
    LintInfo {
        id: "panic-reachability",
        description: "a fn marked `// funnel-lint: root` can transitively reach unwrap()/\
                      expect()/panic!/indexing through the call graph; make the chain fallible \
                      or suppress the source with a note (a marker no fn follows is a finding too)",
    },
    LintInfo {
        id: "determinism-taint",
        description: "a nondeterminism source (clock, hash iteration, thread identity, \
                      unseeded RNG) flows along call edges into a report/serialization sink \
                      without passing a sanctioned sanitizer",
    },
    LintInfo {
        id: "journal-before-commit",
        description: "in collector ingest paths the WAL journal hook must run — and be error-\
                      checked — before the store commit, or a crash loses accepted frames",
    },
    LintInfo {
        id: "suppression-missing-note",
        description: "every inline `funnel-lint: allow(...)` must carry a note explaining why \
                      the finding is safe to silence",
    },
];

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

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The ingestion-to-verdict hot path (L3 scope): four crates whole, the
/// one fan-out (`funnel-obs`), and the agent replay loop, wire decoding,
/// the collector and the store of `funnel-sim`. The same nine places carry
/// the `#![deny(clippy::unwrap_used, …)]` line (a crate's `lib.rs`, or the
/// file).
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

/// Aggregation code where float fold order shapes results (L5 scope).
fn aggregation_code(path: &str) -> bool {
    in_any(
        path,
        &[
            "crates/core/src/",
            "crates/did/src/",
            "crates/detect/src/",
            "crates/sst/src/",
            "crates/timeseries/src/",
            "crates/sim/src/",
        ],
    )
}

/// Whether `path` is a crate root that must carry `#![forbid(unsafe_code)]`
/// (L4 scope). Shim crates are excluded at the workspace-walk level.
pub fn is_guarded_crate_root(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.starts_with("crates/")
            && (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs")))
}

// ------------------------------------------------------------ the passes --

/// Runs every lint on one file. `path` is workspace-relative with forward
/// slashes; it drives the per-lint scoping above.
pub fn run_lints(path: &str, scan: &FileScan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_map_index(path, scan, &mut out);
    lint_missing_forbid_unsafe(path, scan, &mut out);
    lint_float_accumulation_order(path, scan, &mut out);
    lint_fs_io_unwrap(path, scan, &mut out);
    lint_suppression_note(path, scan, &mut out);
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

/// Shared emit helper: applies test-region and suppression filtering.
fn emit(
    out: &mut Vec<Diagnostic>,
    scan: &FileScan,
    id: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    if scan.in_test(line) || scan.suppressed(line, id) {
        return;
    }
    out.push(Diagnostic {
        lint: id,
        file: path.to_string(),
        line,
        context: context_of(scan, line),
        message,
    });
}

/// The name of the fn enclosing `line`, or `<file>`.
fn context_of(scan: &FileScan, line: u32) -> String {
    scan.enclosing_fn(line)
        .map_or_else(|| "<file>".to_string(), |f| f.name.clone())
}

/// Names in this file bound to types mentioning any of `type_names`
/// (let bindings, struct fields, fn params — found by walking back from
/// each type-name token to the nearest `name:` or `name =` in the same
/// statement). Heuristic by design: shadowing across scopes is not
/// tracked, which is exactly what suppressions absorb.
pub(crate) fn container_bindings(scan: &FileScan, type_names: &[&str]) -> BTreeSet<String> {
    let code = &scan.code;
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        if !type_names.iter().any(|n| code[i].is_ident(n)) {
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
    if !in_any(path, &HOT_PATH) {
        return;
    }
    let map_names = container_bindings(scan, &["HashMap", "BTreeMap"]);
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

/// L4: every guarded crate root must carry `#![forbid(unsafe_code)]`.
fn lint_missing_forbid_unsafe(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !is_guarded_crate_root(path) || scan.has_forbid_unsafe {
        return;
    }
    emit(
        out,
        scan,
        "missing-forbid-unsafe",
        path,
        1,
        "crate root lacks #![forbid(unsafe_code)]".into(),
    );
}

/// L5: `.sum::<f64>()` (and `+=` folds over hash containers) in
/// aggregation code, unless the enclosing function sorts first. f64
/// addition is not associative, so fold order is part of the result.
fn lint_float_accumulation_order(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    if !aggregation_code(path) {
        return;
    }
    let code = &scan.code;
    let hash_names = container_bindings(scan, &["HashMap", "HashSet"]);
    for i in 0..code.len() {
        let t = &code[i];
        // `.sum::<f64>()`
        let is_f64_sum = t.is_ident("sum")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && code.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && code.get(i + 3).is_some_and(|p| p.is_punct('<'))
            && code.get(i + 4).is_some_and(|p| p.is_ident("f64"));
        if is_f64_sum && !sorted_earlier_in_fn(scan, i) {
            emit(
                out,
                scan,
                "float-accumulation-order",
                path,
                t.line,
                "f64 sum over a container with no preceding sort in this fn; fold order must \
                 be stable (sort first, or suppress with a note on why the order is fixed)"
                    .into(),
            );
        }
        // `acc += v` inside `for … in <hash container>`.
        if t.is_ident("for") {
            let Some((name_idx, body_open)) = for_over(&hash_names, code, i) else {
                continue;
            };
            let body_close = {
                let mut depth = 0usize;
                let mut k = body_open;
                loop {
                    if k >= code.len() {
                        break k;
                    }
                    if code[k].is_punct('{') {
                        depth += 1;
                    } else if code[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break k;
                        }
                    }
                    k += 1;
                }
            };
            for k in body_open..body_close.min(code.len()) {
                if code[k].is_punct('+')
                    && code.get(k + 1).is_some_and(|p| p.is_punct('='))
                    && code[k].line == code[k + 1].line
                {
                    emit(
                        out,
                        scan,
                        "float-accumulation-order",
                        path,
                        code[k].line,
                        format!(
                            "`+=` fold inside `for … in {}` accumulates in hasher order",
                            code[name_idx].text
                        ),
                    );
                }
            }
        }
    }
}

/// Filesystem API names that root an I/O call chain (L6 scope).
/// Deliberately tight: bare `write`, `open`, and `create` are too generic
/// to key on, but `fs::…`, `File`, and `OpenOptions` cover the std entry
/// points those generics reach the disk through.
const FS_NAMES: [&str; 17] = [
    "fs",
    "File",
    "OpenOptions",
    "read_to_string",
    "read_dir",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "canonicalize",
    "metadata",
    "symlink_metadata",
    "set_len",
    "sync_all",
    "sync_data",
];

/// L6: `.unwrap()` / `.expect()` directly on a filesystem I/O result,
/// anywhere outside tests. Crash recovery (DESIGN.md §10) leans on every
/// durable-state path returning `io::Error` instead of panicking: a full
/// disk or a torn file must surface as a degraded verdict, not a crash.
fn lint_fs_io_unwrap(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    let code = &scan.code;
    for i in 0..code.len() {
        let t = &code[i];
        if !(t.is_ident("unwrap") || t.is_ident("expect"))
            || i == 0
            || !code[i - 1].is_punct('.')
            || !code.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            continue;
        }
        if let Some(name) = fs_chain_root(code, i - 1) {
            emit(
                out,
                scan,
                "fs-io-unwrap",
                path,
                t.line,
                format!(
                    "`.{}()` on a `{name}` filesystem result panics on I/O failure (full \
                     disk, missing path, permissions); propagate the io::Error with `?`",
                    t.text
                ),
            );
        }
    }
}

/// L11: every inline suppression must say *why*. A bare
/// `// funnel-lint: allow(x)` silences a lint with no reviewable
/// justification; `// funnel-lint: allow(x): reason` leaves one. This pass
/// deliberately ignores the suppression machinery itself (no
/// self-suppressing `allow(suppression-missing-note)` loophole) — only the
/// test-region filter applies.
fn lint_suppression_note(path: &str, scan: &FileScan, out: &mut Vec<Diagnostic>) {
    for site in &scan.suppression_sites {
        if site.has_note || scan.in_test(site.line) {
            continue;
        }
        out.push(Diagnostic {
            lint: "suppression-missing-note",
            file: path.to_string(),
            line: site.line,
            context: context_of(scan, site.line),
            message: format!(
                "`funnel-lint: allow({})` has no note; append `: <why this is safe>`",
                site.lints.join(", ")
            ),
        });
    }
}

/// Walks the expression backwards from the `.` at `dot_idx` until a
/// statement boundary (`;`, `{`, `}`, `=`) and returns the first ident in
/// [`FS_NAMES`] — i.e. whether this `.unwrap()`/`.expect()` consumes a
/// filesystem call's result. Bounded and shallow like every other pass;
/// false positives go to inline suppressions.
fn fs_chain_root(code: &[crate::lexer::Token], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx;
    let mut steps = 0;
    while j > 0 && steps < 40 {
        j -= 1;
        steps += 1;
        let t = &code[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=') {
            return None;
        }
        if t.kind == crate::lexer::TokenKind::Ident && FS_NAMES.contains(&t.text.as_str()) {
            return Some(t.text.clone());
        }
    }
    None
}

/// If the `for` at `for_idx` iterates one of `names`, returns the iterated
/// name's index and the body's `{` index.
fn for_over(
    names: &BTreeSet<String>,
    code: &[crate::lexer::Token],
    for_idx: usize,
) -> Option<(usize, usize)> {
    let mut j = for_idx + 1;
    // Find `in` within the pattern (bounded; patterns are short).
    let mut in_idx = None;
    while j < code.len().min(for_idx + 16) {
        if code[j].is_ident("in") {
            in_idx = Some(j);
            break;
        }
        if code[j].is_punct('{') {
            return None;
        }
        j += 1;
    }
    let mut j = in_idx? + 1;
    while j < code.len() && (code[j].is_punct('&') || code[j].is_ident("mut")) {
        j += 1;
    }
    let name_idx = j;
    if code.get(j).is_none_or(|t| !names.contains(&t.text)) {
        return None;
    }
    // The iterated expression must be the bare name; a method chain over
    // it is not followed.
    j += 1;
    if code.get(j).is_some_and(|t| t.is_punct('{')) {
        return Some((name_idx, j));
    }
    None
}

/// Whether any `.sort…(` call appears earlier in the function enclosing
/// token `idx` — the evidence that the fold order was pinned.
fn sorted_earlier_in_fn(scan: &FileScan, idx: usize) -> bool {
    let line = scan.code[idx].line;
    let Some(f) = scan.enclosing_fn(line) else {
        return false;
    };
    scan.code
        .iter()
        .take(idx)
        .filter(|t| (f.start_line..=f.end_line).contains(&t.line))
        .any(|t| t.kind == crate::lexer::TokenKind::Ident && t.text.starts_with("sort"))
}
