//! Interprocedural lints over the workspace call graph (L7–L9).
//!
//! These three passes are why [`crate::graph`] exists. Each is a small
//! fixpoint (or per-node protocol check) over [`CallGraph`]:
//!
//! * **L7 `panic-reachability`** — a function *reaches a panic* if its own
//!   body has a panic source ([`FnNode::panic_sources`]) or any resolved,
//!   non-`catch_unwind` callee reaches one. The roots are the fns that
//!   carry a `// funnel-lint: root` marker ([`FnNode::is_root`]): the
//!   entry points whose panic-freedom the paper's robustness story rests
//!   on. A root that reaches a panic is flagged, with the shortest
//!   offending call chain in the message so the fix site is obvious; so is
//!   a marker that no `fn` follows, because it guards nothing.
//! * **L8 `determinism-taint`** — a function is *tainted* if it has a
//!   nondeterminism source ([`FnNode::taint_sources`]) or calls a tainted
//!   function, unless it is a sanctioned sanitizer (the `obs::Clock` choke
//!   point, or a body that pins order by sorting / BTree conversion).
//!   Tainted report/serialization sinks are flagged with the chain back to
//!   the source.
//! * **L9 `journal-before-commit`** — in any non-test function that touches
//!   the `IngestHooks` protocol and commits to the store, the WAL journal
//!   hook (`on_accepted_frame`) must appear lexically before the first
//!   commit *and* its `Result` must be checked (guarded by `if`/`match` or
//!   consumed with `?`/`.is_err()`/…), machine-checking DESIGN.md §10's
//!   "WAL ⊇ store" crash-safety invariant.
//!
//! All propagation walks nodes in index order (which is `(file, line)`
//! order) and callee lists sorted ascending, so findings are byte-stable
//! across runs and input file orderings.

use crate::graph::{CallGraph, FnNode, Resolution};
use crate::lints::Diagnostic;
use crate::scan::FileScan;
use std::collections::BTreeMap;

/// Runs L7, L8, and L9 over the graph. `scans` must cover every file the
/// graph was built from (for suppression/test filtering at finding sites).
pub fn run_graph_lints(graph: &CallGraph, scans: &[(String, FileScan)]) -> Vec<Diagnostic> {
    let by_file: BTreeMap<&str, &FileScan> = scans.iter().map(|(p, s)| (p.as_str(), s)).collect();
    let mut out = Vec::new();
    lint_panic_reachability(graph, &by_file, &mut out);
    lint_determinism_taint(graph, &by_file, &mut out);
    lint_journal_before_commit(graph, &by_file, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

/// Emit with the same test-region/suppression discipline as the per-file
/// lints, keyed on the finding line in its own file.
fn emit_at(
    out: &mut Vec<Diagnostic>,
    by_file: &BTreeMap<&str, &FileScan>,
    id: &'static str,
    file: &str,
    line: u32,
    context: &str,
    message: String,
) {
    if let Some(scan) = by_file.get(file) {
        if scan.in_test(line) || scan.suppressed(line, id) {
            return;
        }
    }
    out.push(Diagnostic {
        lint: id,
        file: file.to_string(),
        line,
        context: context.to_string(),
        message,
    });
}

/// Resolved, panic-propagating callees of node `i` (caught edges excluded),
/// sorted ascending.
fn propagating_callees(g: &CallGraph, i: usize) -> Vec<usize> {
    let mut out: Vec<usize> = g.nodes[i]
        .calls
        .iter()
        .filter(|c| !c.in_catch_unwind)
        .filter_map(|c| match c.resolution {
            Resolution::Resolved(j) => Some(j),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Backward fixpoint: `flagged[i]` starts at `seed(i)`; a node becomes
/// flagged when any of `callees(i)` is flagged (unless `barrier(i)`).
/// Deterministic: the worklist is a simple index sweep to fixpoint.
fn propagate(
    g: &CallGraph,
    seed: impl Fn(&FnNode) -> bool,
    barrier: impl Fn(&FnNode) -> bool,
    callees: impl Fn(&CallGraph, usize) -> Vec<usize>,
) -> Vec<bool> {
    let n = g.nodes.len();
    let mut flagged: Vec<bool> = (0..n).map(|i| seed(&g.nodes[i])).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if flagged[i] || barrier(&g.nodes[i]) {
                continue;
            }
            if callees(g, i).iter().any(|&j| flagged[j]) {
                flagged[i] = true;
                changed = true;
            }
        }
        if !changed {
            return flagged;
        }
    }
}

/// Shortest path (BFS, deterministic neighbor order) from `start` to any
/// node satisfying `is_target`, returned as node indices including both
/// ends. `start` itself may be the target.
fn shortest_chain(
    g: &CallGraph,
    start: usize,
    is_target: impl Fn(usize) -> bool,
    callees: impl Fn(&CallGraph, usize) -> Vec<usize>,
) -> Option<Vec<usize>> {
    if is_target(start) {
        return Some(vec![start]);
    }
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(i) = queue.pop_front() {
        for j in callees(g, i) {
            if j == start || parent.contains_key(&j) {
                continue;
            }
            parent.insert(j, i);
            if is_target(j) {
                let mut chain = vec![j];
                let mut cur = j;
                while cur != start {
                    cur = parent[&cur];
                    chain.push(cur);
                }
                chain.reverse();
                return Some(chain);
            }
            queue.push_back(j);
        }
    }
    None
}

fn chain_names(g: &CallGraph, chain: &[usize]) -> String {
    chain
        .iter()
        .map(|&i| g.nodes[i].name.as_str())
        .collect::<Vec<_>>()
        .join(" → ")
}

// ------------------------------------------------------------------- L7 --

fn lint_panic_reachability(
    g: &CallGraph,
    by_file: &BTreeMap<&str, &FileScan>,
    out: &mut Vec<Diagnostic>,
) {
    let reaches = propagate(
        g,
        |n| !n.in_test && !n.panic_sources.is_empty(),
        |n| n.in_test,
        propagating_callees,
    );
    for (i, n) in g.nodes.iter().enumerate() {
        if !n.is_root || !reaches[i] {
            continue;
        }
        let Some(chain) = shortest_chain(
            g,
            i,
            |j| !g.nodes[j].panic_sources.is_empty(),
            propagating_callees,
        ) else {
            continue;
        };
        let last = &g.nodes[*chain.last().expect("chain non-empty")];
        let src = &last.panic_sources[0];
        emit_at(
            out,
            by_file,
            "panic-reachability",
            &n.file,
            n.start_line,
            &n.name,
            format!(
                "hot-path entry `{}` can transitively panic: {} — {} at {}:{}; make the \
                 chain fallible or suppress the source with a note",
                n.name,
                chain_names(g, &chain),
                src.what,
                last.file,
                src.line
            ),
        );
    }
    for (file, scan) in by_file {
        for &line in &scan.dangling_roots {
            emit_at(
                out,
                by_file,
                "panic-reachability",
                file,
                line,
                "<file>",
                "`funnel-lint: root` is not followed by a `fn` item, so it marks no \
                 panic-reachability root; put it directly above the fn it is meant for"
                    .into(),
            );
        }
    }
}

// ------------------------------------------------------------------- L8 --

/// Whether a node is a report/serialization sink: where nondeterminism
/// becomes user-visible bytes. Every `pub` fn in a `report.rs` counts
/// (private helpers there are interior plumbing — taint through them still
/// reaches the pub surface via the fixpoint), as does anything named like
/// a renderer/serializer.
fn is_sink(n: &FnNode) -> bool {
    let stem = n
        .file
        .rsplit('/')
        .next()
        .unwrap_or("")
        .trim_end_matches(".rs");
    (stem == "report" && n.is_pub)
        || n.name.starts_with("render")
        || n.name.starts_with("serialize")
        || n.name.starts_with("write_")
        || n.name.starts_with("export")
        || n.name == "to_json"
        || n.name == "human_summary"
}

fn taint_callees(g: &CallGraph, i: usize) -> Vec<usize> {
    let mut out: Vec<usize> = g.nodes[i]
        .calls
        .iter()
        .filter_map(|c| match c.resolution {
            Resolution::Resolved(j) => Some(j),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn lint_determinism_taint(
    g: &CallGraph,
    by_file: &BTreeMap<&str, &FileScan>,
    out: &mut Vec<Diagnostic>,
) {
    let tainted = propagate(
        g,
        |n| !n.in_test && !n.sanitizer && !n.taint_sources.is_empty(),
        |n| n.in_test || n.sanitizer,
        taint_callees,
    );
    for (i, n) in g.nodes.iter().enumerate() {
        if !is_sink(n) || n.in_test || n.sanitizer || !tainted[i] {
            continue;
        }
        let Some(chain) = shortest_chain(
            g,
            i,
            |j| !g.nodes[j].taint_sources.is_empty() && !g.nodes[j].sanitizer,
            taint_callees,
        ) else {
            continue;
        };
        let last = &g.nodes[*chain.last().expect("chain non-empty")];
        let src = &last.taint_sources[0];
        emit_at(
            out,
            by_file,
            "determinism-taint",
            &n.file,
            n.start_line,
            &n.name,
            format!(
                "nondeterminism reaches sink `{}`: {} — {} at {}:{}; route through a \
                 sanitizer (obs::Clock, sort/BTree conversion) or suppress with a note",
                n.name,
                chain_names(g, &chain),
                src.what,
                last.file,
                src.line
            ),
        );
    }
}

// ------------------------------------------------------------------- L9 --

/// Tokens that may consume a journal call's `Result` right after the
/// closing paren.
const RESULT_CHECKS: [&str; 7] = [
    "is_err", "is_ok", "err", "ok", "map_err", "expect", "unwrap",
];

fn lint_journal_before_commit(
    g: &CallGraph,
    by_file: &BTreeMap<&str, &FileScan>,
    out: &mut Vec<Diagnostic>,
) {
    for n in &g.nodes {
        if n.in_test || !n.mentions_hooks {
            continue;
        }
        let commits: Vec<_> = n.calls.iter().filter(|c| c.name == "commit").collect();
        let Some(first_commit) = commits.iter().map(|c| c.tok).min() else {
            continue;
        };
        let commit_line = commits
            .iter()
            .find(|c| c.tok == first_commit)
            .map(|c| c.line)
            .unwrap_or(n.start_line);
        let journals: Vec<_> = n
            .calls
            .iter()
            .filter(|c| c.name == "on_accepted_frame")
            .collect();
        let before: Vec<_> = journals.iter().filter(|c| c.tok < first_commit).collect();
        if journals.is_empty() {
            emit_at(
                out,
                by_file,
                "journal-before-commit",
                &n.file,
                commit_line,
                &n.name,
                format!(
                    "`{}` commits to the store on an IngestHooks path without journaling \
                     (`on_accepted_frame`) first; a crash here loses the accepted frame",
                    n.name
                ),
            );
            continue;
        }
        if before.is_empty() {
            emit_at(
                out,
                by_file,
                "journal-before-commit",
                &n.file,
                commit_line,
                &n.name,
                format!(
                    "`{}` journals only *after* committing; the WAL must lexically precede \
                     the store commit so WAL ⊇ store holds at every crash point",
                    n.name
                ),
            );
            continue;
        }
        // Control-flow half: the journal call's Result must actually divert
        // the commit on error.
        let scan = by_file.get(n.file.as_str());
        let guarded = before
            .iter()
            .any(|c| scan.is_none_or(|s| journal_guarded(s, c.tok)));
        if !guarded {
            emit_at(
                out,
                by_file,
                "journal-before-commit",
                &n.file,
                commit_line,
                &n.name,
                format!(
                    "`{}` ignores the journal hook's Result before committing; check it \
                     (`?`, `if …is_err()`, `match`) so a failed WAL write blocks the commit",
                    n.name
                ),
            );
        }
    }
}

/// Whether the journal call at token `tok` has its `Result` consumed: a
/// `?` or a Result-inspecting method follows the closing paren, or the
/// call sits inside an `if`/`match`/`while` condition within the same
/// statement.
fn journal_guarded(scan: &FileScan, tok: usize) -> bool {
    let code = &scan.code;
    // Forward: find the call's `(`, skip to its `)`, look at what follows.
    let mut open = tok + 1;
    while open < code.len() && !code[open].is_punct('(') {
        open += 1;
    }
    let mut depth = 0usize;
    let mut close = open;
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
    // Backward: `if` / `match` / `while` before the call in this statement.
    let mut j = tok;
    while j > 0 {
        j -= 1;
        let t = &code[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("if") || t.is_ident("match") || t.is_ident("while") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;

    fn graph_of(files: &[(&str, &str)]) -> (CallGraph, Vec<(String, FileScan)>) {
        let scans: Vec<(String, FileScan)> = files
            .iter()
            .map(|(p, c)| (p.to_string(), FileScan::of(c)))
            .collect();
        (build(&scans), scans)
    }

    #[test]
    fn panic_reachability_walks_the_chain() {
        let (g, scans) = graph_of(&[
            (
                "crates/core/src/pipeline.rs",
                "// funnel-lint: root\npub fn assess_change() { step_one(); }\n\
                 fn step_one() { step_two(); }\n",
            ),
            (
                "crates/core/src/deep.rs",
                "pub fn step_two(v: Vec<u8>) { v.first().unwrap(); }\n",
            ),
        ]);
        let diags = run_graph_lints(&g, &scans);
        let l7: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == "panic-reachability")
            .collect();
        assert_eq!(l7.len(), 1);
        assert_eq!(l7[0].context, "assess_change");
        assert!(
            l7[0]
                .message
                .contains("assess_change → step_one → step_two"),
            "chain missing: {}",
            l7[0].message
        );
        assert!(l7[0].message.contains("crates/core/src/deep.rs"));
    }

    #[test]
    fn catch_unwind_is_a_panic_barrier() {
        let (g, scans) = graph_of(&[(
            "crates/core/src/parallel.rs",
            "// funnel-lint: root\n\
             pub fn assess_work_units() { let _ = catch_unwind(|| risky()); }\n\
             fn risky(v: Vec<u8>) { v.first().unwrap(); }\n",
        )]);
        let diags = run_graph_lints(&g, &scans);
        assert!(
            !diags.iter().any(|d| d.lint == "panic-reachability"),
            "caught call must not propagate: {diags:?}"
        );
    }

    #[test]
    fn taint_flows_to_sink_unless_sanitized() {
        let (g, scans) = graph_of(&[(
            "crates/core/src/report.rs",
            "pub fn render_report() -> String { let t = stamp(); format(t) }\n\
             fn stamp() -> u64 { let t = Instant::now(); 0 }\n\
             fn format(t: u64) -> String { String::new() }\n",
        )]);
        let diags = run_graph_lints(&g, &scans);
        let l8: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == "determinism-taint")
            .collect();
        assert_eq!(l8.len(), 1);
        assert_eq!(l8[0].context, "render_report");
        assert!(l8[0].message.contains("Instant::now()"));
    }

    #[test]
    fn sanitizer_stops_taint() {
        let (g, scans) = graph_of(&[(
            "crates/core/src/report.rs",
            "pub fn render_report() -> String { let v = gather(); String::new() }\n\
             fn gather() -> Vec<u8> { let mut v = tainted(); v.sort(); v }\n\
             fn tainted() -> Vec<u8> { let t = Instant::now(); Vec::new() }\n",
        )]);
        let diags = run_graph_lints(&g, &scans);
        assert!(
            !diags.iter().any(|d| d.lint == "determinism-taint"),
            "sorted conversion must sanitize: {diags:?}"
        );
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
            let (g, scans) = graph_of(&[("crates/sim/src/agent.rs", src)]);
            let diags = run_graph_lints(&g, &scans);
            let l9: Vec<_> = diags
                .iter()
                .filter(|d| d.lint == "journal-before-commit")
                .collect();
            match expect {
                None => assert!(l9.is_empty(), "false positive on: {src}\n{l9:?}"),
                Some(frag) => {
                    assert_eq!(l9.len(), 1, "missing finding on: {src}");
                    assert!(l9[0].message.contains(frag), "got: {}", l9[0].message);
                }
            }
        }
    }

    #[test]
    fn question_mark_guards_the_journal() {
        let (g, scans) = graph_of(&[(
            "crates/sim/src/agent.rs",
            "pub fn drive(hooks: &mut H) -> R<()> {\n\
             hooks.on_accepted_frame()?;\n  store.commit();\n  Ok(())\n}\n",
        )]);
        let diags = run_graph_lints(&g, &scans);
        assert!(
            !diags.iter().any(|d| d.lint == "journal-before-commit"),
            "`?` must count as guarded: {diags:?}"
        );
    }
}
