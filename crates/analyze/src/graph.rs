//! Workspace call graph: best-effort, deterministic, no type inference.
//!
//! The interprocedural lints (L7 panic-reachability, L8 determinism taint,
//! L9 journal-before-commit — see [`crate::taint`]) need to know *who calls
//! whom* across the workspace. This module builds that graph from nothing
//! but the token stream and [`FileScan`] structure: every `fn` item becomes
//! a node, every `name(`-shaped call site becomes an edge attempt, and
//! resolution is explicitly three-valued — **resolved** (exactly one
//! workspace candidate), **unresolved** (several workspace fns could be the
//! callee and we refuse to guess), or **external** (no workspace fn of that
//! name; `std` and shims land here). Unresolved edges are first-class: they
//! are counted in the CLI's summary line and rendered in the graph dump
//! (`??`), so a chain the resolver cannot follow is visible instead of
//! silent.
//!
//! Resolution is deliberately shallow (the whole crate's bargain — see
//! [`crate::lints`]): method calls resolve through the receiver only when
//! the receiver is literally `self` (via the enclosing `impl`/`trait`
//! owner) or when the method name is workspace-unique and not a common std
//! method; path calls resolve through the last `::` qualifier matched
//! against `impl`/`trait` owner names, module file stems, or `self`/
//! `crate`/`super`; bare calls resolve same-file → same-crate → workspace,
//! requiring uniqueness at the first level that has any candidate. Anything
//! ambiguous stays unresolved rather than picking a winner, because a wrong
//! edge would let the panic-reachability fixpoint either miss a real panic
//! or blame an innocent entry point.

use crate::scan::{FileScan, FnSpan};
use std::collections::{BTreeMap, BTreeSet};

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStyle {
    /// `helper(x)` — a free-function call.
    Bare,
    /// `Type::method(x)` / `module::helper(x)`.
    Path,
    /// `recv.method(x)` with a non-`self` receiver.
    Method,
    /// `self.method(x)`.
    SelfMethod,
}

impl CallStyle {
    /// Short label used in the graph dump.
    pub fn as_str(self) -> &'static str {
        match self {
            CallStyle::Bare => "bare",
            CallStyle::Path => "path",
            CallStyle::Method => "method",
            CallStyle::SelfMethod => "self",
        }
    }
}

/// Outcome of resolving one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one workspace fn matched: an edge to `nodes[idx]`.
    Resolved(usize),
    /// More than one workspace fn could be the callee; no edge, counted.
    Unresolved,
    /// No workspace fn of this name/shape — std, shims, closures.
    External,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Callee identifier.
    pub name: String,
    /// Last `::` path qualifier before the name, if any.
    pub qual: Option<String>,
    /// Token index of the callee identifier (for intra-fn ordering).
    pub tok: usize,
    /// Syntactic shape of the call.
    pub style: CallStyle,
    /// Whether the call sits inside a `catch_unwind(...)` argument — a
    /// panic barrier for L7.
    pub in_catch_unwind: bool,
    /// Where the edge goes, if anywhere.
    pub resolution: Resolution,
}

/// A local panic source inside one function (L7 raw material).
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// 1-based line.
    pub line: u32,
    /// What panics: `.unwrap()`, `panic!`, `idx[…]`, …
    pub what: String,
}

/// A local nondeterminism source inside one function (L8 raw material).
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// 1-based line.
    pub line: u32,
    /// What taints: `Instant::now()`, hash-iteration, …
    pub what: String,
}

/// One `fn` item in the workspace, with everything the interprocedural
/// passes need precomputed.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file, forward slashes.
    pub file: String,
    /// Function name.
    pub name: String,
    /// `impl` self-type or `trait` name owning this fn, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: u32,
    /// 1-based line of the closing brace.
    pub end_line: u32,
    /// Call sites in body order (nested fns excluded — they are their own
    /// nodes).
    pub calls: Vec<Call>,
    /// Panic sources in this body (already test-/suppression-filtered).
    pub panic_sources: Vec<PanicSource>,
    /// Nondeterminism sources in this body (already filtered).
    pub taint_sources: Vec<TaintSource>,
    /// Whether this fn is a sanctioned L8 sanitizer (the `obs::Clock`
    /// choke point, or a body that pins order via sort / BTree conversion).
    pub sanitizer: bool,
    /// Whether the body mentions `hooks` / `IngestHooks` (L9 scope).
    pub mentions_hooks: bool,
    /// Whether the fn body is entirely test code.
    pub in_test: bool,
    /// Whether the fn is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Whether the fn carries a `// funnel-lint: root` marker (L7 roots).
    pub is_root: bool,
}

impl FnNode {
    /// `file::Owner::name` / `file::name` — the node's stable identity in
    /// dumps and diagnostics.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.file, o, self.name),
            None => format!("{}::{}", self.file, self.name),
        }
    }
}

/// Aggregate resolution counts, printed in the CLI's summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of `fn` nodes.
    pub nodes: usize,
    /// Total call sites considered.
    pub calls: usize,
    /// Call sites with exactly one workspace candidate.
    pub resolved: usize,
    /// Call sites with several workspace candidates (no edge).
    pub unresolved: usize,
    /// Call sites with no workspace candidate (std, shims).
    pub external: usize,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All fn nodes, sorted by `(file, start_line)` — deterministic for any
    /// input file order because files are sorted and scans are per-file.
    pub nodes: Vec<FnNode>,
    /// Resolution counts.
    pub stats: GraphStats,
}

impl CallGraph {
    /// Resolved callee indices of `nodes[i]`, deduped, ascending.
    pub fn callees(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.nodes[i]
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

    /// Index of the node for `(file, name)` when unique (test helper).
    pub fn find(&self, file: &str, name: &str) -> Option<usize> {
        let mut hits = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.name == name);
        let first = hits.next()?;
        if hits.next().is_some() {
            return None;
        }
        Some(first.0)
    }

    /// Deterministic plain-text dump: header with stats, then one block per
    /// node with its call sites and their resolutions. Byte-identical
    /// across runs and input file orderings (everything is sorted upstream).
    pub fn dump(&self) -> String {
        let mut out = String::from("# funnel-lint call graph v1\n");
        out.push_str(&format!(
            "# nodes={} calls={} resolved={} unresolved={} external={}\n",
            self.stats.nodes,
            self.stats.calls,
            self.stats.resolved,
            self.stats.unresolved,
            self.stats.external,
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "fn {} @{}-{}{}{}\n",
                n.qualified(),
                n.start_line,
                n.end_line,
                if n.in_test { " [test]" } else { "" },
                if n.is_root { " [root]" } else { "" }
            ));
            for c in &n.calls {
                let (mark, target) = match c.resolution {
                    Resolution::Resolved(j) => ("->", self.nodes[j].qualified()),
                    Resolution::Unresolved => ("??", c.name.clone()),
                    Resolution::External => ("~~", c.name.clone()),
                };
                out.push_str(&format!(
                    "  {mark} {target} [{} L{}{}]\n",
                    c.style.as_str(),
                    c.line,
                    if c.in_catch_unwind { " caught" } else { "" }
                ));
            }
            for p in &n.panic_sources {
                out.push_str(&format!("  !! panic {} L{}\n", p.what, p.line));
            }
            for t in &n.taint_sources {
                out.push_str(&format!("  ** taint {} L{}\n", t.what, t.line));
            }
            if i + 1 < self.nodes.len() {
                // blank separator keeps blocks diffable
            }
        }
        out
    }
}

/// Common `std`/core method names that must never resolve to a workspace
/// fn through the name-unique method heuristic: a workspace fn called
/// `get` does not make every `opt.get()` in the repo call it.
const STD_METHODS: [&str; 74] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "ok",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "rev",
    "skip",
    "split",
    "starts_with",
    "take",
    "to_owned",
    "to_string",
    "trim",
    "values",
];

/// Keywords and control constructs that look like `ident (` but are not
/// calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "as", "await", "else", "fn", "for", "if", "impl", "in", "let", "loop", "match", "move",
    "return", "while",
];

/// Builds the workspace call graph from per-file scans. `files` must be
/// sorted by path (as [`crate::Workspace::collect_files`] guarantees);
/// the output is then independent of how the files were discovered.
pub fn build(files: &[(String, FileScan)]) -> CallGraph {
    // Pass 1: nodes, in (file, start_line) order.
    let mut nodes: Vec<FnNode> = Vec::new();
    for (path, scan) in files {
        for f in &scan.fns {
            nodes.push(FnNode {
                file: path.clone(),
                name: f.name.clone(),
                owner: f.owner.clone(),
                start_line: f.start_line,
                end_line: f.end_line,
                calls: Vec::new(),
                panic_sources: Vec::new(),
                taint_sources: Vec::new(),
                sanitizer: false,
                mentions_hooks: false,
                in_test: scan.in_test(f.start_line),
                is_pub: fn_is_pub(scan, f),
                is_root: f.is_root,
            });
        }
    }

    // Resolution indexes. All BTree so candidate lists are ordered.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
        if let Some(o) = &n.owner {
            by_owner_name.entry((o, &n.name)).or_default().push(i);
        }
    }
    let resolver = Resolver {
        nodes: &nodes,
        by_name,
        by_owner_name,
    };

    // Pass 2: per-fn extraction + resolution.
    let mut stats = GraphStats {
        nodes: nodes.len(),
        ..GraphStats::default()
    };
    let mut node_idx = 0usize;
    struct Extracted {
        calls: Vec<Call>,
        panics: Vec<PanicSource>,
        taints: Vec<TaintSource>,
        sanitizer: bool,
        hooks: bool,
    }
    let mut extracted: Vec<Extracted> = Vec::with_capacity(nodes.len());
    for (path, scan) in files {
        let catch_ranges = catch_unwind_ranges(scan);
        for f in &scan.fns {
            // Token ranges of *other* fns nested inside this body: their
            // calls belong to them, not to us. Closures stay ours.
            let nested: Vec<(usize, usize)> = scan
                .fns
                .iter()
                .filter(|g| g.fn_tok > f.fn_tok && g.body_close <= f.body_close)
                .map(|g| (g.fn_tok, g.body_close))
                .collect();
            let caller_owner = f.owner.as_deref();
            let mut calls = extract_calls(scan, f, &nested, &catch_ranges);
            for c in &mut calls {
                c.resolution = resolver.resolve(path, caller_owner, c);
                match c.resolution {
                    Resolution::Resolved(_) => stats.resolved += 1,
                    Resolution::Unresolved => stats.unresolved += 1,
                    Resolution::External => stats.external += 1,
                }
                stats.calls += 1;
            }
            extracted.push(Extracted {
                calls,
                panics: panic_sources(path, scan, f, &nested, &catch_ranges),
                taints: taint_sources(path, scan, f, &nested),
                sanitizer: is_sanitizer(path, scan, f),
                hooks: mentions_hooks(scan, f),
            });
        }
    }
    for e in extracted {
        let n = &mut nodes[node_idx];
        n.calls = e.calls;
        n.panic_sources = e.panics;
        n.taint_sources = e.taints;
        n.sanitizer = e.sanitizer;
        n.mentions_hooks = e.hooks;
        node_idx += 1;
    }

    CallGraph { nodes, stats }
}

struct Resolver<'a> {
    nodes: &'a [FnNode],
    by_name: BTreeMap<&'a str, Vec<usize>>,
    by_owner_name: BTreeMap<(&'a str, &'a str), Vec<usize>>,
}

impl<'a> Resolver<'a> {
    fn resolve(&self, file: &str, caller_owner: Option<&str>, c: &Call) -> Resolution {
        match c.style {
            CallStyle::SelfMethod => {
                if let Some(owner) = caller_owner {
                    if let Some(hits) = self.by_owner_name.get(&(owner, c.name.as_str())) {
                        return unique(hits);
                    }
                }
                // `self.m()` where the method comes from a trait impl or a
                // default method: fall back to the name-unique rule.
                self.resolve_method(&c.name)
            }
            CallStyle::Method => self.resolve_method(&c.name),
            CallStyle::Path => match c.qual.as_deref() {
                Some(q) if q.starts_with(char::is_uppercase) => {
                    // `Type::assoc()` — match impl/trait owner names.
                    match self.by_owner_name.get(&(q, c.name.as_str())) {
                        Some(hits) => unique(hits),
                        None => Resolution::External,
                    }
                }
                Some(q @ ("self" | "crate" | "super")) => {
                    let _ = q;
                    self.resolve_scoped(&c.name, |n| same_crate(&n.file, file))
                }
                Some(q) => {
                    // `module::helper()` — match the file stem or the crate
                    // ident (`funnel_sim` → crates/sim).
                    let hits: Vec<usize> = self
                        .candidates(&c.name)
                        .filter(|&i| {
                            let n = &self.nodes[i];
                            file_stem(&n.file) == q || crate_ident(&n.file).as_deref() == Some(q)
                        })
                        .collect();
                    scoped_outcome(&hits)
                }
                None => self.resolve_scoped(&c.name, |_| true),
            },
            CallStyle::Bare => {
                // Same file, then same crate, then workspace: the first
                // level with any candidate must be unique.
                for pred in [
                    &(|n: &FnNode| n.file == file && n.owner.is_none()) as &dyn Fn(&FnNode) -> bool,
                    &(|n: &FnNode| same_crate(&n.file, file) && n.owner.is_none()),
                    &(|n: &FnNode| n.owner.is_none()),
                ] {
                    let hits: Vec<usize> = self
                        .candidates(&c.name)
                        .filter(|&i| pred(&self.nodes[i]))
                        .collect();
                    match hits.len() {
                        0 => continue,
                        1 => return Resolution::Resolved(hits[0]),
                        _ => return Resolution::Unresolved,
                    }
                }
                Resolution::External
            }
        }
    }

    fn candidates(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        self.by_name.get(name).into_iter().flatten().copied()
    }

    /// `recv.m()` with an opaque receiver: resolve only when `m` is not a
    /// common std method and exactly one workspace *method* has that name.
    fn resolve_method(&self, name: &str) -> Resolution {
        if STD_METHODS.contains(&name) {
            return Resolution::External;
        }
        let hits: Vec<usize> = self
            .candidates(name)
            .filter(|&i| self.nodes[i].owner.is_some())
            .collect();
        scoped_outcome(&hits)
    }

    fn resolve_scoped(&self, name: &str, pred: impl Fn(&FnNode) -> bool) -> Resolution {
        let hits: Vec<usize> = self
            .candidates(name)
            .filter(|&i| pred(&self.nodes[i]))
            .collect();
        scoped_outcome(&hits)
    }
}

fn unique(hits: &[usize]) -> Resolution {
    match hits.len() {
        1 => Resolution::Resolved(hits[0]),
        0 => Resolution::External,
        _ => Resolution::Unresolved,
    }
}

fn scoped_outcome(hits: &[usize]) -> Resolution {
    match hits.len() {
        0 => Resolution::External,
        1 => Resolution::Resolved(hits[0]),
        _ => Resolution::Unresolved,
    }
}

/// `crates/sim/src/agent.rs` → `Some("funnel_sim")`; `src/lib.rs` → None.
fn crate_ident(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    parts.next().map(|dir| format!("funnel_{dir}"))
}

/// The crate-level prefix two files must share to be "same crate".
fn same_crate(a: &str, b: &str) -> bool {
    fn key(p: &str) -> String {
        let mut parts = p.split('/');
        match parts.next() {
            Some("crates") => format!("crates/{}", parts.next().unwrap_or("")),
            Some(top) => top.to_string(),
            None => String::new(),
        }
    }
    key(a) == key(b)
}

/// `crates/sim/src/collector.rs` → `collector`.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(a, b)| (a..=b).contains(&idx))
}

/// Index of the `)` matching the `(` at `open` (or `code.len()`).
fn matching_paren(code: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    code.len()
}

/// Token ranges covered by `catch_unwind(...)` arguments — panic barriers.
fn catch_unwind_ranges(scan: &FileScan) -> Vec<(usize, usize)> {
    let code = &scan.code;
    let mut out = Vec::new();
    for i in 0..code.len() {
        if code[i].is_ident("catch_unwind") && code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            out.push((i + 1, matching_paren(code, i + 1)));
        }
    }
    out
}

/// All call sites in `f`'s body, excluding nested fns and attributes.
fn extract_calls(
    scan: &FileScan,
    f: &FnSpan,
    nested: &[(usize, usize)],
    catch_ranges: &[(usize, usize)],
) -> Vec<Call> {
    let code = &scan.code;
    let mut out = Vec::new();
    let end = f.body_close.min(code.len());
    for i in (f.body_open + 1)..end {
        let t = &code[i];
        if t.kind != crate::lexer::TokenKind::Ident
            || !code.get(i + 1).is_some_and(|p| p.is_punct('('))
            || in_ranges(nested, i)
            || scan.in_attr(i)
        {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // fn items are snake_case; `Some(x)`, `Ok(x)` and struct literals
        // start uppercase and are never workspace fns.
        if !t
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        {
            continue;
        }
        let (style, qual) = classify_call(code, i);
        out.push(Call {
            line: t.line,
            name: t.text.clone(),
            qual,
            tok: i,
            style,
            in_catch_unwind: in_ranges(catch_ranges, i),
            resolution: Resolution::External, // placeholder, set by resolve
        });
    }
    out
}

/// Looks at the tokens before the callee ident to classify the call shape
/// and pull out the last path qualifier.
fn classify_call(code: &[crate::lexer::Token], i: usize) -> (CallStyle, Option<String>) {
    if i >= 1 && code[i - 1].is_punct('.') {
        if i >= 2 && code[i - 2].is_ident("self") {
            return (CallStyle::SelfMethod, None);
        }
        return (CallStyle::Method, None);
    }
    if i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':') {
        let qual = (i >= 3)
            .then(|| &code[i - 3])
            .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
            .map(|t| t.text.clone());
        return (CallStyle::Path, qual);
    }
    (CallStyle::Bare, None)
}

/// Crates whose files count slice indexing as an L7 panic source. The math
/// kernels (linalg/sst/timeseries) index in tight loops over
/// locally-constructed buffers; flagging those would drown the signal the
/// pipeline crates need (documented in DESIGN.md §7).
fn indexing_scoped(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/sim/src/")
        || path.starts_with("crates/resilience/src/")
}

/// Local panic sources in `f`'s body, filtered the same way `emit` filters
/// findings: test regions and `funnel-lint: allow(panic-reachability)`
/// suppressions drop the source itself, so a suppressed line never taints
/// callers transitively.
fn panic_sources(
    path: &str,
    scan: &FileScan,
    f: &FnSpan,
    nested: &[(usize, usize)],
    catch_ranges: &[(usize, usize)],
) -> Vec<PanicSource> {
    let code = &scan.code;
    let mut out = Vec::new();
    let end = f.body_close.min(code.len());
    let mut push = |line: u32, what: String| {
        if !scan.in_test(line) && !scan.suppressed(line, "panic-reachability") {
            out.push(PanicSource { line, what });
        }
    };
    for i in (f.body_open + 1)..end {
        if in_ranges(nested, i) || in_ranges(catch_ranges, i) || scan.in_attr(i) {
            continue;
        }
        let t = &code[i];
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            push(t.line, format!(".{}()", t.text));
        } else if matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && code.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            push(t.line, format!("{}!", t.text));
        } else if indexing_scoped(path)
            && code.get(i + 1).is_some_and(|p| p.is_punct('['))
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
        {
            push(t.line, format!("{}[…]", t.text));
        }
    }
    out
}

/// Iteration-observing method names on hash containers.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Walks a receiver chain backwards from the `.` at `dot_idx` (idents,
/// `.`, `(`, `)`, `&`, `self`) and says whether an ident of the chain is in
/// `names` — i.e. whether this method call is rooted at a hash container.
fn chain_mentions(names: &BTreeSet<String>, code: &[crate::lexer::Token], dot_idx: usize) -> bool {
    let mut j = dot_idx;
    let mut steps = 0;
    while j > 0 && steps < 16 {
        j -= 1;
        steps += 1;
        let t = &code[j];
        if t.kind == crate::lexer::TokenKind::Ident {
            if names.contains(&t.text) {
                return true;
            }
            continue;
        }
        if !(t.is_punct('.') || t.is_punct('(') || t.is_punct(')') || t.is_punct('&')) {
            return false;
        }
    }
    false
}

/// Local nondeterminism sources in `f`'s body (L8). Clock-exempt files
/// (bench, eval timing) are skipped — measuring wall time is their job.
fn taint_sources(
    path: &str,
    scan: &FileScan,
    f: &FnSpan,
    nested: &[(usize, usize)],
) -> Vec<TaintSource> {
    if path.starts_with("crates/bench/") || path == "crates/eval/src/timing.rs" {
        return Vec::new();
    }
    let code = &scan.code;
    let mut out = Vec::new();
    let end = f.body_close.min(code.len());
    let mut push = |line: u32, what: String| {
        if !scan.in_test(line) && !scan.suppressed(line, "determinism-taint") {
            out.push(TaintSource { line, what });
        }
    };
    let hash_names = crate::lints::container_bindings(scan, &["HashMap", "HashSet"]);
    for i in (f.body_open + 1)..end {
        if in_ranges(nested, i) || scan.in_attr(i) {
            continue;
        }
        let t = &code[i];
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if t.is_ident("Instant")
            && code.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && code.get(i + 3).is_some_and(|p| p.is_ident("now"))
        {
            push(t.line, "Instant::now()".into());
        } else if t.is_ident("SystemTime") {
            push(t.line, "SystemTime".into());
        } else if matches!(t.text.as_str(), "thread_rng" | "from_entropy") {
            push(t.line, format!("{}()", t.text));
        } else if t.is_ident("ThreadId")
            || (t.is_ident("thread")
                && code.get(i + 1).is_some_and(|p| p.is_punct(':'))
                && code.get(i + 3).is_some_and(|p| p.is_ident("current")))
        {
            push(t.line, "thread identity".into());
        } else if !hash_names.is_empty()
            && ITER_METHODS.iter().any(|im| t.is_ident(im))
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|p| p.is_punct('('))
            && chain_mentions(&hash_names, code, i - 1)
        {
            push(t.line, format!("hash-iteration .{}()", t.text));
        }
    }
    out
}

/// Whether `f` is a sanctioned L8 sanitizer: the `obs::Clock` choke point
/// (where wall time enters, its read carrying clippy's
/// `#[expect(clippy::disallowed_methods, reason = …)]`), or a body that
/// pins ordering by sorting or converting through a BTree collection
/// before anything escapes.
fn is_sanitizer(path: &str, scan: &FileScan, f: &FnSpan) -> bool {
    if path == "crates/obs/src/clock.rs" {
        return true;
    }
    let code = &scan.code;
    let end = f.body_close.min(code.len());
    code[(f.body_open + 1).min(end)..end].iter().any(|t| {
        t.kind == crate::lexer::TokenKind::Ident
            && (t.text.starts_with("sort") || t.text == "BTreeMap" || t.text == "BTreeSet")
    })
}

/// Whether a visibility qualifier precedes the `fn` keyword: `pub fn`,
/// `pub(crate) fn`, `pub(in …) fn`. Qualifier keywords like `const`,
/// `async`, `unsafe`, and `extern "C"` may sit between.
fn fn_is_pub(scan: &FileScan, f: &FnSpan) -> bool {
    let code = &scan.code;
    let mut j = f.fn_tok;
    let mut steps = 0;
    while j > 0 && steps < 10 {
        j -= 1;
        steps += 1;
        let t = &code[j];
        if t.is_ident("pub") {
            return true;
        }
        if !crate::scan::is_fn_qualifier(t) {
            return false;
        }
    }
    false
}

/// Whether `f`'s signature or body mentions the ingest-hooks protocol.
fn mentions_hooks(scan: &FileScan, f: &FnSpan) -> bool {
    let code = &scan.code;
    let end = f.body_close.min(code.len());
    code[f.fn_tok..end]
        .iter()
        .any(|t| t.is_ident("hooks") || t.is_ident("IngestHooks") || t.is_ident("DurableHooks"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_files(files: &[(&str, &str)]) -> Vec<(String, FileScan)> {
        files
            .iter()
            .map(|(p, c)| (p.to_string(), FileScan::of(c)))
            .collect()
    }

    #[test]
    fn bare_call_resolves_same_file_first() {
        let g = build(&scan_files(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn top() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]));
        let top = g.find("crates/a/src/lib.rs", "top").unwrap();
        let callees = g.callees(top);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.nodes[callees[0]].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn ambiguous_bare_call_is_unresolved() {
        let g = build(&scan_files(&[
            ("crates/a/src/lib.rs", "fn top() { helper(); }\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
            ("crates/c/src/lib.rs", "fn helper() {}\n"),
        ]));
        assert_eq!(g.stats.unresolved, 1);
        assert_eq!(g.stats.resolved, 0);
    }

    #[test]
    fn self_method_resolves_through_owner() {
        let src = "struct S;\nimpl S {\n fn a(&self) { self.b(); }\n fn b(&self) {}\n}\n\
                   struct T;\nimpl T {\n fn b(&self) {}\n}\n";
        let g = build(&scan_files(&[("crates/a/src/lib.rs", src)]));
        let a = g.find("crates/a/src/lib.rs", "a").unwrap();
        let callees = g.callees(a);
        assert_eq!(callees.len(), 1);
        assert_eq!(g.nodes[callees[0]].owner.as_deref(), Some("S"));
    }

    #[test]
    fn path_call_resolves_through_type_and_module() {
        let files = scan_files(&[
            (
                "crates/a/src/widget.rs",
                "pub struct W;\nimpl W {\n pub fn create() -> W { W }\n}\npub fn free_helper() {}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "fn top() { let w = W::create(); widget::free_helper(); }\n",
            ),
        ]);
        let g = build(&files);
        let top = g.find("crates/b/src/lib.rs", "top").unwrap();
        assert_eq!(g.callees(top).len(), 2);
    }

    #[test]
    fn std_methods_stay_external() {
        let g = build(&scan_files(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n fn get(&self) {}\n}\nfn top(v: Vec<u8>) { v.get(0); }\n",
        )]));
        assert_eq!(g.stats.external, 1);
        assert_eq!(g.stats.resolved, 0);
    }

    #[test]
    fn uppercase_and_keywords_are_not_calls() {
        let g = build(&scan_files(&[(
            "crates/a/src/lib.rs",
            "fn top(x: Option<u8>) -> Option<u8> {\n if (true) {}\n match (x) { Some(v) => Some(v), _ => None }\n}\n",
        )]));
        assert_eq!(g.stats.calls, 0);
    }

    #[test]
    fn panic_sources_respect_tests_suppressions_and_catch_unwind() {
        let src = "\
fn prod(v: Vec<u8>) {\n\
  v.first().unwrap();\n\
  // funnel-lint: allow(panic-reachability): length checked by caller\n\
  v.first().expect(\"x\");\n\
  let _ = catch_unwind(|| v.first().unwrap());\n\
}\n\
#[cfg(test)]\nmod tests {\n fn t(v: Vec<u8>) { v.first().unwrap(); }\n}\n";
        let g = build(&scan_files(&[("crates/core/src/x.rs", src)]));
        let prod = g.find("crates/core/src/x.rs", "prod").unwrap();
        assert_eq!(g.nodes[prod].panic_sources.len(), 1);
        assert_eq!(g.nodes[prod].panic_sources[0].what, ".unwrap()");
        let t = g.find("crates/core/src/x.rs", "t").unwrap();
        assert!(g.nodes[t].panic_sources.is_empty());
    }

    #[test]
    fn indexing_counts_only_in_pipeline_crates() {
        let core = "fn f(m: Vec<u8>, i: usize) { let _ = m[i]; }\n";
        let g = build(&scan_files(&[
            ("crates/core/src/x.rs", core),
            ("crates/timeseries/src/y.rs", core),
        ]));
        let cx = g.find("crates/core/src/x.rs", "f").unwrap();
        let ty = g.find("crates/timeseries/src/y.rs", "f").unwrap();
        assert_eq!(g.nodes[cx].panic_sources.len(), 1);
        assert!(g.nodes[ty].panic_sources.is_empty());
    }

    #[test]
    fn taint_sources_and_sanitizers() {
        let src = "\
fn raw() -> u64 { let t = Instant::now(); 0 }\n\
fn sorted(mut v: Vec<u8>) -> Vec<u8> { v.sort(); v }\n";
        let g = build(&scan_files(&[("crates/core/src/x.rs", src)]));
        let raw = g.find("crates/core/src/x.rs", "raw").unwrap();
        let sorted = g.find("crates/core/src/x.rs", "sorted").unwrap();
        assert_eq!(g.nodes[raw].taint_sources.len(), 1);
        assert!(!g.nodes[raw].sanitizer);
        assert!(g.nodes[sorted].sanitizer);
    }

    #[test]
    fn dump_is_stable_across_input_order() {
        let a = (
            "crates/a/src/lib.rs".to_string(),
            "fn one() { two(); }\n".to_string(),
        );
        let b = (
            "crates/b/src/lib.rs".to_string(),
            "fn two() {}\n".to_string(),
        );
        let mk = |files: &[(String, String)]| {
            let mut sorted: Vec<(String, FileScan)> = files
                .iter()
                .map(|(p, c)| (p.clone(), FileScan::of(c)))
                .collect();
            sorted.sort_by(|x, y| x.0.cmp(&y.0));
            build(&sorted).dump()
        };
        assert_eq!(mk(&[a.clone(), b.clone()]), mk(&[b, a]));
    }
}
