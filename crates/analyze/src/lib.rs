//! `funnel-lint`: workspace-native static analysis for FUNNEL.
//!
//! PR 1 made verdicts bit-for-bit replayable under injected faults; this
//! crate makes the invariants behind that claim mechanical instead of
//! tribal. Six lints cover the ways the pipeline could silently drift or
//! die — wall-clock reads, hasher-ordered iteration, panics on the
//! ingestion path, missing `#![forbid(unsafe_code)]`, order-sensitive f64
//! folds, and unwrapped filesystem I/O on the crash-recovery paths — with
//! a checked-in baseline that grandfathers pre-existing
//! findings and may only shrink. Everything is hand-rolled over a small
//! Rust lexer: no `syn`, no rustc plugin, no registry access required.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod scan;
pub mod taint;

use lints::{Diagnostic, Severity};
use scan::FileScan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A workspace to analyze: a root directory plus content overlays.
///
/// Overlays replace (or add) a file's contents without touching disk —
/// integration tests use them to prove that an injected violation trips
/// the gate against the *real* checked-in workspace and baseline.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Filesystem root (the directory holding the top-level `Cargo.toml`).
    pub root: PathBuf,
    /// Relative path (forward slashes) → replacement contents.
    pub overlays: BTreeMap<String, String>,
}

impl Workspace {
    /// A workspace rooted at `root` with no overlays.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            overlays: BTreeMap::new(),
        }
    }

    /// Adds or replaces a file's contents for this analysis only.
    pub fn overlay(mut self, rel_path: &str, contents: &str) -> Self {
        self.overlays.insert(rel_path.into(), contents.into());
        self
    }

    /// Collects every analyzable `.rs` file: `(relative path, contents)`
    /// in sorted order. Skips vendored shims, build output, and whole-file
    /// test/bench/example-fixture trees (in-source `#[cfg(test)]` modules
    /// are handled by the scanner instead).
    pub fn collect_files(&self) -> std::io::Result<Vec<(String, String)>> {
        let mut files: BTreeMap<String, String> = BTreeMap::new();
        for top in ["src", "crates", "examples"] {
            let dir = self.root.join(top);
            if dir.is_dir() {
                walk(&self.root, &dir, &mut files)?;
            }
        }
        for (rel, contents) in &self.overlays {
            files.insert(rel.clone(), contents.clone());
        }
        Ok(files.into_iter().collect())
    }
}

/// Directories never descended into: build output, vendored shims, and
/// whole-file test/bench/fixture trees (in-source `#[cfg(test)]` modules
/// are scoped by the scanner, not skipped).
const SKIP_DIRS: [&str; 5] = ["target", "tests", "benches", "fixtures", "shims"];

/// Whether a workspace-relative path is in scope for analysis at all.
fn analyzable(rel: &str) -> bool {
    rel.ends_with(".rs") && !rel.split('/').any(|seg| SKIP_DIRS.contains(&seg))
}

fn walk(root: &Path, dir: &Path, files: &mut BTreeMap<String, String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            let name = entry.file_name().to_string_lossy().to_string();
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(root, &path, files)?;
            }
        } else if analyzable(&rel) {
            files.insert(rel, std::fs::read_to_string(&path)?);
        }
    }
    Ok(())
}

/// Effective severity configuration from CLI `--allow` / `--deny` flags.
#[derive(Debug, Clone, Default)]
pub struct SeverityOverrides {
    /// Lints silenced entirely.
    pub allow: Vec<String>,
    /// Lints promoted to [`Severity::Deny`].
    pub deny: Vec<String>,
}

impl SeverityOverrides {
    fn apply(&self, d: &mut Diagnostic) -> bool {
        if self.allow.iter().any(|l| l == d.lint) {
            return false;
        }
        if self.deny.iter().any(|l| l == d.lint) {
            d.severity = Severity::Deny;
        }
        true
    }
}

/// Applies the `--deny-new` gate: current deny-severity findings are
/// compared against the baseline entries of gate-active lints (deny by
/// default, or promoted via [`SeverityOverrides::deny`]; allowed lints
/// never gate). Baseline entries for non-gated lints are ignored rather
/// than read as stale, so one committed baseline serves both default and
/// strict runs. Empty result = gate passes.
pub fn gate(
    findings: &[Diagnostic],
    baseline: &baseline::Baseline,
    overrides: &SeverityOverrides,
) -> Vec<baseline::GateViolation> {
    let gated: Vec<Diagnostic> = findings
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .cloned()
        .collect();
    let gate_active = |lint: &str| {
        lints::lint_info(lint).is_some_and(|info| {
            !overrides.allow.iter().any(|l| l == lint)
                && (info.default_severity == Severity::Deny
                    || overrides.deny.iter().any(|l| l == lint))
        })
    };
    baseline.restricted_to(gate_active).check(&gated)
}

/// A full workspace analysis: findings plus the call graph they were
/// computed over (kept for `--dump-graph` and the stats/ratchet plumbing).
#[derive(Debug)]
pub struct Analysis {
    /// All findings, sorted by `(file, line, lint)`.
    pub diagnostics: Vec<Diagnostic>,
    /// The workspace call graph.
    pub graph: graph::CallGraph,
}

/// Runs every lint over every file of `ws`.
pub fn analyze(ws: &Workspace, overrides: &SeverityOverrides) -> std::io::Result<Analysis> {
    Ok(analyze_sources(&ws.collect_files()?, overrides))
}

/// Runs the full analysis — per-file lints, the workspace call graph, and
/// the interprocedural passes — over an explicit `(path, contents)` set.
/// Files are sorted (and deduped, last wins) internally, so the result is
/// byte-identical for any input ordering; the determinism tests feed this
/// shuffled inputs to prove it.
pub fn analyze_sources(files: &[(String, String)], overrides: &SeverityOverrides) -> Analysis {
    let sorted: BTreeMap<&str, &str> = files
        .iter()
        .map(|(p, c)| (p.as_str(), c.as_str()))
        .collect();
    let scans: Vec<(String, FileScan)> = sorted
        .iter()
        .map(|(p, c)| (p.to_string(), FileScan::of(c)))
        .collect();
    let mut out = Vec::new();
    for (rel, scan) in &scans {
        out.extend(lints::run_lints(rel, scan));
    }
    out.extend(lints::lint_obs_names(&scans));
    let graph = graph::build(&scans);
    out.extend(taint::run_graph_lints(&graph, &scans));
    out.retain_mut(|d| overrides.apply(d));
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Analysis {
        diagnostics: out,
        graph,
    }
}

/// Runs every lint over one file given as `(relative path, contents)` —
/// the path decides which lints are in scope, so golden tests can analyze
/// fixture snippets *as if* they lived anywhere in the workspace.
pub fn analyze_file(
    rel_path: &str,
    contents: &str,
    overrides: &SeverityOverrides,
) -> Vec<Diagnostic> {
    let scan = FileScan::of(contents);
    let mut diags = lints::run_lints(rel_path, &scan);
    diags.retain_mut(|d| overrides.apply(d));
    diags
}

/// Renders findings as a JSON array (stable field order, sorted input).
/// Hand-rolled for the same no-external-deps reason as everything else.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"lint\":{},\"severity\":{},\"file\":{},\"line\":{},\"context\":{},\"message\":{}}}{}\n",
            json_str(d.lint),
            json_str(d.severity.as_str()),
            json_str(&d.file),
            d.line,
            json_str(&d.context),
            json_str(&d.message),
            if i + 1 == diags.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders findings as human-readable `file:line` diagnostics.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}: [{}] {}:{} (in {}) — {}\n",
            d.severity.as_str(),
            d.lint,
            d.file,
            d.line,
            d.context,
            d.message
        ));
    }
    out
}

/// Per-lint, per-crate violation counts plus call-graph resolution
/// figures (`--stats`). Deterministic order.
pub fn render_stats(diags: &[Diagnostic], gstats: &graph::GraphStats) -> String {
    let mut per: BTreeMap<(&'static str, String), u32> = BTreeMap::new();
    for d in diags {
        *per.entry((d.lint, crate_of(&d.file))).or_insert(0) += 1;
    }
    let mut out = String::from("# funnel-lint --stats: violations per lint per crate\n");
    let mut total = 0u32;
    for info in &lints::REGISTRY {
        let rows: Vec<_> = per.iter().filter(|((l, _), _)| *l == info.id).collect();
        let lint_total: u32 = rows.iter().map(|(_, n)| **n).sum();
        total += lint_total;
        out.push_str(&format!("{:<26} {:>5}\n", info.id, lint_total));
        for ((_, krate), n) in rows {
            out.push_str(&format!("    {krate:<22} {n:>5}\n"));
        }
    }
    out.push_str(&format!("{:<26} {:>5}\n", "total", total));
    out.push_str("# call graph\n");
    out.push_str(&format!("{:<26} {:>5}\n", "graph.nodes", gstats.nodes));
    out.push_str(&format!("{:<26} {:>5}\n", "graph.calls", gstats.calls));
    out.push_str(&format!(
        "{:<26} {:>5}\n",
        "graph.resolved", gstats.resolved
    ));
    out.push_str(&format!(
        "{:<26} {:>5}\n",
        "graph.unresolved", gstats.unresolved
    ));
    out.push_str(&format!(
        "{:<26} {:>5}\n",
        "graph.external", gstats.external
    ));
    out.push_str(&format!(
        "{:<26} {:>5}\n",
        "graph.unresolved_bp",
        gstats.unresolved_ratio_bp()
    ));
    out
}

fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some(top) => format!("<{top}>"),
        None => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_filter_skips_tests_and_shims() {
        assert!(analyzable("crates/core/src/stream.rs"));
        assert!(analyzable("src/lib.rs"));
        assert!(!analyzable("crates/core/tests/properties.rs"));
        assert!(!analyzable("crates/shims/rand/src/lib.rs"));
        assert!(!analyzable("crates/analyze/tests/fixtures/l1.rs"));
        assert!(!analyzable("crates/bench/benches/sweep.rs"));
        assert!(!analyzable("crates/core/src/data.txt"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn overlay_replaces_contents() {
        let ws = Workspace::at(env!("CARGO_MANIFEST_DIR"))
            .overlay("src/zzz_test_overlay.rs", "fn f() {}\n");
        let files = ws.collect_files().unwrap();
        assert!(files
            .iter()
            .any(|(p, c)| p == "src/zzz_test_overlay.rs" && c == "fn f() {}\n"));
    }
}
