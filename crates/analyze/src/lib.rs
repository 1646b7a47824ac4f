//! `funnel-lint`: the two FUNNEL invariants the compiler cannot say.
//!
//! FUNNEL's verdicts are bit-for-bit replayable under injected faults, and
//! the invariants behind that claim are mechanical, not tribal. The
//! compiler holds what it can say: the workspace denies `unsafe_code` and
//! `clippy::iter_over_hash_type`, `clippy.toml` bans the wall clock,
//! thread identity and the hashed collections, and every crate root's
//! `#![deny(clippy::unwrap_used, …)]` line bans panicking calls and, with
//! them, unwrapped filesystem I/O. This crate holds the rest, file by
//! file: map indexing on the ingestion path, and the WAL journal before
//! the store commit. It is a Tier-1 test (`tests/workspace_gate.rs`), not
//! a binary, and keeps no ledger: any finding fails. Everything is
//! hand-rolled over a small Rust lexer: no `syn`, no rustc plugin, no
//! registry access required.

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod lexer;
pub mod lints;
pub mod scan;

use lints::Diagnostic;
use scan::FileScan;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A workspace to analyze: a root directory plus content overlays.
///
/// Overlays replace (or add) a file's contents without touching disk —
/// integration tests use them to prove that an injected violation trips
/// the gate against the *real* checked-in workspace.
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

/// Runs every lint over every file of `ws`: all findings, sorted by
/// `(file, line, lint)`.
pub fn analyze(ws: &Workspace) -> std::io::Result<Vec<Diagnostic>> {
    Ok(analyze_sources(&ws.collect_files()?))
}

/// Runs every lint over an explicit `(path, contents)` set. Files are
/// sorted (and deduped, last wins) internally, so the result is
/// identical for any input ordering; the determinism tests feed this
/// shuffled inputs to prove it.
pub fn analyze_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let sorted: BTreeMap<&str, &str> = files
        .iter()
        .map(|(p, c)| (p.as_str(), c.as_str()))
        .collect();
    sorted
        .into_iter()
        .flat_map(|(path, contents)| analyze_file(path, contents))
        .collect()
}

/// Runs every lint over one file given as `(relative path, contents)` —
/// the path decides which lints are in scope, so golden tests can analyze
/// fixture snippets *as if* they lived anywhere in the workspace.
pub fn analyze_file(rel_path: &str, contents: &str) -> Vec<Diagnostic> {
    lints::run_lints(rel_path, &FileScan::of(contents))
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
    fn overlay_replaces_contents() {
        let ws = Workspace::at(env!("CARGO_MANIFEST_DIR"))
            .overlay("src/zzz_test_overlay.rs", "fn f() {}\n");
        let files = ws.collect_files().unwrap();
        assert!(files
            .iter()
            .any(|(p, c)| p == "src/zzz_test_overlay.rs" && c == "fn f() {}\n"));
    }
}
