//! The gate, end to end against the real workspace: HEAD must have no
//! finding, and a deliberately injected violation must produce one.
//! Overlays let these tests analyze the actual repo with one file's
//! contents swapped, without touching disk.
//!
//! The rules clippy holds are checked here too. Each canary under
//! `tests/clippy/` (the wall clock, hashed collections and panicking calls)
//! goes through `clippy-driver` under the root `clippy.toml` and the
//! hot-path deny line: a line ending in `//~ <lint>` must raise that lint,
//! and nothing else may be raised. The eight hot-path roots must carry the
//! deny line.

use funnel_analyze::lints::{Diagnostic, HOT_PATH};
use funnel_analyze::{analyze, Workspace};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The hot path's panic ban. `rustfmt` lays it out over several lines in
/// the source; the comparison ignores whitespace.
const DENY_LINE: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                         clippy::unreachable, clippy::todo, clippy::unimplemented)]";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf()
}

fn findings(ws: &Workspace) -> Vec<Diagnostic> {
    analyze(ws).expect("workspace readable").diagnostics
}

/// Whether `found` holds a finding of `lint` in `file` whose enclosing fn
/// (or `<file>`) is `context`.
fn fires(found: &[Diagnostic], lint: &str, file: &str, context: &str) -> bool {
    found
        .iter()
        .any(|d| d.lint == lint && d.file == file && d.context == context)
}

#[test]
fn workspace_has_no_finding() {
    let all = findings(&Workspace::at(repo_root()));
    assert!(all.is_empty(), "HEAD must be clean: {all:#?}");
}

/// Inserts `stmt` at the top of the body of the fn whose signature starts
/// with `sig`, so interprocedural canaries can hang off a real entry point.
fn inject_into_fn(orig: &str, sig: &str, stmt: &str) -> String {
    let at = orig.find(sig).expect("signature present");
    let brace = at + orig[at..].find('{').expect("body opens") + 1;
    format!("{}\n    {stmt}\n{}", &orig[..brace], &orig[brace..])
}

#[test]
fn injected_panic_chain_from_recover_fails_the_gate() {
    // L7 is interprocedural: the panic source lives in a helper, and only
    // the call edge from the `recover` root makes it a finding.
    let root = repo_root();
    let target = "crates/resilience/src/recover.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("recover module exists");
    let body = inject_into_fn(&orig, "pub fn recover(", "_lint_canary_chain();");
    let injected = format!(
        "{body}\nfn _lint_canary_chain() {{ _lint_canary_panics(None); }}\n\
         fn _lint_canary_panics(v: Option<u32>) {{ let _ = v.unwrap(); }}\n"
    );
    let found = findings(&Workspace::at(&root).overlay(target, &injected));
    assert!(
        fires(&found, "panic-reachability", target, "recover"),
        "unwrap two calls below `recover` must trip L7: {found:#?}"
    );

    // The marker is what makes `recover` a root: without it the same chain
    // is nobody's finding (the unwrap itself is clippy's `unwrap_used`).
    let marked = "// funnel-lint: root\npub fn recover(";
    assert!(injected.contains(marked), "recover carries the root marker");
    let unmarked = injected.replace(marked, "pub fn recover(");
    let found = findings(&Workspace::at(&root).overlay(target, &unmarked));
    assert!(
        !found.iter().any(|d| d.lint == "panic-reachability"),
        "an unmarked fn is not a root: {found:#?}"
    );
}

#[test]
fn root_marker_without_a_fn_fails_the_gate() {
    let root = repo_root();
    let target = "crates/core/src/parallel.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("parallel engine exists");
    let ws = Workspace::at(&root).overlay(
        target,
        &format!("{orig}\n// funnel-lint: root\nconst _LINT_CANARY: u32 = 0;\n"),
    );
    let found = findings(&ws);
    assert!(
        fires(&found, "panic-reachability", target, "<file>"),
        "a marker that marks nothing must be a finding: {found:#?}"
    );
}

#[test]
fn injected_taint_into_report_sink_fails_the_gate() {
    // L8: the clock read sits in a private helper; the pub render fn is the
    // sink the taint must flow into along the call edge.
    let root = repo_root();
    let target = "crates/core/src/report.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("report module exists");
    let injected = "\nfn _lint_canary_stamp() -> u64 {\n\
                    \x20   let _ = std::time::Instant::now();\n\
                    \x20   0\n\
                    }\n\
                    pub fn render_lint_canary() -> String {\n\
                    \x20   let _ = _lint_canary_stamp();\n\
                    \x20   String::new()\n\
                    }\n";
    let ws = Workspace::at(&root).overlay(target, &format!("{orig}{injected}"));
    let found = findings(&ws);
    assert!(
        fires(&found, "determinism-taint", target, "render_lint_canary"),
        "clock taint reaching a render sink must trip L8: {found:#?}"
    );
}

#[test]
fn injected_commit_without_journal_fails_the_gate() {
    // L9: a collector-side fn that touches IngestHooks and commits before
    // journaling violates the WAL ⊇ store protocol.
    let root = repo_root();
    let target = "crates/sim/src/collector.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("collector module exists");
    let injected = "\nfn _lint_canary_ingest(hooks: &mut dyn IngestHooks, store: &mut Store) {\n\
                    \x20   store.commit();\n\
                    \x20   let _ = hooks.on_accepted_frame();\n\
                    }\n";
    let ws = Workspace::at(&root).overlay(target, &format!("{orig}{injected}"));
    let found = findings(&ws);
    assert!(
        fires(
            &found,
            "journal-before-commit",
            target,
            "_lint_canary_ingest"
        ),
        "commit before journal must trip L9: {found:#?}"
    );
}

/// The actual binary, exactly as CI invokes it: flagless `funnel-lint`
/// must exit 0 at HEAD and 2 on a tree with a finding.
#[test]
fn binary_exit_codes() {
    let root = repo_root();
    let status = Command::new(env!("CARGO_BIN_EXE_funnel-lint"))
        .args(["--root", root.to_str().expect("utf8 root")])
        .status()
        .expect("funnel-lint binary runs");
    assert!(status.success(), "gate must pass at HEAD: {status:?}");

    // A scratch mini-workspace with one finding: a crate root without
    // `#![forbid(unsafe_code)]`.
    let scratch = scratch_dir(line!());
    let src_dir = scratch.join("crates/did/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(src_dir.join("lib.rs"), "fn t() {}\n").expect("scratch file");
    let status = Command::new(env!("CARGO_BIN_EXE_funnel-lint"))
        .args(["--root", scratch.to_str().expect("utf8 scratch")])
        .status()
        .expect("funnel-lint binary runs");
    assert_eq!(status.code(), Some(2), "a finding must exit 2");
    std::fs::remove_dir_all(&scratch).ok();
}

fn scratch_dir(line: u32) -> PathBuf {
    std::env::temp_dir().join(format!("funnel-lint-gate-{}-{line}", std::process::id()))
}

fn squash(s: &str) -> String {
    s.split_whitespace().collect()
}

#[test]
fn every_hot_path_root_carries_the_deny_line() {
    let root = repo_root();
    for scope in HOT_PATH {
        // A crate on the hot path carries the line on its root; a file, at
        // its head.
        let file = match scope.strip_suffix('/') {
            Some(dir) => format!("{dir}/lib.rs"),
            None => scope.to_string(),
        };
        let src = std::fs::read_to_string(root.join(&file)).expect("hot-path root exists");
        assert!(
            squash(&src).contains(&squash(DENY_LINE)),
            "{file} must carry `{DENY_LINE}`"
        );
    }
}

/// `(line, lint)` of every diagnostic with a lint name in rustc's JSON
/// output: one object a line, whose first `"line_start"` is its primary
/// span's.
fn raised(json: &str) -> BTreeSet<(u32, String)> {
    json.lines()
        .filter_map(|l| {
            let lint = l.split_once(r#""code":{"code":""#)?.1.split('"').next()?;
            let line = l.split_once(r#""line_start":"#)?.1;
            let line = line[..line.find(|c: char| !c.is_ascii_digit())?]
                .parse()
                .ok()?;
            Some((line, lint.to_string()))
        })
        .collect()
}

#[test]
fn retired_fixtures_fire_under_clippy() {
    let root = repo_root();
    let driver = Path::new(env!("CARGO"))
        .with_file_name(format!("clippy-driver{}", std::env::consts::EXE_SUFFIX));
    let out_dir = scratch_dir(line!());
    std::fs::create_dir_all(&out_dir).expect("scratch dir");
    let canaries = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy");
    for name in ["l1_time_fire.rs", "l2_iter_fire.rs", "l3_panic_fire.rs"] {
        let src = format!(
            "{DENY_LINE}\n{}",
            std::fs::read_to_string(canaries.join(name)).expect("canary readable")
        );
        let expected: BTreeSet<(u32, String)> = (1..)
            .zip(src.lines())
            .filter_map(|(n, l)| Some((n, l.split_once("//~ ")?.1.trim().to_string())))
            .collect();
        assert!(!expected.is_empty(), "{name} marks no line");
        let mut child = Command::new(&driver)
            .args(["-", "--edition", "2021", "--test", "--crate-name", "canary"])
            .args(["--emit=metadata", "--error-format=json", "-D", "warnings"])
            .arg("--out-dir")
            .arg(&out_dir)
            .env("CLIPPY_CONF_DIR", &root)
            .stdin(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("{} runs: {e}", driver.display()));
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(src.as_bytes())
            .expect("canary written");
        let out = child.wait_with_output().expect("clippy-driver finishes");
        let json = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name} must fail clippy:\n{json}");
        assert_eq!(raised(&json), expected, "{name}:\n{json}");
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
