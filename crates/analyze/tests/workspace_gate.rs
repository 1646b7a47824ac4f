//! The gate, end to end against the real workspace: HEAD must have no
//! finding, and a deliberately injected violation must produce one.
//! Overlays let these tests analyze the actual repo with one file's
//! contents swapped, without touching disk.

use funnel_analyze::lints::Diagnostic;
use funnel_analyze::{analyze, Workspace};
use std::path::{Path, PathBuf};
use std::process::Command;

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

#[test]
fn injected_instant_now_in_did_fails_the_gate() {
    let root = repo_root();
    let target = "crates/did/src/lib.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("did crate root exists");
    let ws = Workspace::at(&root).overlay(
        target,
        &format!(
            "{orig}\nfn _lint_canary() -> std::time::Instant {{ std::time::Instant::now() }}\n"
        ),
    );
    let found = findings(&ws);
    assert!(
        fires(&found, "nondeterministic-time", target, "_lint_canary"),
        "Instant::now() in crates/did must trip the gate: {found:#?}"
    );
}

#[test]
fn injected_hashmap_iteration_in_report_fails_the_gate() {
    let root = repo_root();
    let target = "crates/core/src/report.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("report module exists");
    let injected = "\nfn _order_leak(m: &std::collections::HashMap<u32, f64>) -> String {\n\
                    \x20   let mut out = String::new();\n\
                    \x20   for (k, v) in m {\n\
                    \x20       out.push_str(&format!(\"{k}={v}\\n\"));\n\
                    \x20   }\n\
                    \x20   out\n\
                    }\n";
    let ws = Workspace::at(&root).overlay(target, &format!("{orig}{injected}"));
    let found = findings(&ws);
    assert!(
        fires(&found, "unordered-iteration", target, "_order_leak"),
        "HashMap iteration in report.rs must trip the gate: {found:#?}"
    );
}

#[test]
fn injected_unwrap_in_parallel_engine_fails_the_gate() {
    // The parallel engine sits on the ingestion-to-verdict hot path: a
    // worker that panics takes its whole assessment down, so the deny-level
    // no-panic lint must cover crates/core/src/parallel.rs.
    let root = repo_root();
    let target = "crates/core/src/parallel.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("parallel engine exists");
    let ws = Workspace::at(&root).overlay(
        target,
        &format!("{orig}\nfn _lint_canary(v: Option<u32>) -> u32 {{ v.unwrap() }}\n"),
    );
    let found = findings(&ws);
    assert!(
        fires(&found, "panic-in-hot-path", target, "_lint_canary"),
        "unwrap() in the parallel engine must trip the gate: {found:#?}"
    );
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
    // is nobody's finding (the unwrap itself still trips L3).
    let marked = "// funnel-lint: root\npub fn recover(";
    assert!(injected.contains(marked), "recover carries the root marker");
    let unmarked = injected.replace(marked, "pub fn recover(");
    let found = findings(&Workspace::at(&root).overlay(target, &unmarked));
    assert!(
        !found.iter().any(|d| d.lint == "panic-reachability"),
        "an unmarked fn is not a root: {found:#?}"
    );
    assert!(fires(
        &found,
        "panic-in-hot-path",
        target,
        "_lint_canary_panics"
    ));
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

    // A scratch mini-workspace with one finding.
    let scratch = std::env::temp_dir().join(format!(
        "funnel-lint-gate-{}-{}",
        std::process::id(),
        line!()
    ));
    let src_dir = scratch.join("crates/did/src");
    std::fs::create_dir_all(&src_dir).expect("scratch tree");
    std::fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\nfn t() -> u128 {\n    std::time::SystemTime::now()\n        .duration_since(std::time::UNIX_EPOCH)\n        .map(|d| d.as_millis())\n        .unwrap_or(0)\n}\n",
    )
    .expect("scratch file");
    let status = Command::new(env!("CARGO_BIN_EXE_funnel-lint"))
        .args(["--root", scratch.to_str().expect("utf8 scratch")])
        .status()
        .expect("funnel-lint binary runs");
    assert_eq!(status.code(), Some(2), "a finding must exit 2");
    std::fs::remove_dir_all(&scratch).ok();
}
