//! The gates on the tree, end to end against the real workspace.
//!
//! funnel-lint: HEAD must have no finding, and an injected violation of
//! either rule must produce one. Overlays let these tests analyze the
//! actual repo with one file's contents swapped, without touching disk.
//!
//! The rules the compiler holds are checked here too. The tree must be
//! clippy-clean under `-D warnings`. Each canary under `tests/clippy/` (the
//! wall clock, hashed collections and folds over them, panicking calls,
//! panics below an entry point, thread identity and hash iteration) goes
//! through `clippy-driver` under the root `clippy.toml`, the workspace's
//! clippy levels and the crate-root deny line: a line ending in
//! `//~ <lint>` must raise that lint, and nothing else may be raised.
//! Every non-shim crate root must carry the deny line, and every non-shim
//! manifest the workspace lints that deny `unsafe_code`.

use funnel_analyze::lints::Diagnostic;
use funnel_analyze::{analyze, Workspace};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The panic ban every non-shim `src/lib.rs` carries. `rustfmt` lays it
/// out over several lines in the source; the comparison ignores whitespace.
const DENY_LINE: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                         clippy::unreachable, clippy::todo, clippy::unimplemented)]";

/// The ingestion-to-verdict crates also ban slice indexing: the same line
/// with `clippy::indexing_slicing` last.
const DENY_LINE_INDEXING: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, \
                                  clippy::panic, clippy::unreachable, clippy::todo, \
                                  clippy::unimplemented, clippy::indexing_slicing)]";

/// The crates whose roots carry [`DENY_LINE_INDEXING`]. The math kernels
/// (linalg, sst, detect, did) index in tight loops over buffers they size
/// themselves, and stay out.
const INDEXING_ROOTS: [&str; 3] = ["core", "sim", "resilience"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels under the workspace root")
        .to_path_buf()
}

fn findings(ws: &Workspace) -> Vec<Diagnostic> {
    analyze(ws).expect("workspace readable")
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

#[test]
fn injected_map_index_fails_the_gate() {
    // L3: indexing a map on the hot path panics on a missing key, and
    // clippy's indexing_slicing does not flag it.
    let root = repo_root();
    let target = "crates/sim/src/store.rs";
    let orig = std::fs::read_to_string(root.join(target)).expect("store module exists");
    let injected = "\nfn _lint_canary_lookup(by_key: &BTreeMap<u64, u64>, k: u64) -> u64 {\n\
                    \x20   by_key[&k]\n\
                    }\n";
    let ws = Workspace::at(&root).overlay(target, &format!("{orig}{injected}"));
    let found = findings(&ws);
    assert!(
        fires(&found, "panic-in-hot-path", target, "_lint_canary_lookup"),
        "map indexing on the hot path must trip L3: {found:#?}"
    );
}

fn scratch_dir(line: u32) -> PathBuf {
    std::env::temp_dir().join(format!("funnel-lint-gate-{}-{line}", std::process::id()))
}

fn squash(s: &str) -> String {
    s.split_whitespace().collect()
}

/// The non-shim workspace members: `crates/<name>` for every directory
/// with a manifest, except the vendored shims.
fn member_crates() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(repo_root().join("crates"))
        .expect("crates/ readable")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name != "shims")
        .filter(|name| {
            repo_root()
                .join("crates")
                .join(name)
                .join("Cargo.toml")
                .is_file()
        })
        .collect();
    names.sort();
    assert!(
        names.len() >= 10,
        "the workspace lost its crates: {names:?}"
    );
    names
}

#[test]
fn every_crate_root_carries_the_deny_line() {
    let root = repo_root();
    let mut roots = vec![("src/lib.rs".to_string(), false)];
    for name in member_crates() {
        let lib = format!("crates/{name}/src/lib.rs");
        if root.join(&lib).is_file() {
            roots.push((lib, INDEXING_ROOTS.contains(&name.as_str())));
        }
    }
    for (file, indexing) in roots {
        let src = std::fs::read_to_string(root.join(&file)).expect("crate root readable");
        let line = if indexing {
            DENY_LINE_INDEXING
        } else {
            DENY_LINE
        };
        assert!(
            squash(&src).contains(&squash(line)),
            "{file} must carry `{line}`"
        );
    }
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let root = repo_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let rust_lints = manifest
        .split_once("[workspace.lints.rust]")
        .expect("the root manifest has a [workspace.lints.rust] table")
        .1;
    let rust_lints = rust_lints.split("\n[").next().unwrap_or(rust_lints);
    assert!(
        rust_lints
            .lines()
            .any(|l| squash(l) == r#"unsafe_code="deny""#),
        "the workspace must deny unsafe_code: {rust_lints}"
    );
    let mut manifests = vec!["Cargo.toml".to_string()];
    manifests.extend(
        member_crates()
            .into_iter()
            .map(|name| format!("crates/{name}/Cargo.toml")),
    );
    for rel in manifests {
        let text = std::fs::read_to_string(root.join(&rel)).expect("manifest readable");
        assert!(
            squash(&text).contains("[lints]workspace=true"),
            "{rel} must opt into the workspace lints with `[lints] workspace = true`"
        );
    }
    // The one place allowed to write unsafe code is the counting allocator
    // of the allocation test.
    let exemptions: Vec<String> = ["allow", "expect"]
        .iter()
        .map(|level| format!("{level}(unsafe_code"))
        .collect();
    let mut exempt = Vec::new();
    for top in ["src", "crates", "examples", "tests"] {
        let mut files = Vec::new();
        rust_files(&root.join(top), &mut files);
        for file in files {
            let text = squash(&std::fs::read_to_string(&file).expect("source readable"));
            if exemptions.iter().any(|e| text.contains(e.as_str())) {
                exempt.push(relative(&root, &file));
            }
        }
    }
    assert_eq!(exempt, ["crates/sst/tests/no_alloc.rs"]);
}

/// Every `.rs` file under `dir`, in sorted order, skipping build output
/// and the vendored shims.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable entry").path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().unwrap_or_default();
        if path.is_dir() && name != "target" && name != "shims" {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The durable layer is ingestion only: no resilience source or test names
/// funnel-core.
#[test]
fn resilience_never_names_funnel_core() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root.join("crates/resilience/src"), &mut files);
    rust_files(&root.join("crates/resilience/tests"), &mut files);
    assert!(!files.is_empty(), "crates/resilience has sources");
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source readable");
        for (n, line) in (1..).zip(text.lines()) {
            assert!(
                !line.contains("funnel_core"),
                "{}:{n} names funnel_core: {line}",
                relative(&root, &file)
            );
        }
    }
}

/// The whole tree, every target, under `-D warnings`: the bans of
/// `clippy.toml`, the crate-root deny lines and the workspace lints. Its
/// own target directory keeps it off the lock of the build running it.
#[test]
fn tree_is_clippy_clean() {
    let root = repo_root();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args(["--", "-D", "warnings"])
        .env("CARGO_TARGET_DIR", root.join("target/clippy-gate"))
        .current_dir(&root)
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "cargo clippy must pass:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
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

/// The root manifest's `[workspace.lints.clippy]` table as rustc flags
/// (`-D clippy::iter_over_hash_type`, …): every member opts into these
/// levels, so a canary meets them too.
fn workspace_clippy_levels(manifest: &str) -> Vec<String> {
    let table = manifest
        .split_once("[workspace.lints.clippy]")
        .expect("the root manifest has a [workspace.lints.clippy] table")
        .1;
    let table = table.split("\n[").next().unwrap_or(table);
    let mut flags = Vec::new();
    for (lint, level) in table.lines().filter_map(|l| l.split_once('=')) {
        let flag = match level.trim().trim_matches('"') {
            "deny" => "-D",
            "warn" => "-W",
            other => panic!("unexpected level {other} for {lint}"),
        };
        flags.extend([flag.to_string(), format!("clippy::{}", lint.trim())]);
    }
    assert!(!flags.is_empty(), "no workspace clippy level: {table}");
    flags
}

#[test]
fn retired_fixtures_fire_under_clippy() {
    let root = repo_root();
    let driver = Path::new(env!("CARGO"))
        .with_file_name(format!("clippy-driver{}", std::env::consts::EXE_SUFFIX));
    let out_dir = scratch_dir(line!());
    std::fs::create_dir_all(&out_dir).expect("scratch dir");
    let canaries = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy");
    let levels = workspace_clippy_levels(
        &std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest"),
    );
    for name in [
        "l1_time_fire.rs",
        "l2_iter_fire.rs",
        "l3_panic_fire.rs",
        "l5_hash_fold_fire.rs",
        "l7_reach_fire.rs",
        "l8_taint_fire.rs",
    ] {
        let src = format!(
            "{DENY_LINE_INDEXING}\n{}",
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
            .args(&levels)
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
