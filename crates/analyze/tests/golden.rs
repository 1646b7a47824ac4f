//! Fixture tests: every fixture under `tests/fixtures/` is analyzed under
//! the virtual workspace path declared on its first line
//! (`//@path crates/...`), and the findings must be exactly the lines that
//! end in a `//~ <lint-id>` marker, as the clippy canaries mark theirs. The
//! lexer edge-case fixture additionally has a full token dump golden
//! (`lexer_edges.tokens.txt`).
//!
//! Regenerate the token dump after an intentional lexer change with:
//! `FUNNEL_LINT_BLESS=1 cargo test -p funnel-analyze --test golden`
//! and review the diff like any other code change.

use funnel_analyze::analyze_file;
use funnel_analyze::lexer::lex;
use funnel_analyze::lints::REGISTRY;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every fixture as `(name, contents)`, in sorted order.
fn fixtures() -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap_or_default().to_string_lossy().into();
            (name, fs::read_to_string(&p).expect("fixture readable"))
        })
        .collect()
}

/// `(line, lint)` of every line ending in `//~ <lint>`.
fn marked(src: &str) -> BTreeSet<(u32, String)> {
    (1..)
        .zip(src.lines())
        .filter_map(|(n, l)| Some((n, l.split_once("//~ ")?.1.trim().to_string())))
        .collect()
}

#[test]
fn fixtures_fire_where_marked() {
    let fixtures = fixtures();
    let mut clean = 0usize;
    for (name, src) in &fixtures {
        let vpath = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@path "))
            .unwrap_or_else(|| panic!("{name}: first line must be `//@path …`"))
            .trim();
        let got: BTreeSet<(u32, String)> = analyze_file(vpath, src)
            .into_iter()
            .map(|d| (d.line, d.lint.to_string()))
            .collect();
        let expected = marked(src);
        assert_eq!(
            got, expected,
            "{name}: findings differ from its `//~` marks"
        );
        clean += usize::from(expected.is_empty());
    }
    // Every lint has a clean fixture besides its firing one; if this
    // drifts the fixture set lost a case.
    assert!(clean >= REGISTRY.len(), "only {clean} clean fixtures");
}

/// Each lint id must be marked in at least one fixture — proves per-lint
/// coverage rather than aggregate counts.
#[test]
fn every_lint_has_a_firing_fixture() {
    let fired: BTreeSet<String> = fixtures()
        .iter()
        .flat_map(|(_, src)| marked(src))
        .map(|(_, lint)| lint)
        .collect();
    for lint in REGISTRY {
        assert!(fired.contains(lint), "no firing fixture covers {lint}");
    }
}

#[test]
fn lexer_token_dump_matches_golden() {
    let src = fs::read_to_string(fixtures_dir().join("lexer_edges.rs")).expect("fixture readable");
    let mut dump = String::new();
    for t in lex(&src) {
        dump.push_str(&format!("{:>3} {:?} {}\n", t.line, t.kind, escape(&t.text)));
    }
    let golden = fixtures_dir().join("lexer_edges.tokens.txt");
    if std::env::var_os("FUNNEL_LINT_BLESS").is_some() {
        fs::write(&golden, &dump).expect("token dump blessed");
        return;
    }
    let expected = fs::read_to_string(&golden).expect("token dump golden readable");
    assert_eq!(
        dump.trim_end(),
        expected.trim_end(),
        "lexer token dump: golden mismatch — if intentional, re-bless and review the diff"
    );
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}
