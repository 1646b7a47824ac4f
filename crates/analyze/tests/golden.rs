//! Golden-file tests: every fixture under `tests/fixtures/` is analyzed
//! under the virtual workspace path declared on its first line
//! (`//@path crates/...`), and the JSON diagnostics must match the
//! checked-in `<name>.expected.json` byte for byte. The lexer edge-case
//! fixture additionally has a full token dump golden
//! (`lexer_edges.tokens.txt`).
//!
//! Regenerate expectations after an intentional change with:
//! `FUNNEL_LINT_BLESS=1 cargo test -p funnel-analyze --test golden`
//! and review the diff like any other code change.

use funnel_analyze::lexer::lex;
use funnel_analyze::lints::REGISTRY;
use funnel_analyze::{analyze_file, render_json};
use std::fs;
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn bless() -> bool {
    std::env::var_os("FUNNEL_LINT_BLESS").is_some()
}

/// Compare-or-bless one golden file.
fn check_golden(golden: &Path, got: &str, what: &str) {
    if bless() {
        fs::write(golden, got).unwrap_or_else(|e| panic!("bless {}: {e}", golden.display()));
        return;
    }
    let expected = fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!(
            "{what}: cannot read {} ({e}); run with FUNNEL_LINT_BLESS=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        got.trim_end(),
        expected.trim_end(),
        "{what}: golden mismatch for {} — if intentional, re-bless and review the diff",
        golden.display()
    );
}

#[test]
fn fixtures_match_expected_json() {
    let dir = fixtures_dir();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 2 * REGISTRY.len(),
        "expected the full fixture set (fire + clean per lint), found {}",
        fixtures.len()
    );

    let mut firing = 0usize;
    let mut clean = 0usize;
    for fixture in &fixtures {
        let src = fs::read_to_string(fixture).expect("fixture readable");
        let vpath = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@path "))
            .unwrap_or_else(|| panic!("{}: first line must be `//@path …`", fixture.display()))
            .trim();
        let diags = analyze_file(vpath, &src);
        let got = render_json(&diags);
        let golden = fixture.with_extension("expected.json");
        check_golden(&golden, &got, &format!("fixture {}", fixture.display()));
        if diags.is_empty() {
            clean += 1;
        } else {
            firing += 1;
        }
    }
    // Every lint has both a firing and a non-firing fixture; if this
    // drifts the fixture set lost a case.
    assert!(firing >= REGISTRY.len(), "only {firing} firing fixtures");
    assert!(clean >= REGISTRY.len(), "only {clean} clean fixtures");
}

/// Each lint id must appear in at least one firing fixture's expected
/// output — proves per-lint coverage rather than aggregate counts.
#[test]
fn every_lint_has_a_firing_fixture() {
    let dir = fixtures_dir();
    let mut all = String::new();
    for entry in fs::read_dir(&dir).expect("fixtures dir exists") {
        let p = entry.expect("entry").path();
        if p.extension().is_some_and(|e| e == "json") {
            all.push_str(&fs::read_to_string(&p).expect("expected json readable"));
        }
    }
    for lint in &REGISTRY {
        assert!(
            all.contains(&format!("\"lint\":\"{}\"", lint.id)),
            "no firing fixture covers {}",
            lint.id
        );
    }
}

#[test]
fn lexer_token_dump_matches_golden() {
    let fixture = fixtures_dir().join("lexer_edges.rs");
    let src = fs::read_to_string(&fixture).expect("fixture readable");
    let mut dump = String::new();
    for t in lex(&src) {
        dump.push_str(&format!("{:>3} {:?} {}\n", t.line, t.kind, escape(&t.text)));
    }
    check_golden(
        &fixtures_dir().join("lexer_edges.tokens.txt"),
        &dump,
        "lexer token dump",
    );
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}
