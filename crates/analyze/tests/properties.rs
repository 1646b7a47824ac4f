//! Property tests for the analyzer front end and for whole-analysis
//! determinism.
//!
//! The lexer and scanner sit in front of every lint, so they must be
//! *total*: any byte soup — valid Rust or not — lexes and scans without
//! panicking, and every span they report stays inside the input. The
//! second half checks the determinism contract end to end: analyzing the
//! same virtual files in any order yields byte-identical findings.

use funnel_analyze::lexer::lex;
use funnel_analyze::scan::FileScan;
use funnel_analyze::{analyze_sources, render_json};
use proptest::prelude::*;

/// Shared invariant check: lexing and scanning complete (no panic) and all
/// reported positions are in-bounds for the source.
fn assert_front_end_invariants(src: &str) {
    let lines = src.split('\n').count() as u32;
    let tokens = lex(src);
    for t in &tokens {
        assert!(!t.text.is_empty(), "empty token at line {}", t.line);
        assert!(
            (1..=lines.max(1)).contains(&t.line),
            "token line {} out of 1..={} for {:?}",
            t.line,
            lines.max(1),
            t.text
        );
    }
    let scan = FileScan::of(src);
    for f in &scan.fns {
        assert!(f.start_line <= f.end_line, "inverted fn span in {}", f.name);
        assert!(f.end_line <= lines.max(1), "fn {} ends past EOF", f.name);
        assert!(f.fn_tok < scan.code.len(), "fn_tok out of bounds");
        assert!(f.body_open <= f.body_close, "inverted body span");
        assert!(f.body_close <= scan.code.len(), "body_close out of bounds");
    }
    // Query surface is total too.
    for line in 0..=lines.max(1) {
        let _ = scan.in_test(line);
        let _ = scan.suppressed(line, "panic-in-hot-path");
    }
}

/// Rust-flavored fragments: dense in the constructs the scanner tracks
/// (fn items, impl blocks, attributes, strings, comments, suppressions),
/// including deliberately unbalanced ones.
const FRAGMENTS: [&str; 24] = [
    "fn ",
    "pub fn f",
    "impl Collector { ",
    "trait Hooks { ",
    "}",
    "{",
    "(",
    ")",
    "#[cfg(test)]\n",
    "#[test]\nfn t() {}\n",
    "\"a string ) } fn \"",
    "r#\"raw \" inside\"#",
    "'c'",
    "'static ",
    "// funnel-lint: allow(panic-in-hot-path)\n",
    "// line comment fn fake() {\n",
    "/* block comment {",
    "*/",
    ".unwrap()",
    "x[i]",
    "::",
    "let x = 1;\n",
    "mod tests {\n",
    "\u{1F980}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_and_scanner_are_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u16..256, 0..300),
    ) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let src = String::from_utf8_lossy(&raw).into_owned();
        assert_front_end_invariants(&src);
    }

    #[test]
    fn lexer_and_scanner_are_total_on_rustish_soup(
        picks in prop::collection::vec(0usize..24, 0..120),
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        assert_front_end_invariants(&src);
    }

    #[test]
    fn analysis_is_independent_of_file_order(rotation in 0usize..5, swap in 0usize..5) {
        let mut files: Vec<(String, String)> = vec![
            ("crates/core/src/pipeline.rs", "pub fn assess_change(m: &BTreeMap<u32, u32>) -> u32 { m[&1] }\n"),
            ("crates/core/src/report.rs", "pub fn total(v: &[f64]) -> f64 { v.iter().sum::<f64>() }\n"),
            ("crates/core/src/util.rs", "// funnel-lint: allow(float-accumulation-order)\npub fn helper() -> u32 { 0 }\n"),
            ("crates/resilience/src/wal.rs", "pub fn open(segments: &BTreeMap<u64, u64>) -> u64 { segments[&0] }\n"),
            ("crates/sim/src/collector.rs", "pub fn ingest(hooks: &mut H, store: &mut S) { store.commit(); let _ = hooks.on_accepted_frame(); }\n"),
        ]
        .into_iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect();

        let canonical = analyze_sources(&files);
        let canonical_json = render_json(&canonical);
        // Every file must fire, otherwise order-independence is vacuous.
        let fired: std::collections::BTreeSet<&str> =
            canonical.iter().map(|d| d.file.as_str()).collect();
        assert_eq!(fired.len(), files.len(), "every file should fire: {canonical:?}");

        files.rotate_left(rotation);
        let other = (swap + 2) % files.len();
        files.swap(swap, other);
        prop_assert_eq!(&render_json(&analyze_sources(&files)), &canonical_json);
    }
}
