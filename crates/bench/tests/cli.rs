//! `funnel_cli assess` on scenario files, run as a user runs it.

use std::path::PathBuf;
use std::process::Command;

/// Writes `json` to a scenario file of its own and runs `assess` on it:
/// `(exit code, stderr)`.
fn assess(json: &str, tag: &str) -> (Option<i32>, String) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("funnel-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, json).expect("scenario written");
    let out = Command::new(env!("CARGO_BIN_EXE_funnel_cli"))
        .arg("assess")
        .arg(&path)
        .output()
        .expect("funnel_cli runs");
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_misspelt_field_in_the_template_fails_assess_with_its_path() {
    let template = include_str!("../src/bin/spec_template.json");
    // `delay_minutes` is optional: misspelt, it used to assess
    // byte-identically to no delay at all.
    let typo = template.replace(r#""delay_minutes": 0"#, r#""delay_minute": 600"#);
    assert_ne!(typo, template, "the template names delay_minutes");
    let (code, stderr) = assess(&typo, "typo");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("changes[0].effects[0].delay_minute: unknown field of EffectSpec"),
        "{stderr}"
    );
}

#[test]
fn a_repeated_field_in_the_template_fails_assess_with_its_path() {
    let template = include_str!("../src/bin/spec_template.json");
    // The first of two `delta`s used to win: 0.0, an effect of nothing.
    let twice = template.replace(r#""delta": 80.0"#, r#""delta": 0.0, "delta": 80.0"#);
    assert_ne!(twice, template, "the template names delta");
    let (code, stderr) = assess(&twice, "twice");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("changes[0].effects[0].delta: duplicate field of EffectSpec"),
        "{stderr}"
    );
}
