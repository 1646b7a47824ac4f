//@path crates/core/src/quality.rs
//! Lexer stress: finding-looking text hidden inside literals and comments
//! must produce no findings; the one real call after them must be found
//! on the right line.

/* outer /* nested fs::read(p).unwrap() panic!("x") */ still comment Instant::now() */
fn docs() -> &'static str {
    // fs::read(p).unwrap() and index[&k] in a line comment are inert; so is SystemTime.
    let plain = "calls fs::read(p).unwrap(), index[&k] and panic!(\"quoted\") inside a string";
    let raw = r#"raw string with .expect("x") and "quotes" and Instant::now()"#;
    let fenced = r##"fence two: "# still inside "## ;
    let ch = '"';
    let esc = '\'';
    let byte = b'x';
    let bytes = b"panic!()";
    let _ = (plain, raw, fenced, ch, esc, byte, bytes);
    "ok"
}

fn real_finding(index: &BTreeMap<u32, u32>, k: u32) -> u32 {
    index[&k] //~ panic-in-hot-path
}
