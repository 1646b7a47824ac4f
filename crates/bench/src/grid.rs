//! One runner for every committed table: the paper's tables and figures
//! and the contract sweeps alike.
//!
//! A table is a [`Grid`]: `cells()` lists the points, `run(cell)` turns one
//! point into a typed row (asserting whatever must hold inside that cell),
//! and `contract(rows)` asserts what only holds *across* rows and returns
//! the envelope fields those checks established. [`render`] does the rest:
//! the table and the `results/BENCH_<name>.json` envelope, both derived
//! from the grid's single [`Column`] list, so the two can never disagree;
//! [`run_grid`] prints the one and writes the other.
//!
//! Nothing here reads a clock: every column is a pure function of the seed,
//! which is what lets CI regenerate the committed tables and `git diff` them.

use std::fmt::Display;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Envelope schema version stamped into every `BENCH_<name>.json`.
const SCHEMA_VERSION: u32 = 1;

/// One rendered cell value: a raw JSON fragment. The table prints the same
/// text with string quotes stripped.
#[derive(Debug)]
pub struct Value(String);

impl Value {
    /// An integer (or anything else whose `Display` is a JSON literal: a
    /// `bool`, say).
    pub fn int(n: impl Display) -> Self {
        Self(n.to_string())
    }

    /// A float with exactly `decimals` fractional digits.
    pub fn fixed(x: f64, decimals: usize) -> Self {
        Self(format!("{x:.decimals$}"))
    }

    /// A JSON string (labels are plain identifiers; no escaping needed).
    pub fn text(s: &str) -> Self {
        Self(format!("\"{s}\""))
    }
}

/// One output column: its JSON key (also the table header) and how to read
/// it off a row.
pub struct Column<R> {
    key: String,
    value: Box<dyn Fn(&R) -> Value>,
}

impl<R: 'static> Column<R> {
    /// A column headed `key` whose cells are `value(row)`.
    pub fn new(key: &'static str, value: fn(&R) -> Value) -> Self {
        Self::computed(key.to_string(), value)
    }

    /// [`Column::new`] for a column a grid derives from a list: its key is
    /// built, and its reader captures what it was built from.
    pub fn computed(key: String, value: impl Fn(&R) -> Value + 'static) -> Self {
        Self {
            key,
            value: Box::new(value),
        }
    }
}

/// One committed table. See the module docs.
pub trait Grid {
    /// One point of the grid.
    type Cell;
    /// What running one cell yields; may carry more than the columns show.
    type Row;

    /// Bench name: `results/BENCH_<name>.json`, `sweep -- <name>`.
    const NAME: &'static str;
    /// One-line table caption.
    const TITLE: &'static str;
    /// The seed stamped into the envelope: the one every row is a function
    /// of, or the first of them when a column says which.
    const SEED: u64 = crate::SEED;
    /// The single column list both renderings derive from.
    fn columns(&self) -> Vec<Column<Self::Row>>;
    /// The grid's points, in output order.
    fn cells(&self) -> Vec<Self::Cell>;
    /// Runs one cell, asserting its in-cell contracts.
    fn run(&self, cell: &Self::Cell) -> Self::Row;
    /// Asserts the cross-row contracts; returns the envelope fields (key,
    /// raw JSON) recording what was checked.
    fn contract(&self, rows: &[Self::Row]) -> Vec<(&'static str, String)>;
}

/// Renders rows as a right-aligned text table headed by the column keys.
fn render_table(keys: &[&str], rows: &[Vec<Value>]) -> String {
    let shown = |v: &Value| v.0.trim_matches('"').to_string();
    let widths: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            rows.iter()
                .map(|r| shown(&r[i]).len())
                .chain([key.len()])
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", padded.join("  "));
    };
    line(keys.iter().map(ToString::to_string).collect());
    for row in rows {
        line(row.iter().map(shown).collect());
    }
    out
}

/// Serializes the `BENCH_<name>.json` envelope: the fixed
/// `schema_version`/`bench`/`seed` preamble, then `fields` and `rows` in
/// the order given.
fn render_envelope(
    bench: &str,
    seed: u64,
    fields: &[(&str, String)],
    keys: &[&str],
    rows: &[Vec<Value>],
) -> String {
    let mut out = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"bench\": \"{bench}\",\n  \
         \"seed\": {seed}"
    );
    for (key, value) in fields {
        let _ = write!(out, ",\n  \"{key}\": {value}");
    }
    out.push_str(",\n  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let pairs: Vec<String> = keys
            .iter()
            .zip(row)
            .map(|(k, v)| format!("\"{k}\": {}", v.0))
            .collect();
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    {{{}}}", pairs.join(", "));
    }
    out.push_str(if rows.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Runs every cell, then the cross-row contract; writes nothing. Returns
/// the typed rows and the envelope fields the contract established.
///
/// # Panics
///
/// When a cell or the cross-row contract is violated; that is the point.
pub fn check<G: Grid>(grid: &G) -> (Vec<G::Row>, Vec<(&'static str, String)>) {
    let cells = grid.cells();
    let mut rows = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        rows.push(grid.run(cell));
        eprintln!("{}: cell {}/{}", G::NAME, i + 1, cells.len());
    }
    let fields = grid.contract(&rows);
    (rows, fields)
}

/// [`check`]s the grid and renders it, writing nothing: the text table and
/// the `BENCH_<name>.json` envelope, in that order, both from the grid's
/// one column list.
///
/// # Panics
///
/// As [`check`] does.
pub fn render<G: Grid>(grid: &G) -> (String, String) {
    let columns = grid.columns();
    let keys: Vec<&str> = columns.iter().map(|c| c.key.as_str()).collect();
    let (typed, fields) = check(grid);
    let rows: Vec<Vec<Value>> = typed
        .iter()
        .map(|row| columns.iter().map(|c| (c.value)(row)).collect())
        .collect();
    (
        render_table(&keys, &rows),
        render_envelope(G::NAME, G::SEED, &fields, &keys, &rows),
    )
}

/// [`render`]s the grid, prints the table and writes
/// `results/BENCH_<name>.json`.
///
/// # Errors
///
/// Propagates filesystem failures.
///
/// # Panics
///
/// As [`check`] does.
pub fn run_grid<G: Grid>(grid: &G) -> std::io::Result<()> {
    let (table, envelope) = render(grid);
    println!("{}\n", G::TITLE);
    print!("{table}");
    let path = PathBuf::from(format!("results/BENCH_{}.json", G::NAME));
    std::fs::create_dir_all("results")?;
    std::fs::write(&path, envelope)?;
    println!("\nwrote {}; every contract held.\n", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::text("none"), Value::fixed(0.05, 2), Value::int(12)],
            vec![
                Value::text("staggered"),
                Value::fixed(0.1, 2),
                Value::int(-1),
            ],
        ]
    }

    #[test]
    fn envelope_parses_with_fixed_preamble_and_column_order() {
        let keys = ["heal", "rate", "items"];
        let fields = [("shards", "4".to_string()), ("checked", "true".to_string())];
        let json = render_envelope("demo", 2015, &fields, &keys, &demo_rows());
        assert!(json.contains("{\"heal\": \"none\", \"rate\": 0.05, \"items\": 12}"));
        let value: serde::Value = serde_json::from_str(&json).expect("envelope parses");
        let serde::Value::Object(top) = &value else {
            panic!("top level must be an object");
        };
        let top_keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            top_keys,
            [
                "schema_version",
                "bench",
                "seed",
                "shards",
                "checked",
                "rows"
            ]
        );
        let rows = top.iter().find(|(k, _)| k == "rows").map(|(_, v)| v);
        assert!(matches!(rows, Some(serde::Value::Array(a)) if a.len() == 2));
    }

    #[test]
    fn empty_envelope_parses() {
        let json = render_envelope("empty", 1, &[], &[], &[]);
        let _: serde::Value = serde_json::from_str(&json).expect("empty envelope parses");
    }

    #[test]
    fn table_right_aligns_under_the_same_keys_and_strips_quotes() {
        let table = render_table(&["heal", "rate", "items"], &demo_rows());
        assert_eq!(
            table,
            "     heal  rate  items\n     none  0.05     12\nstaggered  0.10     -1\n"
        );
    }
}
