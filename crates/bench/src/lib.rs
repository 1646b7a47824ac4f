//! Shared helpers for the table/figure regenerator binaries, and the
//! [`grid`] runner behind the `sweep` binary.

#![forbid(unsafe_code)]

pub mod grid;

use funnel_eval::confusion::ConfusionMatrix;

/// Renders a percentage with two decimals, Table-1 style.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Renders one Table-1 row.
pub fn table1_row(method: &str, class: &str, m: &ConfusionMatrix) -> String {
    let r = m.rates();
    format!(
        "{method:<14} {class:<11} {:>9} {:>10} {:>10} {:>10} {:>10}",
        format!("{:.0}", m.total()),
        pct(r.precision),
        pct(r.recall),
        pct(r.tnr),
        pct(r.accuracy)
    )
}

/// The §4.2.1 extrapolation factor: 6194 unlabelled clean changes
/// represented by the 72 evaluated ones.
pub const CLEAN_SCALE: f64 = 6194.0 / 72.0;

/// Returns the cohort seed used by all regenerators (override with
/// `FUNNEL_SEED`).
pub fn seed() -> u64 {
    std::env::var("FUNNEL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2015)
}

/// Number of changes to evaluate (override with `FUNNEL_CHANGES`, default
/// all 144). Lets constrained machines regenerate a representative subset.
pub fn change_budget() -> usize {
    std::env::var("FUNNEL_CHANGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(144)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9988), "99.88%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn clean_scale_matches_paper() {
        assert!((CLEAN_SCALE - 86.02).abs() < 0.1);
    }
}
