//! Confusion-matrix bookkeeping (paper §4.2).
//!
//! An item is a (software change, entity, KPI) triple. True positives are
//! items with KPI changes caused by software changes that the method also
//! attributed to the change; true negatives are items correctly left alone;
//! a false positive is a claimed impact where there was none (or it was not
//! software-caused); a false negative is a missed real impact.

/// Raw outcome counts. Counts are `f64` so the §4.2.1 extrapolation (clean
/// changes scaled by 86 = 6194/72) composes exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: f64,
    /// True negatives.
    pub tn: f64,
    /// False positives.
    pub fp: f64,
    /// False negatives.
    pub fn_: f64,
}

/// Derived rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// TP / (TP + FP); 1.0 when no positives were claimed.
    pub precision: f64,
    /// TP / (TP + FN); 1.0 when no positives exist.
    pub recall: f64,
    /// TN / (TN + FP); 1.0 when no negatives exist.
    pub tnr: f64,
    /// (TP + TN) / total; 1.0 for an empty matrix.
    pub accuracy: f64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one item outcome.
    pub fn record(&mut self, actual_positive: bool, predicted_positive: bool) {
        match (actual_positive, predicted_positive) {
            (true, true) => self.tp += 1.0,
            (true, false) => self.fn_ += 1.0,
            (false, true) => self.fp += 1.0,
            (false, false) => self.tn += 1.0,
        }
    }

    /// Adds `other` scaled by `factor` (the §4.2.1 extrapolation multiplies
    /// the clean-change cohort by 86 before summing).
    pub fn add_scaled(&mut self, other: &ConfusionMatrix, factor: f64) {
        self.tp += other.tp * factor;
        self.tn += other.tn * factor;
        self.fp += other.fp * factor;
        self.fn_ += other.fn_ * factor;
    }

    /// Total items recorded.
    pub fn total(&self) -> f64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Derived rates, with empty denominators reading as perfect (matching
    /// the convention that a method claiming nothing on a negatives-only
    /// set has precision 1).
    pub fn rates(&self) -> Rates {
        let div = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
        Rates {
            precision: div(self.tp, self.tp + self.fp),
            recall: div(self.tp, self.tp + self.fn_),
            tnr: div(self.tn, self.tn + self.fp),
            accuracy: div(self.tp + self.tn, self.total()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_rates() {
        let mut m = ConfusionMatrix::new();
        m.record(true, true); // tp
        m.record(true, true);
        m.record(true, false); // fn
        m.record(false, false); // tn
        m.record(false, true); // fp
        let r = m.rates();
        assert!((r.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.tnr - 0.5).abs() < 1e-12);
        assert!((r.accuracy - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(m.total(), 5.0);
    }

    #[test]
    fn empty_matrix_is_perfect() {
        let r = ConfusionMatrix::new().rates();
        assert_eq!(r.precision, 1.0);
        assert_eq!(r.recall, 1.0);
        assert_eq!(r.tnr, 1.0);
        assert_eq!(r.accuracy, 1.0);
    }

    #[test]
    fn scaling_composes() {
        let mut clean = ConfusionMatrix::new();
        clean.record(false, false);
        clean.record(false, true);
        let mut total = ConfusionMatrix::new();
        total.record(true, true);
        total.add_scaled(&clean, 86.0);
        assert_eq!(total.tn, 86.0);
        assert_eq!(total.fp, 86.0);
        assert_eq!(total.tp, 1.0);
        assert_eq!(total.total(), 173.0);
    }
}
