//! Property-based tests for the SST scorers.

use funnel_sst::{ClassicSst, EigSelection, FastSst, RobustSst, SstConfig, SstScorer};
use proptest::prelude::*;

fn any_window(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4..1e4f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw (unfiltered) scores are always within [0, 1] for every variant.
    #[test]
    fn raw_scores_unit_interval(w in any_window(34)) {
        let mut c = SstConfig::paper_default();
        c.median_mad_filter = false;
        let classic = ClassicSst::new(c.clone()).score_window(&w);
        let robust = RobustSst::new(c.clone()).raw_score(&w);
        let fast = FastSst::new(c.clone()).raw_score(&w);
        prop_assert!((0.0..=1.0).contains(&classic), "classic {classic}");
        prop_assert!((0.0..=1.0).contains(&robust), "robust {robust}");
        prop_assert!((0.0..=1.0).contains(&fast), "fast {fast}");
    }

    /// Filtered scores are finite and non-negative on arbitrary data.
    #[test]
    fn filtered_scores_finite(w in any_window(34)) {
        let c = SstConfig::paper_default();
        let robust = RobustSst::new(c.clone()).score_window(&w);
        let fast = FastSst::new(c).score_window(&w);
        prop_assert!(robust.is_finite() && robust >= 0.0);
        prop_assert!(fast.is_finite() && fast >= 0.0);
    }

    /// Scores are invariant under affine rescaling of the KPI (the
    /// standardization contract: a KPI in bytes and the same KPI in MB must
    /// score identically).
    #[test]
    fn scale_invariance(
        w in any_window(34),
        scale in 0.01..1000.0f64,
        offset in -1e5..1e5f64,
    ) {
        let c = SstConfig::paper_default();
        let scorer = FastSst::new(c);
        let transformed: Vec<f64> = w.iter().map(|x| x * scale + offset).collect();
        let a = scorer.score_window(&w);
        let b = scorer.score_window(&transformed);
        prop_assert!((a - b).abs() < 1e-5 * (1.0 + a.abs()), "{a} vs {b}");
    }

    /// A constant window scores exactly zero for every variant.
    #[test]
    fn constant_scores_zero(level in -1e6..1e6f64) {
        let c = SstConfig::paper_default();
        let w = vec![level; c.window_len()];
        prop_assert_eq!(ClassicSst::new(c.clone()).score_window(&w), 0.0);
        prop_assert_eq!(RobustSst::new(c.clone()).score_window(&w), 0.0);
        prop_assert_eq!(FastSst::new(c).score_window(&w), 0.0);
    }

    /// Both eigenvector-selection policies stay numerically sane.
    #[test]
    fn both_selections_finite(w in any_window(34)) {
        for sel in [EigSelection::Largest, EigSelection::Smallest] {
            let mut c = SstConfig::paper_default();
            c.eig_selection = sel;
            let s = FastSst::new(c).score_window(&w);
            prop_assert!(s.is_finite() && s >= 0.0);
        }
    }

    /// Alternative window sizes (the paper's quick/precise presets) accept
    /// their own window lengths.
    #[test]
    fn preset_window_lengths(seed in any::<u32>()) {
        for c in [SstConfig::quick(), SstConfig::with_omega(15)] {
            let w: Vec<f64> = (0..c.window_len())
                .map(|i| ((i as u32).wrapping_mul(seed | 1) % 1000) as f64)
                .collect();
            let s = FastSst::new(c).score_window(&w);
            prop_assert!(s.is_finite());
        }
    }
}
