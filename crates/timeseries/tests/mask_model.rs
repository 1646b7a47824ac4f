//! Model-based property tests: [`CoverageMask`] against a naive bit array.
//!
//! The mask sits under every coverage decision the pipeline makes — window
//! skipping, partition-gap detection, re-assessment triggers — so its query
//! surface is checked wholesale against the obviously-correct model: a plain
//! `Vec<bool>` indexed by absolute minute, where `mark` ignores minutes
//! before the anchor and every derived query is a direct scan.

use funnel_timeseries::mask::CoverageMask;
use proptest::prelude::*;

/// Upper bound on any minute a test generates (marks and query ranges).
const UNIVERSE: usize = 400;

fn build(start: u64, marks: &[u64]) -> (CoverageMask, Vec<bool>) {
    let mut mask = CoverageMask::new(start);
    let mut model = vec![false; UNIVERSE];
    for &m in marks {
        mask.mark(m);
        if m >= start {
            model[m as usize] = true;
        }
    }
    (mask, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presence_and_counts_match_the_model(
        start in 0u64..40,
        marks in prop::collection::vec(0u64..160, 0..80),
        from in 0u64..200,
        span in 0u64..200,
    ) {
        let (mask, model) = build(start, &marks);
        let to = from + span;

        for minute in 0..UNIVERSE as u64 {
            prop_assert_eq!(mask.is_present(minute), model[minute as usize], "minute {}", minute);
        }

        let present = (from..to).filter(|&m| model[m as usize]).count();
        prop_assert_eq!(mask.present_in(from, to), present);
        let coverage = if span == 0 { 0.0 } else { present as f64 / span as f64 };
        prop_assert_eq!(mask.coverage(from, to), coverage);
    }

    #[test]
    fn gaps_match_the_model(
        start in 0u64..40,
        marks in prop::collection::vec(0u64..160, 0..80),
        from in 0u64..200,
        span in 0u64..200,
    ) {
        let (mask, model) = build(start, &marks);
        let to = from + span;

        // Model gaps: maximal runs of missing minutes, by direct scan.
        let mut expected: Vec<(u64, u64)> = Vec::new();
        let mut open: Option<u64> = None;
        for minute in from..to {
            if model[minute as usize] {
                if let Some(s) = open.take() {
                    expected.push((s, minute));
                }
            } else if open.is_none() {
                open = Some(minute);
            }
        }
        if let Some(s) = open {
            expected.push((s, to));
        }

        let gaps = mask.gaps_in(from, to);
        prop_assert_eq!(&gaps, &expected);

        // Structural invariants the downstream layers rely on: gaps are
        // disjoint, in range, ascending, maximal, and together with the
        // present count they partition the query range exactly.
        let gap_total: u64 = gaps.iter().map(|(s, e)| e - s).sum();
        prop_assert_eq!(gap_total + mask.present_in(from, to) as u64, span);
        for w in gaps.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "gaps touch or overlap: {:?}", w);
        }
        for &(s, e) in &gaps {
            prop_assert!(from <= s && s < e && e <= to);
            // Maximality: the minute on each side (when in range) is present.
            if s > from {
                prop_assert!(mask.is_present(s - 1));
            }
            if e < to {
                prop_assert!(mask.is_present(e));
            }
        }
    }

    #[test]
    fn span_and_prefix_counts_are_consistent(
        start in 0u64..40,
        marks in prop::collection::vec(0u64..160, 0..80),
    ) {
        let (mask, model) = build(start, &marks);

        // The span grows to exactly the highest marked minute, never past.
        let highest = marks.iter().copied().filter(|&m| m >= start).max();
        match highest {
            Some(h) => {
                prop_assert_eq!(mask.end(), h + 1);
                prop_assert_eq!(mask.len() as u64, h + 1 - start);
                prop_assert!(!mask.is_empty());
            }
            None => {
                prop_assert!(mask.is_empty());
                prop_assert_eq!(mask.len(), 0);
            }
        }
        prop_assert_eq!(mask.start(), start);
        prop_assert_eq!(mask.end(), start + mask.len() as u64);

        // Prefix counts are the running sum of the model bits.
        let pfx = mask.prefix_counts();
        prop_assert_eq!(pfx.len(), mask.len() + 1);
        let mut acc = 0u32;
        for (i, &p) in pfx.iter().enumerate().skip(1) {
            acc += u32::from(model[start as usize + i - 1]);
            prop_assert_eq!(p, acc, "prefix {}", i);
        }
    }
}
