//! KPI data-quality screening.
//!
//! The paper notes that "there might exist some KPIs of dubious quality"
//! and that FUNNEL deliberately "detects all KPI changes in the impact set
//! regardless of the quality of the KPI, and delivers the results to the
//! operations team" (§2.2). This module implements the screening step the
//! paper leaves to the operators: it never suppresses a verdict, it only
//! *annotates* KPIs whose data looks untrustworthy, so the operations team
//! can triage deliveries faster.

use funnel_timeseries::stats::RobustSummary;

/// Reasons a KPI's data may be untrustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityIssue {
    /// The series is (nearly) constant — a stuck collector or an unused
    /// counter; change detection on it is vacuous.
    Constant,
    /// A large fraction of bins is exactly zero — usually gaps filled by
    /// the collection substrate rather than real measurements.
    MostlyZero,
    /// The series takes very few distinct values — heavy quantization
    /// (e.g. a gauge rounded to integers spanning three values) breaks the
    /// SST's subspace geometry.
    Quantized,
    /// Extreme outliers dominate the series (max deviation over 50 robust
    /// sigmas) — telemetry glitches that will dominate any matrix method.
    GlitchOutliers,
    /// This work unit's assessment panicked (a poisoned input) and the
    /// fan-out caught it rather than lose the whole change: the data was
    /// never fully assessed. Set by [`crate::parallel`], not by screening.
    Quarantined,
    /// The streaming engine's load-shedding policy dropped this work unit's
    /// re-scores while it was under assessment (tick budget exhausted, or
    /// its window went stale past the watermark), so no trustworthy verdict
    /// exists: the engine degrades to `Inconclusive` rather than stalling
    /// ingest or guessing from stale data. Set by [`crate::stream`], not by
    /// screening.
    LoadShed,
}

/// The screening verdict for one KPI series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QualityReport {
    /// Issues found, in detection order; empty means the data looks sound.
    pub issues: Vec<QualityIssue>,
}

impl QualityReport {
    /// Whether the KPI passed every check.
    pub fn is_good(&self) -> bool {
        self.issues.is_empty()
    }
}

// Screening thresholds, tuned loose: the goal is annotating clearly bad
// data, not judging marginal data.

/// Flag `Constant` when the robust coefficient of variation (MAD /
/// |median|) is below this and the absolute MAD is negligible.
const CONSTANT_REL_MAD: f64 = 1e-6;
/// Flag `MostlyZero` when more than this fraction of bins is exactly zero.
const ZERO_FRACTION: f64 = 0.5;
/// Flag `Quantized` when fewer than this many distinct values occur (and the
/// series is long enough for that to be suspicious).
const MIN_DISTINCT: usize = 4;
/// Flag `GlitchOutliers` when any point deviates more than this many robust
/// sigmas.
const GLITCH_SIGMAS: f64 = 50.0;

/// Screens one KPI window, `xs`, selecting in `select` (cleared first; a
/// worker lends the same buffer to every item it assesses).
///
/// The median and MAD come from one [`RobustSummary`], two selections. The
/// distinct values are counted by bit pattern, as a sort and dedup of the
/// bits would count them, but the scan stops at the `MIN_DISTINCT`th:
/// `Quantized` asks only whether there are fewer.
pub fn assess_quality(xs: &[f64], select: &mut Vec<f64>) -> QualityReport {
    let mut issues = Vec::new();
    if xs.is_empty() {
        return QualityReport {
            issues: vec![QualityIssue::Constant],
        };
    }

    let RobustSummary {
        median: med,
        mad: m,
    } = RobustSummary::of_with(xs, select);

    if m <= CONSTANT_REL_MAD * med.abs().max(1.0) {
        issues.push(QualityIssue::Constant);
    }

    let zeros = xs.iter().filter(|&&x| x == 0.0).count();
    if zeros as f64 > ZERO_FRACTION * xs.len() as f64 {
        issues.push(QualityIssue::MostlyZero);
    }

    if xs.len() >= 4 * MIN_DISTINCT
        && !issues.contains(&QualityIssue::Constant)
        && fewer_distinct_than_min(xs, select)
    {
        issues.push(QualityIssue::Quantized);
    }

    if m > 0.0 {
        let worst = xs.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
        if worst > GLITCH_SIGMAS * m {
            issues.push(QualityIssue::GlitchOutliers);
        }
    }

    QualityReport { issues }
}

/// Whether `xs` holds fewer than [`MIN_DISTINCT`] distinct bit patterns,
/// keeping the ones seen so far in `seen` (cleared first).
fn fewer_distinct_than_min(xs: &[f64], seen: &mut Vec<f64>) -> bool {
    seen.clear();
    for &x in xs {
        if !seen.iter().any(|s| s.to_bits() == x.to_bits()) {
            if seen.len() + 1 == MIN_DISTINCT {
                return false;
            }
            seen.push(x);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: Vec<f64>) -> QualityReport {
        assess_quality(&values, &mut Vec::new())
    }

    #[test]
    fn healthy_series_is_good() {
        let vals: Vec<f64> = (0..100)
            .map(|i| 50.0 + ((i * 37) % 17) as f64 * 0.5)
            .collect();
        assert!(check(vals).is_good());
    }

    #[test]
    fn constant_flagged() {
        let r = check(vec![7.0; 60]);
        assert!(r.issues.contains(&QualityIssue::Constant));
    }

    #[test]
    fn mostly_zero_flagged() {
        let mut vals = vec![0.0; 80];
        for i in (0..80).step_by(5) {
            vals[i] = 10.0 + i as f64;
        }
        let r = check(vals);
        assert!(r.issues.contains(&QualityIssue::MostlyZero));
    }

    #[test]
    fn quantized_flagged() {
        let vals: Vec<f64> = (0..100).map(|i| (i % 3) as f64).collect();
        let r = check(vals);
        assert!(r.issues.contains(&QualityIssue::Quantized), "{r:?}");
    }

    #[test]
    fn glitch_flagged() {
        let mut vals: Vec<f64> = (0..100).map(|i| 50.0 + ((i * 13) % 7) as f64).collect();
        vals[40] = 1e7;
        let r = check(vals);
        assert!(r.issues.contains(&QualityIssue::GlitchOutliers));
    }

    #[test]
    fn empty_series_is_constant() {
        let r = check(vec![]);
        assert_eq!(r.issues, vec![QualityIssue::Constant]);
    }

    /// The screen by its definition, as it was written before it selected:
    /// median and MAD apart (three selections), and the distinct values
    /// counted by sorting and deduplicating every bit pattern.
    fn by_sorting(xs: &[f64]) -> QualityReport {
        use funnel_timeseries::stats::{mad, median};
        let mut issues = Vec::new();
        if xs.is_empty() {
            return QualityReport {
                issues: vec![QualityIssue::Constant],
            };
        }
        let med = median(xs);
        let m = mad(xs);
        if m <= CONSTANT_REL_MAD * med.abs().max(1.0) {
            issues.push(QualityIssue::Constant);
        }
        let zeros = xs.iter().filter(|&&x| x == 0.0).count();
        if zeros as f64 > ZERO_FRACTION * xs.len() as f64 {
            issues.push(QualityIssue::MostlyZero);
        }
        if xs.len() >= 4 * MIN_DISTINCT {
            let mut distinct: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() < MIN_DISTINCT && !issues.contains(&QualityIssue::Constant) {
                issues.push(QualityIssue::Quantized);
            }
        }
        if m > 0.0 {
            let worst = xs.iter().map(|x| (x - med).abs()).fold(0.0, f64::max);
            if worst > GLITCH_SIGMAS * m {
                issues.push(QualityIssue::GlitchOutliers);
            }
        }
        QualityReport { issues }
    }

    /// Values that sit on an edge of some check: both zeros, the
    /// non-finite ones, a glitch and a plain sample.
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e7,
        1.0,
        -2.5,
    ];

    use proptest::prelude::*;

    /// A seeded stream of samples: one in four an edge, the rest uniform in
    /// `[-1000, 1000)`.
    fn samples(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            match state % 4 {
                0 => EDGES[(state >> 3) as usize % EDGES.len()],
                _ => 2000.0 * unit - 1000.0,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random windows, edges mixed in, of every length up to well
        /// past `4 * MIN_DISTINCT`; the buffer is the dirty one a worker
        /// lends from its previous item.
        #[test]
        fn the_screen_matches_its_sorting_definition(
            seed in any::<u64>(),
            len in 0usize..40,
            dirty in 0usize..40,
        ) {
            let mut next = samples(seed);
            let xs: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut select: Vec<f64> = (0..dirty).map(|_| next()).collect();
            prop_assert_eq!(assess_quality(&xs, &mut select), by_sorting(&xs));
        }

        /// Windows of one to five distinct values, edges among them, at
        /// lengths around `4 * MIN_DISTINCT`: where `Quantized` and
        /// `Constant` turn.
        #[test]
        fn few_distinct_values_screen_as_sorting_does(
            seed in any::<u64>(),
            distinct in 1usize..6,
            len in 4 * MIN_DISTINCT - 3..4 * MIN_DISTINCT + 4,
            picks in prop::collection::vec(any::<prop::sample::Index>(), 4 * MIN_DISTINCT + 4),
        ) {
            let mut next = samples(seed);
            let values: Vec<f64> = (0..distinct).map(|_| next()).collect();
            let xs: Vec<f64> = picks[..len].iter().map(|i| values[i.index(distinct)]).collect();
            prop_assert_eq!(assess_quality(&xs, &mut Vec::new()), by_sorting(&xs));
        }
    }

    #[test]
    fn named_windows_screen_as_sorting_does() {
        let n = 4 * MIN_DISTINCT;
        let signed_zeros: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let windows = [
            vec![7.0; n],
            vec![0.0; n],
            signed_zeros,
            (0..n).map(|i| (i % 3) as f64).collect(),
            (0..n).map(|i| (i % 4) as f64).collect(),
            (0..n).map(|i| (i % 5) as f64).collect(),
            (0..n - 1).map(|i| (i % 3) as f64).collect(),
            (0..n).map(|i| EDGES[i % EDGES.len()]).collect(),
            vec![f64::NAN; n],
        ];
        for xs in windows {
            assert_eq!(
                assess_quality(&xs, &mut Vec::new()),
                by_sorting(&xs),
                "{xs:?}"
            );
        }
    }
}
