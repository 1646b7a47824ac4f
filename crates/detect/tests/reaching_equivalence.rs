//! The driver's screened path declares exactly what score-then-compare
//! declares.
//!
//! [`DetectorRunner`] asks its scorer `score_reaching`, which `FastSst`
//! answers from the Eq. 11 bound without scoring most windows. The oracle
//! is the same scorer behind a wrapper that implements only `score()`, so
//! the trait's defaults (full score, then `>=`) run instead. Every entry
//! point must return the same [`ChangeEvent`]s, `peak_score` bits included.

use funnel_detect::detector::{ChangeEvent, DetectorRunner, MaskedRun, WindowScorer};
use funnel_detect::sst_adapter::SstDetector;
use funnel_sst::{FastSst, SstConfig};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use proptest::prelude::*;

/// Hides every override of the wrapped detector: only `score()` is real.
struct ScoreOnly(SstDetector<FastSst>);

impl WindowScorer for ScoreOnly {
    fn window_len(&self) -> usize {
        self.0.window_len()
    }
    fn score(&self, window: &[f64]) -> f64 {
        self.0.score(window)
    }
    fn name(&self) -> &'static str {
        "score-only"
    }
}

/// Noise around a level that steps up, back down and ramps, so runs start,
/// end, re-arm and are cut by gaps; one non-finite sample on odd seeds.
fn series(seed: u64, len: usize) -> TimeSeries {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (up, down) = (len / 4, len / 2);
    let step = 2.0 + 10.0 * next();
    let mut values: Vec<f64> = (0..len)
        .map(|i| {
            let level = match i {
                i if i < up => 0.0,
                i if i < down => step,
                i => 0.05 * step * (i - down) as f64,
            };
            50.0 + level + next()
        })
        .collect();
    if !seed.is_multiple_of(2) {
        values[len / 3] = f64::NAN;
    }
    TimeSeries::new(1000, values)
}

/// Present everywhere except one partition-length gap and scattered
/// single-minute losses.
fn mask(seed: u64, series: &TimeSeries) -> CoverageMask {
    let len = series.len() as u64;
    let gap_at = seed % len;
    let gap = gap_at..gap_at + 5 + seed % 20;
    let mut mask = CoverageMask::new(series.start());
    for i in 0..len {
        if !gap.contains(&i) && !i.wrapping_add(seed).is_multiple_of(23) {
            mask.mark(series.start() + i);
        }
    }
    mask
}

fn bits(events: &[ChangeEvent]) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .map(|e| (e.declared_at, e.first_exceeded_at, e.peak_score.to_bits()))
        .collect()
}

fn masked_bits(run: &MaskedRun) -> (Vec<(u64, u64, u64)>, usize, usize, usize) {
    (
        bits(&run.events),
        run.skipped_windows,
        run.total_windows,
        run.suppressed_events,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_entry_point_matches_score_then_compare(
        seed in any::<u64>(),
        persistence in 1usize..9,
    ) {
        let series = series(seed, 240);
        let mask = mask(seed, &series);
        let scorer = || SstDetector::fast(FastSst::new(SstConfig::paper_default()));
        let mut declared = 0;
        for threshold in [0.5, 0.0, 2.5, -1.0, f64::NAN] {
            let screened = DetectorRunner::new(scorer(), threshold, persistence);
            let oracle = DetectorRunner::new(ScoreOnly(scorer()), threshold, persistence);

            let events = screened.run(&series);
            declared += events.len();
            prop_assert_eq!(bits(&events), bits(&oracle.run(&series)), "run @ {}", threshold);
            prop_assert_eq!(
                bits(screened.first_change(&series).as_slice()),
                bits(oracle.first_change(&series).as_slice()),
                "first_change @ {}", threshold
            );
            prop_assert_eq!(
                masked_bits(&screened.run_masked(&series, &mask, 0.8)),
                masked_bits(&oracle.run_masked(&series, &mask, 0.8)),
                "run_masked @ {}", threshold
            );
            prop_assert_eq!(
                masked_bits(&screened.run_masked_gap_aware(&series, &mask, 0.8, 7)),
                masked_bits(&oracle.run_masked_gap_aware(&series, &mask, 0.8, 7)),
                "run_masked_gap_aware @ {}", threshold
            );
        }
        prop_assert!(declared > 0, "the scenario never declared: nothing was compared");
    }
}
