//! Detector abstraction and the sliding-window driver.
//!
//! Every method in the paper's evaluation "took a time window of x(i), …,
//! x(i+W) as its input" and "the time window moves forward every minute"
//! (§4.1). [`WindowScorer`] is that pure function; [`DetectorRunner`] adds
//! the operational policy: a declaration threshold, the 7-minute persistence
//! rule that separates level shifts and ramps from one-off events, and
//! re-arming so that one behaviour change produces one event.

use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_timeseries::window::SlidingWindows;

/// A pure window → change-score function.
pub trait WindowScorer {
    /// The window width `W` this scorer expects.
    fn window_len(&self) -> usize;

    /// Scores one window of exactly [`WindowScorer::window_len`] samples;
    /// higher means "more evidence of a behaviour change at/near the end of
    /// this window".
    fn score(&self, window: &[f64]) -> f64;

    /// A short name for tables and logs.
    fn name(&self) -> &'static str;

    /// `Some(score)` exactly when `score(window) >= threshold` — all the
    /// driver asks of a score. A scorer that can bound its score cheaply
    /// may answer `None` without computing it; the `Some` value is always
    /// the full score's bits.
    fn score_reaching(&self, window: &[f64], threshold: f64) -> Option<f64> {
        let score = self.score(window);
        (score >= threshold).then_some(score)
    }

    /// A [`WindowScorer::score_reaching`] for one detector run: the
    /// returned closure may own scratch it reuses from window to window.
    fn reaching_scorer(&self) -> impl FnMut(&[f64], f64) -> Option<f64> + '_ {
        move |window, threshold| self.score_reaching(window, threshold)
    }
}

/// A declared behaviour change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeEvent {
    /// Absolute minute at which the change was *declared* (the decision
    /// minute of the window that completed the persistence run).
    pub declared_at: MinuteBin,
    /// Absolute minute of the first window in the persistent run — the
    /// detector's estimate of when the change became visible.
    pub first_exceeded_at: MinuteBin,
    /// Peak score observed during the persistent run.
    pub peak_score: f64,
}

/// The threshold → run-length → peak → declare → re-arm state machine, fed
/// one scored window at a time. Batch runs and the streaming engine's
/// per-key monitors both hold one, so the persistence rule is written once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistenceRun {
    persistence: u32,
    len: u32,
    start: MinuteBin,
    peak: f64,
    armed: bool,
}

impl PersistenceRun {
    /// An armed, empty run declaring after `persistence` consecutive hits
    /// (clamped to at least 1).
    pub fn new(persistence: usize) -> Self {
        Self {
            persistence: u32::try_from(persistence.max(1)).unwrap_or(u32::MAX),
            len: 0,
            start: 0,
            peak: 0.0,
            armed: true,
        }
    }

    /// A window decided at `minute` scored `score`, at or above threshold.
    /// Returns the declaration when this hit completes the persistence
    /// requirement of an armed run — once per excursion.
    pub fn hit(&mut self, minute: MinuteBin, score: f64) -> Option<ChangeEvent> {
        if self.len == 0 {
            self.start = minute;
            self.peak = score;
        } else {
            self.peak = self.peak.max(score);
        }
        self.len = self.len.saturating_add(1);
        if !self.armed || self.len < self.persistence {
            return None;
        }
        self.armed = false;
        Some(ChangeEvent {
            declared_at: minute,
            first_exceeded_at: self.start,
            peak_score: self.peak,
        })
    }

    /// A window scored below threshold: the run ends and the detector
    /// re-arms.
    pub fn miss(&mut self) {
        self.len = 0;
        self.armed = true;
    }

    /// A window that could not be scored (too little measured data): the
    /// run is broken, but a declared event stays declared — a gap is not
    /// evidence the shift ended, so no re-arm.
    pub fn skip(&mut self) {
        self.len = 0;
    }
}

/// Result of a coverage-aware detector run ([`DetectorRunner::run_masked`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedRun {
    /// Declared changes (only from windows with adequate coverage).
    pub events: Vec<ChangeEvent>,
    /// Windows skipped because their measured-minute coverage fell below
    /// the threshold. A skipped window breaks any persistence run in
    /// progress: interpolated data must not count toward the 7-minute rule.
    pub skipped_windows: usize,
    /// Total windows the series yielded.
    pub total_windows: usize,
    /// Events refused by [`DetectorRunner::run_masked_gap_aware`] because
    /// their change point fell inside — or within one window-length of —
    /// a contiguous coverage gap at least `min_gap` minutes long. Nonzero
    /// means "a change may be hiding behind an unhealed partition": the
    /// caller should report `Inconclusive` and re-assess after backfill,
    /// not declare the item clean.
    pub suppressed_events: usize,
}

impl MaskedRun {
    /// Fraction of windows that were scoreable (1.0 = nothing skipped,
    /// 0.0 when the series yielded no windows at all).
    pub fn scored_fraction(&self) -> f64 {
        if self.total_windows == 0 {
            0.0
        } else {
            1.0 - self.skipped_windows as f64 / self.total_windows as f64
        }
    }
}

/// Threshold + persistence + re-arm driver around a [`WindowScorer`].
#[derive(Debug, Clone)]
pub struct DetectorRunner<S> {
    scorer: S,
    threshold: f64,
    persistence: usize,
}

impl<S: WindowScorer> DetectorRunner<S> {
    /// Creates a runner declaring a change after `persistence` consecutive
    /// windows score at or above `threshold`. `persistence` is clamped to a
    /// minimum of 1.
    pub fn new(scorer: S, threshold: f64, persistence: usize) -> Self {
        Self {
            scorer,
            threshold,
            persistence: persistence.max(1),
        }
    }

    /// The wrapped scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// The declaration threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The persistence requirement in windows (= minutes at 1-min bins).
    pub fn persistence(&self) -> usize {
        self.persistence
    }

    /// Runs the detector over a whole series, returning every declared
    /// change. After a declaration the runner re-arms once the score falls
    /// below threshold, so a single long-lived shift yields a single event.
    pub fn run(&self, series: &TimeSeries) -> Vec<ChangeEvent> {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DETECT);
        let events: Vec<ChangeEvent> = self.declarations(series).collect();
        funnel_obs::counter_add(funnel_obs::names::DETECT_CHANGE_POINTS, events.len() as u64);
        events
    }

    /// Coverage-aware [`DetectorRunner::run`]: windows whose fraction of
    /// truly measured minutes (per `mask`) falls below `min_coverage` are
    /// skipped instead of scored — forward-filled gaps carry no evidence,
    /// and scoring them manufactures both false positives (a fill plateau
    /// looks like a level shift ending) and false negatives (a real shift
    /// hidden inside a gap). Skipping a window also resets the persistence
    /// run, so a declaration always rests on `persistence` consecutive
    /// *measured* windows. With a fully-present mask the events are
    /// identical to [`DetectorRunner::run`].
    pub fn run_masked(
        &self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
    ) -> MaskedRun {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DETECT);
        let width = self.scorer.window_len();
        // O(1) per-window coverage via prefix sums over the mask.
        let pfx = mask.prefix_counts();
        let coverage_of = |from: MinuteBin, to: MinuteBin| -> f64 {
            debug_assert!(from < to);
            let lo = from.clamp(mask.start(), mask.end());
            let hi = to.clamp(mask.start(), mask.end());
            let present = pfx[(hi - mask.start()) as usize] - pfx[(lo - mask.start()) as usize];
            f64::from(present) / (to - from) as f64
        };

        let mut out = MaskedRun {
            events: Vec::new(),
            skipped_windows: 0,
            total_windows: 0,
            suppressed_events: 0,
        };
        let mut reaching = self.scorer.reaching_scorer();
        let mut state = PersistenceRun::new(self.persistence);

        for w in SlidingWindows::new(series, width) {
            out.total_windows += 1;
            let first_minute = w.decision_minute + 1 - width as u64;
            if coverage_of(first_minute, w.decision_minute + 1) < min_coverage {
                // Too much interpolation to score.
                out.skipped_windows += 1;
                state.skip();
                continue;
            }
            match reaching(w.values, self.threshold) {
                Some(score) => out.events.extend(state.hit(w.decision_minute, score)),
                None => state.miss(),
            }
        }
        funnel_obs::counter_add(
            funnel_obs::names::DETECT_CHANGE_POINTS,
            out.events.len() as u64,
        );
        out
    }

    /// [`DetectorRunner::run_masked`] hardened against *correlated*
    /// outages: any declared change whose change point
    /// ([`ChangeEvent::first_exceeded_at`]) falls inside — or within one
    /// window-length of — a contiguous coverage gap of at least `min_gap`
    /// minutes is refused and counted in
    /// [`MaskedRun::suppressed_events`] instead of returned.
    ///
    /// Per-window coverage thresholds already handle scattered per-frame
    /// loss, but a partition leaves one long gap whose forward-filled
    /// plateau ends in a step artifact exactly where the heal lands; a
    /// change point bordering such a gap is indistinguishable from that
    /// artifact until backfill restores the span. `min_gap` distinguishes
    /// the two regimes (use the persistence length: a gap long enough to
    /// fake the persistence rule). `min_gap` is clamped to a minimum of 1.
    pub fn run_masked_gap_aware(
        &self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
        min_gap: u64,
    ) -> MaskedRun {
        let mut out = self.run_masked(series, mask, min_coverage);
        let guard = self.scorer.window_len() as u64;
        let gaps: Vec<(MinuteBin, MinuteBin)> = mask
            .gaps_in(series.start(), series.end())
            .into_iter()
            .filter(|&(s, e)| e - s >= min_gap.max(1))
            .collect();
        if gaps.is_empty() {
            return out;
        }
        let before = out.events.len();
        out.events.retain(|ev| {
            !gaps.iter().any(|&(s, e)| {
                ev.first_exceeded_at + guard >= s && ev.first_exceeded_at < e + guard
            })
        });
        out.suppressed_events = before - out.events.len();
        funnel_obs::counter_add(
            funnel_obs::names::DETECT_GAP_SUPPRESSED,
            out.suppressed_events as u64,
        );
        out
    }

    /// Convenience: whether the series contains at least one declared
    /// change, and if so the first event.
    pub fn first_change(&self, series: &TimeSeries) -> Option<ChangeEvent> {
        // Early-exit variant of `run` (stops at the first declaration).
        self.declarations(series).next()
    }

    /// The declarations over `series`, lazily, in window order.
    fn declarations<'a>(
        &'a self,
        series: &'a TimeSeries,
    ) -> impl Iterator<Item = ChangeEvent> + 'a {
        let mut reaching = self.scorer.reaching_scorer();
        let mut state = PersistenceRun::new(self.persistence);
        SlidingWindows::new(series, self.scorer.window_len()).filter_map(move |w| {
            match reaching(w.values, self.threshold) {
                Some(score) => state.hit(w.decision_minute, score),
                None => {
                    state.miss();
                    None
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores 1.0 whenever the window mean exceeds 5, else 0.
    struct MeanScorer;
    impl WindowScorer for MeanScorer {
        fn window_len(&self) -> usize {
            4
        }
        fn score(&self, window: &[f64]) -> f64 {
            let m = window.iter().sum::<f64>() / window.len() as f64;
            if m > 5.0 {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "mean"
        }
    }

    fn step_series(pre: usize, post: usize) -> TimeSeries {
        let mut v = vec![0.0; pre];
        v.extend(vec![10.0; post]);
        TimeSeries::new(0, v)
    }

    #[test]
    fn persistence_filters_short_excursions() {
        // A 4-sample bump yields exactly 3 consecutive windows with mean > 5
        // (window width 4); persistence 5 ⇒ no event.
        let mut v = vec![0.0; 10];
        v.extend(vec![10.0; 4]);
        v.extend(vec![0.0; 10]);
        let series = TimeSeries::new(0, v);
        let r = DetectorRunner::new(MeanScorer, 0.5, 5);
        assert!(r.run(&series).is_empty());
        // Persistence 1 catches it.
        let r1 = DetectorRunner::new(MeanScorer, 0.5, 1);
        assert_eq!(r1.run(&series).len(), 1);
    }

    #[test]
    fn declaration_time_includes_persistence_wait() {
        let series = step_series(10, 20);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let events = r.run(&series);
        assert_eq!(events.len(), 1);
        let e = events[0];
        // First window with mean > 5: some minutes after onset (10);
        // declaration is persistence-1 windows later.
        assert_eq!(e.declared_at, e.first_exceeded_at + 6);
        assert!(e.peak_score >= 0.5);
    }

    #[test]
    fn rearm_produces_one_event_per_excursion() {
        let mut v = vec![0.0; 10];
        v.extend(vec![10.0; 10]);
        v.extend(vec![0.0; 10]);
        v.extend(vec![10.0; 10]);
        v.extend(vec![0.0; 5]);
        let series = TimeSeries::new(0, v);
        let r = DetectorRunner::new(MeanScorer, 0.5, 3);
        assert_eq!(r.run(&series).len(), 2);
    }

    #[test]
    fn long_shift_is_single_event() {
        let series = step_series(10, 50);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert_eq!(r.run(&series).len(), 1);
    }

    #[test]
    fn first_change_matches_run() {
        let series = step_series(10, 20);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert_eq!(r.first_change(&series), r.run(&series).first().copied());
        let quiet = TimeSeries::new(0, vec![0.0; 30]);
        assert_eq!(r.first_change(&quiet), None);
    }

    #[test]
    fn persistence_clamped_to_one() {
        let r = DetectorRunner::new(MeanScorer, 0.5, 0);
        assert_eq!(r.persistence(), 1);
    }

    #[test]
    fn full_mask_matches_unmasked_run() {
        let series = step_series(10, 20);
        let mask = CoverageMask::all_present(0, series.len());
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let masked = r.run_masked(&series, &mask, 0.8);
        assert_eq!(masked.events, r.run(&series));
        assert_eq!(masked.skipped_windows, 0);
        assert_eq!(masked.scored_fraction(), 1.0);
    }

    #[test]
    fn low_coverage_windows_are_skipped_not_scored() {
        let series = step_series(10, 20);
        // Nothing was really measured: every window must be skipped and no
        // change declared, even though the (filled) values contain a step.
        let mask = CoverageMask::new(0);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let masked = r.run_masked(&series, &mask, 0.8);
        assert!(masked.events.is_empty());
        assert_eq!(masked.skipped_windows, masked.total_windows);
        assert_eq!(masked.scored_fraction(), 0.0);
    }

    #[test]
    fn gap_adjacent_change_point_is_suppressed() {
        // Real step at minute 30, and a 10-minute unhealed gap right before
        // it (20..30): the step's change point borders the gap, so it is
        // indistinguishable from the fill plateau ending — refused.
        let series = step_series(30, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(20..30).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let plain = r.run_masked(&series, &mask, 0.5);
        assert_eq!(plain.events.len(), 1);
        assert_eq!(plain.suppressed_events, 0);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert!(aware.events.is_empty());
        assert_eq!(aware.suppressed_events, 1);
    }

    #[test]
    fn change_point_far_from_gap_survives_gap_awareness() {
        // Gap at 5..15, step at minute 40: window-length guard (4) does not
        // reach the change point, so the event stands.
        let series = step_series(40, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(5..15).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert_eq!(aware.events.len(), 1);
        assert_eq!(aware.suppressed_events, 0);
        assert_eq!(aware.events, r.run_masked(&series, &mask, 0.5).events);
    }

    #[test]
    fn short_gaps_do_not_trigger_suppression() {
        // A 2-minute hole right before the step is ordinary frame loss, not
        // a partition: below min_gap, the event stands.
        let series = step_series(30, 30);
        let mut mask = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(27..29).contains(&minute) {
                mask.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.run_masked_gap_aware(&series, &mask, 0.5, 7);
        assert_eq!(aware.events.len(), 1);
        assert_eq!(aware.suppressed_events, 0);
    }

    #[test]
    fn full_mask_gap_aware_matches_run_masked() {
        let series = step_series(10, 20);
        let mask = CoverageMask::all_present(0, series.len());
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        assert_eq!(
            r.run_masked_gap_aware(&series, &mask, 0.8, 7),
            r.run_masked(&series, &mask, 0.8)
        );
    }

    #[test]
    fn gap_breaks_persistence_run() {
        // Step at minute 10; persistence 7 with window width 4 ⇒ declaration
        // needs 7 consecutive scoreable windows after onset. Punch a hole in
        // the middle of that run: the declaration must come later than with
        // a full mask (the run restarts after the gap).
        let series = step_series(10, 30);
        let full = CoverageMask::all_present(0, series.len());
        let mut holed = CoverageMask::new(0);
        for minute in 0..series.len() as u64 {
            if !(16..=17).contains(&minute) {
                holed.mark(minute);
            }
        }
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let clean = r.run_masked(&series, &full, 0.95);
        let degraded = r.run_masked(&series, &holed, 0.95);
        assert_eq!(clean.events.len(), 1);
        assert_eq!(degraded.events.len(), 1);
        assert!(degraded.skipped_windows > 0);
        assert!(
            degraded.events[0].declared_at > clean.events[0].declared_at,
            "gap must delay the declaration ({} vs {})",
            degraded.events[0].declared_at,
            clean.events[0].declared_at
        );
    }
}
