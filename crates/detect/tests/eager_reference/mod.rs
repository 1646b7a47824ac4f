//! The frozen eager detector: the scoring loop as it shipped before the
//! persistence rule became the planner of its own scoring.
//!
//! Every unskipped window is handed to the scorer's `score_reaching` the
//! moment it is reached, and the hit or miss is fed to a persistence
//! counter that knows nothing about scoring. Copied from
//! `detect/src/detector.rs` and `core/src/stream.rs` at that commit, with
//! the obs calls dropped and the scorer taken as a
//! `FnMut(&[f64], f64) -> Option<f64>` — what `reaching_scorer()` used to
//! return. Do not "fix" or modernise this file: it is the oracle the
//! deferred driver is compared with, bit for bit. Included by path from
//! `detect/tests/detector_equivalence.rs`,
//! `core/tests/stream_equivalence.rs` and the root `tests/end_to_end.rs`.

#![allow(
    dead_code,
    reason = "three test crates include this oracle and each calls a different part of it"
)]

use funnel_detect::detector::ChangeEvent;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_timeseries::window::SlidingWindows;

/// What a coverage-aware eager run returned (the shipped struct of the
/// same name at that commit).
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedRun {
    /// Declared changes, from windows with adequate coverage only.
    pub events: Vec<ChangeEvent>,
    /// Windows skipped for coverage.
    pub skipped_windows: usize,
    /// Windows the series yielded.
    pub total_windows: usize,
    /// Events refused by the gap rule.
    pub suppressed_events: usize,
}

/// The threshold → run-length → peak → declare → re-arm state machine, fed
/// one scored window at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EagerPersistenceRun {
    persistence: u32,
    len: u32,
    start: MinuteBin,
    peak: f64,
    armed: bool,
}

impl EagerPersistenceRun {
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

    /// A window scored below threshold: the run ends, the detector re-arms.
    pub fn miss(&mut self) {
        self.len = 0;
        self.armed = true;
    }

    /// A window that could not be scored: the run is broken, no re-arm.
    pub fn skip(&mut self) {
        self.len = 0;
    }
}

/// The eager `DetectorRunner`: `reaching` is the scorer's
/// `score_reaching`, `width` its window length.
pub struct EagerRunner<F> {
    pub reaching: F,
    pub width: usize,
    pub threshold: f64,
    pub persistence: usize,
}

impl<F: FnMut(&[f64], f64) -> Option<f64>> EagerRunner<F> {
    pub fn run(&mut self, series: &TimeSeries) -> Vec<ChangeEvent> {
        self.declarations(series, usize::MAX)
    }

    pub fn first_change(&mut self, series: &TimeSeries) -> Option<ChangeEvent> {
        self.declarations(series, 1).first().copied()
    }

    /// The first `limit` declarations over `series`, in window order (the
    /// shipped form was a lazy iterator; `take(limit)` is its early exit).
    fn declarations(&mut self, series: &TimeSeries, limit: usize) -> Vec<ChangeEvent> {
        let mut state = EagerPersistenceRun::new(self.persistence.max(1));
        let (reaching, threshold) = (&mut self.reaching, self.threshold);
        SlidingWindows::new(series, self.width)
            .filter_map(move |w| match reaching(w.values, threshold) {
                Some(score) => state.hit(w.decision_minute, score),
                None => {
                    state.miss();
                    None
                }
            })
            .take(limit)
            .collect()
    }

    pub fn run_masked(
        &mut self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
    ) -> MaskedRun {
        let width = self.width;
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
        let mut state = EagerPersistenceRun::new(self.persistence.max(1));

        for w in SlidingWindows::new(series, width) {
            out.total_windows += 1;
            let first_minute = w.decision_minute + 1 - width as u64;
            if coverage_of(first_minute, w.decision_minute + 1) < min_coverage {
                // Too much interpolation to score.
                out.skipped_windows += 1;
                state.skip();
                continue;
            }
            match (self.reaching)(w.values, self.threshold) {
                Some(score) => out.events.extend(state.hit(w.decision_minute, score)),
                None => state.miss(),
            }
        }
        out
    }

    pub fn run_masked_gap_aware(
        &mut self,
        series: &TimeSeries,
        mask: &CoverageMask,
        min_coverage: f64,
        min_gap: u64,
    ) -> MaskedRun {
        let mut out = self.run_masked(series, mask, min_coverage);
        let guard = self.width as u64;
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
        out
    }
}

/// `(declared_at, first_exceeded_at, peak_score bits)` of each event.
pub fn event_bits(events: &[ChangeEvent]) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .map(|e| (e.declared_at, e.first_exceeded_at, e.peak_score.to_bits()))
        .collect()
}

/// Every field of a [`MaskedRun`], events as [`event_bits`].
pub fn masked_bits(run: &MaskedRun) -> (Vec<(u64, u64, u64)>, usize, usize, usize) {
    (
        event_bits(&run.events),
        run.skipped_windows,
        run.total_windows,
        run.suppressed_events,
    )
}
