//! Detector abstraction and the sliding-window driver.
//!
//! Every method in the paper's evaluation "took a time window of x(i), …,
//! x(i+W) as its input" and "the time window moves forward every minute"
//! (§4.1). [`WindowScorer`] is that pure function; [`DetectorRunner`] adds
//! the operational policy: a declaration threshold, the 7-minute persistence
//! rule that separates level shifts and ramps from one-off events, and
//! re-arming so that one behaviour change produces one event.
//!
//! The persistence rule is also what decides *which windows are scored*. A
//! declaration needs `persistence` consecutive hits, so a window whose run
//! of neighbours that may reach the threshold is shorter than that can never
//! carry one, whatever it scores. [`PersistenceRun`] therefore asks every
//! window only the scorer's cheap exact bound
//! ([`ReachingScorer::may_reach`]), holds the candidates unscored, and runs
//! the kernel only once a declaration is reachable. An armed run then walks
//! back from the newest held window, the only one that can complete a run,
//! and stops at the first miss: one scored miss rules out every window
//! behind it. Events, counts and peaks are those of scoring every window.
//! Before either question goes to the scorer the pass's memory
//! ([`crate::outcomes`]) is asked whether an earlier run over the same
//! samples already put it; the answer is the same bits either way.
//!
//! A verdict needs one declaration, not every one, so
//! [`DetectorRunner::decide`] asks only the windows it rests on: a definite
//! miss leaves the rule "no run, armed" whatever came before it, so the
//! loop starts after the last one before the windows the verdict can read,
//! and stops at the declaration it takes. [`DetectorRunner::decide_in`]
//! asks through a scorer handle the caller keeps, so a worker deciding item
//! after item builds its scorer's scratch once.

use crate::outcomes::{Outcome, Outcomes};
use funnel_sst::Unscreened;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use std::ops::Range;

pub use funnel_sst::ReachingScorer;

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

    /// This scorer's [`ReachingScorer`] for one detector run — all the
    /// driver asks of it: whether a window may reach the threshold, and its
    /// score when it does. The handle may own scratch it reuses from window
    /// to window. A scorer with no cheap bound keeps this default: every
    /// window is a candidate, decided by score-then-compare.
    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        Unscreened(move |window: &[f64], threshold| {
            let score = self.score(window);
            (score >= threshold).then_some(score)
        })
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

/// Where a [`PersistenceRun`] re-reads a window it held back unscored.
pub trait WindowSource {
    /// The samples of the window decided at `minute`, oldest first, or
    /// `None` when they are no longer retained.
    fn window_at(&mut self, minute: MinuteBin) -> Option<&[f64]>;
}

/// The windows of a dense series, addressed by decision minute.
#[derive(Clone, Copy)]
struct SeriesWindows<'a> {
    series: &'a TimeSeries,
    width: usize,
}

impl<'a> SeriesWindows<'a> {
    fn get(&self, minute: MinuteBin) -> Option<&'a [f64]> {
        let to = minute.checked_add(1)?;
        let from = to.checked_sub(self.width as u64)?;
        let window = self.series.slice(from, to);
        (window.len() == self.width).then_some(window)
    }

    /// The decision minutes of the first and the last window, `None` when
    /// the series yields none.
    fn decided(&self) -> Option<(MinuteBin, MinuteBin)> {
        let width = self.width as u64;
        let len = self.series.len() as u64;
        (width > 0 && len >= width)
            .then(|| (self.series.start() + width - 1, self.series.end() - 1))
    }
}

impl WindowSource for SeriesWindows<'_> {
    fn window_at(&mut self, minute: MinuteBin) -> Option<&[f64]> {
        self.get(minute)
    }
}

/// What became of the windows offered to a [`PersistenceRun`]: every window
/// that was not skipped for coverage is screened, scored (by the kernel or
/// from the pass's memory), dropped or still held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowTally {
    /// Definite misses: the bound alone ruled the window out.
    pub screened: u64,
    /// Candidates the scoring kernel was run for.
    pub scored: u64,
    /// Candidates let go unscored because no declaration could rest on them:
    /// those held when a definite miss, a skip or the end arrives, and those
    /// older than a held window that scored a miss.
    pub dropped: u64,
    /// Answers the run needed: a bound for every offered window, a score
    /// for every candidate a declaration could still rest on.
    pub asked: u64,
    /// Of those, the answers recalled from the pass's
    /// [`Outcomes`] instead of asked of the scorer.
    pub reused: u64,
}

impl WindowTally {
    /// Adds the three counts to the `detect.windows.*` counters, in the
    /// current timeline window — once per detector run or stream tick, never
    /// per window.
    pub fn emit_counters(&self) {
        let window = funnel_obs::timeline::current_window();
        for (name, n) in [
            (funnel_obs::names::DETECT_WINDOWS_SCREENED, self.screened),
            (funnel_obs::names::DETECT_WINDOWS_SCORED, self.scored),
            (funnel_obs::names::DETECT_WINDOWS_DROPPED, self.dropped),
        ] {
            funnel_obs::counter_add(name, window, n);
        }
    }
}

impl std::ops::AddAssign for WindowTally {
    fn add_assign(&mut self, other: Self) {
        self.screened += other.screened;
        self.scored += other.scored;
        self.dropped += other.dropped;
        self.asked += other.asked;
        self.reused += other.reused;
    }
}

/// What a [`PersistenceRun`] scores with: the run's (or stream key's)
/// scorer handle, the declaration threshold, where held windows are re-read
/// from, the memory of answers already given, and the tally of what became
/// of each window.
pub struct ScoringPass<'a, R, H, O> {
    /// Answers the bound and the score.
    pub scorer: &'a mut R,
    /// The declaration threshold.
    pub threshold: f64,
    /// Re-reads the windows held back unscored.
    pub held: H,
    /// Asked before the scorer; told what the scorer answers. `()` knows
    /// and keeps nothing.
    pub outcomes: O,
    /// Counts what became of the windows, and how many answers were
    /// recalled rather than asked.
    pub tally: WindowTally,
}

impl<R: ReachingScorer, H, O: Outcomes> ScoringPass<'_, R, H, O> {
    /// What is known of the window decided at `minute` before any score:
    /// the memory's answer, or else the bound's (`Screened` or `Candidate`,
    /// recorded).
    fn ask_bound(&mut self, minute: MinuteBin, window: &[f64]) -> Outcome {
        self.tally.asked += 1;
        match self.outcomes.recall(minute) {
            Outcome::Unknown => {
                let outcome = if self.scorer.may_reach(window, self.threshold) {
                    Outcome::Candidate
                } else {
                    Outcome::Screened
                };
                self.outcomes.record(minute, outcome);
                outcome
            }
            known => {
                self.tally.reused += 1;
                known
            }
        }
    }

    /// The score of the held window decided at `minute` when it reaches the
    /// threshold, `None` when it misses: the memory's answer, or else the
    /// kernel's, re-read from the source and recorded. A window its source no
    /// longer retains counts as a miss, but is not remembered as one: nothing
    /// was learnt about its samples.
    fn score_at(&mut self, minute: MinuteBin) -> Option<f64>
    where
        H: WindowSource,
    {
        self.tally.asked += 1;
        match self.outcomes.recall(minute) {
            Outcome::Reached(score) => {
                self.tally.reused += 1;
                Some(score)
            }
            Outcome::Below => {
                self.tally.reused += 1;
                None
            }
            _ => {
                self.tally.scored += 1;
                self.held.window_at(minute).and_then(|window| {
                    let reached = self.scorer.score_reaching(window, self.threshold);
                    self.outcomes
                        .record(minute, reached.map_or(Outcome::Below, Outcome::Reached));
                    reached
                })
            }
        }
    }
}

/// The threshold → run-length → peak → declare → re-arm state machine, and
/// the planner of its own scoring. Batch runs and the streaming engine's
/// per-key monitors both hold one, so the persistence rule — and the rule
/// for which windows it needs scored — is written once.
///
/// Each offered window is first asked the scorer's bound. A definite miss
/// ends the run at once. A candidate is *held*: its score is computed only
/// once a declaration is reachable:
///
/// * armed, a run of `len` hits followed by `pending` held candidates can
///   declare iff `len + pending ≥ persistence`;
/// * disarmed (a declaration stands, no miss since), only a miss followed
///   by a full run can: `pending ≥ persistence + 1`.
///
/// Reachability is checked as each window is offered, so an armed run
/// resolves at exactly `len + pending = persistence`, where only the newest
/// held window can complete a run. Its held windows are scored newest
/// first, down to the first miss: the hits after that miss become the run,
/// and the candidates before it are dropped unscored, since no run through
/// the miss exists. With no miss, the run declares on the newest window. A
/// disarmed run needs the miss first, so it scores oldest first until one
/// misses, then resolves armed.
///
/// Whatever is held when a definite miss, a re-prime or the end of the
/// series arrives is dropped unscored: no declaration was reachable among
/// those windows, and the state after them is "no run, armed" either way.
/// So the declarations — minute, start and peak bits — are exactly those of
/// scoring every window, and a declaration still lands on the window that
/// completes its run: reachability first holds when that window is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistenceRun {
    persistence: u32,
    len: u32,
    start: MinuteBin,
    peak: f64,
    armed: bool,
    /// Candidates held unscored: the windows decided at the `pending`
    /// consecutive minutes ending at `newest`.
    pending: u32,
    newest: MinuteBin,
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
            pending: 0,
            newest: 0,
        }
    }

    /// The next window, decided at `minute` — one minute after the previous
    /// window unless the run was broken in between. Returns the declaration
    /// when this window completes the persistence requirement of an armed
    /// run — once per excursion.
    pub fn offer_window<R: ReachingScorer, H: WindowSource, O: Outcomes>(
        &mut self,
        minute: MinuteBin,
        window: &[f64],
        pass: &mut ScoringPass<'_, R, H, O>,
    ) -> Option<ChangeEvent> {
        if pass.ask_bound(minute, window) == Outcome::Screened {
            pass.tally.screened += 1;
            self.break_run(&mut pass.tally);
            return None;
        }
        self.pending = self.pending.saturating_add(1);
        self.newest = minute;
        while self.declaration_reachable() {
            if self.armed {
                return self.resolve_newest_first(pass);
            }
            self.score_oldest(pass);
        }
        None
    }

    /// A window that could not be scored (too little measured data): the
    /// run is broken, but a declared event stays declared — a gap is not
    /// evidence the shift ended, so no re-arm. Held candidates of a
    /// disarmed run are resolved first: a miss hidden among them would have
    /// re-armed it.
    pub fn skip_window<R: ReachingScorer, H: WindowSource, O: Outcomes>(
        &mut self,
        pass: &mut ScoringPass<'_, R, H, O>,
    ) {
        while !self.armed && self.pending > 0 {
            self.score_oldest(pass);
        }
        self.drop_pending(&mut pass.tally);
        self.len = 0;
    }

    /// The run ends and the detector re-arms — a window below threshold, or
    /// history rewritten under a streaming monitor. Held candidates are
    /// dropped: none of them could have carried a declaration.
    pub fn break_run(&mut self, tally: &mut WindowTally) {
        self.drop_pending(tally);
        self.len = 0;
        self.armed = true;
    }

    /// Lets go of whatever is held — also the end of a finite series, where
    /// the held windows can never be joined by those a declaration needs.
    fn drop_pending(&mut self, tally: &mut WindowTally) {
        tally.dropped += u64::from(self.pending);
        self.pending = 0;
    }

    /// Whether the held candidates, all scoring as hits, could still
    /// complete a declaration.
    fn declaration_reachable(&self) -> bool {
        if self.armed {
            // `len < persistence` while armed, so this implies `pending > 0`.
            self.len.saturating_add(self.pending) >= self.persistence
        } else {
            self.pending > self.persistence
        }
    }

    /// Scores the oldest held candidate of a disarmed run: a miss re-arms
    /// it. A hit changes nothing a disarmed run reads.
    fn score_oldest<R: ReachingScorer, H: WindowSource, O: Outcomes>(
        &mut self,
        pass: &mut ScoringPass<'_, R, H, O>,
    ) {
        self.pending = self.pending.saturating_sub(1);
        let minute = self.newest.saturating_sub(u64::from(self.pending));
        if pass.score_at(minute).is_none() {
            self.len = 0;
            self.armed = true;
        }
    }

    /// Resolves an armed run at `len + pending = persistence`, walking back
    /// from the newest held window to the first miss. The hits after it
    /// become the run; every held window before it is dropped unscored.
    /// With no miss the run is complete and declares on the newest window.
    ///
    /// The peak is folded newest first, each older score on the left, which
    /// keeps every operand where oldest-first `peak.max(score)` has it:
    /// `f64::max` may return either zero of a `±0.0` tie, but is associative
    /// in one build, so the bits are those of the oldest-first fold.
    fn resolve_newest_first<R: ReachingScorer, H: WindowSource, O: Outcomes>(
        &mut self,
        pass: &mut ScoringPass<'_, R, H, O>,
    ) -> Option<ChangeEvent> {
        let held = std::mem::take(&mut self.pending);
        let mut peak = 0.0;
        for walked in 0..held {
            let minute = self.newest.saturating_sub(u64::from(walked));
            let Some(score) = pass.score_at(minute) else {
                pass.tally.dropped += u64::from(held - walked - 1);
                self.len = walked;
                self.start = minute.saturating_add(1);
                self.peak = peak;
                return None;
            };
            peak = if walked == 0 { score } else { score.max(peak) };
        }
        if self.len == 0 {
            self.start = self
                .newest
                .saturating_sub(u64::from(held.saturating_sub(1)));
            self.peak = peak;
        } else {
            self.peak = self.peak.max(peak);
        }
        self.len = self.len.saturating_add(held);
        self.armed = false;
        Some(ChangeEvent {
            declared_at: self.newest,
            first_exceeded_at: self.start,
            peak_score: self.peak,
        })
    }
}

/// Which minutes of a series were not really measured, and the two rules
/// [`DetectorRunner::decide`] draws from them.
///
/// * A window with under `min_coverage` of its minutes measured is skipped,
///   not judged: forward-filled data carries no evidence, and scoring it
///   makes false positives (a fill plateau ending looks like a level shift)
///   and false negatives (a shift hidden inside a gap). A skip breaks the
///   persistence run in progress, so a declaration rests on `persistence`
///   consecutive *measured* windows, but does not re-arm: a gap is no
///   evidence that a declared shift ended.
/// * A declaration whose change point ([`ChangeEvent::first_exceeded_at`])
///   lies inside, or within one window length of, a gap of at least
///   `min_gap` minutes (clamped to 1) is refused. Scattered loss is the
///   first rule's job; a partition leaves one long gap whose fill plateau
///   ends in a step exactly where the heal lands, and a change point
///   bordering it cannot be told from that step until backfill restores the
///   span. The persistence length is the gap to use: the shortest whose
///   plateau could fake the persistence rule.
///
/// The gaps are the mask's, listed once by whoever holds the mask
/// (`CoverageMask::gaps_in` over a span covering the series): the pipeline
/// reads an item's coverage fraction and partition flag off the same list.
#[derive(Debug, Clone, Copy)]
pub struct Coverage<'a> {
    /// The maximal runs of unmeasured minutes, as half-open `(start, end)`
    /// pairs in ascending order, over a span that covers the series; the
    /// part outside the series is clipped away.
    pub gaps: &'a [(MinuteBin, MinuteBin)],
    /// The fraction of measured minutes a window needs to be judged.
    pub min_coverage: f64,
    /// The shortest gap whose neighbourhood refuses a change point.
    pub min_gap: u64,
}

impl Coverage<'_> {
    /// The gaps within `[from, to)`, each clipped to it. A maximal run over
    /// a covering span, clipped, is a maximal run over the smaller one.
    fn gaps_within(
        &self,
        from: MinuteBin,
        to: MinuteBin,
    ) -> impl Iterator<Item = (MinuteBin, MinuteBin)> + '_ {
        self.gaps.iter().filter_map(move |&(s, e)| {
            let (s, e) = (s.max(from), e.min(to));
            (s < e).then_some((s, e))
        })
    }
}

/// What [`DetectorRunner::decide`] found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The first declaration at or after the verdict's minute that the gap
    /// rule lets stand.
    pub event: Option<ChangeEvent>,
    /// Whether the gap rule refused a declaration made before it — any
    /// declaration of the run, when there is no `event`.
    pub refused: bool,
}

/// Threshold + persistence + re-arm driver around a [`WindowScorer`], with
/// the memory its runs recall answers from (`()`: none).
#[derive(Debug, Clone)]
pub struct DetectorRunner<S, O = ()> {
    scorer: S,
    threshold: f64,
    persistence: usize,
    outcomes: O,
}

impl<S: WindowScorer> DetectorRunner<S> {
    /// Creates a runner declaring a change after `persistence` consecutive
    /// windows score at or above `threshold` (0 declares as 1 does).
    pub fn new(scorer: S, threshold: f64, persistence: usize) -> Self {
        Self {
            scorer,
            threshold,
            persistence,
            outcomes: (),
        }
    }

    /// This runner, recalling from `outcomes` what an earlier run — same
    /// scorer, same threshold, the same samples minute for minute — already
    /// asked. Its runs read the memory and never write it.
    pub fn recalling<O: Outcomes>(self, outcomes: O) -> DetectorRunner<S, O> {
        DetectorRunner {
            scorer: self.scorer,
            threshold: self.threshold,
            persistence: self.persistence,
            outcomes,
        }
    }
}

impl<S: WindowScorer, O: Outcomes> DetectorRunner<S, O> {
    /// The wrapped scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// Runs the detector over a whole series, returning every declared
    /// change. After a declaration the runner re-arms once the score falls
    /// below threshold, so a single long-lived shift yields a single event.
    pub fn run(&self, series: &TimeSeries) -> Vec<ChangeEvent> {
        let mut scorer = self.scorer.reaching_scorer();
        self.run_observed(&mut scorer, series, |_| false, 0, |_| false)
    }

    /// [`DetectorRunner::drive_windows`] under the detection span, with the
    /// run's counters written once.
    fn run_observed(
        &self,
        scorer: &mut impl ReachingScorer,
        series: &TimeSeries,
        unmeasured: impl FnMut(MinuteBin) -> bool,
        reset_before: MinuteBin,
        stop: impl FnMut(&ChangeEvent) -> bool,
    ) -> Vec<ChangeEvent> {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DETECT);
        let (events, tally) = self.drive_windows(scorer, series, unmeasured, reset_before, stop);
        tally.emit_counters();
        self.outcomes.run_ended(tally);
        funnel_obs::counter_add(
            funnel_obs::names::DETECT_CHANGE_POINTS,
            funnel_obs::timeline::current_window(),
            events.len() as u64,
        );
        events
    }

    /// Whether the window decided at a minute of `series` has too little
    /// measured data to be judged: under `min_coverage` of its minutes
    /// measured. Without `coverage` every window is measured.
    fn unmeasured(
        &self,
        series: &TimeSeries,
        coverage: Option<Coverage<'_>>,
    ) -> impl Fn(MinuteBin) -> bool {
        let width = self.scorer.window_len();
        let (start, end) = (series.start(), series.end());
        // O(1) per window: `measured[i]` counts the measured minutes among
        // the first `i` of the series.
        let min_coverage = coverage.map_or(0.0, |c| c.min_coverage);
        let measured: Option<Vec<u32>> = coverage.map(|c| {
            let mut gaps = c.gaps_within(start, end).peekable();
            let mut count = 0;
            std::iter::once(0)
                .chain((start..end).map(|minute| {
                    while gaps.next_if(|&(_, e)| e <= minute).is_some() {}
                    count += u32::from(gaps.peek().is_none_or(|&(s, _)| s > minute));
                    count
                }))
                .collect()
        });
        move |decision_minute| {
            measured.as_ref().is_some_and(|measured| {
                let to = (decision_minute + 1 - start) as usize;
                let present = measured[to] - measured[to - width];
                f64::from(present) / (width as f64) < min_coverage
            })
        }
    }

    /// Where a change point must not start for its declaration to stand:
    /// within one window length of a gap of at least `min_gap` minutes
    /// (clamped to 1) over the span of `series`, in ascending order.
    fn refusal_zones(&self, series: &TimeSeries, coverage: Coverage<'_>) -> Vec<Range<MinuteBin>> {
        let guard = self.scorer.window_len() as u64;
        coverage
            .gaps_within(series.start(), series.end())
            .filter(|&(s, e)| e - s >= coverage.min_gap.max(1))
            .map(|(s, e)| s.saturating_sub(guard)..e + guard)
            .collect()
    }

    /// The declaration a verdict at minute `from` rests on. The windows of
    /// `series` go to the persistence rule in order, each skipped or judged
    /// and each declaration refused or let stand as `coverage` says (with
    /// none, every window is judged and nothing is refused). `event` is the
    /// first declaration at or after `from` that stands; `refused` is
    /// whether one declared before it was refused.
    ///
    /// Only the windows those two answers rest on are asked. A definite miss
    /// leaves the persistence rule "no run, armed" whatever came before it,
    /// and a coverage skip is no reset (it keeps `armed`), so every
    /// declaration after a miss is a function of the windows after it. The
    /// loop therefore starts after the last definite miss decided before
    /// `limit = min(from, gap_start − W)` over every refusing gap — earlier
    /// declarations started before `limit`, outside every refusal zone, and
    /// before `from` — and stops at the declaration it returns.
    pub fn decide(
        &self,
        series: &TimeSeries,
        coverage: Option<Coverage<'_>>,
        from: MinuteBin,
    ) -> Decision {
        self.decide_in(&mut self.scorer.reaching_scorer(), series, coverage, from)
    }

    /// [`DetectorRunner::decide`], asking through `scorer`: a handle of this
    /// runner's scorer that the caller keeps from one series to the next. A
    /// handle answers every window as a fresh one would
    /// ([`ReachingScorer`]), so one that walked other series first decides
    /// with the same bits; what it keeps is the scratch a fresh handle
    /// would build.
    pub fn decide_in(
        &self,
        scorer: &mut impl ReachingScorer,
        series: &TimeSeries,
        coverage: Option<Coverage<'_>>,
        from: MinuteBin,
    ) -> Decision {
        let zones = coverage.map_or_else(Vec::new, |c| self.refusal_zones(series, c));
        let refused = |event: &ChangeEvent| {
            zones
                .iter()
                .any(|zone| zone.contains(&event.first_exceeded_at))
        };
        let decisive = |event: &ChangeEvent| event.declared_at >= from && !refused(event);
        let limit = zones
            .iter()
            .map(|zone| zone.start)
            .fold(from, MinuteBin::min);
        let unmeasured = self.unmeasured(series, coverage);
        let events = self.run_observed(scorer, series, unmeasured, limit, decisive);
        Decision {
            event: events.last().copied().filter(decisive),
            refused: events.iter().any(refused),
        }
    }

    /// The one scoring loop. It starts after the last definite miss decided
    /// before `reset_before` (at the first window when there is none, or
    /// when `reset_before` is 0); from there every window, in order, is
    /// either skipped (`unmeasured` says its decision minute lacks coverage)
    /// or offered to the persistence rule, which decides what gets scored —
    /// and takes from the runner's memory, and from the walk back to the
    /// start, the answers they hold. It stops after the first declaration
    /// `stop` accepts, and returns the declarations and the tally of the
    /// windows from the start on.
    fn drive_windows(
        &self,
        scorer: &mut impl ReachingScorer,
        series: &TimeSeries,
        mut unmeasured: impl FnMut(MinuteBin) -> bool,
        reset_before: MinuteBin,
        mut stop: impl FnMut(&ChangeEvent) -> bool,
    ) -> (Vec<ChangeEvent>, WindowTally) {
        let windows = SeriesWindows {
            series,
            width: self.scorer.window_len(),
        };
        let mut events = Vec::new();
        let mut pass = ScoringPass {
            scorer,
            threshold: self.threshold,
            held: windows,
            outcomes: Scanned {
                memory: &self.outcomes,
                candidates: 0..0,
            },
            tally: WindowTally::default(),
        };
        let Some((first, last)) = windows.decided() else {
            return (events, pass.tally);
        };
        let start = after_last_miss(&mut pass, first, last, reset_before, &mut unmeasured);
        pass.outcomes.candidates = start..reset_before.min(last + 1);
        let mut state = PersistenceRun::new(self.persistence);
        for minute in start..=last {
            if unmeasured(minute) {
                state.skip_window(&mut pass);
                continue;
            }
            let Some(window) = windows.get(minute) else {
                break;
            };
            if let Some(event) = state.offer_window(minute, window, &mut pass) {
                events.push(event);
                if stop(&event) {
                    break;
                }
            }
        }
        state.drop_pending(&mut pass.tally);
        (events, pass.tally)
    }
}

/// The decision minute a run starts at that needs only the declarations
/// after the windows decided before `before`: the one after the latest
/// definite miss decided before `before`, or `first`. Walking back from the
/// window decided at `before − 1` (or `last`), an unmeasured window is
/// passed over, and every other is asked the memory first and the bound
/// second; a recalled `Below` or a `Screened` ends the walk, a candidate
/// (whose score is unknown) does not.
fn after_last_miss<R: ReachingScorer, O: Outcomes>(
    pass: &mut ScoringPass<'_, R, SeriesWindows<'_>, O>,
    first: MinuteBin,
    last: MinuteBin,
    before: MinuteBin,
    unmeasured: &mut impl FnMut(MinuteBin) -> bool,
) -> MinuteBin {
    let windows = pass.held;
    let mut minute = before.min(last + 1);
    while minute > first {
        minute -= 1;
        if unmeasured(minute) {
            continue;
        }
        let Some(window) = windows.get(minute) else {
            break;
        };
        match pass.ask_bound(minute, window) {
            Outcome::Screened => {
                pass.tally.screened += 1;
                return minute + 1;
            }
            Outcome::Below => return minute + 1,
            _ => {}
        }
    }
    first
}

/// A run's memory, and what its walk back learnt: no measured window decided
/// in `candidates` is a definite miss. The forward pass offered one the
/// memory does not know is told `Candidate`, which is what the bound said
/// when the walk asked it, so no window's bound is asked twice in one run.
struct Scanned<O> {
    memory: O,
    candidates: Range<MinuteBin>,
}

impl<O: Outcomes> Outcomes for Scanned<O> {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        match self.memory.recall(minute) {
            Outcome::Unknown if self.candidates.contains(&minute) => Outcome::Candidate,
            known => known,
        }
    }

    fn record(&mut self, minute: MinuteBin, outcome: Outcome) {
        self.memory.record(minute, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnel_timeseries::mask::CoverageMask;

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
    fn held_windows_cost_the_run_two_integers() {
        // Per-key stream state: a count and a minute, never the samples.
        assert!(std::mem::size_of::<PersistenceRun>() <= 40);
    }

    #[test]
    fn persistence_zero_declares_as_one_does() {
        let mut v = vec![0.0; 10];
        v.extend(vec![10.0; 4]);
        v.extend(vec![0.0; 10]);
        v.extend(vec![10.0; 20]);
        let series = TimeSeries::new(0, v);
        let zero = DetectorRunner::new(MeanScorer, 0.5, 0);
        let one = DetectorRunner::new(MeanScorer, 0.5, 1);
        assert_eq!(zero.run(&series).len(), 2);
        assert_eq!(zero.run(&series), one.run(&series));
        assert_eq!(
            zero.decide(&series, None, 20),
            one.decide(&series, None, 20)
        );
    }

    /// The gaps of `0..len` when every minute is measured but those in
    /// `hole`.
    fn gaps_without(len: usize, hole: Range<MinuteBin>) -> Vec<(MinuteBin, MinuteBin)> {
        let mut mask = CoverageMask::new(0);
        for minute in (0..len as u64).filter(|m| !hole.contains(m)) {
            mask.mark(minute);
        }
        mask.gaps_in(0, len as u64)
    }

    fn coverage(
        gaps: &[(MinuteBin, MinuteBin)],
        min_coverage: f64,
        min_gap: u64,
    ) -> Option<Coverage<'_>> {
        Some(Coverage {
            gaps,
            min_coverage,
            min_gap,
        })
    }

    #[test]
    fn full_mask_decides_as_no_mask() {
        let series = step_series(10, 20);
        let gaps = CoverageMask::all_present(0, series.len()).gaps_in(0, series.len() as u64);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let unmasked = r.decide(&series, None, 0);
        assert!(unmasked.event.is_some());
        assert_eq!(r.decide(&series, coverage(&gaps, 0.8, 7), 0), unmasked);
    }

    #[test]
    fn low_coverage_windows_are_skipped_not_scored() {
        // Nothing was really measured: every window must be skipped and no
        // change declared, even though the (filled) values contain a step.
        let series = step_series(10, 20);
        let gaps = CoverageMask::new(0).gaps_in(0, series.len() as u64);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let decision = r.decide(&series, coverage(&gaps, 0.8, 7), 0);
        assert_eq!((decision.event, decision.refused), (None, false));
    }

    #[test]
    fn gap_adjacent_change_point_is_suppressed() {
        // Real step at minute 30, and a 10-minute unhealed gap right before
        // it (20..30): the step's change point borders the gap, so it is
        // indistinguishable from the fill plateau ending — refused.
        let series = step_series(30, 30);
        let gaps = gaps_without(series.len(), 20..30);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let plain = r.decide(&series, coverage(&gaps, 0.5, u64::MAX), 0);
        assert!(plain.event.is_some() && !plain.refused);
        let aware = r.decide(&series, coverage(&gaps, 0.5, 7), 0);
        assert_eq!((aware.event, aware.refused), (None, true));
    }

    #[test]
    fn change_point_far_from_gap_survives_gap_awareness() {
        // Gap at 5..15, step at minute 40: window-length guard (4) does not
        // reach the change point, so the event stands.
        let series = step_series(40, 30);
        let gaps = gaps_without(series.len(), 5..15);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.decide(&series, coverage(&gaps, 0.5, 7), 0);
        assert!(aware.event.is_some() && !aware.refused);
        assert_eq!(aware, r.decide(&series, coverage(&gaps, 0.5, u64::MAX), 0));
    }

    #[test]
    fn short_gaps_do_not_trigger_suppression() {
        // A 2-minute hole right before the step is ordinary frame loss, not
        // a partition: below min_gap, the event stands.
        let series = step_series(30, 30);
        let gaps = gaps_without(series.len(), 27..29);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let aware = r.decide(&series, coverage(&gaps, 0.5, 7), 0);
        assert!(aware.event.is_some() && !aware.refused);
    }

    #[test]
    fn gap_breaks_persistence_run() {
        // Step at minute 10; persistence 7 with window width 4 ⇒ declaration
        // needs 7 consecutive scoreable windows after onset. Punch a hole in
        // the middle of that run: the declaration must come later than with
        // a full mask (the run restarts after the gap).
        let series = step_series(10, 30);
        let full = CoverageMask::all_present(0, series.len()).gaps_in(0, series.len() as u64);
        let holed = gaps_without(series.len(), 16..18);
        let r = DetectorRunner::new(MeanScorer, 0.5, 7);
        let clean = r
            .decide(&series, coverage(&full, 0.95, 7), 0)
            .event
            .unwrap();
        let degraded = r
            .decide(&series, coverage(&holed, 0.95, 7), 0)
            .event
            .unwrap();
        assert!(
            degraded.declared_at > clean.declared_at,
            "gap must delay the declaration ({} vs {})",
            degraded.declared_at,
            clean.declared_at
        );
    }
}
