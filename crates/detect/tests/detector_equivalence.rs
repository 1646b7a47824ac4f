//! The shipped detector declares what the frozen eager loop declared, and
//! asks only what it needs to.
//!
//! One oracle: `eager_reference`, the loop as it shipped before the
//! persistence rule planned its own scoring, every window scored on the
//! spot. Every event is compared by its bits. `run` is checked on scripted
//! scorers (bound and score chosen independently, or no bound, or `±0.0`
//! hits at threshold 0), on `FastSst`
//! at five thresholds and on CUSUM and MRLS; `decide` on the last three
//! and on scripted cases of 0–159 windows, under masks with holes and
//! partition-length gaps or none, `from` before, inside or past the span,
//! with `()` or a random `WindowOutcomes` for a memory. A decision is the
//! eager run's first retained event at or after `from`, plus whether the
//! gap rule suppressed one before it; the bounds asked are exactly the
//! measured windows the memory does not know from the reset (the last
//! definite miss before `limit`) to the stop; and the tally counts every
//! answer. A `PersistenceRun` reading what a monitor-shaped run wrote is the
//! run with `()` for a memory, and `WindowOutcomes` is a `BTreeMap` with a
//! horizon.
//!
//! Mutations this file must catch (each was run, each fails). In
//! `detector.rs`: (1) the walk resets on an unmeasured window; (2) `let limit
//! = from;` (3) `decide` stops at the first declaration at or after `from`
//! without the gap check; (4) the walk takes a recalled `Candidate` for a
//! miss; (5) the walk starts at the window decided at `limit`, not `limit −
//! 1` (answers right, fails the asked-window check); (6) `candidates =
//! start..start` (a bound the walk asked is asked again); (7) `candidates =
//! start..last + 1` (a window the walk did not pass over taken for a
//! candidate); (8) `ask_bound` answers a recalled `Below` as `Screened`; (9)
//! `score_at` answers a recalled `Candidate` as a miss; (10) it records a
//! held window its source no longer retains as `Below`; (11) a disarmed run
//! deems a declaration reachable at `pending ≥ persistence`; (12)
//! `skip_window` drops a disarmed run's held candidates unresolved; (15) an
//! armed run scores its held windows oldest first, as a disarmed one does
//! (fails `a_candidate_miss_rules_out_its_whole_run`); (16)
//! `resolve_newest_first` folds its peak as `peak.max(score)`, the older
//! score on the right (fails `signed_zero_peaks_keep_the_eager_bits`); (17)
//! it does not count the windows before a miss as dropped. In
//! `outcomes.rs`: (13) the retained span moves on without clearing the tags
//! it steps over; (14) `forget_from` keeps the scores.

mod eager_reference;

use eager_reference::{event_bits, EagerRunner};
use funnel_detect::cusum::CusumDetector;
use funnel_detect::detector::{
    ChangeEvent, Coverage, Decision, DetectorRunner, PersistenceRun, ReachingScorer, ScoringPass,
    WindowScorer, WindowSource, WindowTally,
};
use funnel_detect::mrls::MrlsDetector;
use funnel_detect::outcomes::{Outcome, Outcomes, WindowOutcomes};
use funnel_detect::sst_adapter::SstDetector;
use funnel_sst::{FastSst, SstConfig};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;

/// The minute the first scripted window is decided at.
const START: u64 = 1000;
const THRESHOLD: f64 = 1.0;

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the script says of the window decided at one minute: a definite
/// miss iff `bound < threshold`, and its full score.
#[derive(Debug, Clone, Copy)]
struct Step {
    bound: f64,
    score: f64,
}

const fn step(bound: f64, score: f64) -> Step {
    Step { bound, score }
}

/// A definite miss: the bound alone rules it out.
const MISS: Step = step(0.25, 0.125);
/// A candidate that misses: the bound lets it by, the score falls short.
const CANDIDATE_MISS: Step = step(3.0, 0.5);

/// A hit scoring `score` (≥ the threshold), under a bound that lets it by.
fn hit(score: f64) -> Step {
    assert!(score >= THRESHOLD);
    step(score + 0.5, score)
}

/// Sticky stretches of hits, definite misses, candidates that miss, NaN
/// scores, NaN bounds (which screen nothing) and infinite bounds over a near
/// miss, so that runs of every length around the persistence length occur.
fn random_steps(seed: u64, windows: usize) -> Vec<Step> {
    let mut next = xorshift(seed);
    let mut kind = 0;
    (0..windows)
        .map(|_| {
            if next() < 0.35 {
                kind = (next() * 8.0) as usize;
            }
            let (high, low) = (THRESHOLD + 2.0 * next(), 0.9 * next());
            match kind {
                0..=2 => hit(high),
                3 => MISS,
                4 => CANDIDATE_MISS,
                5 => step(2.0, f64::NAN),
                6 => step(f64::NAN, if next() < 0.6 { high } else { low }),
                _ => step(f64::INFINITY, THRESHOLD - f64::EPSILON),
            }
        })
        .collect()
}

/// Scores by script. Every sample is its own minute, so a window's last
/// sample names the minute it is decided at. Logs what it is asked.
struct Scripted {
    width: usize,
    steps: Vec<Step>,
    /// Whether the bound is consulted (`false`: no bound at all).
    screens: bool,
    /// The minutes whose bound, and whose score, the scorer was asked.
    asked: RefCell<(Vec<u64>, Vec<u64>)>,
}

impl Scripted {
    fn new(width: usize, steps: Vec<Step>, screens: bool) -> Self {
        Self {
            width,
            steps,
            screens,
            asked: RefCell::default(),
        }
    }

    /// The same script with an empty log.
    fn fresh(&self) -> Self {
        Self::new(self.width, self.steps.clone(), self.screens)
    }

    /// One sample a minute, the first window decided at `START`.
    fn series(&self) -> TimeSeries {
        let first = START + 1 - self.width as u64;
        let end = START + self.steps.len() as u64;
        TimeSeries::new(first, (first..end).map(|m| m as f64).collect())
    }

    fn minute_of(&self, window: &[f64]) -> u64 {
        let (first, last) = (window[0] as u64, *window.last().unwrap() as u64);
        assert!(window.len() == self.width && first + self.width as u64 - 1 == last);
        last
    }

    fn step(&self, minute: u64) -> Step {
        self.steps[(minute - START) as usize]
    }

    /// Whether the bound rules out the window decided at `minute`.
    fn screened(&self, minute: u64) -> bool {
        self.screens && self.step(minute).bound < THRESHOLD
    }

    /// The window's outcome once scored.
    fn scored(&self, minute: u64) -> Outcome {
        Some(self.step(minute).score)
            .filter(|&score| score >= THRESHOLD)
            .map_or(Outcome::Below, Outcome::Reached)
    }

    fn take_log(&self) -> (Vec<u64>, Vec<u64>) {
        self.asked.take()
    }
}

impl WindowScorer for Scripted {
    fn window_len(&self) -> usize {
        self.width
    }
    fn score(&self, window: &[f64]) -> f64 {
        let minute = self.minute_of(window);
        self.asked.borrow_mut().1.push(minute);
        self.step(minute).score
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        self
    }
}

impl ReachingScorer for &Scripted {
    fn may_reach(&mut self, window: &[f64], _threshold: f64) -> bool {
        let minute = self.minute_of(window);
        self.asked.borrow_mut().0.push(minute);
        !self.screened(minute)
    }
    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        Some(self.score(window)).filter(|&score| score >= threshold)
    }
}

/// The eager loop over any scorer, score every window then compare: all its
/// declarations, and those the gap rule retains (all, with no coverage).
fn eager_run<S: WindowScorer>(
    scorer: &S,
    threshold: f64,
    persistence: usize,
    series: &TimeSeries,
    coverage: Option<&Masked<'_>>,
) -> (Vec<ChangeEvent>, Vec<ChangeEvent>) {
    let mut oracle = EagerRunner {
        reaching: |window: &[f64], threshold: f64| {
            Some(scorer.score(window)).filter(|&s| s >= threshold)
        },
        width: scorer.window_len(),
        threshold,
        persistence,
    };
    let Some(c) = coverage else {
        let all = oracle.run(series);
        return (all.clone(), all);
    };
    let all = oracle.run_masked(series, c.mask, c.min_coverage).events;
    let aware = oracle.run_masked_gap_aware(series, c.mask, c.min_coverage, c.min_gap);
    assert_eq!(aware.suppressed_events, all.len() - aware.events.len());
    (all, aware.events)
}

/// A decision by the definition: the first retained event declared at or
/// after `from`, by its bits, and whether one declared before was refused.
fn first_retained(
    (all, retained): &(Vec<ChangeEvent>, Vec<ChangeEvent>),
    from: u64,
) -> (Vec<(u64, u64, u64)>, bool) {
    let event = retained.iter().copied().find(|e| e.declared_at >= from);
    let cut = event.map_or(u64::MAX, |e| e.declared_at);
    let before = |events: &[ChangeEvent]| events.iter().filter(|e| e.declared_at < cut).count();
    (event_bits(event.as_slice()), before(all) > before(retained))
}

fn decision_bits(decision: Decision) -> (Vec<(u64, u64, u64)>, bool) {
    (event_bits(decision.event.as_slice()), decision.refused)
}

/// Scattered holes at a random rate under a fifth, and up to two gaps of
/// 3–17 minutes anywhere, the series' end included.
fn random_mask(series: &TimeSeries, next: &mut impl FnMut() -> f64) -> CoverageMask {
    let len = series.len() as u64;
    let holes = 0.2 * next();
    let gaps: Vec<Range<u64>> = (0..(next() * 3.0) as usize)
        .map(|_| {
            let at = (next() * len as f64) as u64;
            at..at + 3 + (next() * 15.0) as u64
        })
        .collect();
    let mut mask = CoverageMask::new(series.start());
    for i in 0..len {
        if !gaps.iter().any(|gap| gap.contains(&i)) && next() >= holes {
            mask.mark(series.start() + i);
        }
    }
    mask
}

/// A mask, the gaps `decide` reads off it, and the two thresholds. The
/// gaps run past the series' end, as an assessment window's may when its
/// series stops short: `decide` clips them.
struct Masked<'a> {
    mask: &'a CoverageMask,
    gaps: Vec<(u64, u64)>,
    min_coverage: f64,
    min_gap: u64,
}

impl Masked<'_> {
    fn coverage(&self) -> Coverage<'_> {
        Coverage {
            gaps: &self.gaps,
            min_coverage: self.min_coverage,
            min_gap: self.min_gap,
        }
    }
}

fn coverage<'a>(
    series: &TimeSeries,
    mask: &'a CoverageMask,
    min_coverage: f64,
    min_gap: u64,
) -> Masked<'a> {
    Masked {
        mask,
        gaps: mask.gaps_in(series.start(), series.end() + 9),
        min_coverage,
        min_gap,
    }
}

/// Asserts that `run`, and `decide` at each of `froms` with and without
/// `coverage`, match the eager loop; returns the number of `run` events.
fn assert_matches_eager<S: WindowScorer>(
    scorer: S,
    threshold: f64,
    persistence: usize,
    series: &TimeSeries,
    coverage: &Masked<'_>,
    froms: &[u64],
    context: &str,
) -> usize {
    let shipped = DetectorRunner::new(scorer, threshold, persistence);
    let events = event_bits(&shipped.run(series));
    for coverage in [None, Some(coverage)] {
        let want = eager_run(shipped.scorer(), threshold, persistence, series, coverage);
        if coverage.is_none() {
            assert_eq!(events, event_bits(&want.0), "run: {context}");
        }
        for &from in froms {
            let got = shipped.decide(series, coverage.map(Masked::coverage), from);
            let masked = coverage.is_some();
            let want = first_retained(&want, from);
            assert_eq!(decision_bits(got), want, "{from}, {masked}: {context}");
        }
    }
    events.len()
}

/// The memory a checked `decide` reads, and the tally of its run.
struct Watched<'a> {
    memory: Option<&'a WindowOutcomes>,
    tally: Cell<WindowTally>,
}

impl Outcomes for Watched<'_> {
    fn recall(&self, minute: u64) -> Outcome {
        self.memory.map_or(Outcome::Unknown, |m| m.recall(minute))
    }
    fn record(&mut self, _minute: u64, _outcome: Outcome) {}
    fn run_ended(&self, tally: WindowTally) {
        self.tally.set(tally);
    }
}

/// One `decide` against the eager definition, and what it asked against the
/// windows the answer rests on; returns the decision and the scores it cost.
fn check_case(
    scorer: &Scripted,
    persistence: usize,
    coverage: Option<&Masked<'_>>,
    from: u64,
    memory: Option<&WindowOutcomes>,
) -> (Decision, usize) {
    let series = scorer.series();
    let width = scorer.width as u64;
    let (first, last) = (START, START + scorer.steps.len() as u64 - 1);
    let want = eager_run(&scorer.fresh(), THRESHOLD, persistence, &series, coverage);
    let watched = Watched {
        memory,
        tally: Cell::default(),
    };
    let runner = DetectorRunner::new(scorer.fresh(), THRESHOLD, persistence).recalling(&watched);
    let decision = runner.decide(&series, coverage.map(Masked::coverage), from);
    let (mut bounds, scores) = runner.scorer().take_log();
    prop_assert_eq!(decision_bits(decision), first_retained(&want, from));

    // The windows the answer rests on, from the definition of the reset.
    let known = |minute: u64| watched.recall(minute);
    let measured = |minute: u64| {
        coverage.is_none_or(|c| c.mask.coverage(minute + 1 - width, minute + 1) >= c.min_coverage)
    };
    let definite_miss = |minute: u64| match known(minute) {
        Outcome::Screened | Outcome::Below => true,
        Outcome::Unknown => scorer.screened(minute),
        Outcome::Candidate | Outcome::Reached(_) => false,
    };
    let limit = coverage.map_or(from, |c| {
        let gaps = c.mask.gaps_in(series.start(), series.end());
        let refusing = gaps.into_iter().filter(|&(s, e)| e - s >= c.min_gap.max(1));
        refusing
            .map(|(s, _)| s.saturating_sub(width))
            .fold(from, u64::min)
    });
    let reset = (first..limit.min(last + 1))
        .rev()
        .find(|&m| measured(m) && definite_miss(m));
    let begin = reset.map_or(first, |r| r + 1);
    let stop = decision.event.map_or(last, |e| e.declared_at);

    // Every bound the answer needs, none twice, none before the reset or
    // after the stop, none the memory knows.
    let needed: Vec<u64> = (reset.unwrap_or(first)..=stop)
        .filter(|&m| measured(m) && known(m) == Outcome::Unknown)
        .collect();
    bounds.sort_unstable();
    prop_assert_eq!(&bounds, &needed, "reset {:?}, stop {}", reset, stop);
    let rests_on = |&m: &u64| {
        (begin..=stop).contains(&m) && matches!(known(m), Outcome::Unknown | Outcome::Candidate)
    };
    prop_assert!(scores.iter().all(rests_on), "{scores:?}");
    let tally = watched.tally.get();
    let (asked, scored) = ((bounds.len() + scores.len()) as u64, scores.len() as u64);
    prop_assert_eq!((tally.asked - tally.reused, tally.scored), (asked, scored));
    (decision, scores.len())
}

/// The `width`-wide windows of a scripted series, re-read from `oldest` on.
struct Kept<'a> {
    series: &'a TimeSeries,
    width: u64,
    oldest: u64,
}

impl WindowSource for Kept<'_> {
    fn window_at(&mut self, minute: u64) -> Option<&[f64]> {
        let window = self.series.slice(minute + 1 - self.width, minute + 1);
        (minute >= self.oldest).then_some(window)
    }
}

/// What a scripted `PersistenceRun` does with one minute's window.
#[derive(Clone, Copy)]
enum Then {
    Offer,
    /// Skip it for coverage.
    Skip,
    /// Re-prime the run, then offer it.
    Rearm,
}

/// A `PersistenceRun` over the scripted windows decided in `minutes`, each
/// as `plan` says, held ones re-read from `oldest(minute)` on.
fn persistence_run(
    scorer: &Scripted,
    persistence: usize,
    minutes: Range<u64>,
    outcomes: impl Outcomes,
    oldest: impl Fn(u64) -> u64,
    mut plan: impl FnMut(u64) -> Then,
) -> (Vec<ChangeEvent>, WindowTally, PersistenceRun) {
    let (series, width) = (scorer.series(), scorer.width as u64);
    let mut handle = scorer.reaching_scorer();
    let mut pass = ScoringPass {
        scorer: &mut handle,
        threshold: THRESHOLD,
        held: Kept {
            series: &series,
            width,
            oldest: 0,
        },
        outcomes,
        tally: WindowTally::default(),
    };
    let mut run = PersistenceRun::new(persistence);
    let mut events = Vec::new();
    for minute in minutes {
        pass.held.oldest = oldest(minute);
        match plan(minute) {
            Then::Skip => run.skip_window(&mut pass),
            then => {
                if let Then::Rearm = then {
                    run.break_run(&mut pass.tally);
                }
                let window = series.slice(minute + 1 - width, minute + 1);
                events.extend(run.offer_window(minute, window, &mut pass));
            }
        }
    }
    (events, pass.tally, run)
}

/// The memory's contract, written the slow way.
struct Model {
    retained: u64,
    start: u64,
    end: u64,
    known: BTreeMap<u64, Outcome>,
}

impl Model {
    fn record(&mut self, minute: u64, outcome: Outcome) {
        if minute < self.start {
            return;
        }
        if minute >= self.end {
            self.end = minute + 1;
            self.start = self.start.max(self.end.saturating_sub(self.retained));
            self.known = self.known.split_off(&self.start);
        }
        self.known.remove(&minute);
        if let Outcome::Reached(_) = outcome {
            let reached = self
                .known
                .iter()
                .filter(|(_, o)| matches!(o, Outcome::Reached(_)));
            let reached: Vec<u64> = reached.map(|(&m, _)| m).collect();
            if reached.len() >= WindowOutcomes::SCORES_KEPT {
                if minute < reached[0] {
                    self.known.insert(minute, Outcome::Candidate);
                    return;
                }
                self.known.insert(reached[0], Outcome::Candidate);
            }
        }
        if outcome != Outcome::Unknown {
            self.known.insert(minute, outcome);
        }
    }

    fn forget_from(&mut self, minute: u64) {
        if minute < self.end {
            self.known.split_off(&minute);
            self.end = minute.max(self.start);
        }
    }

    fn recall(&self, minute: u64) -> Outcome {
        self.known.get(&minute).copied().unwrap_or(Outcome::Unknown)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn scripted_runs_match_the_eager_loop(
        seed in any::<u64>(),
        persistence in 1usize..10,
        windows in 0usize..160,
        wide in any::<bool>(),
    ) {
        let steps = random_steps(seed, windows);
        for screens in [true, false] {
            let scorer = Scripted::new(if wide { 4 } else { 1 }, steps.clone(), screens);
            let series = scorer.series();
            let (want, _) = eager_run(&scorer, THRESHOLD, persistence, &series, None);
            let shipped = DetectorRunner::new(scorer, THRESHOLD, persistence);
            prop_assert_eq!(event_bits(&shipped.run(&series)), event_bits(&want));
        }
    }

    /// At threshold 0.0 both zeros are hits, and `f64::max` may keep either
    /// zero of a tie: a peak folded newest first must still carry the bits
    /// of the eager loop's oldest-first fold, in `run` and in `decide`.
    #[test]
    fn signed_zero_peaks_keep_the_eager_bits(
        seed in any::<u64>(),
        persistence in 1usize..10,
        windows in 0usize..120,
    ) {
        let mut next = xorshift(seed);
        let mut kind = 0;
        let steps = (0..windows)
            .map(|_| {
                if next() < 0.3 {
                    kind = (next() * 5.0) as usize;
                }
                let either = if next() < 0.5 { 0.0 } else { -0.0 };
                let score = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => either,
                    3 => -1.0,
                    _ if next() < 0.2 => 0.5,
                    _ => either,
                };
                step(f64::NAN, score)
            })
            .collect();
        // No bound: every window is a candidate.
        let scorer = Scripted::new(1, steps, false);
        let series = scorer.series();
        let mask = random_mask(&series, &mut next);
        let c = coverage(&series, &mask, 0.8, 7);
        let froms = [START, START + windows as u64 / 2];
        let at = format!("seed {seed}, persistence {persistence}");
        assert_matches_eager(scorer, 0.0, persistence, &series, &c, &froms, &at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shipped scorer, screened and deferred, against plain
    /// score-then-compare on noise that steps up, back down and ramps, with
    /// a non-finite sample on odd seeds.
    #[test]
    fn fast_sst_matches_the_eager_loop(seed in any::<u64>(), p in 1usize..9) {
        let mut next = xorshift(seed);
        let len = 240;
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
        let series = TimeSeries::new(START, values);
        let mask = random_mask(&series, &mut next);
        let coverage = coverage(&series, &mask, 0.8, 7);
        let froms = [START, START + up as u64, START + down as u64];
        let mut declared = 0;
        for threshold in [0.5, 0.0, 2.5, -1.0, f64::NAN] {
            let scorer = SstDetector::fast(FastSst::new(SstConfig::paper_default()));
            let at = format!("seed {seed}, persistence {p}, threshold {threshold}");
            declared += assert_matches_eager(scorer, threshold, p, &series, &coverage, &froms, &at);
        }
        prop_assert!(declared > 0, "the scenario never declared: nothing was compared");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_decision_is_the_eager_runs_first_retained_declaration(
        seed in any::<u64>(),
        persistence in 1usize..10,
        windows in 0usize..160,
        wide in any::<bool>(),
        screens in any::<bool>(),
    ) {
        let mut next = xorshift(seed ^ 0x2545_f491);
        let scorer = Scripted::new(if wide { 4 } else { 1 }, random_steps(seed, windows), screens);
        let series = scorer.series();
        let end = START + windows as u64;
        let from = match (next() * 3.0) as u32 {
            0 => START.saturating_sub((next() * 40.0) as u64),
            1 => START + (next() * windows as f64) as u64,
            _ => end + (next() * 10.0) as u64,
        };
        let mask = random_mask(&series, &mut next);
        let min_coverage = [0.5, 0.75, 1.0][(next() * 3.0) as usize];
        let coverage = coverage(&series, &mask, min_coverage, 2 + (next() * 7.0) as u64);
        // The script's own answers for about half the windows, a few only
        // as candidates; retention may let the oldest go.
        let mut memory = WindowOutcomes::new((next() * 200.0) as usize);
        for minute in START..end {
            let outcome = match (next() < 0.5, scorer.screened(minute), next() < 0.4) {
                (false, ..) => continue,
                (true, true, _) => Outcome::Screened,
                (true, false, true) => Outcome::Candidate,
                (true, false, false) => scorer.scored(minute),
            };
            memory.record(minute, outcome);
        }
        for coverage in [Some(&coverage), None] {
            for memory in [None, Some(&memory)] {
                let (decision, scored) = check_case(&scorer, persistence, coverage, from, memory);
                if windows == 0 {
                    prop_assert_eq!((decision.event, decision.refused, scored), (None, false, 0));
                }
            }
        }
    }

    /// Run A, shaped like a stream monitor (every window offered as it
    /// completes, held windows re-read from a source `depth` minutes deep,
    /// now and then a re-prime), writes the memory; random `forget_from`
    /// calls follow; run B, shaped like an assessment (starts later, skips
    /// windows for coverage), reads it and is B with `()` for a memory.
    #[test]
    fn a_reading_run_is_the_run_without_a_memory(
        seed in any::<u64>(),
        persistence in 1usize..10,
        minutes in 1usize..160,
        retention in 1usize..200,
        depth in 0u64..14,
    ) {
        let (mut next, p) = (xorshift(seed ^ 0x5bd1_e995), persistence);
        let scorer = Scripted::new(3, random_steps(seed, minutes), true);
        let end = START + minutes as u64;
        let a = START + (next() * minutes as f64) as u64;
        let mut memory = WindowOutcomes::new(retention);
        let deep = |minute: u64| minute.saturating_sub(depth);
        let monitor = |_| if next() < 0.03 { Then::Rearm } else { Then::Offer };
        let (_, tally, _) = persistence_run(&scorer, p, a..end, &mut memory, deep, monitor);
        prop_assert_eq!(tally.reused, 0, "a monitor never meets a minute twice");
        // Nothing remembered disagrees with the script.
        for minute in START..end {
            match memory.recall(minute) {
                Outcome::Unknown => {}
                Outcome::Screened => prop_assert!(scorer.screened(minute)),
                Outcome::Candidate => prop_assert!(!scorer.screened(minute)),
                known => prop_assert!(!scorer.screened(minute) && known == scorer.scored(minute)),
            }
        }
        for _ in 0..(next() * 3.0) as usize {
            memory.forget_from(START + (next() * (minutes + 4) as f64) as u64);
        }
        scorer.take_log();

        let b = a + (next() * (end - a) as f64) as u64;
        let skipped: Vec<bool> = (0..minutes).map(|_| next() < 0.08).collect();
        let plan = |m: u64| if skipped[(m - START) as usize] { Then::Skip } else { Then::Offer };
        let known: Vec<Outcome> = (START..end).map(|m| memory.recall(m)).collect();
        let before = memory.clone();
        let (events, tally, state) = persistence_run(&scorer, p, b..end, &memory, |_| 0, plan);
        let (bounds_asked, scores_asked) = scorer.take_log();
        let (plain_events, plain_tally, plain_state) =
            persistence_run(&scorer, p, b..end, (), |_| 0, plan);

        prop_assert_eq!(event_bits(&events), event_bits(&plain_events));
        prop_assert_eq!(state, plain_state);
        let needed = |t: WindowTally| (t.screened, t.dropped, t.asked);
        prop_assert_eq!((needed(tally), plain_tally.reused), (needed(plain_tally), 0));
        // Every answer not recalled was asked of the scorer, once.
        let asked = (bounds_asked.len() + scores_asked.len()) as u64;
        let scored = scores_asked.len() as u64;
        prop_assert_eq!((tally.asked - tally.reused, tally.scored), (asked, scored));
        prop_assert_eq!(&memory, &before, "a reader left its mark");
        for minute in bounds_asked {
            prop_assert_eq!(known[(minute - START) as usize], Outcome::Unknown);
        }
        for minute in scores_asked {
            let outcome = known[(minute - START) as usize];
            prop_assert!(matches!(outcome, Outcome::Unknown | Outcome::Candidate));
        }

        // And through `decide`, which is how the pipeline reads it.
        let series = scorer.series();
        let mask = random_mask(&series, &mut next);
        check_case(&scorer, p, Some(&coverage(&series, &mask, 0.6, 4)), b, Some(&memory));
    }

    /// Put, get, forget, retention, minutes below the start, a jump past the
    /// whole retained span, a score overwritten, the cap on kept scores.
    #[test]
    fn the_memory_is_a_map_with_a_horizon(seed in any::<u64>(), retention in 0usize..70) {
        let mut next = xorshift(seed);
        let mut memory = WindowOutcomes::new(retention);
        let mut model = Model {
            retained: WindowOutcomes::retained_minutes(retention) as u64,
            start: 0,
            end: 0,
            known: BTreeMap::new(),
        };
        let mut cursor = 500u64;
        for op in 0..400 {
            let roll = next();
            // Mostly one minute on; sometimes back a little, rarely a jump
            // of a few minutes or past the whole span.
            let minute = match (next() * 40.0) as u64 {
                0 => cursor + 1 + (next() * 300.0) as u64,
                1..=3 => cursor + 1 + (next() * 6.0) as u64,
                4..=12 => cursor.saturating_sub((next() * 90.0) as u64),
                _ => cursor + 1,
            };
            if roll < 0.08 {
                memory.forget_from(minute);
                model.forget_from(minute);
            } else {
                let outcome = match (next() * 9.0) as u64 {
                    0 => Outcome::Screened,
                    1 => Outcome::Candidate,
                    2 => Outcome::Below,
                    3 => Outcome::Unknown,
                    _ => Outcome::Reached(next()),
                };
                memory.record(minute, outcome);
                model.record(minute, outcome);
                cursor = cursor.max(minute);
            }
            for probe in cursor.saturating_sub(140)..cursor + 3 {
                prop_assert_eq!(
                    memory.recall(probe),
                    model.recall(probe),
                    "seed {}, op {}, minute {}", seed, op, probe
                );
            }
        }
    }
}

#[test]
fn bound_less_baselines_declare_what_the_eager_loop_declared() {
    // Noise with a step up and a step back down; none of these scorers has
    // a bound, so every window is a candidate and only the persistence rule
    // defers.
    let mut next = xorshift(2015);
    let values: Vec<f64> = (0..200)
        .map(|i| 50.0 + next() + if (100..150).contains(&i) { 6.0 } else { 0.0 })
        .collect();
    let s = &TimeSeries::new(START, values);
    let mask = random_mask(s, &mut next);
    let c = &coverage(s, &mask, 0.8, 7);
    let froms = &[START, START + 100, START + 150];
    let mut declared = [0; 2];
    for p in [1, 7] {
        let context = |name: &str| format!("{name}, persistence {p}");
        let cusum = CusumDetector::with_params(30, 15, 0.5, Some(16));
        let mrls = MrlsDetector::new(16);
        declared[0] += assert_matches_eager(cusum, 0.9, p, s, c, froms, &context("cusum"));
        declared[1] += assert_matches_eager(mrls, 0.3, p, s, c, froms, &context("mrls"));
    }
    let compared = declared.iter().all(|&n| n > 0);
    assert!(compared, "a baseline never declared: {declared:?}");
}

/// `run` over a width-1 script at persistence 3, checked against the eager
/// loop (which scores every window): the events, and what it asked.
fn scripted_run(steps: &[Step]) -> (Vec<ChangeEvent>, Vec<u64>, Vec<u64>) {
    let shipped = DetectorRunner::new(Scripted::new(1, steps.to_vec(), true), THRESHOLD, 3);
    let series = shipped.scorer().series();
    let events = shipped.run(&series);
    let (bounds, scores) = shipped.scorer().take_log();
    let (want, _) = eager_run(shipped.scorer(), THRESHOLD, 3, &series, None);
    assert_eq!(event_bits(&events), event_bits(&want));
    assert_eq!(shipped.scorer().take_log().1.len(), steps.len());
    (events, bounds, scores)
}

/// A checked width-1 `decide` from window `from` at persistence 3, windows
/// `mask_out` skipped for coverage (no gap refuses): the declaration's
/// window and the full scores it cost.
fn masked_case(steps: &[Step], mask_out: &[u64], from: u64) -> (Option<u64>, usize) {
    let scorer = Scripted::new(1, steps.to_vec(), true);
    let mut mask = CoverageMask::new(START);
    for i in (0..steps.len() as u64).filter(|i| !mask_out.contains(i)) {
        mask.mark(START + i);
    }
    let coverage = coverage(&scorer.series(), &mask, 0.5, u64::MAX);
    let (decision, scored) = check_case(&scorer, 3, Some(&coverage), START + from, None);
    (decision.event.map(|e| e.declared_at - START), scored)
}

#[test]
fn skip_while_disarmed_resolves_the_held_candidates() {
    let (h, c) = (hit(2.0), CANDIDATE_MISS);
    // Declared at window 2; a hit and a candidate miss are then held by the
    // disarmed run when window 5 is skipped. The miss hidden among them
    // re-armed the detector, so the three hits after the gap declare again.
    let steps = [h, h, h, h, c, h, h, h, h];
    assert_eq!(masked_case(&steps, &[5], 0).0, Some(2));
    assert_eq!(masked_case(&steps, &[5], 3).0, Some(8));
    // The same with two held hits: still disarmed after the gap, one event.
    assert_eq!(masked_case(&[h; 9], &[5], 3).0, None);
    // Armed, a skip just drops what is held: nothing is scored at all.
    assert_eq!(masked_case(&[h; 5], &[2], 0), (None, 0));
}

#[test]
fn two_declarations_inside_one_candidate_run() {
    let (h, c, peak) = (hit(1.5), CANDIDATE_MISS, hit(4.0));
    // Seven candidates in a row, no definite miss anywhere: the miss in the
    // middle re-arms, and the second declaration carries its own run's
    // start and peak.
    let (events, ..) = scripted_run(&[h, peak, h, c, h, h, peak]);
    let (first, second) = ((2, 0, 4.0), (6, 4, 4.0));
    let bits = |(d, f, p): (u64, u64, f64)| (START + d, START + f, f64::to_bits(p));
    assert_eq!(event_bits(&events), [bits(first), bits(second)]);
}

#[test]
fn candidate_run_ending_at_the_series_end_is_dropped() {
    let h = hit(2.0);
    // Two candidates, then nothing: no declaration can rest on them.
    let (events, _, scores) = scripted_run(&[MISS, h, h]);
    assert_eq!((events.len(), scores.len()), (0, 0));
    // A standing declaration, a full run's worth of candidates, the end: a
    // disarmed run needs a miss before them, so it never needed them either.
    let (events, _, scores) = scripted_run(&[h; 6]);
    assert_eq!((events.len(), scores.len()), (1, 3));
    // A series shorter than a window yields no window to plan.
    let short = DetectorRunner::new(Scripted::new(4, Vec::new(), true), THRESHOLD, 3);
    assert!(short.run(&short.scorer().series()).is_empty());
    assert_eq!(short.scorer().take_log(), (vec![], vec![]));
}

#[test]
fn short_candidate_runs_cost_no_full_score() {
    let (h, c) = (hit(2.0), CANDIDATE_MISS);
    // Every candidate run is shorter than the persistence length of 3: a
    // bound for every window, no score at all.
    let steps = [MISS, h, h, MISS, h, c, MISS, h, MISS, MISS, h, h];
    let (events, bounds, scores) = scripted_run(&steps);
    let asked = (events.len(), bounds.len(), scores.len());
    assert_eq!(asked, (0, steps.len(), 0));
    // A run that does declare costs exactly its own windows: the three
    // hits, not the definite misses around them, walked back from the one
    // that completes the run.
    let (events, _, scores) = scripted_run(&[MISS, h, h, h, MISS, MISS]);
    let hits = vec![START + 3, START + 2, START + 1];
    assert_eq!((events.len(), scores), (1, hits));
}

#[test]
fn a_candidate_miss_rules_out_its_whole_run() {
    // `n` candidates in a row that all miss, at persistence `k`: every `k`th
    // makes a declaration reachable, and its own miss rules out the `k − 1`
    // held before it. The stretch costs ⌊n/k⌋ full scores, each of the
    // newest held window; oldest first it cost n − k + 1.
    for k in 1..8u64 {
        for n in 0..4 * k {
            let scorer = Scripted::new(1, vec![CANDIDATE_MISS; n as usize], true);
            let (span, offer) = (START..START + n, |_| Then::Offer);
            let (events, tally, _) = persistence_run(&scorer, k as usize, span, (), |_| 0, offer);
            let newest: Vec<u64> = (1..=n / k).map(|i| START + i * k - 1).collect();
            assert_eq!((events.len(), scorer.take_log().1), (0, newest), "{n}, {k}");
            assert_eq!((tally.scored, tally.dropped), (n / k, n / k * (k - 1)));
        }
    }
    // A miss among the held windows: those before it are never scored, and
    // the hits after it carry on as the run, with their start and peak.
    let (h, peak) = (hit(1.5), hit(4.0));
    let (events, _, scores) = scripted_run(&[h, CANDIDATE_MISS, peak, h, h]);
    assert_eq!(scores, [START + 2, START + 1, START + 4, START + 3]);
    assert_eq!(
        event_bits(&events),
        [(START + 4, START + 2, 4f64.to_bits())]
    );
}

#[test]
fn an_unretained_held_window_is_a_miss_that_is_not_remembered() {
    // Persistence 3: the third candidate makes a declaration reachable and
    // the oldest held window is scored, but the monitor's source has lost
    // it. The run counts a miss; the memory still says only "candidate".
    let scorer = Scripted::new(3, vec![hit(2.0); 6], true);
    let mut memory = WindowOutcomes::new(16);
    let (span, offer) = (START..START + 6, |_| Then::Offer);
    let lost = |_| START + 1;
    let (declared, _, _) = persistence_run(&scorer, 3, span.clone(), &mut memory, lost, offer);
    // The run restarts after the lost window.
    let restarted = [(START + 3, START + 1, 2f64.to_bits())];
    assert_eq!(event_bits(&declared), restarted);
    assert_eq!(memory.recall(START), Outcome::Candidate);
    assert_eq!(memory.recall(START + 1), Outcome::Reached(2.0));
    // The assessment, which retains everything, declares a minute earlier,
    // scoring only the window the monitor lost.
    let (events, tally, _) = persistence_run(&scorer, 3, span, &memory, |_| 0, offer);
    assert_eq!((events[0].declared_at, tally.scored), (START + 2, 1));
}
