//! A verdict asks only the windows it rests on, and gets the answer the
//! whole run gives.
//!
//! [`DetectorRunner::decide`] starts its scoring loop after the last
//! definite miss decided before `limit = min(from, gap_start − W)` and stops
//! at the declaration it returns. The oracle is the definition: the whole
//! run ([`DetectorRunner::run_masked_gap_aware`], or [`DetectorRunner::run`]
//! with no coverage), its first retained event declared at or after `from`,
//! by its bits, and whether it suppressed an event declared before that one
//! (any, `suppressed_events > 0`, when there is none).
//!
//! Scripted scorers choose bound and score independently, with and without
//! a bound, under masks with scattered holes and partition-length gaps, and
//! `from` falls before the first window, inside the span or past its end.
//! Each case runs with `()` for a memory and with a `WindowOutcomes` filled
//! at random with the script's own answers. Beyond the answer:
//!
//! * the scorer is never asked about a window before the reset (the last
//!   definite miss decided before `limit`) or after the stop;
//! * it is asked the bound of every measured window in between that the
//!   memory does not know, once, and nothing the memory knows;
//! * the run's tally counts every answer, the backward scan's included.
//!
//! Mutations this file must catch (each was run, each fails): resetting on
//! an unmeasured window; dropping the gap-zone term from `limit`; stopping
//! at the first declaration at or after `from` without the gap check;
//! treating a recalled `Candidate` as a miss — each a wrong answer — and
//! starting the scan at the window decided at `limit` rather than
//! `limit − 1`, which answers right from a reset the definition does not
//! name and fails the asked-window checks; and a forward pass that asks
//! again the bound of a window the scan passed over, or takes a window it
//! did not pass over for a candidate.

use funnel_detect::detector::{
    ChangeEvent, Coverage, Decision, DetectorRunner, ReachingScorer, WindowScorer, WindowTally,
};
use funnel_detect::outcomes::{Outcome, Outcomes, WindowOutcomes};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use proptest::prelude::*;
use std::cell::{Cell, RefCell};
use std::ops::Range;

/// The minute the first window is decided at.
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

/// What the script says of the window decided at one minute.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The window is a definite miss iff `bound < threshold`.
    bound: f64,
    score: f64,
}

/// Sticky stretches of hits, definite misses, candidates that miss, NaN
/// scores and NaN or infinite bounds, so that runs of every length around
/// the persistence length occur.
fn random_steps(seed: u64, windows: usize) -> Vec<Step> {
    let mut next = xorshift(seed);
    let mut kind = 0;
    (0..windows)
        .map(|_| {
            if next() < 0.35 {
                kind = (next() * 8.0) as usize;
            }
            let high = THRESHOLD + 2.0 * next();
            let low = 0.9 * next();
            match kind {
                0..=2 => Step {
                    bound: high + 0.5,
                    score: high,
                },
                3 => Step {
                    bound: 0.25,
                    score: 0.125,
                },
                4 => Step {
                    bound: 3.0,
                    score: 0.5,
                },
                5 => Step {
                    bound: 2.0,
                    score: f64::NAN,
                },
                6 => Step {
                    bound: f64::NAN,
                    score: if next() < 0.6 { high } else { low },
                },
                _ => Step {
                    bound: f64::INFINITY,
                    score: THRESHOLD - f64::EPSILON,
                },
            }
        })
        .collect()
}

/// Scores by script. Every sample is its own minute, so a window's last
/// sample names the minute it is decided at. Logs what it is asked.
struct Scripted {
    width: usize,
    steps: Vec<Step>,
    /// Whether the run handle consults the bound (`false`: no bound).
    screens: bool,
    bounds_asked: RefCell<Vec<u64>>,
    scores_asked: RefCell<Vec<u64>>,
}

impl Scripted {
    fn new(width: usize, steps: Vec<Step>, screens: bool) -> Self {
        Self {
            width,
            steps,
            screens,
            bounds_asked: RefCell::default(),
            scores_asked: RefCell::default(),
        }
    }

    /// One sample a minute, the first window decided at `START`.
    fn series(&self) -> TimeSeries {
        let first = START + 1 - self.width as u64;
        let end = START + self.steps.len() as u64;
        TimeSeries::new(first, (first..end).map(|m| m as f64).collect())
    }

    fn minute_of(&self, window: &[f64]) -> u64 {
        assert_eq!(window.len(), self.width);
        let last = *window.last().unwrap() as u64;
        assert_eq!(
            window[0] as u64 + self.width as u64 - 1,
            last,
            "not a window"
        );
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
        let score = self.step(minute).score;
        if score >= THRESHOLD {
            Outcome::Reached(score)
        } else {
            Outcome::Below
        }
    }

    fn take_log(&self) -> (Vec<u64>, Vec<u64>) {
        (self.bounds_asked.take(), self.scores_asked.take())
    }
}

impl WindowScorer for Scripted {
    fn window_len(&self) -> usize {
        self.width
    }
    fn score(&self, window: &[f64]) -> f64 {
        let minute = self.minute_of(window);
        self.scores_asked.borrow_mut().push(minute);
        self.step(minute).score
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        ScriptedRun(self)
    }
}

struct ScriptedRun<'a>(&'a Scripted);

impl ReachingScorer for ScriptedRun<'_> {
    fn may_reach(&mut self, window: &[f64], _threshold: f64) -> bool {
        let minute = self.0.minute_of(window);
        self.0.bounds_asked.borrow_mut().push(minute);
        !self.0.screened(minute)
    }
    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        let score = self.0.score(window);
        (score >= threshold).then_some(score)
    }
}

/// A memory that hands the test the tally of the run that read it.
struct Watched<'a, O> {
    memory: O,
    tally: &'a Cell<Option<WindowTally>>,
}

impl<O: Outcomes> Outcomes for Watched<'_, O> {
    fn recall(&self, minute: u64) -> Outcome {
        self.memory.recall(minute)
    }

    fn record(&mut self, _minute: u64, _outcome: Outcome) {}

    fn run_ended(&self, tally: WindowTally) {
        self.tally.set(Some(tally));
    }
}

/// The script's own answers for about half the windows, in minute order: a
/// screened window as `Screened`, any other as an unscored `Candidate` or as
/// what its score says. Retention may let the oldest go.
fn random_memory(scorer: &Scripted, next: &mut impl FnMut() -> f64) -> WindowOutcomes {
    let mut memory = WindowOutcomes::new((next() * 200.0) as usize);
    for minute in START..START + scorer.steps.len() as u64 {
        if next() < 0.5 {
            let outcome = if scorer.screened(minute) {
                Outcome::Screened
            } else if next() < 0.4 {
                Outcome::Candidate
            } else {
                scorer.scored(minute)
            };
            memory.record(minute, outcome);
        }
    }
    memory
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

fn bits(event: Option<ChangeEvent>) -> Option<(u64, u64, u64)> {
    event.map(|e| (e.declared_at, e.first_exceeded_at, e.peak_score.to_bits()))
}

/// The definition: the whole run's first retained event declared at or
/// after `from`, and whether an event declared before it was suppressed.
fn oracle(
    plain: &DetectorRunner<Scripted>,
    series: &TimeSeries,
    coverage: Option<Coverage<'_>>,
    from: u64,
) -> (Option<ChangeEvent>, bool) {
    let (all, retained) = match coverage {
        Some(c) => {
            let aware = plain.run_masked_gap_aware(series, c.mask, c.min_coverage, c.min_gap);
            let all = plain.run_masked(series, c.mask, c.min_coverage).events;
            assert_eq!(aware.suppressed_events, all.len() - aware.events.len());
            (all, aware.events)
        }
        None => {
            let all = plain.run(series);
            (all.clone(), all)
        }
    };
    let event = retained.iter().copied().find(|e| e.declared_at >= from);
    let cut = event.map_or(u64::MAX, |e| e.declared_at);
    let before = |events: &[ChangeEvent]| events.iter().filter(|e| e.declared_at < cut).count();
    (event, before(&all) > before(&retained))
}

/// `decide` through a fresh scripted scorer recalling from `memory`: the
/// decision, the run's tally, and the minutes whose bound and score the
/// scorer was asked.
fn decide_with<O: Outcomes>(
    scorer: &Scripted,
    persistence: usize,
    memory: O,
    coverage: Option<Coverage<'_>>,
    from: u64,
) -> (Decision, WindowTally, Vec<u64>, Vec<u64>) {
    let tally = Cell::new(None);
    let runner = DetectorRunner::new(
        Scripted::new(scorer.width, scorer.steps.clone(), scorer.screens),
        THRESHOLD,
        persistence,
    )
    .recalling(Watched {
        memory,
        tally: &tally,
    });
    let decision = runner.decide(&scorer.series(), coverage, from);
    let (bounds_asked, scores_asked) = runner.scorer().take_log();
    let tally = tally.get().expect("the run ended");
    (decision, tally, bounds_asked, scores_asked)
}

/// One `decide` call against the oracle, and what it asked of the scorer.
fn check_case(
    scorer: &Scripted,
    persistence: usize,
    coverage: Option<Coverage<'_>>,
    from: u64,
    memory: Option<&WindowOutcomes>,
) {
    let series = scorer.series();
    let width = scorer.width as u64;
    let (first, last) = (START, START + scorer.steps.len() as u64 - 1);
    let plain = DetectorRunner::new(
        Scripted::new(scorer.width, scorer.steps.clone(), scorer.screens),
        THRESHOLD,
        persistence,
    );
    let (want, want_refused) = oracle(&plain, &series, coverage, from);
    let (decision, tally, bounds_asked, scores_asked) = match memory {
        Some(memory) => decide_with(scorer, persistence, memory, coverage, from),
        None => decide_with(scorer, persistence, (), coverage, from),
    };
    prop_assert_eq!(bits(decision.event), bits(want));
    prop_assert_eq!(decision.refused, want_refused);

    // The windows the answer rests on, from the definition of the reset.
    let known = |minute: u64| memory.map_or(Outcome::Unknown, |m| m.recall(minute));
    let measured = |minute: u64| {
        coverage.is_none_or(|c| c.mask.coverage(minute + 1 - width, minute + 1) >= c.min_coverage)
    };
    let definite_miss = |minute: u64| match known(minute) {
        Outcome::Screened | Outcome::Below => true,
        Outcome::Unknown => scorer.screened(minute),
        Outcome::Candidate | Outcome::Reached(_) => false,
    };
    let limit = coverage.map_or(from, |c| {
        c.mask
            .gaps_in(series.start(), series.end())
            .into_iter()
            .filter(|&(s, e)| e - s >= c.min_gap.max(1))
            .map(|(s, _)| s.saturating_sub(width))
            .fold(from, u64::min)
    });
    let reset = (first..limit.min(last + 1))
        .rev()
        .find(|&m| measured(m) && definite_miss(m));
    let begin = reset.map_or(first, |r| r + 1);
    let stop = decision.event.map_or(last, |e| e.declared_at);

    for &minute in &bounds_asked {
        prop_assert!(
            reset.is_none_or(|r| minute >= r) && minute <= stop,
            "bound of {} asked outside [{:?}, {}]",
            minute,
            reset,
            stop
        );
        prop_assert_eq!(known(minute), Outcome::Unknown, "asked what was known");
    }
    for &minute in &scores_asked {
        prop_assert!(
            (begin..=stop).contains(&minute),
            "score of {} asked outside [{}, {}]",
            minute,
            begin,
            stop
        );
        prop_assert!(matches!(
            known(minute),
            Outcome::Unknown | Outcome::Candidate
        ));
    }
    let mut distinct = bounds_asked.clone();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(distinct.len(), bounds_asked.len(), "a bound asked twice");
    for minute in begin..=stop {
        if measured(minute) && known(minute) == Outcome::Unknown {
            prop_assert!(
                bounds_asked.contains(&minute),
                "the run skipped the bound of {} in [{}, {}]",
                minute,
                begin,
                stop
            );
        }
    }
    prop_assert_eq!(
        tally.asked - tally.reused,
        (bounds_asked.len() + scores_asked.len()) as u64,
        "every answer not recalled was asked of the scorer and counted"
    );
    prop_assert_eq!(tally.scored, scores_asked.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_decision_is_the_whole_runs_first_retained_declaration(
        seed in any::<u64>(),
        persistence in 1usize..10,
        windows in 1usize..160,
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
        let coverage = Coverage {
            mask: &mask,
            min_coverage: [0.5, 0.75, 1.0][(next() * 3.0) as usize],
            min_gap: 2 + (next() * 7.0) as u64,
        };
        let memory = random_memory(&scorer, &mut next);
        for coverage in [Some(coverage), None] {
            check_case(&scorer, persistence, coverage, from, None);
            check_case(&scorer, persistence, coverage, from, Some(&memory));
        }
    }
}
