//! The deferred driver declares exactly what the eager loop declared.
//!
//! [`DetectorRunner`] asks every window only its scorer's bound and scores
//! a candidate only while a declaration can still rest on it. The oracle is
//! the loop as it shipped before that (`eager_reference`): every unskipped
//! window scored on the spot. All four entry points must agree field by
//! field, `peak_score` by its bits —
//!
//! * on *scripted* scorers, whose bound and score sequences are chosen
//!   independently (hits, definite misses, candidates that miss, NaN
//!   scores, NaN bounds, no bound at all) under random coverage masks, gaps
//!   and persistence lengths;
//! * on the named corners of the deferral rule;
//! * on the shipped `FastSst`, screened and deferred, against plain
//!   score-then-compare, at ordinary and degenerate thresholds;
//! * on the bound-less baselines (CUSUM, MRLS, WoW).
//!
//! The scripted scorers also count their calls: a candidate run shorter
//! than the persistence length must cost no full score at all.

mod eager_reference;

use eager_reference::{event_bits, masked_bits, EagerRunner};
use funnel_detect::cusum::CusumDetector;
use funnel_detect::detector::{DetectorRunner, ReachingScorer, WindowScorer};
use funnel_detect::mrls::MrlsDetector;
use funnel_detect::sst_adapter::SstDetector;
use funnel_detect::wow::WowDetector;
use funnel_sst::{FastSst, SstConfig};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use proptest::prelude::*;
use std::cell::Cell;

const START: u64 = 1000;
const THRESHOLD: f64 = 1.0;

/// What the script says about one window.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The bound: the window is a definite miss iff `bound < threshold`.
    bound: f64,
    /// The full score.
    score: f64,
}

/// A hit scoring `score` (≥ the threshold), under a bound that lets it by.
fn hit(score: f64) -> Step {
    assert!(score >= THRESHOLD);
    Step {
        bound: score + 0.5,
        score,
    }
}

/// A definite miss: the bound alone rules it out.
const MISS: Step = Step {
    bound: 0.25,
    score: 0.125,
};

/// A candidate that misses: the bound lets it by, the score falls short.
const CANDIDATE_MISS: Step = Step {
    bound: 3.0,
    score: 0.5,
};

/// Scores by script: the series carries each sample's own index, so a
/// window's last sample names the window. Counts what it is asked.
struct Scripted {
    width: usize,
    steps: Vec<Step>,
    /// Whether the run handle consults the bound (`false`: a scorer that
    /// has none, as the trait's default).
    screens: bool,
    bounds_asked: Cell<u64>,
    scores_asked: Cell<u64>,
}

impl Scripted {
    fn new(width: usize, steps: Vec<Step>, screens: bool) -> Self {
        Self {
            width,
            steps,
            screens,
            bounds_asked: Cell::new(0),
            scores_asked: Cell::new(0),
        }
    }

    /// The series whose `i`-th window is scripted by `steps[i]`.
    fn series(&self) -> TimeSeries {
        let samples = self.steps.len() + self.width - 1;
        TimeSeries::new(START, (0..samples).map(|i| i as f64).collect())
    }

    fn step(&self, window: &[f64]) -> Step {
        assert_eq!(window.len(), self.width);
        let last = *window.last().unwrap() as usize;
        assert_eq!(window[0] as usize + self.width - 1, last, "not a window");
        self.steps[last + 1 - self.width]
    }
}

impl WindowScorer for Scripted {
    fn window_len(&self) -> usize {
        self.width
    }
    fn score(&self, window: &[f64]) -> f64 {
        self.scores_asked.set(self.scores_asked.get() + 1);
        self.step(window).score
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
    fn may_reach(&mut self, window: &[f64], threshold: f64) -> bool {
        self.0.bounds_asked.set(self.0.bounds_asked.get() + 1);
        let bound = self.0.step(window).bound;
        !(self.0.screens && bound < threshold)
    }
    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        let score = self.0.score(window);
        (score >= threshold).then_some(score)
    }
}

/// The eager reference over any scorer: score every window, then compare.
fn eager<S: WindowScorer>(
    scorer: &S,
    threshold: f64,
    persistence: usize,
) -> EagerRunner<impl FnMut(&[f64], f64) -> Option<f64> + '_> {
    EagerRunner {
        reaching: move |window: &[f64], threshold: f64| {
            let score = scorer.score(window);
            (score >= threshold).then_some(score)
        },
        width: scorer.window_len(),
        threshold,
        persistence,
    }
}

/// Asserts that all four entry points of the shipped runner over `scorer`
/// return what the eager reference returns; hands back the `run` events.
fn assert_all_entry_points_match<S: WindowScorer>(
    scorer: S,
    threshold: f64,
    persistence: usize,
    series: &TimeSeries,
    mask: &CoverageMask,
    context: &str,
) -> Vec<(u64, u64, u64)> {
    let shipped = DetectorRunner::new(scorer, threshold, persistence);
    let mut oracle = eager(shipped.scorer(), threshold, persistence);

    let events = event_bits(&shipped.run(series));
    assert_eq!(events, event_bits(&oracle.run(series)), "run: {context}");
    assert_eq!(
        event_bits(shipped.first_change(series).as_slice()),
        event_bits(oracle.first_change(series).as_slice()),
        "first_change: {context}"
    );
    assert_eq!(
        masked_bits(&shipped.run_masked(series, mask, 0.8)),
        masked_bits(&oracle.run_masked(series, mask, 0.8)),
        "run_masked: {context}"
    );
    assert_eq!(
        masked_bits(&shipped.run_masked_gap_aware(series, mask, 0.8, 7)),
        masked_bits(&oracle.run_masked_gap_aware(series, mask, 0.8, 7)),
        "run_masked_gap_aware: {context}"
    );
    events
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random script: kinds come in sticky stretches so that candidate runs
/// of every length around the persistence length occur.
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
                0..=2 => hit(high),
                3 => MISS,
                4 => CANDIDATE_MISS,
                // NaN score under a passing bound: a candidate that misses.
                5 => Step {
                    bound: 2.0,
                    score: f64::NAN,
                },
                // NaN bound screens nothing: the score decides, either way.
                6 => Step {
                    bound: f64::NAN,
                    score: if next() < 0.6 { high } else { low },
                },
                // An infinite bound, a miss just under the threshold.
                _ => Step {
                    bound: f64::INFINITY,
                    score: THRESHOLD - f64::EPSILON,
                },
            }
        })
        .collect()
}

/// Present nine minutes in ten, with one partition-length gap.
fn random_mask(seed: u64, series: &TimeSeries) -> CoverageMask {
    let mut next = xorshift(seed ^ 0x9e37_79b9);
    let len = series.len() as u64;
    let gap_at = (next() * len as f64) as u64;
    let gap = gap_at..gap_at + 5 + (next() * 20.0) as u64;
    let mut mask = CoverageMask::new(series.start());
    for i in 0..len {
        if !gap.contains(&i) && next() < 0.9 {
            mask.mark(series.start() + i);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn scripted_scorers_match_the_eager_loop(
        seed in any::<u64>(),
        persistence in 1usize..10,
        windows in 0usize..160,
        wide in any::<bool>(),
    ) {
        let width = if wide { 4 } else { 1 };
        let steps = random_steps(seed, windows);
        for screens in [true, false] {
            let scorer = Scripted::new(width, steps.clone(), screens);
            let series = scorer.series();
            let mask = random_mask(seed, &series);
            assert_all_entry_points_match(
                scorer,
                THRESHOLD,
                persistence,
                &series,
                &mask,
                &format!("seed {seed}, persistence {persistence}, screens {screens}"),
            );
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The shipped scorer, screened and deferred, against plain
    /// score-then-compare on noise that steps up, back down and ramps, with
    /// a non-finite sample on odd seeds.
    #[test]
    fn fast_sst_matches_the_eager_loop(seed in any::<u64>(), persistence in 1usize..9) {
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
        let mask = random_mask(seed, &series);
        let mut declared = 0;
        for threshold in [0.5, 0.0, 2.5, -1.0, f64::NAN] {
            let scorer = SstDetector::fast(FastSst::new(SstConfig::paper_default()));
            declared += assert_all_entry_points_match(
                scorer,
                threshold,
                persistence,
                &series,
                &mask,
                &format!("seed {seed}, persistence {persistence}, threshold {threshold}"),
            )
            .len();
        }
        prop_assert!(declared > 0, "the scenario never declared: nothing was compared");
    }
}

/// One scripted run at persistence 3 over width-1 windows: `mask_out` lists
/// the windows skipped for coverage. Returns the masked run's declaration
/// minutes (as window indices) and the full scores it cost.
fn masked_case(steps: &[Step], mask_out: &[u64]) -> (Vec<u64>, u64) {
    let scorer = Scripted::new(1, steps.to_vec(), true);
    let series = scorer.series();
    let mut mask = CoverageMask::new(START);
    for i in 0..steps.len() as u64 {
        if !mask_out.contains(&i) {
            mask.mark(START + i);
        }
    }
    let shipped = DetectorRunner::new(scorer, THRESHOLD, 3);
    let run = shipped.run_masked(&series, &mask, 0.5);
    assert_eq!(run.skipped_windows, mask_out.len());
    let scored = shipped.scorer().scores_asked.get();
    let mut oracle = eager(shipped.scorer(), THRESHOLD, 3);
    assert_eq!(
        masked_bits(&run),
        masked_bits(&oracle.run_masked(&series, &mask, 0.5))
    );
    assert_all_entry_points_match(
        Scripted::new(1, steps.to_vec(), true),
        THRESHOLD,
        3,
        &series,
        &mask,
        "named case",
    );
    let declared = run.events.iter().map(|e| e.declared_at - START).collect();
    (declared, scored)
}

#[test]
fn skip_while_disarmed_resolves_the_held_candidates() {
    let h = hit(2.0);
    // Declared at window 2; a hit and a candidate miss are then held by the
    // disarmed run when window 5 is skipped. The miss hidden among them
    // re-armed the detector, so the three hits after the gap declare again.
    let (declared, _) = masked_case(&[h, h, h, h, CANDIDATE_MISS, h, h, h, h], &[5]);
    assert_eq!(declared, [2, 8]);
    // The same with two held hits: still disarmed after the gap, one event.
    let (declared, _) = masked_case(&[h, h, h, h, h, h, h, h, h], &[5]);
    assert_eq!(declared, [2]);
    // Armed, a skip just drops what is held: nothing is scored at all.
    let (declared, scored) = masked_case(&[h, h, h, h, h], &[2]);
    assert_eq!((declared, scored), (vec![], 0));
}

#[test]
fn two_declarations_inside_one_candidate_run() {
    let (h, peak) = (hit(1.5), hit(4.0));
    // Seven candidates in a row, no definite miss anywhere: the miss in the
    // middle re-arms, and the second declaration carries its own run's
    // start and peak.
    let scorer = Scripted::new(1, vec![h, peak, h, CANDIDATE_MISS, h, h, peak], true);
    let series = scorer.series();
    let shipped = DetectorRunner::new(scorer, THRESHOLD, 3);
    let events = shipped.run(&series);
    let summary: Vec<(u64, u64, f64)> = events
        .iter()
        .map(|e| {
            (
                e.declared_at - START,
                e.first_exceeded_at - START,
                e.peak_score,
            )
        })
        .collect();
    assert_eq!(summary, [(2, 0, 4.0), (6, 4, 4.0)]);
    let mut oracle = eager(shipped.scorer(), THRESHOLD, 3);
    assert_eq!(event_bits(&events), event_bits(&oracle.run(&series)));
}

#[test]
fn candidate_run_ending_at_the_series_end_is_dropped() {
    let h = hit(2.0);
    // Two candidates, then nothing: no declaration can rest on them.
    let (declared, scored) = masked_case(&[MISS, h, h], &[]);
    assert_eq!((declared, scored), (vec![], 0));
    // A standing declaration, two more candidates, the end: the disarmed
    // run never needed them either.
    let (declared, scored) = masked_case(&[h, h, h, h, h], &[]);
    assert_eq!((declared, scored), (vec![2], 3));
    // A series shorter than a window yields no window to plan.
    let short = Scripted::new(4, Vec::new(), true);
    let series = TimeSeries::new(START, vec![0.0, 1.0, 2.0]);
    let shipped = DetectorRunner::new(short, THRESHOLD, 3);
    assert!(shipped.run(&series).is_empty());
    assert_eq!(shipped.first_change(&series), None);
    let mask = CoverageMask::all_present(START, 3);
    assert_eq!(shipped.run_masked(&series, &mask, 0.8).total_windows, 0);
    assert_eq!(shipped.scorer().bounds_asked.get(), 0);
}

#[test]
fn short_candidate_runs_cost_no_full_score() {
    let h = hit(2.0);
    // Every candidate run is shorter than the persistence length of 3.
    let steps = [
        MISS,
        h,
        h,
        MISS,
        h,
        CANDIDATE_MISS,
        MISS,
        h,
        MISS,
        MISS,
        h,
        h,
    ];
    let scorer = Scripted::new(1, steps.to_vec(), true);
    let series = scorer.series();
    let shipped = DetectorRunner::new(scorer, THRESHOLD, 3);
    assert!(shipped.run(&series).is_empty());
    assert_eq!(shipped.scorer().bounds_asked.get(), steps.len() as u64);
    assert_eq!(shipped.scorer().scores_asked.get(), 0);

    // The eager loop scored every one of them.
    let mut oracle = eager(shipped.scorer(), THRESHOLD, 3);
    assert!(oracle.run(&series).is_empty());
    assert_eq!(shipped.scorer().scores_asked.get(), steps.len() as u64);

    // A run that does declare costs exactly its own windows: the three
    // hits, not the definite misses around them.
    let scorer = Scripted::new(1, vec![MISS, h, h, h, MISS, MISS], true);
    let series = scorer.series();
    let shipped = DetectorRunner::new(scorer, THRESHOLD, 3);
    assert_eq!(shipped.run(&series).len(), 1);
    assert_eq!(shipped.scorer().scores_asked.get(), 3);
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
    let series = TimeSeries::new(START, values);
    let mask = random_mask(7, &series);
    let mut declared = [0; 3];
    for persistence in [1, 7] {
        let context = format!("persistence {persistence}");
        declared[0] += assert_all_entry_points_match(
            CusumDetector::with_params(30, 15, 0.5, Some(16)),
            0.9,
            persistence,
            &series,
            &mask,
            &format!("cusum, {context}"),
        )
        .len();
        declared[1] += assert_all_entry_points_match(
            MrlsDetector::new(16),
            0.3,
            persistence,
            &series,
            &mask,
            &format!("mrls, {context}"),
        )
        .len();
        declared[2] += assert_all_entry_points_match(
            WowDetector::new(60, 20),
            0.05,
            persistence,
            &series,
            &mask,
            &format!("wow, {context}"),
        )
        .len();
    }
    assert!(
        declared.iter().all(|&n| n > 0),
        "a baseline never declared, so nothing was compared: {declared:?}"
    );
}
