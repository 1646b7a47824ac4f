//! A run that recalls its scorer's answers declares what a run that asks
//! the scorer declares.
//!
//! [`WindowOutcomes`] lets one [`PersistenceRun`] record what its scorer
//! said of each window and a later run, over the same samples, recall it.
//! Two properties hold that up:
//!
//! * **The reader is the run without a memory.** Run A, shaped like a
//!   stream monitor (every window offered as it completes, held windows
//!   re-read from a source that keeps only the last few), writes the
//!   memory; random `forget_from` calls follow; run B, shaped like a batch
//!   assessment (starts later, skips windows for coverage), reads it. B's
//!   events, its `screened` and `dropped` counts, the answers it needed and
//!   its final state are those of B with `()` for a memory, and B never
//!   asks the scorer what the memory knows. The scorer is scripted, bound
//!   and score chosen independently minute by minute.
//! * **The memory is a map with a horizon.** Against a `BTreeMap` model:
//!   put, get, forget, retention, minutes below its start, a jump past the
//!   whole retained span, a score overwritten, the cap on kept scores.
//!
//! Mutations this file must catch (each was run, each fails): a recalled
//! `Below` answering the bound as `Screened`; a recalled `Candidate`
//! answering the score as a miss; a held window the source no longer
//! retains recorded as `Below`; the retained span moving on without
//! clearing the tags it steps over; `forget_from` keeping the scores.

use funnel_detect::detector::{
    ChangeEvent, DetectorRunner, PersistenceRun, ReachingScorer, ScoringPass, WindowScorer,
    WindowSource, WindowTally,
};
use funnel_detect::outcomes::{Outcome, Outcomes, WindowOutcomes};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;

const START: u64 = 1000;
const THRESHOLD: f64 = 1.0;
const WIDTH: usize = 3;

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
    bound: f64,
    score: f64,
}

/// Sticky stretches of hits, definite misses, candidates that miss and NaN
/// scores, so that runs of every length around the persistence length occur.
fn random_steps(seed: u64, minutes: usize) -> Vec<Step> {
    let mut next = xorshift(seed);
    let mut kind = 0;
    (0..minutes)
        .map(|_| {
            if next() < 0.3 {
                kind = (next() * 6.0) as usize;
            }
            match kind {
                0..=2 => {
                    let score = THRESHOLD + 2.0 * next();
                    Step {
                        bound: score + 0.5,
                        score,
                    }
                }
                3 => Step {
                    bound: 0.25,
                    score: 0.125,
                },
                4 => Step {
                    bound: 3.0,
                    score: 0.5,
                },
                _ => Step {
                    bound: 2.0,
                    score: f64::NAN,
                },
            }
        })
        .collect()
}

/// Scores by script. Every sample is its own minute, so a window's last
/// sample names the minute it is decided at. Logs what it is asked.
struct Scripted {
    steps: Vec<Step>,
    bounds_asked: RefCell<Vec<u64>>,
    scores_asked: RefCell<Vec<u64>>,
}

impl Scripted {
    fn new(steps: Vec<Step>) -> Self {
        Self {
            steps,
            bounds_asked: RefCell::default(),
            scores_asked: RefCell::default(),
        }
    }

    /// One sample a minute, from `WIDTH − 1` minutes before the first
    /// scripted window.
    fn series(&self) -> TimeSeries {
        let first = START + 1 - WIDTH as u64;
        let end = START + self.steps.len() as u64;
        TimeSeries::new(first, (first..end).map(|m| m as f64).collect())
    }

    fn minute_of(window: &[f64]) -> u64 {
        assert_eq!(window.len(), WIDTH);
        let last = *window.last().unwrap() as u64;
        assert_eq!(window[0] as u64 + WIDTH as u64 - 1, last, "not a window");
        last
    }

    fn step(&self, minute: u64) -> Step {
        self.steps[(minute - START) as usize]
    }

    fn take_log(&self) -> (Vec<u64>, Vec<u64>) {
        (self.bounds_asked.take(), self.scores_asked.take())
    }
}

impl WindowScorer for Scripted {
    fn window_len(&self) -> usize {
        WIDTH
    }
    fn score(&self, window: &[f64]) -> f64 {
        let minute = Self::minute_of(window);
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
    fn may_reach(&mut self, window: &[f64], threshold: f64) -> bool {
        let minute = Scripted::minute_of(window);
        self.0.bounds_asked.borrow_mut().push(minute);
        self.0.step(minute).bound >= threshold
    }
    fn score_reaching(&mut self, window: &[f64], threshold: f64) -> Option<f64> {
        let score = self.0.score(window);
        (score >= threshold).then_some(score)
    }
}

/// The windows of the scripted series, kept from `oldest` on.
struct Kept {
    oldest: u64,
    buf: Vec<f64>,
}

impl WindowSource for Kept {
    fn window_at(&mut self, minute: u64) -> Option<&[f64]> {
        if minute < self.oldest {
            return None;
        }
        self.buf.clear();
        self.buf
            .extend((minute + 1 - WIDTH as u64..=minute).map(|m| m as f64));
        Some(&self.buf)
    }
}

fn window_of(minute: u64) -> Vec<f64> {
    (minute + 1 - WIDTH as u64..=minute)
        .map(|m| m as f64)
        .collect()
}

fn bits(events: &[ChangeEvent]) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .map(|e| (e.declared_at, e.first_exceeded_at, e.peak_score.to_bits()))
        .collect()
}

/// Run B: a fresh persistence run from `from`, windows in `skipped` skipped
/// for coverage, everything retained. Returns events, tally, final state.
fn assessment_run(
    scorer: &Scripted,
    persistence: usize,
    from: u64,
    skipped: &[bool],
    outcomes: impl Outcomes,
) -> (Vec<ChangeEvent>, WindowTally, PersistenceRun) {
    let mut handle = scorer.reaching_scorer();
    let mut pass = ScoringPass {
        scorer: &mut handle,
        threshold: THRESHOLD,
        held: Kept {
            oldest: 0,
            buf: Vec::new(),
        },
        outcomes,
        tally: WindowTally::default(),
    };
    let mut run = PersistenceRun::new(persistence);
    let mut events = Vec::new();
    let end = START + scorer.steps.len() as u64;
    for minute in from..end {
        if skipped[(minute - START) as usize] {
            run.skip_window(&mut pass);
        } else {
            events.extend(run.offer_window(minute, &window_of(minute), &mut pass));
        }
    }
    (events, pass.tally, run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_reading_run_is_the_run_without_a_memory(
        seed in any::<u64>(),
        persistence in 1usize..10,
        minutes in 1usize..160,
        retention in 1usize..200,
        depth in 0u64..14,
    ) {
        let mut next = xorshift(seed ^ 0x5bd1_e995);
        let scorer = Scripted::new(random_steps(seed, minutes));
        let end = START + minutes as u64;

        // Run A, the monitor: every window from `a` on, held windows re-read
        // from a source `depth` minutes deep, now and then a re-prime.
        let a = START + (next() * minutes as f64) as u64;
        let mut memory = WindowOutcomes::new(retention);
        {
            let mut handle = scorer.reaching_scorer();
            let mut pass = ScoringPass {
                scorer: &mut handle,
                threshold: THRESHOLD,
                held: Kept { oldest: 0, buf: Vec::new() },
                outcomes: &mut memory,
                tally: WindowTally::default(),
            };
            let mut run = PersistenceRun::new(persistence);
            for minute in a..end {
                if next() < 0.03 {
                    run.break_run(&mut pass.tally);
                }
                pass.held.oldest = minute.saturating_sub(depth);
                run.offer_window(minute, &window_of(minute), &mut pass);
            }
            prop_assert_eq!(pass.tally.reused, 0, "a monitor never meets a minute twice");
        }
        // Nothing remembered disagrees with the script.
        for minute in START..end {
            let step = scorer.step(minute);
            let reaches = step.score >= THRESHOLD;
            match memory.recall(minute) {
                Outcome::Unknown => {}
                Outcome::Screened => prop_assert!(step.bound < THRESHOLD),
                Outcome::Candidate => prop_assert!(step.bound >= THRESHOLD),
                Outcome::Below => prop_assert!(step.bound >= THRESHOLD && !reaches),
                Outcome::Reached(score) => {
                    prop_assert!(reaches && score.to_bits() == step.score.to_bits());
                }
            }
        }
        for _ in 0..(next() * 3.0) as usize {
            memory.forget_from(START + (next() * (minutes + 4) as f64) as u64);
        }
        scorer.take_log();

        // Run B, the assessment, with and without the memory.
        let b = a + (next() * (end - a) as f64) as u64;
        let skipped: Vec<bool> = (0..minutes).map(|_| next() < 0.08).collect();
        let known: Vec<Outcome> = (START..end).map(|m| memory.recall(m)).collect();
        let before = memory.clone();
        let (events, tally, state) = assessment_run(&scorer, persistence, b, &skipped, &memory);
        let (bounds_asked, scores_asked) = scorer.take_log();
        let (plain_events, plain_tally, plain_state) =
            assessment_run(&scorer, persistence, b, &skipped, ());

        prop_assert_eq!(bits(&events), bits(&plain_events));
        prop_assert_eq!(state, plain_state);
        prop_assert_eq!(tally.screened, plain_tally.screened);
        prop_assert_eq!(tally.dropped, plain_tally.dropped);
        prop_assert_eq!(tally.asked, plain_tally.asked);
        prop_assert_eq!(plain_tally.reused, 0);
        prop_assert_eq!(
            tally.asked - tally.reused,
            (bounds_asked.len() + scores_asked.len()) as u64,
            "every answer not recalled was asked of the scorer, once"
        );
        prop_assert_eq!(tally.scored, scores_asked.len() as u64);
        prop_assert_eq!(&memory, &before, "a reader left its mark");
        for minute in bounds_asked {
            prop_assert_eq!(known[(minute - START) as usize], Outcome::Unknown);
        }
        for minute in scores_asked {
            let outcome = known[(minute - START) as usize];
            prop_assert!(matches!(outcome, Outcome::Unknown | Outcome::Candidate));
        }

        // And through the runner, which is how the pipeline reads it.
        let series = scorer.series();
        let tail = TimeSeries::new(b + 1 - WIDTH as u64, series.slice(b + 1 - WIDTH as u64, end).to_vec());
        let mut mask = CoverageMask::new(tail.start());
        for minute in tail.start()..end {
            if next() < 0.9 {
                mask.mark(minute);
            }
        }
        let plain = DetectorRunner::new(Scripted::new(scorer.steps.clone()), THRESHOLD, persistence);
        let want = plain.run_masked_gap_aware(&tail, &mask, 0.6, 4);
        plain.scorer().take_log();
        let recalling = plain.recalling(&memory);
        prop_assert_eq!(recalling.run_masked_gap_aware(&tail, &mask, 0.6, 4), want);
        let (bounds_asked, _) = recalling.scorer().take_log();
        for minute in bounds_asked {
            prop_assert_eq!(known[(minute - START) as usize], Outcome::Unknown);
        }
    }
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
            let reached: Vec<u64> = self
                .known
                .iter()
                .filter(|(_, o)| matches!(o, Outcome::Reached(_)))
                .map(|(&m, _)| m)
                .collect();
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
    #![proptest_config(ProptestConfig::with_cases(1024))]

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
fn an_unretained_held_window_is_a_miss_that_is_not_remembered() {
    // Persistence 3: the third candidate makes a declaration reachable and
    // the oldest held window is scored, but the monitor's source has lost
    // it. The run counts a miss; the memory still says only "candidate".
    let hit = Step {
        bound: 2.5,
        score: 2.0,
    };
    let scorer = Scripted::new(vec![hit; 6]);
    let mut memory = WindowOutcomes::new(16);
    let mut handle = scorer.reaching_scorer();
    let mut pass = ScoringPass {
        scorer: &mut handle,
        threshold: THRESHOLD,
        held: Kept {
            oldest: START + 1,
            buf: Vec::new(),
        },
        outcomes: &mut memory,
        tally: WindowTally::default(),
    };
    let mut run = PersistenceRun::new(3);
    let mut declared = Vec::new();
    for minute in START..START + 6 {
        declared.extend(run.offer_window(minute, &window_of(minute), &mut pass));
    }
    assert_eq!(
        declared.iter().map(|e| e.declared_at).collect::<Vec<_>>(),
        [START + 3],
        "the run restarts after the lost window"
    );
    assert_eq!(memory.recall(START), Outcome::Candidate);
    assert_eq!(memory.recall(START + 1), Outcome::Reached(2.0));
    // The assessment, which retains everything, declares a minute earlier.
    let (events, tally, _) = assessment_run(&scorer, 3, START, &[false; 6], &memory);
    assert_eq!(events[0].declared_at, START + 2);
    assert_eq!(tally.scored, 1, "only the window the monitor lost");
}
