//! The Eq. 11 bound read off sliding sorted segments returns the bits of the
//! selections it replaced.
//!
//! [`FastSst::bound_in`] keeps the last window's two raw segments sorted in
//! a [`SlidingSegments`], slides them when the next window is its one-minute
//! successor, and reads the multiplier off the order. The oracle is the path
//! that stays shipped for `RobustSst` and for non-finite data:
//! [`standardize_by_past`] then [`FilterFactors::from_segments`], six
//! selections over a fresh copy. The properties run whole *series* through
//! held state, because what can go wrong is state: a sample that should
//! have left a segment, a window mistaken for a successor, a score of an
//! older window that moved what the next bound slides from. One walk hands
//! two series to one sliding state; the other gives each of several series
//! its own, as a stream gives each key, folded round-robin a minute at a
//! time through one shared scratch workspace, one series' history
//! rewritten behind its frontier and its rolling window reset.
//!
//! Mutations this file was checked against (each fails it):
//! comparing fewer than `W − 1` overlapping samples in the successor test
//! (first and last four only), dropping the finite-ends / finite-statistics
//! fallback, and a score taking the multiplier the bound left without
//! checking that the segments describe the scored window.

use funnel_sst::filter::FilterFactors;
use funnel_sst::layout::standardize_by_past;
use funnel_sst::{
    FastSst, ReachingScorer, SlidingSegments, SstConfig, SstScorer, SstWorkspace, StreamingSst,
};
use proptest::prelude::*;

/// The four window geometries of the issue (odd and even future), plus the
/// two branches they leave cold: unstandardized, and an even past.
fn configs() -> Vec<SstConfig> {
    let mut out = vec![
        SstConfig::quick(),
        SstConfig::paper_default(),
        SstConfig::precise(),
    ];
    let mut c = SstConfig::paper_default();
    c.rho = 1;
    out.push(c);
    let mut c = SstConfig::quick();
    c.standardize = false;
    out.push(c);
    let mut c = SstConfig::quick();
    c.delta = c.omega + 1;
    out.push(c);
    out
}

/// The multiplier as shipped before the segments slid.
fn oracle(c: &SstConfig, window: &[f64]) -> f64 {
    let p = c.past_len();
    let loaded = if c.standardize {
        standardize_by_past(window, p)
    } else {
        window.to_vec()
    };
    FilterFactors::from_segments(&loaded[..p], &loaded[p..]).multiplier()
}

struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Values whose arithmetic leaves the finite, ordered world, or sits at its
/// edges.
const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e308,
    -1e308,
    5e-324,
    -5e-324,
    1.1e-308,
    0.0,
    -0.0,
];

const SHAPES: u64 = 8;

/// A series of `len` samples. Every shape may carry a level shift and a few
/// isolated specials, which then enter the future segment, cross into the
/// past and leave, one minute at a time.
fn series(len: usize, shape: u64, rng: &mut Rng) -> Vec<f64> {
    let onset = rng.below(2 * len);
    let shift = 8.0 * rng.unit();
    let mut v: Vec<f64> = (0..len)
        .map(|i| {
            let level = if i >= onset { shift } else { 0.0 };
            let noise = rng.unit();
            match shape {
                // A quantized counter: many ties.
                0 => (40.0 + 5.0 * noise + level).round(),
                // One around zero: ties, `-0.0` and `+0.0`.
                1 => (3.0 * (noise - 0.5) + level / 8.0).round(),
                2 => 50.0 + noise + level,
                // Flat stretches longer than a past segment, then noise.
                3 if (i / 40) % 2 == 0 => 7.0,
                3 => 7.0 + (4.0 * noise).round() + level,
                4 => 42.5,
                // Subnormal noise around zero.
                5 => (noise - 0.5) * 1e-320,
                // Magnitudes whose differences overflow.
                6 => (2.0 * noise - 1.0) * 1.7e308,
                // Runs of one special long enough to own a segment's median:
                // statistics that are themselves infinite or NaN.
                _ if (i / 12) % 2 == 0 => SPECIALS[(i / 12 + onset) % SPECIALS.len()],
                // … over a scale small enough that `±1e308 / s` overflows.
                _ => 0.1 * noise,
            }
        })
        .collect();
    for _ in 0..rng.below(5) {
        let at = rng.below(len);
        v[at] = SPECIALS[rng.below(SPECIALS.len())];
    }
    v
}

/// The thresholds of `shipped_reference.rs`, around the multiplier `m`.
fn thresholds(m: f64) -> [f64; 11] {
    let above = f64::from_bits(m.to_bits().wrapping_add(1));
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    [0.5, 0.0, -0.0, -1.0, inf, nan, 1e-3, 3.0, m, above, 0.5 * m]
}

/// Runs one scripted walk over two related series through one held
/// workspace and sliding state and one run handle, checking every answer
/// against the oracle.
fn walk(c: &SstConfig, seed: u64) {
    let mut rng = Rng(seed | 1);
    let w = c.window_len();
    let len = w + 70;
    let a = series(len, seed % SHAPES, &mut rng);
    // The second series is the first with history rewritten behind the
    // frontier (what a late backfill does), or another series altogether.
    let mut b = if rng.below(3) == 0 {
        series(len, rng.below(SHAPES as usize) as u64, &mut rng)
    } else {
        a.clone()
    };
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(len);
        b[at] = if rng.below(2) == 0 {
            SPECIALS[rng.below(SPECIALS.len())]
        } else {
            b[at] + 1.0
        };
    }
    let both = [a, b];

    let fast = FastSst::new(c.clone());
    let mut ws = SstWorkspace::new(c);
    let mut segments = SlidingSegments::new(c);
    let mut handle = fast.reaching_scorer();
    let (mut which, mut at) = (0, 0);
    for step in 0..130 {
        match rng.below(20) {
            // Mostly the one-minute successor …
            0..=12 => at += 1,
            // … the same window again …
            13 => {}
            // … a jump …
            14 => at = rng.below(len - w + 1),
            // … the other series, one minute on …
            15 | 16 => {
                which = 1 - which;
                at += 1;
            }
            // … or the score of an older, held window between two bounds.
            _ => {
                let from = at.saturating_sub(1 + rng.below(8));
                let older = &both[which][from..from + w];
                let score = fast.raw_score(older) * oracle(c, older);
                for t in [0.5, 1e-3, score] {
                    let want = (score >= t).then_some(score).map(f64::to_bits);
                    let got = fast.score_reaching_in(&mut ws, older, t);
                    assert_eq!(got.map(f64::to_bits), want, "held score, step {}", step);
                    let got = fast
                        .sliding(&mut ws, &mut segments)
                        .score_reaching(older, t);
                    assert_eq!(got.map(f64::to_bits), want, "sliding score, step {}", step);
                    let got = handle.score_reaching(older, t);
                    assert_eq!(got.map(f64::to_bits), want, "handle score, step {}", step);
                }
                // Then the window the bound last saw again, or its successor.
                at += rng.below(2);
            }
        }
        if at + w > len {
            at = 0;
        }
        let window = &both[which][at..at + w];
        let want = oracle(c, window);
        // Which of the two entry points meets the window first alternates.
        if step % 2 == 0 {
            let got = fast.bound_in(&mut ws, &mut segments, window);
            assert_eq!(
                got.map(f64::to_bits),
                Some(want.to_bits()),
                "step {} series {} at {}: {:?} vs {}",
                step,
                which,
                at,
                got,
                want
            );
        }
        for t in thresholds(want) {
            let screened = want < t;
            assert_eq!(
                !fast.may_reach_in(&mut ws, &mut segments, window, t),
                screened,
                "step {} series {} at {} threshold {} multiplier {}",
                step,
                which,
                at,
                t,
                want
            );
            assert_eq!(
                !handle.may_reach(window, t),
                screened,
                "handle: step {} threshold {}",
                step,
                t
            );
        }
        let got = fast.bound_in(&mut ws, &mut segments, window);
        assert_eq!(
            got.map(f64::to_bits),
            Some(want.to_bits()),
            "repeat, step {}",
            step
        );
    }
}

/// The bound of each of `n` series' windows, and its score now and then,
/// against the oracle, as a stream worker asks them: the series take turns
/// a minute at a time, each with its own rolling window and sliding state,
/// all through one scratch workspace. Midway one series' history is
/// rewritten inside its current window (a late backfill), and its rolling
/// window is reset and re-primed from `W − 1` minutes back, as the engine
/// does: the first window after that shares `W − 1` minutes with the last
/// one its state saw, but not their bits.
fn interleaved(c: &SstConfig, seed: u64) {
    let mut rng = Rng(seed | 1);
    let w = c.window_len();
    let len = w + 60;
    let n = 2 + rng.below(3);
    let mut all: Vec<Vec<f64>> = (0..n as u64)
        .map(|k| series(len, (seed + k) % SHAPES, &mut rng))
        .collect();
    if rng.below(2) == 0 {
        // Two keys of one quantized counter agree on most minutes.
        all[1] = all[0].clone();
        let at = rng.below(len);
        all[1][at] += 1.0;
    }
    let fast = FastSst::new(c.clone());
    let mut ws = SstWorkspace::new(c);
    let mut rolling: Vec<StreamingSst<FastSst>> =
        (0..n).map(|_| StreamingSst::new(fast.clone())).collect();
    let mut segments: Vec<SlidingSegments> = (0..n).map(|_| SlidingSegments::new(c)).collect();
    let mut next = vec![0; n];
    let (victim, rewrite_at) = (rng.below(n), w + rng.below(len - w));
    for minute in 0..len {
        if minute == rewrite_at {
            let at = minute - 1 - rng.below(w - 1);
            all[victim][at] = if rng.below(2) == 0 {
                SPECIALS[rng.below(SPECIALS.len())]
            } else {
                all[victim][at] + 1.0
            };
            rolling[victim].reset();
            next[victim] = minute + 1 - w;
        }
        for k in 0..n {
            while next[k] <= minute {
                let end = next[k];
                let segments = &mut segments[k];
                let ws = &mut ws;
                let score_older = rng.below(6) == 0;
                let back = 1 + rng.below(8);
                rolling[k].fold_with(all[k][end], |fast, window| {
                    let want = oracle(c, window);
                    let got = fast.bound_in(ws, segments, window);
                    let place = format!("series {k} of {n}, window ending {end}");
                    assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{place}");
                    for t in thresholds(want) {
                        let mut sliding = fast.sliding(ws, segments);
                        assert_eq!(!sliding.may_reach(window, t), want < t, "{place}, {t}");
                    }
                    // A held window scored between two bounds: the one the
                    // bound just saw, or an older one.
                    let from = if score_older {
                        (end + 1 - w).saturating_sub(back)
                    } else {
                        end + 1 - w
                    };
                    let held = &all[k][from..from + w];
                    let score = fast.raw_score(held) * oracle(c, held);
                    let got = fast.sliding(ws, segments).score_reaching(held, 0.0);
                    assert_eq!(
                        got.map(f64::to_bits),
                        (score >= 0.0).then_some(score).map(f64::to_bits),
                        "{place}, score of the window from {from}"
                    );
                });
                next[k] += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every bound of a walk, whatever came before it through the same
    /// workspace, is the oracle's: the multiplier bit for bit, `may_reach` at
    /// every threshold, and the scores of held windows in between.
    #[test]
    fn sliding_bound_is_bit_identical_to_selection(seed in any::<u64>()) {
        for c in configs() {
            walk(&c, seed);
        }
    }

    /// Every bound of several series walked round-robin, each through its
    /// own sliding state and one shared workspace, is the oracle's bit for
    /// bit, through a rewrite of one series' history and its reset.
    #[test]
    fn interleaved_series_slide_their_own_segments(seed in any::<u64>()) {
        for c in configs() {
            interleaved(&c, seed);
        }
    }
}

/// The generator must reach every branch of the bound, or the property is
/// vacuous: finite and non-finite windows, flat pasts, screened and
/// surviving windows.
#[test]
fn generated_series_reach_every_branch() {
    let c = SstConfig::paper_default();
    let (w, p) = (c.window_len(), c.past_len());
    let (mut non_finite_m, mut non_finite, mut flat_past, mut screened, mut candidates) =
        (0, 0, 0, 0, 0);
    for seed in 0..4 * SHAPES {
        let values = series(w + 70, seed % SHAPES, &mut Rng(0x5eed + 977 * seed));
        for window in values.windows(w) {
            let m = oracle(&c, window);
            non_finite_m += usize::from(!m.is_finite());
            non_finite += usize::from(window.iter().any(|x| !x.is_finite()));
            flat_past += usize::from(window[..p].iter().all(|x| *x == window[0]));
            screened += usize::from(m < 0.5);
            candidates += usize::from(m >= 0.5);
        }
    }
    for (what, n) in [
        ("non-finite multipliers", non_finite_m),
        ("non-finite windows", non_finite),
        ("flat pasts", flat_past),
        ("screened windows", screened),
        ("candidates", candidates),
    ] {
        assert!(n >= 20, "only {n} {what}");
    }
}
