//! Steady-state scoring allocates nothing.
//!
//! A counting `#[global_allocator]` (per thread, so the harness cannot
//! disturb it) watches 1,000 `score_window_in` / `may_reach_in` /
//! `score_reaching_in` calls through one held [`SstWorkspace`] (the bounds
//! slide their [`SlidingSegments`] from window to window), 1,000 more
//! bounds that cannot slide (no window the successor of the last, a
//! non-finite sample in some), 1,000 warm
//! [`StreamingSst`] folds through the same workspace, warm folds of four
//! keys taken in turn, each bound sliding the key's own segments through
//! the one workspace, and a deferred batch
//! of folds through a scorer's run handle (the bound at each fold, the
//! held candidates scored afterwards): after one warm-up call each, the
//! count must stay at zero. The workspace also holds the η `ϕ`
//! tridiagonals a full score builds and then solves together, resized in
//! place each window: still nothing allocated per window. The
//! workspace-less convenience calls pay for one throw-away workspace and
//! nothing per Lanczos step, QL solve or order statistic.

#![expect(
    unsafe_code,
    reason = "a counting allocator implements the unsafe `GlobalAlloc` trait; the workspace denies unsafe code everywhere else"
)]

use funnel_sst::{
    FastSst, ReachingScorer, SlidingSegments, SstConfig, SstScorer, SstWorkspace, StreamingSst,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread performs while `work` runs.
fn allocations_in(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// A noisy series with a level shift every 150 samples, so that both the
/// screened and the surviving branch of `score_reaching_in` run.
fn series(len: usize) -> Vec<f64> {
    let mut state = 0x2015_u64;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64;
            50.0 + noise + if (i / 150) % 2 == 1 { 6.0 } else { 0.0 }
        })
        .collect()
}

#[test]
fn steady_state_scoring_performs_zero_allocations() {
    for config in [SstConfig::paper_default(), SstConfig::precise()] {
        let w = config.window_len();
        let values = series(1_000 + w);
        let scorer = FastSst::new(config.clone());
        let mut ws = SstWorkspace::new(&config);
        let mut segments = SlidingSegments::new(&config);
        let windows = || values.windows(w).skip(1).take(1_000);
        assert_eq!(windows().count(), 1_000);

        std::hint::black_box(scorer.score_window_in(&mut ws, &values[..w]));
        let full = allocations_in(|| {
            for win in windows() {
                std::hint::black_box(scorer.score_window_in(&mut ws, win));
            }
        });
        assert_eq!(full, 0, "score_window_in allocated (W = {w})");

        let mut reached = 0;
        let screened = allocations_in(|| {
            for win in windows() {
                reached += usize::from(scorer.score_reaching_in(&mut ws, win, 0.5).is_some());
            }
        });
        assert_eq!(screened, 0, "score_reaching_in allocated (W = {w})");
        assert!(
            (1..1_000).contains(&reached),
            "both branches must run, {reached} of 1000 reached"
        );

        let mut candidates = 0;
        let bounded = allocations_in(|| {
            for win in windows() {
                candidates += usize::from(scorer.may_reach_in(&mut ws, &mut segments, win, 0.5));
            }
        });
        assert_eq!(bounded, 0, "may_reach_in allocated (W = {w})");
        assert!(
            (reached..1_000).contains(&candidates),
            "the bound must rule some windows out and keep every hit, \
             {candidates} candidates for {reached} hits"
        );

        // A window that is no successor sorts both segments afresh, and a
        // non-finite sample sends the bound back to its selections.
        let mut poisoned = values.clone();
        for (i, x) in poisoned.iter_mut().enumerate().skip(5).step_by(200) {
            *x = [f64::NAN, f64::INFINITY][i % 2];
        }
        let mut fell_back = 0;
        let rebuilt = allocations_in(|| {
            for (i, win) in windows().enumerate() {
                let backwards = &poisoned[1_000 - i..][..w];
                fell_back += usize::from(backwards.iter().any(|x| !x.is_finite()));
                std::hint::black_box(scorer.may_reach_in(&mut ws, &mut segments, backwards, 0.5));
                std::hint::black_box(scorer.may_reach_in(&mut ws, &mut segments, win, 0.5));
            }
        });
        assert_eq!(
            rebuilt, 0,
            "a rebuilt or selected bound allocated (W = {w})"
        );
        assert!(
            fell_back >= 100,
            "only {fell_back} windows held a non-finite sample"
        );

        // What a stream worker does in one tick after another: fold a minute
        // into each of several keys in turn, each bound sliding the key's
        // own segments through the worker's one workspace.
        const KEYS: usize = 4;
        let mut keys: Vec<(StreamingSst<FastSst>, SlidingSegments)> = (0..KEYS)
            .map(|_| {
                (
                    StreamingSst::new(scorer.clone()),
                    SlidingSegments::new(&config),
                )
            })
            .collect();
        let rounds = values.len() / KEYS;
        let value = |minute: usize, k: usize| values[(minute * KEYS + k) % values.len()];
        let mut fold_round = |minute: usize, candidates: &mut usize| {
            for (k, (rolling, segments)) in keys.iter_mut().enumerate() {
                let bound = rolling.fold_with(value(minute, k), |s, win| {
                    s.may_reach_in(&mut ws, segments, win, 0.5)
                });
                *candidates += usize::from(bound == Some(true));
            }
        };
        let mut interleaved_candidates = 0;
        for minute in 0..w {
            fold_round(minute, &mut interleaved_candidates);
        }
        let interleaved = allocations_in(|| {
            for minute in w..rounds {
                fold_round(minute, &mut interleaved_candidates);
            }
        });
        assert_eq!(
            interleaved, 0,
            "interleaved folds of {KEYS} keys allocated (W = {w})"
        );
        assert!(interleaved_candidates > 0);

        // What a deferring monitor does: ask the bound as each window
        // completes, score the held candidates later from their samples.
        let mut deferred = StreamingSst::new(scorer.clone());
        let mut handle = scorer.reaching_scorer();
        let mut held = Vec::with_capacity(values.len());
        let mut later = 0;
        let deferred_folds = allocations_in(|| {
            for (end, &v) in values.iter().enumerate() {
                if deferred.fold_with(v, |_, win| handle.may_reach(win, 0.5)) == Some(true) {
                    held.push(end + 1 - w);
                }
            }
            for &from in &held {
                later += usize::from(
                    handle
                        .score_reaching(&values[from..from + w], 0.5)
                        .is_some(),
                );
            }
        });
        assert_eq!(deferred_folds, 0, "deferred folds allocated (W = {w})");
        assert!(later >= reached && held.len() > later);

        let mut stream = StreamingSst::new(scorer.clone());
        for &v in &values[..w] {
            stream.fold_with(v, |s, win| s.score_reaching_in(&mut ws, win, 0.5));
        }
        assert!(stream.is_warm());
        let folds = allocations_in(|| {
            for &v in &values[w..] {
                std::hint::black_box(
                    stream.fold_with(v, |s, win| s.score_reaching_in(&mut ws, win, 0.5)),
                );
            }
        });
        assert_eq!(folds, 0, "warm StreamingSst folds allocated (W = {w})");

        // Without a held workspace a call costs its throw-away workspace —
        // a fixed dozen buffers — and nothing that scales with the work.
        let one_workspace = allocations_in(|| drop(SstWorkspace::new(&config)));
        let unheld = allocations_in(|| {
            std::hint::black_box(scorer.score_window(&values[..w]));
        });
        assert_eq!(
            unheld, one_workspace,
            "score_window allocates beyond its workspace"
        );
        let unheld_fold = allocations_in(|| {
            std::hint::black_box(stream.fold(values[0]));
        });
        assert_eq!(
            unheld_fold, one_workspace,
            "fold allocates beyond its workspace"
        );
    }
}
