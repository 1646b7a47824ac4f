//! The one fan-out in the workspace: a fixed pool of scoped worker threads
//! over an indexed job list, results handed back in job order.
//!
//! It lives here, below every crate that runs work on more than one core,
//! because it owns the per-worker span and its flush. `funnel-core`
//! re-exports it (`funnel_core::parallel::fan_out`) for the assessment
//! paths, the streaming tick and the evaluation harness; `funnel-sim`
//! calls it to generate a world's series once each
//! (`World::materialize`).
//!
//! Nothing here reads the clock, iterates a hashed container, or panics —
//! `clippy.toml` and the hot-path `deny` line below gate this file as part
//! of the ingestion-to-verdict hot path.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::names::Name;
use parking_lot::Mutex;

/// Claims a worker makes over an evenly loaded run: enough that one slow
/// batch (a unit that went on to DiD) cannot leave the other workers idle
/// for long, few enough that claiming stays a rounding error.
const CLAIMS_PER_WORKER: usize = 8;

/// Runs `run_job` over every job on `workers` scoped threads and returns
/// the results in job order: position `i` holds job `i`'s result.
///
/// Workers claim a batch of consecutive indices under one short lock, so a
/// tick of a thousand cheap folds costs a few dozen claims, not a thousand
/// messages. Each worker builds its state with `worker_state` once and,
/// when `worker_span` names one, runs inside that span (indexed by worker)
/// and flushes its span buffer before the thread exits.
///
/// One worker (or at most one job) runs inline on the calling thread, with
/// no span, through the same two closures — serial and parallel callers
/// cannot drift apart.
pub fn fan_out<J: Send, W, R: Send>(
    jobs: Vec<J>,
    workers: usize,
    worker_span: Option<Name>,
    worker_state: impl Fn() -> W + Sync,
    run_job: impl Fn(&mut W, J) -> R + Sync,
) -> Vec<R> {
    let units = jobs.len();
    let workers = workers.clamp(1, units.max(1));
    if workers == 1 {
        let mut state = worker_state();
        return jobs
            .into_iter()
            .map(|job| run_job(&mut state, job))
            .collect();
    }

    let batch = units.div_ceil(workers * CLAIMS_PER_WORKER).max(1);
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let finished: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(units));
    std::thread::scope(|scope| {
        for worker_idx in 0..workers {
            let (queue, finished, worker_state, run_job) =
                (&queue, &finished, &worker_state, &run_job);
            scope.spawn(move || {
                let span = worker_span.map(|name| crate::span!(name, worker_idx));
                let mut state = worker_state();
                let mut results = Vec::new();
                loop {
                    let claimed: Vec<(usize, J)> = queue.lock().by_ref().take(batch).collect();
                    if claimed.is_empty() {
                        break;
                    }
                    for (index, job) in claimed {
                        results.push((index, run_job(&mut state, job)));
                    }
                }
                finished.lock().append(&mut results);
                // Merge this worker's span buffer before the scoped thread
                // exits — commutative merge, so flush order is unobservable.
                drop(span);
                crate::flush_thread();
            });
        }
    });
    // Which worker ran which job is scheduling-dependent; the index erases it.
    let mut finished = finished.into_inner();
    finished.sort_unstable_by_key(|(index, _)| *index);
    finished.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The primitive alone: job `i` yields `i * 2`.
    fn doubled(units: usize, workers: usize) -> Vec<usize> {
        fan_out((0..units).collect(), workers, None, || (), |(), i| i * 2)
    }

    #[test]
    fn fan_out_results_are_complete_and_index_addressed() {
        for workers in [1, 2, 3, 8, 64] {
            let out = doubled(37, workers);
            assert_eq!(out.len(), 37, "workers={workers}");
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, i * 2, "workers={workers}: slot {i}");
            }
        }
        // No units, and more workers than units.
        assert!(doubled(0, 1).is_empty());
        assert!(doubled(0, 8).is_empty());
        assert_eq!(doubled(1, 8), vec![0]);
        assert_eq!(doubled(3, 8), vec![0, 2, 4]);
    }
}
