//! The one fan-out every assessment path runs through, and the
//! deterministic merge behind it.
//!
//! The paper's pitch is *rapid* assessment — hundreds of servers, instances
//! and services × KPIs judged within minutes of a rollout. Each work unit
//! (one impact-set KPI, enumerated by
//! [`enumerate_work_units`](crate::pipeline::enumerate_work_units)) is
//! independent of every other, so the work is embarrassingly parallel. This
//! module supplies the harness, in two layers:
//!
//! * [`fan_out`] — the primitive. A fixed pool of scoped worker threads
//!   claims jobs from one indexed list a batch of consecutive indices at a
//!   time (one short lock a batch; no channel, no queue that can grow),
//!   builds its per-worker state once, and hands the results back in job
//!   order. No work stealing, no runtime. The streaming engine's per-tick
//!   scoring calls it directly, and so do the evaluation harness's
//!   per-change cohort pass and the deployment week's per-day one.
//! * `assess_units` — the assessment form. The batch pipeline, the
//!   re-assessment queue and the streaming completion path call it with
//!   `Funnel::assess_item` as the per-unit function, the supervisor with
//!   its retry/quarantine loop around the same function. It owns the
//!   assessment's one control table, the worker spans and the error rule.
//!
//! What keeps the output independent of the worker count:
//!
//! * **Contention-free reads** — workers share a read-only
//!   [`KpiSource`]. For live stores, callers pass a
//!   [`StoreSnapshot`](funnel_sim::store::StoreSnapshot)
//!   (`MetricStore::snapshot()`), so the hot loop never takes a lock.
//! * **One control table per assessment** — every treated item of the same
//!   (group level, KPI kind) contrasts against the same control-group
//!   windows; the table builds each exactly once and shares it by `&`
//!   across the workers (see [`funnel_did::cache`]), so even its hit and
//!   miss counts are the same at any worker count and under any schedule.
//! * **Deterministic merge** — which worker ran which unit is scheduling-
//!   dependent; results are re-ordered by job index, and [`merge`] re-keys
//!   items by `(entity, kpi)` into a `BTreeMap`, so the final item list is
//!   byte-identical for any worker count (1, 2, 8, 16, …). Errors are
//!   deterministic too: every unit runs, and the error reported is the one
//!   for the lowest work-unit index.
//!
//! Nothing in this path reads the clock, iterates a hashed container, or
//! panics — the `funnel-lint` determinism and no-panic lints gate this file
//! as part of the ingestion-to-verdict hot path.

use crate::pipeline::{Funnel, FunnelError, ItemAssessment};
use crate::source::KpiSource;
use funnel_did::cache::ControlCache;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{Entity, ImpactSet};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One memoized control-group window: the fetched member series with their
/// coverage masks, plus the group's mean coverage over the DiD periods.
pub(crate) type ControlGroupWindow = (Vec<(TimeSeries, Option<CoverageMask>)>, f64);

/// The control-group windows of one assessment, keyed by which control pool
/// the treated entity contrasts against (see [`control_level`]) and the KPI
/// kind. Shared by `&` across the workers; each window is built once.
pub(crate) type ControlTable = ControlCache<(u8, KpiKind), ControlGroupWindow>;

/// Which control pool a treated entity's DiD contrast draws from: `0` for
/// server-level items (cservers), `1` for instance- and service-level items
/// (both contrast against the cinstances, §3.2.4).
pub(crate) fn control_level(entity: Entity) -> u8 {
    match entity {
        Entity::Server(_) => 0,
        Entity::Instance(_) | Entity::Service(_) => 1,
    }
}

/// Claims a worker makes over an evenly loaded run: enough that one slow
/// batch (a unit that went on to DiD) cannot leave the other workers idle
/// for long, few enough that claiming stays a rounding error.
const CLAIMS_PER_WORKER: usize = 8;

/// Runs `run_job` over every job on `workers` scoped threads and returns
/// the results in job order: when no call declines, position `i` holds job
/// `i`'s result.
///
/// Workers claim a batch of consecutive indices under one short lock, so a
/// tick of a thousand cheap folds costs a few dozen claims, not a thousand
/// messages. Each worker builds its state with `worker_state` once and,
/// when `worker_span` names one, runs inside that span (indexed by worker)
/// and flushes its span buffer before the thread exits. `run_job`
/// returning `None` is the caller's stop switch: that worker claims nothing
/// further and the job yields no result, so a stopped run comes back short.
///
/// One worker (or at most one job) runs inline on the calling thread, with
/// no span, through the same two closures — serial and parallel callers
/// cannot drift apart.
pub fn fan_out<J: Send, W, R: Send>(
    jobs: Vec<J>,
    workers: usize,
    worker_span: Option<funnel_obs::names::Name>,
    worker_state: impl Fn() -> W + Sync,
    run_job: impl Fn(&mut W, J) -> Option<R> + Sync,
) -> Vec<R> {
    let units = jobs.len();
    let workers = workers.clamp(1, units.max(1));
    if workers == 1 {
        let mut state = worker_state();
        return jobs
            .into_iter()
            .map_while(|job| run_job(&mut state, job))
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
                let span = worker_span.map(|name| funnel_obs::span!(name, worker_idx));
                let mut state = worker_state();
                let mut results = Vec::new();
                'claim: loop {
                    let claimed: Vec<(usize, J)> = queue.lock().by_ref().take(batch).collect();
                    if claimed.is_empty() {
                        break;
                    }
                    for (index, job) in claimed {
                        match run_job(&mut state, job) {
                            Some(result) => results.push((index, result)),
                            None => break 'claim,
                        }
                    }
                }
                finished.lock().append(&mut results);
                // Merge this worker's span buffer before the scoped thread
                // exits — commutative merge, so flush order is unobservable.
                drop(span);
                funnel_obs::flush_thread();
            });
        }
    });
    // Which worker ran which job is scheduling-dependent; the index erases it.
    let mut finished = finished.into_inner();
    finished.sort_unstable_by_key(|(index, _)| *index);
    finished.into_iter().map(|(_, result)| result).collect()
}

/// Fans the work units of one assessment out through [`fan_out`] and
/// returns `per_unit`'s results in work order. `per_unit` receives the
/// assessment's one shared [`ControlTable`]; returning `None` stops the
/// run early (the supervisor's abort switch), which callers detect by the
/// result coming back shorter than `work`.
///
/// # Errors
///
/// Every unit runs even after one fails; the error returned is the one
/// for the lowest work-unit index, whatever order the failures happened in.
pub(crate) fn assess_units<T: Send>(
    work: &[KpiKey],
    workers: usize,
    per_unit: impl Fn(KpiKey, &ControlTable) -> Option<Result<T, FunnelError>> + Sync,
) -> Result<Vec<T>, FunnelError> {
    let workers = workers.clamp(1, work.len().max(1));
    let window = funnel_obs::timeline::current_window();
    funnel_obs::timeline_gauge_set(funnel_obs::names::WORKERS, window, workers as u64);
    funnel_obs::timeline_histogram_record(
        funnel_obs::names::WORK_QUEUE_DEPTH,
        window,
        work.len() as u64,
    );
    let table = ControlTable::new();
    let results = fan_out(
        work.to_vec(),
        workers,
        Some(funnel_obs::names::SPAN_ASSESS_WORKER),
        || (),
        |(), key| per_unit(key, &table),
    );
    // One table, read once on the calling thread after the workers joined:
    // misses are the groups built and hits the other lookups, whatever the
    // worker count or schedule.
    let stats = table.stats();
    funnel_obs::timeline_counter_add(funnel_obs::names::CONTROL_CACHE_HITS, window, stats.hits);
    funnel_obs::timeline_counter_add(
        funnel_obs::names::CONTROL_CACHE_MISSES,
        window,
        stats.misses,
    );
    // Results are in index order, so the first error is the lowest-index one.
    results.into_iter().collect()
}

/// Deterministically merges per-item results into the final report order.
///
/// Results are keyed by `(entity, kpi)` — [`KpiKey`]'s ordering — into a
/// `BTreeMap`, so the output is the same for *any* arrival order: this is
/// what makes the assessment byte-identical across worker counts. If two
/// results carry the same key (the shared enumerator never produces
/// duplicates), the later one wins.
///
/// # Example
///
/// ```
/// use funnel_core::parallel::merge;
/// use funnel_core::pipeline::Funnel;
/// use funnel_sim::scenario::ads_world;
///
/// let (world, _ads, change) = ads_world(42);
/// let items = Funnel::paper_default()
///     .assess_change(&world, change)
///     .unwrap()
///     .items;
/// // Feeding the items back in reverse order restores the same order.
/// let mut reversed = items.clone();
/// reversed.reverse();
/// let keys: Vec<_> = merge(reversed).iter().map(|i| i.key).collect();
/// assert_eq!(keys, items.iter().map(|i| i.key).collect::<Vec<_>>());
/// ```
// funnel-lint: root
pub fn merge(results: impl IntoIterator<Item = ItemAssessment>) -> Vec<ItemAssessment> {
    let by_key: BTreeMap<KpiKey, ItemAssessment> =
        results.into_iter().map(|item| (item.key, item)).collect();
    by_key.into_values().collect()
}

/// Assesses every work unit of `work` against `source`, fanning out across
/// `workers` threads when more than one is requested, and returns the items
/// in merged (key-sorted) order.
// funnel-lint: root
pub(crate) fn assess_work_units<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    work: &[KpiKey],
    workers: usize,
) -> Result<Vec<ItemAssessment>, FunnelError> {
    assess_units(work, workers, |key, table| {
        Some(funnel.assess_item(source, change, impact_set, key, table))
    })
    .map(merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FunnelConfig;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::world::{SimConfig, World, WorldBuilder};
    use funnel_topology::change::{ChangeId, ChangeKind};

    fn shifted_world(delta: f64) -> (World, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig::days(11, 8));
        let svc = b.add_service("prod.par", 6).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            delta,
        );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "t")
            .unwrap();
        (b.build(), id)
    }

    fn assess_with_workers(world: &World, change: ChangeId, workers: usize) -> String {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = workers;
        let assessment = Funnel::new(config).assess_change(world, change).unwrap();
        format!("{assessment:?}")
    }

    /// The primitive alone: job `i` yields `i * 2`.
    fn doubled(units: usize, workers: usize) -> Vec<usize> {
        fan_out(
            (0..units).collect(),
            workers,
            None,
            || (),
            |(), i| Some(i * 2),
        )
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

    #[test]
    fn lowest_index_error_wins_whatever_the_schedule() {
        let work: Vec<KpiKey> = (0..40)
            .map(|i| {
                KpiKey::new(
                    Entity::Server(funnel_topology::model::ServerId(i)),
                    KpiKind::CpuUtilization,
                )
            })
            .collect();
        let server = |key: KpiKey| match key.entity {
            Entity::Server(s) => s.0,
            _ => unreachable!("server keys only"),
        };
        for workers in [1, 3, 8] {
            // Units 7, 8 and 31 fail; every unit still runs.
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let result = assess_units(&work, workers, |key, _| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Some(match server(key) {
                    7 | 8 | 31 => Err(FunnelError::MissingSeries(key)),
                    n => Ok(n),
                })
            });
            assert_eq!(result, Err(FunnelError::MissingSeries(work[7])));
            assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 40);
            // And without failures the results come back in work order.
            let clean = assess_units(&work, workers, |key, _| Some(Ok(server(key))));
            assert_eq!(clean, Ok((0..40).collect()));
        }
    }

    #[test]
    fn a_panicking_unit_under_an_unwind_boundary_costs_one_result() {
        // The supervisor's shape: each unit runs inside `catch_unwind`, so
        // a poisoned unit yields its fallback and every other slot is
        // untouched — at any worker count.
        for workers in [1, 3, 8] {
            let out = fan_out(
                (0..20).collect::<Vec<i64>>(),
                workers,
                None,
                || (),
                |(), i| {
                    let attempt = std::panic::catch_unwind(|| {
                        assert!(i != 5, "injected poison");
                        i * 2
                    });
                    Some(attempt.unwrap_or(-1))
                },
            );
            let expected: Vec<i64> = (0..20).map(|i| if i == 5 { -1 } else { i * 2 }).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let (world, change) = shifted_world(80.0);
        let serial = assess_with_workers(&world, change, 1);
        for workers in [2, 3, 8] {
            let parallel = assess_with_workers(&world, change, workers);
            assert_eq!(serial, parallel, "diverged at {workers} workers");
        }
    }

    #[test]
    fn merge_is_idempotent_and_sorted() {
        let (world, change) = shifted_world(80.0);
        let items = Funnel::paper_default()
            .assess_change(&world, change)
            .unwrap()
            .items;
        let keys: Vec<KpiKey> = items.iter().map(|i| i.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "assessment items must come out key-sorted");
        let remerged = merge(items.clone());
        assert_eq!(format!("{items:?}"), format!("{remerged:?}"));
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = 0;
        assert!(config.assess.effective_workers() >= 1);
        let (world, change) = shifted_world(0.0);
        // Auto worker count still assesses correctly on any machine.
        let a = Funnel::new(config).assess_change(&world, change).unwrap();
        assert!(!a.has_impact());
    }

    #[test]
    fn parallel_errors_are_deterministic() {
        // A store that knows none of the impact-set keys: every work unit
        // fails with MissingSeries; the reported key must be the lowest
        // work-unit index regardless of worker count.
        let (world, change) = shifted_world(0.0);
        let empty = funnel_sim::MetricStore::new();
        let record = world.change_log().get(change).unwrap();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();
        let mut errs = Vec::new();
        for workers in [1, 2, 8] {
            let mut config = FunnelConfig::paper_default();
            config.assess.workers = workers;
            let err = Funnel::new(config)
                .assess_change_with(&empty, world.topology(), record, &kinds)
                .unwrap_err();
            errs.push(format!("{err:?}"));
        }
        assert_eq!(errs[0], errs[1]);
        assert_eq!(errs[1], errs[2]);
    }
}
