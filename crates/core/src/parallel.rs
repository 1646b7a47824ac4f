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
//! * [`fan_out`] — the primitive, re-exported from `funnel-obs` (which
//!   owns the per-worker span flush it performs, and sits below
//!   `funnel-sim`, whose `World::materialize` calls it too). A fixed pool
//!   of scoped worker threads claims jobs from one indexed list a batch of
//!   consecutive indices at a time (one short lock a batch; no channel, no
//!   queue that can grow), builds its per-worker state once, and hands the
//!   results back in job order. No work stealing, no runtime. The
//!   streaming engine's per-tick scoring calls it directly, and so do the
//!   evaluation harness's per-change cohort pass and the deployment week's
//!   per-day one.
//! * `assess_work_units` — the assessment form, which the batch pipeline,
//!   re-assessment and the streaming completion path all call.
//!   It runs `Funnel::assess_item` per unit and owns the assessment's one
//!   control table, each worker's item scratch (built once a call and lent
//!   to every unit the worker claims), the worker spans, the error rule and
//!   the quarantine: a unit whose assessment panics is caught and delivered
//!   `Inconclusive` with [`QualityIssue::Quarantined`], so one poisoned KPI
//!   costs one verdict and every other item is what a clean run delivers.
//!
//! What keeps the output independent of the worker count:
//!
//! * **Contention-free reads** — workers share a read-only
//!   [`KpiSource`]. For live stores, callers pass a
//!   [`StoreSnapshot`](funnel_sim::store::StoreSnapshot)
//!   (`MetricStore::snapshot()`), so the hot loop never takes a lock and
//!   never copies a series: the snapshot lends them in place.
//! * **One control table per assessment** — every treated item of the same
//!   (group level, KPI kind) contrasts against the same control-group
//!   windows; the table builds each exactly once (of members borrowed
//!   from the source where it lends them) and shares it by `&` across the
//!   workers (see [`funnel_did::cache`]), so even its hit and
//!   miss counts are the same at any worker count and under any schedule.
//! * **Deterministic merge** — which worker ran which unit is scheduling-
//!   dependent; results are re-ordered by job index, and [`merge`] re-keys
//!   items by `(entity, kpi)` into a `BTreeMap`, so the final item list is
//!   byte-identical for any worker count (1, 2, 8, 16, …). Errors are
//!   deterministic too: every unit runs, and the error reported is the one
//!   for the lowest work-unit index.
//!
//! Nothing in this path reads the clock, iterates a hashed container, or
//! panics — `clippy.toml` and the crate root's `deny` line gate every
//! line of it, `Funnel::assess_item` included, so the quarantine is a last
//! resort rather than a licence.

use crate::pipeline::{Funnel, FunnelError, ItemAssessment};
use crate::quality::QualityIssue;
use crate::source::KpiSource;
use funnel_did::cache::ControlCache;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::TimeSeries;
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{Entity, ImpactSet};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use funnel_obs::parallel::fan_out;

/// One memoized control-group window: the member series with their
/// coverage masks, as the source `'s` lends or builds them, plus the
/// group's mean coverage over the DiD periods.
pub(crate) type ControlGroupWindow<'s> = (
    Vec<(Cow<'s, TimeSeries>, Option<Cow<'s, CoverageMask>>)>,
    f64,
);

/// The control-group windows of one assessment over the source `'s`, keyed
/// by which control pool the treated entity contrasts against (see
/// [`control_level`]) and the KPI kind. Shared by `&` across the workers;
/// each window is built once.
pub(crate) type ControlTable<'s> = ControlCache<(u8, KpiKind), ControlGroupWindow<'s>>;

/// Which control pool a treated entity's DiD contrast draws from: `0` for
/// server-level items (cservers), `1` for instance- and service-level items
/// (both contrast against the cinstances, §3.2.4).
pub(crate) fn control_level(entity: Entity) -> u8 {
    match entity {
        Entity::Server(_) => 0,
        Entity::Instance(_) | Entity::Service(_) => 1,
    }
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
pub fn merge(results: impl IntoIterator<Item = ItemAssessment>) -> Vec<ItemAssessment> {
    let by_key: BTreeMap<KpiKey, ItemAssessment> =
        results.into_iter().map(|item| (item.key, item)).collect();
    by_key.into_values().collect()
}

/// Assesses every work unit of `work` against `source` through [`fan_out`],
/// across `workers` threads when more than one is requested, and returns
/// the items in merged (key-sorted) order.
///
/// Each worker builds one item scratch and lends it to every unit it
/// claims; no item's bits depend on what the scratch held before.
///
/// Each unit runs under [`catch_unwind`]: a unit whose assessment panics
/// is delivered as [`QualityIssue::Quarantined`] and the others are
/// untouched. The panicking unit's worker gets a fresh scratch, so nothing
/// a half-finished unit left in it reaches the next one. A panic while a
/// control window is being built leaves that window unbuilt in the shared
/// table (the next unit to need it builds it), and built windows are pure
/// functions of the read-only source, so an entry is at worst absent,
/// never wrong.
///
/// # Errors
///
/// Every unit runs even after one fails; the error returned is the one
/// for the lowest work-unit index, whatever order the failures happened in.
pub(crate) fn assess_work_units<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    work: &[KpiKey],
    workers: usize,
) -> Result<Vec<ItemAssessment>, FunnelError> {
    let workers = workers.clamp(1, work.len().max(1));
    let window = funnel_obs::timeline::current_window();
    funnel_obs::gauge_set(funnel_obs::names::WORKERS, window, workers as u64);
    funnel_obs::histogram_record(
        funnel_obs::names::WORK_QUEUE_DEPTH,
        window,
        work.len() as u64,
    );
    let table = ControlTable::new();
    let results = fan_out(
        work.to_vec(),
        workers,
        || funnel.item_scratch(),
        |scratch, key| {
            catch_unwind(AssertUnwindSafe(|| {
                funnel.assess_item(source, change, impact_set, key, &table, scratch)
            }))
            .unwrap_or_else(|_| {
                *scratch = funnel.item_scratch();
                Ok(funnel.unassessed_item(change, key, QualityIssue::Quarantined))
            })
        },
    );
    // One table, read once on the calling thread after the workers joined:
    // misses are the groups built and hits the other lookups, whatever the
    // worker count or schedule.
    let stats = table.stats();
    funnel_obs::counter_add(funnel_obs::names::CONTROL_CACHE_HITS, window, stats.hits);
    funnel_obs::counter_add(
        funnel_obs::names::CONTROL_CACHE_MISSES,
        window,
        stats.misses,
    );
    // Results are in index order, so the first error is the lowest-index one.
    results
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FunnelConfig;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::world::{SimConfig, World, WorldBuilder};
    use funnel_topology::change::{ChangeId, ChangeKind};
    use parking_lot::Mutex;
    use std::collections::BTreeSet;

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

    /// The world with some keys missing, remembering every key it is asked
    /// for.
    struct Missing<'a> {
        world: &'a World,
        missing: Vec<KpiKey>,
        asked: Mutex<BTreeSet<KpiKey>>,
    }

    impl KpiSource for Missing<'_> {
        fn series(&self, key: &KpiKey) -> Option<Cow<'_, TimeSeries>> {
            self.asked.lock().insert(*key);
            if self.missing.contains(key) {
                return None;
            }
            KpiSource::series(self.world, key)
        }
    }

    #[test]
    fn parallel_errors_are_deterministic() {
        // Two sources: a store that knows none of the impact-set keys, so
        // every unit fails, and the world missing three keys, so units 3, 4
        // and the last fail. Whatever the worker count the error names the
        // lowest failing work-unit index, and every unit still runs.
        let (world, change) = shifted_world(0.0);
        let empty = funnel_sim::MetricStore::new();
        let record = world.change_log().get(change).unwrap();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();
        let impact_set = funnel_topology::impact::identify_impact_set(world.topology(), record);
        let work = crate::pipeline::enumerate_work_units(&impact_set.unwrap(), record, &kinds);
        let last = work[work.len() - 1];
        for workers in [1, 3, 8] {
            let mut config = FunnelConfig::paper_default();
            config.assess.workers = workers;
            let funnel = Funnel::new(config);
            let err = funnel
                .assess_change_with(&empty, world.topology(), record, &kinds)
                .unwrap_err();
            assert_eq!(
                err,
                FunnelError::MissingSeries(work[0]),
                "workers={workers}"
            );

            let source = Missing {
                world: &world,
                missing: vec![work[3], work[4], last],
                asked: Mutex::default(),
            };
            let err = funnel
                .assess_change_with(&source, world.topology(), record, &kinds)
                .unwrap_err();
            assert_eq!(
                err,
                FunnelError::MissingSeries(work[3]),
                "workers={workers}"
            );
            let asked = source.asked.into_inner();
            assert!(
                work.iter().all(|key| asked.contains(key)),
                "workers={workers}: a unit never ran"
            );
        }
    }
}
