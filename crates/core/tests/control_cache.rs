//! Control-group caching is a pure memo with schedule-free counters:
//! cache-on and cache-off runs of the DiD stage produce bit-identical item
//! assessments, and the hit/miss counts are exact at every worker count.
//!
//! [`Funnel::assess_keys`] over the whole work list shares one control table
//! across the fan-out's workers — the cache-on path. The same call over one
//! key at a time builds a fresh table per item, so every control fetch is a
//! miss — the cache-off path. Both must agree byte for byte. The table
//! builds each `(control level, KPI kind)` window once whatever the worker
//! count or schedule, so the counters surfaced through `funnel_obs` are
//! pinned exactly: misses are the distinct groups a detection asked for,
//! hits are every other lookup. One `#[test]` covers it all because the obs
//! registry is process-global.

use funnel_core::pipeline::{enumerate_work_units, AssessmentMode, Funnel};
use funnel_core::FunnelConfig;
use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::KpiKind;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::impact::{identify_impact_set, Entity};
use std::collections::BTreeSet;

/// A service large enough that many treated items share each control group,
/// so the cache-on run genuinely exercises hits.
fn cached_world() -> (World, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(31, 8));
    let svc = b.add_service("prod.cache", 7).unwrap();
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        70.0,
    );
    let id = b
        .deploy_change(ChangeKind::Upgrade, svc, 3, 7 * 1440 + 300, effect, "c")
        .unwrap();
    (b.build(), id)
}

#[test]
fn cache_on_and_cache_off_agree_bit_for_bit() {
    let (world, change) = cached_world();
    let record = world.change_log().get(change).expect("logged");
    let impact_set = identify_impact_set(world.topology(), record).expect("impact set");
    let work = enumerate_work_units(&impact_set, record, &|s| world.kinds_of_service(s).to_vec());
    assert!(
        work.len() >= 10,
        "need a non-trivial work list, got {}",
        work.len()
    );

    let funnel_with = |workers: usize| {
        let mut config = FunnelConfig::paper_default();
        config.assess.workers = workers;
        Funnel::new(config)
    };

    // Cache-on, at three worker counts: one shared table per call. Read its
    // counters back through obs.
    let mut runs = Vec::new();
    for workers in [1usize, 3, 8] {
        funnel_obs::enable();
        funnel_obs::reset();
        let batched = funnel_with(workers)
            .assess_keys(&world, world.topology(), record, &work)
            .expect("batch assessment");
        let warm = funnel_obs::snapshot();
        funnel_obs::disable();
        funnel_obs::reset();
        let counter = |name: &str| warm.counters.get(name).copied().unwrap_or(0);
        runs.push((
            workers,
            batched,
            counter(funnel_obs::names::CONTROL_CACHE_HITS.as_str()),
            counter(funnel_obs::names::CONTROL_CACHE_MISSES.as_str()),
        ));
    }

    // A control window is looked up once per detected dark-launch item and
    // built once per distinct (control level, KPI kind) among them.
    let (_, batched, _, _) = &runs[0];
    assert_eq!(batched.len(), work.len());
    let lookups: Vec<(bool, KpiKind)> = batched
        .iter()
        .filter(|i| i.detection.is_some() && i.mode == AssessmentMode::DarkLaunchControl)
        .map(|i| (matches!(i.key.entity, Entity::Server(_)), i.key.kind))
        .collect();
    let groups: BTreeSet<_> = lookups.iter().copied().collect();
    assert!(
        lookups.len() > groups.len(),
        "the scenario must share a control group between items: {lookups:?}"
    );
    for (workers, items, hits, misses) in &runs {
        assert_eq!(
            *misses,
            groups.len() as u64,
            "workers={workers}: one miss per distinct control group"
        );
        assert_eq!(
            *hits,
            (lookups.len() - groups.len()) as u64,
            "workers={workers}: every other lookup is a hit"
        );
        assert_eq!(
            format!("{items:?}"),
            format!("{batched:?}"),
            "workers={workers}: items moved with the worker count"
        );
    }

    // Cache-off: one fresh table per item, so every control fetch rebuilds.
    // The memo must be invisible in the output.
    let funnel = funnel_with(1);
    for (key, cached_item) in work.iter().zip(batched) {
        let cold = funnel
            .assess_keys(&world, world.topology(), record, &[*key])
            .expect("single-key assessment");
        assert_eq!(
            format!("{cold:?}"),
            format!("[{cached_item:?}]"),
            "cache changed the assessment of {key:?}"
        );
    }
}
