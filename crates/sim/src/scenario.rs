//! Canned worlds for the paper's experiments and case studies.
//!
//! * [`evaluation_world`] — the §4.1 cohort: 19 services, 144 software
//!   changes over the evaluation day (72 with injected KPI effects, 72
//!   without), mixed dark/full launches, plus external shocks and the
//!   built-in diurnal seasonality as confounders. Ground truth comes from
//!   the world itself.
//! * [`redis_world`] — Fig. 6: a Redis query service whose class-A servers
//!   run their NICs near saturation until a load-balancing configuration
//!   change swaps traffic onto the idle class-B servers.
//! * [`ads_world`] — Fig. 7: an advertising system whose anti-cheat check
//!   silently breaks on one device class after an upgrade, collapsing the
//!   strongly seasonal effective-click count.

use crate::effect::{ChangeEffect, EffectScope, ExternalShock, KpiEffect};
use crate::kpi::KpiKind;
use crate::world::{SimConfig, World, WorldBuilder};
use funnel_timeseries::inject::ChangeShape;
use funnel_timeseries::series::MinuteBin;
use funnel_timeseries::MINUTES_PER_DAY;
use funnel_topology::change::{ChangeId, ChangeKind};
use funnel_topology::model::{ServerId, ServiceId};

const DAY: u64 = MINUTES_PER_DAY as u64;

/// Metadata of the evaluation cohort.
#[derive(Debug, Clone)]
pub struct CohortMeta {
    /// Every deployed change and whether it truly has a KPI effect.
    pub changes: Vec<(ChangeId, bool)>,
    /// The services in the cohort.
    pub services: Vec<ServiceId>,
    /// First minute of the evaluation day (changes are deployed from here).
    pub eval_day_start: MinuteBin,
    /// Days of history available before the evaluation day (for the
    /// seasonal DiD mode).
    pub history_days: u32,
}

/// Builds the §4.1 evaluation cohort.
///
/// 19 moderate services (4–10 instances each), 8 simulated days. 144
/// changes are deployed across day 7 (the evaluation day): 72 carry one of
/// six realistic KPI-effect templates (memory-leak ramp, context-switch
/// jump, page-view drop, latency shift, failure surge, NIC drop — every
/// third one shaped as a ramp instead of a level shift), 72 carry none.
/// Three of every four changes are dark launches. External shocks (which
/// are *not* software-change impacts) hit several services during the day.
#[expect(
    clippy::expect_used,
    reason = "a canned world is built from constants: a construction error is a bug in this file, and its tests build every world"
)]
pub fn evaluation_world(seed: u64) -> (World, CohortMeta) {
    let mut b = WorldBuilder::new(SimConfig::days(seed, 8));
    let mut services = Vec::new();
    for s in 0..19 {
        let n_instances = 4 + (seed as usize + s * 7) % 7; // 4..=10
        let svc = b
            .add_service(&format!("prod.svc-{s}.web"), n_instances)
            .expect("unique service names");
        services.push(svc);
    }
    // Relationship edges: every third service talks to its successor
    // (Fig. 4-style chains, giving some changes affected services).
    for chain in services.chunks(3) {
        if let [from, to, ..] = *chain {
            b.relate(from, to).expect("valid services");
        }
    }

    let eval_day_start = 7 * DAY;
    let mut changes = Vec::new();
    for (i, &svc) in services.iter().cycle().take(144).enumerate() {
        let minute = eval_day_start + (i as u64) * 9; // spread over the day
        let dark = i % 4 != 3; // 108 dark, 36 full (paper: 108 / 26)
        let n_instances = {
            // WorldBuilder clamps to the service's size.
            if dark {
                2
            } else {
                usize::MAX
            }
        };
        let has_effect = i % 2 == 0; // 72 with, 72 without
        let effect = if has_effect {
            effect_template(i / 2)
        } else {
            ChangeEffect::none()
        };
        let kind = if i % 3 == 0 {
            ChangeKind::ConfigChange
        } else {
            ChangeKind::Upgrade
        };
        let id = b
            .deploy_change(
                kind,
                svc,
                n_instances,
                minute,
                effect,
                &format!("cohort change #{i}"),
            )
            .expect("valid effect template");
        changes.push((id, has_effect));
    }

    // Non-software confounders during the evaluation day: persistent shifts
    // (e.g. an upstream hardware fault) and transient spikes (attacks).
    for (j, &svc) in services.iter().enumerate().take(6) {
        let onset = eval_day_start + 150 + (j as u64) * 190;
        let shock = if j % 2 == 0 {
            ExternalShock {
                services: vec![svc],
                kind: KpiKind::AccessFailureCount,
                shape: ChangeShape::LevelShift { delta: 25.0 },
                onset,
            }
        } else {
            ExternalShock {
                services: vec![svc],
                kind: KpiKind::PageViewCount,
                shape: ChangeShape::Spike {
                    delta: -300.0,
                    duration_minutes: 5,
                },
                onset,
            }
        };
        b.add_shock(shock);
    }

    let world = b.build();
    (
        world,
        CohortMeta {
            changes,
            services,
            eval_day_start,
            history_days: 6,
        },
    )
}

/// The six KPI-effect templates of the evaluation cohort. Magnitudes are
/// several noise standard deviations (prominent), matching the paper's
/// operator-labelled "behaviour changes".
fn effect_template(idx: usize) -> ChangeEffect {
    // Decoupled from the template cycle (idx % 6) so every KPI kind gets
    // both level shifts and ramps across the cohort.
    let ramp = (idx / 6) % 3 == 2;
    let shape = |delta: f64| -> ChangeShape {
        if ramp {
            ChangeShape::Ramp {
                delta,
                duration_minutes: 20,
            }
        } else {
            ChangeShape::LevelShift { delta }
        }
    };
    let mk = |kind: KpiKind, scope: EffectScope, delta: f64| KpiEffect {
        kind,
        scope,
        shape: shape(delta),
        delay_minutes: 0,
    };
    match idx % 6 {
        0 => ChangeEffect::none().with_effect(mk(
            KpiKind::MemoryUtilization,
            EffectScope::TreatedServers,
            14.0,
        )),
        1 => ChangeEffect::none().with_effect(mk(
            KpiKind::CpuContextSwitch,
            EffectScope::TreatedServers,
            6_500.0,
        )),
        2 => ChangeEffect::none().with_effect(mk(
            KpiKind::PageViewCount,
            EffectScope::TreatedInstances,
            -450.0,
        )),
        3 => ChangeEffect::none().with_effect(mk(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            70.0,
        )),
        4 => ChangeEffect::none().with_effect(mk(
            KpiKind::AccessFailureCount,
            EffectScope::TreatedInstances,
            35.0,
        )),
        _ => ChangeEffect::none().with_effect(mk(
            KpiKind::NicThroughput,
            EffectScope::TreatedServers,
            -180.0,
        )),
    }
}

/// Metadata of a simulated deployment week (Table 3).
#[derive(Debug, Clone)]
pub struct DeploymentMeta {
    /// Change ids grouped by deployment day (0-based within the week).
    pub days: Vec<Vec<ChangeId>>,
    /// Days of history before the deployment week.
    pub history_days: u32,
}

/// Builds the §5 deployment week for Table 3, scaled down from production
/// (the paper's one server watched ~24k changes and 2.26M KPIs per day; we
/// keep the *rates* — ~1 % of changes having real impact — at a size a
/// single evaluation core can replay).
///
/// 19 services, 7 history days, then 7 deployment days with
/// `changes_per_day` changes each; ~4 % carry a KPI effect; one external
/// shock lands per day as causality bait.
#[expect(
    clippy::expect_used,
    reason = "a canned world is built from constants: a construction error is a bug in this file, and its tests build every world"
)]
pub fn deployment_week(seed: u64, changes_per_day: usize) -> (World, DeploymentMeta) {
    let mut b = WorldBuilder::new(SimConfig::days(seed, 14));
    let mut services = Vec::new();
    for s in 0..19 {
        let n_instances = 4 + (seed as usize + s * 5) % 6;
        services.push(
            b.add_service(&format!("prod.week-{s}.web"), n_instances)
                .expect("unique names"),
        );
    }
    for chain in services.chunks(4) {
        if let [from, to, ..] = *chain {
            b.relate(from, to).expect("valid");
        }
    }

    let mut days = Vec::new();
    let mut counter = 0usize;
    let mut rotation = services.iter().copied().cycle();
    for day in 0..7u64 {
        let day_start = (7 + day) * DAY;
        let mut ids = Vec::new();
        let spacing = (DAY - 120) / changes_per_day.max(1) as u64;
        for (c, svc) in (0..changes_per_day).zip(&mut rotation) {
            let minute = day_start + 60 + c as u64 * spacing;
            let has_effect = counter % 25 == 7; // 4 %
            let effect = if has_effect {
                effect_template(counter)
            } else {
                ChangeEffect::none()
            };
            let dark = counter % 5 != 4;
            let kind = if counter.is_multiple_of(3) {
                ChangeKind::ConfigChange
            } else {
                ChangeKind::Upgrade
            };
            let id = b
                .deploy_change(
                    kind,
                    svc,
                    if dark { 2 } else { usize::MAX },
                    minute,
                    effect,
                    &format!("week change #{counter}"),
                )
                .expect("valid");
            ids.push(id);
            counter += 1;
        }
        // A non-software incident every other day: a quarter-hour failure
        // burst. Detectors fire on it; DiD must not blame any coincident
        // software change (dark launches cancel it through the control
        // group, and a 60-minute DiD window dilutes the burst for full
        // launches).
        if day % 2 == 0 {
            if let Some(&svc) = services.get((day as usize * 3) % services.len()) {
                b.add_shock(ExternalShock {
                    services: vec![svc],
                    kind: KpiKind::AccessFailureCount,
                    shape: ChangeShape::Spike {
                        delta: 10.0,
                        duration_minutes: 14,
                    },
                    onset: day_start + 400 + day * 37,
                });
            }
        }
        days.push(ids);
    }
    (
        b.build(),
        DeploymentMeta {
            days,
            history_days: 6,
        },
    )
}

/// Fig. 6: the Redis load-balancing case study.
///
/// Returns the world, the class-A (saturated) and class-B (idle) server
/// ids, and the configuration change id. The change swaps ~450 Mbit/s of
/// NIC load from every class-A server onto class B.
#[expect(
    clippy::expect_used,
    reason = "a canned world is built from constants: a construction error is a bug in this file, and its tests build every world"
)]
pub fn redis_world(seed: u64) -> (World, Vec<ServerId>, Vec<ServerId>, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(seed, 4));
    let svc = b.add_service("cache.redis-query", 12).expect("fresh world");
    let servers: Vec<ServerId> = b
        .topology()
        .instances_of(svc)
        .iter()
        .map(|i| i.server)
        .collect();
    let (class_a, class_b) = servers.split_at(6);
    for &s in class_a {
        b.set_server_base(s, KpiKind::NicThroughput, 880.0); // near saturation
    }
    for &s in class_b {
        b.set_server_base(s, KpiKind::NicThroughput, 140.0); // mostly idle
    }
    let change_minute = 3 * DAY + 600;
    let effect = ChangeEffect::none()
        .with_effect(KpiEffect {
            kind: KpiKind::NicThroughput,
            scope: EffectScope::Servers(class_a.to_vec()),
            shape: ChangeShape::LevelShift { delta: -450.0 },
            delay_minutes: 0,
        })
        .with_effect(KpiEffect {
            kind: KpiKind::NicThroughput,
            scope: EffectScope::Servers(class_b.to_vec()),
            shape: ChangeShape::LevelShift { delta: 450.0 },
            delay_minutes: 0,
        });
    let change = b
        .deploy_change(
            ChangeKind::ConfigChange,
            svc,
            usize::MAX,
            change_minute,
            effect,
            "balance Redis query traffic between server classes",
        )
        .expect("valid effect");
    (b.build(), class_a.to_vec(), class_b.to_vec(), change)
}

/// Fig. 7: the advertising anti-cheat incident.
///
/// Returns the world, the ads service, and the faulty upgrade's change id.
/// The upgrade breaks the anti-cheat JSON check on one device class, so
/// ~45 % of genuinely human clicks get misclassified as cheats: the
/// strongly seasonal effective-click count collapses immediately.
#[expect(
    clippy::expect_used,
    reason = "a canned world is built from constants: a construction error is a bug in this file, and its tests build every world"
)]
pub fn ads_world(seed: u64) -> (World, ServiceId, ChangeId) {
    let mut b = WorldBuilder::new(SimConfig::days(seed, 8));
    let ads = b.add_service("ads.serving", 10).expect("fresh world");
    let anticheat = b.add_service("ads.anticheat", 4).expect("fresh world");
    b.relate(ads, anticheat).expect("valid services");
    let mut kinds = KpiKind::INSTANCE_KINDS.to_vec();
    kinds.push(KpiKind::EffectiveClickCount);
    b.set_instance_kinds(ads, kinds);

    let change_minute = 7 * DAY + 14 * 60; // 14:00 on the evaluation day
    let effect = ChangeEffect::none().with_level_shift(
        KpiKind::EffectiveClickCount,
        EffectScope::TreatedInstances,
        -135.0, // ≈ 45 % of the per-instance base of 300
    );
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            ads,
            usize::MAX,
            change_minute,
            effect,
            "advertising system performance upgrade",
        )
        .expect("valid effect");
    (b.build(), ads, change)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiKey;
    use funnel_timeseries::stats::mean;
    use funnel_topology::impact::Entity;

    #[test]
    fn evaluation_cohort_shape() {
        let (world, meta) = evaluation_world(1);
        assert_eq!(meta.changes.len(), 144);
        assert_eq!(meta.changes.iter().filter(|(_, e)| *e).count(), 72);
        assert_eq!(meta.services.len(), 19);
        assert_eq!(world.change_log().len(), 144);
        // Dark/full split: 108 dark.
        let dark = world
            .change_log()
            .all()
            .iter()
            .filter(|c| c.launch == funnel_topology::change::LaunchMode::Dark)
            .count();
        assert_eq!(dark, 108);
        // Ground truth exists exactly for effecting changes.
        let gt = world.ground_truth();
        assert!(!gt.is_empty());
        let effecting: std::collections::BTreeSet<_> = meta
            .changes
            .iter()
            .filter(|(_, e)| *e)
            .map(|(id, _)| *id)
            .collect();
        assert!(gt.iter().all(|g| effecting.contains(&g.change)));
    }

    #[test]
    fn evaluation_world_is_deterministic() {
        let (w1, _) = evaluation_world(5);
        let (w2, _) = evaluation_world(5);
        let key = world_first_key(&w1);
        assert_eq!(w1.series(&key).unwrap(), w2.series(&key).unwrap());
    }

    fn world_first_key(w: &World) -> KpiKey {
        w.all_keys()[0]
    }

    #[test]
    fn redis_classes_swap_load() {
        let (world, class_a, class_b, change) = redis_world(2);
        let minute = world.change_log().get(change).unwrap().minute;
        let a_key = KpiKey::new(Entity::Server(class_a[0]), KpiKind::NicThroughput);
        let b_key = KpiKey::new(Entity::Server(class_b[0]), KpiKind::NicThroughput);
        let a = world.series(&a_key).unwrap();
        let bb = world.series(&b_key).unwrap();
        let a_before = mean(a.slice(minute - 120, minute));
        let a_after = mean(a.slice(minute, minute + 120));
        let b_before = mean(bb.slice(minute - 120, minute));
        let b_after = mean(bb.slice(minute, minute + 120));
        assert!(
            a_before > 800.0 && a_after < 600.0,
            "A {a_before} → {a_after}"
        );
        assert!(
            b_before < 250.0 && b_after > 400.0,
            "B {b_before} → {b_after}"
        );
        // 12 ground-truth server items (6 down + 6 up).
        assert_eq!(world.ground_truth().len(), 12);
    }

    #[test]
    fn ads_clicks_collapse_after_upgrade() {
        let (world, ads, change) = ads_world(3);
        let minute = world.change_log().get(change).unwrap().minute;
        let key = KpiKey::new(Entity::Service(ads), KpiKind::EffectiveClickCount);
        let s = world.series(&key).unwrap();
        let before = mean(s.slice(minute - 60, minute));
        let after = mean(s.slice(minute, minute + 60));
        assert!(after < 0.7 * before, "clicks {before} → {after}");
        // Seasonality is strong: the same clock hour one week earlier (same
        // day-of-week) is close to `before`, confirming the drop is the
        // upgrade, not the diurnal/weekly pattern.
        let last_week = mean(s.slice(minute - 7 * DAY - 60, minute - 7 * DAY));
        assert!(
            (last_week - before).abs() < 0.25 * before,
            "last week {last_week} vs before {before}"
        );
    }
}
