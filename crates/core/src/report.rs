//! Operator-facing rendering of assessments (Fig. 3, step 12: "Deliver to
//! OP").

use crate::pipeline::{AssessmentMode, ChangeAssessment, Verdict};
use funnel_sim::kpi::KpiKey;
use funnel_topology::impact::Entity;
use funnel_topology::model::Topology;

/// Renders a KPI key with topology names where available.
pub fn describe_key(topology: &Topology, key: &KpiKey) -> String {
    let entity = match key.entity {
        Entity::Server(s) => topology
            .server_hostname(s)
            .map(|h| format!("server {h}"))
            .unwrap_or_else(|_| format!("server #{}", s.0)),
        Entity::Instance(i) => match topology.instance(i) {
            Ok(inst) => {
                let svc = topology
                    .service_name(inst.service)
                    .map(|n| n.to_string())
                    .unwrap_or_else(|_| format!("svc#{}", inst.service.0));
                format!("instance {svc}#{}", i.0)
            }
            Err(_) => format!("instance #{}", i.0),
        },
        Entity::Service(s) => topology
            .service_name(s)
            .map(|n| format!("service {n}"))
            .unwrap_or_else(|_| format!("service #{}", s.0)),
    };
    format!("{entity} / {}", key.kind)
}

/// Renders a full assessment as a plain-text operator report.
pub fn render(topology: &Topology, assessment: &ChangeAssessment) -> String {
    let mut out = String::new();
    let caused: Vec<_> = assessment.caused_items().collect();
    let inconclusive = assessment.inconclusive_items().count();
    out.push_str(&format!(
        "change #{}: {} impact-set KPIs assessed, {} KPI change(s) attributed, {} inconclusive\n",
        assessment.change.0,
        assessment.items.len(),
        caused.len(),
        inconclusive
    ));
    for item in &assessment.items {
        if item.verdict == Verdict::NotCaused && item.detection.is_none() {
            continue; // quiet KPIs are summarized by the count above
        }
        let status = match (item.verdict, &item.detection) {
            (Verdict::Caused, _) => "CAUSED  ",
            (Verdict::Inconclusive { .. }, _) => "INCONCL.",
            (Verdict::NotCaused, Some(_)) => "external",
            (Verdict::NotCaused, None) => "-",
        };
        let mode = match item.mode {
            AssessmentMode::DarkLaunchControl => "dark-launch control",
            AssessmentMode::SeasonalHistory => "seasonal history",
        };
        let alpha = item
            .did
            .as_ref()
            .map(|(v, _)| format!("α={:+.2}", v.alpha()))
            .unwrap_or_else(|| "α=n/a".into());
        let when = item
            .detection
            .as_ref()
            .map(|d| format!("declared@{}", d.declared_at))
            .unwrap_or_default();
        // Data-provenance annotations: coverage when the window had gaps,
        // plus any statistical quality flags.
        let mut notes = String::new();
        if item.quality.coverage < 0.999 {
            notes.push_str(&format!(" cov={:.0}%", item.quality.coverage * 100.0));
        }
        if !item.quality.report.is_good() {
            notes.push_str(&format!(" quality:{:?}", item.quality.report.issues));
        }
        if item.verdict.awaiting_backfill() {
            // Repairable: a partition gap blocks the verdict until the
            // collector backfills it and a re-assessment re-runs the item.
            notes.push_str(" awaiting-backfill");
        }
        out.push_str(&format!(
            "  [{status}] {} ({mode}, {alpha}) {when}{notes}\n",
            describe_key(topology, &item.key)
        ));
    }
    out
}

/// The operator-facing roll-back recommendation for one change.
#[derive(Debug, Clone, PartialEq)]
pub enum Recommendation {
    /// No attributed KPI change: continue the roll-out.
    RollForward,
    /// Attributed KPI changes exist; `worst_alpha` is the largest |α| and
    /// `kpis` the number of attributed KPIs. The operations team decides
    /// whether the movement was *intended* (e.g. Fig. 6's load balancing)
    /// — FUNNEL reports both positive and negative changes (§1).
    Review {
        /// Number of KPIs attributed to the change.
        kpis: usize,
        /// Largest |α| among them (normalized units).
        worst_alpha: f64,
    },
}

/// Summarizes an assessment into a recommendation, with attributed items
/// ranked by |α| (most severe first).
pub fn recommend(
    assessment: &ChangeAssessment,
) -> (Recommendation, Vec<&crate::pipeline::ItemAssessment>) {
    let mut caused: Vec<_> = assessment.caused_items().collect();
    caused.sort_by(|a, b| {
        let alpha = |i: &crate::pipeline::ItemAssessment| {
            i.did.as_ref().map(|(v, _)| v.alpha().abs()).unwrap_or(0.0)
        };
        alpha(b).total_cmp(&alpha(a))
    });
    if caused.is_empty() {
        (Recommendation::RollForward, caused)
    } else {
        let worst = caused
            .first()
            .and_then(|i| i.did.as_ref())
            .map(|(v, _)| v.alpha().abs())
            .unwrap_or(0.0);
        (
            Recommendation::Review {
                kpis: caused.len(),
                worst_alpha: worst,
            },
            caused,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Funnel;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::kpi::KpiKind;
    use funnel_sim::world::{SimConfig, WorldBuilder};
    use funnel_topology::change::ChangeKind;

    #[test]
    fn report_mentions_caused_kpis() {
        let mut b = WorldBuilder::new(SimConfig::days(5, 8));
        let svc = b.add_service("prod.report", 4).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            90.0,
        );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 100, effect, "x")
            .unwrap();
        let world = b.build();
        let a = Funnel::paper_default().assess_change(&world, id).unwrap();
        let text = render(world.topology(), &a);
        assert!(text.contains("change #0"));
        assert!(text.contains("CAUSED"), "{text}");
        assert!(text.contains("page_view_response_delay"), "{text}");
        assert!(text.contains("prod.report"), "{text}");
    }

    #[test]
    fn recommendation_ranks_by_alpha() {
        let mut b = WorldBuilder::new(SimConfig::days(6, 8));
        let svc = b.add_service("prod.rank", 4).unwrap();
        let effect = ChangeEffect::none()
            .with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                90.0,
            )
            .with_level_shift(
                KpiKind::AccessFailureCount,
                EffectScope::TreatedInstances,
                25.0,
            );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 100, effect, "x")
            .unwrap();
        let world = b.build();
        let a = Funnel::paper_default().assess_change(&world, id).unwrap();
        let (rec, ranked) = recommend(&a);
        match rec {
            Recommendation::Review { kpis, worst_alpha } => {
                assert_eq!(kpis, ranked.len());
                assert!(worst_alpha > 2.0);
            }
            Recommendation::RollForward => panic!("impact missed"),
        }
        // Ranked by decreasing |α|.
        let alphas: Vec<f64> = ranked
            .iter()
            .filter_map(|i| i.did.as_ref().map(|(v, _)| v.alpha().abs()))
            .collect();
        assert!(alphas.windows(2).all(|w| w[0] >= w[1]), "{alphas:?}");
    }

    #[test]
    fn clean_change_recommends_roll_forward() {
        let mut b = WorldBuilder::new(SimConfig::days(8, 8));
        let svc = b.add_service("prod.clean", 4).unwrap();
        let id = b
            .deploy_change(
                ChangeKind::ConfigChange,
                svc,
                2,
                7 * 1440 + 100,
                ChangeEffect::none(),
                "noop",
            )
            .unwrap();
        let world = b.build();
        let a = Funnel::paper_default().assess_change(&world, id).unwrap();
        let (rec, ranked) = recommend(&a);
        assert_eq!(rec, Recommendation::RollForward);
        assert!(ranked.is_empty());
    }

    #[test]
    fn describe_key_handles_all_entities() {
        let mut b = WorldBuilder::new(SimConfig {
            seed: 1,
            start: 0,
            duration: 10,
        });
        let svc = b.add_service("prod.nm", 1).unwrap();
        let world = b.build();
        let t = world.topology();
        let inst = t.instances_of(svc)[0];
        assert!(describe_key(
            t,
            &KpiKey::new(Entity::Service(svc), KpiKind::PageViewCount)
        )
        .contains("service prod.nm"));
        assert!(describe_key(
            t,
            &KpiKey::new(Entity::Instance(inst.id), KpiKind::PageViewCount)
        )
        .contains("instance prod.nm#0"));
        assert!(describe_key(
            t,
            &KpiKey::new(Entity::Server(inst.server), KpiKind::CpuUtilization)
        )
        .contains("server prod.nm-host-0"));
    }
}
