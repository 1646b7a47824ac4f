//! Declarative world specifications.
//!
//! A [`WorldSpec`] is a plain-data description of a scenario — topology,
//! software changes, effects, shocks — that reads from JSON with serde, so
//! downstream users can keep scenarios as JSON files and replay them
//! through FUNNEL without writing builder code:
//!
//! ```
//! use funnel_sim::spec::*;
//! let spec = WorldSpec {
//!     seed: 7,
//!     days: 8,
//!     services: vec![ServiceSpec {
//!         name: "shop.web".into(),
//!         instances: 4,
//!         extra_kinds: vec![],
//!     }],
//!     relations: vec![],
//!     changes: vec![ChangeSpec {
//!         service: "shop.web".into(),
//!         kind: ChangeKindSpec::Upgrade,
//!         targets: 2,
//!         day: 7,
//!         minute_of_day: 540,
//!         description: "v2".into(),
//!         effects: vec![EffectSpec {
//!             kpi: "page_view_response_delay".into(),
//!             scope: ScopeSpec::TreatedInstances,
//!             delta: 80.0,
//!             ramp_minutes: 0,
//!             delay_minutes: 0,
//!         }],
//!     }],
//!     shocks: vec![],
//! };
//! let built = spec.build().unwrap();
//! assert_eq!(built.changes.len(), 1);
//! ```

use crate::effect::{ChangeEffect, EffectScope, ExternalShock, KpiEffect};
use crate::kpi::KpiKind;
use crate::world::{SimConfig, SimError, World, WorldBuilder};
use funnel_timeseries::inject::ChangeShape;
use funnel_timeseries::MINUTES_PER_DAY;
use funnel_topology::change::{ChangeId, ChangeKind};
use serde::Deserialize;
use std::collections::BTreeMap;

/// One service.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct ServiceSpec {
    /// Hierarchical dotted name.
    pub name: String,
    /// Number of instances (one server each).
    pub instances: usize,
    /// Extra instance KPI kind names beyond the defaults (e.g.
    /// `"effective_click_count"`).
    #[serde(default)]
    pub extra_kinds: Vec<String>,
}

/// Change kinds, serde-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ChangeKindSpec {
    /// A software upgrade.
    Upgrade,
    /// A configuration change.
    ConfigChange,
}

/// Effect scopes, serde-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScopeSpec {
    /// All treated instances (and hence the changed service aggregate).
    TreatedInstances,
    /// All treated servers.
    TreatedServers,
}

/// One KPI effect of a change.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct EffectSpec {
    /// KPI kind name (see [`KpiKind::name`]).
    pub kpi: String,
    /// Where the effect lands.
    pub scope: ScopeSpec,
    /// Signed magnitude, absolute KPI units per instance/server.
    pub delta: f64,
    /// 0 = instantaneous level shift; >0 = linear ramp over this many
    /// minutes.
    #[serde(default)]
    pub ramp_minutes: u32,
    /// Minutes after deployment before the effect begins.
    #[serde(default)]
    pub delay_minutes: u32,
}

/// One software change.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ChangeSpec {
    /// Target service name.
    pub service: String,
    /// Upgrade vs configuration change.
    pub kind: ChangeKindSpec,
    /// Number of instances to deploy on (clamped; equal to the service
    /// size ⇒ full launch).
    pub targets: usize,
    /// Deployment day (0-based).
    pub day: u32,
    /// Deployment minute within the day (0..1440).
    pub minute_of_day: u32,
    /// Operator-facing description.
    #[serde(default)]
    pub description: String,
    /// KPI effects (empty = a change with no impact).
    #[serde(default)]
    pub effects: Vec<EffectSpec>,
}

/// One external (non-software) shock.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ShockSpec {
    /// Affected service names.
    pub services: Vec<String>,
    /// KPI kind name.
    pub kpi: String,
    /// Signed magnitude per instance/server.
    pub delta: f64,
    /// Onset day (0-based).
    pub day: u32,
    /// Onset minute within the day.
    pub minute_of_day: u32,
    /// 0 = persistent level shift; >0 = transient spike of this duration.
    #[serde(default)]
    pub spike_minutes: u32,
}

/// A complete scenario.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorldSpec {
    /// Master seed.
    pub seed: u64,
    /// Simulated days.
    pub days: usize,
    /// Services.
    pub services: Vec<ServiceSpec>,
    /// Undirected relationship edges, by service name.
    #[serde(default)]
    pub relations: Vec<(String, String)>,
    /// Software changes.
    #[serde(default)]
    pub changes: Vec<ChangeSpec>,
    /// External shocks.
    #[serde(default)]
    pub shocks: Vec<ShockSpec>,
}

/// The result of building a spec.
#[derive(Debug)]
pub struct BuiltWorld {
    /// The frozen world.
    pub world: World,
    /// Change ids, in spec order.
    pub changes: Vec<ChangeId>,
}

fn kind_by_name(name: &str) -> Result<KpiKind, SimError> {
    let all = [
        KpiKind::CpuUtilization,
        KpiKind::MemoryUtilization,
        KpiKind::NicThroughput,
        KpiKind::CpuContextSwitch,
        KpiKind::PageViewCount,
        KpiKind::PageViewResponseDelay,
        KpiKind::AccessFailureCount,
        KpiKind::EffectiveClickCount,
    ];
    all.into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| SimError::InvalidName(format!("unknown KPI kind '{name}'")))
}

impl WorldSpec {
    /// Builds the world.
    ///
    /// # Errors
    ///
    /// [`SimError`] on unknown service names, unknown KPI kind names, or
    /// invalid effect scoping.
    pub fn build(&self) -> Result<BuiltWorld, SimError> {
        let mut b = WorldBuilder::new(SimConfig::days(self.seed, self.days));
        let mut by_name = BTreeMap::new();
        for s in &self.services {
            let id = b.add_service(&s.name, s.instances)?;
            if !s.extra_kinds.is_empty() {
                let mut kinds = KpiKind::INSTANCE_KINDS.to_vec();
                for extra in &s.extra_kinds {
                    kinds.push(kind_by_name(extra)?);
                }
                b.set_instance_kinds(id, kinds);
            }
            by_name.insert(s.name.clone(), id);
        }
        let lookup = |name: &str| {
            by_name
                .get(name)
                .copied()
                .ok_or_else(|| SimError::InvalidName(format!("unknown service '{name}'")))
        };
        for (a, bb) in &self.relations {
            let (a, bb) = (lookup(a)?, lookup(bb)?);
            b.relate(a, bb)?;
        }

        let mut change_ids = Vec::new();
        for c in &self.changes {
            let svc = lookup(&c.service)?;
            let mut effect = ChangeEffect::none();
            for e in &c.effects {
                let kind = kind_by_name(&e.kpi)?;
                let scope = match e.scope {
                    ScopeSpec::TreatedInstances => EffectScope::TreatedInstances,
                    ScopeSpec::TreatedServers => EffectScope::TreatedServers,
                };
                let shape = if e.ramp_minutes > 0 {
                    ChangeShape::Ramp {
                        delta: e.delta,
                        duration_minutes: e.ramp_minutes,
                    }
                } else {
                    ChangeShape::LevelShift { delta: e.delta }
                };
                effect = effect.with_effect(KpiEffect {
                    kind,
                    scope,
                    shape,
                    delay_minutes: e.delay_minutes,
                });
            }
            let minute = c.day as u64 * MINUTES_PER_DAY as u64 + c.minute_of_day.min(1439) as u64;
            let kind = match c.kind {
                ChangeKindSpec::Upgrade => ChangeKind::Upgrade,
                ChangeKindSpec::ConfigChange => ChangeKind::ConfigChange,
            };
            let id = b.deploy_change(kind, svc, c.targets, minute, effect, &c.description)?;
            change_ids.push(id);
        }

        for s in &self.shocks {
            let services = s
                .services
                .iter()
                .map(|n| lookup(n))
                .collect::<Result<Vec<_>, _>>()?;
            let shape = if s.spike_minutes > 0 {
                ChangeShape::Spike {
                    delta: s.delta,
                    duration_minutes: s.spike_minutes,
                }
            } else {
                ChangeShape::LevelShift { delta: s.delta }
            };
            b.add_shock(ExternalShock {
                services,
                kind: kind_by_name(&s.kpi)?,
                shape,
                onset: s.day as u64 * MINUTES_PER_DAY as u64 + s.minute_of_day.min(1439) as u64,
            });
        }

        Ok(BuiltWorld {
            world: b.build(),
            changes: change_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> WorldSpec {
        WorldSpec {
            seed: 3,
            days: 8,
            services: vec![
                ServiceSpec {
                    name: "a.web".into(),
                    instances: 4,
                    extra_kinds: vec![],
                },
                ServiceSpec {
                    name: "a.ads".into(),
                    instances: 2,
                    extra_kinds: vec!["effective_click_count".into()],
                },
            ],
            relations: vec![("a.web".into(), "a.ads".into())],
            changes: vec![ChangeSpec {
                service: "a.web".into(),
                kind: ChangeKindSpec::Upgrade,
                targets: 2,
                day: 7,
                minute_of_day: 600,
                description: "demo".into(),
                effects: vec![EffectSpec {
                    kpi: "page_view_count".into(),
                    scope: ScopeSpec::TreatedInstances,
                    delta: -400.0,
                    ramp_minutes: 0,
                    delay_minutes: 0,
                }],
            }],
            shocks: vec![ShockSpec {
                services: vec!["a.ads".into()],
                kpi: "access_failure_count".into(),
                delta: 20.0,
                day: 7,
                minute_of_day: 700,
                spike_minutes: 5,
            }],
        }
    }

    #[test]
    fn build_demo_spec() {
        let built = demo_spec().build().unwrap();
        assert_eq!(built.changes.len(), 1);
        assert_eq!(built.world.topology().service_count(), 2);
        assert_eq!(built.world.change_log().len(), 1);
        assert_eq!(built.world.ground_truth().len(), 3); // 2 instances + service
    }

    #[test]
    fn unknown_service_rejected() {
        let mut spec = demo_spec();
        spec.changes[0].service = "nope".into();
        assert!(matches!(spec.build(), Err(SimError::InvalidName(_))));
    }

    #[test]
    fn unknown_kpi_rejected() {
        let mut spec = demo_spec();
        spec.changes[0].effects[0].kpi = "bogus".into();
        assert!(matches!(spec.build(), Err(SimError::InvalidName(_))));
    }

    #[test]
    fn spec_is_deterministic() {
        let a = demo_spec().build().unwrap();
        let b = demo_spec().build().unwrap();
        let key = a.world.all_keys()[0];
        assert_eq!(a.world.series(&key).unwrap(), b.world.series(&key).unwrap());
    }
}
