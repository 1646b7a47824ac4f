//! The simulated fleets and the change plans deployed on them.

use funnel_sim::effect::{ChangeEffect, EffectScope};
use funnel_sim::kpi::KpiKind;
use funnel_sim::world::{SimConfig, World, WorldBuilder};
use funnel_topology::change::ChangeKind;
use funnel_topology::model::ServiceId;
use std::collections::BTreeMap;

/// Servers one agent reports for (one frame per agent per minute).
pub const SERVERS_PER_AGENT: usize = 10;

/// A fleet shape: every instance runs on its own server, so a fleet holds
/// `services × instances × (4 server + 3 instance) + services × 3` keys.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    pub name: &'static str,
    pub services: usize,
    pub instances: usize,
}

/// 1,000 servers, 7,120 keys, 100 agents.
pub const FLEET_7K: Fleet = Fleet {
    name: "fleet-7k",
    services: 40,
    instances: 25,
};

/// 200 servers, 1,424 keys, 20 agents.
pub const FLEET_1K: Fleet = Fleet {
    name: "fleet-1k",
    services: 8,
    instances: 25,
};

impl Fleet {
    pub fn servers(&self) -> usize {
        self.services * self.instances
    }

    pub fn keys(&self) -> usize {
        self.servers() * (KpiKind::SERVER_KINDS.len() + KpiKind::INSTANCE_KINDS.len())
            + self.services * KpiKind::INSTANCE_KINDS.len()
    }

    pub fn agents(&self) -> usize {
        self.servers().div_ceil(SERVERS_PER_AGENT)
    }
}

/// Builds `fleet` over `[0, duration)` with one change per entry of
/// `change_minutes`, round-robin over the services: even services
/// dark-launch half their instances (DiD against the control half), odd
/// services full-launch (DiD against seasonal history). Changes 0 and 5 of
/// every 8 carry a real response-delay shift, so one in four runs the DiD
/// stage to a `Caused` verdict, once per launch mode.
pub fn build_world(fleet: &Fleet, seed: u64, duration: usize, change_minutes: &[u64]) -> World {
    let mut b = WorldBuilder::new(SimConfig {
        seed,
        start: 0,
        duration,
    });
    let services: Vec<ServiceId> = (0..fleet.services)
        .map(|s| {
            b.add_service(&format!("prod.svc{s:02}"), fleet.instances)
                .expect("distinct service names")
        })
        .collect();
    for (k, &minute) in change_minutes.iter().enumerate() {
        let s = k % fleet.services;
        let targets = if s.is_multiple_of(2) {
            fleet.instances / 2
        } else {
            fleet.instances
        };
        let effect = if matches!(k % 8, 0 | 5) {
            ChangeEffect::none().with_level_shift(
                KpiKind::PageViewResponseDelay,
                EffectScope::TreatedInstances,
                12.0,
            )
        } else {
            ChangeEffect::none()
        };
        b.deploy_change(
            ChangeKind::Upgrade,
            services[s],
            targets,
            minute,
            effect,
            "benchmark change",
        )
        .expect("instance KPI scoped to instances");
    }
    b.build()
}

/// The instance KPI kinds of every service — the table the assessment
/// entry points take.
pub fn service_kinds(world: &World) -> BTreeMap<ServiceId, Vec<KpiKind>> {
    world
        .topology()
        .services()
        .map(|(id, _)| (id, world.kinds_of_service(id).to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sizes_match_the_readme() {
        assert_eq!(FLEET_7K.keys(), 7_120);
        assert_eq!(FLEET_7K.agents(), 100);
        assert_eq!(FLEET_1K.keys(), 1_424);
        assert_eq!(FLEET_1K.agents(), 20);
        let world = build_world(&FLEET_1K, 7, 10, &[5]);
        assert_eq!(world.all_keys().len(), FLEET_1K.keys());
    }
}
