//! Impact-set identification (paper §3.1, Fig. 4).
//!
//! For a change deployed on instances `(A₁ … A_m)` of service A (related to
//! B and D, with B related to C):
//!
//! * impact set = tinstances `(A₁ … A_m)` + tservers + changed service A +
//!   affected services {B, C, D};
//! * control group = cinstances `(A_{m+1} … A_n)` + their cservers;
//! * instances of affected services are *excluded* — their aggregate
//!   service KPI represents them.

use crate::change::SoftwareChange;
use crate::model::{InstanceId, ServerId, ServiceId, Topology, TopologyError};
use std::collections::BTreeSet;

/// Anything a KPI can be attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Entity {
    /// A physical server.
    Server(ServerId),
    /// A service process on a server.
    Instance(InstanceId),
    /// A whole service (aggregate of its instances).
    Service(ServiceId),
}

/// The impact set and control group of one software change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpactSet {
    /// Instances the change was deployed on.
    pub tinstances: Vec<InstanceId>,
    /// Servers hosting the tinstances.
    pub tservers: Vec<ServerId>,
    /// The changed service.
    pub changed_service: ServiceId,
    /// Services transitively related to the changed service.
    pub affected_services: Vec<ServiceId>,
    /// Same-service instances without the change (empty for full launches).
    pub cinstances: Vec<InstanceId>,
    /// Servers hosting the cinstances.
    pub cservers: Vec<ServerId>,
}

impl ImpactSet {
    /// The monitored entities, in a stable order: tservers, tinstances, the
    /// changed service, then affected services. (Control entities are *not*
    /// monitored for changes; they only serve as the DiD control group.)
    pub fn monitored_entities(&self) -> Vec<Entity> {
        let mut v = Vec::with_capacity(
            self.tservers.len() + self.tinstances.len() + 1 + self.affected_services.len(),
        );
        v.extend(self.tservers.iter().map(|&s| Entity::Server(s)));
        v.extend(self.tinstances.iter().map(|&i| Entity::Instance(i)));
        v.push(Entity::Service(self.changed_service));
        v.extend(self.affected_services.iter().map(|&s| Entity::Service(s)));
        v
    }

    /// Whether a dark-launch control group exists.
    pub fn has_control_group(&self) -> bool {
        !self.cinstances.is_empty()
    }
}

/// Derives the impact set of `change` from the topology (§3.1).
///
/// # Errors
///
/// Propagates [`TopologyError`] when the change references unknown ids.
pub fn identify_impact_set(
    topology: &Topology,
    change: &SoftwareChange,
) -> Result<ImpactSet, TopologyError> {
    // tinstances come straight from the change log; validate and collect
    // their servers.
    let mut tservers = BTreeSet::new();
    for &i in &change.targets {
        let inst = topology.instance(i)?;
        tservers.insert(inst.server);
    }

    // cinstances: same service, not targeted.
    let targeted: BTreeSet<InstanceId> = change.targets.iter().copied().collect();
    let mut cinstances = Vec::new();
    let mut cservers = BTreeSet::new();
    for inst in topology.instances_of(change.service) {
        if !targeted.contains(&inst.id) {
            cinstances.push(inst.id);
            cservers.insert(inst.server);
        }
    }
    // A server hosting both a tinstance and a cinstance (multi-process) is
    // treated, not control.
    let cservers: Vec<ServerId> = cservers.difference(&tservers).copied().collect();

    Ok(ImpactSet {
        tinstances: change.targets.clone(),
        tservers: tservers.into_iter().collect(),
        changed_service: change.service,
        affected_services: topology.affected_services(change.service),
        cinstances,
        cservers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::{ChangeKind, LaunchMode};
    use crate::naming::ServiceName;

    fn fig4_topology() -> (Topology, ServiceId, Vec<InstanceId>) {
        // Fig. 4: service A with 6 instances on 6 servers; A—B, B—C, A—D.
        let mut t = Topology::new();
        let a = t
            .add_service(ServiceName::parse("prod.a").unwrap())
            .unwrap();
        let b = t
            .add_service(ServiceName::parse("prod.b").unwrap())
            .unwrap();
        let c = t
            .add_service(ServiceName::parse("prod.c").unwrap())
            .unwrap();
        let d = t
            .add_service(ServiceName::parse("prod.d").unwrap())
            .unwrap();
        t.relate(a, b).unwrap();
        t.relate(b, c).unwrap();
        t.relate(a, d).unwrap();
        let mut instances = Vec::new();
        for k in 0..6 {
            let srv = t.add_server(format!("a-host-{k}"));
            instances.push(t.add_instance(a, srv).unwrap());
        }
        // B/C/D each get one instance so they're real services.
        for (svc, name) in [(b, "b"), (c, "c"), (d, "d")] {
            let srv = t.add_server(format!("{name}-host"));
            t.add_instance(svc, srv).unwrap();
        }
        (t, a, instances)
    }

    fn change_on(a: ServiceId, targets: Vec<InstanceId>, launch: LaunchMode) -> SoftwareChange {
        SoftwareChange {
            id: crate::change::ChangeId(0),
            kind: ChangeKind::Upgrade,
            service: a,
            targets,
            minute: 500,
            launch,
            description: String::new(),
        }
    }

    #[test]
    fn dark_launch_splits_treated_and_control() {
        let (t, a, inst) = fig4_topology();
        let change = change_on(a, inst[..2].to_vec(), LaunchMode::Dark);
        let set = identify_impact_set(&t, &change).unwrap();
        assert_eq!(set.tinstances.len(), 2);
        assert_eq!(set.tservers.len(), 2);
        assert_eq!(set.cinstances.len(), 4);
        assert_eq!(set.cservers.len(), 4);
        assert!(set.has_control_group());
        assert_eq!(set.changed_service, a);
        // Affected services: B, C (via B), D.
        assert_eq!(set.affected_services.len(), 3);
    }

    #[test]
    fn full_launch_has_no_control() {
        let (t, a, inst) = fig4_topology();
        let change = change_on(a, inst.clone(), LaunchMode::Full);
        let set = identify_impact_set(&t, &change).unwrap();
        assert!(set.cinstances.is_empty());
        assert!(set.cservers.is_empty());
        assert!(!set.has_control_group());
    }

    #[test]
    fn monitored_entities_exclude_control_and_affected_instances() {
        let (t, a, inst) = fig4_topology();
        let change = change_on(a, inst[..2].to_vec(), LaunchMode::Dark);
        let set = identify_impact_set(&t, &change).unwrap();
        let entities = set.monitored_entities();
        // 2 tservers + 2 tinstances + changed + 3 affected = 8.
        assert_eq!(entities.len(), 8);
        // No cinstance appears.
        for &ci in &set.cinstances {
            assert!(!entities.contains(&Entity::Instance(ci)));
        }
        // No instance of an affected service appears (only the service).
        let service_entities: Vec<_> = entities
            .iter()
            .filter(|e| matches!(e, Entity::Service(_)))
            .collect();
        assert_eq!(service_entities.len(), 4);
    }

    #[test]
    fn shared_server_is_treated_not_control() {
        // Two instances of the same service on one server; change one of
        // them: the server must not appear in cservers.
        let mut t = Topology::new();
        let a = t.add_service(ServiceName::parse("x").unwrap()).unwrap();
        let srv = t.add_server("dual");
        let i1 = t.add_instance(a, srv).unwrap();
        let _i2 = t.add_instance(a, srv).unwrap();
        let change = change_on(a, vec![i1], LaunchMode::Dark);
        let set = identify_impact_set(&t, &change).unwrap();
        assert_eq!(set.tservers, vec![srv]);
        assert!(set.cservers.is_empty());
        assert_eq!(set.cinstances.len(), 1);
    }

    #[test]
    fn unknown_target_errors() {
        let (t, a, _) = fig4_topology();
        let change = change_on(a, vec![InstanceId(999)], LaunchMode::Dark);
        assert!(identify_impact_set(&t, &change).is_err());
    }
}
