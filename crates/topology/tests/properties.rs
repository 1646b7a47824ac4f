//! Property-based tests for topology construction and impact-set
//! identification (§3.1 invariants).

use funnel_topology::change::{ChangeId, ChangeKind, LaunchMode, SoftwareChange};
use funnel_topology::impact::{identify_impact_set, Entity};
use funnel_topology::model::{InstanceId, Topology};
use funnel_topology::naming::ServiceName;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds a topology with `sizes.len()` services of the given instance
/// counts, relating service i to i+1 when `relate[i]`.
fn build(sizes: &[usize], relate: &[bool]) -> Topology {
    let mut t = Topology::new();
    let mut ids = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        let svc = t
            .add_service(ServiceName::parse(&format!("prop.s{i}")).unwrap())
            .unwrap();
        for k in 0..n {
            let server = t.add_server(format!("s{i}-h{k}"));
            t.add_instance(svc, server).unwrap();
        }
        ids.push(svc);
    }
    for (i, &r) in relate.iter().enumerate() {
        if r && i + 1 < ids.len() {
            t.relate(ids[i], ids[i + 1]).unwrap();
        }
    }
    t
}

/// The characters a service-name segment may hold; its first is one of
/// the 26 letters.
const SEGMENT_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";

/// A segment from drawn indices into [`SEGMENT_CHARS`].
fn segment(picks: &[usize]) -> String {
    picks
        .iter()
        .enumerate()
        .map(|(k, &p)| char::from(SEGMENT_CHARS[if k == 0 { p % 26 } else { p }]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// tinstances and cinstances partition the changed service's instances,
    /// and tservers/cservers never overlap.
    #[test]
    fn impact_set_partitions_service(
        sizes in prop::collection::vec(1usize..8, 1..6),
        relate in prop::collection::vec(any::<bool>(), 5),
        svc_pick in any::<prop::sample::Index>(),
        n_targets in 0usize..9,
    ) {
        let topo = build(&sizes, &relate);
        let services: Vec<_> = topo.services().map(|(id, _)| id).collect();
        let service = services[svc_pick.index(services.len())];
        let all: Vec<InstanceId> = topo.instances_of(service).iter().map(|i| i.id).collect();
        let n_targets = n_targets.min(all.len()).max(1);
        let change = SoftwareChange {
            id: ChangeId(0),
            kind: ChangeKind::Upgrade,
            service,
            targets: all[..n_targets].to_vec(),
            minute: 100,
            launch: if n_targets == all.len() { LaunchMode::Full } else { LaunchMode::Dark },
            description: String::new(),
        };
        let set = identify_impact_set(&topo, &change).unwrap();

        // Partition.
        let t: BTreeSet<_> = set.tinstances.iter().collect();
        let c: BTreeSet<_> = set.cinstances.iter().collect();
        prop_assert!(t.is_disjoint(&c));
        prop_assert_eq!(t.len() + c.len(), all.len());

        // Server disjointness.
        let ts: BTreeSet<_> = set.tservers.iter().collect();
        let cs: BTreeSet<_> = set.cservers.iter().collect();
        prop_assert!(ts.is_disjoint(&cs));

        // Control exists iff the launch left instances untouched.
        prop_assert_eq!(set.has_control_group(), n_targets < all.len());

        // The changed service never appears among its own affected services.
        prop_assert!(!set.affected_services.contains(&service));

        // Monitored entities are unique.
        let monitored = set.monitored_entities();
        let uniq: BTreeSet<_> = monitored.iter().collect();
        prop_assert_eq!(uniq.len(), monitored.len());

        // Control entities are never monitored.
        for &ci in &set.cinstances {
            prop_assert!(!monitored.contains(&Entity::Instance(ci)));
        }
    }

    /// Affected services are symmetric under the relation graph: if B is
    /// affected by a change on A, then A is affected by a change on B.
    #[test]
    fn affectedness_is_symmetric(
        sizes in prop::collection::vec(1usize..4, 2..6),
        relate in prop::collection::vec(any::<bool>(), 5),
    ) {
        let topo = build(&sizes, &relate);
        let services: Vec<_> = topo.services().map(|(id, _)| id).collect();
        for &a in &services {
            for b in topo.affected_services(a) {
                prop_assert!(
                    topo.affected_services(b).contains(&a),
                    "{a:?} affects {b:?} but not vice versa"
                );
            }
        }
    }

    /// Service names round-trip through parse/display.
    #[test]
    fn names_roundtrip(
        picks in prop::collection::vec(
            prop::collection::vec(0..SEGMENT_CHARS.len(), 1..8),
            1..5,
        ),
    ) {
        let segs: Vec<String> = picks.iter().map(|p| segment(p)).collect();
        let joined = segs.join(".");
        let name = ServiceName::parse(&joined).unwrap();
        prop_assert_eq!(name.to_string(), joined);
        prop_assert_eq!(name.depth(), segs.len());
        prop_assert_eq!(name.leaf(), segs.last().unwrap());
    }
}
