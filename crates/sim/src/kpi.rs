//! The KPI catalogue.
//!
//! Three KPI levels exist (§2.2, Fig. 1): **server KPIs** parsed from system
//! logs by the agent, **instance KPIs** recorded as the process serves
//! requests, and **service KPIs** aggregated from the instance KPIs. The
//! paper's evaluation uses CPU context switch count (variable) and memory
//! utilization (stationary) on every server, plus service-defined
//! instance/service KPIs (§4.1); the case studies add NIC throughput
//! (Fig. 6) and effective advertisement clicks (Fig. 7).

use funnel_timeseries::generate::KpiClass;
use funnel_topology::impact::Entity;

/// Every KPI kind the simulator produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KpiKind {
    // ---- server KPIs (collected by the agent from system logs) ----
    /// CPU utilization percentage of a server.
    CpuUtilization,
    /// Memory utilization percentage of a server (stationary; the paper's
    /// memory-leak canary).
    MemoryUtilization,
    /// NIC throughput of a server (variable; Fig. 6's KPI).
    NicThroughput,
    /// CPU context switches per minute (variable; the paper's efficiency /
    /// thread-count canary).
    CpuContextSwitch,
    // ---- instance KPIs (recorded as requests are served) ----
    /// Page views served per minute (seasonal).
    PageViewCount,
    /// Mean page view response delay (stationary).
    PageViewResponseDelay,
    /// Access failures per minute (variable).
    AccessFailureCount,
    /// Effective (human, per anti-cheating) advertisement clicks per minute
    /// (seasonal; Fig. 7's KPI).
    EffectiveClickCount,
}

/// How instance KPIs aggregate into the service KPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Service value = sum of instance values (counts).
    Sum,
    /// Service value = mean of instance values (delays, utilizations).
    Mean,
}

impl KpiKind {
    /// All server-level KPI kinds.
    pub const SERVER_KINDS: [KpiKind; 4] = [
        KpiKind::CpuUtilization,
        KpiKind::MemoryUtilization,
        KpiKind::NicThroughput,
        KpiKind::CpuContextSwitch,
    ];

    /// The default instance-level KPI kinds every web-style service carries.
    pub const INSTANCE_KINDS: [KpiKind; 3] = [
        KpiKind::PageViewCount,
        KpiKind::PageViewResponseDelay,
        KpiKind::AccessFailureCount,
    ];

    /// Whether this kind lives on servers (vs instances/services).
    pub fn is_server_kind(self) -> bool {
        matches!(
            self,
            KpiKind::CpuUtilization
                | KpiKind::MemoryUtilization
                | KpiKind::NicThroughput
                | KpiKind::CpuContextSwitch
        )
    }

    /// The paper's character class of this KPI (§4.2.1).
    pub fn class(self) -> KpiClass {
        match self {
            KpiKind::MemoryUtilization
            | KpiKind::CpuUtilization
            | KpiKind::PageViewResponseDelay => KpiClass::Stationary,
            KpiKind::NicThroughput | KpiKind::CpuContextSwitch | KpiKind::AccessFailureCount => {
                KpiClass::Variable
            }
            KpiKind::PageViewCount | KpiKind::EffectiveClickCount => KpiClass::Seasonal,
        }
    }

    /// How the service KPI aggregates instance measurements.
    pub fn aggregation(self) -> Aggregation {
        match self {
            KpiKind::PageViewCount | KpiKind::AccessFailureCount | KpiKind::EffectiveClickCount => {
                Aggregation::Sum
            }
            KpiKind::PageViewResponseDelay
            | KpiKind::CpuUtilization
            | KpiKind::MemoryUtilization
            | KpiKind::NicThroughput
            | KpiKind::CpuContextSwitch => Aggregation::Mean,
        }
    }

    /// Typical base level for the generator (per instance / per server).
    pub fn base_level(self) -> f64 {
        match self {
            KpiKind::CpuUtilization => 45.0,
            KpiKind::MemoryUtilization => 62.0,
            KpiKind::NicThroughput => 480.0,      // Mbit/s
            KpiKind::CpuContextSwitch => 9_000.0, // per minute
            KpiKind::PageViewCount => 1_200.0,
            KpiKind::PageViewResponseDelay => 180.0, // ms
            KpiKind::AccessFailureCount => 12.0,
            KpiKind::EffectiveClickCount => 300.0,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            KpiKind::CpuUtilization => "cpu_utilization",
            KpiKind::MemoryUtilization => "memory_utilization",
            KpiKind::NicThroughput => "nic_throughput",
            KpiKind::CpuContextSwitch => "cpu_context_switch",
            KpiKind::PageViewCount => "page_view_count",
            KpiKind::PageViewResponseDelay => "page_view_response_delay",
            KpiKind::AccessFailureCount => "access_failure_count",
            KpiKind::EffectiveClickCount => "effective_click_count",
        }
    }

    /// How many kinds there are: every [`KpiKind::tag`] is below it, and
    /// the tags run in the kinds' order.
    pub const COUNT: usize = 8;

    /// Stable numeric tag for the wire format.
    pub fn tag(self) -> u8 {
        match self {
            KpiKind::CpuUtilization => 0,
            KpiKind::MemoryUtilization => 1,
            KpiKind::NicThroughput => 2,
            KpiKind::CpuContextSwitch => 3,
            KpiKind::PageViewCount => 4,
            KpiKind::PageViewResponseDelay => 5,
            KpiKind::AccessFailureCount => 6,
            KpiKind::EffectiveClickCount => 7,
        }
    }

    /// Inverse of [`KpiKind::tag`].
    pub fn from_tag(tag: u8) -> Option<KpiKind> {
        Some(match tag {
            0 => KpiKind::CpuUtilization,
            1 => KpiKind::MemoryUtilization,
            2 => KpiKind::NicThroughput,
            3 => KpiKind::CpuContextSwitch,
            4 => KpiKind::PageViewCount,
            5 => KpiKind::PageViewResponseDelay,
            6 => KpiKind::AccessFailureCount,
            7 => KpiKind::EffectiveClickCount,
            _ => return None,
        })
    }
}

impl std::fmt::Display for KpiKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-qualified KPI: entity + kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KpiKey {
    /// The server/instance/service the KPI belongs to.
    pub entity: Entity,
    /// Which measurement.
    pub kind: KpiKind,
}

impl KpiKey {
    /// Constructs a key.
    pub fn new(entity: Entity, kind: KpiKind) -> Self {
        Self { entity, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_paper() {
        assert_eq!(KpiKind::MemoryUtilization.class(), KpiClass::Stationary);
        assert_eq!(KpiKind::CpuContextSwitch.class(), KpiClass::Variable);
        assert_eq!(KpiKind::PageViewCount.class(), KpiClass::Seasonal);
        assert_eq!(KpiKind::NicThroughput.class(), KpiClass::Variable);
        assert_eq!(KpiKind::EffectiveClickCount.class(), KpiClass::Seasonal);
    }

    #[test]
    fn counts_sum_delays_average() {
        assert_eq!(KpiKind::PageViewCount.aggregation(), Aggregation::Sum);
        assert_eq!(
            KpiKind::PageViewResponseDelay.aggregation(),
            Aggregation::Mean
        );
    }

    #[test]
    fn tag_roundtrip() {
        for kind in KpiKind::SERVER_KINDS
            .iter()
            .chain(KpiKind::INSTANCE_KINDS.iter())
            .chain([KpiKind::EffectiveClickCount].iter())
        {
            assert_eq!(KpiKind::from_tag(kind.tag()), Some(*kind));
        }
        assert_eq!(KpiKind::from_tag(200), None);
        let kinds: Vec<KpiKind> = (0..KpiKind::COUNT as u8)
            .map(|tag| KpiKind::from_tag(tag).unwrap())
            .collect();
        assert!(kinds.is_sorted(), "tags run in the kinds' order");
        assert_eq!(KpiKind::from_tag(KpiKind::COUNT as u8), None);
    }

    #[test]
    fn server_kinds_flagged() {
        for k in KpiKind::SERVER_KINDS {
            assert!(k.is_server_kind());
        }
        for k in KpiKind::INSTANCE_KINDS {
            assert!(!k.is_server_kind());
        }
    }
}
