//! Software changes and the change log (paper §2.1).
//!
//! FUNNEL studies two kinds of planned changes on servers: **software
//! upgrades** (new features, bug fixes, performance work — assessed as a
//! whole) and **configuration changes** (OS/infra config, service config,
//! deployment scale, data source). Both are "controllable by the operations
//! team via command line interfaces and observable in logs"; the change log
//! is the input from which impact sets are derived.

use crate::model::{InstanceId, ServiceId};
use funnel_timeseries::series::MinuteBin;
use serde::{Deserialize, Serialize};

/// Identifier of a software change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChangeId(pub u32);

/// The two studied change kinds (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeKind {
    /// A software upgrade (possibly bundling several features/fixes;
    /// FUNNEL assesses the upgrade as a whole).
    Upgrade,
    /// A configuration change (OS/infrastructure, service config,
    /// deployment scale, or data source).
    ConfigChange,
}

/// How the change was rolled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LaunchMode {
    /// Dark launching: deployed to a strict subset of the service's
    /// instances first, leaving cinstances as a live control group.
    Dark,
    /// Full launching: deployed to every instance at once — no concurrent
    /// control group exists and FUNNEL falls back to historical seasonality
    /// exclusion (§3.2.5).
    Full,
}

/// One logged software change.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareChange {
    /// Log id.
    pub id: ChangeId,
    /// Upgrade or configuration change.
    pub kind: ChangeKind,
    /// The changed service (every change targets exactly one service; the
    /// operations team does not deploy two changes to one service at the
    /// same time, §3.1).
    pub service: ServiceId,
    /// The instances the change was deployed on (the tinstances).
    pub targets: Vec<InstanceId>,
    /// Deployment minute.
    pub minute: MinuteBin,
    /// Dark or full launching.
    pub launch: LaunchMode,
    /// Free-text description for operator-facing reports.
    pub description: String,
}

/// Append-only change log with time- and service-scoped queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChangeLog {
    changes: Vec<SoftwareChange>,
}

impl ChangeLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a change, assigning its id.
    pub fn record(
        &mut self,
        kind: ChangeKind,
        service: ServiceId,
        targets: Vec<InstanceId>,
        minute: MinuteBin,
        launch: LaunchMode,
        description: impl Into<String>,
    ) -> ChangeId {
        let id = ChangeId(self.changes.len() as u32);
        self.changes.push(SoftwareChange {
            id,
            kind,
            service,
            targets,
            minute,
            launch,
            description: description.into(),
        });
        id
    }

    /// Fetches a change by id.
    pub fn get(&self, id: ChangeId) -> Option<&SoftwareChange> {
        self.changes.get(id.0 as usize)
    }

    /// All changes, in log order.
    pub fn all(&self) -> &[SoftwareChange] {
        &self.changes
    }

    /// Number of recorded changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Merges concurrent/consecutive changes on the same service into one
/// combined change — the "straw man approach" the paper names for the
/// multi-change interaction problem it leaves as future work (§2.1): "We do
/// not explicitly consider the interactions across multiple concurrent or
/// consecutive software changes on a same server, which can be considered
/// as one combined change."
///
/// Changes on one service whose deployment minutes are within
/// `merge_window_minutes` of the *previous* change in the group are folded
/// into a single synthetic change: the union of targets, the earliest
/// minute, `Dark` launch only if every member was dark, and a concatenated
/// description. Combined changes get fresh ids starting at `0` in the
/// returned vector (they are synthetic views, not log entries).
pub fn combine_consecutive(
    changes: &[SoftwareChange],
    merge_window_minutes: u64,
) -> Vec<SoftwareChange> {
    use std::collections::BTreeMap;
    let mut by_service: BTreeMap<ServiceId, Vec<&SoftwareChange>> = BTreeMap::new();
    for c in changes {
        by_service.entry(c.service).or_default().push(c);
    }

    /// A group under construction: the synthetic change plus the minute of
    /// its most recent member (chains extend from the latest member).
    struct Group {
        change: SoftwareChange,
        last_minute: MinuteBin,
    }

    let mut combined = Vec::new();
    for (_service, mut group) in by_service {
        group.sort_by_key(|c| c.minute);
        let mut current: Option<Group> = None;
        for c in group {
            match current.as_mut() {
                Some(g) if c.minute.saturating_sub(g.last_minute) <= merge_window_minutes => {
                    let acc = &mut g.change;
                    for &t in &c.targets {
                        if !acc.targets.contains(&t) {
                            acc.targets.push(t);
                        }
                    }
                    acc.targets.sort();
                    if c.launch == LaunchMode::Full {
                        acc.launch = LaunchMode::Full;
                    }
                    if c.kind != acc.kind {
                        acc.kind = ChangeKind::Upgrade; // mixed kinds read as an upgrade
                    }
                    acc.description.push_str(" + ");
                    acc.description.push_str(&c.description);
                    g.last_minute = c.minute;
                }
                _ => {
                    if let Some(done) = current.take() {
                        combined.push(done.change);
                    }
                    current = Some(Group {
                        change: c.clone(),
                        last_minute: c.minute,
                    });
                }
            }
        }
        if let Some(done) = current.take() {
            combined.push(done.change);
        }
    }
    // Synthetic ids, deterministic order (service, minute).
    combined.sort_by_key(|c| (c.service, c.minute));
    for (i, c) in combined.iter_mut().enumerate() {
        c.id = ChangeId(i as u32);
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut log = ChangeLog::new();
        let id0 = log.record(
            ChangeKind::Upgrade,
            ServiceId(1),
            vec![InstanceId(0), InstanceId(1)],
            100,
            LaunchMode::Dark,
            "roll out ranking v2",
        );
        let id1 = log.record(
            ChangeKind::ConfigChange,
            ServiceId(2),
            vec![InstanceId(5)],
            200,
            LaunchMode::Full,
            "raise thread pool",
        );
        assert_eq!(id0, ChangeId(0));
        assert_eq!(id1, ChangeId(1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(id1).unwrap().kind, ChangeKind::ConfigChange);
        assert!(log.get(ChangeId(9)).is_none());
    }

    #[test]
    fn empty_log() {
        let log = ChangeLog::new();
        assert!(log.is_empty());
        assert!(log.all().is_empty());
    }

    fn change(
        id: u32,
        service: u32,
        targets: &[u32],
        minute: MinuteBin,
        launch: LaunchMode,
    ) -> SoftwareChange {
        SoftwareChange {
            id: ChangeId(id),
            kind: ChangeKind::Upgrade,
            service: ServiceId(service),
            targets: targets.iter().map(|&t| InstanceId(t)).collect(),
            minute,
            launch,
            description: format!("c{id}"),
        }
    }

    #[test]
    fn combine_merges_within_window() {
        let changes = vec![
            change(0, 1, &[0, 1], 100, LaunchMode::Dark),
            change(1, 1, &[2], 110, LaunchMode::Dark),
            change(2, 1, &[3], 300, LaunchMode::Dark), // too far: own group
        ];
        let combined = combine_consecutive(&changes, 30);
        assert_eq!(combined.len(), 2);
        assert_eq!(combined[0].targets.len(), 3);
        assert_eq!(combined[0].minute, 100);
        assert!(combined[0].description.contains("c0 + c1"));
        assert_eq!(combined[1].targets.len(), 1);
    }

    #[test]
    fn combine_chains_through_members() {
        // 100 → 125 → 150: each within 30 of the previous member, so one
        // group even though 150 − 100 > 30.
        let changes = vec![
            change(0, 1, &[0], 100, LaunchMode::Dark),
            change(1, 1, &[1], 125, LaunchMode::Dark),
            change(2, 1, &[2], 150, LaunchMode::Dark),
        ];
        let combined = combine_consecutive(&changes, 30);
        assert_eq!(combined.len(), 1);
        assert_eq!(combined[0].targets.len(), 3);
    }

    #[test]
    fn combine_keeps_services_separate() {
        let changes = vec![
            change(0, 1, &[0], 100, LaunchMode::Dark),
            change(1, 2, &[5], 100, LaunchMode::Dark),
        ];
        let combined = combine_consecutive(&changes, 60);
        assert_eq!(combined.len(), 2);
        assert_ne!(combined[0].service, combined[1].service);
    }

    #[test]
    fn combine_escalates_launch_mode() {
        let changes = vec![
            change(0, 1, &[0], 100, LaunchMode::Dark),
            change(1, 1, &[1], 105, LaunchMode::Full),
        ];
        let combined = combine_consecutive(&changes, 30);
        assert_eq!(combined.len(), 1);
        assert_eq!(combined[0].launch, LaunchMode::Full);
    }

    #[test]
    fn combine_dedups_shared_targets() {
        let changes = vec![
            change(0, 1, &[0, 1], 100, LaunchMode::Dark),
            change(1, 1, &[1, 2], 105, LaunchMode::Dark),
        ];
        let combined = combine_consecutive(&changes, 30);
        assert_eq!(combined[0].targets.len(), 3);
    }
}
