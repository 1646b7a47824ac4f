//! Partition grid: verdict recovery versus partition length and heal mode.
//!
//! Replays the cohort while a network partition darkens half the agent fleet
//! across the deployment window, once per heal mode and partition length.
//! Each cell runs the full two-phase operational story:
//!
//! 1. **Interim**: the replay is cut off mid-partition and every change is
//!    assessed against the degraded store. Items blocked by the unhealed
//!    gap come back `Inconclusive { awaiting_backfill: true }`.
//! 2. **Post-heal**: the same schedule replayed to completion (the heal
//!    mode decides whether the dark span is lost, burst-flushed, or
//!    trickled back and collector-backfilled), then
//!    [`Funnel::reassess`](funnel_core::Funnel::reassess) re-runs every
//!    awaiting item whose window healed past the coverage trigger, and the
//!    re-run verdicts replace the interim ones.
//!
//! The contract: buffered heal modes plus re-assessment recover at least
//! 0.9× the fault-free TPR for partitions up to 60 minutes, **no** heal
//! mode, silent drop included, ever pushes FPR above the fault-free row (a
//! lost span may cost recall, never produce a false attribution), and the
//! rendered operator reports are byte-identical across shard counts.

use crate::cohort::{Cohort, Tally, SHARDS, T0};
use funnel_bench::grid::{Column, Grid, Value};
use funnel_core::report::render;
use funnel_core::ChangeAssessment;
use funnel_sim::agent::{replay_prefix, replay_with_faults};
use funnel_sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_sim::MetricStore;

/// The partition opens 10 minutes into the deployment window, darkening
/// every change's assessment span.
const PARTITION_START: u64 = T0 + 10;
/// Swept partition lengths, minutes.
const DURATIONS: [u64; 3] = [15, 30, 60];
/// Backlog bound: larger than the longest swept partition, so queue
/// eviction never confounds the heal-mode comparison.
const QUEUE: usize = 120;
const STAGGERED: HealMode = HealMode::StaggeredCatchUp {
    queue: QUEUE,
    per_minute: 2,
};
/// The swept heal modes, by label. Half the fleet (zone 1) goes dark.
const HEALS: [(&str, HealMode); 3] = [
    ("silent", HealMode::SilentDrop),
    ("burst", HealMode::BufferedBurst { queue: QUEUE }),
    ("staggered", STAGGERED),
];
const ZONE: PartitionScope = PartitionScope::Zone { zone: 1, zones: 2 };

/// One grid point; `heal: None` is the fault-free baseline.
pub struct PartitionCell {
    label: &'static str,
    heal: Option<HealMode>,
    duration: u64,
}

/// One scored cell.
#[derive(Default)]
pub struct PartitionRow {
    label: &'static str,
    duration: u64,
    tally: Tally,
    interim_queued: usize,
    upgraded: usize,
    still_pending: usize,
    backfilled_records: usize,
    partition_lost_frames: usize,
}

pub struct PartitionGrid(pub Cohort);

impl PartitionGrid {
    /// Runs the two-phase interim → heal → re-assess story and returns the
    /// scored row plus the final rendered reports.
    fn two_phase(
        &self,
        label: &'static str,
        scope: PartitionScope,
        heal: HealMode,
        duration: u64,
        shards: usize,
    ) -> (PartitionRow, String) {
        let Cohort { world, funnel, .. } = &self.0;
        let plan = || {
            FaultPlan::none().with_partition(PartitionWindow {
                scope,
                start: PARTITION_START,
                duration,
                heal,
            })
        };

        // Phase 1: cut off while the partition is still open. The
        // operations team wants the interim report *now*, not after the heal.
        let cutoff = (PARTITION_START + duration) as usize;
        let interim_store = MetricStore::new();
        replay_prefix(world, &interim_store, shards, plan(), cutoff).expect("interim replay");
        let mut assessments = self.0.assess(&interim_store);
        let awaiting = |assessments: &[ChangeAssessment]| -> usize {
            let each = assessments.iter();
            each.map(|a| a.awaiting_backfill_items().count()).sum()
        };
        let interim_queued = awaiting(&assessments);

        // Phase 2: the same schedule to completion (the heal mode decides
        // what comes back), then re-assess every window that healed.
        let healed_store = MetricStore::new();
        let stats =
            replay_with_faults(world, &healed_store, shards, plan()).expect("healed replay");
        let mut upgraded = 0usize;
        for assessment in &mut assessments {
            let record = world.change_log().get(assessment.change).expect("logged");
            upgraded += funnel
                .reassess(assessment, &healed_store, world.topology(), record)
                .expect("re-assessment");
        }

        let reports = assessments
            .iter()
            .map(|a| render(world.topology(), a))
            .collect();
        let row = PartitionRow {
            label,
            duration,
            tally: self.0.score(&assessments),
            interim_queued,
            upgraded,
            still_pending: awaiting(&assessments),
            backfilled_records: stats.backfilled_records,
            partition_lost_frames: stats.partition_lost_frames,
        };
        (row, reports)
    }
}

impl Grid for PartitionGrid {
    type Cell = PartitionCell;
    type Row = PartitionRow;

    const NAME: &'static str = "partition";
    const TITLE: &'static str =
        "Partition sweep: verdict recovery vs partition length and heal mode";

    fn columns(&self) -> Vec<Column<PartitionRow>> {
        vec![
            Column::new("heal", |r| Value::text(r.label)),
            Column::new("duration_min", |r| Value::int(r.duration)),
            Column::new("items", |r| Value::int(r.tally.items)),
            Column::new("tpr", |r| Value::fixed(r.tally.tpr(), 4)),
            Column::new("fpr", |r| Value::fixed(r.tally.fpr(), 4)),
            Column::new("inconclusive_rate", |r| {
                Value::fixed(r.tally.inconclusive_rate(), 4)
            }),
            Column::new("interim_queued", |r| Value::int(r.interim_queued)),
            Column::new("upgraded", |r| Value::int(r.upgraded)),
            Column::new("still_pending", |r| Value::int(r.still_pending)),
            Column::new("backfilled_records", |r| Value::int(r.backfilled_records)),
            Column::new("partition_lost_frames", |r| {
                Value::int(r.partition_lost_frames)
            }),
        ]
    }

    fn cells(&self) -> Vec<PartitionCell> {
        let baseline = PartitionCell {
            label: "none",
            heal: None,
            duration: 0,
        };
        let swept = DURATIONS.iter().flat_map(|&duration| {
            HEALS.iter().map(move |&(label, heal)| PartitionCell {
                label,
                heal: Some(heal),
                duration,
            })
        });
        std::iter::once(baseline).chain(swept).collect()
    }

    fn run(&self, cell: &PartitionCell) -> PartitionRow {
        let Some(heal) = cell.heal else {
            // Fault-free baseline: no partition, single phase.
            let store = MetricStore::new();
            replay_with_faults(&self.0.world, &store, SHARDS, FaultPlan::none())
                .expect("clean replay");
            return PartitionRow {
                label: cell.label,
                duration: cell.duration,
                tally: self.0.score(&self.0.assess(&store)),
                ..PartitionRow::default()
            };
        };
        self.two_phase(cell.label, ZONE, heal, cell.duration, SHARDS)
            .0
    }

    fn contract(&self, rows: &[PartitionRow]) -> Vec<(&'static str, String)> {
        let baseline = &rows[0].tally;
        for row in rows {
            let (heal, minutes, tally) = (row.label, row.duration, &row.tally);
            // Recovery: buffered heals + re-assessment must restore at
            // least 0.9× the fault-free TPR at every swept length.
            assert!(
                matches!(heal, "none" | "silent") || tally.tpr() >= 0.9 * baseline.tpr() - 1e-9,
                "{heal} {minutes}min recovered only {:.1}% TPR (fault-free {:.1}%)",
                tally.tpr() * 100.0,
                baseline.tpr() * 100.0
            );
            // Precision: no heal mode, even silent drop, may raise FPR
            // above the fault-free row.
            assert!(
                tally.fpr() <= baseline.fpr() + 1e-9,
                "{heal} {minutes}min raised FPR above fault-free ({:.4} > {:.4})",
                tally.fpr(),
                baseline.fpr()
            );
        }

        // Determinism: a whole-collector partition darkens every shard
        // regardless of fleet sharding, so the rendered operator reports
        // must be byte-identical across different shard counts.
        let longest = DURATIONS[DURATIONS.len() - 1];
        let reports_at = |shards| {
            let scope = PartitionScope::Collector;
            self.two_phase("staggered", scope, STAGGERED, longest, shards)
                .1
        };
        assert_eq!(
            reports_at(SHARDS),
            reports_at(7),
            "rendered reports diverged across shard counts"
        );
        vec![
            ("shards", SHARDS.to_string()),
            ("cross_shard_determinism_checked", "true".to_string()),
        ]
    }
}
