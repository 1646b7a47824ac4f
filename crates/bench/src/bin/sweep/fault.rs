//! Fault grid: assessment robustness versus telemetry fault rate.
//!
//! Replays the cohort through the faulted agent → collector transport at
//! increasing fault rates and scores every verdict against ground truth.
//! Per rate: TPR, FPR, and the fraction of items the pipeline *refuses to
//! judge* (inconclusive) instead of guessing. The degradation contract: as
//! faults grow the pipeline may trade recall for abstention, never for
//! false attributions; and the whole schedule → replay → assessment chain is
//! bit-deterministic from the seed.

use crate::cohort::{Cohort, Tally, SHARDS};
use funnel_bench::grid::{Column, Grid, Value};
use funnel_sim::agent::replay_with_faults;
use funnel_sim::faults::FaultPlan;
use funnel_sim::MetricStore;

/// Seed for every fault schedule (distinct from the world seed on purpose:
/// the same telemetry stream is mauled differently at each rate, but
/// identically across reruns).
const FAULT_SEED: u64 = 77;
/// Swept fault intensities (see [`plan_at`] for the channel mix); the first
/// is the clean baseline the FPR contract compares against.
const RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];
/// The lossy rate the determinism contract runs a second time.
const RECHECK_RATE: f64 = 0.20;

/// The fault mix at intensity `rate`: drops at the headline rate, plus
/// corruption, delays (out-of-order arrival) and duplicates at fractions of
/// it, so every hardened ingestion path is exercised.
fn plan_at(rate: f64) -> FaultPlan {
    if rate <= 0.0 {
        return FaultPlan::none();
    }
    FaultPlan {
        seed: FAULT_SEED,
        drop_frame_prob: rate,
        corrupt_prob: rate * 0.5,
        delay_prob: rate * 0.5,
        max_delay_minutes: 3,
        duplicate_prob: rate * 0.25,
        ..FaultPlan::none()
    }
}

/// Verdict quality under one fault rate.
#[derive(Debug, PartialEq)]
pub struct FaultRow {
    rate: f64,
    tally: Tally,
    dropped_frames: usize,
    quarantined_frames: usize,
}

pub struct FaultGrid(pub Cohort);

impl Grid for FaultGrid {
    type Cell = f64;
    type Row = FaultRow;

    const NAME: &'static str = "fault";
    const TITLE: &'static str = "Fault sweep: verdict quality vs telemetry fault rate";

    fn columns(&self) -> Vec<Column<FaultRow>> {
        vec![
            Column::new("rate", |r| Value::fixed(r.rate, 2)),
            Column::new("items", |r| Value::int(r.tally.items)),
            Column::new("tpr", |r| Value::fixed(r.tally.tpr(), 4)),
            Column::new("fpr", |r| Value::fixed(r.tally.fpr(), 4)),
            Column::new("inconclusive_rate", |r| {
                Value::fixed(r.tally.inconclusive_rate(), 4)
            }),
            Column::new("mean_coverage", |r| {
                Value::fixed(r.tally.mean_coverage(), 4)
            }),
            Column::new("dropped_frames", |r| Value::int(r.dropped_frames)),
            Column::new("quarantined_frames", |r| Value::int(r.quarantined_frames)),
        ]
    }

    fn cells(&self) -> Vec<f64> {
        RATES.to_vec()
    }

    fn run(&self, &rate: &f64) -> FaultRow {
        let store = MetricStore::new();
        let stats =
            replay_with_faults(&self.0.world, &store, SHARDS, plan_at(rate)).expect("replay");
        FaultRow {
            rate,
            tally: self.0.score(&self.0.assess(&store)),
            dropped_frames: stats.dropped_frames,
            quarantined_frames: stats.quarantined_frames,
        }
    }

    fn contract(&self, rows: &[FaultRow]) -> Vec<(&'static str, String)> {
        // Determinism: the same seed and plan must reproduce the whole
        // replay → assessment chain bit for bit.
        let reference = rows
            .iter()
            .find(|r| r.rate == RECHECK_RATE)
            .expect("the re-checked rate is swept");
        assert_eq!(
            *reference,
            self.run(&RECHECK_RATE),
            "faulted replay is not deterministic: same seed produced a different report"
        );

        // Degradation: faults may cost recall, never precision.
        let clean_fpr = rows[0].tally.fpr();
        for row in rows {
            assert!(
                row.tally.fpr() <= clean_fpr + 1e-9,
                "rate {:.2} raised FPR above the clean baseline ({} > {clean_fpr})",
                row.rate,
                row.tally.fpr(),
            );
        }
        vec![
            ("fault_seed", FAULT_SEED.to_string()),
            ("determinism_recheck_rate", format!("{RECHECK_RATE:.2}")),
        ]
    }
}
