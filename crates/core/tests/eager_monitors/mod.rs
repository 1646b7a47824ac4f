//! The frozen eager stream monitors: per-key live detection as the
//! streaming engine shipped it before its persistence rule planned the
//! scoring.
//!
//! Every completed window is scored (`score_reaching_in`) on the tick it
//! completes and the hit or miss is fed to the eager persistence counter of
//! `detect/tests/eager_reference`. Copied from `core/src/stream.rs` at that
//! commit — `offer`'s late/re-prime routing, `plan_scoring` and `score_key`
//! — minus shedding, obs and the assessment side. Do not modernise it: it
//! is the tick-by-tick oracle of `stream_equivalence.rs`.

use crate::eager_reference::EagerPersistenceRun;
use funnel_core::stream::StreamDetection;
use funnel_sim::kpi::KpiKey;
use funnel_sim::store::Measurement;
use funnel_sst::{FastSst, SstWorkspace, StreamingSst};
use funnel_timeseries::ring::{RingSeries, RingWrite};
use funnel_timeseries::series::MinuteBin;
use std::collections::{BTreeMap, BTreeSet};

struct EagerMonitor {
    sst: StreamingSst<FastSst>,
    /// First minute not yet folded. Valid only while `primed`.
    next_minute: MinuteBin,
    /// Cleared when a backfill rewrites folded history.
    primed: bool,
    run: EagerPersistenceRun,
}

/// Rings, monitors, dirty set and watermark of an engine that never sheds.
pub struct EagerMonitors {
    scorer: FastSst,
    threshold: f64,
    persistence: usize,
    capacity: usize,
    workspace: SstWorkspace,
    rings: BTreeMap<KpiKey, RingSeries>,
    monitors: BTreeMap<KpiKey, EagerMonitor>,
    dirty: BTreeSet<KpiKey>,
    watermark: Option<MinuteBin>,
    /// Scoring passes that began by re-priming a monitor.
    pub reprimes: u64,
}

impl EagerMonitors {
    pub fn new(scorer: FastSst, threshold: f64, persistence: usize, capacity: usize) -> Self {
        use funnel_sst::SstScorer;
        let workspace = SstWorkspace::new(scorer.config());
        Self {
            scorer,
            threshold,
            persistence,
            capacity,
            workspace,
            rings: BTreeMap::new(),
            monitors: BTreeMap::new(),
            dirty: BTreeSet::new(),
            watermark: None,
            reprimes: 0,
        }
    }

    pub fn offer(&mut self, m: Measurement) {
        if !m.value.is_finite() {
            return;
        }
        let late = self.watermark.is_some_and(|w| m.minute <= w);
        let capacity = self.capacity;
        let ring = self
            .rings
            .entry(m.key)
            .or_insert_with(|| RingSeries::new(capacity));
        if late {
            if ring.backfill(m.minute, m.value) == RingWrite::Accepted {
                self.dirty.insert(m.key);
                if let Some(monitor) = self.monitors.get_mut(&m.key) {
                    if m.minute < monitor.next_minute {
                        monitor.primed = false;
                    }
                }
            }
        } else if ring.push(m.minute, m.value) == RingWrite::Accepted {
            self.dirty.insert(m.key);
        }
    }

    /// One tick: re-score every dirty key; declarations in key order.
    pub fn tick(&mut self, minute: MinuteBin) -> Vec<StreamDetection> {
        use funnel_sst::SstScorer;
        self.watermark = Some(self.watermark.map_or(minute, |w| w.max(minute)));
        let window = self.scorer.config().window_len() as u64;
        let mut detections = Vec::new();
        let mut clean = Vec::new();
        for &key in &self.dirty {
            let Some(ring) = self.rings.get(&key) else {
                clean.push(key);
                continue;
            };
            let (scorer, persistence) = (&self.scorer, self.persistence);
            let monitor = self.monitors.entry(key).or_insert_with(|| EagerMonitor {
                sst: StreamingSst::new(scorer.clone()),
                next_minute: ring.start(),
                primed: true,
                run: EagerPersistenceRun::new(persistence),
            });
            let to = ring.end().min(minute + 1);
            let (lo, reprime) = if monitor.primed {
                (monitor.next_minute.max(ring.start()), false)
            } else {
                // Rewind far enough that every window ending at or after
                // the first unfolded minute gets scored from a fully
                // re-primed rolling window.
                let lo = monitor
                    .next_minute
                    .saturating_add(1)
                    .saturating_sub(window)
                    .max(ring.start());
                (lo, true)
            };
            if to <= lo {
                if ring.end() <= minute + 1 {
                    clean.push(key);
                }
                continue;
            }

            if reprime {
                self.reprimes += 1;
                monitor.sst.reset();
                monitor.run.miss();
            }
            let (threshold, workspace) = (self.threshold, &mut self.workspace);
            let mut at = lo;
            while at < to {
                let Some(value) = ring.at(at) else {
                    at += 1;
                    continue;
                };
                let reached = monitor.sst.fold_with(value, |scorer, window| {
                    scorer.score_reaching_in(workspace, window, threshold)
                });
                match reached {
                    Some(Some(score)) => {
                        if let Some(event) = monitor.run.hit(at, score) {
                            detections.push(StreamDetection {
                                key,
                                declared_at: event.declared_at,
                                first_exceeded_at: event.first_exceeded_at,
                                peak_score: event.peak_score,
                            });
                        }
                    }
                    Some(None) => monitor.run.miss(),
                    // Still warming up: no window, no evidence either way.
                    None => {}
                }
                at += 1;
            }
            monitor.next_minute = to;
            monitor.primed = true;
            if monitor.next_minute >= ring.end() {
                clean.push(key);
            }
        }
        for key in clean {
            self.dirty.remove(&key);
        }
        detections
    }
}
