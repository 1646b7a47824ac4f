//! The metric and span name registry.
//!
//! Every instrumentation site uses a constant from here — never an ad-hoc
//! string — so the full vocabulary of `obs_report.json` is enumerable at
//! compile time, greppable, and documented in one place (mirrored in
//! DESIGN.md §9). Naming convention: `<stage>.<what>` with the stage
//! prefixes `collector`, `detect`, `did`, `assess`, `supervisor`, `wal`,
//! `recover`, `reassess`, `stream`, `diag`, `timeline`, and `selfmon`.

// ------------------------------------------------------------- counters --

/// Wire frames the collector accepted into the store.
pub const FRAMES_INGESTED: &str = "collector.frames_ingested";
/// Frames that failed to decode (or carried an unknown agent) and were
/// quarantined.
pub const FRAMES_QUARANTINED: &str = "collector.frames_quarantined";
/// Frames dropped by per-agent duplicate suppression.
pub const FRAMES_DUP_SUPPRESSED: &str = "collector.frames_dup_suppressed";
/// Late frames routed to the backfill stage instead of live ingestion.
pub const FRAMES_BACKFILLED: &str = "collector.frames_backfilled";
/// Individual measurements written into historical bins by backfill.
pub const RECORDS_BACKFILLED: &str = "collector.records_backfilled";
/// Late measurements refused by backfill duplicate suppression.
pub const BACKFILL_REJECTED: &str = "collector.backfill_rejected";
/// Measurements carrying a NaN or ±Inf value, quarantined by the
/// plausibility gate before they could poison a window.
pub const RECORDS_NONFINITE: &str = "collector.records_nonfinite";
/// Measurements whose value fell implausibly far below the key's previous
/// measurement (a counter reset reported as a raw gauge), quarantined.
pub const RECORDS_COUNTER_RESET: &str = "collector.records_counter_reset";
/// Frames whose timestamps sit further ahead of the agent's watermark than
/// clock skew can explain, quarantined instead of ingested.
pub const FRAMES_CLOCK_SKEWED: &str = "collector.frames_clock_skewed";

/// Change points declared by the detector runner (before gap suppression).
pub const DETECT_CHANGE_POINTS: &str = "detect.change_points";
/// Change points suppressed for bordering a partition-length coverage gap.
pub const DETECT_GAP_SUPPRESSED: &str = "detect.gap_suppressed";
/// Windows the scorer's exact bound ruled out: definite misses, no kernel.
pub const DETECT_WINDOWS_SCREENED: &str = "detect.windows.screened";
/// Candidate windows the kernel scored because a declaration could still
/// rest on them.
pub const DETECT_WINDOWS_SCORED: &str = "detect.windows.scored";
/// Candidate windows never scored: their run of candidates was too short
/// for the persistence rule, whatever they would have scored.
pub const DETECT_WINDOWS_DROPPED: &str = "detect.windows.dropped";

/// Control-group window fetches answered from the assessment's shared
/// `ControlCache` (lookups − misses, at any worker count).
pub const CONTROL_CACHE_HITS: &str = "assess.control_cache_hits";
/// Control-group windows built: one per distinct group an assessment used.
pub const CONTROL_CACHE_MISSES: &str = "assess.control_cache_misses";

/// Items assessed `Caused`.
pub const VERDICT_CAUSED: &str = "assess.verdict_caused";
/// Items assessed `NotCaused`.
pub const VERDICT_NOT_CAUSED: &str = "assess.verdict_not_caused";
/// Items assessed `Inconclusive` (either flavour).
pub const VERDICT_INCONCLUSIVE: &str = "assess.verdict_inconclusive";
/// Inconclusive items flagged repairable by backfill.
pub const VERDICT_AWAITING_BACKFILL: &str = "assess.verdict_awaiting_backfill";

/// Work-unit attempts the supervisor re-ran after a transient failure or a
/// caught panic (each retry follows one step of the seeded backoff
/// schedule).
pub const SUPERVISOR_RETRIES: &str = "supervisor.retries";
/// Work units quarantined after exhausting their retry budget: their
/// verdict is downgraded to `Inconclusive` instead of aborting the run.
pub const SUPERVISOR_QUARANTINED: &str = "supervisor.quarantined";
/// Work-unit attempts restarted after blowing their deadline budget.
pub const SUPERVISOR_RESTARTS: &str = "supervisor.restarts";

/// Items absorbed into the re-assessment queue.
pub const REASSESS_ABSORBED: &str = "reassess.absorbed";
/// Queued items whose window had healed when `reassess` ran.
pub const REASSESS_READY: &str = "reassess.ready";
/// Re-runs that produced a firm verdict and left the queue.
pub const REASSESS_UPGRADED: &str = "reassess.upgraded";

/// Ticks the streaming engine processed.
pub const STREAM_TICKS: &str = "stream.ticks";
/// Window scores folded by the dirty-set scheduler (one per key-minute).
pub const STREAM_SCORES: &str = "stream.scores";
/// Re-scores dropped by the deterministic shedding policy under overload.
pub const STREAM_SHED: &str = "stream.shed";
/// Work keys whose verdict was refused because their window data had gone
/// stale past the staleness watermark at assessment time.
pub const STREAM_STALE: &str = "stream.stale";
/// Change points declared by the streaming monitors.
pub const STREAM_DETECTIONS: &str = "stream.detections";
/// Item verdicts emitted on the streaming output channel.
pub const STREAM_VERDICTS: &str = "stream.verdicts";
/// Item verdicts dropped because the bounded output channel was full
/// (drop-not-block: slow consumers never stall ingest).
pub const STREAM_VERDICTS_DROPPED: &str = "stream.verdicts_dropped";
/// Late frames folded into a retained ring window via backfill.
pub const STREAM_LATE_BACKFILLED: &str = "stream.late_backfilled";
/// Late frames refused (bin already measured, or evicted past retention).
pub const STREAM_LATE_REJECTED: &str = "stream.late_rejected";

/// Diagnosis reports produced (one per diagnosed change).
pub const DIAG_REPORTS: &str = "diag.reports";
/// Items diagnosed (bias-checked and dossiered) across all reports.
pub const DIAG_ITEMS: &str = "diag.items";
/// Items whose bias check flagged a control-pool population mismatch.
pub const DIAG_POPULATION_MISMATCH: &str = "diag.population_mismatch";

/// Windowed data points written into the telemetry timeline (the
/// timeline's own cost meter — what `meta_sweep` prices).
pub const TIMELINE_RECORDS: &str = "timeline.records";

/// Timeline series the self-monitor ran the change detector over.
pub const SELFMON_SERIES: &str = "selfmon.series_checked";
/// Health alerts the self-monitor raised across all series.
pub const SELFMON_ALERTS: &str = "selfmon.alerts";

// --------------------------------------------------------------- gauges --

/// Work units enumerated for the most recent change assessment.
pub const WORK_UNITS_TOTAL: &str = "assess.work_units_total";
/// Worker threads used by the most recent change assessment.
pub const WORKERS: &str = "assess.workers";
/// Items left in the re-assessment queue after the last absorb/reassess.
pub const REASSESS_QUEUE_DEPTH: &str = "reassess.queue_depth";
/// KPI keys with live ring state in the streaming engine.
pub const STREAM_KEYS: &str = "stream.keys";
/// Total resident window memory across all rings, in accounted bytes.
pub const STREAM_WINDOW_BYTES: &str = "stream.window_bytes";
/// The timeline window cursor's most recent value (the data minute the
/// pipeline is currently attributing work to).
pub const TIMELINE_WINDOW: &str = "timeline.window";

// ----------------------------------------------------------- histograms --

/// Control-group pool size per DiD contrast (treated + control members).
pub const DID_CONTROL_POOL_SIZE: &str = "did.control_pool_size";
/// Work-unit queue depth at fan-out time, one sample per assessment.
pub const WORK_QUEUE_DEPTH: &str = "assess.work_queue_depth";
/// Size in bytes of each WAL segment at sealing time (or at recovery scan
/// for the unsealed tail segment).
pub const WAL_SEGMENT_BYTES: &str = "wal.segment_bytes";
/// Dirty-set depth at the top of each streaming tick (pre-shed).
pub const STREAM_DIRTY_DEPTH: &str = "stream.dirty_depth";
/// Scoring job-queue depth sampled as each tick fans out.
pub const STREAM_QUEUE_DEPTH: &str = "stream.queue_depth";
/// Minutes between the tick watermark and the oldest un-scored dirty
/// window at the top of each tick.
pub const STREAM_WATERMARK_LAG: &str = "stream.watermark_lag";
/// Per-retry backoff sleep lengths (milliseconds) scheduled by the
/// supervisor, one sample per retry.
pub const SUPERVISOR_BACKOFF_MS: &str = "supervisor.backoff_ms";

// ----------------------------------------------------------- span paths --

/// One whole-change assessment (enumerate → fan out → merge).
pub const SPAN_ASSESS_CHANGE: &str = "assess.change";
/// One impact-set item (detection + causality + verdict).
pub const SPAN_ASSESS_ITEM: &str = "assess.item";
/// One worker thread's lifetime inside the fan-out.
pub const SPAN_ASSESS_WORKER: &str = "assess.worker";
/// One detector run over an assessment window.
pub const SPAN_DETECT: &str = "detect.sst";
/// One DiD causality determination.
pub const SPAN_DID: &str = "did.assess";
/// One agent → collector replay.
pub const SPAN_COLLECT_REPLAY: &str = "collect.replay";
/// One re-assessment batch over healed windows.
pub const SPAN_REASSESS: &str = "reassess.run";
/// One crash-recovery replay: checkpoint restore + WAL-tail re-ingestion.
pub const SPAN_RECOVER_REPLAY: &str = "recover.replay";
/// One streaming tick (shed → score → due assessments).
pub const SPAN_STREAM_TICK: &str = "stream.tick";
/// One due-change final assessment inside a streaming tick.
pub const SPAN_STREAM_ASSESS: &str = "stream.assess";
/// One whole-change diagnosis pass (bias checks + ranking + dossiers).
pub const SPAN_DIAG_CHANGE: &str = "diag.change";
/// One self-monitoring pass (timeline series → detector → health report).
pub const SPAN_SELFMON: &str = "selfmon.run";

/// The core counters every instrumented pipeline run must populate — the
/// set the CI `obs-smoke` and `chaos-smoke` steps assert on. The
/// supervised engine seeds its three counters at zero on every run, so
/// they appear in the report even when no fault ever fires.
pub const CORE_COUNTERS: &[&str] = &[
    FRAMES_INGESTED,
    DETECT_CHANGE_POINTS,
    CONTROL_CACHE_HITS,
    CONTROL_CACHE_MISSES,
    VERDICT_CAUSED,
    VERDICT_NOT_CAUSED,
    SUPERVISOR_RETRIES,
    SUPERVISOR_QUARANTINED,
    SUPERVISOR_RESTARTS,
];

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_well_formed() {
        let all = [
            super::FRAMES_INGESTED,
            super::FRAMES_QUARANTINED,
            super::FRAMES_DUP_SUPPRESSED,
            super::FRAMES_BACKFILLED,
            super::RECORDS_BACKFILLED,
            super::BACKFILL_REJECTED,
            super::RECORDS_NONFINITE,
            super::RECORDS_COUNTER_RESET,
            super::FRAMES_CLOCK_SKEWED,
            super::DETECT_CHANGE_POINTS,
            super::DETECT_GAP_SUPPRESSED,
            super::DETECT_WINDOWS_SCREENED,
            super::DETECT_WINDOWS_SCORED,
            super::DETECT_WINDOWS_DROPPED,
            super::CONTROL_CACHE_HITS,
            super::CONTROL_CACHE_MISSES,
            super::VERDICT_CAUSED,
            super::VERDICT_NOT_CAUSED,
            super::VERDICT_INCONCLUSIVE,
            super::VERDICT_AWAITING_BACKFILL,
            super::SUPERVISOR_RETRIES,
            super::SUPERVISOR_QUARANTINED,
            super::SUPERVISOR_RESTARTS,
            super::REASSESS_ABSORBED,
            super::REASSESS_READY,
            super::REASSESS_UPGRADED,
            super::STREAM_TICKS,
            super::STREAM_SCORES,
            super::STREAM_SHED,
            super::STREAM_STALE,
            super::STREAM_DETECTIONS,
            super::STREAM_VERDICTS,
            super::STREAM_VERDICTS_DROPPED,
            super::STREAM_LATE_BACKFILLED,
            super::STREAM_LATE_REJECTED,
            super::DIAG_REPORTS,
            super::DIAG_ITEMS,
            super::DIAG_POPULATION_MISMATCH,
            super::TIMELINE_RECORDS,
            super::SELFMON_SERIES,
            super::SELFMON_ALERTS,
            super::WORK_UNITS_TOTAL,
            super::WORKERS,
            super::REASSESS_QUEUE_DEPTH,
            super::STREAM_KEYS,
            super::STREAM_WINDOW_BYTES,
            super::TIMELINE_WINDOW,
            super::DID_CONTROL_POOL_SIZE,
            super::WORK_QUEUE_DEPTH,
            super::WAL_SEGMENT_BYTES,
            super::STREAM_DIRTY_DEPTH,
            super::STREAM_QUEUE_DEPTH,
            super::STREAM_WATERMARK_LAG,
            super::SUPERVISOR_BACKOFF_MS,
            super::SPAN_ASSESS_CHANGE,
            super::SPAN_ASSESS_ITEM,
            super::SPAN_ASSESS_WORKER,
            super::SPAN_DETECT,
            super::SPAN_DID,
            super::SPAN_COLLECT_REPLAY,
            super::SPAN_REASSESS,
            super::SPAN_RECOVER_REPLAY,
            super::SPAN_STREAM_TICK,
            super::SPAN_STREAM_ASSESS,
            super::SPAN_DIAG_CHANGE,
            super::SPAN_SELFMON,
        ];
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate metric name");
        for name in all {
            assert!(
                name.contains('.')
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "malformed name {name:?}"
            );
        }
    }
}
