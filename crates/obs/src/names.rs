//! The metric and span name registry.
//!
//! Every instrumentation site takes a [`Name`], and a `Name` can only be
//! made here, so the full vocabulary of `obs_report.json` is enumerable at
//! compile time, greppable, and documented in one place. Naming
//! convention: `<stage>.<what>` with the stage prefixes `collector`,
//! `detect`, `did`, `assess`, `stream`, `collect`, and `timeline`. Every
//! name has a reader outside its own tests (`tests/obs_readers.rs`).

/// A declared metric or span name: what [`crate::span!`],
/// [`crate::counter_add`], [`crate::gauge_set`] and
/// [`crate::histogram_record`] take. The field is private, so an ad-hoc
/// string at a call site does not compile:
///
/// ```compile_fail
/// funnel_obs::counter_add("x.y", 0, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name(&'static str);

impl Name {
    /// The dotted name, as it keys reports and timelines.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

/// Declares the constants and the list of them.
macro_rules! names {
    ($($(#[$doc:meta])* $ident:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $ident: Name = Name($value);)*
        /// Every declared name, in declaration order.
        pub const ALL: &[Name] = &[$($ident),*];
    };
}

names! {
    // ------------------------------------------------------------- counters --

    /// Wire frames the collector accepted into the store.
    FRAMES_INGESTED = "collector.frames_ingested";
    /// Frames that failed to decode (or carried an unknown agent) and were
    /// quarantined.
    FRAMES_QUARANTINED = "collector.frames_quarantined";

    /// Change points the detector runner declared (before gap suppression)
    /// over the windows it asked: an item's run asks only the windows its
    /// verdict rests on, so declarations before the last definite miss
    /// ahead of the deploy minute, or after the one the verdict takes, are
    /// not counted.
    DETECT_CHANGE_POINTS = "detect.change_points";
    /// Windows the scorer's exact bound ruled out: definite misses, no
    /// kernel. Like the two below, it counts what a run asked, not every
    /// window of the assessment span.
    DETECT_WINDOWS_SCREENED = "detect.windows.screened";
    /// Candidate windows the kernel scored because a declaration could still
    /// rest on them.
    DETECT_WINDOWS_SCORED = "detect.windows.scored";
    /// Candidate windows never scored: their run of candidates was too short
    /// for the persistence rule, whatever they would have scored.
    DETECT_WINDOWS_DROPPED = "detect.windows.dropped";

    /// Control-group window fetches answered from the assessment's shared
    /// `ControlCache` (lookups − misses, at any worker count).
    CONTROL_CACHE_HITS = "assess.control_cache_hits";
    /// Control-group windows built: one per distinct group an assessment used.
    CONTROL_CACHE_MISSES = "assess.control_cache_misses";

    /// Items assessed `Caused`.
    VERDICT_CAUSED = "assess.verdict_caused";
    /// Items assessed `NotCaused`.
    VERDICT_NOT_CAUSED = "assess.verdict_not_caused";

    /// Re-scores dropped by the deterministic shedding policy under overload.
    STREAM_SHED = "stream.shed";
    /// Late frames folded into a retained ring window via backfill.
    STREAM_LATE_BACKFILLED = "stream.late_backfilled";

    /// Writes into the registry, counted in each write's own window (the
    /// timeline's own cost meter, pinned per assessment by
    /// `obs_determinism`).
    TIMELINE_RECORDS = "timeline.records";

    // --------------------------------------------------------------- gauges --

    /// Work units enumerated for the most recent change assessment.
    WORK_UNITS_TOTAL = "assess.work_units_total";
    /// Worker threads used by the most recent change assessment.
    WORKERS = "assess.workers";
    /// Total resident window memory across all rings, in accounted bytes.
    STREAM_WINDOW_BYTES = "stream.window_bytes";

    // ----------------------------------------------------------- histograms --

    /// Control-group pool size per DiD contrast (treated + control members).
    DID_CONTROL_POOL_SIZE = "did.control_pool_size";
    /// Work-unit queue depth at fan-out time, one sample per assessment.
    WORK_QUEUE_DEPTH = "assess.work_queue_depth";

    // ----------------------------------------------------------- span paths --

    /// One whole-change assessment (enumerate → fan out → merge).
    SPAN_ASSESS_CHANGE = "assess.change";
    /// One impact-set item (detection + causality + verdict).
    SPAN_ASSESS_ITEM = "assess.item";
    /// One detector run over an assessment window.
    SPAN_DETECT = "detect.sst";
    /// One DiD causality determination.
    SPAN_DID = "did.assess";
    /// One agent → collector replay.
    SPAN_COLLECT_REPLAY = "collect.replay";
    /// One streaming tick (shed → score → due assessments).
    SPAN_STREAM_TICK = "stream.tick";
}

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = super::ALL.iter().map(|n| n.as_str()).collect();
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
