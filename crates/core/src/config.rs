//! FUNNEL's operational configuration.

use funnel_diag::DiagConfig;
use funnel_did::DidConfig;
use funnel_sst::SstConfig;

/// Fan-out configuration for the batch assessment engine
/// ([`crate::parallel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssessConfig {
    /// Worker threads assessing impact-set KPIs concurrently. `1` (the
    /// default) keeps everything on the calling thread — the right choice
    /// when an outer harness already parallelizes across changes, as the
    /// evaluation cohort runner does. `0` means one worker per available
    /// CPU. The merged report is byte-identical for every value: worker
    /// count is purely a latency knob, never a results knob.
    pub workers: usize,
}

impl AssessConfig {
    /// Everything on the calling thread (the default).
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// One worker per available CPU.
    pub fn auto() -> Self {
        Self { workers: 0 }
    }

    /// An explicit worker count (`0` = auto).
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// The concrete thread count to use: `workers`, or the machine's
    /// available parallelism when `workers` is `0` (falling back to 1 if
    /// the platform cannot report it).
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

impl Default for AssessConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Minimum fraction of truly measured minutes an assessment window needs
/// before its verdict is trusted. Below it the item is reported
/// `Inconclusive` rather than attributed (or cleared) on interpolated data,
/// and a dark-launch control group that falls below it is abandoned for the
/// seasonal history.
pub const MIN_COVERAGE: f64 = 0.8;

/// Shortest contiguous coverage gap (in minutes) treated as a network
/// partition rather than scattered frame loss. A gap this long both
/// suppresses change points bordering it (a forward-fill plateau ends in a
/// step artifact exactly where the heal lands) and marks the item's
/// `Inconclusive` verdict as `awaiting_backfill` for automatic
/// re-assessment. The persistence length: the shortest gap that could
/// single-handedly fake the 7-minute rule.
pub const MIN_PARTITION_GAP: u64 = funnel_detect::PERSISTENCE_MINUTES as u64;

/// Coverage fraction a previously partition-gapped assessment window must
/// reach, via collector backfill, before
/// [`Funnel::reassess`](crate::pipeline::Funnel::reassess) re-runs the item
/// for a firm verdict.
pub const REASSESS_COVERAGE: f64 = 0.8;

/// What the deployed tool leaves to set, with the paper's defaults: the
/// settings some caller gives a second value. The coverage and
/// partition-gap thresholds nobody varies are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct FunnelConfig {
    /// SST configuration (`ω = 9` ⇒ sliding window `W = 34` in the paper's
    /// evaluation; `ω = 5` for quick mitigation, `ω = 15` for precision).
    pub sst: SstConfig,
    /// Declaration threshold on the filtered SST score. Only its default is
    /// used outside tests; it stays a field because the fleet benchmark
    /// reads it to build its own detector.
    pub sst_threshold: f64,
    /// Persistence requirement in minutes before a change is declared
    /// (7 in the paper, §4.1) — separates level shifts/ramps from one-off
    /// events.
    pub persistence_minutes: usize,
    /// DiD configuration: field-less (the 60-minute periods of §4.1 and the
    /// α threshold are `funnel_did::groups` constants). It stays because the
    /// fleet benchmark builds `DidAssessor::new(config.did.clone())`.
    pub did: DidConfig,
    /// Days of history for the seasonal control group (30 in the paper's
    /// prototype; scenario worlds may carry less).
    pub history_days: u32,
    /// How long after the deployment FUNNEL watches for KPI changes
    /// ("the operators think that 1 hour is enough", §4.1).
    pub assessment_minutes: u64,
    /// How the batch pipeline fans assessment work units across threads.
    pub assess: AssessConfig,
    /// The opt-in diagnosis stage ([`crate::diagnose`]): off by default so
    /// the assessment path is byte-for-byte what it was before the stage
    /// existed. Enabling it adds a strictly read-only explanation pass over
    /// the finished assessment; it never alters a verdict.
    pub diagnose: DiagConfig,
}

impl FunnelConfig {
    /// The paper's evaluation configuration.
    ///
    /// The SST threshold (0.5 on the filtered score) is calibrated for
    /// recall: persistent ≥3σ shifts always complete the 7-minute run,
    /// while noise and diurnal ramps that sneak past the persistence rule
    /// are excluded by the DiD step — mirroring the paper's Table 1, where
    /// the improved SST alone has very low precision and DiD restores it.
    pub fn paper_default() -> Self {
        Self {
            sst: SstConfig::paper_default(),
            sst_threshold: 0.5,
            persistence_minutes: funnel_detect::PERSISTENCE_MINUTES,
            did: DidConfig,
            history_days: 30,
            assessment_minutes: 60,
            assess: AssessConfig::default(),
            diagnose: DiagConfig::default(),
        }
    }

    /// Minutes of pre-change data the detector needs before the deployment
    /// minute so that the first scored window is fully pre-change.
    pub fn warmup_minutes(&self) -> u64 {
        self.sst.window_len() as u64
    }
}

impl Default for FunnelConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation() {
        let c = FunnelConfig::paper_default();
        assert_eq!(c.sst.window_len(), 34);
        assert_eq!(c.persistence_minutes, 7);
        assert_eq!(funnel_did::groups::PERIOD_MINUTES, 60);
        assert_eq!(c.assessment_minutes, 60);
        assert_eq!(c.warmup_minutes(), 34);
        assert_eq!(MIN_PARTITION_GAP, 7);
        assert_eq!(c.assess.workers, 1);
        assert_eq!(c.assess.effective_workers(), 1);
        // Diagnosis is opt-in: the paper default must not enable it.
        assert!(!c.diagnose.enabled);
        assert_eq!(c.diagnose, DiagConfig::default());
    }

    #[test]
    fn assess_config_constructors() {
        assert_eq!(AssessConfig::default(), AssessConfig::serial());
        assert_eq!(AssessConfig::auto().workers, 0);
        assert!(AssessConfig::auto().effective_workers() >= 1);
        assert_eq!(AssessConfig::with_workers(8).effective_workers(), 8);
    }
}
