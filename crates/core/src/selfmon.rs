//! Self-monitoring — FUNNEL watches FUNNEL.
//!
//! The paper's thesis is that a service's own KPI timelines, run through
//! SST + persistence, reveal behaviour changes rapidly and robustly. The
//! assessment pipeline is itself an internet-scale service component, and
//! its windowed telemetry (`funnel_obs::timeline`) is a set of per-minute
//! KPIs: frames ingested per minute, frames quarantined per minute, work
//! units shed per minute. This module closes the loop: it adapts those
//! timeline series into [`TimeSeries`] form and runs the *same* detector
//! the pipeline applies to customer KPIs — [`DetectorRunner`] over
//! IKA-accelerated robust SST with the persistence rule — so a collector
//! partition, a quarantine storm, or sustained load shedding is detected
//! from the pipeline's own telemetry alone, with no second monitoring
//! stack.
//!
//! Determinism: the input is a [`TimelineReport`] snapshot (byte-stable by
//! construction), the adaptation is a dense zero-fill over the snapshot's
//! own window range, and the detector is the deterministic batch runner —
//! so [`PipelineHealthReport::to_json`] is byte-identical across runs and
//! worker counts (the three watched counters are worker-invariant).
//!
//! ```
//! use funnel_core::selfmon::run_selfmon;
//!
//! funnel_obs::reset();
//! funnel_obs::enable();
//! for minute in 0..60 {
//!     funnel_obs::counter_add(funnel_obs::names::FRAMES_INGESTED, minute, 100);
//! }
//! let report = run_selfmon(&funnel_obs::timeline_snapshot());
//! assert!(report.healthy()); // a flat ingest rate raises no alert
//! funnel_obs::disable();
//! ```

use funnel_detect::detector::DetectorRunner;
use funnel_detect::sst_adapter::SstDetector;
use funnel_detect::PERSISTENCE_MINUTES;
use funnel_obs::names;
use funnel_obs::timeline::TimelineReport;
use funnel_sst::{FastSst, SstScorer};
use funnel_timeseries::series::{MinuteBin, TimeSeries};

/// Schema version of the [`PipelineHealthReport`] JSON document.
pub const SCHEMA_VERSION: u32 = 1;

/// The timeline counters the self-monitor watches, each one SST run: the
/// three whose behaviour changes map onto the pipeline's failure modes. A
/// collector partition dents `collector.frames_ingested`, a decode/agent
/// fault spikes `collector.frames_quarantined`, and overload shows up as
/// sustained `stream.shed`.
const WATCHED: [names::Name; 3] = [
    names::FRAMES_INGESTED,
    names::FRAMES_QUARANTINED,
    names::STREAM_SHED,
];
/// Declaration threshold on the min–max-normalized series.
const THRESHOLD: f64 = 0.5;

/// One declared behaviour change in a watched pipeline series.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthAlert {
    /// Minute the change was declared (persistence run completed).
    pub declared_at: MinuteBin,
    /// Detector's estimate of when the change became visible.
    pub first_exceeded_at: MinuteBin,
    /// Peak SST score during the persistent run.
    pub peak_score: f64,
}

/// Health verdict for one watched series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesHealth {
    /// The timeline counter name.
    pub name: String,
    /// Number of minute windows the adapted series spans (dense length).
    pub windows: u64,
    /// Sum over all windows — the counter's total in the snapshot.
    pub total: u64,
    /// Declared behaviour changes, in declaration order. Empty means the
    /// series was flat enough (or too short to score).
    pub alerts: Vec<HealthAlert>,
}

/// The "FUNNEL watches FUNNEL" report: one SST verdict per watched
/// pipeline telemetry series.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineHealthReport {
    /// Per-series verdicts, in the order watched.
    pub series: Vec<SeriesHealth>,
}

impl PipelineHealthReport {
    /// True when no watched series raised an alert.
    pub fn healthy(&self) -> bool {
        self.series.iter().all(|s| s.alerts.is_empty())
    }

    /// Total alerts across every watched series.
    pub fn alert_count(&self) -> usize {
        self.series.iter().map(|s| s.alerts.len()).sum()
    }

    /// Serializes the report as deterministic JSON (fixed key order,
    /// `{:?}`-formatted floats), mirroring the other `results/` artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"healthy\": {},\n", self.healthy()));
        out.push_str(&format!("  \"alerts_total\": {},\n", self.alert_count()));
        out.push_str("  \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {:?}, \"windows\": {}, \"total\": {}, \"alerts\": [",
                s.name, s.windows, s.total
            ));
            for (j, a) in s.alerts.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"declared_at\": {}, \"first_exceeded_at\": {}, \"peak_score\": {:?}}}",
                    a.declared_at, a.first_exceeded_at, a.peak_score
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`PipelineHealthReport::to_json`] to `path`, creating parent
    /// directories as needed.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Adapts one timeline counter into a dense [`TimeSeries`]: the counter's
/// per-window sums, zero-filled over the *snapshot's* full window range
/// (not just the counter's own), so "this series went silent while the
/// pipeline kept running" reads as a drop to zero rather than a shorter
/// series. Returns an empty series when the snapshot has no windows at
/// all.
pub fn timeline_series(report: &TimelineReport, name: &str) -> TimeSeries {
    let Some((start, end)) = snapshot_range(report) else {
        return TimeSeries::empty(0);
    };
    let len = (end - start + 1) as usize;
    let mut series = TimeSeries::zeros(start, len);
    for (window, value) in report.counter_series(name) {
        series.set(window, value as f64);
    }
    series
}

/// The `[min, max]` window range across every record in the snapshot, or
/// `None` when the timeline is empty.
fn snapshot_range(report: &TimelineReport) -> Option<(MinuteBin, MinuteBin)> {
    let mut range: Option<(MinuteBin, MinuteBin)> = None;
    let counters = report.counters.keys().map(|(_, w)| *w);
    let gauges = report.gauges.keys().map(|(_, w)| *w);
    let histograms = report.histograms.keys().map(|(_, w)| *w);
    let spans = report.spans.keys().map(|(_, _, w)| *w);
    for w in counters.chain(gauges).chain(histograms).chain(spans) {
        range = Some(match range {
            None => (w, w),
            Some((lo, hi)) => (lo.min(w), hi.max(w)),
        });
    }
    range
}

/// Runs the self-monitor: every watched series is adapted with
/// [`timeline_series`], min–max normalized (as the paper normalizes its
/// KPI plots), and scored by SST + persistence: the *same* layout
/// ([`FastSst::paper_default`], ω = 9, W = 34) and 7-minute rule the
/// pipeline applies to customer KPIs, wide enough that a clean level shift
/// keeps its score elevated across the whole persistence run (the narrower
/// `quick` preset spikes for only ~2 windows and never satisfies the rule).
/// A series shorter than one SST window scores no alerts: too little
/// telemetry to judge. Records nothing itself, so analyzing a snapshot never
/// perturbs a timeline.
pub fn run_selfmon(report: &TimelineReport) -> PipelineHealthReport {
    let scorer = FastSst::paper_default();
    let window_len = scorer.config().window_len();
    let runner = DetectorRunner::new(SstDetector::fast(scorer), THRESHOLD, PERSISTENCE_MINUTES);
    let series = WATCHED
        .iter()
        .map(|name| {
            let name = name.as_str();
            let series = timeline_series(report, name);
            let total: u64 = report.counter_series(name).iter().map(|(_, v)| v).sum();
            let alerts: Vec<HealthAlert> = if series.len() >= window_len {
                runner
                    .run(&series.normalized())
                    .into_iter()
                    .map(|e| HealthAlert {
                        declared_at: e.declared_at,
                        first_exceeded_at: e.first_exceeded_at,
                        peak_score: e.peak_score,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            SeriesHealth {
                name: name.to_string(),
                windows: series.len() as u64,
                total,
                alerts,
            }
        })
        .collect();
    PipelineHealthReport { series }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot holding exactly these `(name, minute, value)` counters.
    /// Built by hand, not recorded: the obs registry is process-wide, and a
    /// neighbouring test's telemetry landing in it while it is enabled
    /// stretches the snapshot's range.
    fn synthetic_report(
        counters: impl IntoIterator<Item = (&'static str, MinuteBin, u64)>,
    ) -> TimelineReport {
        TimelineReport {
            counters: counters
                .into_iter()
                .map(|(name, minute, value)| ((name, minute), value))
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn flat_series_is_healthy() {
        let report = synthetic_report((0..120).map(|m| (names::FRAMES_INGESTED.as_str(), m, 500)));
        let health = run_selfmon(&report);
        assert!(health.healthy(), "flat ingest must not alert: {health:?}");
        assert_eq!(health.series.len(), 3);
        assert_eq!(health.series[0].windows, 120);
        assert_eq!(health.series[0].total, 120 * 500);
    }

    #[test]
    fn ingest_collapse_raises_an_alert() {
        // A partition at minute 60 silences ingest entirely.
        let ingest = (0..60).map(|m| (names::FRAMES_INGESTED.as_str(), m, 500));
        // Keep the snapshot range anchored past the silence.
        let ticks = (0..120).map(|m| (names::STREAM_LATE_BACKFILLED.as_str(), m, 1));
        let report = synthetic_report(ingest.chain(ticks));
        let health = run_selfmon(&report);
        let ingest = &health.series[0];
        assert_eq!(ingest.name, names::FRAMES_INGESTED.as_str());
        assert_eq!(
            ingest.windows, 120,
            "zero-fill must extend to the snapshot's full range"
        );
        assert!(
            !ingest.alerts.is_empty(),
            "a total ingest collapse must raise an alert: {health:?}"
        );
        let alert = &ingest.alerts[0];
        assert!(
            (55..=80).contains(&alert.first_exceeded_at),
            "change point should bracket the fault minute: {alert:?}"
        );
        assert!(!health.healthy());
    }

    #[test]
    fn too_short_series_never_alerts() {
        let report = synthetic_report([
            (names::FRAMES_INGESTED.as_str(), 3, 1),
            (names::FRAMES_INGESTED.as_str(), 5, 900),
        ]);
        let health = run_selfmon(&report);
        assert!(health.healthy());
        assert_eq!(health.series[0].windows, 3);
    }

    #[test]
    fn report_json_is_deterministic_and_versioned() {
        let report = synthetic_report((0..40).map(|m| (names::FRAMES_INGESTED.as_str(), m, 10)));
        let a = run_selfmon(&report).to_json();
        let b = run_selfmon(&report).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema_version\": 1,"));
        assert!(a.contains("\"healthy\": true"));
    }
}
