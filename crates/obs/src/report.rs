//! The observability report: the timeline summed over windows, serialized
//! as sorted JSON plus a human-readable stage summary.
//!
//! The JSON printer is hand-rolled over `BTreeMap` iteration, so two
//! snapshots with the same recorded data are byte-identical regardless of
//! thread count, flush order, or platform — the same key-ordering
//! discipline the operator reports follow. Timing *values* are only
//! deterministic under the [`SimClock`](crate::clock::SimClock); counters
//! and histograms of deterministic quantities are byte-stable outright.

use crate::metrics::{Histogram, StageStat};
use crate::timeline::TimelineReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The default report path the examples, CLI, and sweep benches write to.
pub const DEFAULT_PATH: &str = "results/obs_report.json";

/// Schema version stamped into every report.
pub const SCHEMA_VERSION: u32 = 1;

/// Everything recorded, summed over windows: obtain via [`crate::snapshot`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObsReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauges by name: each one's value in the highest window it was set.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Merged span stats by span path.
    pub spans: BTreeMap<&'static str, StageStat>,
}

impl ObsReport {
    /// Folds `timeline` over its windows: counters sum, histograms and
    /// span stats merge (spans over every parent too, `min_index`
    /// included), and a gauge keeps its value in its highest window.
    pub(crate) fn fold(timeline: &TimelineReport) -> Self {
        let mut report = Self::default();
        for (&(name, _), n) in &timeline.counters {
            *report.counters.entry(name).or_insert(0) += n;
        }
        // Keys ascend by window within a name, so the last insert wins.
        for (&(name, _), &v) in &timeline.gauges {
            report.gauges.insert(name, v);
        }
        for (&(name, _), h) in &timeline.histograms {
            report
                .histograms
                .entry(name)
                .or_insert_with(Histogram::new)
                .merge(h);
        }
        for (&(path, _, _), stat) in &timeline.spans {
            report
                .spans
                .entry(path)
                .or_insert_with(StageStat::empty)
                .merge(stat);
        }
        report
    }

    /// Serializes the report as JSON with byte-stable key ordering: fixed
    /// top-level section order, names in `BTreeMap` (lexicographic) order,
    /// histogram buckets as ascending `[bucket, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        out.push_str(",\n  \"counters\": {");
        write_u64_map(&mut out, &self.counters);
        out.push_str(",\n  \"gauges\": {");
        write_u64_map(&mut out, &self.gauges);
        out.push_str(",\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": [",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max
            );
            for (i, (bucket, count)) in h.nonzero_buckets().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{bucket}, {count}]");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "}"
        } else {
            "\n  }"
        });
        out.push_str(",\n  \"spans\": {");
        first = true;
        for (path, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{path}\": {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"min_index\": ",
                s.count,
                s.total_ns,
                if s.count == 0 { 0 } else { s.min_ns },
                s.max_ns,
            );
            if s.min_index == u64::MAX {
                out.push_str("null}");
            } else {
                let _ = write!(out, "{}}}", s.min_index);
            }
        }
        out.push_str(if self.spans.is_empty() { "}" } else { "\n  }" });
        out.push_str("\n}\n");
        out
    }

    /// A human-readable stage-timing and counter summary (what
    /// `FUNNEL_OBS=1 chaos_assessment` prints).
    pub fn human_summary(&self) -> String {
        let mut out = String::from("observability report\n");
        if !self.spans.is_empty() {
            out.push_str("  stage timings:\n");
            // Heaviest stages first; ties broken by path so the listing is
            // reproducible for deterministic (sim-clock) timings.
            let mut spans: Vec<_> = self.spans.iter().collect();
            spans.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
            for (path, s) in spans {
                let _ = writeln!(
                    out,
                    "    {path:<22} {:>9} calls  total {:>10.3} ms  mean {:>9.1} us",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.mean_ns() / 1e3
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "    {name:<38} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "    {name:<38} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {name:<38} n={} mean={:.1} min={} max={}",
                    h.count,
                    h.mean(),
                    if h.count == 0 { 0 } else { h.min },
                    h.max
                );
            }
        }
        out
    }

    /// Writes the JSON form to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::write_file(path.as_ref(), &self.to_json())
    }
}

/// Snapshots and writes [`DEFAULT_PATH`] if recording is enabled, returning
/// the report for printing. The one-call helper binaries use at exit.
///
/// # Errors
///
/// Propagates filesystem failures from the write.
pub fn write_default_if_enabled() -> std::io::Result<Option<ObsReport>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let report = crate::snapshot();
    report.write_json(DEFAULT_PATH)?;
    Ok(Some(report))
}

fn write_u64_map(out: &mut String, map: &BTreeMap<&'static str, u64>) {
    let mut first = true;
    for (name, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{name}\": {v}");
    }
    out.push_str(if map.is_empty() { "}" } else { "\n  }" });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let mut counters = BTreeMap::new();
        counters.insert(crate::names::FRAMES_INGESTED.as_str(), 42u64);
        counters.insert(crate::names::VERDICT_CAUSED.as_str(), 3u64);
        let mut gauges = BTreeMap::new();
        gauges.insert(crate::names::WORK_UNITS_TOTAL.as_str(), 115u64);
        let mut h = Histogram::new();
        h.record(4);
        h.record(4);
        h.record(0);
        let mut histograms = BTreeMap::new();
        histograms.insert(crate::names::DID_CONTROL_POOL_SIZE.as_str(), h);
        let mut s = StageStat::empty();
        s.observe(1500, 0);
        s.observe(500, 2);
        let mut spans = BTreeMap::new();
        spans.insert(crate::names::SPAN_ASSESS_ITEM.as_str(), s);
        ObsReport {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    #[test]
    fn json_is_byte_stable_and_parses() {
        let report = sample_report();
        let a = report.to_json();
        let b = report.clone().to_json();
        assert_eq!(a, b, "same data must serialize byte-identically");
        // The shim serde_json round-trips it, proving well-formedness.
        let value: serde::Value = serde_json::from_str(&a).expect("report JSON parses");
        let serde::Value::Object(top) = &value else {
            panic!("top level must be an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "counters",
                "gauges",
                "histograms",
                "spans"
            ]
        );
    }

    #[test]
    fn counters_serialize_in_name_order() {
        let json = sample_report().to_json();
        let caused = json
            .find(crate::names::VERDICT_CAUSED.as_str())
            .expect("caused");
        let frames = json
            .find(crate::names::FRAMES_INGESTED.as_str())
            .expect("frames");
        assert!(
            caused < frames,
            "BTreeMap order: assess.* before collector.*"
        );
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let report = ObsReport::default();
        let json = report.to_json();
        let _: serde::Value = serde_json::from_str(&json).expect("empty report parses");
        assert!(report.human_summary().starts_with("observability report"));
    }

    #[test]
    fn human_summary_lists_heaviest_stage_first() {
        let mut report = sample_report();
        let mut fast = StageStat::empty();
        fast.observe(10, u64::MAX);
        report
            .spans
            .insert(crate::names::SPAN_DETECT.as_str(), fast);
        let summary = report.human_summary();
        let item = summary
            .find(crate::names::SPAN_ASSESS_ITEM.as_str())
            .expect("item");
        let detect = summary
            .find(crate::names::SPAN_DETECT.as_str())
            .expect("detect");
        assert!(item < detect, "heavier stage must print first");
    }
}
