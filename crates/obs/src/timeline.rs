//! The telemetry timeline: every metric, bucketed into fixed one-minute
//! windows — the one store the obs registry keeps.
//!
//! Every write names its window: an absolute data minute (the frame's
//! minute for collector counters, the change minute for assessment
//! counters, the tick minute for streaming counters). The end-of-run
//! [`ObsReport`](crate::report::ObsReport) is this timeline summed over
//! windows, so *how much* is derived from *when*.
//!
//! Two ways a write finds its window, chosen per call site:
//!
//! * **Explicit window** — the event carries its own data minute (a decoded
//!   frame, a tick, a change) and passes it to [`crate::counter_add`] and
//!   friends. Because windowed merges are commutative sums / max-wins /
//!   histogram folds over `BTreeMap`s, attribution is byte-deterministic no
//!   matter how shard or worker threads interleave.
//! * **Window cursor** — [`set_window`] pins a process-wide current window
//!   (the change minute at batch fan-out, the tick minute in streaming);
//!   sites with no minute of their own pass [`current_window`], and
//!   [`crate::span!`] guards capture it at start so span timings land in
//!   the window whose work they measure. The cursor is only written at
//!   single-threaded choke points (tick top, assessment entry), never from
//!   inside a fan-out, so every worker reads the same value.
//!
//! The serialized form ([`TimelineReport::to_json`]) follows the same
//! sorted-key, hand-rolled discipline as the obs report: same recorded
//! data ⇒ same bytes, at any worker count. Timing *values* are only
//! deterministic under the [`SimClock`](crate::clock::SimClock); counters
//! gauges, and histograms of deterministic quantities are byte-stable
//! outright (proved by `crates/core/tests/timeline_determinism.rs`).

use crate::metrics::{Histogram, StageStat};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema version stamped into every timeline report.
pub const SCHEMA_VERSION: u32 = 1;

/// Window width. Fixed at one minute — the paper's KPI bin size — so
/// timeline windows align 1:1 with `MinuteBin`s and selfmon can feed them
/// straight back into the detector.
pub const WINDOW_MINUTES: u64 = 1;

/// The default timeline path the examples and sweeps write to.
pub const DEFAULT_TIMELINE_PATH: &str = "results/obs_timeline.json";

/// Parent label for spans opened with no enclosing span on the thread.
pub const ROOT: &str = "";

static WINDOW: AtomicU64 = AtomicU64::new(0);

/// Pins the process-wide window cursor to `minute`. Call only from
/// single-threaded choke points (the top of a streaming tick, the entry of
/// a change assessment) so every worker inside the subsequent fan-out
/// attributes to the same window.
pub fn set_window(minute: u64) {
    WINDOW.store(minute, Ordering::Relaxed);
}

/// The current window cursor (0 until anyone calls [`set_window`]).
#[inline]
pub fn current_window() -> u64 {
    WINDOW.load(Ordering::Relaxed)
}

/// Returns the cursor to its boot value (used by [`crate::reset`]).
pub(crate) fn reset_window() {
    WINDOW.store(0, Ordering::Relaxed);
}

/// Window-keyed metric storage: the global registry, and a frozen copy of
/// it (obtain via [`crate::timeline_snapshot`]). All maps are `BTreeMap`s
/// over `(name, window)` (spans add the parent path), merged with
/// commutative ops only — sums for counters, max-wins for gauges,
/// histogram folds, [`StageStat::merge`] for spans — so thread
/// interleaving is unobservable in the aggregate.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TimelineReport {
    /// Windowed monotonic counters.
    pub counters: BTreeMap<(&'static str, u64), u64>,
    /// Windowed gauges. Max-wins within a window (a last-write rule would
    /// leak worker scheduling into the bytes).
    pub gauges: BTreeMap<(&'static str, u64), u64>,
    /// Windowed log2-bucket histograms.
    pub histograms: BTreeMap<(&'static str, u64), Histogram>,
    /// Windowed span stats keyed `(path, parent, window)` — the parent is
    /// the span open on the same thread when this one started, [`ROOT`]
    /// when none was.
    pub spans: BTreeMap<(&'static str, &'static str, u64), StageStat>,
}

impl TimelineReport {
    pub(crate) fn merge_spans(
        &mut self,
        other: &BTreeMap<(&'static str, &'static str, u64), StageStat>,
    ) {
        for (key, stat) in other {
            self.spans
                .entry(*key)
                .or_insert_with(StageStat::empty)
                .merge(stat);
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Total windowed data points across all sections.
    pub fn records(&self) -> u64 {
        (self.counters.len() + self.gauges.len() + self.histograms.len() + self.spans.len()) as u64
    }

    /// Distinct windows carrying at least one data point.
    pub fn windows(&self) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        seen.extend(self.counters.keys().map(|(_, w)| *w));
        seen.extend(self.gauges.keys().map(|(_, w)| *w));
        seen.extend(self.histograms.keys().map(|(_, w)| *w));
        seen.extend(self.spans.keys().map(|(_, _, w)| *w));
        seen.len() as u64
    }

    /// The sub-timeline whose names start with any of `prefixes` (span
    /// entries filter on the span path). Used to compare the *shared*
    /// vocabulary across execution modes — e.g. `collector.*` is produced
    /// identically by the batch and streaming paths, while `stream.*`
    /// exists only in one of them.
    pub fn restrict_to(&self, prefixes: &[&str]) -> TimelineReport {
        let keep = |name: &str| prefixes.iter().any(|p| name.starts_with(p));
        TimelineReport {
            counters: self
                .counters
                .iter()
                .filter(|((n, _), _)| keep(n))
                .map(|(k, v)| (*k, *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|((n, _), _)| keep(n))
                .map(|(k, v)| (*k, *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|((n, _), _)| keep(n))
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            spans: self
                .spans
                .iter()
                .filter(|((p, _, _), _)| keep(p))
                .map(|(k, v)| (*k, *v))
                .collect(),
        }
    }

    /// One counter's `(window, value)` pairs in ascending window order.
    pub fn counter_series(&self, name: &str) -> Vec<(u64, u64)> {
        self.counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|((_, w), v)| (*w, *v))
            .collect()
    }

    /// Span stats per `(path, window)`, aggregated over parents — the view
    /// the `spans` JSON section and the trace exporter use.
    pub fn spans_by_window(&self) -> BTreeMap<(&'static str, u64), StageStat> {
        let mut out: BTreeMap<(&'static str, u64), StageStat> = BTreeMap::new();
        for ((path, _, window), stat) in &self.spans {
            out.entry((path, *window))
                .or_insert_with(StageStat::empty)
                .merge(stat);
        }
        out
    }

    /// Parent→child span activation counts per window, keyed
    /// `"parent>child"`. Root spans (no parent) are omitted.
    pub fn edges(&self) -> BTreeMap<(String, u64), u64> {
        let mut out: BTreeMap<(String, u64), u64> = BTreeMap::new();
        for ((path, parent, window), stat) in &self.spans {
            if parent.is_empty() {
                continue;
            }
            *out.entry((format!("{parent}>{path}"), *window))
                .or_insert(0) += stat.count;
        }
        out
    }

    /// Serializes the timeline as JSON with byte-stable ordering: fixed
    /// section order, names and windows in `BTreeMap` (lexicographic,
    /// ascending-window) order, every series as `[window, value]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        let _ = write!(out, ",\n  \"window_minutes\": {WINDOW_MINUTES}");

        out.push_str(",\n  \"counters\": {");
        write_windowed_u64(&mut out, self.counters.iter().map(|(k, v)| (*k, *v)));
        out.push_str(",\n  \"gauges\": {");
        write_windowed_u64(&mut out, self.gauges.iter().map(|(k, v)| (*k, *v)));

        out.push_str(",\n  \"histograms\": {");
        let mut grouped = GroupWriter::new(&mut out);
        for ((name, window), h) in &self.histograms {
            grouped.entry(name, *window, |out| {
                let _ = write!(
                    out,
                    "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    if h.count == 0 { 0 } else { h.min },
                    h.max,
                    h.quantile_upper_bound(0.99),
                );
            });
        }
        grouped.finish();

        out.push_str(",\n  \"spans\": {");
        let spans = self.spans_by_window();
        let mut grouped = GroupWriter::new(&mut out);
        for ((path, window), s) in &spans {
            grouped.entry(path, *window, |out| {
                let _ = write!(
                    out,
                    "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                    s.count,
                    s.total_ns,
                    if s.count == 0 { 0 } else { s.min_ns },
                    s.max_ns,
                );
            });
        }
        grouped.finish();

        out.push_str(",\n  \"edges\": {");
        let edges = self.edges();
        let mut grouped = GroupWriter::new(&mut out);
        for ((edge, window), count) in &edges {
            grouped.entry(edge, *window, |out| {
                let _ = write!(out, "{count}");
            });
        }
        grouped.finish();

        out.push_str("\n}\n");
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

/// Streams `"name": [[w, v], ...]` groups from `(name, window)`-sorted
/// input without materializing intermediate maps.
struct GroupWriter<'a> {
    out: &'a mut String,
    current: Option<String>,
    any: bool,
}

impl<'a> GroupWriter<'a> {
    fn new(out: &'a mut String) -> Self {
        Self {
            out,
            current: None,
            any: false,
        }
    }

    fn entry(&mut self, name: &str, window: u64, write_value: impl FnOnce(&mut String)) {
        if self.current.as_deref() != Some(name) {
            if self.current.is_some() {
                self.out.push(']');
            }
            if self.any {
                self.out.push(',');
            }
            self.any = true;
            let _ = write!(self.out, "\n    \"{name}\": [");
            self.current = Some(name.to_string());
        } else {
            self.out.push_str(", ");
        }
        let _ = write!(self.out, "[{window}, ");
        write_value(self.out);
        self.out.push(']');
    }

    fn finish(self) {
        if self.current.is_some() {
            self.out.push(']');
        }
        self.out.push_str(if self.any { "\n  }" } else { "}" });
    }
}

fn write_windowed_u64(out: &mut String, entries: impl Iterator<Item = ((&'static str, u64), u64)>) {
    let mut grouped = GroupWriter::new(out);
    for ((name, window), v) in entries {
        grouped.entry(name, window, |out| {
            let _ = write!(out, "{v}");
        });
    }
    grouped.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimelineReport {
        let mut data = TimelineReport::default();
        data.counters
            .insert((crate::names::FRAMES_INGESTED.as_str(), 3), 6);
        data.counters
            .insert((crate::names::FRAMES_INGESTED.as_str(), 1), 6);
        data.counters
            .insert((crate::names::STREAM_SHED.as_str(), 2), 1);
        data.gauges
            .insert((crate::names::STREAM_WINDOW_BYTES.as_str(), 2), 9);
        let mut h = Histogram::new();
        h.record(900);
        data.histograms
            .insert((crate::names::WORK_QUEUE_DEPTH.as_str(), 2), h);
        let mut s = StageStat::empty();
        s.observe(1000, 3);
        data.spans.insert(
            (
                crate::names::SPAN_ASSESS_ITEM.as_str(),
                crate::names::SPAN_ASSESS_CHANGE.as_str(),
                5,
            ),
            s,
        );
        data.spans
            .insert((crate::names::SPAN_ASSESS_CHANGE.as_str(), ROOT, 5), s);
        data
    }

    #[test]
    fn json_is_byte_stable_and_parses() {
        let report = sample();
        let json = report.to_json();
        assert_eq!(json, report.clone().to_json());
        let value: serde::Value = serde_json::from_str(&json).expect("timeline JSON parses");
        let top = value.as_object().expect("top level object");
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "window_minutes",
                "counters",
                "gauges",
                "histograms",
                "spans",
                "edges"
            ]
        );
        assert_eq!(
            serde::find_field(top, "schema_version"),
            Some(&serde::Value::Num(serde::Number::U(1)))
        );
        assert_eq!(
            serde::find_field(top, "window_minutes"),
            Some(&serde::Value::Num(serde::Number::U(1)))
        );
    }

    #[test]
    fn counter_series_is_window_sorted() {
        let report = sample();
        assert_eq!(
            report.counter_series(crate::names::FRAMES_INGESTED.as_str()),
            vec![(1, 6), (3, 6)]
        );
        assert_eq!(report.windows(), 4);
    }

    #[test]
    fn restrict_to_keeps_only_prefixed_names() {
        let report = sample();
        let collector_only = report.restrict_to(&["collector."]);
        assert_eq!(collector_only.counters.len(), 2);
        assert!(collector_only.gauges.is_empty());
        assert!(collector_only.spans.is_empty());
    }

    #[test]
    fn edges_skip_roots_and_count_activations() {
        let report = sample();
        let edges = report.edges();
        assert_eq!(edges.len(), 1);
        let ((edge, window), count) = edges.iter().next().expect("one edge");
        assert_eq!(edge, "assess.change>assess.item");
        assert_eq!((*window, *count), (5, 1));
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let report = TimelineReport::default();
        assert!(report.is_empty());
        let _: serde::Value = serde_json::from_str(&report.to_json()).expect("empty parses");
    }
}
