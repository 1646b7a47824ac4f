//! Chrome trace-event export for the telemetry timeline.
//!
//! Serializes a [`TimelineReport`] into the trace-event JSON format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly, so an operator can *see* the pipeline's shape over data time:
//! one named lane per span path, one complete ("X") event per populated
//! window carrying the merged duration and activation count for that
//! window, counter ("C") tracks for every windowed counter and gauge.
//!
//! Trace timestamps are **data minutes, not wall time**: window `w` maps
//! to `ts = w × 60·10⁶ µs`, and an X event's `dur` is the window's summed
//! span nanoseconds ÷ 1000. The picture reads as "during data-minute
//! 1700, the pipeline spent this much span time in `assess.item` under
//! `assess.change`" — causality comes from the recorded parent, shown in
//! each event's `args`.
//!
//! Everything is emitted from sorted `BTreeMap` iteration with integer
//! arithmetic only, so the bytes are identical across runs and worker
//! counts whenever the timeline itself is (the determinism test covers
//! the trace file too).

use crate::timeline::TimelineReport;
use std::fmt::Write as _;
use std::path::Path;

/// Schema version stamped into the trace envelope (alongside the standard
/// `traceEvents` key, which viewers require).
pub const SCHEMA_VERSION: u32 = 1;

/// Microseconds per one-minute timeline window.
const WINDOW_US: u64 = 60_000_000;

/// Renders `report` as Chrome trace-event JSON.
pub fn chrome_trace_json(report: &TimelineReport) -> String {
    let mut out = String::from("{\n\"schema_version\": ");
    let _ = write!(out, "{SCHEMA_VERSION}");
    out.push_str(",\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
    let mut first = true;
    let mut push = |out: &mut String, event: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(event);
    };

    push(
        &mut out,
        "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": \"funnel pipeline (data time)\"}}",
    );

    // One lane (tid) per distinct span path, in sorted-path order so lane
    // assignment is byte-stable.
    let spans = report.spans_by_window();
    let mut paths: Vec<&str> = spans.keys().map(|(p, _)| *p).collect();
    paths.dedup();
    for (idx, path) in paths.iter().enumerate() {
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{path}\"}}}}",
                idx + 1
            ),
        );
    }

    // Complete events: merged span time per (path, window), annotated with
    // the parent breakdown from the raw (path, parent, window) map.
    for ((path, window), stat) in &spans {
        let tid = 1 + paths.iter().position(|p| p == path).unwrap_or(0);
        let mut parents = String::new();
        for ((p, parent, w), s) in &report.spans {
            if p == path && w == window && !parent.is_empty() {
                if !parents.is_empty() {
                    parents.push_str(", ");
                }
                let _ = write!(parents, "\"{parent}\": {}", s.count);
            }
        }
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": \"{path}\", \
                 \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"count\": {}, \"total_ns\": {}, \"parents\": {{{parents}}}}}}}",
                window * WINDOW_US,
                (stat.total_ns / 1_000).max(1),
                stat.count,
                stat.total_ns,
            ),
        );
    }

    // Counter tracks: one C event per (name, window) for counters and
    // max-wins gauges alike.
    for ((name, window), v) in &report.counters {
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"C\", \"pid\": 1, \"name\": \"{name}\", \"ts\": {}, \
                 \"args\": {{\"value\": {v}}}}}",
                window * WINDOW_US,
            ),
        );
    }
    for ((name, window), v) in &report.gauges {
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"C\", \"pid\": 1, \"name\": \"{name}\", \"ts\": {}, \
                 \"args\": {{\"value\": {v}}}}}",
                window * WINDOW_US,
            ),
        );
    }

    out.push_str("\n]\n}\n");
    out
}

/// Writes the Chrome trace form of `report` to `path`, creating parent
/// directories.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_chrome_trace(report: &TimelineReport, path: impl AsRef<Path>) -> std::io::Result<()> {
    crate::write_file(path.as_ref(), &chrome_trace_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageStat;
    use crate::timeline::{TimelineReport, ROOT};

    #[test]
    fn trace_parses_and_places_events_in_data_time() {
        let mut report = TimelineReport::default();
        report
            .counters
            .insert((crate::names::FRAMES_INGESTED.as_str(), 2), 5);
        let mut s = StageStat::empty();
        s.observe(2_000, u64::MAX);
        report
            .spans
            .insert((crate::names::SPAN_ASSESS_CHANGE.as_str(), ROOT, 3), s);
        report.spans.insert(
            (
                crate::names::SPAN_ASSESS_ITEM.as_str(),
                crate::names::SPAN_ASSESS_CHANGE.as_str(),
                3,
            ),
            s,
        );
        let json = chrome_trace_json(&report);
        assert_eq!(json, chrome_trace_json(&report), "trace bytes stable");

        let value: serde::Value = serde_json::from_str(&json).expect("trace parses");
        let top = value.as_object().expect("top level object");
        assert_eq!(
            serde::find_field(top, "schema_version"),
            Some(&serde::Value::Num(serde::Number::U(1)))
        );
        let events = serde::find_field(top, "traceEvents")
            .and_then(serde::Value::as_array)
            .expect("events array");
        let of_phase = |ph: &str| -> Vec<&[(String, serde::Value)]> {
            events
                .iter()
                .filter_map(|e| e.as_object())
                .filter(|o| serde::find_field(o, "ph").and_then(serde::Value::as_str) == Some(ph))
                .collect()
        };
        let u64_field = |o: &[(String, serde::Value)], key: &str| -> u64 {
            match serde::find_field(o, key) {
                Some(serde::Value::Num(serde::Number::U(u))) => *u,
                other => panic!("field {key} not a u64: {other:?}"),
            }
        };

        let x = of_phase("X");
        assert_eq!(x.len(), 2);
        assert!(x.iter().all(|o| u64_field(o, "ts") == 3 * 60_000_000));
        let item = x
            .iter()
            .find(|o| {
                serde::find_field(o, "name").and_then(serde::Value::as_str) == Some("assess.item")
            })
            .expect("item lane");
        let args = serde::find_field(item, "args")
            .and_then(serde::Value::as_object)
            .expect("args");
        let parents = serde::find_field(args, "parents")
            .and_then(serde::Value::as_object)
            .expect("parents");
        assert_eq!(u64_field(parents, "assess.change"), 1);

        let c = of_phase("C");
        assert_eq!(c.len(), 1);
        assert_eq!(u64_field(c[0], "ts"), 2 * 60_000_000);
        let args = serde::find_field(c[0], "args")
            .and_then(serde::Value::as_object)
            .expect("counter args");
        assert_eq!(u64_field(args, "value"), 5);
    }
}
