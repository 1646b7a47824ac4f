//! Metric names, units and bounds — the contract `BENCHMARK.json` repeats —
//! and the outcome one run of one workload reports.

use crate::stats::{median, percentile, tail_level};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One end-to-end metric: every workload reports every one of them, each
/// with the workload's own meaning (see `README.md`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const WORK_PER_S: &str = "work_per_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const OP_TAIL_MS: &str = "op_tail_ms";
pub const RESULT_MS: &str = "result_ms";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_TAIL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: RESULT_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("wire.decode.ns_per_record", "ns"),
    ("collector.classify.us_per_frame", "us"),
    ("collector.commit.ns_per_record", "ns"),
    ("collector.finish.ms", "ms"),
    ("collector.frames.live", "count"),
    ("collector.frames.backfill", "count"),
    ("collector.frames.duplicate", "count"),
    ("collector.frames.quarantined", "count"),
    ("store.append.ns_per_record", "ns"),
    ("store.backfill.ns_per_record", "ns"),
    ("store.snapshot.ms", "ms"),
    ("store.resident_bytes_per_record", "bytes"),
    ("resilience.wal.append.us_per_frame", "us"),
    ("resilience.wal.bytes", "bytes"),
    ("resilience.checkpoint.write.ms", "ms"),
    ("resilience.checkpoint.count", "count"),
    ("resilience.checkpoint.bytes", "bytes"),
    ("resilience.recover.ms", "ms"),
    ("resilience.recover.frames_replayed", "count"),
    ("topology.impact_set.us_per_change", "us"),
    ("core.assess.ms_per_change", "ms"),
    ("core.assess.us_per_item", "us"),
    ("sst.score_window.ns", "ns"),
    ("sst.windows_per_item", "count"),
    ("detect.run.us_per_item", "us"),
    ("did.dark.us", "us"),
    ("did.seasonal.us", "us"),
    ("did.invocations", "count"),
    ("core.self.share", "ratio"),
    ("core.parallel.speedup", "ratio"),
    ("core.render.us_per_change", "us"),
    ("diag.ms_per_change", "ms"),
    ("stream.offer.ns_per_measurement", "ns"),
    ("stream.tick.us_per_fold", "us"),
    ("sst.stream.fold.ns", "ns"),
    ("timeseries.ring.push.ns", "ns"),
    ("timeseries.ring.backfill.ns", "ns"),
    ("stream.completion.ms", "ms"),
    ("stream.parallel.speedup", "ratio"),
    ("stream.window_bytes", "bytes"),
    ("stream.peak_dirty", "count"),
    ("stream.late_backfilled", "count"),
    ("stream.shed", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.layer_time_share", "ratio"),
    ("obs.spans", "count"),
];

/// One reported value. `detail` is for the human-readable table only
/// (which percentile, how many samples, the workload's own name for it).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub detail: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, detail: impl Into<String>) -> Self {
        Self {
            name,
            value,
            detail: detail.into(),
        }
    }
}

/// Operation outcomes against the reference: `failed` of `attempted`
/// operations produced a wrong output.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdicts {
    /// Counts `ops` operations, all failed when `ok` is false.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.notes.push(what());
        }
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    /// Fingerprint of the generated inputs (frames, fault script, feed).
    pub inputs: u64,
    pub verdicts: Verdicts,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The two latency metrics of a floor profile (each op's fastest of
/// `passes` passes): the median, and the tail at the [`tail_level`] of the
/// `passes × ops` samples taken.
pub fn latency_metrics(floor_ms: &[f64], passes: usize, alias: &str) -> [Metric; 2] {
    let n = floor_ms.len();
    let level = tail_level(n * passes);
    let detail = |level: &str| format!("{alias} {level}, {n} ops × {passes} passes");
    [
        Metric::new(OP_P50_MS, median(floor_ms), detail("p50")),
        Metric::new(OP_TAIL_MS, percentile(floor_ms, level), detail(level.name)),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Names and units of the metrics one run reports: every per-layer metric
/// with `trace`, every end-to-end metric without.
fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result line the driver parses: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the last holding every metric of [`reported`]
/// (0 where the workload never calls the layer).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = reported(trace)
        .iter()
        .map(|(name, unit)| {
            let value = outcome.value(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.verdicts.failed == 0,
        outcome.verdicts.attempted.max(1),
        outcome.verdicts.failed,
        metrics.join(", ")
    )
}

/// The human-readable table printed above the result line: the metrics of
/// [`reported`] that the workload produced.
pub fn print_table(outcome: &Outcome, trace: bool) {
    println!(
        "workload {} seed {} inputs {:016x}: {} ops attempted, {} failed",
        outcome.workload,
        outcome.seed,
        outcome.inputs,
        outcome.verdicts.attempted,
        outcome.verdicts.failed
    );
    for note in &outcome.verdicts.notes {
        println!("  MISMATCH {note}");
    }
    let units = reported(trace);
    for m in &outcome.metrics {
        if let Some((_, unit)) = units.iter().find(|(name, _)| *name == m.name) {
            println!(
                "  {:<38} {:>16.4} {:<6} {}",
                m.name, m.value, unit, m.detail
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let outcome = Outcome {
            workload: "w",
            seed: 1,
            inputs: 2,
            verdicts: Verdicts {
                attempted: 10,
                failed: 0,
                notes: Vec::new(),
            },
            metrics: vec![Metric::new(WORK_PER_S, 12.5, "")],
        };
        let line = result_line(&outcome, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\"", m.name)), "{}", m.name);
        }
        assert!(line.contains("\"work_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        let traced = result_line(&outcome, true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\"")), "{name}");
        }
        assert!(!traced.contains("work_per_s"));
    }

    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END {
            let better = match m.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "missing {entry}");
        }
        let declared = text.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
