//! The diagnosis artifact: byte-stable JSON plus a human rendering.
//!
//! The JSON printer follows the workspace's `ObsReport::to_json`
//! discipline: hand-rolled, fixed field order, collections already in
//! deterministic order by construction, floats printed with Rust's
//! shortest-roundtrip `{}` formatting. Non-finite floats (a t-statistic is
//! ±∞ when the residual variance is zero) serialize as `null` — JSON has
//! no Infinity literal, and a parser-breaking artifact would be worse than
//! a lossy one.

use crate::bias::BiasCheck;
use crate::ranking::ContributionRow;
use std::fmt::Write as _;
use std::path::Path;

/// Schema version stamped into every diagnosis report.
pub const SCHEMA_VERSION: u32 = 1;

/// The evidence dossier for one diagnosed item: everything the operator
/// needs to weigh the verdict without re-running the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// DiD effect estimate α (normalized units), when determination ran.
    pub alpha: Option<f64>,
    /// OLS standard error of α.
    pub std_err: Option<f64>,
    /// t-statistic of α.
    pub t_stat: Option<f64>,
    /// 95% confidence interval on α.
    pub ci95: Option<(f64, f64)>,
    /// DiD cell means `[treated_pre, treated_post, control_pre,
    /// control_post]`.
    pub cell_means: Option<[f64; 4]>,
    /// Minute the persistence rule declared the change.
    pub declared_at: Option<u64>,
    /// Minute the score first exceeded the threshold.
    pub first_exceeded_at: Option<u64>,
    /// Peak filtered SST score in the persistent run.
    pub peak_score: Option<f64>,
    /// Minutes from deployment to declaration.
    pub detection_latency: Option<u64>,
    /// Fraction of the assessment window backed by real measurements.
    pub coverage: f64,
    /// The `[from, to)` assessment window.
    pub window: (u64, u64),
    /// Unmeasured spans `[from, to)` inside the window.
    pub gaps: Vec<(u64, u64)>,
    /// Data-quality screening labels.
    pub quality: Vec<String>,
    /// SST score trace around the change point (`[minute, score]` pairs).
    pub sst_trace: Vec<(u64, f64)>,
    /// Control-pool membership: `(label, pre-window coverage)` per member.
    pub control_members: Vec<(String, f64)>,
}

/// One diagnosed item: verdict context, bias check, evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemDiagnosis {
    /// Operator-facing item identity.
    pub label: String,
    /// Control-group mode label.
    pub mode: String,
    /// The entity's zone under the configured striping, when it has one.
    pub zone: Option<u32>,
    /// The population-bias check.
    pub bias: BiasCheck,
    /// The evidence dossier.
    pub evidence: Evidence,
}

/// The full diagnosis of one change.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagReport {
    /// The diagnosed change's id.
    pub change_id: u32,
    /// The deployment minute.
    pub change_minute: u64,
    /// The changed service's name.
    pub service: String,
    /// The change-log description.
    pub description: String,
    /// Contribution ranking, largest share first.
    pub ranking: Vec<ContributionRow>,
    /// Per-item diagnoses, in report (key) order.
    pub items: Vec<ItemDiagnosis>,
}

impl DiagReport {
    /// Items whose bias check flagged a population mismatch.
    pub fn mismatch_count(&self) -> usize {
        self.items
            .iter()
            .filter(|i| i.bias.flag == crate::bias::BiasFlag::PopulationMismatch)
            .count()
    }

    /// Serializes the report as byte-stable JSON (fixed field order,
    /// shortest-roundtrip floats, `null` for non-finite values).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        let _ = write!(
            out,
            ",\n  \"change\": {{\"id\": {}, \"minute\": {}, \"service\": ",
            self.change_id, self.change_minute
        );
        push_str_json(&mut out, &self.service);
        out.push_str(", \"description\": ");
        push_str_json(&mut out, &self.description);
        out.push_str("},\n  \"ranking\": [");
        for (i, row) in self.ranking.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str("{\"entity_class\": ");
            push_str_json(&mut out, &row.entity_class);
            out.push_str(", \"zone\": ");
            push_str_json(&mut out, &row.zone);
            out.push_str(", \"kind\": ");
            push_str_json(&mut out, &row.kind);
            let _ = write!(out, ", \"items\": {}, \"weight\": ", row.items);
            push_f64(&mut out, row.weight);
            out.push_str(", \"share\": ");
            push_f64(&mut out, row.share);
            out.push('}');
        }
        out.push_str(if self.ranking.is_empty() {
            "],\n  \"items\": ["
        } else {
            "\n  ],\n  \"items\": ["
        });
        for (i, item) in self.items.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_item(&mut out, item);
        }
        out.push_str(if self.items.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }

    /// Writes [`DiagReport::to_json`] to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Renders the report as a plain-text operator summary — the "why and
    /// where" companion to the assessment report's "what".
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diagnosis for change #{} ({}, {:?}) deployed @ minute {}",
            self.change_id, self.service, self.description, self.change_minute
        );
        if self.ranking.is_empty() {
            out.push_str("  no attributed effect to rank\n");
        } else {
            out.push_str("  contribution ranking (share of |α| mass):\n");
            for (i, row) in self.ranking.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    {}. {:>5.1}%  {} / {} / {}  ({} item(s), |α| {:.2})",
                    i + 1,
                    row.share * 100.0,
                    row.entity_class,
                    row.zone,
                    row.kind,
                    row.items,
                    row.weight
                );
            }
        }
        for item in &self.items {
            let _ = writeln!(out, "  {} [caused]", item.label);
            let b = &item.bias;
            let _ = writeln!(
                out,
                "    bias: {} (median divergence {:.2} MAD, coverage Δ {:.2}, {} control member(s), {})",
                b.flag.label(),
                b.median_divergence,
                b.coverage_divergence,
                b.members,
                item.mode
            );
            let e = &item.evidence;
            if let (Some(alpha), Some((lo, hi))) = (e.alpha, e.ci95) {
                let t = e
                    .t_stat
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "n/a".into());
                let _ = writeln!(
                    out,
                    "    effect: α={alpha:+.2} (95% CI [{lo:+.2}, {hi:+.2}], t={t})"
                );
            }
            match (e.declared_at, e.detection_latency) {
                (Some(at), Some(latency)) => {
                    let peak = e.peak_score.unwrap_or(0.0);
                    let _ = writeln!(
                        out,
                        "    detected @{at} ({latency} min after deploy, peak score {peak:.2}), coverage {:.0}%",
                        e.coverage * 100.0
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "    no detection declared, coverage {:.0}%",
                        e.coverage * 100.0
                    );
                }
            }
            if !e.quality.is_empty() {
                let _ = writeln!(out, "    quality flags: {}", e.quality.join(", "));
            }
            if !e.gaps.is_empty() {
                let spans: Vec<String> =
                    e.gaps.iter().map(|(a, b)| format!("[{a}, {b})")).collect();
                let _ = writeln!(out, "    unmeasured spans: {}", spans.join(" "));
            }
        }
        out
    }
}

fn push_item(out: &mut String, item: &ItemDiagnosis) {
    out.push_str("{\"label\": ");
    push_str_json(out, &item.label);
    // Every diagnosed item is `Caused`; the key stays in schema 1.
    out.push_str(", \"verdict\": \"caused\", \"mode\": ");
    push_str_json(out, &item.mode);
    out.push_str(", \"zone\": ");
    match item.zone {
        Some(z) => {
            let _ = write!(out, "{z}");
        }
        None => out.push_str("null"),
    }
    let b = &item.bias;
    out.push_str(", \"bias\": {\"flag\": ");
    push_str_json(out, b.flag.label());
    let _ = write!(out, ", \"members\": {}, \"treated_median\": ", b.members);
    push_f64(out, b.treated_median);
    out.push_str(", \"control_median\": ");
    push_f64(out, b.control_median);
    out.push_str(", \"control_mad\": ");
    push_f64(out, b.control_mad);
    out.push_str(", \"median_divergence\": ");
    push_f64(out, b.median_divergence);
    out.push_str(", \"treated_coverage\": ");
    push_f64(out, b.treated_coverage);
    out.push_str(", \"control_coverage\": ");
    push_f64(out, b.control_coverage);
    out.push_str(", \"coverage_divergence\": ");
    push_f64(out, b.coverage_divergence);
    out.push_str("}, \"evidence\": {\"alpha\": ");
    let e = &item.evidence;
    push_opt_f64(out, e.alpha);
    out.push_str(", \"std_err\": ");
    push_opt_f64(out, e.std_err);
    out.push_str(", \"t_stat\": ");
    push_opt_f64(out, e.t_stat);
    out.push_str(", \"ci95\": ");
    match e.ci95 {
        Some((lo, hi)) => {
            out.push('[');
            push_f64(out, lo);
            out.push_str(", ");
            push_f64(out, hi);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"cell_means\": ");
    match e.cell_means {
        Some(cells) => {
            out.push('[');
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_f64(out, *c);
            }
            out.push(']');
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"declared_at\": ");
    push_opt_u64(out, e.declared_at);
    out.push_str(", \"first_exceeded_at\": ");
    push_opt_u64(out, e.first_exceeded_at);
    out.push_str(", \"peak_score\": ");
    push_opt_f64(out, e.peak_score);
    out.push_str(", \"detection_latency\": ");
    push_opt_u64(out, e.detection_latency);
    out.push_str(", \"coverage\": ");
    push_f64(out, e.coverage);
    let _ = write!(out, ", \"window\": [{}, {}]", e.window.0, e.window.1);
    out.push_str(", \"gaps\": [");
    for (i, (a, b)) in e.gaps.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{a}, {b}]");
    }
    out.push_str("], \"quality\": [");
    for (i, q) in e.quality.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_json(out, q);
    }
    out.push_str("], \"sst_trace\": [");
    for (i, (minute, score)) in e.sst_trace.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{minute}, ");
        push_f64(out, *score);
        out.push(']');
    }
    out.push_str("], \"control_members\": [");
    for (i, (label, coverage)) in e.control_members.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        push_str_json(out, label);
        out.push_str(", ");
        push_f64(out, *coverage);
        out.push(']');
    }
    out.push_str("]}}");
}

/// Writes a finite float with shortest-roundtrip formatting, `null`
/// otherwise (JSON cannot represent NaN/±∞).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Minimal JSON string escaping: quotes, backslashes, and control bytes
/// (labels are ASCII identifiers in practice, but the writer must never
/// emit malformed JSON on any input).
fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::{BiasCheck, BiasFlag};

    fn sample_report() -> DiagReport {
        DiagReport {
            change_id: 7,
            change_minute: 10620,
            service: "prod.search".into(),
            description: "search ranker v4".into(),
            ranking: vec![ContributionRow {
                entity_class: "instance".into(),
                zone: "zone1".into(),
                kind: "page_view_response_delay".into(),
                items: 1,
                weight: 31.5,
                share: 1.0,
            }],
            items: vec![ItemDiagnosis {
                label: "instance prod.search#1 / page_view_response_delay".into(),
                mode: "dark_launch_control".into(),
                zone: Some(1),
                bias: BiasCheck {
                    flag: BiasFlag::Clean,
                    members: 6,
                    treated_median: 180.25,
                    control_median: 180.5,
                    control_mad: 1.5,
                    median_divergence: 0.1666,
                    treated_coverage: 0.95,
                    control_coverage: 0.94,
                    coverage_divergence: 0.01,
                },
                evidence: Evidence {
                    alpha: Some(31.5),
                    std_err: Some(0.0),
                    t_stat: Some(f64::INFINITY),
                    ci95: Some((31.5, 31.5)),
                    cell_means: Some([180.0, 240.0, 181.0, 181.5]),
                    declared_at: Some(10627),
                    first_exceeded_at: Some(10621),
                    peak_score: Some(0.93),
                    detection_latency: Some(7),
                    coverage: 0.95,
                    window: (10518, 10681),
                    gaps: vec![(10530, 10532)],
                    quality: vec!["MostlyZero".into()],
                    sst_trace: vec![(10620, 0.1), (10621, 0.9)],
                    control_members: vec![("instance prod.search#5".into(), 0.94)],
                },
            }],
        }
    }

    #[test]
    fn json_is_stable_and_handles_non_finite() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.clone().to_json();
        assert_eq!(a, b);
        // ±∞ t-stat must serialize as null, never as a bare Infinity.
        assert!(a.contains("\"t_stat\": null"), "{a}");
        assert!(!a.contains("inf"), "{a}");
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"sst_trace\": [[10620, 0.1], [10621, 0.9]]"));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let r = DiagReport {
            change_id: 0,
            change_minute: 0,
            service: "s".into(),
            description: String::new(),
            ranking: Vec::new(),
            items: Vec::new(),
        };
        let json = r.to_json();
        assert!(json.contains("\"ranking\": []"));
        assert!(json.contains("\"items\": []"));
        assert_eq!(r.mismatch_count(), 0);
    }

    #[test]
    fn string_escaping_covers_quotes_and_controls() {
        let mut out = String::new();
        push_str_json(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn render_mentions_ranking_bias_and_effect() {
        let text = sample_report().render();
        assert!(text.contains("contribution ranking"));
        assert!(text.contains("bias: clean"));
        assert!(text.contains("α=+31.50"));
        assert!(text.contains("detected @10627"));
    }
}
