//! Impact diagnosis and explanation for FUNNEL verdicts.
//!
//! The assessment pipeline (paper Fig. 3) stops at a verdict: "this KPI
//! was changed by this software change". Operators deciding whether to
//! roll back need *why* and *where* — is the counterfactual trustworthy,
//! which part of the fleet carries the regression, and what evidence backs
//! the number. This crate is that layer, run strictly *after* (and
//! read-only over) assessment:
//!
//! 1. **Population-bias check** ([`bias`]) — Lumos-style exchangeability
//!    test of the treated entity against its control pool over the
//!    pre-change window; a pool that was already shifted before the
//!    deployment flags [`BiasFlag::PopulationMismatch`].
//! 2. **Contribution ranking** ([`ranking`]) — which
//!    `(entity class, zone, KPI kind)` buckets carry the effect mass,
//!    largest share first.
//! 3. **Evidence dossier** ([`report::Evidence`]) — effect size with CI,
//!    detection latency, the SST score trace around the change point,
//!    coverage/gap/quality provenance, and the control-pool membership.
//!
//! Everything is a pure function of [`ChangeInput`] (pre-digested by the
//! caller — `funnel-core`'s `diagnose` module does the conversion), and
//! the emitted [`DiagReport`] serializes to byte-stable JSON: same input,
//! same bytes, at any worker count, on any platform.

#![deny(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod bias;
pub mod config;
pub mod input;
pub mod ranking;
pub mod report;

pub use bias::{bias_check, BiasCheck, BiasFlag};
pub use config::DiagConfig;
pub use input::{ChangeInput, ControlMember, DetectionInput, ItemInput, ItemVerdict};
pub use ranking::{rank_contributions, ContributionRow};
pub use report::{DiagReport, Evidence, ItemDiagnosis, DEFAULT_PATH, SCHEMA_VERSION};

/// Diagnoses one pre-digested change assessment: bias-checks every item,
/// ranks contributions, and assembles the evidence dossiers into a
/// [`DiagReport`].
///
/// Deterministic and panic-free: items are processed in their (report)
/// order, all aggregation goes through ordered containers and Neumaier
/// sums, and no input — empty pools, constant series, non-finite
/// statistics — can fault the pass (the crate root denies the panicking
/// calls).
pub fn diagnose_change(config: &DiagConfig, input: &ChangeInput) -> DiagReport {
    let items = input
        .items
        .iter()
        .map(|item| report::ItemDiagnosis {
            label: item.label.clone(),
            verdict: item.verdict.label().to_string(),
            mode: item.mode.to_string(),
            zone: item.zone,
            bias: bias_check(config, item),
            evidence: report::Evidence {
                alpha: item.alpha,
                std_err: item.std_err,
                t_stat: item.t_stat,
                ci95: item.ci95,
                cell_means: item.cell_means,
                declared_at: item.detection.map(|d| d.declared_at),
                first_exceeded_at: item.detection.map(|d| d.first_exceeded_at),
                peak_score: item.detection.map(|d| d.peak_score),
                detection_latency: item
                    .detection
                    .map(|d| d.declared_at.saturating_sub(input.change_minute)),
                coverage: item.coverage,
                window: item.window,
                gaps: item.gaps.clone(),
                quality: item.quality.clone(),
                sst_trace: item.sst_trace.clone(),
                control_members: item
                    .control_members
                    .iter()
                    .map(|m| (m.label.clone(), m.coverage))
                    .collect(),
            },
        })
        .collect();
    DiagReport {
        change_id: input.change_id,
        change_minute: input.change_minute,
        service: input.service.clone(),
        description: input.description.clone(),
        ranking: rank_contributions(&input.items),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnose_empty_change_is_total() {
        let input = ChangeInput {
            change_id: 3,
            change_minute: 100,
            service: "svc".into(),
            description: "noop".into(),
            items: Vec::new(),
        };
        let report = diagnose_change(&DiagConfig::on(), &input);
        assert_eq!(report.change_id, 3);
        assert!(report.items.is_empty());
        assert!(report.ranking.is_empty());
        assert!(report.to_json().contains("\"items\": []"));
    }

    #[test]
    fn detection_latency_is_declared_minus_change() {
        let input = ChangeInput {
            change_id: 0,
            change_minute: 1000,
            service: "svc".into(),
            description: String::new(),
            items: vec![ItemInput {
                label: "instance svc#0 / k".into(),
                entity_class: "instance",
                zone: Some(0),
                kind: "k".into(),
                verdict: ItemVerdict::Caused,
                mode: "dark_launch_control",
                alpha: Some(10.0),
                std_err: Some(1.0),
                t_stat: Some(10.0),
                ci95: Some((8.0, 12.0)),
                cell_means: None,
                detection: Some(DetectionInput {
                    declared_at: 1007,
                    first_exceeded_at: 1001,
                    peak_score: 0.8,
                }),
                coverage: 1.0,
                gaps: Vec::new(),
                quality: Vec::new(),
                window: (900, 1061),
                sst_trace: Vec::new(),
                treated_pre: vec![1.0, 2.0, 3.0, 4.0],
                treated_pre_coverage: 1.0,
                control_members: vec![ControlMember {
                    label: "instance svc#1".into(),
                    pre: vec![1.0, 2.0, 3.0, 4.0],
                    coverage: 1.0,
                }],
            }],
        };
        let report = diagnose_change(&DiagConfig::on(), &input);
        assert_eq!(report.items.len(), 1);
        assert_eq!(report.items[0].evidence.detection_latency, Some(7));
        assert_eq!(report.items[0].bias.flag, BiasFlag::Clean);
        assert_eq!(report.ranking.len(), 1);
    }
}
