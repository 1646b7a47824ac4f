//! The population-bias check (Lumos's bias stage, adapted to FUNNEL's
//! control pools).
//!
//! DiD's counterfactual is only as good as the exchangeability of the
//! treated entity and its control pool *before* the change: a pool whose
//! pre-window distribution (or measured fraction) already diverges from
//! the treated entity's produces a contrast whose "parallel trends"
//! assumption is broken, and the α estimate inherits that bias even when
//! the arithmetic is flawless. The check is purely diagnostic — it
//! annotates the verdict, it never changes it.

use crate::input::ItemInput;
use funnel_timeseries::stats::{mad, median, stable_sum};

/// Outcome of the population-bias check for one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasFlag {
    /// Pre-window distributions and coverage agree within thresholds: the
    /// control pool looks exchangeable with the treated entity.
    Clean,
    /// The control pool's pre-window population diverges from the treated
    /// entity's beyond threshold — treat the α estimate with suspicion and
    /// drill into the member list before acting on the verdict.
    PopulationMismatch,
    /// No control members were available to check against (the item's
    /// counterfactual came from an empty pool and fell through to other
    /// evidence).
    NoControl,
}

impl BiasFlag {
    /// The stable label serialized into the report.
    pub fn label(self) -> &'static str {
        match self {
            BiasFlag::Clean => "clean",
            BiasFlag::PopulationMismatch => "population_mismatch",
            BiasFlag::NoControl => "no_control",
        }
    }
}

/// The bias check's full arithmetic, kept alongside the flag so operators
/// can see *how far* from the threshold an item sat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasCheck {
    /// The verdict of the check.
    pub flag: BiasFlag,
    /// Control members pooled.
    pub members: usize,
    /// Median of the treated entity's pre-window samples.
    pub treated_median: f64,
    /// Median of the pooled control pre-window samples.
    pub control_median: f64,
    /// MAD of the pooled control pre-window samples (robust scale unit).
    pub control_mad: f64,
    /// `|treated_median − control_median| / max(control_mad, ε)`.
    pub median_divergence: f64,
    /// Treated pre-window measured fraction.
    pub treated_coverage: f64,
    /// Mean control-member pre-window measured fraction.
    pub control_coverage: f64,
    /// `|treated_coverage − control_coverage|`.
    pub coverage_divergence: f64,
}

/// Population-bias threshold on the median divergence between the treated
/// entity's pre-window samples and the pooled control-pool pre-window
/// samples, in units of the pool's MAD. Above it the item is flagged
/// [`BiasFlag::PopulationMismatch`]: the control pool was not exchangeable
/// with the treated entity *before* the change, so the DiD counterfactual
/// rests on a shifted population (Lumos's bias stage).
pub const MAX_MEDIAN_DIVERGENCE: f64 = 3.0;

/// Population-bias threshold on |treated coverage − control coverage| over
/// the pre window. Mirrors the DiD engine's `MAX_COVERAGE_DIVERGENCE`
/// member-exclusion rule: a pool measured much more (or less) completely
/// than the treated entity is contrasting fills against data.
pub const MAX_COVERAGE_DIVERGENCE: f64 = 0.35;

/// MAD floor keeping the divergence finite on constant pools, matching the
/// robust-z floor in `funnel-timeseries`.
const MAD_FLOOR: f64 = 1e-9;

/// Runs the population-bias check for one item.
///
/// The treated entity's pre-window samples are compared against the pooled
/// pre-window samples of every control member (pooling matches what the
/// DiD estimator's control-pre cell sees). Divergence is measured in the
/// pool's own MAD units so the threshold is scale-free across KPI kinds.
pub fn bias_check(item: &ItemInput) -> BiasCheck {
    let members = item.control_members.len();
    if members == 0 || item.treated_pre.is_empty() {
        return BiasCheck {
            flag: BiasFlag::NoControl,
            members,
            treated_median: median(&item.treated_pre),
            control_median: 0.0,
            control_mad: 0.0,
            median_divergence: 0.0,
            treated_coverage: item.treated_pre_coverage,
            control_coverage: 0.0,
            coverage_divergence: 0.0,
        };
    }

    let pooled: Vec<f64> = item
        .control_members
        .iter()
        .flat_map(|m| m.pre.iter().copied())
        .collect();
    let treated_median = median(&item.treated_pre);
    let control_median = median(&pooled);
    let control_mad = mad(&pooled);
    let median_divergence = (treated_median - control_median).abs() / control_mad.max(MAD_FLOOR);

    let control_coverage =
        stable_sum(item.control_members.iter().map(|m| m.coverage)) / members as f64;
    let coverage_divergence = (item.treated_pre_coverage - control_coverage).abs();

    let mismatch =
        median_divergence > MAX_MEDIAN_DIVERGENCE || coverage_divergence > MAX_COVERAGE_DIVERGENCE;
    BiasCheck {
        flag: if mismatch {
            BiasFlag::PopulationMismatch
        } else {
            BiasFlag::Clean
        },
        members,
        treated_median,
        control_median,
        control_mad,
        median_divergence,
        treated_coverage: item.treated_pre_coverage,
        control_coverage,
        coverage_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ControlMember;

    fn item(treated_pre: Vec<f64>, members: Vec<ControlMember>) -> ItemInput {
        ItemInput {
            label: "instance t#0 / page_view_response_delay".into(),
            entity_class: "instance",
            zone: Some(0),
            kind: "page_view_response_delay".into(),
            mode: "dark_launch_control",
            alpha: Some(60.0),
            std_err: Some(1.0),
            t_stat: Some(60.0),
            ci95: Some((58.0, 62.0)),
            cell_means: None,
            detection: None,
            coverage: 1.0,
            gaps: Vec::new(),
            quality: Vec::new(),
            window: (0, 120),
            sst_trace: Vec::new(),
            treated_pre,
            treated_pre_coverage: 1.0,
            control_members: members,
        }
    }

    fn noisy(base: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| base + (i % 7) as f64 * 0.5).collect()
    }

    #[test]
    fn honest_pool_is_clean() {
        let members = (0..4)
            .map(|i| ControlMember {
                label: format!("instance c#{i}"),
                pre: noisy(180.0, 60),
                coverage: 1.0,
            })
            .collect();
        let check = bias_check(&item(noisy(180.0, 60), members));
        assert_eq!(check.flag, BiasFlag::Clean);
        assert!(check.median_divergence < 1.0, "{check:?}");
    }

    #[test]
    fn shifted_pool_flags_population_mismatch() {
        // The pool sits +40 above the treated entity in BOTH DiD periods:
        // the difference-in-differences cancels it, so the verdict stays
        // Caused — exactly the bias the check exists to surface.
        let members = (0..4)
            .map(|i| ControlMember {
                label: format!("instance c#{i}"),
                pre: noisy(220.0, 60),
                coverage: 1.0,
            })
            .collect();
        let check = bias_check(&item(noisy(180.0, 60), members));
        assert_eq!(check.flag, BiasFlag::PopulationMismatch);
        assert!(check.median_divergence > 3.0, "{check:?}");
    }

    #[test]
    fn coverage_skew_alone_flags_mismatch() {
        let members = (0..4)
            .map(|i| ControlMember {
                label: format!("instance c#{i}"),
                pre: noisy(180.0, 60),
                coverage: 0.5,
            })
            .collect();
        let check = bias_check(&item(noisy(180.0, 60), members));
        assert_eq!(check.flag, BiasFlag::PopulationMismatch);
        assert!(check.coverage_divergence > 0.35, "{check:?}");
    }

    #[test]
    fn empty_pool_reports_no_control() {
        let check = bias_check(&item(noisy(180.0, 60), Vec::new()));
        assert_eq!(check.flag, BiasFlag::NoControl);
        assert_eq!(check.members, 0);
    }

    #[test]
    fn constant_pool_stays_finite() {
        let members = vec![ControlMember {
            label: "instance c#0".into(),
            pre: vec![100.0; 30],
            coverage: 1.0,
        }];
        let check = bias_check(&item(vec![100.0; 30], members));
        assert!(check.median_divergence.is_finite());
        assert_eq!(check.flag, BiasFlag::Clean);
    }
}
