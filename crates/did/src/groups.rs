//! Group assembly and verdicts for the dark-launch DiD mode (paper §3.2.4).
//!
//! In dark launching the treated group is the KPI on the changed
//! servers/instances and the control group is the same KPI on the peers of
//! the same service that have not received the change yet. [`DidAssessor`]
//! slices both groups into pre/post periods around the change minute,
//! robust-normalizes against the pooled pre-change cells (so the
//! operator-facing α threshold — the paper suggests "a small value"; we
//! default to 2.0 robust-MAD units —
//! is in noise units rather than raw KPI units), fits the estimator with
//! AR(1)-corrected standard errors, and renders a [`DidVerdict`].

use crate::estimator::{did_estimate, DidError, DidEstimate};
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_timeseries::stats::RobustSummary;

/// Length ω of each of the pre- and post-change periods, in minutes
/// (§3.2.4 uses the SST ω; the evaluation (§4.1) uses 60).
pub const PERIOD_MINUTES: u64 = 60;

/// Declaration threshold on |α| in normalized units: samples are normalized
/// by the pooled pre-change cells' robust scale (median/MAD).
pub const ALPHA_THRESHOLD: f64 = 2.0;

/// Largest allowed |pre-coverage − post-coverage| for one group member in
/// [`DidAssessor::assess_masked`]. A partition that darkened a member for
/// one side of the change only makes its contrast fills-vs-data rather than
/// data-vs-data; such members are excluded.
pub const MAX_COVERAGE_DIVERGENCE: f64 = 0.35;

/// Configuration for a DiD assessment: nothing is left to set (the period,
/// threshold and coverage rule are the constants above). The type stays
/// because the fleet benchmark builds its assessor with
/// `DidAssessor::new(config.did.clone())`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DidConfig;

/// The assessment outcome delivered to the operations team.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DidVerdict {
    /// The KPI change is attributed to the software change; `alpha`'s sign
    /// gives the direction of the relative movement.
    CausedBySoftwareChange {
        /// The fitted, normalized impact estimator.
        alpha: f64,
        /// Its t-statistic.
        t_stat: f64,
    },
    /// The relative performance between the groups did not move: whatever
    /// the detector saw was seasonality / an external factor.
    NotCaused {
        /// The fitted, normalized impact estimator (near zero).
        alpha: f64,
    },
}

impl DidVerdict {
    /// Whether the verdict attributes the change to the software change.
    pub fn is_caused(&self) -> bool {
        matches!(self, DidVerdict::CausedBySoftwareChange { .. })
    }

    /// The fitted α either way.
    pub fn alpha(&self) -> f64 {
        match *self {
            DidVerdict::CausedBySoftwareChange { alpha, .. } => alpha,
            DidVerdict::NotCaused { alpha } => alpha,
        }
    }
}

/// Dark-launch DiD assessor.
#[derive(Debug, Clone, Default)]
pub struct DidAssessor;

impl DidAssessor {
    /// Creates an assessor; [`DidConfig`] carries nothing.
    pub fn new(_config: DidConfig) -> Self {
        Self
    }

    /// Assesses whether the KPI behaviour around `change_minute` differs
    /// between `treated` and `control` series (all covering the assessment
    /// span). Pre period is `[change−ω, change)`, post is
    /// `[change, change+ω)`; samples are pooled across group members.
    ///
    /// # Errors
    ///
    /// Propagates [`DidError`] when a cell ends up empty (series don't
    /// cover the span, or a group is empty).
    pub fn assess(
        &self,
        treated: &[&TimeSeries],
        control: &[&TimeSeries],
        change_minute: MinuteBin,
    ) -> Result<(DidVerdict, DidEstimate), DidError> {
        let _span = funnel_obs::span!(funnel_obs::names::SPAN_DID);
        funnel_obs::histogram_record(
            funnel_obs::names::DID_CONTROL_POOL_SIZE,
            change_minute,
            (treated.len() + control.len()) as u64,
        );
        let w = PERIOD_MINUTES;
        let pre_from = change_minute.saturating_sub(w);
        let mut cells = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for s in treated {
            cells[0].extend_from_slice(s.slice(pre_from, change_minute));
            cells[1].extend_from_slice(s.slice(change_minute, change_minute + w));
        }
        for s in control {
            cells[2].extend_from_slice(s.slice(pre_from, change_minute));
            cells[3].extend_from_slice(s.slice(change_minute, change_minute + w));
        }
        self.assess_samples(&cells[0], &cells[1], &cells[2], &cells[3])
    }

    /// [`DidAssessor::assess`] hardened against partition-skewed coverage:
    /// each group member carries its coverage mask (`None` = fully
    /// measured, e.g. batch-materialized history), and members whose
    /// pre-vs-post coverage over the assessment span diverges by more than
    /// [`MAX_COVERAGE_DIVERGENCE`] are excluded before pooling.
    ///
    /// The failure mode this prevents: a zone partition darkens some
    /// control instances for exactly the post-change period, so their
    /// post cells are forward-filled copies of pre-change values — the
    /// contrast then reads "control did not move" regardless of what the
    /// control actually did, and a coincident external shock gets
    /// attributed to the software change. Divergence, not absolute
    /// coverage, is the right test: a member missing 20 % of *both*
    /// periods still contributes an honest contrast.
    ///
    /// # Errors
    ///
    /// [`DidError::InsufficientCoverage`] when every member of a group is
    /// excluded (the percentages report coverage *balance*,
    /// `100 − divergence`, for the best surviving candidate), plus
    /// everything [`DidAssessor::assess`] can return.
    pub fn assess_masked(
        &self,
        treated: &[(&TimeSeries, Option<&CoverageMask>)],
        control: &[(&TimeSeries, Option<&CoverageMask>)],
        change_minute: MinuteBin,
    ) -> Result<(DidVerdict, DidEstimate), DidError> {
        let w = PERIOD_MINUTES;
        let pre_from = change_minute.saturating_sub(w);
        let divergence = |mask: Option<&CoverageMask>| -> f64 {
            match mask {
                None => 0.0,
                Some(m) => {
                    let pre = m.coverage(pre_from, change_minute);
                    let post = m.coverage(change_minute, change_minute + w);
                    (pre - post).abs()
                }
            }
        };
        fn filter<'a>(
            group: &[(&'a TimeSeries, Option<&CoverageMask>)],
            name: &'static str,
            divergence: &impl Fn(Option<&CoverageMask>) -> f64,
        ) -> Result<Vec<&'a TimeSeries>, DidError> {
            let mut kept = Vec::with_capacity(group.len());
            let mut best_div = f64::INFINITY;
            for &(series, mask) in group {
                let d = divergence(mask);
                best_div = best_div.min(d);
                if d <= MAX_COVERAGE_DIVERGENCE {
                    kept.push(series);
                }
            }
            if kept.is_empty() && !group.is_empty() {
                return Err(DidError::InsufficientCoverage {
                    group: name,
                    required_pct: (100.0 * (1.0 - MAX_COVERAGE_DIVERGENCE))
                        .round()
                        .clamp(0.0, 100.0) as u8,
                    got_pct: (100.0 * (1.0 - best_div)).round().clamp(0.0, 100.0) as u8,
                });
            }
            Ok(kept)
        }
        let treated = filter(treated, "treated", &divergence)?;
        let control = filter(control, "control", &divergence)?;
        self.assess(&treated, &control, change_minute)
    }

    /// Sample-level entry point shared with the seasonal mode.
    ///
    /// # Errors
    ///
    /// Propagates [`DidError`] from the estimator.
    pub fn assess_samples(
        &self,
        treated_pre: &[f64],
        treated_post: &[f64],
        control_pre: &[f64],
        control_post: &[f64],
    ) -> Result<(DidVerdict, DidEstimate), DidError> {
        // Robust scale from the pooled pre-change cells: stable under a
        // handful of contaminated baseline samples. One summary, two
        // selections.
        let baseline: Vec<f64> = control_pre
            .iter()
            .chain(treated_pre.iter())
            .copied()
            .collect();
        let RobustSummary {
            median: center,
            mad,
        } = RobustSummary::of(&baseline);
        let scale = mad.max(1e-9);
        let norm = |xs: &[f64]| -> Vec<f64> { xs.iter().map(|x| (x - center) / scale).collect() };
        let est = did_estimate(
            &norm(treated_pre),
            &norm(treated_post),
            &norm(control_pre),
            &norm(control_post),
        )?;

        let verdict = if est.is_significant(ALPHA_THRESHOLD) {
            DidVerdict::CausedBySoftwareChange {
                alpha: est.alpha,
                t_stat: est.t_stat,
            }
        } else {
            DidVerdict::NotCaused { alpha: est.alpha }
        };
        Ok((verdict, est))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(start: MinuteBin, f: impl Fn(u64) -> f64, len: u64) -> TimeSeries {
        TimeSeries::new(start, (0..len).map(|i| f(start + i)).collect())
    }

    fn lcg_noise(seed: u64, i: u64) -> f64 {
        let mut s = seed
            .wrapping_add(i)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s ^= s >> 31;
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    #[test]
    fn treated_only_shift_is_caused() {
        let change = 120;
        let treated: Vec<TimeSeries> = (0..3)
            .map(|k| {
                series(
                    0,
                    move |m| 100.0 + lcg_noise(k, m) + if m >= change { 10.0 } else { 0.0 },
                    240,
                )
            })
            .collect();
        let control: Vec<TimeSeries> = (10..14)
            .map(|k| series(0, move |m| 100.0 + lcg_noise(k, m), 240))
            .collect();
        let a = DidAssessor;
        let tr: Vec<&TimeSeries> = treated.iter().collect();
        let cr: Vec<&TimeSeries> = control.iter().collect();
        let (v, est) = a.assess(&tr, &cr, change).unwrap();
        assert!(v.is_caused(), "alpha {} t {}", est.alpha, est.t_stat);
        assert!(v.alpha() > 0.5);
    }

    #[test]
    fn shared_seasonal_swing_is_not_caused() {
        // Both groups ride the same diurnal swing: α ≈ 0.
        let change = 120;
        let swing = |m: u64| 100.0 + 30.0 * ((m as f64 / 1440.0) * std::f64::consts::TAU).sin();
        let treated: Vec<TimeSeries> = (0..3)
            .map(|k| series(0, move |m| swing(m) + lcg_noise(k, m), 240))
            .collect();
        let control: Vec<TimeSeries> = (10..13)
            .map(|k| series(0, move |m| swing(m) + lcg_noise(k, m), 240))
            .collect();
        let a = DidAssessor;
        let tr: Vec<&TimeSeries> = treated.iter().collect();
        let cr: Vec<&TimeSeries> = control.iter().collect();
        let (v, _) = a.assess(&tr, &cr, change).unwrap();
        assert!(!v.is_caused(), "alpha {}", v.alpha());
    }

    #[test]
    fn negative_shift_detected_with_sign() {
        let change = 100;
        let treated = series(
            0,
            move |m| 50.0 + lcg_noise(1, m) + if m >= change { -8.0 } else { 0.0 },
            200,
        );
        let control = series(0, move |m| 50.0 + lcg_noise(2, m), 200);
        let a = DidAssessor;
        let (v, _) = a.assess(&[&treated], &[&control], change).unwrap();
        assert!(v.is_caused());
        assert!(v.alpha() < -0.5);
    }

    #[test]
    fn empty_control_errors() {
        let treated = series(0, |_| 1.0, 200);
        let a = DidAssessor;
        let err = a.assess(&[&treated], &[], 100).unwrap_err();
        assert!(matches!(err, DidError::EmptyCell { .. }));
    }

    #[test]
    fn normalization_makes_threshold_scale_free() {
        // Same relative effect at 1000× the magnitude: same verdict.
        let change = 100;
        let mk = |scale: f64, shift: f64| {
            let t = series(
                0,
                move |m| {
                    scale * (10.0 + 0.1 * lcg_noise(3, m)) + if m >= change { shift } else { 0.0 }
                },
                200,
            );
            let c = series(0, move |m| scale * (10.0 + 0.1 * lcg_noise(4, m)), 200);
            (t, c)
        };
        let a = DidAssessor;
        let (t1, c1) = mk(1.0, 2.0);
        let (t2, c2) = mk(1000.0, 2000.0);
        let (v1, _) = a.assess(&[&t1], &[&c1], change).unwrap();
        let (v2, _) = a.assess(&[&t2], &[&c2], change).unwrap();
        assert_eq!(v1.is_caused(), v2.is_caused());
        assert!(v1.is_caused());
    }

    #[test]
    fn masked_assess_excludes_partition_skewed_members() {
        // Control member 2 was dark for the whole post period: its "post"
        // cells are forward-fills of pre-change values. With an external
        // shock moving everything +8 post-change, an honest control shows
        // the shock moved controls too (α ≈ 0, NotCaused) — but the
        // fill-frozen member reads flat, dragging the pooled control
        // toward "did not move" and α toward significance. Exclusion must
        // restore the honest verdict.
        let change = 120u64;
        let shock = move |m: u64| if m >= change { 8.0 } else { 0.0 };
        let treated: Vec<TimeSeries> = (0..2)
            .map(|k| series(0, move |m| 100.0 + lcg_noise(k, m) + shock(m), 240))
            .collect();
        let honest = series(0, move |m| 100.0 + lcg_noise(10, m) + shock(m), 240);
        // Frozen member: value stuck at its minute-119 reading post-change.
        let frozen = series(0, move |m| 100.0 + lcg_noise(11, m.min(change - 1)), 240);
        let mut frozen_mask = CoverageMask::new(0);
        for minute in 0..240 {
            if minute < change {
                frozen_mask.mark(minute);
            }
        }
        let full = CoverageMask::all_present(0, 240);

        let a = DidAssessor;
        let tr: Vec<(&TimeSeries, Option<&CoverageMask>)> =
            treated.iter().map(|s| (s, Some(&full))).collect();
        let cr = vec![(&honest, Some(&full)), (&frozen, Some(&frozen_mask))];
        let (v, _) = a.assess_masked(&tr, &cr, change).unwrap();
        assert!(!v.is_caused(), "alpha {}", v.alpha());

        // Same data ignoring masks: the frozen member biases the pooled
        // control contrast (demonstrates the hazard exclusion removes).
        let cr_plain: Vec<&TimeSeries> = vec![&honest, &frozen];
        let tr_plain: Vec<&TimeSeries> = treated.iter().collect();
        let (_, est_biased) = a.assess(&tr_plain, &cr_plain, change).unwrap();
        let (_, est_clean) = a.assess(&tr_plain, &[&honest], change).unwrap();
        assert!(
            est_biased.alpha.abs() > est_clean.alpha.abs(),
            "biased {} clean {}",
            est_biased.alpha,
            est_clean.alpha
        );
    }

    #[test]
    fn masked_assess_errors_when_group_empties() {
        let change = 120u64;
        let t = series(0, move |m| 100.0 + lcg_noise(1, m), 240);
        let c = series(0, move |m| 100.0 + lcg_noise(2, m), 240);
        // Control's only member measured pre, dark post.
        let mut skewed = CoverageMask::new(0);
        for minute in 0..change {
            skewed.mark(minute);
        }
        let a = DidAssessor;
        let err = a
            .assess_masked(&[(&t, None)], &[(&c, Some(&skewed))], change)
            .unwrap_err();
        assert!(
            matches!(
                err,
                DidError::InsufficientCoverage {
                    group: "control",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn masked_assess_with_full_masks_matches_plain() {
        let change = 120u64;
        let t = series(
            0,
            move |m| 100.0 + lcg_noise(5, m) + if m >= change { 10.0 } else { 0.0 },
            240,
        );
        let c = series(0, move |m| 100.0 + lcg_noise(6, m), 240);
        let full = CoverageMask::all_present(0, 240);
        let a = DidAssessor;
        let (vm, em) = a
            .assess_masked(&[(&t, Some(&full))], &[(&c, None)], change)
            .unwrap();
        let (vp, ep) = a.assess(&[&t], &[&c], change).unwrap();
        assert_eq!(vm, vp);
        assert_eq!(em.alpha.to_bits(), ep.alpha.to_bits());
        assert!(vm.is_caused());
    }

    #[test]
    fn balanced_partial_coverage_is_kept() {
        // A member missing 20 % of BOTH periods has zero divergence: kept.
        let change = 120u64;
        let t = series(0, move |m| 100.0 + lcg_noise(8, m), 240);
        let c = series(0, move |m| 100.0 + lcg_noise(9, m), 240);
        let mut balanced = CoverageMask::new(0);
        for minute in 0..240 {
            if minute % 5 != 0 {
                balanced.mark(minute);
            }
        }
        let a = DidAssessor;
        assert!(a
            .assess_masked(&[(&t, Some(&balanced))], &[(&c, Some(&balanced))], change)
            .is_ok());
    }

    #[test]
    fn hotspot_in_control_is_diluted() {
        // One hotspot control server spikes post-change; the averaged large
        // control group still yields α ≈ 0 for an unchanged treated group
        // (§3.2.4 observation 4).
        let change = 100;
        let treated = series(0, move |m| 50.0 + lcg_noise(7, m), 200);
        let mut controls: Vec<TimeSeries> = (20..39)
            .map(|k| series(0, move |m| 50.0 + lcg_noise(k, m), 200))
            .collect();
        controls.push(series(
            0,
            move |m| 50.0 + lcg_noise(39, m) + if m >= change { 3.0 } else { 0.0 },
            200,
        ));
        let a = DidAssessor;
        let cr: Vec<&TimeSeries> = controls.iter().collect();
        let (v, _) = a.assess(&[&treated], &cr, change).unwrap();
        // The hotspot pulls α slightly negative but dilution keeps it small.
        assert!(!v.is_caused(), "alpha {}", v.alpha());
    }
}
