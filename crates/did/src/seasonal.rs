//! The historical-seasonal control group (paper §3.2.5).
//!
//! For affected services and full launches there are no cservers/cinstances,
//! so FUNNEL compares the KPI around the software change with the *same KPI
//! in the same period of day on historical days*: seasonality moves both the
//! current and the historical windows identically, so it cancels in the DiD,
//! while a genuine software-change impact only moves the current window.
//! Using 30 days of history both covers the day-of-week cycle and dilutes
//! baseline contamination from earlier incidents (§1, §3.2.5).

use crate::estimator::DidError;
use crate::groups::{DidAssessor, DidVerdict, PERIOD_MINUTES};
use crate::DidEstimate;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use funnel_timeseries::MINUTES_PER_DAY;

/// Builds DiD cells from one long KPI series by treating the same
/// minutes-of-day on previous days as the control group.
#[derive(Debug, Clone)]
pub struct SeasonalControl {
    /// Number of historical days used as control (the paper uses 30).
    pub history_days: u32,
}

impl Default for SeasonalControl {
    fn default() -> Self {
        Self { history_days: 30 }
    }
}

impl SeasonalControl {
    /// Creates a seasonal control over `history_days` previous days.
    pub fn new(history_days: u32) -> Self {
        Self {
            history_days: history_days.max(1),
        }
    }

    /// Assesses the change at `change_minute` over periods of
    /// [`PERIOD_MINUTES`]. The treated cells come from `[change−ω, change)` /
    /// `[change, change+ω)` of `series`; the control cells pool the same
    /// clock windows on each available historical day.
    ///
    /// # Errors
    ///
    /// [`DidError::EmptyCell`] when no historical day fits in the series.
    pub fn assess(
        &self,
        assessor: &DidAssessor,
        series: &TimeSeries,
        change_minute: MinuteBin,
    ) -> Result<(DidVerdict, DidEstimate), DidError> {
        let w = PERIOD_MINUTES;
        let treated_pre = series
            .slice(change_minute.saturating_sub(w), change_minute)
            .to_vec();
        let treated_post = series.slice(change_minute, change_minute + w).to_vec();

        let mut control_pre = Vec::new();
        let mut control_post = Vec::new();
        for d in 1..=self.history_days as u64 {
            let offset = d * MINUTES_PER_DAY as u64;
            if change_minute < offset + w {
                break;
            }
            let hist = change_minute - offset;
            control_pre.extend_from_slice(series.slice(hist - w, hist));
            control_post.extend_from_slice(series.slice(hist, hist + w));
        }

        assessor.assess_samples(&treated_pre, &treated_post, &control_pre, &control_post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = MINUTES_PER_DAY as u64;

    fn lcg_noise(seed: u64, i: u64) -> f64 {
        let mut s = seed
            .wrapping_add(i)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s ^= s >> 31;
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    /// `days` days of strongly seasonal KPI, with an optional level shift at
    /// `onset`.
    fn seasonal_series(days: u64, onset: Option<MinuteBin>, shift: f64) -> TimeSeries {
        let len = days * DAY;
        let values = (0..len)
            .map(|m| {
                let phase = (m % DAY) as f64 / DAY as f64 * std::f64::consts::TAU;
                let mut v = 1000.0 + 400.0 * phase.sin() + 5.0 * lcg_noise(9, m);
                if let Some(o) = onset {
                    if m >= o {
                        v += shift;
                    }
                }
                v
            })
            .collect();
        TimeSeries::new(0, values)
    }

    #[test]
    fn seasonal_swing_alone_is_not_caused() {
        // The KPI swings ±400 daily; change deployed at a steep part of the
        // curve. A naive before/after comparison would scream; the seasonal
        // DiD must stay quiet.
        let s = seasonal_series(10, None, 0.0);
        let change = 9 * DAY + 6 * 60; // 06:00 on day 9: steep rise
        let ctl = SeasonalControl::new(7);
        let (v, est) = ctl.assess(&DidAssessor, &s, change).unwrap();
        assert!(!v.is_caused(), "alpha {} t {}", est.alpha, est.t_stat);
    }

    #[test]
    fn real_shift_on_seasonal_kpi_is_caused() {
        let change = 9 * DAY + 6 * 60;
        let s = seasonal_series(10, Some(change), -300.0);
        let ctl = SeasonalControl::new(7);
        let (v, est) = ctl.assess(&DidAssessor, &s, change).unwrap();
        assert!(v.is_caused(), "alpha {} t {}", est.alpha, est.t_stat);
        assert!(v.alpha() < 0.0);
    }

    #[test]
    fn no_history_errors() {
        let s = seasonal_series(1, None, 0.0);
        let ctl = SeasonalControl::new(30);
        let err = ctl.assess(&DidAssessor, &s, 12 * 60).unwrap_err();
        assert!(matches!(err, DidError::EmptyCell { .. }));
    }

    #[test]
    fn contaminated_baseline_diluted_by_many_days() {
        // One historical day had an incident in the control window; 7 days
        // of history keep the estimate near zero.
        let change = 9 * DAY + 6 * 60;
        let mut s = seasonal_series(10, None, 0.0);
        // Contaminate day 5's control window (+800 for 2 hours).
        let contamination_start = change - 4 * DAY - 60;
        for m in contamination_start..contamination_start + 120 {
            let idx = (m - s.start()) as usize;
            s.values_mut()[idx] += 800.0;
        }
        let ctl = SeasonalControl::new(7);
        let (v, est) = ctl.assess(&DidAssessor, &s, change).unwrap();
        assert!(!v.is_caused(), "alpha {} t {}", est.alpha, est.t_stat);
    }
}
