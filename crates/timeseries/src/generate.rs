//! Synthetic KPI generators.
//!
//! The paper stresses that KPIs in internet-based services are "quite diverse
//! intrinsically", and its Table 1 splits the evaluation by three character
//! classes (§4.2.1):
//!
//! * **seasonal** — strong time-of-day / day-of-week pattern (page view
//!   count, advertisement clicks),
//! * **stationary** — flat around a level (memory utilization),
//! * **variable** — high short-term variability (CPU context switch count,
//!   NIC throughput).
//!
//! [`KpiGenerator`] produces all three deterministically from a seed. The
//! underlying noise is an AR(1) process (for temporal correlation, as real
//! telemetry has) plus, for the variable class, heavy-tailed bursts.

use crate::series::{MinuteBin, TimeSeries};
use crate::MINUTES_PER_DAY;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Standard normal sample via Box–Muller (rand's core crate does not ship a
/// normal distribution; this keeps the dependency surface minimal).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The paper's three KPI character classes (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KpiClass {
    /// Strong time-of-day / day-of-week pattern.
    Seasonal,
    /// Flat around a base level.
    Stationary,
    /// High short-term variability with bursts.
    Variable,
}

impl KpiClass {
    /// All classes, in Table-1 order.
    pub const ALL: [KpiClass; 3] = [KpiClass::Seasonal, KpiClass::Stationary, KpiClass::Variable];
}

impl std::fmt::Display for KpiClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KpiClass::Seasonal => write!(f, "Seasonal"),
            KpiClass::Stationary => write!(f, "Stationary"),
            KpiClass::Variable => write!(f, "Variable"),
        }
    }
}

/// Deterministic diurnal/weekly shape evaluated at an absolute minute.
///
/// The profile is a raised cosine peaking at `peak_minute_of_day`, scaled by
/// `daily_amplitude`, and damped on weekends by `weekend_factor` (days 5 and
/// 6 of each 7-day cycle). It multiplies a generator's base level, so a
/// profile value of `1.0` means "at base level".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalProfile {
    /// Minute of day (0..1440) at which traffic peaks.
    pub peak_minute_of_day: u32,
    /// Peak-to-trough swing as a fraction of base level (e.g. `0.6`).
    pub daily_amplitude: f64,
    /// Multiplier applied on weekend days (e.g. `0.7` for quieter weekends).
    pub weekend_factor: f64,
}

impl SeasonalProfile {
    /// A typical consumer-web profile: afternoon peak, ±60 % swing, quieter
    /// weekends.
    pub fn typical_web() -> Self {
        Self {
            peak_minute_of_day: 15 * 60,
            daily_amplitude: 0.6,
            weekend_factor: 0.75,
        }
    }

    /// A flat profile (no seasonality); used for stationary/variable KPIs.
    pub fn flat() -> Self {
        Self {
            peak_minute_of_day: 0,
            daily_amplitude: 0.0,
            weekend_factor: 1.0,
        }
    }

    /// The multiplicative factor at absolute minute `bin`.
    pub fn factor_at(&self, bin: MinuteBin) -> f64 {
        let minute_of_day = (bin % MINUTES_PER_DAY as u64) as f64;
        let day_of_week = (bin / MINUTES_PER_DAY as u64) % 7;
        let phase = (minute_of_day - self.peak_minute_of_day as f64) / MINUTES_PER_DAY as f64
            * std::f64::consts::TAU;
        let daily = 1.0 + self.daily_amplitude * phase.cos();
        let weekly = if day_of_week >= 5 {
            self.weekend_factor
        } else {
            1.0
        };
        daily * weekly
    }
}

/// Configuration for one synthetic KPI stream.
#[derive(Debug, Clone, PartialEq)]
pub struct KpiGenerator {
    /// Character class (selects the default shape parameters).
    pub class: KpiClass,
    /// Base level around which the KPI moves (e.g. 1000 page views/min,
    /// 55 % memory utilization).
    pub base_level: f64,
    /// Standard deviation of the AR(1) innovation, as a fraction of
    /// `base_level`.
    pub noise_frac: f64,
    /// AR(1) coefficient in `[0, 1)`; higher means smoother noise.
    pub ar_coeff: f64,
    /// Seasonal shape (meaningful for [`KpiClass::Seasonal`], usually flat
    /// otherwise).
    pub profile: SeasonalProfile,
    /// Probability per minute of a short heavy burst (variable KPIs).
    pub burst_prob: f64,
    /// Burst magnitude as a multiple of `base_level`.
    pub burst_scale: f64,
    /// Whether values are clamped at zero (counters and utilizations are
    /// non-negative).
    pub non_negative: bool,
}

impl KpiGenerator {
    /// Defaults for `class` at the given base level.
    pub fn for_class(class: KpiClass, base_level: f64) -> Self {
        match class {
            KpiClass::Seasonal => Self {
                class,
                base_level,
                noise_frac: 0.02,
                ar_coeff: 0.6,
                profile: SeasonalProfile::typical_web(),
                burst_prob: 0.0,
                burst_scale: 0.0,
                non_negative: true,
            },
            // Genuinely stationary, like the memory utilization the paper
            // names: weak short-memory noise, no low-frequency wander (an
            // AR coefficient near 1 would make "stationary" KPIs drift for
            // tens of minutes at a time, which real gauges do not).
            KpiClass::Stationary => Self {
                class,
                base_level,
                noise_frac: 0.008,
                ar_coeff: 0.45,
                profile: SeasonalProfile::flat(),
                burst_prob: 0.0,
                burst_scale: 0.0,
                non_negative: true,
            },
            KpiClass::Variable => Self {
                class,
                base_level,
                noise_frac: 0.12,
                ar_coeff: 0.3,
                profile: SeasonalProfile::flat(),
                burst_prob: 0.02,
                burst_scale: 0.8,
                non_negative: true,
            },
        }
    }

    /// Generates `len` one-minute bins starting at absolute minute `start`,
    /// deterministically from `seed`.
    pub fn generate(&self, start: MinuteBin, len: usize, seed: u64) -> TimeSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values = Vec::with_capacity(len);
        let sigma = self.noise_frac * self.base_level;
        // Stationary-variance start for the AR(1) state.
        let mut ar = gaussian(&mut rng) * sigma / (1.0 - self.ar_coeff * self.ar_coeff).sqrt();
        for i in 0..len {
            let bin = start + i as u64;
            ar = self.ar_coeff * ar + gaussian(&mut rng) * sigma;
            let mut v = self.base_level * self.profile.factor_at(bin) + ar;
            if self.burst_prob > 0.0 && rng.random::<f64>() < self.burst_prob {
                // One-sided heavy burst: exponential tail.
                let e: f64 = rng.random::<f64>().max(1e-12);
                v += self.burst_scale * self.base_level * (-e.ln());
            }
            if self.non_negative {
                v = v.max(0.0);
            }
            values.push(v);
        }
        TimeSeries::new(start, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, population_std};

    #[test]
    fn generation_is_deterministic() {
        let g = KpiGenerator::for_class(KpiClass::Variable, 100.0);
        let a = g.generate(0, 500, 42);
        let b = g.generate(0, 500, 42);
        assert_eq!(a, b);
        let c = g.generate(0, 500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn seasonal_profile_peaks_at_peak_minute() {
        let p = SeasonalProfile::typical_web();
        let peak = p.factor_at(p.peak_minute_of_day as u64);
        let trough = p.factor_at((p.peak_minute_of_day + 720) as u64 % 1440);
        assert!(peak > trough);
        assert!((peak - (1.0 + p.daily_amplitude)).abs() < 1e-9);
    }

    #[test]
    fn weekend_damping_applies_on_days_5_and_6() {
        let p = SeasonalProfile::typical_web();
        let weekday = p.factor_at(2 * 1440 + 900);
        let weekend = p.factor_at(5 * 1440 + 900);
        assert!((weekend / weekday - p.weekend_factor).abs() < 1e-9);
    }

    #[test]
    fn stationary_series_hovers_near_base() {
        let g = KpiGenerator::for_class(KpiClass::Stationary, 50.0);
        let s = g.generate(0, 2000, 7);
        let m = mean(s.values());
        assert!((m - 50.0).abs() < 1.0, "mean {m}");
        assert!(population_std(s.values()) < 2.0);
    }

    #[test]
    fn seasonal_series_swings_with_the_day() {
        let g = KpiGenerator::for_class(KpiClass::Seasonal, 1000.0);
        let s = g.generate(0, 2 * 1440, 11);
        let peak_minute = g.profile.peak_minute_of_day as usize;
        let peak = s.values()[peak_minute];
        let trough = s.values()[(peak_minute + 720) % 1440];
        assert!(peak > trough * 2.0, "peak {peak} trough {trough}");
    }

    #[test]
    fn variable_series_is_noisier_than_stationary() {
        let var = KpiGenerator::for_class(KpiClass::Variable, 100.0).generate(0, 3000, 5);
        let sta = KpiGenerator::for_class(KpiClass::Stationary, 100.0).generate(0, 3000, 5);
        assert!(population_std(var.values()) > 5.0 * population_std(sta.values()));
    }

    #[test]
    fn non_negative_clamps() {
        let mut g = KpiGenerator::for_class(KpiClass::Variable, 0.5);
        g.noise_frac = 5.0;
        let s = g.generate(0, 1000, 3);
        assert!(s.values().iter().all(|&v| v >= 0.0));
    }
}
