//! Oracle tests: the SST scorers against independent, brute-force
//! re-computations of the paper's formulas (no shared code paths with the
//! implementations under test beyond the linalg substrate).

use funnel_linalg::matrix::Mat;
use funnel_linalg::symeig::sym_eig;
use funnel_sst::config::ETA;
use funnel_sst::layout::{split, standardize_by_past};
use funnel_sst::{FastSst, RobustSst, SstConfig, SstScorer};

/// Dense Hankel matrix straight from the definition (Eq. 1): column j holds
/// ω consecutive samples starting at offset j.
fn hankel(signal: &[f64], omega: usize) -> Mat {
    let delta = signal.len() - omega + 1;
    let mut m = Mat::zeros(omega, delta);
    for i in 0..omega {
        for j in 0..delta {
            m[(i, j)] = signal[i + j];
        }
    }
    m
}

/// Brute-force Eq. 9/10: eigenvalue-weighted discordance of the η dominant
/// future directions against the η-dim past signal subspace.
fn oracle_raw_score(config: &SstConfig, window: &[f64]) -> f64 {
    let std = standardize_by_past(window, config.past_len());
    let sw = split(config, &std);
    let eta = ETA;

    let b = hankel(sw.past, config.omega);
    let past = sym_eig(&b.gram());
    let a = hankel(sw.future, config.omega);
    let fut = sym_eig(&a.gram());

    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..eta {
        let lambda = fut.values[i].max(0.0);
        let beta = fut.vector(i);
        let mut proj = 0.0;
        for j in 0..eta {
            let u = past.vector(j);
            let d: f64 = u.iter().zip(&beta).map(|(a, b)| a * b).sum();
            proj += d * d;
        }
        num += lambda * (1.0 - proj).clamp(0.0, 1.0);
        den += lambda;
    }
    if den <= 0.0 {
        0.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

fn lcg_series(len: usize, seed: u64, shift_at: Option<usize>, delta: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..len)
        .map(|i| {
            let mut v = 80.0 + 2.0 * next();
            if let Some(at) = shift_at {
                if i >= at {
                    v += delta;
                }
            }
            v
        })
        .collect()
}

#[test]
fn robust_sst_matches_brute_force_eq9() {
    let mut config = SstConfig::paper_default();
    config.median_mad_filter = false;
    let scorer = RobustSst::new(config.clone());
    for seed in 0..10 {
        let w = lcg_series(config.window_len(), seed, Some(20), 6.0);
        let got = scorer.raw_score(&w);
        let want = oracle_raw_score(&config, &w);
        assert!(
            (got - want).abs() < 1e-9,
            "seed {seed}: robust {got} vs oracle {want}"
        );
    }
}

#[test]
fn fast_sst_approximates_oracle_within_tolerance() {
    let mut config = SstConfig::paper_default();
    config.median_mad_filter = false;
    let fast = FastSst::new(config.clone());
    let mut total_err = 0.0;
    let n = 20;
    for seed in 0..n {
        let w = lcg_series(config.window_len(), seed, Some(17), 8.0);
        let got = fast.raw_score(&w);
        let want = oracle_raw_score(&config, &w);
        total_err += (got - want).abs();
    }
    let mae = total_err / n as f64;
    assert!(mae < 0.15, "IKA mean absolute error vs oracle: {mae}");
}

/// Brute-force Eq. 11: the full filtered score.
fn oracle_filtered_score(config: &SstConfig, window: &[f64]) -> f64 {
    use funnel_timeseries::stats::{mad, median};
    let raw = oracle_raw_score(config, window);
    let std = standardize_by_past(window, config.past_len());
    let sw = split(config, &std);
    let med_shift = (median(sw.past) - median(sw.future)).abs();
    let mad_sqrt = (mad(sw.past) - mad(sw.future)).abs().sqrt();
    let combined = med_shift + mad_sqrt;
    raw * med_shift.max(0.05 * combined) * mad_sqrt.max(0.05 * combined)
}

#[test]
fn robust_filtered_score_matches_brute_force_eq11() {
    let config = SstConfig::paper_default();
    let scorer = RobustSst::new(config.clone());
    for seed in 30..40 {
        for shift in [None, Some(20)] {
            let w = lcg_series(config.window_len(), seed, shift, 9.0);
            let got = scorer.score_window(&w);
            let want = oracle_filtered_score(&config, &w);
            assert!(
                (got - want).abs() < 1e-9,
                "seed {seed} shift {shift:?}: robust {got} vs oracle {want}"
            );
        }
    }
}

#[test]
fn filter_separates_shift_from_noise_where_raw_does_not() {
    // The raw Eq. 9 discordance fires on dense-spectrum noise too — that is
    // exactly why the paper adds the Eq. 11 filter. The *filtered* score
    // must separate; the raw one need not.
    let config = SstConfig::paper_default();
    let scorer = RobustSst::new(config.clone());
    let mut shift_min: f64 = f64::INFINITY;
    let mut noise_max: f64 = 0.0;
    for seed in 50..56 {
        // Onset mid-future so the future trajectory columns straddle it.
        let shifted = lcg_series(config.window_len(), seed, Some(25), 25.0);
        let noise = lcg_series(config.window_len(), seed, None, 0.0);
        shift_min = shift_min.min(scorer.score_window(&shifted));
        noise_max = noise_max.max(scorer.score_window(&noise));
    }
    assert!(
        shift_min > noise_max,
        "filtered shift {shift_min} vs noise {noise_max}"
    );
}
