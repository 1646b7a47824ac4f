//! Plain and robust summary statistics.
//!
//! The improved SST (paper §3.2.2) filters its change score with the median
//! and the median absolute deviation (MAD) because "the mean and standard
//! deviation for Gaussian distribution are not very robust in the presence of
//! large changes or outliers". These helpers are shared by the SST filter,
//! MRLS's robust subspace fit, and the evaluation harness.

/// Neumaier-compensated summation: each addition carries a correction term
/// for the low-order bits the naive running sum rounds away, and the
/// compensation is folded in once at the end.
///
/// Two properties matter here. The result is *more accurate* than a naive
/// left-to-right `f64` sum (exact for the classic `[1e100, 1.0, -1e100]`
/// cancellation case), and it is far *less sensitive to input order*: the
/// compensated result differs across permutations only where the naive sum
/// already lost the answer entirely. The DiD estimator and the MRLS mean
/// aggregation sum cells whose order is an artifact of series layout, so
/// they use this instead of bare `.sum()` — which is also what retires
/// their `float-accumulation-order` lint findings.
pub fn stable_sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut compensation = 0.0f64;
    for x in xs {
        let t = sum + x;
        if sum.abs() >= x.abs() {
            compensation += (sum - t) + x;
        } else {
            compensation += (x - t) + sum;
        }
        sum = t;
    }
    sum + compensation
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // funnel-lint: allow(float-accumulation-order): slice order is the caller's
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (divides by `n`); `0.0` for fewer than two
/// points.
pub fn population_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    // funnel-lint: allow(float-accumulation-order): slice order is the caller's
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median by partial sort; `0.0` for an empty slice. Even-length slices
/// return the mean of the two central order statistics.
pub fn median(xs: &[f64]) -> f64 {
    median_with(xs.iter().copied(), &mut Vec::with_capacity(xs.len()))
}

/// [`median`] of the values `xs` yields, selected inside `scratch` (cleared
/// first) so a caller scoring many windows allocates once.
pub fn median_with(xs: impl IntoIterator<Item = f64>, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend(xs);
    let n = scratch.len();
    if n == 0 {
        return 0.0;
    }
    let mid = n / 2;
    let (lower, m, _) = scratch.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let hi = *m;
    if n % 2 == 1 {
        hi
    } else {
        // Largest element of the lower half.
        let lo = lower.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo + hi) / 2.0
    }
}

/// Median absolute deviation around the median (paper Eq. 12), without the
/// Gaussian consistency constant: `median(|x_i - median(x)|)`.
pub fn mad(xs: &[f64]) -> f64 {
    RobustSummary::of(xs).mad
}

/// The MAD of `xs` around an already computed `median` — a caller that
/// holds the median selects each segment twice, not three times.
pub fn mad_around(xs: &[f64], median: f64, scratch: &mut Vec<f64>) -> f64 {
    median_with(xs.iter().map(|x| (x - median).abs()), scratch)
}

/// Median and MAD of one window, computed together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustSummary {
    /// Window median.
    pub median: f64,
    /// Window median absolute deviation.
    pub mad: f64,
}

impl RobustSummary {
    /// Summarizes `xs`. Empty input yields zeros.
    pub fn of(xs: &[f64]) -> Self {
        Self::of_with(xs, &mut Vec::with_capacity(xs.len()))
    }

    /// [`RobustSummary::of`] selecting inside the caller's `scratch`.
    pub fn of_with(xs: &[f64], scratch: &mut Vec<f64>) -> Self {
        let median = median_with(xs.iter().copied(), scratch);
        Self {
            median,
            mad: mad_around(xs, median, scratch),
        }
    }

    /// The summary of `map(x)` over `sorted`, read off the order instead of
    /// selected: the bits [`RobustSummary::of`] returns for the mapped
    /// values, whenever they are finite.
    ///
    /// `sorted` ascends by [`f64::total_cmp`] and `map` is non-decreasing
    /// over it in the same order, so the mapped order statistics are the
    /// maps of the raw ones and the median comes from the one or two central
    /// elements. The deviations from it then grow outward on either side of
    /// the centre, and the MAD is the middle of the merge of those two runs:
    /// `len / 2 + 1` steps, `map` applied to about half the elements. A NaN
    /// or an infinity (in `sorted`, or made by `map`: `inf − inf`) voids the
    /// ordering argument; the walk then still ends, on a value the caller
    /// must not use. It cannot tell, so it must check: whenever the median
    /// and MAD returned are both finite and `sorted`'s two ends are, they are
    /// the selected ones.
    pub fn of_sorted_by(sorted: &[f64], map: impl Fn(f64) -> f64) -> Self {
        let n = sorted.len();
        if n == 0 {
            return Self {
                median: 0.0,
                mad: 0.0,
            };
        }
        let mid = n / 2;
        let odd = n % 2 == 1;
        let upper = map(sorted[mid]);
        let median = if odd {
            upper
        } else {
            (map(sorted[mid - 1]) + upper) / 2.0
        };
        let deviation = |i: usize| (map(sorted[i]) - median).abs();
        // The next unmerged element on each side, and its deviation.
        let (mut below, mut above) = (mid, mid);
        let mut left = if mid > 0 { deviation(mid - 1) } else { 0.0 };
        let mut right = (upper - median).abs();
        let (mut lo, mut hi) = (0.0, 0.0);
        for _ in 0..=mid {
            lo = hi;
            if below > 0 && (above == n || left < right) {
                hi = left;
                below -= 1;
                if below > 0 {
                    left = deviation(below - 1);
                }
            } else {
                hi = right;
                above += 1;
                if above < n {
                    right = deviation(above);
                }
            }
        }
        Self {
            median,
            mad: if odd { hi } else { (lo + hi) / 2.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_sum_exact_on_catastrophic_cancellation() {
        // Naive left-to-right summation returns 0.0 here; Neumaier keeps
        // the 1.0 that 1e100 absorbs.
        assert_eq!(stable_sum([1e100, 1.0, -1e100]), 1.0);
        assert_eq!(stable_sum([1.0, 1e100, 1.0, -1e100]), 2.0);
    }

    #[test]
    fn stable_sum_matches_naive_on_benign_input() {
        let xs = [0.5, 1.25, -3.0, 2.75, 10.0];
        assert_eq!(stable_sum(xs), xs.iter().copied().fold(0.0, |a, b| a + b));
        assert_eq!(stable_sum([]), 0.0);
        assert_eq!(stable_sum([42.0]), 42.0);
    }

    #[test]
    fn mean_and_std_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(population_std(&[5.0]), 0.0);
        let s = population_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_resists_outlier() {
        let clean = median(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let dirty = median(&[1.0, 2.0, 3.0, 4.0, 1e9]);
        assert_eq!(clean, 3.0);
        assert_eq!(dirty, 3.0);
    }

    #[test]
    fn mad_of_symmetric_window() {
        // median = 3, deviations = [2,1,0,1,2], MAD = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(mad(&[5.0; 6]), 0.0);
    }

    #[test]
    fn sorted_summary_matches_selection() {
        let odd = [9.0, 1.0, 4.0, 4.0, 2.0, -0.0, 0.0];
        let even = [9.0, 1.0, 4.0, 4.0, 2.0, 7.5];
        for xs in [&odd[..], &even[..], &[3.0][..], &[][..]] {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            assert_eq!(
                RobustSummary::of_sorted_by(&sorted, |x| x),
                RobustSummary::of(xs)
            );
            let map = |x: f64| (x - 4.0) / 0.3;
            let mapped: Vec<f64> = xs.iter().copied().map(map).collect();
            let (got, want) = (
                RobustSummary::of_sorted_by(&sorted, map),
                RobustSummary::of(&mapped),
            );
            assert_eq!(got.median.to_bits(), want.median.to_bits());
            assert_eq!(got.mad.to_bits(), want.mad.to_bits());
        }
    }

    #[test]
    fn summary_matches_parts() {
        let xs = [9.0, 1.0, 4.0, 4.0, 2.0];
        let s = RobustSummary::of(&xs);
        assert_eq!(s.median, median(&xs));
        assert_eq!(s.mad, mad(&xs));
    }
}
