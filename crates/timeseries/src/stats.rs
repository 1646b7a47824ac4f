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
    // Summed in slice order, which is the caller's.
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation (divides by `n`); `0.0` for fewer than two
/// points.
pub fn population_std(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    // Summed in slice order, which is the caller's.
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
    /// values.
    ///
    /// `sorted` ascends by [`f64::total_cmp`] and `map` is non-decreasing
    /// over it in the same order, so the mapped order statistics are the
    /// maps of the raw ones and the median comes from the one or two central
    /// elements. The deviations from it grow outward on either side of the
    /// centre, so the `len / 2 + 1` smallest of them sit at consecutive
    /// indices: the MAD is read off the ends of that run, and a halving
    /// search finds where it starts, mapping about `2·log₂ len` elements.
    ///
    /// The promise: when `map` yields no NaN over `sorted` and the median
    /// returned is finite, the median and MAD are [`RobustSummary::of`]'s
    /// bits (a tail `map` overflows to ±∞ keeps its place in the order; the
    /// MAD is then +∞ where more than half the deviations are). A NaN, in
    /// `sorted` or made by `map` (`inf − inf`), or an infinite median voids
    /// the ordering argument; the search then still ends, on a value the
    /// caller must not use. A caller whose `sorted` has finite ends and
    /// whose `map` cannot make a NaN of a finite value checks the median.
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
        let median = if odd {
            map(sorted[mid])
        } else {
            (map(sorted[mid - 1]) + map(sorted[mid])) / 2.0
        };
        let deviation = |i: usize| (map(sorted[i]) - median).abs();
        // The run of `mid + 1` smallest deviations is `[at, at + mid]`, with
        // `at` in `[0, n − 1 − mid]`. Past the right start, the element just
        // left of the run deviates less than the run's right end: as `at`
        // grows, `deviation(at − 1)` shrinks toward the centre and
        // `deviation(at + mid)` grows away from it, so that test splits the
        // range once.
        let (mut at, mut last) = (0, n - 1 - mid);
        while at < last {
            let probe = last - (last - at) / 2;
            if deviation(probe - 1) < deviation(probe + mid) {
                last = probe - 1;
            } else {
                at = probe;
            }
        }
        // Each half of the run is largest at its outer end.
        let (left, right) = (deviation(at), deviation(at + mid));
        let top = left.max(right);
        let mad = if odd {
            top
        } else if left < right {
            (left.max(deviation(at + mid - 1)) + top) / 2.0
        } else {
            (right.max(deviation(at + 1)) + top) / 2.0
        };
        Self { median, mad }
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

    /// One input for [`RobustSummary::of_sorted_by`]: samples with heavy
    /// ties, signed zeros and far outliers, and a non-decreasing affine map.
    #[derive(Debug, Clone)]
    struct SortedCase {
        xs: Vec<f64>,
        map: Affine,
    }

    /// `x ↦ (x − shift) / scale` (the bound's standardization) or
    /// `x ↦ scale·x + shift`; a tiny or huge `scale` overflows the tails.
    #[derive(Debug, Clone, Copy)]
    enum Affine {
        Standardize { shift: f64, scale: f64 },
        Stretch { scale: f64, shift: f64 },
    }

    impl Affine {
        fn apply(self, x: f64) -> f64 {
            match self {
                Affine::Standardize { shift, scale } => (x - shift) / scale,
                Affine::Stretch { scale, shift } => scale * x + shift,
            }
        }
    }

    struct SortedCases;

    impl proptest::strategy::Strategy for SortedCases {
        type Value = SortedCase;
        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> SortedCase {
            const TIES: [f64; 8] = [0.0, -0.0, 1.0, 4.0, -1.0, 2.5, 4.0, 7.5];
            const OUTLIERS: [f64; 4] = [1e300, -1e300, f64::MAX, -f64::MAX];
            let len = rng.below(65) as usize;
            // Fewer distinct tie values, more ties.
            let palette = 1 + rng.below(TIES.len() as u64) as usize;
            let xs = (0..len)
                .map(|_| match rng.below(16) {
                    0 => OUTLIERS[rng.below(4) as usize],
                    1..=4 => rng.unit_f64() * 200.0 - 100.0,
                    _ => TIES[rng.below(palette as u64) as usize],
                })
                .collect();
            let scales = [1.0, 0.3, 1e-9, 1e300, 1e-300];
            let scale = scales[rng.below(scales.len() as u64) as usize];
            let shift = TIES[rng.below(TIES.len() as u64) as usize];
            let map = if rng.below(2) == 0 {
                Affine::Standardize { shift, scale }
            } else {
                Affine::Stretch { scale, shift }
            };
            SortedCase { xs, map }
        }
    }

    /// Where [`RobustSummary::of_sorted_by`]'s doc promises agreement, its
    /// bits are the selected ones.
    fn assert_sorted_summary_selects(xs: &[f64], map: impl Fn(f64) -> f64 + Copy) -> bool {
        let mut sorted = xs.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let mapped: Vec<f64> = xs.iter().copied().map(map).collect();
        let got = RobustSummary::of_sorted_by(&sorted, map);
        if mapped.iter().any(|y| y.is_nan()) || !got.median.is_finite() {
            return false;
        }
        let want = RobustSummary::of(&mapped);
        assert_eq!(got.median.to_bits(), want.median.to_bits(), "{xs:?}");
        assert_eq!(got.mad.to_bits(), want.mad.to_bits(), "{xs:?}");
        true
    }

    #[test]
    fn sorted_summary_matches_selection_on_fixed_inputs() {
        let odd = [9.0, 1.0, 4.0, 4.0, 2.0, -0.0, 0.0];
        let even = [9.0, 1.0, 4.0, 4.0, 2.0, 7.5];
        let tails = [-1e300, 1.0, 2.0, 3.0, 1e300, 4.0];
        for xs in [&odd[..], &even[..], &tails[..], &[3.0][..], &[][..]] {
            assert!(assert_sorted_summary_selects(xs, |x| x));
            assert!(assert_sorted_summary_selects(xs, |x| (x - 4.0) / 0.3));
        }
        // The tails overflow to ±∞, the median and MAD stay finite.
        assert!(assert_sorted_summary_selects(&tails, |x| (x - 2.0) / 1e-9));
        let mut sorted = tails;
        sorted.sort_unstable_by(f64::total_cmp);
        assert!(RobustSummary::of_sorted_by(&sorted, |x| (x - 2.0) / 1e-9)
            .mad
            .is_finite());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        #[test]
        fn sorted_summary_matches_selection(case in SortedCases) {
            let SortedCase { xs, map } = case;
            proptest::prop_assume!(assert_sorted_summary_selects(&xs, |x| map.apply(x)));
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
