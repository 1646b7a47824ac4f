//! One-minute-binned KPI time series.
//!
//! FUNNEL's data-collection substrate delivers KPI measurements once per
//! minute per (entity, KPI) pair (§2.2 of the paper). [`TimeSeries`] stores
//! such a series as a dense `Vec<f64>` anchored at an absolute minute index,
//! so series from different entities can be aligned by wall-clock minute.

/// Absolute minute index since the simulation epoch.
///
/// The paper bins KPIs into one-minute intervals; a `MinuteBin` identifies
/// one such interval. Bin `0` starts at the epoch.
pub type MinuteBin = u64;

/// A dense, one-minute-binned time series anchored at an absolute minute.
///
/// Invariant: `values[i]` is the measurement for minute `start + i`.
/// Gaps are not represented; the collection substrate fills every minute
/// (missing agent reports are interpolated upstream in `funnel-sim`).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    start: MinuteBin,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series whose first value is the measurement for `start`.
    pub fn new(start: MinuteBin, values: Vec<f64>) -> Self {
        Self { start, values }
    }

    /// Creates an empty series that will begin at `start`.
    pub fn empty(start: MinuteBin) -> Self {
        Self {
            start,
            values: Vec::new(),
        }
    }

    /// Creates a series of `len` zeros starting at `start`.
    pub fn zeros(start: MinuteBin, len: usize) -> Self {
        Self {
            start,
            values: vec![0.0; len],
        }
    }

    /// The absolute minute of the first bin.
    pub fn start(&self) -> MinuteBin {
        self.start
    }

    /// The absolute minute one past the last bin.
    pub fn end(&self) -> MinuteBin {
        self.start + self.values.len() as u64
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no bins.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw values (used by change injection).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The value at absolute minute `bin`, if it falls inside the series.
    pub fn at(&self, bin: MinuteBin) -> Option<f64> {
        if bin < self.start {
            return None;
        }
        self.values.get((bin - self.start) as usize).copied()
    }

    /// Appends the measurement for the next minute.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Appends the measurements for the next `values.len()` minutes, oldest
    /// first: [`TimeSeries::push`] for a whole run at once.
    pub fn extend_from_slice(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
    }

    /// Overwrites the value at absolute minute `bin` (backfill of a healed
    /// telemetry gap). Returns `false` when `bin` lies outside the series —
    /// the caller must extend via [`TimeSeries::push`] instead.
    pub fn set(&mut self, bin: MinuteBin, value: f64) -> bool {
        if bin < self.start {
            return false;
        }
        match self.values.get_mut((bin - self.start) as usize) {
            Some(v) => {
                *v = value;
                true
            }
            None => false,
        }
    }

    /// The sub-slice covering absolute minutes `[from, to)`, clamped to the
    /// series bounds. Returns an empty slice when the range misses entirely.
    pub fn slice(&self, from: MinuteBin, to: MinuteBin) -> &[f64] {
        let lo = from.max(self.start);
        let hi = to.min(self.end());
        if lo >= hi {
            return &[];
        }
        &self.values[(lo - self.start) as usize..(hi - self.start) as usize]
    }

    /// Returns a new series normalized to `[0, 1]` by min–max scaling, as the
    /// paper does for its plots (Fig. 2, 6, 7). A constant series maps to
    /// all zeros.
    pub fn normalized(&self) -> TimeSeries {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = hi - lo;
        let values = if span > 0.0 {
            self.values.iter().map(|v| (v - lo) / span).collect()
        } else {
            vec![0.0; self.values.len()]
        };
        TimeSeries {
            start: self.start,
            values,
        }
    }

    /// Element-wise average of several aligned series.
    ///
    /// The paper averages control-group KPIs ("We use the average of all of
    /// the KPIs in the control group", §3.2.4) and aggregates instance KPIs
    /// into service KPIs (§2.2). All inputs must share `start` and length.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Misaligned`] when the inputs disagree on start
    /// or length, and [`SeriesError::EmptyInput`] for an empty slice.
    pub fn average(series: &[&TimeSeries]) -> Result<TimeSeries, SeriesError> {
        let first = series.first().ok_or(SeriesError::EmptyInput)?;
        for s in series {
            if s.start != first.start || s.len() != first.len() {
                return Err(SeriesError::Misaligned {
                    expected_start: first.start,
                    expected_len: first.len(),
                    got_start: s.start,
                    got_len: s.len(),
                });
            }
        }
        let mut values = vec![0.0; first.len()];
        for s in series {
            for (acc, v) in values.iter_mut().zip(s.values.iter()) {
                *acc += v;
            }
        }
        let n = series.len() as f64;
        for v in &mut values {
            *v /= n;
        }
        Ok(TimeSeries {
            start: first.start,
            values,
        })
    }

    /// Element-wise sum of several aligned series (service = Σ instances).
    ///
    /// # Errors
    ///
    /// Same alignment requirements as [`TimeSeries::average`].
    pub fn sum(series: &[&TimeSeries]) -> Result<TimeSeries, SeriesError> {
        let mut avg = Self::average(series)?;
        let n = series.len() as f64;
        for v in avg.values.iter_mut() {
            *v *= n;
        }
        Ok(avg)
    }
}

/// Errors from series combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// No series were supplied.
    EmptyInput,
    /// Input series do not share the same start and length.
    Misaligned {
        /// Start bin of the first series.
        expected_start: MinuteBin,
        /// Length of the first series.
        expected_len: usize,
        /// Start bin of the offending series.
        got_start: MinuteBin,
        /// Length of the offending series.
        got_len: usize,
    },
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::EmptyInput => write!(f, "no series supplied"),
            SeriesError::Misaligned {
                expected_start,
                expected_len,
                got_start,
                got_len,
            } => {
                write!(
                    f,
                    "misaligned series: expected start={expected_start} len={expected_len}, \
                     got start={got_start} len={got_len}"
                )
            }
        }
    }
}

impl std::error::Error for SeriesError {}

/// Aggregates raw timestamped events into one-minute bins.
///
/// The per-server agent of §2.2 increments counters (page view count) and
/// records samples (response delay) as requests are served, then emits one
/// bin per minute. `EventBinner` reproduces that: feed it `(minute, value)`
/// events in any order within the open bin, and collect the binned series.
#[derive(Debug, Clone)]
pub struct EventBinner {
    start: MinuteBin,
    mode: BinMode,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

/// How events within one minute combine into the bin value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinMode {
    /// Bin value is the number of events (e.g. page view count).
    Count,
    /// Bin value is the sum of event values (e.g. bytes transferred).
    Sum,
    /// Bin value is the mean of event values (e.g. response delay).
    Mean,
}

impl EventBinner {
    /// Creates a binner whose first bin covers absolute minute `start`.
    pub fn new(start: MinuteBin, mode: BinMode) -> Self {
        Self {
            start,
            mode,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Records one event at absolute minute `minute` with value `value`
    /// (ignored for [`BinMode::Count`]). Events before `start` are dropped.
    pub fn record(&mut self, minute: MinuteBin, value: f64) {
        if minute < self.start {
            return;
        }
        let idx = (minute - self.start) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Finalizes into a [`TimeSeries`]. Minutes with no events produce `0.0`
    /// for `Count`/`Sum` and `0.0` for `Mean` (no traffic ⇒ no delay sample).
    pub fn finish(self) -> TimeSeries {
        let values = self
            .sums
            .iter()
            .zip(self.counts.iter())
            .map(|(&s, &c)| match self.mode {
                BinMode::Count => c as f64,
                BinMode::Sum => s,
                BinMode::Mean => {
                    if c == 0 {
                        0.0
                    } else {
                        s / c as f64
                    }
                }
            })
            .collect();
        TimeSeries::new(self.start, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_respects_bounds() {
        let s = TimeSeries::new(10, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.at(9), None);
        assert_eq!(s.at(10), Some(1.0));
        assert_eq!(s.at(12), Some(3.0));
        assert_eq!(s.at(13), None);
    }

    #[test]
    fn extend_from_slice_appends_a_run_like_pushes() {
        let mut pushed = TimeSeries::new(7, vec![1.0]);
        let mut extended = pushed.clone();
        for v in [2.0, -0.0, 4.5] {
            pushed.push(v);
        }
        extended.extend_from_slice(&[2.0, -0.0, 4.5]);
        extended.extend_from_slice(&[]);
        assert_eq!(extended.end(), 11);
        let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&extended), bits(&pushed));
        let mut empty = TimeSeries::empty(3);
        empty.extend_from_slice(&[9.0, 8.0]);
        assert_eq!((empty.start(), empty.values()), (3, &[9.0, 8.0][..]));
    }

    #[test]
    fn set_overwrites_in_bounds_only() {
        let mut s = TimeSeries::new(10, vec![1.0, 2.0, 3.0]);
        assert!(s.set(11, 9.0));
        assert_eq!(s.values(), &[1.0, 9.0, 3.0]);
        assert!(!s.set(9, 0.0));
        assert!(!s.set(13, 0.0));
        assert_eq!(s.values(), &[1.0, 9.0, 3.0]);
    }

    #[test]
    fn slice_clamps_to_bounds() {
        let s = TimeSeries::new(5, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.slice(0, 100), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.slice(6, 8), &[2.0, 3.0]);
        assert_eq!(s.slice(9, 20), &[] as &[f64]);
        assert_eq!(s.slice(0, 5), &[] as &[f64]);
        assert_eq!(s.slice(8, 6), &[] as &[f64]);
    }

    #[test]
    fn normalized_maps_to_unit_interval() {
        let s = TimeSeries::new(0, vec![2.0, 4.0, 6.0]);
        let n = s.normalized();
        assert_eq!(n.values(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalized_constant_series_is_zero() {
        let s = TimeSeries::new(0, vec![5.0; 4]);
        assert_eq!(s.normalized().values(), &[0.0; 4]);
    }

    #[test]
    fn average_requires_alignment() {
        let a = TimeSeries::new(0, vec![1.0, 3.0]);
        let b = TimeSeries::new(0, vec![3.0, 5.0]);
        let avg = TimeSeries::average(&[&a, &b]).unwrap();
        assert_eq!(avg.values(), &[2.0, 4.0]);

        let c = TimeSeries::new(1, vec![3.0, 5.0]);
        assert!(matches!(
            TimeSeries::average(&[&a, &c]),
            Err(SeriesError::Misaligned { .. })
        ));
        assert_eq!(TimeSeries::average(&[]), Err(SeriesError::EmptyInput));
    }

    #[test]
    fn sum_is_n_times_average() {
        let a = TimeSeries::new(0, vec![1.0, 2.0]);
        let b = TimeSeries::new(0, vec![3.0, 4.0]);
        let sum = TimeSeries::sum(&[&a, &b]).unwrap();
        assert_eq!(sum.values(), &[4.0, 6.0]);
    }

    #[test]
    fn binner_count_mode() {
        let mut b = EventBinner::new(0, BinMode::Count);
        b.record(0, 1.0);
        b.record(0, 99.0);
        b.record(2, 1.0);
        let s = b.finish();
        assert_eq!(s.values(), &[2.0, 0.0, 1.0]);
    }

    #[test]
    fn binner_mean_mode_handles_empty_minutes() {
        let mut b = EventBinner::new(0, BinMode::Mean);
        b.record(0, 10.0);
        b.record(0, 20.0);
        b.record(2, 6.0);
        let s = b.finish();
        assert_eq!(s.values(), &[15.0, 0.0, 6.0]);
    }

    #[test]
    fn binner_drops_events_before_start() {
        let mut b = EventBinner::new(5, BinMode::Sum);
        b.record(4, 100.0);
        b.record(5, 1.0);
        let s = b.finish();
        assert_eq!(s.values(), &[1.0]);
        assert_eq!(s.start(), 5);
    }
}
