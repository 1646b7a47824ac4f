//! Sliding-window iteration.
//!
//! Every detector in the paper consumes "a time window of x(i), x(i+1), ...,
//! x(i+W)" that "moves forward every minute" (§4.1). [`SlidingWindows`]
//! yields those windows together with the absolute minute of each window's
//! last bin, which is the decision time for the window.

use crate::series::{MinuteBin, TimeSeries};

/// Iterator over fixed-size windows that advance one bin at a time.
#[derive(Debug, Clone)]
pub struct SlidingWindows<'a> {
    series: &'a TimeSeries,
    width: usize,
    next_end: usize,
}

/// One window: the slice of values plus the absolute minute of the decision
/// point (the last bin of the window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window<'a> {
    /// Window values, oldest first; always `width` long.
    pub values: &'a [f64],
    /// Absolute minute of the final (newest) bin.
    pub decision_minute: MinuteBin,
}

impl<'a> SlidingWindows<'a> {
    /// Creates windows of `width` bins over `series`. Yields nothing when
    /// the series is shorter than `width` or `width == 0`.
    pub fn new(series: &'a TimeSeries, width: usize) -> Self {
        Self {
            series,
            width,
            next_end: width,
        }
    }
}

impl<'a> Iterator for SlidingWindows<'a> {
    type Item = Window<'a>;

    fn next(&mut self) -> Option<Window<'a>> {
        if self.width == 0 || self.next_end > self.series.len() {
            return None;
        }
        let lo = self.next_end - self.width;
        let w = Window {
            values: &self.series.values()[lo..self.next_end],
            decision_minute: self.series.start() + (self.next_end - 1) as u64,
        };
        self.next_end += 1;
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_series_in_order() {
        let s = TimeSeries::new(100, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let ws: Vec<_> = SlidingWindows::new(&s, 3).collect();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].values, &[0.0, 1.0, 2.0]);
        assert_eq!(ws[0].decision_minute, 102);
        assert_eq!(ws[2].values, &[2.0, 3.0, 4.0]);
        assert_eq!(ws[2].decision_minute, 104);
    }

    #[test]
    fn short_series_yields_nothing() {
        let s = TimeSeries::new(0, vec![1.0, 2.0]);
        assert_eq!(SlidingWindows::new(&s, 3).count(), 0);
    }

    #[test]
    fn zero_width_yields_nothing() {
        let s = TimeSeries::new(0, vec![1.0, 2.0]);
        assert_eq!(SlidingWindows::new(&s, 0).count(), 0);
    }
}
