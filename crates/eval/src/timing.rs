//! Single-thread per-window timing and the Table-2 projection.
//!
//! Table 2 reports each method's average computational time per sliding
//! window on one core, then projects "# cores for one million KPIs": with
//! one window per KPI per minute, a method that needs `t` seconds per
//! window needs `⌈10⁶·t / 60⌉` cores to keep up.

use crate::methods::{Method, MethodRunner};
use funnel_timeseries::generate::{KpiClass, KpiGenerator};
use funnel_timeseries::series::TimeSeries;
use std::time::Instant;

/// Timing result for one method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodTiming {
    /// The method measured.
    pub method: Method,
    /// Mean wall-clock seconds per window (single thread).
    pub seconds_per_window: f64,
    /// Windows evaluated.
    pub windows: usize,
}

impl MethodTiming {
    /// Cores needed to score one million KPIs once a minute.
    pub fn cores_for_million_kpis(&self) -> u64 {
        (1_000_000.0 * self.seconds_per_window / 60.0).ceil() as u64
    }

    /// Human-friendly per-window time.
    pub fn per_window_display(&self) -> String {
        let s = self.seconds_per_window;
        if s >= 1.0 {
            format!("{s:.3} s")
        } else if s >= 1e-3 {
            format!("{:.3} ms", s * 1e3)
        } else {
            format!("{:.1} µs", s * 1e6)
        }
    }
}

/// One long deterministic series per KPI class, `len` samples each, so a
/// measurement covers seasonal, stationary and variable inputs alike.
fn mixed_class_data(len: usize) -> Vec<Vec<f64>> {
    KpiClass::ALL
        .iter()
        .map(|&c| {
            KpiGenerator::for_class(c, 500.0)
                .generate(0, len, 0xC0FFEE)
                .values()
                .to_vec()
        })
        .collect()
}

/// Measures `method`'s full window score on `windows` sliding windows of
/// realistic mixed-class KPI data (deterministic), single-threaded.
pub fn time_method(method: Method, windows: usize) -> MethodTiming {
    let runner = MethodRunner::new(method);
    let w = runner.window_len();
    // Scored round-robin across the classes.
    let data = mixed_class_data(windows + w);

    // Warm-up pass (JIT-free in Rust, but touches caches/allocs).
    for d in &data {
        let _ = runner.score_window(&d[..w]);
    }

    let start = Instant::now();
    let mut sink = 0.0f64;
    for i in 0..windows {
        let d = &data[i % data.len()];
        sink += runner.score_window(&d[i..i + w]);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Keep the optimizer honest.
    assert!(sink.is_finite());

    MethodTiming {
        method,
        seconds_per_window: elapsed / windows as f64,
        windows,
    }
}

/// Measures what a window costs `method`'s *detector*: the calibrated
/// [`MethodRunner::run`] (threshold, persistence, and whatever the scorer
/// and the persistence rule can skip once they know the threshold) over the
/// same mixed-class data, divided by the windows it slid over — about
/// `windows` in total.
pub fn time_detector(method: Method, windows: usize) -> MethodTiming {
    let runner = MethodRunner::new(method);
    let w = runner.window_len();
    let series: Vec<TimeSeries> = mixed_class_data(windows / KpiClass::ALL.len() + w)
        .into_iter()
        .map(|values| TimeSeries::new(0, values))
        .collect();
    let slid: usize = series.iter().map(|s| s.len() + 1 - w).sum();

    let _ = runner.run(&series[0]);
    let start = Instant::now();
    let mut events = 0usize;
    for s in &series {
        events += runner.run(s).len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(events <= slid);

    MethodTiming {
        method,
        seconds_per_window: elapsed / slid as f64,
        windows: slid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_projection_math() {
        let t = MethodTiming {
            method: Method::Funnel,
            seconds_per_window: 401.8e-6,
            windows: 1,
        };
        assert_eq!(t.cores_for_million_kpis(), 7); // the paper's own row
        let t = MethodTiming {
            method: Method::Mrls,
            seconds_per_window: 2.852,
            windows: 1,
        };
        assert_eq!(t.cores_for_million_kpis(), 47_534); // ⌈2.852e6/60⌉
    }

    #[test]
    fn display_units() {
        let mk = |s| MethodTiming {
            method: Method::Funnel,
            seconds_per_window: s,
            windows: 1,
        };
        assert!(mk(2.0).per_window_display().ends_with('s'));
        assert!(mk(2e-3).per_window_display().contains("ms"));
        assert!(mk(2e-6).per_window_display().contains("µs"));
    }

    #[test]
    fn timing_runs_and_orders_methods() {
        // Tiny sample counts — this is a smoke test, the bench bins use
        // larger ones.
        let funnel = time_method(Method::Funnel, 40);
        let mrls = time_method(Method::Mrls, 10);
        assert!(funnel.seconds_per_window > 0.0);
        assert!(
            mrls.seconds_per_window > funnel.seconds_per_window,
            "MRLS {} vs FUNNEL {}",
            mrls.seconds_per_window,
            funnel.seconds_per_window
        );
    }
}
