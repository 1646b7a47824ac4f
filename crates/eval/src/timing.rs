//! Single-thread per-window timing and the Table-2 projection.
//!
//! Table 2 reports each method's average computational time per sliding
//! window on one core, then projects "# cores for one million KPIs": with
//! one window per KPI per minute, a method that needs `t` seconds per
//! window needs `⌈10⁶·t / 60⌉` cores to keep up.

#![expect(
    clippy::disallowed_methods,
    reason = "Table 2 is a clock reading: this module and obs's clock::now_ns own the wall clock"
)]

use crate::methods::{Method, MethodRunner};
use funnel_sst::filter::FilterFactors;
use funnel_sst::layout::standardize_by_past_into;
use funnel_sst::{FastSst, SlidingSegments, SstConfig, SstWorkspace};
use funnel_timeseries::generate::{KpiClass, KpiGenerator};
use funnel_timeseries::series::TimeSeries;
use std::time::Instant;

/// Cores needed to score one million KPIs once a minute at `seconds` of
/// wall clock per window.
pub fn cores_for_million_kpis(seconds: f64) -> u64 {
    (1_000_000.0 * seconds / 60.0).ceil() as u64
}

/// Human-friendly per-window time.
pub fn per_window_display(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.1} µs", seconds * 1e6)
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

/// Mean wall-clock seconds of `method`'s full window score over `windows`
/// sliding windows of realistic mixed-class KPI data (deterministic),
/// single-threaded.
pub fn time_method(method: Method, windows: usize) -> f64 {
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

    elapsed / windows as f64
}

/// Mean wall-clock seconds a window costs `method`'s *detector*: the calibrated
/// [`MethodRunner::run`] (threshold, persistence, and whatever the scorer
/// and the persistence rule can skip once they know the threshold) over the
/// same mixed-class data, divided by the windows it slid over — about
/// `windows` in total.
pub fn time_detector(method: Method, windows: usize) -> f64 {
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

    elapsed / slid as f64
}

/// Mean wall-clock seconds FUNNEL's Eq. 11 bound costs a window, three ways
/// over the same mixed-class windows.
#[derive(Debug, Clone, Copy)]
pub struct BoundCost {
    /// Each window the one-minute successor of the last: one sample out of
    /// each sorted segment, one in.
    pub sliding: f64,
    /// No window a successor (the series alternate through one sliding
    /// state): both segments sorted afresh.
    pub rebuilt: f64,
    /// The path the sorted segments replaced, still shipped for non-finite
    /// data: six selections over a freshly standardized copy.
    pub selected: f64,
}

/// Times [`FastSst::may_reach_in`] at FUNNEL's threshold over about
/// `windows` sliding windows, in series order and round-robin, and the
/// selections it used to be.
pub fn time_bound(windows: usize) -> BoundCost {
    let config = SstConfig::paper_default();
    let (w, p) = (config.window_len(), config.past_len());
    let threshold = Method::Funnel.threshold();
    let scorer = FastSst::new(config.clone());
    let mut ws = SstWorkspace::new(&config);
    let mut segments = SlidingSegments::new(&config);
    let data = mixed_class_data(windows / KpiClass::ALL.len() + w);
    let per_series = data[0].len() + 1 - w;
    let total = (per_series * data.len()) as f64;
    let round_robin = || (0..per_series).flat_map(|i| data.iter().map(move |d| &d[i..i + w]));

    let mut screened = [0usize; 3];
    let start = Instant::now();
    for d in &data {
        for win in d.windows(w) {
            screened[0] +=
                usize::from(!scorer.may_reach_in(&mut ws, &mut segments, win, threshold));
        }
    }
    let sliding = start.elapsed().as_secs_f64() / total;

    let start = Instant::now();
    for win in round_robin() {
        screened[1] += usize::from(!scorer.may_reach_in(&mut ws, &mut segments, win, threshold));
    }
    let rebuilt = start.elapsed().as_secs_f64() / total;

    let (mut loaded, mut scratch) = (vec![0.0; w], Vec::with_capacity(w));
    let start = Instant::now();
    for win in round_robin() {
        standardize_by_past_into(win, p, &mut scratch, &mut loaded);
        let (past, future) = loaded.split_at(p);
        let m = FilterFactors::from_segments_with(past, future, &mut scratch).multiplier();
        screened[2] += usize::from(m < threshold);
    }
    let selected = start.elapsed().as_secs_f64() / total;
    // One bound, three spellings: each screens the same windows.
    assert!(screened[0] == screened[1] && screened[1] == screened[2]);

    BoundCost {
        sliding,
        rebuilt,
        selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_projection_math() {
        assert_eq!(cores_for_million_kpis(401.8e-6), 7); // the paper's own row
        assert_eq!(cores_for_million_kpis(2.852), 47_534); // ⌈2.852e6/60⌉
    }

    #[test]
    fn display_units() {
        assert!(per_window_display(2.0).ends_with('s'));
        assert!(per_window_display(2e-3).contains("ms"));
        assert!(per_window_display(2e-6).contains("µs"));
    }

    #[test]
    fn timing_runs_and_orders_methods() {
        // Tiny sample counts — this is a smoke test, the bench bins use
        // larger ones.
        let funnel = time_method(Method::Funnel, 40);
        let mrls = time_method(Method::Mrls, 10);
        assert!(funnel > 0.0);
        assert!(mrls > funnel, "MRLS {} vs FUNNEL {}", mrls, funnel);
        let bound = time_bound(60);
        assert!(bound.sliding > 0.0 && bound.rebuilt > 0.0 && bound.selected > 0.0);
    }
}
