//! The adapter exposing the deployed `funnel-sst` scorer as a
//! [`WindowScorer`].

use crate::detector::{ReachingScorer, WindowScorer};
use funnel_sst::{FastSst, SstScorer};

/// The detector FUNNEL deploys: IKA-accelerated robust SST ([`FastSst`]) as
/// a [`WindowScorer`]. The exact scorers (`RobustSst`, `ClassicSst`) stay in
/// `funnel-sst`, as its property oracle and the ablations' exact scorer.
#[derive(Debug, Clone)]
pub struct SstDetector {
    inner: FastSst,
}

impl SstDetector {
    /// Wraps `inner`.
    pub fn fast(inner: FastSst) -> Self {
        Self { inner }
    }
}

impl WindowScorer for SstDetector {
    fn window_len(&self) -> usize {
        self.inner.config().window_len()
    }

    fn score(&self, window: &[f64]) -> f64 {
        self.inner.score_window(window)
    }

    fn name(&self) -> &'static str {
        "FUNNEL-SST"
    }

    fn reaching_scorer(&self) -> impl ReachingScorer + '_ {
        self.inner.reaching_scorer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorRunner;
    use funnel_sst::SstConfig;
    use funnel_timeseries::series::TimeSeries;

    #[test]
    fn fast_sst_detects_step_through_driver() {
        let scorer = SstDetector::fast(FastSst::new(SstConfig::paper_default()));
        assert_eq!(scorer.window_len(), 34);
        assert_eq!(scorer.name(), "FUNNEL-SST");

        let mut v: Vec<f64> = (0..80)
            .map(|i| 10.0 + 0.2 * ((i as f64) * 0.8).sin())
            .collect();
        for x in v.iter_mut().skip(40) {
            *x += 8.0;
        }
        let series = TimeSeries::new(0, v);
        let runner = DetectorRunner::new(scorer, 0.3, 3);
        let events = runner.run(&series);
        assert!(!events.is_empty(), "step not detected");
        // Declared after the onset at minute 40.
        assert!(events[0].declared_at >= 40);
    }

    #[test]
    fn quiet_series_stays_quiet() {
        let scorer = SstDetector::fast(FastSst::new(SstConfig::paper_default()));
        let v: Vec<f64> = (0..80)
            .map(|i| 10.0 + 0.2 * ((i as f64) * 0.8).sin())
            .collect();
        let runner = DetectorRunner::new(scorer, 0.5, 3);
        assert!(runner.run(&TimeSeries::new(0, v)).is_empty());
    }
}
