//! Adapters exposing the `funnel-sst` scorers as [`WindowScorer`]s.

use crate::detector::{ReachingScorer, WindowScorer};
use funnel_sst::{ClassicSst, FastSst, RobustSst, SstScorer};

/// Newtype adapter: any SST scorer as a [`WindowScorer`].
#[derive(Debug, Clone)]
pub struct SstDetector<S> {
    inner: S,
    name: &'static str,
}

impl SstDetector<FastSst> {
    /// The detector FUNNEL deploys: IKA-accelerated robust SST.
    pub fn fast(inner: FastSst) -> Self {
        Self {
            inner,
            name: "FUNNEL-SST",
        }
    }
}

impl SstDetector<RobustSst> {
    /// Exact robust SST (the "Improved SST" row of Table 1 when run without
    /// DiD).
    pub fn robust(inner: RobustSst) -> Self {
        Self {
            inner,
            name: "Improved-SST",
        }
    }
}

impl SstDetector<ClassicSst> {
    /// Classic SST (pre-§3.2.2 formulation).
    pub fn classic(inner: ClassicSst) -> Self {
        Self {
            inner,
            name: "Classic-SST",
        }
    }
}

impl<S> SstDetector<S> {
    /// The wrapped scorer.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SstScorer> WindowScorer for SstDetector<S> {
    fn window_len(&self) -> usize {
        self.inner.config().window_len()
    }

    fn score(&self, window: &[f64]) -> f64 {
        self.inner.score_window(window)
    }

    fn name(&self) -> &'static str {
        self.name
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
        let scorer = SstDetector::robust(RobustSst::new(SstConfig::paper_default()));
        let v: Vec<f64> = (0..80)
            .map(|i| 10.0 + 0.2 * ((i as f64) * 0.8).sin())
            .collect();
        let runner = DetectorRunner::new(scorer, 0.5, 3);
        assert!(runner.run(&TimeSeries::new(0, v)).is_empty());
    }

    #[test]
    fn classic_adapter_exposes_config_width() {
        let scorer = SstDetector::classic(ClassicSst::new(SstConfig::quick()));
        assert_eq!(scorer.window_len(), SstConfig::quick().window_len());
    }
}
