//! Diagnosis knobs.

/// Configuration of the diagnosis pass.
///
/// Diagnosis is strictly opt-in (`enabled` defaults to `false`): the
/// assessment pipeline's verdicts are computed first and never consulted,
/// mutated, or re-ordered by this layer, so enabling it cannot perturb a
/// report — the `diag_determinism` suite byte-compares assessments with the
/// pass on and off to keep that invariant honest.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagConfig {
    /// Whether the diagnosis pass runs at all.
    pub enabled: bool,
    /// Also diagnose `Inconclusive` items (their evidence dossier explains
    /// *why* no verdict exists: coverage, gaps, shed history). `Caused`
    /// items are always diagnosed.
    pub include_inconclusive: bool,
    /// Population-bias threshold on the median divergence between the
    /// treated entity's pre-window samples and the pooled control-pool
    /// pre-window samples, in units of the pool's MAD. Above it the item
    /// is flagged [`crate::bias::BiasFlag::PopulationMismatch`]: the
    /// control pool was not exchangeable with the treated entity *before*
    /// the change, so the DiD counterfactual rests on a shifted population
    /// (Lumos's bias stage).
    pub max_median_divergence: f64,
    /// Population-bias threshold on |treated coverage − control coverage|
    /// over the pre window. Mirrors the DiD engine's
    /// `max_coverage_divergence` member-exclusion rule: a pool measured
    /// much more (or less) completely than the treated entity is
    /// contrasting fills against data.
    pub max_coverage_divergence: f64,
    /// Half-width, in minutes, of the SST score trace captured around the
    /// detection point for the evidence dossier. The trace re-scores only
    /// `2·trace_radius + 1` windows, which is what keeps the whole pass
    /// cheap relative to assessment (the ledger row `diag.ms_per_change`
    /// beside `core.assess.ms_per_change` prices it).
    pub trace_radius: u64,
    /// Zone count for the contribution ranking's shard/zone dimension
    /// (servers are striped `server_id % zones`, matching the simulator's
    /// replay-shard striping).
    pub zones: u32,
}

impl DiagConfig {
    /// The default thresholds with the pass switched on.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

impl Default for DiagConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            include_inconclusive: false,
            max_median_divergence: 3.0,
            max_coverage_divergence: 0.35,
            trace_radius: 15,
            zones: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_with_did_matched_coverage_bar() {
        let c = DiagConfig::default();
        assert!(!c.enabled);
        assert!(!c.include_inconclusive);
        assert_eq!(c.max_median_divergence, 3.0);
        // Mirrors DidConfig::default().max_coverage_divergence.
        assert_eq!(c.max_coverage_divergence, 0.35);
        assert_eq!(c.trace_radius, 15);
        assert_eq!(c.zones, 4);
        assert!(DiagConfig::on().enabled);
    }
}
