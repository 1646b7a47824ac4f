//! Diagnosis knobs.

/// Configuration of the diagnosis pass.
///
/// Diagnosis is strictly opt-in (`enabled` defaults to `false`): the
/// assessment pipeline's verdicts are computed first and never consulted,
/// mutated, or re-ordered by this layer, so enabling it cannot perturb a
/// report — the `diag_determinism` suite byte-compares assessments with the
/// pass on and off to keep that invariant honest. The pass explains the
/// `Caused` items only; its thresholds are constants beside their one
/// reader ([`crate::bias`], and the trace radius and zone count in
/// `funnel-core`'s `diagnose` module).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagConfig {
    /// Whether the diagnosis pass runs at all.
    pub enabled: bool,
}

impl DiagConfig {
    /// The pass switched on.
    pub fn on() -> Self {
        Self { enabled: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_with_did_matched_coverage_bar() {
        assert!(!DiagConfig::default().enabled);
        assert!(DiagConfig::on().enabled);
        // Mirrors funnel_did::groups::MAX_COVERAGE_DIVERGENCE.
        assert_eq!(crate::bias::MAX_COVERAGE_DIVERGENCE, 0.35);
    }
}
