//! SST configuration.
//!
//! The paper fixes most of SST's five parameters using the guidance of
//! Idé–Tsuda and Mohammad–Nishida (§3.2.2–3.2.3): `ρ = 0`, `γ = δ = ω`,
//! `η = 3`, and the Krylov dimension `k` from Eq. 14. Those are fixed here
//! too ([`ETA`], [`KRYLOV_DIM`], and the segment lengths `2ω − 1`). That
//! leaves only the sub-window length `ω`, which trades detection speed
//! against precision ("for a service that needs quick mitigation … ω can be
//! set to a small value such as 5; for … more precise assessment … a larger
//! value such as 15"). FUNNEL's evaluation uses `ω = 9`, i.e. a sliding
//! window of `W = 4ω − 2 = 34` one-minute samples.

/// Signal-subspace dimension `η`: "3 or 4 is suitable … even when ω is on
/// the order of 100"; the paper uses 3.
pub const ETA: usize = 3;

/// The Krylov dimension `k` of Eq. 14 for the odd [`ETA`]: `2η − 1`.
pub const KRYLOV_DIM: usize = 2 * ETA - 1;

/// Which extreme of the future Gram spectrum supplies the η test directions.
///
/// Paper §3.2.2 says "the η eigenvectors of A(t)A(t)ᵀ with the smallest
/// corresponding eigenvalues", but weights them by eigenvalue in Eq. 9 and
/// cites robust-SST work that uses the largest. `Largest` is the default;
/// `Smallest` is kept for the ablation bench (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigSelection {
    /// Use the η dominant eigenvectors of the future Gram (default).
    Largest,
    /// Use the η eigenvectors with the smallest eigenvalues (the paper's
    /// literal wording).
    Smallest,
}

/// Parameters shared by every SST variant.
///
/// Every window is robust-standardized by its past segment before the
/// trajectory matrices are built (`layout::standardize_by_past`), which
/// makes scores and filter factors comparable across KPIs of different
/// magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct SstConfig {
    /// Sub-window (column) length `ω` of the Hankel trajectory matrices,
    /// which is also the number of past (`δ`) and future (`γ`) columns.
    pub omega: usize,
    /// Which future eigenvectors to test (see [`EigSelection`]).
    pub eig_selection: EigSelection,
    /// Whether to apply the median/MAD robustness filter of Eq. 11
    /// (disabled only by the ablation bench).
    pub median_mad_filter: bool,
}

impl SstConfig {
    /// The paper's evaluation configuration: `ω = 9` ⇒ `W = 34`.
    pub fn paper_default() -> Self {
        Self::with_omega(9)
    }

    /// The "quick mitigation" configuration (`ω = 5`).
    pub fn quick() -> Self {
        Self::with_omega(5)
    }

    /// A configuration with the given `ω` and all other parameters at the
    /// paper's settings. Panics if `omega < 2`.
    pub fn with_omega(omega: usize) -> Self {
        assert!(omega >= 2, "omega must be at least 2");
        Self {
            omega,
            eig_selection: EigSelection::Largest,
            median_mad_filter: true,
        }
    }

    /// Number of samples each of the past and future segments spans:
    /// `2ω − 1`.
    pub fn past_len(&self) -> usize {
        2 * self.omega - 1
    }

    /// Number of samples the future segment spans, the past's `2ω − 1`.
    pub fn future_len(&self) -> usize {
        self.past_len()
    }

    /// Total sliding-window width `W = past_len + future_len = 4ω − 2`.
    pub fn window_len(&self) -> usize {
        self.past_len() + self.future_len()
    }

    /// Validates internal consistency: `ω` must hold [`ETA`] directions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.omega < ETA {
            return Err(format!(
                "omega ({}) must be at least eta ({ETA})",
                self.omega
            ));
        }
        Ok(())
    }
}

impl Default for SstConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let c = SstConfig::paper_default();
        assert_eq!(c.omega, 9);
        assert_eq!(c.window_len(), 34, "W_FUNNEL = 34 in §4.1");
        assert_eq!(KRYLOV_DIM, 5, "k = 2η−1 for η = 3");
        assert_eq!(c.past_len(), 17);
        assert_eq!(c.future_len(), 17);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quick_and_precise_presets() {
        assert_eq!(SstConfig::quick().window_len(), 18);
        assert_eq!(SstConfig::with_omega(15).window_len(), 58);
    }

    #[test]
    fn validation_catches_bad_eta() {
        assert!(SstConfig::with_omega(2).validate().is_err());
        assert!(SstConfig::with_omega(3).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "omega must be at least 2")]
    fn with_omega_rejects_tiny() {
        let _ = SstConfig::with_omega(1);
    }
}
