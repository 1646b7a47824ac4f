//! The [`grid`] runner behind the `sweep` binary, and the two constants the
//! paper's tables share.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod grid;

/// The seed every committed table is a function of, unless its grid says
/// otherwise (the held-out calibration cohort, the seeds grid).
pub const SEED: u64 = 2015;

/// The §4.2.1 extrapolation factor: 6194 unlabelled clean changes
/// represented by the 72 evaluated ones.
pub const CLEAN_SCALE: f64 = 6194.0 / 72.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scale_matches_paper() {
        assert!((CLEAN_SCALE - 86.02).abs() < 0.1);
    }
}
