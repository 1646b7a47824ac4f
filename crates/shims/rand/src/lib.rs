//! Offline stand-in for `rand`.
//!
//! Provides the subset this workspace uses: a deterministic
//! [`rngs::StdRng`] seeded via [`SeedableRng::seed_from_u64`], the
//! [`Rng`] core trait, and [`RngExt::random`] for uniform `f64` and `u64`.
//! The generator is xoshiro256++ with a splitmix64 seed expansion, so
//! every stream is fully reproducible from its seed. See
//! `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]

/// Core trait: a source of uniformly distributed 64-bit words.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from raw random bits.
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniform sample of `T` (`f64` lands in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform integer in `[0, bound)`; `bound` must be non-zero.
    fn random_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random_below bound must be non-zero");
        // Multiply-shift bounded sampling; bias is negligible for the
        // simulation's bounds (≪ 2^64).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Construction of reproducible generators.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{splitmix64, Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            Self { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| StdRng::seed_from_u64(7).random()).collect();
        assert!(xs.iter().all(|&x| x == xs[0]));
        assert_ne!(StdRng::seed_from_u64(7).random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn f64_in_unit_interval_and_spread() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..1000).map(|_| rng.random::<f64>()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(rng.random_below(13) < 13);
        }
    }
}
