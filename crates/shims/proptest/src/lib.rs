//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, range and collection strategies, `any::<T>()` for
//! the integer types and `bool` the tests draw, `prop::sample::Index`, and
//! the `prop_assert*`/`prop_assume!` macros. Each test runs a configurable
//! number of deterministically seeded cases (seeded from the test's module
//! path, so failures reproduce); there is no shrinking. See
//! `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Deterministic case runner plumbing used by the [`crate::proptest!`]
    //! macro expansion.

    /// Run configuration; only `cases` is honoured.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Marker returned (via `Err`) by `prop_assume!` to skip a case.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Rejected;

    /// Deterministic per-test generator (xoshiro256++ seeded from the
    /// test's name via FNV-1a, so reruns see identical inputs).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// A generator seeded from `name`.
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf29ce484222325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            let mut sm = h;
            let mut s = [0u64; 4];
            for word in &mut s {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its implementations for ranges.

    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            let v = self.start + rng.unit_f64() * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    macro_rules! uint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    uint_range_strategy!(u8, u16, u32, u64, usize);
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical uniform strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_uint!(u8, u32, u64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A length specification: exact or a half-open range.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, len)` — a vector whose length is drawn from `len`
    /// (an exact `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! `prop::sample` subset.

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An abstract index into any non-empty collection.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..len`; `len` must be non-zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// Namespace mirror so `prop::collection::vec` / `prop::sample::Index`
/// resolve after `use proptest::prelude::*`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    //! The usual glob import.

    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Declares property tests; see the crate docs for the supported forms.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($params:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut __ran: u32 = 0;
                let mut __attempts: u32 = 0;
                while __ran < __config.cases {
                    __attempts += 1;
                    assert!(
                        __attempts <= __config.cases.saturating_mul(100).saturating_add(1000),
                        "proptest: too many inputs rejected by prop_assume!"
                    );
                    if $crate::__proptest_case!(__rng, $body, $($params)*) {
                        __ran += 1;
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ($rng:ident, $body:block $(,)?) => {{
        #[allow(unreachable_code, clippy::redundant_closure_call)]
        let __outcome: ::core::result::Result<(), $crate::test_runner::Rejected> = (|| {
            $body
            ::core::result::Result::Ok(())
        })();
        __outcome.is_ok()
    }};
    ($rng:ident, $body:block, $x:pat in $s:expr $(, $($rest:tt)*)?) => {{
        let $x = $crate::strategy::Strategy::generate(&($s), &mut $rng);
        $crate::__proptest_case!($rng, $body $(, $($rest)*)?)
    }};
}

/// Asserts within a property body (failing the whole test).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+)
    };
}

/// Equality assertion within a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+)
    };
}

/// Skips the current case when `cond` is false (does not count it).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in -5.0..5.0f64, n in 3u64..9, k in 1usize..4) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((3..9).contains(&n));
            prop_assert!((1..4).contains(&k));
        }

        #[test]
        fn vec_lengths_respected(
            xs in prop::collection::vec(0.0..1.0f64, 2..10),
            ys in prop::collection::vec(any::<bool>(), 5),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 10);
            prop_assert_eq!(ys.len(), 5);
        }

        #[test]
        fn assume_skips_but_test_completes(n in 0u64..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn index_projects(ix in any::<prop::sample::Index>(), mut len in 1usize..20) {
            len += 1;
            prop_assert!(ix.index(len) < len);
        }
    }

    #[test]
    fn deterministic_rng_per_name() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        let s = 0.0..1.0f64;
        for _ in 0..16 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
