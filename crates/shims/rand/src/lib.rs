//! Offline stand-in for the `rand` crate.
//!
//! Implements the subset of the rand 0.8 API this workspace uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and
//! [`Rng::gen_range`] over integer `Range`s. The generator is a
//! deterministic SplitMix64 — statistically fine for workload
//! generation and seeded tests, **not** cryptographically secure
//! (neither is this workspace's use of it; see `fhe-lite`'s docs).

#![warn(missing_docs)]

use std::ops::Range;

/// Core random source: a stream of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable construction (rand 0.8 surface subset).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling conveniences over an [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (half-open).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// A range that can produce a uniform sample.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % span;
                (self.start as i128 + r as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator (stands in for rand's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            Self { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let mut c = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0..1_000_000u64)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0..1_000_000u64)).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.gen_range(0..1_000_000u64)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17i64);
            assert!((3..17).contains(&v));
        }
        // Small ranges hit every value.
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[rng.gen_range(0..3u8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
