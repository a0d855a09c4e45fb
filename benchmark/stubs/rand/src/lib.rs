//! Offline stand-in for `rand` 0.8: `SmallRng::seed_from_u64` and
//! `Rng::gen_range` over `f64`, the surface the apps' input generators
//! use. The generator is the one `rand` 0.8 ships as `SmallRng` on 64-bit
//! targets (xoshiro256++ seeded through SplitMix64) and the float draw is
//! its `[1, 2) − 1` construction, so the apps generate the inputs behind
//! `results/BENCH_prescient.json`.

use std::ops::Range;

/// Source of 64-bit values.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seeding from one integer.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        let scale = range.end - range.start;
        loop {
            // 52 random mantissa bits under exponent 0: uniform in [1, 2).
            let one_to_two = f64::from_bits((rng.next_u64() >> 12) | 1023 << 52);
            let v = (one_to_two - 1.0) * scale + range.start;
            // Rounding can land exactly on the excluded end; draw again.
            if v < range.end {
                return v;
            }
        }
    }
}

/// Convenience draws.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng([u64; 4]);

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> SmallRng {
            let mut state = seed;
            let mut splitmix = || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            SmallRng([splitmix(), splitmix(), splitmix(), splitmix()])
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.0;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
