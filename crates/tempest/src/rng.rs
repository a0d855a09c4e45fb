//! The workspace's one source of pseudo-randomness: the fault layer's
//! [`SplitMix64`], the applications' input generator [`Xoshiro256pp`], and
//! the seeded case runner ([`cases`], [`replay`], [`Gen`]) the property
//! tests draw from. Every stream is a function of its seed alone, so fault
//! schedules, application inputs and failing test cases are stable across
//! toolchains and the workspace needs no external crate.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small, fast, seedable PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream's increment (2^64 / φ); also a good odd multiplier for
    /// folding a small key into a seed.
    pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Create a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(SplitMix64::GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Bernoulli draw with probability `per_mille`/1000.
    pub fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.next_u64() % 1000 < u64::from(per_mille)
    }

    /// Uniform draw in `1..=max` (returns 1 when `max <= 1`).
    pub fn up_to(&mut self, max: u32) -> u32 {
        if max <= 1 {
            1
        } else {
            1 + (self.next_u64() % u64::from(max)) as u32
        }
    }
}

/// The first output of the [`SplitMix64`] stream seeded with `x`: a
/// stateless 64-bit hash.
pub fn mix64(x: u64) -> u64 {
    SplitMix64(x).next_u64()
}

/// xoshiro256++ seeded through SplitMix64 — the generator `rand` 0.8 ships
/// as `SmallRng` on 64-bit targets, stream for stream, so the applications
/// generate the inputs behind `results/BENCH_prescient.json`.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp([u64; 4]);

impl Xoshiro256pp {
    /// Create a generator from one integer.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut sm = SplitMix64(seed);
        Xoshiro256pp(std::array::from_fn(|_| sm.next_u64()))
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform draw from the half-open `range` (`rand`'s `gen_range`).
    #[inline]
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "range_f64: empty range");
        let scale = range.end - range.start;
        loop {
            // 52 random mantissa bits under exponent 0: uniform in [1, 2).
            let one_to_two = f64::from_bits((self.next_u64() >> 12) | 1023 << 52);
            let v = (one_to_two - 1.0) * scale + range.start;
            // Rounding can land exactly on the excluded end; draw again.
            if v < range.end {
                return v;
            }
        }
    }
}

/// The values one property-test case draws. `size` (1..=100) scales the
/// upper bound of every [`Gen::len`], so early cases are small.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
    size: usize,
}

impl Gen {
    /// Any `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.u64() % n
    }

    /// Uniform in the half-open `r`.
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        r.start + self.below(r.end - r.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// One element of `xs`.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A collection length in `r`, its span scaled down by the case size.
    pub fn len(&mut self, r: Range<usize>) -> usize {
        r.start + self.below(((r.end - r.start) * self.size / 100).max(1) as u64) as usize
    }

    /// [`Gen::len`]`(len)` elements drawn by `elem`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.len(len)).map(|_| elem(self)).collect()
    }
}

/// Run `prop` on `n` seeded cases of growing size (case `i` at
/// `100 (i + 1) / n` percent), the same cases every run.
///
/// # Panics
///
/// When a case panics: with that case's message and the `(seed, size)`
/// that [`replay`] takes to run it alone. There is no shrinking; the first
/// failing case is the smallest one tried.
pub fn cases(n: usize, mut prop: impl FnMut(&mut Gen)) {
    let mut seeds = SplitMix64(0x5EED_CA5E);
    for i in 0..n {
        let (seed, size) = (seeds.next_u64(), (100 * (i + 1)).div_ceil(n));
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| replay(seed, size, &mut prop))) {
            let why = p.downcast_ref::<String>().map(String::as_str);
            let why = why.or_else(|| p.downcast_ref::<&str>().copied()).unwrap_or("(no message)");
            panic!("case {i} of {n} failed; rng::replay({seed:#x}, {size}, ..) reruns it: {why}");
        }
    }
}

/// Run `prop` on the one case `(seed, size)` names.
pub fn replay<R>(seed: u64, size: usize, prop: impl FnOnce(&mut Gen) -> R) -> R {
    prop(&mut Gen { rng: SplitMix64(seed), size })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rand` 0.8's `SmallRng::seed_from_u64`, captured at the parent
    /// commit from the stand-in the repo benchmark links.
    #[test]
    fn xoshiro_streams_equal_the_parent_commits() {
        let first8 = |seed| {
            let mut r = Xoshiro256pp::seed_from_u64(seed);
            std::array::from_fn::<u64, 8, _>(|_| r.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
                0x7eca04ebaf4a5eea,
                0x0543c37757f08d9a,
                0xdb7490c75ab5026e,
                0xd87343e6464bc959
            ]
        );
        assert_eq!(
            first8(0x5EED),
            [
                0x8eb2871b24ae0c00,
                0xfdd2c14d7560f757,
                0x17460bdf1e7c3333,
                0x6ff7f624b0c6310f,
                0x6eaaa03fa515b2f2,
                0x640c127c1fdb9ea4,
                0x4689b4686741e7d5,
                0xbd3c9c3434b611b7
            ]
        );
    }

    #[test]
    fn splitmix_is_the_reference_stream_and_mix64_its_first_output() {
        let mut z = SplitMix64::new(0);
        assert_eq!([z.next_u64(), z.next_u64()], [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4]);
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(7), SplitMix64::new(7).next_u64());
    }

    #[test]
    fn range_f64_redraws_when_rounding_lands_on_the_excluded_end() {
        // Four representable values below the end: a draw in the top
        // eighth of [1, 2) rounds up onto the end and must cost exactly
        // one more draw, never be returned.
        let end = f64::from_bits(1.0f64.to_bits() + 4);
        let mut r = Xoshiro256pp::seed_from_u64(1);
        let mut raw = r.clone();
        let mut redraws = 0;
        for _ in 0..64 {
            let want = loop {
                let unit = f64::from_bits((raw.next_u64() >> 12) | 1023 << 52) - 1.0;
                let v = unit * (end - 1.0) + 1.0;
                if v < end {
                    break v;
                }
                redraws += 1;
            };
            assert_eq!(r.range_f64(1.0..end).to_bits(), want.to_bits());
        }
        assert!(redraws > 0, "64 draws at 1/8 must hit the end at least once");
    }

    #[test]
    fn cases_repeat_and_sizes_grow() {
        let draw = || {
            let mut seen = Vec::new();
            cases(10, |g| seen.push((g.size, g.u64(), g.len(0..200))));
            seen
        };
        let (a, b) = (draw(), draw());
        assert_eq!(a, b, "two runs draw the same values");
        let sizes: Vec<usize> = a.iter().map(|c| c.0).collect();
        assert_eq!(sizes, [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        for (size, _, len) in a {
            assert!(len < (2 * size).max(1), "size {size} caps a 0..200 length at {len}");
        }
    }

    #[test]
    fn a_failing_case_names_the_seed_and_size_that_replay_it() {
        let prop = |g: &mut Gen| {
            let v = g.vec(0..50, |g| g.range(0..1000));
            assert!(v.len() < 20, "too long: {}", v.len());
        };
        let p = catch_unwind(|| cases(64, prop)).expect_err("long vectors fail");
        let msg = p.downcast_ref::<String>().expect("a formatted panic");
        let (call, why) = msg.split_once(", ..) reruns it: ").expect("names a replay");
        let (seed, size) = call
            .split_once("rng::replay(0x")
            .expect("the call")
            .1
            .split_once(", ")
            .expect("two arguments");
        let (seed, size) =
            (u64::from_str_radix(seed, 16).expect("hex"), size.parse().expect("size"));
        // Lengths below 20 need no more than size 40; the first failure
        // comes soon after, not at full size.
        assert!((41..80).contains(&size), "{msg}");
        let again = catch_unwind(|| replay(seed, size, prop)).expect_err("replay fails too");
        assert_eq!(again.downcast_ref::<String>().expect("formatted"), why);
    }
}
