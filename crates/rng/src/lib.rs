//! Parallel pseudo-random number generation for quantum Monte Carlo.
//!
//! A 1993-era massively parallel Monte Carlo code lives or dies by its
//! random-number strategy: every processor needs its *own* stream, the
//! streams must be statistically independent, and a run must be exactly
//! reproducible for a given `(seed, nranks)` pair. This crate provides the
//! generators such codes used (and their modern, better-understood
//! relatives), all with explicit stream-splitting support:
//!
//! * [`SplitMix64`] — a seed expander / fast scrambling generator, and a
//!   counter-based one: [`SplitMix64::at`] is any output of any keyed
//!   stream in O(1).
//! * [`Lcg64`] — 64-bit linear congruential generator with *O(log n)*
//!   jump-ahead, enabling leapfrog and block splitting across ranks.
//! * [`Xoshiro256StarStar`] — high-quality general-purpose generator with a
//!   polynomial jump of 2^128 steps for stream separation.
//! * [`LaggedFibonacci55`] — the additive lagged-Fibonacci generator
//!   r(55, 24) that was the workhorse of early parallel QMC codes.
//!
//! All generators implement the [`Rng64`] trait, which supplies the
//! distributions Monte Carlo kernels need (uniform `f64`, ranges,
//! Bernoulli, Gaussian) on top of a raw `u64` source.
//!
//! # Stream splitting
//!
//! [`StreamFactory`] hands out per-rank generators by one rule: rank *r*
//! gets a [`Xoshiro256StarStar`] seeded from a [`SplitMix64`] re-keying of
//! `(seed, r)` and then jumped 2^128 steps, so building any rank's stream
//! is O(1) and does not depend on how many ranks exist. Most engines take
//! one draw per sweep from it as a key and read every decision of the
//! sweep at a counter index of [`SplitMix64::at`].
//!
//! The two classic per-rank rules remain with their families, for the
//! `repro t6` stream-quality table that sets them beside the factory:
//! block splitting by jump-ahead ([`Lcg64::block_stream`], rank *r* at
//! position `r * 2^40` of one master sequence) and parameterization
//! ([`LaggedFibonacci55::param_stream`], a lag table filled from a
//! rank-keyed SplitMix sequence).
//!
//! ```
//! use qmc_rng::{Rng64, StreamFactory};
//!
//! // One reproducible, independent stream per parallel rank:
//! let factory = StreamFactory::new(42);
//! let mut rank0 = factory.stream(0);
//! let mut rank1 = factory.stream(1);
//! assert_ne!(rank0.next_u64(), rank1.next_u64());
//!
//! // Monte Carlo helpers on any generator:
//! let accept = rank0.metropolis(0.75); // true with probability 0.75
//! let idx = rank0.index(10);           // uniform in 0..10
//! assert!(idx < 10);
//! let _ = accept;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counting;
mod lcg;
mod lfg;
mod splitmix;
mod stream;
mod xoshiro;

pub use counting::CountingRng;
pub use lcg::Lcg64;
pub use lfg::LaggedFibonacci55;
pub use splitmix::SplitMix64;
pub use stream::StreamFactory;
pub use xoshiro::Xoshiro256StarStar;

/// The raw → unit-interval map behind [`Rng64::next_f64`]: the top 53 bits
/// of `raw` times 2⁻⁵³, a value in `[0, 1)`.
///
/// Both steps are exact in `f64` (an integer below 2⁵³, then a power-of-two
/// scale), so for any `p` in `[0, 1)` the comparison `unit_f64(raw) < p` is
/// the integer comparison `(raw >> 11) < ⌈p·2⁵³⌉`. Kernels that resolve
/// acceptances on raw draws (the TFIM colour kernel and the world-line
/// corner-move row kernel, through [`threshold`]) rest on that identity
/// and cite this function as its one definition.
#[inline]
pub fn unit_f64(raw: u64) -> f64 {
    const SCALE: f64 = 1.0 / ((1u64 << 53) as f64);
    ((raw >> 11) as f64) * SCALE
}

/// [`threshold`] of a ratio `≥ 1`: above every `raw >> 11`, and the mark of
/// "accepted without consuming a draw".
pub const NO_DRAW: u64 = u64::MAX;

/// The predicate of [`Rng64::metropolis`] for one tabulated `ratio` as an
/// integer threshold on `raw >> 11`: [`NO_DRAW`] where `ratio ≥ 1`,
/// `⌈ratio·2⁵³⌉` otherwise.
///
/// [`unit_f64`] maps a raw draw to `n·2⁻⁵³` with `n = raw >> 11`, exactly;
/// scaling an `f64` below 1 by 2⁵³ is exact too (a power of two, and it
/// cannot overflow), and for an integer `n`, `n < y ⇔ n < ⌈y⌉`. So
/// `n < threshold(ratio)` is `ratio >= 1.0 || unit_f64(raw) < ratio` for
/// every `raw` and every `ratio` — 0, subnormals and `1 − 2⁻⁵³` included —
/// and a draw is consumed exactly when the threshold is not `NO_DRAW`.
/// Meant for building a kernel's table, not for its inner loop.
pub fn threshold(ratio: f64) -> u64 {
    if ratio >= 1.0 {
        NO_DRAW
    } else {
        (ratio * (1u64 << 53) as f64).ceil() as u64
    }
}

/// A source of raw 64-bit randomness plus the derived distributions Monte
/// Carlo kernels need.
///
/// The provided methods are deliberately simple and allocation-free; they
/// are called in the innermost loops of every update kernel in the
/// workspace.
pub trait Rng64 {
    /// Produce the next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Fill `out` with consecutive raw outputs — exactly the sequence
    /// repeated [`Self::next_u64`] calls would produce, so a kernel that
    /// draws a batch at once follows the same trajectory as one that
    /// draws one at a time. [`Xoshiro256StarStar`] overrides this to keep
    /// its state in registers across the whole batch, which the packed
    /// TFIM replicas draw their lanes through.
    fn fill_u64(&mut self, out: &mut [u64]) {
        for slot in out.iter_mut() {
            *slot = self.next_u64();
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0) is meaningless");
        // Fast path for powers of two.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    #[inline]
    fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Metropolis acceptance: accept with probability `min(1, ratio)`.
    ///
    /// Avoids drawing a random number when `ratio >= 1`, which matters in
    /// the hot loop (roughly half of all proposals in equilibrium).
    #[inline]
    fn metropolis(&mut self, ratio: f64) -> bool {
        ratio >= 1.0 || self.next_f64() < ratio
    }

    /// Standard normal deviate via the Marsaglia polar method.
    fn gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    #[inline]
    fn fill_u64(&mut self, out: &mut [u64]) {
        (**self).fill_u64(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared helper: first/second moments of `n` uniform draws.
    fn moments<R: Rng64>(rng: &mut R, n: usize) -> (f64, f64) {
        let mut s = 0.0;
        let mut s2 = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            s += x;
            s2 += x * x;
        }
        (s / n as f64, s2 / n as f64)
    }

    fn check_uniform_moments<R: Rng64>(rng: &mut R) {
        let n = 200_000;
        let (m1, m2) = moments(rng, n);
        // mean 1/2 (σ = 1/√(12 n)), second moment 1/3.
        let tol = 5.0 / (12.0f64 * n as f64).sqrt();
        assert!((m1 - 0.5).abs() < tol, "mean {m1} off");
        assert!((m2 - 1.0 / 3.0).abs() < 3.0 * tol, "m2 {m2} off");
    }

    #[test]
    fn uniform_moments_all_generators() {
        check_uniform_moments(&mut SplitMix64::new(12345));
        check_uniform_moments(&mut Lcg64::new(12345));
        check_uniform_moments(&mut Xoshiro256StarStar::new(12345));
        check_uniform_moments(&mut LaggedFibonacci55::new(12345));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_is_unit_f64_of_the_raw_stream_all_generators() {
        // `next_f64` used to spell the map out in place; routing it
        // through `unit_f64` must not move a bit of any stream.
        fn check<R: Rng64 + Clone>(rng: R) {
            let (mut raw, mut unit) = (rng.clone(), rng);
            for _ in 0..10_000 {
                let x = raw.next_u64();
                let spelled_out = ((x >> 11) as f64) * (1.0 / ((1u64 << 53) as f64));
                assert_eq!(unit.next_f64().to_bits(), spelled_out.to_bits());
                assert_eq!(unit_f64(x).to_bits(), spelled_out.to_bits());
            }
        }
        check(SplitMix64::new(5));
        check(Lcg64::new(5));
        check(Xoshiro256StarStar::new(5));
        check(LaggedFibonacci55::new(5));
        assert_eq!(unit_f64(u64::MAX), 1.0 - 2f64.powi(-53));
        assert_eq!(unit_f64((1 << 11) - 1), 0.0);
    }

    #[test]
    fn next_below_bounds_and_coverage() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn next_below_power_of_two() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(rng.next_below(64) < 64);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = Lcg64::new(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn metropolis_always_accepts_ratio_ge_one() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            assert!(rng.metropolis(1.0));
            assert!(rng.metropolis(17.5));
        }
    }

    #[test]
    fn metropolis_never_accepts_zero() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(!rng.metropolis(0.0));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256StarStar::new(2024);
        let n = 200_000;
        let mut s = 0.0;
        let mut s2 = 0.0;
        let mut s4 = 0.0;
        for _ in 0..n {
            let x = rng.gaussian();
            s += x;
            s2 += x * x;
            s4 += x * x * x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64;
        let kurt = s4 / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        assert!((kurt - 3.0).abs() < 0.15, "kurtosis {kurt}");
    }

    #[test]
    fn fill_u64_matches_repeated_next_u64_all_generators() {
        // Xoshiro's batched override, `CountingRng`'s forwarding and the
        // trait default behind the rest (the factory's stream included)
        // must all serve the `next_u64` sequence.
        fn check<R: Rng64 + Clone>(rng: R) {
            for len in [0usize, 1, 7, 256, 1000] {
                let mut a = rng.clone();
                let mut b = rng.clone();
                let mut bulk = vec![0u64; len];
                a.fill_u64(&mut bulk);
                let single: Vec<u64> = (0..len).map(|_| b.next_u64()).collect();
                assert_eq!(bulk, single, "len = {len}");
                assert_eq!(a.next_u64(), b.next_u64(), "state after len = {len}");
            }
        }
        check(SplitMix64::new(9));
        check(Lcg64::new(9));
        check(Xoshiro256StarStar::new(9));
        check(LaggedFibonacci55::new(9));
        check(StreamFactory::new(9).stream(3));
        check(CountingRng::new(Xoshiro256StarStar::new(9)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // and it actually moved something (overwhelmingly likely)
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chi_square_bytes() {
        // χ² over 256 byte buckets for each generator; 5σ band.
        fn chi2<R: Rng64>(rng: &mut R) -> f64 {
            let n = 1 << 16;
            let mut counts = [0u32; 256];
            for _ in 0..n {
                let x = rng.next_u64();
                for b in x.to_le_bytes() {
                    counts[b as usize] += 1;
                }
            }
            let expected = (n * 8) as f64 / 256.0;
            counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum()
        }
        // χ²(255 dof): mean 255, σ = √(2·255) ≈ 22.6
        for chi in [
            chi2(&mut SplitMix64::new(42)),
            chi2(&mut Lcg64::new(42)),
            chi2(&mut Xoshiro256StarStar::new(42)),
            chi2(&mut LaggedFibonacci55::new(42)),
        ] {
            assert!((chi - 255.0).abs() < 5.0 * 22.6, "chi2 = {chi}");
        }
    }
}
