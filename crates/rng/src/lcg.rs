//! 64-bit linear congruential generator with logarithmic-time jump-ahead.

use crate::Rng64;

/// Knuth's MMIX multiplier — a full-period multiplier mod 2^64.
const MULT: u64 = 6364136223846793005;
/// Any odd increment gives full period; this is the MMIX/PCG default.
const INC: u64 = 1442695040888963407;

/// Linear congruential generator, `s ← a·s + c (mod 2^64)`, with a strong
/// output scrambler and *O(log n)* jump-ahead.
///
/// The LCG recurrence is what makes massively parallel block splitting
/// cheap: `jump(n)` advances the stream by `n` steps in `O(log n)` work, so
/// rank `r` of `P` can be handed the sub-sequence starting at `r·2^40`
/// without generating the prefix. Raw LCG output has weak low bits, so the
/// state is passed through the SplitMix64 finalizer before being returned —
/// the *sequence structure* (and hence jump semantics) is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lcg64 {
    state: u64,
}

impl Lcg64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        // One step immediately decouples the first output from the raw seed.
        let mut g = Self { state: seed };
        g.step();
        g
    }

    /// Advance the underlying recurrence by one step.
    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(MULT).wrapping_add(INC);
    }

    /// Jump the stream forward by `n` steps in `O(log n)` time.
    ///
    /// Uses the standard divide-and-conquer evaluation of
    /// `s_n = a^n s + c (a^n − 1)/(a − 1) (mod 2^64)` (Brown, *Random number
    /// generation with arbitrary strides*): accumulate `(A, C)` such that
    /// the composite map is `s ↦ A·s + C`.
    pub fn jump(&mut self, mut n: u64) {
        let mut acc_mult: u64 = 1;
        let mut acc_plus: u64 = 0;
        let mut cur_mult = MULT;
        let mut cur_plus = INC;
        while n > 0 {
            if n & 1 == 1 {
                acc_mult = acc_mult.wrapping_mul(cur_mult);
                acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
            }
            cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            n >>= 1;
        }
        self.state = self.state.wrapping_mul(acc_mult).wrapping_add(acc_plus);
    }

    /// Construct the block-split stream for `rank`: the master sequence for
    /// `seed`, jumped ahead by `rank · 2^40` steps.
    ///
    /// 2^40 draws per rank is far beyond any single run's consumption, so
    /// blocks never overlap in practice.
    pub fn block_stream(seed: u64, rank: usize) -> Self {
        let mut g = Self::new(seed);
        // Jump in chunks to support rank·2^40 ≥ 2^64 gracefully (wraps are
        // harmless for the recurrence but we avoid the multiply overflow in
        // the argument computation).
        for _ in 0..rank {
            g.jump(1 << 40);
        }
        g
    }
}

impl Rng64 for Lcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step();
        // SplitMix64 finalizer as output function.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl qmc_ckpt::Checkpoint for Lcg64 {
    fn kind(&self) -> &'static str {
        "rng.lcg64"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u64(self.state);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        self.state = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_zero_is_identity() {
        let mut a = Lcg64::new(123);
        let b = a;
        a.jump(0);
        assert_eq!(a, b);
    }

    #[test]
    fn jump_one_equals_step() {
        let mut a = Lcg64::new(123);
        let mut b = a;
        a.jump(1);
        b.step();
        assert_eq!(a, b);
    }

    #[test]
    fn jump_composes() {
        let mut a = Lcg64::new(5);
        let mut b = a;
        a.jump(1000);
        a.jump(234);
        b.jump(1234);
        assert_eq!(a, b);
    }

    #[test]
    fn jump_matches_iterated_step() {
        // Scrambled seeds × a spread of jump distances (including the
        // power-of-two boundaries the O(log n) jump decomposes into).
        for s in 0..16u64 {
            let seed = crate::SplitMix64::new(s).next_u64();
            for n in [0u64, 1, 2, 3, 7, 63, 64, 65, 1000, 4999] {
                let mut jumped = Lcg64::new(seed);
                jumped.jump(n);
                let mut stepped = Lcg64::new(seed);
                for _ in 0..n {
                    stepped.step();
                }
                assert_eq!(jumped, stepped, "seed {seed} n {n}");
            }
        }
    }

    #[test]
    fn block_streams_disjoint_prefixes() {
        // The first outputs of neighbouring rank streams must differ —
        // a trivially necessary condition for block disjointness.
        for s in 0..64u64 {
            let seed = crate::SplitMix64::new(s).next_u64();
            let mut r0 = Lcg64::block_stream(seed, 0);
            let mut r1 = Lcg64::block_stream(seed, 1);
            assert_ne!(r0.next_u64(), r1.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn block_stream_is_master_sequence_suffix() {
        let seed = 777;
        let mut master = Lcg64::new(seed);
        master.jump(1 << 40);
        let mut rank1 = Lcg64::block_stream(seed, 1);
        for _ in 0..32 {
            assert_eq!(master.next_u64(), rank1.next_u64());
        }
    }

    #[test]
    fn full_period_multiplier_sanity() {
        // MULT ≡ 5 (mod 8) is the Hull–Dobell-style full-period condition
        // for power-of-two moduli (with odd increment).
        assert_eq!(MULT % 8, 5);
        assert_eq!(INC % 2, 1);
    }
}
