//! SplitMix64: Steele, Lea & Flood's fast seed-expansion generator.

use crate::Rng64;

/// The golden-ratio increment SplitMix64 adds to its state per output.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The output function: Stafford's "Mix13" finaliser of a state.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 generator.
///
/// Period 2^64; every 64-bit seed gives a distinct full-period sequence.
/// Primarily used here to expand a single user seed into the larger state
/// of the other generators and to derive per-rank parameterized seeds, but
/// it is also a respectable generator in its own right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Output number `index` (from 0) of the stream `SplitMix64::new(key)`,
    /// in O(1): what its `index + 1`-th [`Rng64::next_u64`] returns.
    ///
    /// SplitMix64 is counter-based by construction — its state after `i`
    /// outputs is `key + i·γ` — so any output is one multiply and one mix
    /// away, and a draw can be named by `(key, index)` instead of by its
    /// place in a sequence. The distributed TFIM engine draws for every
    /// site this way, so its trajectory does not depend on which rank
    /// owns the site.
    #[inline(always)]
    pub fn at(key: u64, index: u64) -> u64 {
        mix(key.wrapping_add(index.wrapping_add(1).wrapping_mul(GAMMA)))
    }

    /// The key of the stream `key` moved on `steps` outputs:
    /// `at(advance(key, steps), i) == at(key, steps + i)` for every `i`
    /// (all wrapping). One multiply; and since a key moves linearly,
    /// `advance(key, a + b) == advance(key, a) + advance(0, b)`, so a loop
    /// that steps by fixed distances can add precomputed `advance(0, b)`
    /// instead of multiplying again.
    #[inline(always)]
    pub fn advance(key: u64, steps: u64) -> u64 {
        key.wrapping_add(steps.wrapping_mul(GAMMA))
    }

    /// Derive an independent, well-scrambled seed for stream `index`.
    ///
    /// Uses the golden-gamma increment to decorrelate nearby indices; the
    /// returned value is suitable as the seed of any generator in this
    /// crate.
    pub fn derive_stream_seed(master_seed: u64, index: u64) -> u64 {
        let mut g = SplitMix64::new(master_seed ^ index.wrapping_mul(GAMMA));
        // Burn a few outputs so that even adversarial (seed, index) pairs
        // are fully mixed.
        g.next_u64();
        g.next_u64();
        g.next_u64()
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }
}

impl qmc_ckpt::Checkpoint for SplitMix64 {
    fn kind(&self) -> &'static str {
        "rng.splitmix64"
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
    fn known_answer_vector() {
        // Reference values for seed 0 (from the public-domain reference
        // implementation by Sebastiano Vigna).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn keyed_outputs_are_the_stream_outputs() {
        // Keys at both ends of the range and in between, and indices up to
        // where `index + 1` wraps: `at` must be the sequence itself.
        for key in [0, 1, 42, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut g = SplitMix64::new(key);
            for index in 0..1000 {
                assert_eq!(SplitMix64::at(key, index), g.next_u64(), "{key} {index}");
            }
            let mut g = SplitMix64::new(key.wrapping_add(GAMMA.wrapping_mul(u64::MAX - 2)));
            for index in u64::MAX - 2..=u64::MAX {
                assert_eq!(SplitMix64::at(key, index), g.next_u64(), "{key} {index}");
            }
        }
        assert_eq!(SplitMix64::at(0, 0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn an_advanced_key_is_the_stream_moved_on() {
        // Steps that wrap, both ways round, and composed from a zero key.
        for key in [0, 7, u64::MAX] {
            for steps in [0, 1, 3, 1 << 40, u64::MAX - 1, u64::MAX] {
                let moved = SplitMix64::advance(key, steps);
                for i in [0, 1, 2, 1000, u64::MAX] {
                    let index = steps.wrapping_add(i);
                    assert_eq!(SplitMix64::at(moved, i), SplitMix64::at(key, index));
                }
                for b in [1, 5, u64::MAX] {
                    let two = SplitMix64::advance(moved, b);
                    assert_eq!(two, moved.wrapping_add(SplitMix64::advance(0, b)));
                    assert_eq!(two, SplitMix64::advance(key, steps.wrapping_add(b)));
                }
            }
        }
    }

    #[test]
    fn distinct_seeds_distinct_sequences() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_stream_seeds_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(SplitMix64::derive_stream_seed(42, i)));
        }
    }

    #[test]
    fn clone_reproduces() {
        let mut a = SplitMix64::new(9);
        a.next_u64();
        let mut b = a;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
