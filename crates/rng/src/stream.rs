//! Per-rank stream management.

use crate::{Rng64, Xoshiro256StarStar};

/// Factory producing one independent, reproducible generator per rank.
///
/// The invariant every parallel Monte Carlo code needs: for a fixed
/// `seed`, rank `r` receives the same stream on every run and on every
/// machine, regardless of how many other ranks exist.
#[derive(Debug, Clone, Copy)]
pub struct StreamFactory {
    seed: u64,
}

/// The xoshiro256** generator handed out by [`StreamFactory`].
#[derive(Debug, Clone)]
pub struct StreamRng(Xoshiro256StarStar);

/// The byte a saved [`StreamRng`] opens with: the xoshiro variant's tag
/// from when the factory could also hand out LCG (`0`) and
/// lagged-Fibonacci (`2`) streams. It stays `1` so PT and qmc-serve
/// stores written then load unchanged.
const XOSHIRO_TAG: u8 = 1;

impl StreamFactory {
    /// Create a factory for a master seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The stream for `rank`.
    pub fn stream(&self, rank: usize) -> StreamRng {
        // Repeated polynomial jumps would make rank `r`'s stream O(r) to
        // build; re-key through SplitMix instead and jump once so stream
        // creation is O(1) while seeds stay decorrelated.
        let seed = crate::SplitMix64::derive_stream_seed(self.seed, rank as u64);
        let mut g = Xoshiro256StarStar::new(seed);
        g.jump();
        StreamRng(g)
    }
}

impl Rng64 for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

impl qmc_ckpt::Checkpoint for StreamRng {
    fn kind(&self) -> &'static str {
        "rng.stream"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u8(XOSHIRO_TAG);
        qmc_ckpt::write_state(enc, &self.0);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let tag = dec.u8()?;
        if tag != XOSHIRO_TAG {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "stream rng variant tag {tag} is not the xoshiro256** stream"
            )));
        }
        qmc_ckpt::read_state(dec, &mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaggedFibonacci55, Lcg64};

    fn first_outputs(rank: usize, n: usize) -> Vec<u64> {
        let mut g = StreamFactory::new(2024).stream(rank);
        (0..n).map(|_| g.next_u64()).collect()
    }

    #[test]
    fn streams_reproducible() {
        assert_eq!(first_outputs(3, 16), first_outputs(3, 16));
    }

    #[test]
    fn streams_distinct_across_ranks() {
        assert_ne!(first_outputs(0, 16), first_outputs(1, 16));
    }

    #[test]
    fn stream_independent_of_total_rank_count() {
        // Rank r's stream must not depend on how many ranks exist — only
        // on (seed, r). This is what makes P-varying runs comparable.
        let f = StreamFactory::new(7);
        let mut a = f.stream(5);
        let mut b = f.stream(5);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn many_streams_pairwise_distinct_first_output() {
        let f = StreamFactory::new(99);
        let mut outs = std::collections::HashSet::new();
        for r in 0..1024 {
            let mut g = f.stream(r);
            assert!(outs.insert(g.next_u64()), "collision at rank {r}");
        }
    }

    /// Save mid-stream, restore into a freshly constructed generator,
    /// and require the continuation to match the uninterrupted stream
    /// exactly. `make` must build the same pristine value both times.
    fn assert_resume_continues_stream<R, F>(make: F)
    where
        R: Rng64 + qmc_ckpt::Checkpoint,
        F: Fn() -> R,
    {
        let mut reference = make();
        let mut interrupted = make();
        for _ in 0..777 {
            assert_eq!(reference.next_u64(), interrupted.next_u64());
        }
        let snapshot = qmc_ckpt::save_state(&interrupted);
        let mut resumed = make();
        qmc_ckpt::load_state(&snapshot, &mut resumed).unwrap();
        for i in 0..2000 {
            assert_eq!(reference.next_u64(), resumed.next_u64(), "draw {i}");
        }
    }

    #[test]
    fn every_generator_resumes_bit_exactly() {
        assert_resume_continues_stream(|| crate::SplitMix64::new(21));
        assert_resume_continues_stream(|| Lcg64::new(21));
        assert_resume_continues_stream(|| Xoshiro256StarStar::new(21));
        assert_resume_continues_stream(|| LaggedFibonacci55::new(21));
        assert_resume_continues_stream(|| StreamFactory::new(21).stream(2));
        assert_resume_continues_stream(|| {
            crate::CountingRng::new(StreamFactory::new(21).stream(2))
        });
    }

    #[test]
    fn retired_stream_variant_tags_are_refused() {
        use qmc_ckpt::{Checkpoint, Decoder, Encoder};
        // Bodies as the retired LCG (tag 0) and lagged-Fibonacci (tag 2)
        // streams saved them: the tag, then the generator's own state.
        let mut lcg = Encoder::new();
        lcg.u8(0);
        qmc_ckpt::write_state(&mut lcg, &Lcg64::block_stream(21, 2));
        let mut lfg = Encoder::new();
        lfg.u8(2);
        qmc_ckpt::write_state(&mut lfg, &LaggedFibonacci55::param_stream(21, 2));
        for (tag, body) in [(0, lcg.into_bytes()), (2, lfg.into_bytes())] {
            let mut g = StreamFactory::new(21).stream(2);
            let err = g
                .load(&mut Decoder::new(&body))
                .expect_err("a retired variant must not load");
            assert!(err.to_string().contains(&format!("tag {tag}")), "{err}");
        }
    }
}
