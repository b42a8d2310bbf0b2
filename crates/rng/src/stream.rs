//! Per-rank stream management.

use crate::{LaggedFibonacci55, Lcg64, Rng64, Xoshiro256StarStar};

/// Which generator family a [`StreamFactory`] hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamKind {
    /// LCG64 with block splitting by jump-ahead (2^40 draws per rank).
    Lcg,
    /// xoshiro256** with 2^128 jump separation (workspace default).
    #[default]
    Xoshiro,
    /// Lagged-Fibonacci r(55,24) with parameterized per-rank tables.
    LaggedFibonacci,
}

/// Factory producing one independent, reproducible generator per rank.
///
/// The invariant every parallel Monte Carlo code needs: for a fixed
/// `(seed, kind)`, rank `r` receives the same stream on every run and on
/// every machine, regardless of how many other ranks exist.
#[derive(Debug, Clone, Copy)]
pub struct StreamFactory {
    seed: u64,
    kind: StreamKind,
}

/// A generator handed out by [`StreamFactory`] — closed enum dispatch so
/// hot loops avoid virtual calls.
#[derive(Debug, Clone)]
pub enum StreamRng {
    /// Block-split LCG stream.
    Lcg(Lcg64),
    /// Jumped xoshiro stream.
    Xoshiro(Xoshiro256StarStar),
    /// Parameterized lagged-Fibonacci stream (boxed: its 55-word lag
    /// table would otherwise dominate the enum size).
    LaggedFibonacci(Box<LaggedFibonacci55>),
}

impl StreamFactory {
    /// Create a factory for a master seed with the default generator.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            kind: StreamKind::default(),
        }
    }

    /// Create a factory with an explicit generator family.
    pub fn with_kind(seed: u64, kind: StreamKind) -> Self {
        Self { seed, kind }
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator family.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// The stream for `rank`.
    pub fn stream(&self, rank: usize) -> StreamRng {
        match self.kind {
            StreamKind::Lcg => StreamRng::Lcg(Lcg64::block_stream(self.seed, rank)),
            StreamKind::Xoshiro => {
                // For large rank counts, repeated polynomial jumps are
                // O(rank); re-key through SplitMix instead and jump once so
                // stream creation is O(1) while seeds stay decorrelated.
                let seed = crate::SplitMix64::derive_stream_seed(self.seed, rank as u64);
                let mut g = Xoshiro256StarStar::new(seed);
                g.jump();
                StreamRng::Xoshiro(g)
            }
            StreamKind::LaggedFibonacci => StreamRng::LaggedFibonacci(Box::new(
                LaggedFibonacci55::param_stream(self.seed, rank),
            )),
        }
    }
}

impl Rng64 for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        match self {
            StreamRng::Lcg(g) => g.next_u64(),
            StreamRng::Xoshiro(g) => g.next_u64(),
            StreamRng::LaggedFibonacci(g) => g.next_u64(),
        }
    }
}

impl qmc_ckpt::Checkpoint for StreamRng {
    fn kind(&self) -> &'static str {
        "rng.stream"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        match self {
            StreamRng::Lcg(g) => {
                enc.u8(0);
                qmc_ckpt::write_state(enc, g);
            }
            StreamRng::Xoshiro(g) => {
                enc.u8(1);
                qmc_ckpt::write_state(enc, g);
            }
            StreamRng::LaggedFibonacci(g) => {
                enc.u8(2);
                qmc_ckpt::write_state(enc, g.as_ref());
            }
        }
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        // The variant must match the value the factory already built —
        // resuming with a different `StreamKind` than the original run
        // would splice two unrelated streams.
        let tag = dec.u8()?;
        match (tag, &mut *self) {
            (0, StreamRng::Lcg(g)) => qmc_ckpt::read_state(dec, g),
            (1, StreamRng::Xoshiro(g)) => qmc_ckpt::read_state(dec, g),
            (2, StreamRng::LaggedFibonacci(g)) => qmc_ckpt::read_state(dec, g.as_mut()),
            _ => Err(qmc_ckpt::CkptError::corrupt(format!(
                "stream rng variant tag {tag} does not match the configured generator kind"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_outputs(kind: StreamKind, rank: usize, n: usize) -> Vec<u64> {
        let mut g = StreamFactory::with_kind(2024, kind).stream(rank);
        (0..n).map(|_| g.next_u64()).collect()
    }

    #[test]
    fn streams_reproducible() {
        for kind in [
            StreamKind::Lcg,
            StreamKind::Xoshiro,
            StreamKind::LaggedFibonacci,
        ] {
            assert_eq!(first_outputs(kind, 3, 16), first_outputs(kind, 3, 16));
        }
    }

    #[test]
    fn streams_distinct_across_ranks() {
        for kind in [
            StreamKind::Lcg,
            StreamKind::Xoshiro,
            StreamKind::LaggedFibonacci,
        ] {
            let a = first_outputs(kind, 0, 16);
            let b = first_outputs(kind, 1, 16);
            assert_ne!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn stream_independent_of_total_rank_count() {
        // Rank r's stream must not depend on how many ranks exist — only
        // on (seed, kind, r). This is what makes P-varying runs comparable.
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

    #[test]
    fn default_kind_is_xoshiro() {
        assert_eq!(StreamKind::default(), StreamKind::Xoshiro);
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
        for kind in [
            StreamKind::Lcg,
            StreamKind::Xoshiro,
            StreamKind::LaggedFibonacci,
        ] {
            assert_resume_continues_stream(|| StreamFactory::with_kind(21, kind).stream(2));
        }
        // Buffered wrappers must carry the undrained buffer across the
        // checkpoint (777 % 256 != 0, so the buffer is mid-drain here).
        assert_resume_continues_stream(|| crate::Buffered::new(Xoshiro256StarStar::new(21)));
        assert_resume_continues_stream(|| crate::Buffered::new(Lcg64::new(21)));
    }
}
