//! Batched draw buffering for hot Monte Carlo kernels.

use crate::Rng64;

/// Refill batch size: one cache-line-friendly block of raw outputs.
const BATCH: usize = 256;

/// Wraps any [`Rng64`] and serves `next_u64` from an internal block
/// refilled in bulk with [`Rng64::fill_u64`].
///
/// The served sequence is **identical** to calling `next_u64` on the
/// inner generator directly — buffering only amortizes per-draw dispatch
/// (trait-object hops, state loads/stores) across a whole batch, which is
/// what the Metropolis kernels want. Because the stream is unchanged,
/// wrapping a driver's generator in `Buffered` can never perturb a
/// fixed-seed trajectory.
///
/// ```
/// use qmc_rng::{Buffered, Rng64, Xoshiro256StarStar};
/// let mut plain = Xoshiro256StarStar::new(7);
/// let mut fast = Buffered::new(Xoshiro256StarStar::new(7));
/// for _ in 0..1000 {
///     assert_eq!(plain.next_u64(), fast.next_u64());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Buffered<R: Rng64> {
    inner: R,
    buf: [u64; BATCH],
    pos: usize,
}

impl<R: Rng64> Buffered<R> {
    /// Wrap `inner`; the first draw triggers the first bulk refill.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: [0; BATCH],
            pos: BATCH,
        }
    }

    /// Unwrap the inner generator.
    ///
    /// Note the inner state has advanced past any still-buffered (unserved)
    /// values, so continuing on the unwrapped generator skips them.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Rng64> Rng64 for Buffered<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == BATCH {
            self.inner.fill_u64(&mut self.buf);
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    fn fill_u64(&mut self, out: &mut [u64]) {
        // Drain what is buffered, then bulk-fill the rest directly.
        let buffered = BATCH - self.pos;
        let n = buffered.min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        if out.len() > n {
            self.inner.fill_u64(&mut out[n..]);
        }
    }
}

impl<R: Rng64 + qmc_ckpt::Checkpoint> qmc_ckpt::Checkpoint for Buffered<R> {
    fn kind(&self) -> &'static str {
        "rng.buffered"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        // The undrained tail of the buffer is part of the stream: the
        // inner generator has already advanced past it, so dropping it
        // would skip `BATCH - pos` draws on resume.
        enc.u64(self.pos as u64);
        enc.u64s(&self.buf);
        qmc_ckpt::write_state(enc, &self.inner);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let pos = dec.u64()? as usize;
        let buf = dec.u64s()?;
        if pos > BATCH || buf.len() != BATCH {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "buffered rng pos {pos} buf len {}",
                buf.len()
            )));
        }
        self.pos = pos;
        self.buf.copy_from_slice(&buf);
        qmc_ckpt::read_state(dec, &mut self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LaggedFibonacci55, Lcg64, SplitMix64, Xoshiro256StarStar};

    fn assert_stream_identical<R: Rng64 + Clone>(rng: R) {
        let mut plain = rng.clone();
        let mut buffered = Buffered::new(rng);
        // Mix draw kinds so batch boundaries land at odd offsets.
        for i in 0..5000usize {
            match i % 4 {
                0 => assert_eq!(plain.next_u64(), buffered.next_u64()),
                1 => assert_eq!(plain.next_f64(), buffered.next_f64()),
                2 => assert_eq!(plain.index(37), buffered.index(37)),
                _ => assert_eq!(plain.metropolis(0.4), buffered.metropolis(0.4)),
            }
        }
    }

    #[test]
    fn buffered_stream_identical_all_generators() {
        assert_stream_identical(SplitMix64::new(5));
        assert_stream_identical(Lcg64::new(5));
        assert_stream_identical(Xoshiro256StarStar::new(5));
        assert_stream_identical(LaggedFibonacci55::new(5));
    }

    #[test]
    fn fill_u64_matches_repeated_next_u64_all_generators() {
        fn check<R: Rng64 + Clone>(rng: R) {
            for len in [0usize, 1, 7, 256, 1000] {
                let mut a = rng.clone();
                let mut b = rng.clone();
                let mut bulk = vec![0u64; len];
                a.fill_u64(&mut bulk);
                let single: Vec<u64> = (0..len).map(|_| b.next_u64()).collect();
                assert_eq!(bulk, single, "len = {len}");
            }
        }
        check(SplitMix64::new(9));
        check(Lcg64::new(9));
        check(Xoshiro256StarStar::new(9));
        check(LaggedFibonacci55::new(9));
    }

    #[test]
    fn buffered_fill_u64_spans_batch_boundary() {
        let mut plain = Xoshiro256StarStar::new(3);
        let mut buffered = Buffered::new(Xoshiro256StarStar::new(3));
        // Offset the buffer position, then bulk-fill across the boundary.
        for _ in 0..100 {
            let _ = buffered.next_u64();
            let _ = plain.next_u64();
        }
        let mut a = vec![0u64; 400];
        let mut b = vec![0u64; 400];
        buffered.fill_u64(&mut a);
        plain.fill_u64(&mut b);
        assert_eq!(a, b);
    }
}
