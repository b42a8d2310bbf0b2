//! Draw-counting wrapper for determinism checks.

use crate::Rng64;

/// Counts raw draws while forwarding to the wrapped generator. Both the
/// scalar and the bulk path count, so buffered streams are covered too.
///
/// The count is checkpointed alongside the generator state, so a run
/// that was killed and resumed — or a rank that rolled back to an older
/// generation — ends with exactly the draw count of an uninterrupted
/// run. "Same observables *and* same number of draws" is how the
/// crash/resume and observability suites pin a trajectory.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    /// Raw 64-bit outputs served so far.
    pub draws: u64,
}

impl<R> CountingRng<R> {
    /// Wrap `inner` with the count at zero.
    pub fn new(inner: R) -> Self {
        Self { inner, draws: 0 }
    }
}

impl<R: Rng64> Rng64 for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_u64(&mut self, out: &mut [u64]) {
        self.draws += out.len() as u64;
        self.inner.fill_u64(out);
    }
}

impl<R: qmc_ckpt::Checkpoint> qmc_ckpt::Checkpoint for CountingRng<R> {
    fn kind(&self) -> &'static str {
        "rng.counting"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u64(self.draws);
        qmc_ckpt::write_state(enc, &self.inner);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        self.draws = dec.u64()?;
        qmc_ckpt::read_state(dec, &mut self.inner)
    }
}
