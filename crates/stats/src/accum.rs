//! Single-pass moment accumulators (Welford), mergeable across ranks.

/// Streaming mean/variance accumulator using Welford's algorithm.
///
/// Numerically stable for arbitrarily long series, O(1) memory, and
/// mergeable — the parallel driver reduces one `Accumulator` per rank with
/// [`Accumulator::merge`], which is exact (same result as a single-stream
/// accumulation of the concatenated data, up to floating-point rounding).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every value in a slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (requires ≥ 2 observations, else 0).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divide by N).
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation of the sample.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Naive standard error of the mean, `σ/√N` — valid only for
    /// *uncorrelated* data; use [`crate::BinningAnalysis`] for Markov-chain
    /// output.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.variance() / self.count as f64).sqrt()
        }
    }

    /// Smallest observation seen (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// combination).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl qmc_ckpt::Checkpoint for Accumulator {
    fn kind(&self) -> &'static str {
        "stats.accumulator"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u64(self.count);
        enc.f64(self.mean);
        enc.f64(self.m2);
        enc.f64(self.min);
        enc.f64(self.max);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        self.count = dec.u64()?;
        self.mean = dec.f64()?;
        self.m2 = dec.f64()?;
        self.min = dec.f64()?;
        self.max = dec.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random series in (-scale, scale): SplitMix64
    /// scrambler mapped to a float — many bit patterns, no external
    /// property-test dependency.
    fn series(len: usize, scale: f64, salt: u64) -> Vec<f64> {
        (0..len as u64)
            .map(|i| {
                let mut z = (i ^ salt.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    #[test]
    fn empty_accumulator_defaults() {
        let a = Accumulator::new();
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.std_error(), 0.0);
    }

    #[test]
    fn known_small_series() {
        let mut a = Accumulator::new();
        a.extend(&[1.0, 2.0, 3.0, 4.0]);
        assert!((a.mean() - 2.5).abs() < 1e-15);
        // var = Σ(x-2.5)² / 3 = (2.25+0.25+0.25+2.25)/3 = 5/3
        assert!((a.variance() - 5.0 / 3.0).abs() < 1e-15);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 4.0);
    }

    #[test]
    fn single_observation_variance_zero() {
        let mut a = Accumulator::new();
        a.push(3.7);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.mean(), 3.7);
    }

    #[test]
    fn merge_equals_concatenation() {
        for (salt, len) in [(1u64, 0usize), (2, 1), (3, 2), (4, 17), (5, 199)] {
            let xs = series(len, 1e3, salt);
            for split in [0, 1, len / 3, len / 2, len.saturating_sub(1), len] {
                let split = split.min(len);
                let mut whole = Accumulator::new();
                whole.extend(&xs);
                let mut left = Accumulator::new();
                left.extend(&xs[..split]);
                let mut right = Accumulator::new();
                right.extend(&xs[split..]);
                left.merge(&right);
                assert_eq!(left.count(), whole.count());
                if !xs.is_empty() {
                    assert!((left.mean() - whole.mean()).abs() < 1e-9);
                    assert!((left.variance() - whole.variance()).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn variance_nonnegative() {
        for (salt, len) in [(7u64, 0usize), (8, 1), (9, 5), (10, 50), (11, 99)] {
            let xs = series(len, 1e6, salt);
            let mut a = Accumulator::new();
            a.extend(&xs);
            assert!(a.variance() >= 0.0);
            assert!(a.variance_population() >= 0.0);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.extend(&[1.0, 2.0]);
        let before = a;
        a.merge(&Accumulator::new());
        assert_eq!(a, before);

        let mut b = Accumulator::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn accumulators_checkpoint_round_trips_bitwise() {
        let mut a = Accumulator::new();
        a.extend(&series(37, 1e3, 99));
        let bytes = qmc_ckpt::save_state(&a);
        let mut back = Accumulator::new();
        qmc_ckpt::load_state(&bytes, &mut back).unwrap();
        // Continuation after restore must be bit-identical, so every
        // internal moment must round-trip exactly — compare bits.
        assert_eq!(a.count(), back.count());
        assert_eq!(a.mean().to_bits(), back.mean().to_bits());
        assert_eq!(a.variance().to_bits(), back.variance().to_bits());
        assert_eq!(a.min().to_bits(), back.min().to_bits());
        assert_eq!(a.max().to_bits(), back.max().to_bits());
        a.push(5.0);
        back.push(5.0);
        assert_eq!(a.mean().to_bits(), back.mean().to_bits());
    }
}
