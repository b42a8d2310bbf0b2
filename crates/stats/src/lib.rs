//! Statistical analysis of Monte Carlo time series.
//!
//! Every result a Monte Carlo code reports is a *finite* time-series
//! average of correlated data, so the analysis layer — not the sampler —
//! is where error bars come from. This crate implements the standard
//! toolkit:
//!
//! * [`Accumulator`] — single-pass (Welford) mean/variance accumulation,
//!   mergeable across parallel ranks.
//! * [`binning`] — blocking ("binning") analysis: the error estimate as a
//!   function of bin size converges to the true error of correlated data.
//! * [`mod@jackknife`] — bias-corrected errors for arbitrary nonlinear
//!   functions of time-series means (specific heat, Binder cumulants…).
//! * [`logsumexp`] — the log-space sum the exact-diagonalization
//!   partition functions in `qmc-ed` go through.
//!
//! ```
//! use qmc_stats::BinningAnalysis;
//!
//! // A correlated Markov-chain series: the naive σ/√N underestimates the
//! // true error; the binning plateau does not.
//! let series: Vec<f64> = (0..4096).map(|i| ((i / 8) % 7) as f64).collect();
//! let b = BinningAnalysis::new(&series, 32);
//! assert!(b.error() >= b.naive_error);
//! assert!(b.tau_int() > 1.0); // blocks of 8 repeated values are correlated
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod jackknife;

mod accum;

pub use accum::Accumulator;
pub use binning::BinningAnalysis;
pub use jackknife::{jackknife, jackknife_pair, JackknifeEstimate};

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Boltzmann weights `e^{−βE_k}` span hundreds of orders of magnitude
/// even for small systems, so *all* partition-function arithmetic in this
/// workspace goes through this function.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logsumexp_matches_direct_small_values() {
        let xs = [0.0f64, 1.0, 2.0];
        let direct: f64 = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!((logsumexp(&xs) - direct).abs() < 1e-12);
    }

    #[test]
    fn logsumexp_huge_values_no_overflow() {
        let xs = [1000.0, 1000.0];
        let v = logsumexp(&xs);
        assert!((v - (1000.0 + 2.0f64.ln())).abs() < 1e-12);
        assert!(v.is_finite());
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn logsumexp_single_element() {
        assert!((logsumexp(&[-5.0]) + 5.0).abs() < 1e-15);
    }
}
