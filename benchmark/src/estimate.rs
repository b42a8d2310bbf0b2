//! The chunk-time estimator behind the rates and the autocorrelation
//! estimate behind `indep_samples_per_s`.
//!
//! Work per chunk is fixed (and, the trajectory being fixed, identical
//! from run to run), so whatever changes a chunk's time is the host.
//! Every thread of a run shares one CPU (`sys::pin_to_one_cpu`), which
//! on the small shared VM this was calibrated on usually has a physical
//! core to itself; the exceptions are slow chunks, up to twice as long
//! and at times most of a run, when the host gives the core to someone
//! else. Nothing makes a chunk faster than the undisturbed state, so
//! that state is read from the fast side: see [`usual`].

use qmc_stats::BinningAnalysis;

/// The quantile the undisturbed state is read at, on every workload:
/// the 2nd percentile, i.e. the 5th to 7th fastest of K = 200–280
/// chunks and just above the fastest of five set-ups. Of 60 runs, 13 %
/// read more than a tenth above the fastest run there, 20 % at the 10th
/// percentile and 33 % at the median (README, "Which chunks count").
pub const USUAL_QUANTILE: f64 = 0.02;

/// The undisturbed one of equal-work readings: chunk wall times, chunk
/// CPU times, set-up instances.
pub fn usual(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), USUAL_QUANTILE)
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// Summary of the equal-work chunk times of one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkStats {
    /// Number of chunks.
    pub k: usize,
    /// Median chunk wall time, seconds.
    pub p50: f64,
    /// 90th percentile (the highest with ≥ 10 samples beyond it at
    /// K ≥ 100).
    pub p90: f64,
    /// Interquartile range over the median.
    pub spread: f64,
    /// Sum of all chunk times.
    pub total: f64,
    /// Chunks whose wall time was not a positive finite number.
    pub bad: usize,
}

/// Summarize chunk wall times.
pub fn chunk_stats(walls: &[f64]) -> ChunkStats {
    let s = sorted(walls);
    let p50 = quantile(&s, 0.5);
    ChunkStats {
        k: walls.len(),
        p50,
        p90: quantile(&s, 0.9),
        spread: if p50 > 0.0 {
            (quantile(&s, 0.75) - quantile(&s, 0.25)) / p50
        } else {
            0.0
        },
        total: walls.iter().sum(),
        bad: walls
            .iter()
            .filter(|w| !(w.is_finite() && **w > 0.0))
            .count(),
    }
}

/// Autocorrelation estimate of one energy series.
#[derive(Debug, Clone, Copy)]
pub struct Tau {
    /// `BinningAnalysis::tau_int()`.
    pub tau_int: f64,
    /// The error estimate stopped growing before the coarsest level.
    pub converged: bool,
}

/// τ_int of `series` and whether the binning error has saturated.
///
/// Bins grow to at most `max_bin` sweeps: `tau_int()` takes the
/// maximum error over levels, and the error of a level with `n` bins is
/// itself uncertain by `1/sqrt(2n)`, so the usual floor of 32 bins
/// would leave τ_int uncertain by a quarter whatever the series length.
/// Capping the bin length instead makes the uncertainty
/// `sqrt(2·max_bin/N)`, a few percent at the committed sizes, and the
/// cap is ≥ 16 τ_int on every workload, so the plateau is reached.
///
/// `BinningAnalysis::converged()` asks for the peak error to lie below
/// the coarsest level, which a flat, fully converged curve satisfies
/// only by luck (the coarsest level is the noisiest). A series also
/// counts as converged when doubling the bin to `max_bin` raised the
/// error by less than 5 % plus three times its uncertainty; an
/// unresolved τ_int raises it by √2.
pub fn tau(series: &[f64], max_bin: usize) -> Tau {
    let min_bins = (series.len() / max_bin).max(32);
    if series.len() < 2 * min_bins {
        return Tau {
            tau_int: 0.5,
            converged: false,
        };
    }
    let b = BinningAnalysis::new(series, min_bins);
    let n = b.errors.len();
    let saturated = n >= 2 && {
        let noise = 1.0 / (2.0 * b.bin_counts[n - 1] as f64).sqrt();
        b.errors[n - 1] <= b.errors[n - 2] * (1.05 + 3.0 * noise)
    };
    Tau {
        tau_int: b.tau_int(),
        converged: b.tau_int().is_finite() && (b.converged() || saturated),
    }
}
