//! Exact references for the small-lattice companion runs behind
//! `correct`: every workload runs its own engine and code path on a
//! lattice of at most 12 sites and must land within |z| ≤ 4.5 of exact
//! diagonalization once the stated Trotter allowance is taken off.

use qmc_ed::tfim::TfimParams;
use qmc_ed::xxz::XxzParams;
use qmc_lattice::Chain;
use qmc_stats::BinningAnalysis;

/// Largest |z| a companion run may show.
pub const Z_MAX: f64 = 4.5;

/// Exact TFIM chain energy per site at inverse temperature `beta`.
pub fn tfim_chain_energy(l: usize, j: f64, h: f64, beta: f64) -> f64 {
    qmc_ed::tfim::full_spectrum(&Chain::new(l), &TfimParams { j, h }).energy(beta) / l as f64
}

/// Exact XXZ chain energy per site at inverse temperature `beta`.
pub fn xxz_chain_energy(l: usize, jx: f64, jz: f64, beta: f64) -> f64 {
    let p = XxzParams { jx, jz, field: 0.0 };
    qmc_ed::xxz::full_spectrum(&Chain::new(l), &p).energy(beta) / l as f64
}

/// Trotter allowance for the TFIM path integral: the Suzuki–Trotter
/// energy is exact to O(Δτ²); `Δτ²·J·h·(J+h)` per site bounds the
/// leading term at the companion sizes (the bias measured at h = J,
/// β = 2 is `0.85·Δτ²`, under half of it).
pub fn tfim_trotter_allowance(j: f64, h: f64, dtau: f64) -> f64 {
    dtau * dtau * j * h * (j + h)
}

/// Trotter allowance for the world-line checkerboard breakup of the
/// XXZ chain, same order: `Δτ²·J³` per site with `J = max(Jx, Jz)` (the
/// bias measured at the companion size is `(0.7 ± 0.3)·Δτ²`).
pub fn xxz_trotter_allowance(jx: f64, jz: f64, dtau: f64) -> f64 {
    let j = jx.abs().max(jz.abs());
    dtau * dtau * j * j * j
}

/// z-score of `mean` against `exact` with the allowance taken off.
pub fn z_of(mean: f64, err: f64, exact: f64, allowance: f64) -> f64 {
    ((mean - exact).abs() - allowance).max(0.0) / err.max(f64::MIN_POSITIVE)
}

/// Compare a measured energy series with the exact value: `(ok,
/// detail)`. The error bar is the binning plateau.
pub fn z_check(series: &[f64], exact: f64, allowance: f64) -> (bool, String) {
    let b = BinningAnalysis::new(series, 32);
    let z = z_of(b.mean, b.error(), exact, allowance);
    (
        z.is_finite() && z <= Z_MAX,
        format!(
            "mean {:.5} ± {:.5}, exact {:.5}, Trotter allowance {:.5}, z {:.2}",
            b.mean,
            b.error(),
            exact,
            allowance,
            z
        ),
    )
}
