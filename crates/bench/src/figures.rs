//! Physics figures F1–F5.

use qmc_core::table::{pm, Table};
use qmc_ed::freefermion;
use qmc_ed::lanczos::{lanczos_ground_energy, XxzSectorOp};
use qmc_ed::xxz::{full_spectrum, XxzParams};
use qmc_lattice::{Chain, Square};
use qmc_rng::Xoshiro256StarStar;
use qmc_stats::BinningAnalysis;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::{Worldline, WorldlineParams};

fn scale(quick: bool, full: usize) -> usize {
    if quick {
        full / 10
    } else {
        full
    }
}

/// Trotter number giving `Δτ ≤ target` (rounded up to even, ≥ 2).
///
/// Keeping `Δτ` *fixed* as β varies — rather than fixing `m` — is
/// essential for the local world-line dynamics: kink creation acceptance
/// scales as `sinh²(ΔτJx/2)`, so an unnecessarily fine `Δτ` at high
/// temperature freezes the simulation without reducing any error that
/// matters there.
pub fn trotter_m(beta: f64, target: f64) -> usize {
    let m = (beta / target).ceil() as usize;
    (m.max(2) + 1) & !1
}

/// F1: energy and specific heat vs T for the Heisenberg chain, world-line
/// QMC against exact diagonalization (L = 8) plus the L = 16 curve.
pub fn f1_heisenberg_chain_thermo(quick: bool) -> String {
    let sweeps = scale(quick, 30_000);
    let temps = [0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];
    let mut out = String::new();

    for l in [8usize, 16] {
        let spec = (l == 8).then(|| full_spectrum(&Chain::new(l), &XxzParams::heisenberg(1.0)));
        let mut t = Table::new(
            &format!("F1: Heisenberg chain L={l}, world-line QMC vs ED"),
            &["T", "E/N (QMC)", "E/N (ED)", "C/N (QMC)", "C/N (ED)"],
        );
        for &temp in &temps {
            let beta = 1.0 / temp;
            let m = trotter_m(beta, 0.125);
            let mut sim = Worldline::new(WorldlineParams {
                l,
                jx: 1.0,
                jz: 1.0,
                beta,
                m,
            });
            let mut rng = Xoshiro256StarStar::new(1000 + (temp * 100.0) as u64 + l as u64);
            let series = sim.run(&mut rng, sweeps / 2, sweeps);
            let be = BinningAnalysis::new(&series.energy, 16);
            let (c, c_err) = series.specific_heat();
            let (e_ed, c_ed) = spec
                .as_ref()
                .map(|s| {
                    (
                        format!("{:.5}", s.energy(beta) / l as f64),
                        format!("{:.5}", s.heat_capacity(beta) / l as f64),
                    )
                })
                .unwrap_or(("-".into(), "-".into()));
            t.row(&[
                format!("{temp:.2}"),
                pm(be.mean, be.error(), 5),
                e_ed,
                pm(c, c_err, 4),
                c_ed,
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// F2: Trotter-error extrapolation `E(Δτ) → Δτ → 0` at fixed `(L, T)`.
pub fn f2_trotter_extrapolation(quick: bool) -> String {
    let sweeps = scale(quick, 40_000);
    let (l, beta) = (8usize, 2.0);
    let spec = full_spectrum(&Chain::new(l), &XxzParams::heisenberg(1.0));
    let exact = spec.energy(beta) / l as f64;

    let mut t = Table::new(
        &format!("F2: Trotter extrapolation, Heisenberg chain L={l}, β={beta}"),
        &["m", "Δτ", "Δτ²", "E/N (QMC)", "E/N (ED, Δτ=0)"],
    );
    let mut pts: Vec<(f64, f64)> = Vec::new();
    for m in [4usize, 6, 8, 12, 16, 24] {
        let mut sim = Worldline::new(WorldlineParams {
            l,
            jx: 1.0,
            jz: 1.0,
            beta,
            m,
        });
        let mut rng = Xoshiro256StarStar::new(2000 + m as u64);
        let series = sim.run(&mut rng, sweeps / 2, sweeps);
        let be = BinningAnalysis::new(&series.energy, 16);
        let dtau = beta / m as f64;
        pts.push((dtau * dtau, be.mean));
        t.row(&[
            format!("{m}"),
            format!("{dtau:.4}"),
            format!("{:.5}", dtau * dtau),
            pm(be.mean, be.error(), 5),
            format!("{exact:.5}"),
        ]);
    }
    // Least-squares linear fit E = a + b·Δτ².
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let mut out = t.render();
    out.push_str(&format!(
        "linear fit: E(Δτ²) = {intercept:.5} + {slope:.4}·Δτ²  (ED: {exact:.5}, \
         intercept deviation {:.2e})\n",
        (intercept - exact).abs()
    ));
    out
}

/// F3: uniform susceptibility vs T, XY chain, vs the exact free-fermion
/// solution (parity-projected).
pub fn f3_xy_susceptibility(quick: bool) -> String {
    // The XY energy estimator is dominated by rare kink events
    // (τ_int ~ hundreds of sweeps), so this experiment runs longer than
    // the others and keeps Δτ at 0.125 where kink dynamics is fastest
    // without visible Trotter bias (see F2's measured slope).
    let sweeps = scale(quick, 60_000);
    let temps = [0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
    let mut out = String::new();
    for l in [16usize, 32] {
        let mut t = Table::new(
            &format!("F3: XY chain L={l}, χ/N vs free fermions"),
            &["T", "χ/N (QMC)", "χ/N (exact)", "E/N (QMC)", "E/N (exact)"],
        );
        for &temp in &temps {
            let beta = 1.0 / temp;
            let m = trotter_m(beta, 0.125);
            let mut sim = Worldline::new(WorldlineParams {
                l,
                jx: 1.0,
                jz: 0.0,
                beta,
                m,
            });
            let mut rng = Xoshiro256StarStar::new(3000 + (temp * 100.0) as u64 + l as u64);
            let series = sim.run(&mut rng, sweeps / 2, sweeps);
            let (chi, chi_err) = series.susceptibility();
            let be = BinningAnalysis::new(&series.energy, 16);
            let chi_exact = freefermion::xy_chain_susceptibility(l, 1.0, beta) / l as f64;
            let e_exact = freefermion::xy_chain_energy(l, 1.0, 0.0, beta) / l as f64;
            t.row(&[
                format!("{temp:.2}"),
                pm(chi, chi_err, 5),
                format!("{chi_exact:.5}"),
                pm(be.mean, be.error(), 5),
                format!("{e_exact:.5}"),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// F4: TFIM quantum-critical sweep — order parameter and `⟨σˣ⟩` across
/// `h/J`, sharpening with L.
pub fn f4_tfim_critical_sweep(quick: bool) -> String {
    let sweeps = scale(quick, 8_000);
    let fields = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0];
    let mut out = String::new();
    for l in [16usize, 32] {
        let mut t = Table::new(
            &format!("F4: 1-D TFIM L={l}, β=16 (ground-state regime)"),
            &[
                "h/J",
                "<|m|>",
                "U4",
                "<σx>",
                "E/N (QMC)",
                "E0/N (free fermion)",
            ],
        );
        for &h in &fields {
            let beta = 16.0;
            let m = 128;
            let mut eng = SerialTfim::new(TfimModel {
                lx: l,
                ly: 1,
                j: 1.0,
                h,
                beta,
                m,
            });
            let mut rng = Xoshiro256StarStar::new(4000 + (h * 100.0) as u64 + l as u64);
            let series = eng.run(&mut rng, sweeps / 4, sweeps, 2);
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            let e0 = freefermion::tfim_chain_ground_energy(l, 1.0, h) / l as f64;
            t.row(&[
                format!("{h:.2}"),
                format!("{:.4}", avg(&series.abs_m)),
                format!("{:.4}", series.binder_cumulant()),
                format!("{:.4}", avg(&series.sigma_x)),
                format!("{:.4}", avg(&series.energy)),
                format!("{e0:.4}"),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// F5: 2-D Heisenberg antiferromagnet via SSE — energy vs T with the 4×4
/// Lanczos ground state and the 8×8 lattice trend; staggered structure
/// factor growth.
pub fn f5_heisenberg_2d(quick: bool) -> String {
    let sweeps = scale(quick, 20_000);
    let temps = [2.0, 1.0, 0.67, 0.5, 0.33, 0.25];
    let mut out = String::new();

    let lat4 = Square::new(4, 4);
    let e0_4x4 = {
        let op = XxzSectorOp::new(&lat4, XxzParams::heisenberg(1.0), 8);
        lanczos_ground_energy(&op, 7, 300, 1e-10) / 16.0
    };

    for l in [4usize, 8] {
        let lat = Square::new(l, l);
        let mut t = Table::new(
            &format!("F5: 2-D Heisenberg {l}×{l}, SSE"),
            &["T", "E/N", "C/N", "S(π,π)/N", "χ/N"],
        );
        for &temp in &temps {
            let beta = 1.0 / temp;
            let mut rng = Xoshiro256StarStar::new(5000 + (temp * 100.0) as u64 + l as u64);
            let mut sse = qmc_sse::Sse::new(&lat, 1.0, beta, &mut rng);
            let series = sse.run(&mut rng, sweeps / 5, sweeps);
            let be = BinningAnalysis::new(&series.energy_samples(), 16);
            let (c, c_err) = series.specific_heat();
            let (chi, chi_err) = series.susceptibility();
            t.row(&[
                format!("{temp:.2}"),
                pm(be.mean, be.error(), 5),
                pm(c, c_err, 4),
                format!("{:.4}", series.staggered_structure_factor()),
                pm(chi, chi_err, 5),
            ]);
        }
        out.push_str(&t.render());
        if l == 4 {
            out.push_str(&format!(
                "4×4 Lanczos ground state: E0/N = {e0_4x4:.6} (SSE T→0 must approach this)\n"
            ));
        } else {
            out.push_str(
                "8×8 ground state: E0/N = −0.673487 (Sandvik, PRB 56, 11678 (1997)), a \
                 variational bound: E/N at every T must lie above it\n",
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trotter_m_is_even_and_fine_enough() {
        for beta in [0.25, 1.0, 4.0, 10.0] {
            let m = trotter_m(beta, 0.125);
            assert_eq!(m % 2, 0);
            assert!(beta / m as f64 <= 0.130, "Δτ too coarse at β={beta}");
            assert!(m >= 2);
        }
    }

    #[test]
    fn f2_quick_runs_and_extrapolates() {
        let out = f2_trotter_extrapolation(true);
        assert!(out.contains("linear fit"));
        assert!(out.contains("Δτ²"));
    }
}
