//! Discrete-time world-line quantum Monte Carlo for spin-1/2 XXZ chains.
//!
//! This is the algorithm the massively parallel QMC codes of the early
//! 1990s ran: the Suzuki-Trotter decomposition maps the 1-D quantum chain
//! at inverse temperature β onto a 2-D classical system of *world lines*
//! on an `L × 2m` space-time lattice (`m` Trotter steps, `Δτ = β/m`),
//! with a checkerboard of "shaded" plaquettes carrying the two-site
//! imaginary-time propagator `exp(−Δτ h_bond)`.
//!
//! * [`weights`] — the exact two-site propagator matrix elements and their
//!   τ-derivatives (energy/heat-capacity estimators).
//! * [`engine`] — the configuration, the local plaquette-corner move and
//!   the temporal straight-line (magnetization-changing) move, and the
//!   log-weight a tempering exchange compares.
//! * [`estimators`] — energy, specific heat, uniform susceptibility and
//!   spin-spin correlations measured on the world-line configuration.
//! * [`generic`] — the same algorithm on any bond-coloured lattice, whose
//!   moves still take the generic route described below.
//!
//! # What is hot and what is oracle
//!
//! A replica step of the chain engine — sweep, log-weights, measurement —
//! is three table-driven walks over `Vec<bool>` rows, none of which
//! sorts, allocates, classifies a plaquette or takes a logarithm per cell:
//!
//! * **Corner moves** go row by row, cells left to right (neighbouring
//!   cells share columns, so the order is part of the trajectory). The
//!   nine spins a move's ratio depends on index 512 integer thresholds
//!   `⌈ratio·2⁵³⌉` ([`qmc_rng::threshold`], shared with the TFIM colour
//!   kernel), and a proposal that needs a draw is one
//!   `next_u64() >> 11 < thr` — the predicate of `metropolis(ratio)` for
//!   every raw draw, consuming a draw exactly when it does.
//! * **A straight-line move** touches one shaded cell per interval, on
//!   alternating sides of its column. Their weights, old and with the
//!   column's two corner bits flipped, come from one 16-entry table by
//!   corner pattern and are multiplied in ascending `(left site, row)`
//!   order — the order a sorted cell list would give — so the ratio has the
//!   bits it always had.
//! * **Log-weight and energy** add `ln w`, `e` and `∂e/∂Δτ` from 16-entry
//!   tables in row-major cell order; the three logarithms are taken once
//!   per call, and a forbidden cell still makes the sum −∞.
//!
//! The route these replaced — collect the affected cells of an arbitrary
//! flip list, sort, dedup, multiply, flip, multiply, flip back: *generic*,
//! with no hand-derived case to get wrong — is how [`generic`]'s window,
//! ring and straight-line moves are still accepted, and in [`engine`] it
//! survives as the `cfg(test)` oracle the walks are compared against move
//! for move, next to the `f64` corner ratio and the cell-by-cell sums.
//! `tests/trajectory_pins.rs` holds fixed-seed fingerprints of both
//! engines recorded before the walks existed.
//!
//! # Known, documented restrictions (shared with the 1993-era codes)
//!
//! * The local move set conserves the *spatial winding number* of world
//!   lines; simulations sample the `W = 0` sector. The bias is
//!   exponentially small in `L` at fixed `βJ` and is invisible next to
//!   statistical errors for the lattice sizes and temperatures in the
//!   experiment suite (validated against ED in the tests).
//! * The sign-problem-free sublattice rotation (`Jx → −Jx` on bipartite
//!   lattices) is applied internally: all plaquette weights are ≥ 0 for
//!   both FM and AFM transverse coupling.
//! * A longitudinal field is not supported by this engine (the exact-
//!   diagonalization oracle covers field physics; the field enters QMC
//!   through the susceptibility estimator instead).
//!
//! The Trotter error is `O(Δτ²)`; experiment F2 demonstrates the
//! extrapolation `Δτ → 0` against the ED oracle.
//!
//! ```
//! use qmc_worldline::{Worldline, WorldlineParams};
//! use qmc_rng::Xoshiro256StarStar;
//!
//! let mut sim = Worldline::new(WorldlineParams {
//!     l: 8, jx: 1.0, jz: 1.0, beta: 1.0, m: 8,
//! });
//! let mut rng = Xoshiro256StarStar::new(7);
//! let series = sim.run(&mut rng, 200, 1_000);
//! let e = series.mean_energy();
//! assert!(e < 0.0 && e > -0.75, "Heisenberg chain energy bounds: {e}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod estimators;
pub mod generic;
pub mod weights;

pub use engine::{Worldline, WorldlineParams};
pub use estimators::{Measurement, TimeSeries};
pub use generic::{GenericParams, GenericWorldline};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use qmc_ed::xxz::{full_spectrum, XxzParams};
    use qmc_lattice::Chain;
    use qmc_rng::Xoshiro256StarStar;
    use qmc_stats::BinningAnalysis;

    /// Run a worldline simulation and compare E/site and χ/site with ED.
    fn validate_against_ed(l: usize, jx: f64, jz: f64, beta: f64, m: usize, seed: u64) {
        let params = WorldlineParams { l, jx, jz, beta, m };
        let mut sim = Worldline::new(params);
        let mut rng = Xoshiro256StarStar::new(seed);
        let series = sim.run(&mut rng, 2000, 20_000);

        let lat = Chain::new(l);
        let spec = full_spectrum(&lat, &XxzParams { jx, jz, field: 0.0 });
        let e_exact = spec.energy(beta) / l as f64;
        let chi_exact = spec.susceptibility(beta) / l as f64;

        let be = BinningAnalysis::new(&series.energy, 16);
        let err = be.error().max(1e-4);
        // Allow 4σ plus the O(Δτ²) Trotter bias bound.
        let trotter = (beta / m as f64).powi(2) * (jx.abs() + jz.abs());
        assert!(
            (be.mean - e_exact).abs() < 4.0 * err + trotter,
            "L={l} β={beta} m={m}: E = {} ± {err} vs exact {e_exact} (trotter bound {trotter})",
            be.mean
        );

        let bchi = BinningAnalysis::new(&series.chi, 16);
        let chi_err = bchi.error().max(1e-4);
        assert!(
            (bchi.mean - chi_exact).abs() < 4.0 * chi_err + trotter,
            "L={l} β={beta} m={m}: χ = {} ± {chi_err} vs exact {chi_exact}",
            bchi.mean
        );
    }

    #[test]
    fn heisenberg_chain_l4_matches_ed() {
        validate_against_ed(4, 1.0, 1.0, 1.0, 16, 11);
    }

    #[test]
    fn heisenberg_chain_l8_matches_ed() {
        validate_against_ed(8, 1.0, 1.0, 1.0, 16, 22);
    }

    #[test]
    fn xy_chain_l8_matches_ed() {
        validate_against_ed(8, 1.0, 0.0, 1.0, 16, 33);
    }

    #[test]
    fn xxz_anisotropic_matches_ed() {
        validate_against_ed(6, 1.0, 0.5, 1.0, 16, 44);
    }

    #[test]
    fn lower_temperature_heisenberg_matches_ed() {
        validate_against_ed(8, 1.0, 1.0, 2.0, 32, 55);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn correlation_function_matches_ed() {
        let l = 8;
        let beta = 1.0;
        let m = 16;
        let mut sim = Worldline::new(WorldlineParams {
            l,
            jx: 1.0,
            jz: 1.0,
            beta,
            m,
        });
        let mut rng = Xoshiro256StarStar::new(66);
        let series = sim.run(&mut rng, 3_000, 25_000);
        let corr = series.correlations();

        let lat = Chain::new(l);
        let p = XxzParams::heisenberg(1.0);
        let trotter = (beta / m as f64).powi(2) * 2.0;
        for r in 0..=l / 2 {
            let exact = qmc_ed::xxz::szsz_correlation(&lat, &p, beta, 0, r);
            assert!(
                (corr[r] - exact).abs() < 0.01 + trotter,
                "C({r}) = {} vs exact {exact}",
                corr[r]
            );
        }
        // r = 0 is ⟨(Sᶻ)²⟩ = 1/4 exactly, configuration by configuration.
        assert!((corr[0] - 0.25).abs() < 1e-12);
    }
}
