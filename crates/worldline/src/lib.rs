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
//! The chain engine stores each spin row bit-packed and twice over,
//! `x‖x` (the [`qmc_lattice::DoubledRing`] layout, one representation
//! for every even `l`): any run of sites starting below `l` is one
//! contiguous bit field, a two-word funnel shift at most, and the
//! periodic seam is no special case. A replica step — sweep, log-weights,
//! measurement — is three table-driven walks over those words, none of
//! which sorts, allocates, classifies a plaquette or takes a logarithm
//! per cell:
//!
//! * **Corner moves** go row by row, cells left to right (neighbouring
//!   cells share columns, so the order is part of the trajectory). One
//!   candidate mask per 64 sites, `eq & eq≫1 & (lo ⊕ lo≫1) & parity` with
//!   `eq = ¬(lo ⊕ hi)`, marks every cell whose move is a proposal. It is
//!   exact for the whole row although moves are made while it is walked:
//!   a cell's test reads only its own two sites, and only it flips them.
//!   Candidates are visited in ascending order; each gathers the nine
//!   spins its ratio depends on from the live rows (four-bit fields, so a
//!   neighbour an earlier move flipped is read flipped), indexes 512
//!   integer thresholds `⌈ratio·2⁵³⌉` ([`qmc_rng::threshold`], shared
//!   with the TFIM colour kernel), and compares its own keyed draw
//!   shifted right by 11 — the predicate of `metropolis(ratio)` for every
//!   raw draw; a ratio ≥ 1 is `u64::MAX`, above every draw, so no
//!   proposal branches on whether to draw. An accepted move XORs its two
//!   sites in both copies of both rows.
//! * **A straight-line move** first tests one kink mask, `OR_t (row_t ⊕
//!   row_0)`, built after the corner rows: a set bit is a column that is
//!   not one straight world line. In a valid configuration a column
//!   changes between two rows exactly where its shaded cell is a flip
//!   cell, and flipping a column beside a flip cell makes a forbidden
//!   cell, a ratio of 0 that is rejected. Beside a kink-free column every
//!   cell is diagonal, and the flip swaps parallel and anti-parallel in
//!   each, so with `n` of its `2m` cells anti-parallel the ratio is
//!   `(w_anti / w_par)^(2m − 2n)`: a count, not a product. One pass after
//!   the kink mask counts every pair's anti-parallel cells, `(row ⊕
//!   row≫1) & parity` summed in byte lanes that are emptied every 255 row
//!   pairs, and an attempt reads two counts and one of `m + 1` thresholds
//!   built in `new` (the other side of `n = m` always accepts). An
//!   accepted move sets both counts to `m − n` and toggles its column in
//!   a flip mask that is XORed into every row once, after all `L`
//!   attempts: later attempts read only the kink mask and the counts,
//!   and both stay exact, because a flipped kink-free column stays
//!   kink-free and no other column changes. The ratio is the product a
//!   sorted cell list multiplies out to within rounding (`1e-12`
//!   relative, tested on every kink-free column), not bit for bit.
//! * **Log-weight and energy** add `ln w`, `e` and `∂e/∂Δτ` from 16-entry
//!   tables in row-major cell order, 32 cells' corner pairs per word
//!   read; the three logarithms are taken once per call, a tempering
//!   exchange gets its two log-weights from one walk with two
//!   accumulators, and a forbidden cell still makes the sum −∞.
//!
//! The replica-exchange payload and the checkpoint section stay one byte
//! per spin. The walks the packed ones replaced — the bool-row kernel,
//! and before it the route that collects the affected cells of an
//! arbitrary flip list, sorts, dedups, multiplies, flips, multiplies and
//! flips back (*generic*, with no hand-derived case to get wrong, and
//! how [`generic`]'s window, ring and straight-line moves are still
//! accepted) — survive in [`engine`] as the `cfg(test)` keyed scalar
//! oracles the walks are compared against after every corner row and
//! every straight-line attempt, reading the same draws and the same
//! straight-line thresholds (the bool rows count a column's anti-parallel
//! cells row by row, the sorted list classifies its cells), next to the
//! `f64` corner ratio and the cell-by-cell sums.
//! `tests/trajectory_pins.rs` holds fixed-seed fingerprints of both
//! engines; the chain engine's rows, and the tempering rows built on it,
//! were recorded from the keyed scalar oracle running in place of the
//! kernel, and the chain cases live in `tests/pins/chain_worldline.rs`,
//! which the oracle test in [`engine`] runs too.
//!
//! # Draws
//!
//! A chain sweep takes one draw from its generator, its key
//! `key = rng.next_u64()`, and every decision in it reads its own output
//! of the SplitMix64 stream that key seeds,
//! [`qmc_rng::SplitMix64::at`]`(key, index)`. With `L` the chain length
//! and `2m` the rows, the indices are:
//!
//! | index                   | decision                                        |
//! |-------------------------|-------------------------------------------------|
//! | `t·L + i`               | the corner move on unshaded cell `(i, t)`       |
//! | `2mL + 2a`              | straight-line attempt `a`'s column              |
//! | `2mL + 2a + 1`          | straight-line attempt `a`'s acceptance          |
//! | `2mL + 2L + r·L + a`    | attempt `a`'s column, `r`-th retry (`r = 0, 1, …`) |
//!
//! A column is the high word of `raw · L` (Lemire's multiply-high), and
//! its low word is checked so the choice is exactly uniform: a draw whose
//! low word falls below `2⁶⁴ mod L` (probability below `L·2⁻⁶⁴`, and
//! never for a power-of-two `L`) retries on the reserved range. An
//! acceptance compares `raw >> 11` with an integer threshold
//! ([`qmc_rng::threshold`]). Corner moves still go in ascending order on
//! the live rows, so a cell's neighbourhood depends on the moves before
//! it; what no longer depends on them is which draw it reads.
//!
//! Checkpoints hold no draw state beyond the generator's. A store written
//! before sweeps took keyed draws resumes into a correct chain from the
//! same configuration, but its continuation is not the one the older
//! build would have produced bit for bit. [`generic`] still draws in call
//! order.
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
