//! The two-site imaginary-time propagator and its τ-derivatives.
//!
//! For a bond Hamiltonian `h = Jx (SˣSˣ + SʸSʸ) + Jz SᶻSᶻ` the propagator
//! `exp(−Δτ h)` in the basis {↑↑, ↑↓, ↓↑, ↓↓} is
//!
//! ```text
//!   e^{−ΔτJz/4}                                   on ↑↑→↑↑, ↓↓→↓↓
//!   e^{+ΔτJz/4} cosh(ΔτJx/2)                      on ↑↓→↑↓, ↓↑→↓↑
//!   −e^{+ΔτJz/4} sinh(ΔτJx/2)                     on ↑↓→↓↑, ↓↑→↑↓
//! ```
//!
//! On a bipartite lattice the sublattice rotation `S± → −S±` on one
//! sublattice flips the sign of `Jx`, i.e. `sinh(ΔτJx/2) → |sinh|`; the
//! Monte Carlo therefore uses `|Jx|` and all weights are non-negative.
//! (For an FM transverse coupling no rotation is needed; either way the
//! *magnitudes* below are the sampling weights and diagonal observables
//! are unaffected.)

/// Plaquette transition classes (the only Sᶻ-conserving ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaqClass {
    /// Parallel spins propagating straight: ↑↑→↑↑ or ↓↓→↓↓.
    DiagonalParallel,
    /// Antiparallel spins propagating straight: ↑↓→↑↓ or ↓↑→↓↑.
    DiagonalAnti,
    /// Antiparallel spins exchanging: ↑↓→↓↑ or ↓↑→↑↓.
    Flip,
    /// Anything that violates plaquette Sᶻ conservation (weight 0).
    Forbidden,
}

/// Classify a plaquette from its four corner spins (`false` = ↓).
#[inline]
pub fn classify(bottom: (bool, bool), top: (bool, bool)) -> PlaqClass {
    let bsum = bottom.0 as u8 + bottom.1 as u8;
    let tsum = top.0 as u8 + top.1 as u8;
    if bsum != tsum {
        return PlaqClass::Forbidden;
    }
    if bottom == top {
        if bottom.0 == bottom.1 {
            PlaqClass::DiagonalParallel
        } else {
            PlaqClass::DiagonalAnti
        }
    } else if bottom.0 != bottom.1 {
        PlaqClass::Flip
    } else {
        PlaqClass::Forbidden
    }
}

/// Index of a plaquette's corner spins into a 16-entry per-pattern table
/// ([`by_pattern`]): `a0 | b0<<1 | a1<<2 | b1<<3`, with `a` the
/// left (first) site, `b` the right one, `0` the bottom row and `1` the top.
/// Flipping the left site's column on both rows is `^ 0b0101`, the right
/// site's `^ 0b1010`.
#[inline]
pub(crate) fn pattern(bottom: (bool, bool), top: (bool, bool)) -> usize {
    bottom.0 as usize | (bottom.1 as usize) << 1 | (top.0 as usize) << 2 | (top.1 as usize) << 3
}

/// `of(class)` for each of the 16 corner patterns, by [`pattern`]: folds
/// [`classify`] and the class match into one table load, each entry the
/// very `f64` that `of` returns for the pattern's class (`of` runs once
/// per class, so a logarithm in it is taken three times, not per cell).
pub(crate) fn by_pattern(of: impl Fn(PlaqClass) -> f64) -> [f64; 16] {
    use PlaqClass::*;
    let [parallel, anti, flip, forbidden] =
        [DiagonalParallel, DiagonalAnti, Flip, Forbidden].map(of);
    std::array::from_fn(|p| {
        let bit = |b: usize| (p >> b) & 1 == 1;
        match classify((bit(0), bit(1)), (bit(2), bit(3))) {
            DiagonalParallel => parallel,
            DiagonalAnti => anti,
            Flip => flip,
            Forbidden => forbidden,
        }
    })
}

/// Precomputed plaquette weights and estimator coefficients for one
/// `(Jx, Jz, Δτ)`.
#[derive(Debug, Clone, Copy)]
pub struct PlaqWeights {
    /// `Δτ`.
    pub dtau: f64,
    /// Weight of [`PlaqClass::DiagonalParallel`].
    pub w_parallel: f64,
    /// Weight of [`PlaqClass::DiagonalAnti`].
    pub w_anti: f64,
    /// Weight of [`PlaqClass::Flip`] (magnitude after sublattice rotation).
    pub w_flip: f64,
    /// Energy coefficient `−∂ ln w/∂Δτ` per class.
    pub e_parallel: f64,
    /// Energy coefficient of the anti-parallel diagonal class.
    pub e_anti: f64,
    /// Energy coefficient of the flip class.
    pub e_flip: f64,
    /// `∂e/∂Δτ` per class (heat-capacity correction term).
    pub de_parallel: f64,
    /// `∂e/∂Δτ` for the anti-parallel diagonal class.
    pub de_anti: f64,
    /// `∂e/∂Δτ` for the flip class.
    pub de_flip: f64,
}

impl PlaqWeights {
    /// Compute the table for couplings `(jx, jz)` and imaginary-time step
    /// `dtau`.
    pub fn new(jx: f64, jz: f64, dtau: f64) -> Self {
        assert!(dtau > 0.0, "Δτ must be positive");
        let jx = jx.abs(); // sublattice rotation (see module docs)
        let k = dtau * jx / 2.0;
        let gz = dtau * jz / 4.0;
        let (ch, sh) = (k.cosh(), k.sinh());
        // Energies: e = −∂ln w/∂Δτ.
        //  parallel: w = e^{−gz}             → e = Jz/4
        //  anti:     w = e^{+gz} cosh k      → e = −Jz/4 − (Jx/2) tanh k
        //  flip:     w = e^{+gz} sinh k      → e = −Jz/4 − (Jx/2) coth k
        let e_parallel = jz / 4.0;
        let e_anti = -jz / 4.0 - (jx / 2.0) * (sh / ch);
        let e_flip = -jz / 4.0 - (jx / 2.0) * (ch / sh.max(1e-300));
        // Derivatives ∂e/∂Δτ:
        //  parallel: 0
        //  anti: −(Jx/2)² sech² k
        //  flip: +(Jx/2)² csch² k
        let de_parallel = 0.0;
        let de_anti = -(jx / 2.0).powi(2) / (ch * ch);
        let de_flip = (jx / 2.0).powi(2) / (sh * sh).max(1e-300);
        Self {
            dtau,
            w_parallel: (-gz).exp(),
            w_anti: gz.exp() * ch,
            w_flip: gz.exp() * sh,
            e_parallel,
            e_anti,
            e_flip,
            de_parallel,
            de_anti,
            de_flip,
        }
    }

    /// Log of the sampling weight of a class, −∞ where the weight is not
    /// positive (a forbidden plaquette, or a flip at `Jx = 0`).
    pub(crate) fn ln_weight(&self, class: PlaqClass) -> f64 {
        let w = self.weight(class);
        if w <= 0.0 {
            f64::NEG_INFINITY
        } else {
            w.ln()
        }
    }

    /// Sampling weight of a class.
    #[inline]
    pub fn weight(&self, class: PlaqClass) -> f64 {
        match class {
            PlaqClass::DiagonalParallel => self.w_parallel,
            PlaqClass::DiagonalAnti => self.w_anti,
            PlaqClass::Flip => self.w_flip,
            PlaqClass::Forbidden => 0.0,
        }
    }

    /// Energy estimator coefficient `−∂ ln w/∂Δτ` of a class.
    #[inline]
    pub fn energy(&self, class: PlaqClass) -> f64 {
        match class {
            PlaqClass::DiagonalParallel => self.e_parallel,
            PlaqClass::DiagonalAnti => self.e_anti,
            PlaqClass::Flip => self.e_flip,
            PlaqClass::Forbidden => f64::NAN,
        }
    }

    /// `∂e/∂Δτ` of a class (enters the specific-heat estimator).
    #[inline]
    pub fn denergy(&self, class: PlaqClass) -> f64 {
        match class {
            PlaqClass::DiagonalParallel => self.de_parallel,
            PlaqClass::DiagonalAnti => self.de_anti,
            PlaqClass::Flip => self.de_flip,
            PlaqClass::Forbidden => f64::NAN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_all_sixteen_transitions() {
        use PlaqClass::*;
        let t = true;
        let f = false;
        assert_eq!(classify((t, t), (t, t)), DiagonalParallel);
        assert_eq!(classify((f, f), (f, f)), DiagonalParallel);
        assert_eq!(classify((t, f), (t, f)), DiagonalAnti);
        assert_eq!(classify((f, t), (f, t)), DiagonalAnti);
        assert_eq!(classify((t, f), (f, t)), Flip);
        assert_eq!(classify((f, t), (t, f)), Flip);
        // Sz-violating examples
        assert_eq!(classify((t, t), (t, f)), Forbidden);
        assert_eq!(classify((f, f), (t, f)), Forbidden);
        assert_eq!(classify((t, t), (f, f)), Forbidden);
        assert_eq!(classify((t, f), (t, t)), Forbidden);
    }

    #[test]
    fn weights_match_matrix_exponential_2x2() {
        // Directly exponentiate the central 2×2 block
        // [[−Jz/4, Jx/2], [Jx/2, −Jz/4]] and compare.
        let (jx, jz, dtau) = (1.3, 0.8, 0.07);
        let w = PlaqWeights::new(jx, jz, dtau);
        // exp(−Δτ h) central block: e^{ΔτJz/4}[[cosh, −sinh],[−sinh, cosh]]
        let k = dtau * jx / 2.0;
        let expect_anti = (dtau * jz / 4.0).exp() * k.cosh();
        let expect_flip = (dtau * jz / 4.0).exp() * k.sinh();
        assert!((w.w_anti - expect_anti).abs() < 1e-14);
        assert!((w.w_flip - expect_flip).abs() < 1e-14);
        assert!((w.w_parallel - (-dtau * jz / 4.0).exp()).abs() < 1e-14);
    }

    #[test]
    fn trace_of_propagator_matches_two_site_partition_function() {
        // Tr exp(−Δτ h) over the 4-dim two-site space must equal
        // 2 w_parallel + 2 w_anti (flip terms are off-diagonal).
        // Two-site XXZ eigenvalues: Jz/4 (×2 — the parallel states are
        // eigenstates), −Jz/4 ± Jx/2.
        let (jx, jz, b) = (0.9, 1.1, 0.23);
        let w = PlaqWeights::new(jx, jz, b);
        let direct = 2.0 * (-b * jz / 4.0).exp()
            + (-b * (-jz / 4.0 + jx / 2.0)).exp()
            + (-b * (-jz / 4.0 - jx / 2.0)).exp();
        let from_weights = 2.0 * w.w_parallel + 2.0 * w.w_anti;
        assert!((direct - from_weights).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn energy_coefficients_match_numerical_derivative() {
        let (jx, jz) = (1.0, 0.6);
        let dtau = 0.1;
        let d = 1e-6;
        let wp = PlaqWeights::new(jx, jz, dtau + d);
        let wm = PlaqWeights::new(jx, jz, dtau - d);
        let w0 = PlaqWeights::new(jx, jz, dtau);
        let cases: [(fn(&PlaqWeights) -> f64, f64); 3] = [
            (|w| w.w_parallel, w0.e_parallel),
            (|w| w.w_anti, w0.e_anti),
            (|w| w.w_flip, w0.e_flip),
        ];
        for (sel, e) in cases {
            let num = -(sel(&wp).ln() - sel(&wm).ln()) / (2.0 * d);
            assert!((num - e).abs() < 1e-6, "numeric {num} vs analytic {e}");
        }
    }

    #[test]
    fn denergy_matches_numerical_derivative() {
        let (jx, jz) = (1.0, 0.6);
        let dtau = 0.1;
        let d = 1e-6;
        let wp = PlaqWeights::new(jx, jz, dtau + d);
        let wm = PlaqWeights::new(jx, jz, dtau - d);
        let w0 = PlaqWeights::new(jx, jz, dtau);
        let checks = [
            ((wp.e_anti - wm.e_anti) / (2.0 * d), w0.de_anti),
            ((wp.e_flip - wm.e_flip) / (2.0 * d), w0.de_flip),
        ];
        for (num, ana) in checks {
            assert!((num - ana).abs() < 1e-5, "numeric {num} vs analytic {ana}");
        }
    }

    #[test]
    fn afm_and_fm_transverse_weights_identical() {
        // Sublattice rotation: |Jx| is what matters.
        let a = PlaqWeights::new(1.0, 0.5, 0.1);
        let b = PlaqWeights::new(-1.0, 0.5, 0.1);
        assert_eq!(a.w_flip, b.w_flip);
        assert_eq!(a.w_anti, b.w_anti);
    }

    #[test]
    fn all_weights_nonnegative() {
        for &(jx, jz) in &[(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (0.5, 0.0)] {
            let w = PlaqWeights::new(jx, jz, 0.05);
            assert!(w.w_parallel > 0.0);
            assert!(w.w_anti > 0.0);
            assert!(w.w_flip >= 0.0);
            assert_eq!(w.weight(PlaqClass::Forbidden), 0.0);
        }
    }
}
