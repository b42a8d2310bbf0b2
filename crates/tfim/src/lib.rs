//! Path-integral QMC for the transverse-field Ising model (TFIM), with a
//! domain-decomposed massively parallel implementation.
//!
//! `H = −J Σ_{⟨ij⟩} σᶻσᶻ − h Σ_i σˣ`  on a chain or square lattice.
//!
//! # Suzuki-Trotter mapping
//!
//! With `m` imaginary-time slices (`Δτ = β/m`) the quantum model maps onto
//! a `(d+1)`-dimensional *anisotropic classical Ising* system:
//!
//! * spatial coupling `K_s = Δτ J` between neighbours within a slice,
//! * temporal coupling `K_τ = −½ ln tanh(Δτ h)` between a site's copies in
//!   adjacent slices,
//! * prefactor `C^{Nm}` with `C² = ½ sinh(2Δτ h)`.
//!
//! All estimators (energy, `⟨σˣ⟩`) follow from τ-derivatives of `ln Z`;
//! see [`StCouplings`] for the exact expressions, which are validated
//! against the exact-diagonalization oracle in the tests.
//!
//! # Why this engine carries the parallel experiments
//!
//! The mapped model is a classical spin system with *strictly local*
//! couplings, so the classic mesh-machine recipe applies verbatim: block
//! domain decomposition of the spatial lattice, one-cell ghost frames,
//! checkerboard (parity of `x+y+t`) sweep halves with a halo exchange in
//! between — same-parity sites are conditionally independent, so the
//! parallel sweep is *exactly* a sequential sweep in a different order,
//! preserving detailed balance. This is the engine behind the T1/T2/T3
//! scaling tables.
//!
//! [`serial`] holds the single-memory engine (Metropolis + Wolff cluster
//! updates); [`parallel`] the distributed engine over any
//! [`qmc_comm::Communicator`].
//!
//! # Colour kernel
//!
//! Both engines sweep a colour with one private kernel (`colour.rs`),
//! which reproduces, decision for decision, the loop "for every site of
//! the colour, slice by slice, row by row, column by column: `if ratio >=
//! 1 || unit_f64(draw) < ratio { flip }`" with `ratio = table.ratio(s, sp,
//! tp)`. Within a colour nothing a site reads is written: its six
//! neighbours — ghosts included — have the other colour, and its own spin
//! is read by no other site. So the order of evaluation is free as long as
//! each site gets the draw the loop would give it.
//!
//! That draw is *keyed*: global site `g = (t·ly + y)·lx + x` in the
//! engine's Metropolis sweep `s` takes output `s·(lx·ly·m) + g` of the
//! SplitMix64 stream seeded by `key` ([`qmc_rng::SplitMix64::at`], O(1)
//! per draw), whether or not it consumes it; `key` is the first draw of
//! the engine's (for [`parallel::DistTfim`], the rank's) own generator at
//! its first sweep, and no other Metropolis sweep draws from it. A site's
//! draw then depends on nothing but the site and the sweep — not on which
//! rank owns it nor on what the sites before it did — so a distributed run
//! that hands every rank the same stream is the same trajectory on every
//! `P` and every processor grid (Salmon et al., SC'11, "Parallel random
//! numbers: as easy as 1, 2, 3"), and a Metropolis-only
//! [`serial::SerialTfim`] run on that stream is that trajectory too, bit
//! for bit. The key and the sweep counter are an engine's whole Metropolis
//! draw state, and both engines checkpoint them. A `SerialTfim` store
//! written before its Metropolis sweeps were keyed holds neither: the
//! fresh engine a resume builds draws its key at its first sweep and
//! counts from 0 — a correct continuation in distribution, not the
//! trajectory the interrupted build would have run. Its Wolff updates
//! take two draws each from the same generator, in order (see below).
//!
//! A block of rows is done in two passes:
//!
//! 1. **Index.** For every site of the rows — both colours, because
//!    testing parity costs more than the arithmetic — the flat
//!    [`AcceptTable`] index `((s+1)/2)·27 + (sp+4)·3 + (tp+2)/2`, as byte
//!    arithmetic over seven contiguous runs of spins (the row, its west
//!    and east shifts, the rows north, south, up and down; chains skip
//!    north and south). No branch, no dependence between sites: the loop
//!    vectorises. Consecutive rows whose neighbour rows lie at the same
//!    distances go through it as one span, the cells between them indexed
//!    along and never read, so narrow rows vectorise too.
//!    [`parallel::DistTfim`] hands over ghost-padded rows, whose every
//!    neighbour is a fixed distance away: a whole slice is one span.
//!    [`serial::SerialTfim`] hands over periodic ones: the rows (for a
//!    chain, the slices) that touch no wrap form the spans, a row whose
//!    north or south wraps goes alone, and of the two wrap columns of a
//!    row the one that has the colour is indexed by itself.
//! 2. **Resolve**, in site order and without a branch: `accept = (x >>
//!    11) < thr[k]; spin = if accept { −spin } else { spin }`, where `x`
//!    is `SplitMix64::at(key, i)` with `i += 2` along a row.
//!
//! `thr[k]` is an *exact* integer threshold ([`qmc_rng::threshold`], which
//! the world-line corner moves share): `u64::MAX` where `ratio ≥ 1`
//! (always accepted) and `⌈ratio·2⁵³⌉` otherwise.
//! [`qmc_rng::unit_f64`] — the one definition behind `next_f64` — maps a
//! raw draw `x` to `(x >> 11)·2⁻⁵³` exactly; scaling an `f64` below 1 by
//! 2⁵³ is exact; and an integer `n` is below `y` exactly when it is below
//! `⌈y⌉`. So `(x >> 11) < thr` *is* `ratio >= 1.0 || unit_f64(x) < ratio`
//! for every `x` and every table entry (0, subnormals and `1 − 2⁻⁵³`
//! included), not an approximation of it like the `u32` thresholds of
//! [`packed`].
//!
//! The scratch of a block — 1 024 index bytes — is a local of the sweep
//! that calls the kernel, not a field and not a heap buffer: it stays in
//! L1 next to the rows it describes, and it leaves the heap footprint of
//! an engine (39 KB for a 64 × 128 chain) where it was. A block is whole
//! rows; a row too wide for one is split into segments. The byte
//! arithmetic of pass 1 is why "every stored spin, ghosts included, is ±1"
//! is an invariant of both engines.
//!
//! # Wolff update
//!
//! [`serial::SerialTfim::wolff_update`] takes two draws from the engine's
//! generator, in order: the seed, `rng.index(n)`, then a key,
//! `rng.next_u64()`. Every bond has a name. Site `o` owns its +x, (+y,)
//! +t bonds, `dir` = 0, (1,) `d` (`d` = 1 on a chain, 2 on a square), and
//! bond `dir` of `o` is output `(d + 1)·o + dir` of the stream keyed by
//! `key`; a −x, −y or −t bond is the neighbour's that owns it. A bond
//! between two equal spins is open when `(SplitMix64::at(key, bond) >>
//! 11) < ⌈p·2⁵³⌉` — `bernoulli(p)` on that draw, by the identity above —
//! with `p = 1 − e^{−2K}` of its kind, and the update flips the seed's
//! component over the open bonds. A cluster is thus a function of (seed,
//! key, spins) alone: any walk over the bonds — breadth-first,
//! depth-first, a union-find, a merge of rank-local pieces — builds the
//! same one (Weigel, arXiv:1709.04394). For `m = 2` a site's +t and −t
//! neighbour is one site, joined to it by two bonds with two names, each
//! deciding on its own draw.
//!
//! The kernel walks breadth-first through a ring of cluster sites, a power
//! of two long, doubled from 16 entries when a site's pushes might not fit
//! and never sized to the lattice. A site is flipped when it joins, so a
//! member reads `−s` from then on and a bond is live exactly when the
//! neighbour reads `s`. Every neighbour's bond is decided whether or not
//! it is live, `hit = live & (draw < thr)`; the neighbour's spin and the
//! ring slot past the tail are written either way, and the tail moves on
//! by `hit`: no branch waits on a draw, and a site's pushes do not wait on
//! the site popped before it, as they would last in, first out.
//! Neighbours are reached by index arithmetic against wrap tests, the
//! column and row travelling with the site in its ring word, so the only
//! divisions of an update place its seed. An owner's bonds are outputs
//! `0..=d` of `key` moved on `(d + 1)·o` ([`qmc_rng::SplitMix64::advance`]),
//! one multiply per site, and a backward neighbour's are that key moved on
//! by a constant. `p = 1` (`K_τ` large enough that `e^{−2K}` rounds away)
//! is the threshold 2⁵³, above every `x >> 11`, and not
//! [`qmc_rng::NO_DRAW`].
//!
//! No state is added to a checkpoint: the two draws come from the
//! generator, which is saved. A store written while the Wolff update
//! still drew one number per live bond resumes under this build as a
//! correct continuation in distribution, not bit for bit: the generator
//! state is the same, but the draws it yields are spent differently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colour;
pub mod packed;
pub mod parallel;
pub mod serial;

/// Model parameters for the quantum TFIM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfimModel {
    /// Spatial extent in x (≥ 2, even for periodic checkerboard).
    pub lx: usize,
    /// Spatial extent in y (1 = chain; even ≥ 2 for a square lattice).
    pub ly: usize,
    /// Ferromagnetic coupling `J > 0`.
    pub j: f64,
    /// Transverse field `h > 0` (the mapping needs `tanh(Δτh) > 0`).
    pub h: f64,
    /// Inverse temperature β.
    pub beta: f64,
    /// Trotter slices `m` (even, so the time direction checkerboards).
    pub m: usize,
}

impl TfimModel {
    /// Whether the engines can run these parameters; [`Self::validated`]
    /// panics with the reason, and a job server refuses a spec with it.
    pub fn check(&self) -> Result<(), String> {
        // ≥ 4 in each periodic direction so a neighbour never coincides
        // with the site's other neighbour (the L = 2 double-bond corner
        // case is excluded; the exact-diagonalization oracle covers it).
        let why = if self.lx < 4 || !self.lx.is_multiple_of(2) {
            "lattice needs even lx >= 4"
        } else if !(self.ly == 1 || (self.ly >= 4 && self.ly.is_multiple_of(2))) {
            "ly must be 1 (chain) or even >= 4"
        } else if !(self.j.is_finite() && self.j > 0.0 && self.h.is_finite() && self.h > 0.0) {
            // h > 0: the Suzuki-Trotter mapping takes ln tanh(Δτ h).
            "couplings j and h must be finite and positive"
        } else if !(self.beta.is_finite() && self.beta > 0.0) {
            "β must be finite and positive"
        } else if self.m < 2 || !self.m.is_multiple_of(2) {
            "Trotter slices m must be even >= 2"
        } else if self.dtau() == 0.0 {
            // β is positive, but a subnormal β over m rounds to zero.
            "Δτ = β/m must be positive"
        } else {
            return Ok(());
        };
        Err(format!("{why}: {self:?}"))
    }

    /// Validate and return self (panics on unusable parameters).
    pub fn validated(self) -> Self {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self
    }

    /// Number of spatial sites.
    pub fn n_sites(&self) -> usize {
        self.lx * self.ly
    }

    /// `Δτ = β/m`.
    pub fn dtau(&self) -> f64 {
        self.beta / self.m as f64
    }

    /// The classical couplings of the mapped model.
    pub fn couplings(&self) -> StCouplings {
        StCouplings::new(self.j, self.h, self.dtau())
    }
}

/// J, h and β: what a TFIM checkpoint must have been written under to be
/// resumed by an engine or series of `model`.
fn stated_couplings(model: &TfimModel) -> [f64; 3] {
    [model.j, model.h, model.beta]
}

/// Append [`stated_couplings`] as one `f64s` of three.
pub(crate) fn save_couplings(enc: &mut qmc_ckpt::Encoder, model: &TfimModel) {
    enc.f64s(&stated_couplings(model));
}

/// Refuse couplings a checkpoint states unless they are `model`'s, bit for
/// bit: resumed under another J, h or β, a run would report one set of
/// parameters' samples under the other's.
pub(crate) fn check_couplings(
    stated: &[f64],
    model: &TfimModel,
    what: &str,
) -> Result<(), qmc_ckpt::CkptError> {
    let want = stated_couplings(model);
    if stated
        .iter()
        .map(|x| x.to_bits())
        .eq(want.map(f64::to_bits))
    {
        return Ok(());
    }
    Err(qmc_ckpt::CkptError::corrupt(match stated {
        &[j, h, beta] => format!(
            "{what} is for J={} h={} β={}, checkpoint has J={j} h={h} β={beta}",
            model.j, model.h, model.beta
        ),
        _ => format!(
            "{what} checkpoint states {} couplings, not J, h and β",
            stated.len()
        ),
    }))
}

/// Suzuki-Trotter couplings and estimator coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StCouplings {
    /// Spatial coupling `K_s = Δτ J`.
    pub k_space: f64,
    /// Temporal coupling `K_τ = −½ ln tanh(Δτ h)`.
    pub k_time: f64,
    /// `Δτ`.
    pub dtau: f64,
    /// `J`.
    pub j: f64,
    /// `h`.
    pub h: f64,
}

impl StCouplings {
    /// Derive the couplings.
    pub fn new(j: f64, h: f64, dtau: f64) -> Self {
        assert!(h > 0.0 && dtau > 0.0);
        let th = (dtau * h).tanh();
        Self {
            k_space: dtau * j,
            k_time: -0.5 * th.ln(),
            dtau,
            j,
            h,
        }
    }

    /// Quantum energy estimator from classical bond sums:
    ///
    /// `E = −N h coth(2Δτh) − (J/m)·ΣSP + (h / (m sinh(2Δτh)))·ΣT`
    ///
    /// where `ΣSP` (`ΣT`) is the sum of `s·s'` over all spatial (temporal)
    /// bonds of the space-time configuration, `N` the number of spatial
    /// sites and `m` the slice count.
    pub fn energy(&self, n_sites: usize, m: usize, sp_sum: f64, t_sum: f64) -> f64 {
        let x = 2.0 * self.dtau * self.h;
        let coth = x.cosh() / x.sinh();
        -(n_sites as f64) * self.h * coth - self.j * sp_sum / m as f64
            + self.h * t_sum / (m as f64 * x.sinh())
    }

    /// `⟨σˣ⟩` estimator per site:
    /// `coth(2Δτh) − ΣT/(N m sinh(2Δτh))`.
    pub fn sigma_x(&self, n_sites: usize, m: usize, t_sum: f64) -> f64 {
        let x = 2.0 * self.dtau * self.h;
        x.cosh() / x.sinh() - t_sum / (n_sites as f64 * m as f64 * x.sinh())
    }
}

/// Precomputed Metropolis acceptance-ratio table for the mapped classical
/// model, shared by the serial and distributed engines.
///
/// The flip cost of a site with spin `s` is
/// `ΔS = 2 s (K_s·sp + K_τ·tp)` where `sp ∈ [−4, 4]` is the sum of the
/// (≤ 4) spatial neighbour spins and `tp ∈ {−2, 0, 2}` the sum of the two
/// temporal neighbours. That is a domain of 2·9·3 = 54 points, so the
/// acceptance ratio `e^{−ΔS}` is tabulated once per `(J, h, β, m)` and the
/// sweep kernels never call a transcendental function.
///
/// Layout: `t[(s+1)/2][sp + 4][(tp + 2)/2]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptTable {
    t: [[[f64; 3]; 9]; 2],
}

impl AcceptTable {
    /// Tabulate `e^{−ΔS}` over the full `(s, sp, tp)` domain. The entries
    /// are bit-identical to evaluating `(-cost).exp()` inline because the
    /// cost expression is written in the exact same operation order the
    /// kernels previously used.
    pub fn new(c: &StCouplings) -> Self {
        let mut t = [[[0.0; 3]; 9]; 2];
        for (si, s) in [-1.0f64, 1.0].iter().enumerate() {
            for sp in -4i32..=4 {
                for (ti, tp) in [-2.0f64, 0.0, 2.0].iter().enumerate() {
                    let cost = 2.0 * s * (c.k_space * sp as f64 + c.k_time * tp);
                    t[si][(sp + 4) as usize][ti] = (-cost).exp();
                }
            }
        }
        Self { t }
    }

    /// Acceptance ratio `min(1, e^{−ΔS})`-style raw ratio `e^{−ΔS}` for a
    /// site with spin `s`, spatial neighbour sum `sp` and temporal
    /// neighbour sum `tp`.
    #[inline(always)]
    pub fn ratio(&self, s: i8, sp: i32, tp: i32) -> f64 {
        debug_assert!(s == 1 || s == -1);
        debug_assert!((-4..=4).contains(&sp));
        debug_assert!(tp == -2 || tp == 0 || tp == 2);
        self.t[((s + 1) / 2) as usize][(sp + 4) as usize][((tp + 2) / 2) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_table_matches_direct_exp_over_full_domain() {
        // Property test over the complete (s, sp, tp) domain for several
        // coupling sets: the table must equal the direct evaluation
        // bit-for-bit (same operation order), so swapping the kernels to
        // table lookups cannot perturb any random-number trajectory.
        for (j, h, beta, m) in [
            (1.0, 1.0, 1.0, 16usize),
            (1.0, 0.4, 2.0, 32),
            (0.7, 2.5, 0.5, 8),
            (2.0, 0.05, 4.0, 64),
        ] {
            let c = StCouplings::new(j, h, beta / m as f64);
            let table = AcceptTable::new(&c);
            for s in [-1i8, 1] {
                for sp in -4i32..=4 {
                    for tp in [-2i32, 0, 2] {
                        let cost = 2.0 * s as f64 * (c.k_space * sp as f64 + c.k_time * tp as f64);
                        let direct = (-cost).exp();
                        assert_eq!(
                            table.ratio(s, sp, tp).to_bits(),
                            direct.to_bits(),
                            "J={j} h={h} β={beta} m={m} s={s} sp={sp} tp={tp}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn couplings_known_limits() {
        // Δτh small: K_τ ≈ −½ ln(Δτh) (large); K_s = ΔτJ.
        let c = StCouplings::new(1.0, 1.0, 0.01);
        assert!((c.k_space - 0.01).abs() < 1e-15);
        assert!(c.k_time > 2.0);
        // Δτh large: K_τ → 0⁺.
        let c2 = StCouplings::new(1.0, 1.0, 5.0);
        assert!(c2.k_time > 0.0 && c2.k_time < 1e-4);
    }

    #[test]
    fn model_validation_catches_bad_input() {
        let good = TfimModel {
            lx: 8,
            ly: 1,
            j: 1.0,
            h: 0.5,
            beta: 2.0,
            m: 8,
        };
        good.validated();
        let check_panics = |f: Box<dyn Fn() -> TfimModel + std::panic::UnwindSafe>| {
            assert!(std::panic::catch_unwind(move || f().validated()).is_err());
        };
        check_panics(Box::new(move || TfimModel { lx: 7, ..good }));
        check_panics(Box::new(move || TfimModel { ly: 3, ..good }));
        check_panics(Box::new(move || TfimModel { h: 0.0, ..good }));
        check_panics(Box::new(move || TfimModel { m: 3, ..good }));
        check_panics(Box::new(move || TfimModel { j: -1.0, ..good }));
    }

    #[test]
    fn energy_estimator_fully_aligned_classical_limit() {
        // All spins aligned: ΣSP = n_bonds·m, ΣT = N·m. As Δτh → ∞ the
        // temporal term vanishes (coth→1, 1/sinh→0) and
        // E → −N h − J·n_bonds: the classical aligned energy plus the
        // field term saturated.
        let c = StCouplings::new(1.0, 1.0, 20.0);
        let n = 8;
        let m = 4;
        let n_bonds = 8; // chain of 8
        let e = c.energy(n, m, (n_bonds * m) as f64, (n * m) as f64);
        assert!((e - (-(n as f64) - n_bonds as f64)).abs() < 1e-6, "E = {e}");
    }

    #[test]
    fn sigma_x_bounds() {
        // ΣT = Nm (all temporal bonds aligned) gives the minimal σx;
        // fully anti-aligned gives the max. Both must lie in [−1, 1]-ish
        // physical range for sane Δτ.
        let c = StCouplings::new(1.0, 0.8, 0.05);
        let lo = c.sigma_x(10, 20, (10 * 20) as f64);
        let hi = c.sigma_x(10, 20, -((10 * 20) as f64));
        assert!(lo < hi);
        assert!(lo > -0.2, "lo = {lo}");
    }
}
