//! Stochastic series expansion (SSE) QMC for the spin-1/2 Heisenberg
//! antiferromagnet with deterministic operator-loop updates.
//!
//! SSE samples the Taylor expansion of the partition function,
//!
//! `Z = Σ_α Σ_{S_M} β^n (M−n)!/M! ⟨α| Π_p H_{a_p, b_p} |α⟩`,
//!
//! over fixed-length operator strings — no Trotter discretization, so SSE
//! is the *exact-β* cross-check for the world-line engine (experiment T5)
//! and the workhorse for the 2-D Heisenberg physics (experiment F5).
//!
//! The bond Hamiltonian is split the standard way (Sandvik):
//!
//! * diagonal: `H_1,b = J(¼ − Sᶻᵢ Sᶻⱼ)` — weight `J/2` on anti-parallel
//!   bonds, `0` on parallel ones,
//! * off-diagonal: `H_2,b = (J/2)(S⁺ᵢS⁻ⱼ + S⁻ᵢS⁺ⱼ)` — weight `J/2`.
//!
//! Because every non-zero vertex has weight `J/2`, the operator-loop
//! update is **deterministic and rejection-free**: a loop entering a
//! vertex leg always exits at the same-side partner leg (the only
//! Sᶻ-conserving, non-zero-weight choice), toggling
//! diagonal ↔ off-diagonal as it passes. Each loop is flipped with
//! probability ½. This is what makes SSE dramatically more ergodic than
//! local world-line moves (it changes winding and magnetization sectors
//! freely).
//!
//! A sweep is three passes, and only the first walks all `M` slots of
//! the string: the diagonal pass, which inserts and removes operators,
//! lists the slots that end it holding one, and the link and loop
//! passes walk that list — `n` operators, not `M` slots. The link table
//! is never reset (every leg of an occupied slot is rewritten each sweep,
//! and no pass reads an identity leg), and a loop marks each leg it visits
//! in the link table itself, kept or flipped: that mark is how a later
//! loop start knows the leg is taken, and what the free-spin pass reads
//! to tell whether a site's spin flipped.
//!
//! Estimators: `⟨H⟩ = −⟨n⟩/β + N_b J/4`,
//! `C = ⟨n²⟩ − ⟨n⟩² − ⟨n⟩`, uniform χ from the conserved magnetization,
//! and the staggered structure factor from `|α⟩`.
//!
//! ```
//! use qmc_lattice::Square;
//! use qmc_rng::Xoshiro256StarStar;
//!
//! let lat = Square::new(4, 4);
//! let mut rng = Xoshiro256StarStar::new(3);
//! let mut sse = qmc_sse::Sse::new(&lat, 1.0, 2.0, &mut rng);
//! let series = sse.run(&mut rng, 500, 2_000);
//! let e: f64 = series.energy_samples().iter().sum::<f64>() / 2_000.0;
//! assert!(e < -0.3 && e > -0.75, "2-D Heisenberg energy bounds: {e}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qmc_lattice::{DoubledRing, Lattice};
use qmc_rng::Rng64;

/// Encoded operator: `-1` = identity, else `2·bond + (0 diag | 1 offdiag)`.
type Op = i64;

const IDENTITY: Op = -1;

/// The marks [`Sse::loop_update`] leaves on a visited leg in the link
/// table, where every link proper is `≥ 0`: its loop was kept, or
/// flipped. `FLIP = KEEP − 1`, so a loop whose coin is `flip ∈ {0, 1}`
/// marks its legs `KEEP − flip`.
const KEEP: i64 = -1;
const FLIP: i64 = -2;

/// SSE engine for the isotropic Heisenberg antiferromagnet (`J > 0`).
#[derive(Debug, Clone)]
pub struct Sse {
    n_sites: usize,
    bonds: Vec<(u32, u32)>,
    sublattice: Vec<u8>,
    j: f64,
    beta: f64,
    /// Current basis state |α⟩ (`true` = ↑).
    state: Vec<bool>,
    /// Operator string of length `cutoff`.
    ops: Vec<Op>,
    /// Non-identity operator count.
    n_ops: usize,
    /// `prob_insert[k] = β·N_b·(J/2)/k`, indexed by the free-slot count
    /// `k = M − n` — the diagonal-insert acceptance probability with the
    /// division taken out of the sweep loop.
    prob_insert: Vec<f64>,
    /// `prob_remove[k] = k/(β·N_b·(J/2))`, indexed by `k = M − n + 1`.
    prob_remove: Vec<f64>,
    /// `M` entries; after a diagonal pass the first `n` are the slots that
    /// hold an operator, in increasing order — all the link and loop
    /// passes walk.
    occupied: Vec<u32>,
    /// Vertex-leg link table, `4M` entries: leg `4p + k` of slot `p` is
    /// `k = 0, 1` below the operator on the bond's two sites and `k = 2, 3`
    /// above them. Only the legs of occupied slots are meaningful — every
    /// one is rewritten each sweep, identity legs hold whatever they last
    /// held — and after the loop pass each visited leg holds its loop's
    /// mark ([`KEEP`] / [`FLIP`]) instead of its link.
    links: Vec<i64>,
    /// First / last leg on each site round the string. `vfirst` is `-1` on
    /// a site no operator acts on, and `vlast` then holds a stale leg.
    vfirst: Vec<i64>,
    vlast: Vec<i64>,
    /// Basis state changed since the last successful checkpoint snapshot
    /// (conservatively true on construction; cleared only by
    /// [`qmc_ckpt::Checkpoint::mark_clean`]).
    state_dirty: bool,
    /// Operator string changed since the last successful snapshot.
    ops_dirty: bool,
}

/// Per-sweep measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SseMeasurement {
    /// Operator count `n` (energy estimator).
    pub n_ops: f64,
    /// Total magnetization `Σ Sᶻ`.
    pub magnetization: f64,
    /// Staggered magnetization `Σ (−1)^{sublattice} Sᶻ`.
    pub staggered: f64,
}

/// Time series plus derived estimators.
#[derive(Debug, Clone)]
pub struct SseSeries {
    /// β the run used.
    pub beta: f64,
    /// J.
    pub j: f64,
    /// Site count.
    pub n_sites: usize,
    /// Bond count.
    pub n_bonds: usize,
    /// Operator counts.
    pub n_ops: Vec<f64>,
    /// Magnetizations.
    pub magnetization: Vec<f64>,
    /// Staggered magnetizations.
    pub staggered: Vec<f64>,
    /// Accumulated chain correlation sums `⟨Sᶻ_0 Sᶻ_r⟩` (chains only;
    /// empty for 2-D lattices), r ∈ 0..=N/2.
    corr_sum: Vec<f64>,
    corr_count: u64,
    /// Rows captured by the last successful snapshot: completed row
    /// chunks below this mark are immutable and checkpoint as clean.
    clean_rows: usize,
    /// Bit-packed copy of `|α⟩` that [`Sse::record_measurement`] refills
    /// every sweep. Scratch only: sized once, never checkpointed.
    ring: DoubledRing,
}

impl SseSeries {
    /// Energy-per-site samples: `E/N = −n/(βN) + N_b J/(4N)`.
    pub fn energy_samples(&self) -> Vec<f64> {
        let shift = self.n_bonds as f64 * self.j / 4.0;
        self.n_ops
            .iter()
            .map(|&n| (-n / self.beta + shift) / self.n_sites as f64)
            .collect()
    }

    /// Specific heat per site via `C = (⟨n²⟩ − ⟨n⟩² − ⟨n⟩)/N` with a
    /// jackknife error.
    pub fn specific_heat(&self) -> (f64, f64) {
        let n2: Vec<f64> = self.n_ops.iter().map(|n| n * n).collect();
        let nn = self.n_sites as f64;
        let est = qmc_stats::jackknife_pair(
            &n2,
            &self.n_ops,
            32.min(self.n_ops.len() / 2).max(2),
            |a, b| (a - b * b - b) / nn,
        );
        (est.value, est.error)
    }

    /// Uniform susceptibility per site `χ = β(⟨M²⟩ − ⟨M⟩²)/N` with a
    /// jackknife error.
    pub fn susceptibility(&self) -> (f64, f64) {
        let m2: Vec<f64> = self.magnetization.iter().map(|m| m * m).collect();
        let beta = self.beta;
        let nn = self.n_sites as f64;
        let est = qmc_stats::jackknife_pair(
            &m2,
            &self.magnetization,
            32.min(self.magnetization.len() / 2).max(2),
            |a, b| beta * (a - b * b) / nn,
        );
        (est.value, est.error)
    }

    /// Mean chain correlation function `C(r)` (empty unless recorded).
    pub fn correlations(&self) -> Vec<f64> {
        if self.corr_count == 0 {
            return Vec::new();
        }
        self.corr_sum
            .iter()
            .map(|s| s / self.corr_count as f64)
            .collect()
    }

    /// Staggered structure factor per site `S(π)/N = ⟨m_s²⟩/N`.
    pub fn staggered_structure_factor(&self) -> f64 {
        let s2: f64 =
            self.staggered.iter().map(|s| s * s).sum::<f64>() / self.staggered.len().max(1) as f64;
        s2 / self.n_sites as f64
    }
}

impl Sse {
    /// Create an engine for the Heisenberg AFM on `lattice` at inverse
    /// temperature `beta` with coupling `j > 0`.
    pub fn new<L: Lattice, R: Rng64>(lattice: &L, j: f64, beta: f64, rng: &mut R) -> Self {
        assert!(j > 0.0, "SSE engine requires an antiferromagnetic J > 0");
        assert!(beta > 0.0, "β must be positive");
        let n_sites = lattice.num_sites();
        let bonds: Vec<(u32, u32)> = lattice.bonds().iter().map(|b| (b.a, b.b)).collect();
        let sublattice = (0..n_sites).map(|s| lattice.sublattice(s)).collect();
        // Random initial state (any works; loops equilibrate it fast).
        let state = (0..n_sites).map(|_| rng.bernoulli(0.5)).collect();
        let cutoff = 20.max(n_sites);
        let mut sse = Self {
            n_sites,
            bonds,
            sublattice,
            j,
            beta,
            state,
            ops: vec![IDENTITY; cutoff],
            n_ops: 0,
            prob_insert: Vec::new(),
            prob_remove: Vec::new(),
            occupied: Vec::new(),
            links: Vec::new(),
            vfirst: vec![-1; n_sites],
            vlast: vec![-1; n_sites],
            state_dirty: true,
            ops_dirty: true,
        };
        sse.fit_to_cutoff();
        sse
    }

    /// Size what the cutoff `M` sizes; called whenever it changes, so a
    /// sweep never allocates. The per-free-slot-count diagonal probability
    /// tables are rebuilt, each entry with exactly the f64 expression the
    /// sweep loop previously evaluated in place, so fixed-seed trajectories
    /// are bit-identical. The occupied list takes `M` entries and the link
    /// table grows to `4M` legs (it never shrinks: legs past `4M` are
    /// identity legs of no slot, and nothing reads those).
    fn fit_to_cutoff(&mut self) {
        let m = self.ops.len();
        assert!(
            u32::try_from(m).is_ok(),
            "an operator string of {m} slots does not fit the u32 occupied list"
        );
        let nb = self.bonds.len() as f64;
        let half_j = self.j / 2.0;
        self.prob_insert.clear();
        self.prob_insert
            .extend((0..=m).map(|k| self.beta * nb * half_j / k as f64));
        self.prob_remove.clear();
        self.prob_remove
            .extend((0..=m).map(|k| k as f64 / (self.beta * nb * half_j)));
        self.occupied.resize(m, 0);
        if self.links.len() < 4 * m {
            self.links.resize(4 * m, KEEP);
        }
    }

    /// Current string cutoff `M`.
    pub fn cutoff(&self) -> usize {
        self.ops.len()
    }

    /// Current operator count `n`.
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// Diagonal update: insert/remove diagonal operators at fixed state
    /// propagation, flipping through off-diagonal vertices. Lists the
    /// slots that end the pass holding an operator in `occupied[..n]`.
    #[qmc_hot::hot]
    fn diagonal_update<R: Rng64>(&mut self, rng: &mut R) {
        let m = self.ops.len();
        debug_assert!(self.prob_insert.len() == m + 1, "stale probability tables");
        debug_assert!(
            self.occupied.len() == m,
            "occupied list not fitted to the cutoff"
        );
        let mut listed = 0;
        for p in 0..m {
            let occupied = match self.ops[p] {
                IDENTITY => {
                    let b = rng.index(self.bonds.len());
                    let (i, jj) = self.bonds[b];
                    let anti = self.state[i as usize] != self.state[jj as usize];
                    // lint: allow(hot-scalar-spin-loop) — reference SSE diagonal update (operator-string algorithm, not spin-parallel)
                    let insert = anti && rng.metropolis(self.prob_insert[m - self.n_ops]);
                    if insert {
                        self.ops[p] = 2 * b as Op;
                        self.n_ops += 1;
                        self.ops_dirty = true;
                    }
                    insert
                }
                op if op % 2 == 0 => {
                    let prob = self.prob_remove[m - self.n_ops + 1];
                    // lint: allow(hot-scalar-spin-loop) — reference SSE diagonal update (operator-string algorithm, not spin-parallel)
                    let remove = rng.metropolis(prob);
                    if remove {
                        self.ops[p] = IDENTITY;
                        self.n_ops -= 1;
                        self.ops_dirty = true;
                    }
                    !remove
                }
                op => {
                    // Off-diagonal: propagate the state.
                    let b = (op / 2) as usize;
                    let (i, jj) = self.bonds[b];
                    self.state[i as usize] = !self.state[i as usize];
                    self.state[jj as usize] = !self.state[jj as usize];
                    true
                }
            };
            // Written every slot, kept by moving past it: `listed ≤ p`.
            self.occupied[listed] = p as u32;
            listed += usize::from(occupied);
        }
        debug_assert_eq!(listed, self.n_ops);
    }

    /// Build the doubly linked vertex-leg list over the occupied slots:
    /// each leg is joined to the neighbouring leg on its site round the
    /// imaginary-time circle. All four legs of every occupied slot are
    /// written; identity legs are left as they are.
    #[qmc_hot::hot]
    fn build_links(&mut self) {
        let (links, vfirst, vlast) = (&mut self.links, &mut self.vfirst, &mut self.vlast);
        vfirst.fill(-1);
        for &p in &self.occupied[..self.n_ops] {
            let p = p as usize;
            let (i, jj) = self.bonds[(self.ops[p] / 2) as usize];
            for (k, site) in [(0, i as usize), (1, jj as usize)] {
                let in_leg = (4 * p + k) as i64;
                if vfirst[site] < 0 {
                    vfirst[site] = in_leg;
                } else {
                    links[vlast[site] as usize] = in_leg;
                    links[in_leg as usize] = vlast[site];
                }
                vlast[site] = in_leg + 2;
            }
        }
        for site in 0..self.n_sites {
            if vfirst[site] >= 0 {
                links[vlast[site] as usize] = vfirst[site];
                links[vfirst[site] as usize] = vlast[site];
            }
        }
    }

    /// Deterministic operator-loop update: construct every loop once,
    /// flip each with probability ½, then update `|α⟩` (free spins flip
    /// with probability ½).
    ///
    /// Loops are started from the legs of the occupied slots in increasing
    /// order, so each draws its coin where a scan of all `4M` legs would.
    /// A visited leg's link is overwritten with its loop's mark, which is
    /// also how a later start knows the leg is taken. A walk that reaches
    /// a marked leg other than its start is a corrupt table — and with
    /// finitely many legs, a walk that never closes must reach one.
    #[qmc_hot::hot]
    fn loop_update<R: Rng64>(&mut self, rng: &mut R) {
        let (ops, links) = (&mut self.ops, &mut self.links);
        let mut flipped_any = 0;
        for &p in &self.occupied[..self.n_ops] {
            let legs = 4 * p as usize;
            for v0 in legs..legs + 4 {
                if links[v0] < 0 {
                    continue;
                }
                // lint: allow(hot-scalar-spin-loop) — loop-flip seed draw of the directed-loop update (branchy by construction)
                let flip = Op::from(rng.bernoulli(0.5));
                let mark = KEEP - flip;
                flipped_any |= flip;
                let mut v = v0;
                loop {
                    ops[v / 4] ^= flip; // diagonal ↔ off-diagonal
                    let exit = v ^ 1; // same-side partner leg
                    let next = links[exit];
                    links[v] = mark;
                    links[exit] = mark;
                    if next == v0 as i64 {
                        break;
                    }
                    assert!(
                        next >= 0 && links[next as usize] >= 0,
                        "operator loop failed to close (corrupt links)"
                    );
                    v = next as usize;
                }
            }
        }
        self.ops_dirty |= flipped_any != 0;

        for site in 0..self.n_sites {
            let first = self.vfirst[site];
            if first < 0 {
                // lint: allow(hot-scalar-spin-loop) — free-site flip: one draw per unconstrained site, no packed SSE path
                if rng.bernoulli(0.5) {
                    self.state[site] = !self.state[site];
                    self.state_dirty = true;
                }
            } else if self.links[first as usize] == FLIP {
                self.state[site] = !self.state[site];
                self.state_dirty = true;
            }
        }
    }

    /// The link pass [`Self::build_links`] replaced — every slot of the
    /// string walked, every leg reset first — kept as the oracle it is
    /// compared against. Returns the link table (`-1` on identity legs)
    /// and the first leg on each site.
    #[cfg(test)]
    fn build_links_scalar(&self) -> (Vec<i64>, Vec<i64>) {
        let m = self.ops.len();
        let mut links = vec![-1; 4 * m];
        let mut vfirst = vec![-1; self.n_sites];
        let mut vlast = vec![-1i64; self.n_sites];

        for p in 0..m {
            if self.ops[p] == IDENTITY {
                continue;
            }
            let b = (self.ops[p] / 2) as usize;
            let (i, jj) = self.bonds[b];
            for (k, site) in [(0usize, i as usize), (1, jj as usize)] {
                let in_leg = (4 * p + k) as i64;
                let out_leg = (4 * p + k + 2) as i64;
                if vlast[site] >= 0 {
                    links[vlast[site] as usize] = in_leg;
                    links[in_leg as usize] = vlast[site];
                } else {
                    vfirst[site] = in_leg;
                }
                vlast[site] = out_leg;
            }
        }
        for site in 0..self.n_sites {
            if vfirst[site] >= 0 {
                links[vlast[site] as usize] = vfirst[site];
                links[vfirst[site] as usize] = vlast[site];
            }
        }
        (links, vfirst)
    }

    /// The loop pass [`Self::loop_update`] replaced — every leg of the
    /// string scanned, visits and flips in two per-leg arrays, a step
    /// counter as the closure guard — kept as the oracle it is compared
    /// against, over [`Self::build_links_scalar`]'s tables.
    #[cfg(test)]
    fn loop_update_scalar<R: Rng64>(&mut self, links: &[i64], vfirst: &[i64], rng: &mut R) {
        let m = self.ops.len();
        let mut visited = vec![false; 4 * m];
        let mut flipped = vec![false; 4 * m];

        for v0 in 0..4 * m {
            if links[v0] < 0 || visited[v0] {
                continue;
            }
            let flip = rng.bernoulli(0.5);
            let mut v = v0;
            let mut guard = 0usize;
            loop {
                guard += 1;
                assert!(
                    guard <= 8 * m + 8,
                    "operator loop failed to close (corrupt links)"
                );
                visited[v] = true;
                flipped[v] = flip;
                let p = v / 4;
                if flip {
                    self.ops[p] ^= 1; // diagonal ↔ off-diagonal
                    self.ops_dirty = true;
                }
                let exit = v ^ 1; // same-side partner leg
                visited[exit] = true;
                flipped[exit] = flip;
                v = links[exit] as usize;
                if v == v0 {
                    break;
                }
            }
        }

        for site in 0..self.n_sites {
            if vfirst[site] < 0 {
                if rng.bernoulli(0.5) {
                    self.state[site] = !self.state[site];
                    self.state_dirty = true;
                }
            } else if flipped[vfirst[site] as usize] {
                self.state[site] = !self.state[site];
                self.state_dirty = true;
            }
        }
    }

    /// Grow the cutoff when the string gets crowded (thermalization aid;
    /// appending identities is exact because the weight is independent of
    /// identity placement). Public so a caller that steps the engine
    /// itself (the verbatim oracle in `tests/checkpoint.rs`) can
    /// reproduce [`Sse::run`]'s thermalization schedule exactly.
    pub fn adjust_cutoff(&mut self) {
        let n = self.n_ops;
        let m = self.ops.len();
        if n + n / 3 > m {
            self.ops.resize(n + n / 3 + 10, IDENTITY);
            self.ops_dirty = true;
            self.fit_to_cutoff();
        }
    }

    /// One Monte Carlo sweep (diagonal update + loop update).
    #[qmc_hot::hot]
    pub fn sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("sse.sweep");
        {
            let _s = qmc_obs::span("sse.diagonal");
            self.diagonal_update(rng);
        }
        {
            let _s = qmc_obs::span("sse.links");
            self.build_links();
        }
        {
            let _s = qmc_obs::span("sse.loop");
            self.loop_update(rng);
        }
        // Expansion-order trajectory (the SSE energy estimator is −⟨n⟩/β
        // up to a constant, so this histogram is the run's energy story).
        qmc_obs::hist_record("sse.n_ops", self.n_ops as u64);
    }

    /// Measure the current configuration.
    pub fn measure(&self) -> SseMeasurement {
        let mut mag = 0.0;
        let mut stag = 0.0;
        for s in 0..self.n_sites {
            let sz = if self.state[s] { 0.5 } else { -0.5 };
            mag += sz;
            stag += if self.sublattice[s] == 0 { sz } else { -sz };
        }
        SseMeasurement {
            n_ops: self.n_ops as f64,
            magnetization: mag,
            staggered: stag,
        }
    }

    /// Empty series matching this engine, with room for `capacity` rows
    /// (what [`Sse::run`] records into; a caller stepping the engine
    /// itself builds one and records into it sweep by sweep).
    pub fn begin_series(&self, capacity: usize) -> SseSeries {
        SseSeries {
            beta: self.beta,
            j: self.j,
            n_sites: self.n_sites,
            n_bonds: self.bonds.len(),
            n_ops: Vec::with_capacity(capacity),
            magnetization: Vec::with_capacity(capacity),
            staggered: Vec::with_capacity(capacity),
            corr_sum: vec![0.0; self.n_sites / 2 + 1],
            corr_count: 0,
            clean_rows: 0,
            ring: DoubledRing::new(self.n_sites),
        }
    }

    /// Measure the current configuration and record it into `series`
    /// (including the translation-averaged chain correlations — only
    /// meaningful when sites are indexed along a ring, i.e. the caller
    /// used a Chain; harmless extra numbers otherwise).
    ///
    /// Every term of `Σᵢ Sᶻᵢ Sᶻᵢ₊ᵣ` is ±¼, so with `mism(r)` the number
    /// of sites that differ from their r-th neighbour round the ring,
    ///
    /// `Σᵢ Sᶻᵢ Sᶻᵢ₊ᵣ = (N − 2·mism(r)) / 4`,
    ///
    /// and `mism(r)` is one shift + XOR + popcount per word of the
    /// bit-packed state ([`DoubledRing`]). The identity is exact in f64
    /// (a small integer times ¼, as every partial sum of the term-by-term
    /// loop was, with the same `+0.0` when the terms cancel), so the
    /// accumulated sums are bit-identical to the scalar double loop's.
    /// Cost: O(N²/64) word operations for all N/2 + 1 distances instead
    /// of O(N²) multiply-adds — 2 112 products become 33
    /// shift-XOR-popcounts at N = 64.
    #[qmc_hot::hot]
    pub fn record_measurement(&self, series: &mut SseSeries) {
        let meas = self.measure();
        qmc_obs::health_record("sse.n_ops", meas.n_ops);
        series.n_ops.push(meas.n_ops);
        series.magnetization.push(meas.magnetization);
        series.staggered.push(meas.staggered);
        series.ring.load(&self.state);
        let n = self.n_sites as i64;
        for (r, slot) in series.corr_sum.iter_mut().enumerate() {
            let acc = (n - 2 * series.ring.mismatches(r) as i64) as f64 * 0.25;
            *slot += acc / self.n_sites as f64;
        }
        series.corr_count += 1;
    }

    /// Thermalize (`therm` sweeps with cutoff adaptation) then record
    /// `sweeps` measurements.
    pub fn run<R: Rng64 + qmc_ckpt::Checkpoint>(
        &mut self,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
    ) -> SseSeries {
        qmc_ckpt::run_engine(self, rng, therm, sweeps, None, None, |_, _| {})
            .expect("a run without a store cannot fail")
            .1
    }

    /// Validate internal consistency: propagating `|α⟩` through the whole
    /// string must return to `|α⟩`, and every operator must act on an
    /// anti-parallel bond at its insertion point. Test support.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.check_string(&self.state, &self.ops)
    }

    /// [`Sse::check_consistency`] of a candidate basis state and operator
    /// string (codes in range) on this engine's bonds.
    fn check_string(&self, alpha: &[bool], ops: &[i64]) -> Result<(), String> {
        let mut state = alpha.to_vec();
        for (p, &op) in ops.iter().enumerate() {
            if op == IDENTITY {
                continue;
            }
            let b = (op / 2) as usize;
            let (i, jj) = self.bonds[b];
            let (i, jj) = (i as usize, jj as usize);
            if state[i] == state[jj] {
                return Err(format!("operator {p} acts on a parallel bond"));
            }
            if op % 2 == 1 {
                state[i] = !state[i];
                state[jj] = !state[jj];
            }
        }
        if state != alpha {
            return Err("state does not close around the imaginary-time circle".into());
        }
        Ok(())
    }

    /// The basis state a `spins` body holds; refused unless it is one of
    /// this lattice.
    fn decode_state(&self, dec: &mut qmc_ckpt::Decoder) -> Result<Vec<bool>, qmc_ckpt::CkptError> {
        let n_sites = dec.u64()? as usize;
        if n_sites != self.n_sites {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "sse checkpoint is for {n_sites} sites, engine has {}",
                self.n_sites
            )));
        }
        let state = dec.bools()?;
        if state.len() != self.n_sites {
            return Err(qmc_ckpt::CkptError::corrupt(
                "sse basis state has the wrong length",
            ));
        }
        Ok(state)
    }

    /// The operator string an `ops` body holds; refused unless every
    /// code names a bond and the string closes around `alpha`.
    fn decode_ops(
        &self,
        dec: &mut qmc_ckpt::Decoder,
        alpha: &[bool],
    ) -> Result<Vec<i64>, qmc_ckpt::CkptError> {
        let ops = dec.i64s()?;
        for &op in &ops {
            if op != IDENTITY && (op < 0 || (op / 2) as usize >= self.bonds.len()) {
                return Err(qmc_ckpt::CkptError::corrupt(format!(
                    "sse operator code {op} out of range"
                )));
            }
        }
        self.check_string(alpha, &ops)
            .map_err(qmc_ckpt::CkptError::corrupt)?;
        Ok(ops)
    }

    fn restore_state(&mut self, state: Vec<bool>) {
        self.state = state;
        self.state_dirty = true;
    }

    fn restore_ops(&mut self, ops: Vec<i64>) {
        self.ops = ops;
        self.ops_dirty = true;
        self.n_ops = self.ops.iter().filter(|&&o| o != IDENTITY).count();
        self.fit_to_cutoff();
    }
}

impl<R: Rng64> qmc_ckpt::Engine<R> for Sse {
    type Series = SseSeries;

    fn begin_series(&self, sweeps: usize) -> SseSeries {
        Sse::begin_series(self, sweeps)
    }

    /// A thermalising sweep adapts the cutoff; a recorded one does not.
    fn advance(&mut self, rng: &mut R, record: Option<&mut SseSeries>) {
        self.sweep(rng);
        match record {
            None => self.adjust_cutoff(),
            Some(series) => self.record_measurement(series),
        }
    }
}

impl qmc_ckpt::Checkpoint for Sse {
    fn kind(&self) -> &'static str {
        "engine.sse"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        qmc_ckpt::save_sections_in_order(self, enc);
    }

    /// Both sections in order, judged together before either is kept: a
    /// blob whose string does not close around its own basis state
    /// leaves the engine as it was.
    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let state = self.decode_state(dec)?;
        let ops = self.decode_ops(dec, &state)?;
        self.restore_state(state);
        self.restore_ops(ops);
        Ok(())
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        let mut s = qmc_ckpt::DirtySections::new();
        // "spins" before "ops": restoring the operator string runs the
        // closure consistency check, which needs the basis state already
        // in place.
        s.push("spins", self.state_dirty);
        s.push("ops", self.ops_dirty);
        s
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match name {
            "spins" => {
                enc.u64(self.n_sites as u64);
                enc.bools(&self.state);
            }
            "ops" => enc.i64s(&self.ops),
            _ => panic!("engine.sse has no checkpoint section {name:?}"),
        }
    }

    fn load_section(
        &mut self,
        name: &str,
        dec: &mut qmc_ckpt::Decoder,
    ) -> Result<(), qmc_ckpt::CkptError> {
        match name {
            "spins" => {
                let state = self.decode_state(dec)?;
                self.restore_state(state);
                Ok(())
            }
            "ops" => {
                let ops = self.decode_ops(dec, &self.state)?;
                self.restore_ops(ops);
                Ok(())
            }
            _ => Err(qmc_ckpt::CkptError::MissingSection {
                name: name.to_string(),
            }),
        }
    }

    fn mark_clean(&mut self) {
        self.state_dirty = false;
        self.ops_dirty = false;
    }
}

impl SseSeries {
    /// The columns, in the order both checkpoint layouts store them.
    fn columns(&self) -> [&[f64]; 3] {
        [&self.n_ops, &self.magnetization, &self.staggered]
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 3] {
        [
            &mut self.n_ops,
            &mut self.magnetization,
            &mut self.staggered,
        ]
    }

    /// Refuse head fields of either layout that belong to another β or J
    /// (a resume under changed physics would otherwise report one run's
    /// samples under the other's parameters), to another lattice, or
    /// that count another number of correlation samples than
    /// `rows`: [`Sse::record_measurement`] is the only writer of both and
    /// advances them together, so a series where they differ would
    /// average its correlations over the wrong number of samples.
    fn check_head(
        &self,
        (beta, j): (f64, f64),
        (n_sites, n_bonds): (usize, usize),
        corr_sum: &[f64],
        corr_count: u64,
        rows: usize,
    ) -> Result<(), qmc_ckpt::CkptError> {
        if beta.to_bits() != self.beta.to_bits() || j.to_bits() != self.j.to_bits() {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "sse series is for β={} J={}, checkpoint has β={beta} J={j}",
                self.beta, self.j
            )));
        }
        if n_sites != self.n_sites || n_bonds != self.n_bonds {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "sse series is for {n_sites} sites / {n_bonds} bonds, engine has {} / {}",
                self.n_sites, self.n_bonds
            )));
        }
        if corr_sum.len() != self.corr_sum.len() {
            return Err(qmc_ckpt::CkptError::corrupt(
                "sse series correlation table has the wrong length",
            ));
        }
        if corr_count != rows as u64 {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "sse series counts {corr_count} correlation samples for {rows} rows"
            )));
        }
        Ok(())
    }
}

impl qmc_ckpt::Checkpoint for SseSeries {
    fn kind(&self) -> &'static str {
        "series.sse"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.f64(self.beta);
        enc.f64(self.j);
        enc.u64(self.n_sites as u64);
        enc.u64(self.n_bonds as u64);
        for col in self.columns() {
            enc.f64s(col);
        }
        enc.f64s(&self.corr_sum);
        enc.u64(self.corr_count);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let beta = dec.f64()?;
        let j = dec.f64()?;
        let shape = (dec.u64()? as usize, dec.u64()? as usize);
        let cols = [dec.f64s()?, dec.f64s()?, dec.f64s()?];
        let corr_sum = dec.f64s()?;
        let corr_count = dec.u64()?;
        self.check_head((beta, j), shape, &corr_sum, corr_count, cols[0].len())?;
        qmc_ckpt::chunk::check_columns("sse", &cols)?;
        for (col, restored) in self.columns_mut().into_iter().zip(cols) {
            *col = restored;
        }
        self.corr_sum = corr_sum;
        self.corr_count = corr_count;
        self.clean_rows = 0;
        Ok(())
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        qmc_ckpt::chunk::sections(self.n_ops.len(), self.clean_rows)
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match qmc_ckpt::chunk::parse(name) {
            Some(k) => qmc_ckpt::chunk::save_rows(k, &self.columns(), enc),
            None if name == "head" => {
                enc.f64(self.beta);
                enc.f64(self.j);
                enc.u64(self.n_sites as u64);
                enc.u64(self.n_bonds as u64);
                enc.f64s(&self.corr_sum);
                enc.u64(self.corr_count);
                enc.u64(self.n_ops.len() as u64);
            }
            None => panic!("series.sse has no checkpoint section {name:?}"),
        }
    }

    fn load_section(
        &mut self,
        name: &str,
        dec: &mut qmc_ckpt::Decoder,
    ) -> Result<(), qmc_ckpt::CkptError> {
        use qmc_ckpt::chunk;
        match chunk::parse(name) {
            Some(k) => {
                chunk::load_rows("sse", k, &mut self.columns_mut(), dec)?;
                self.clean_rows = self.clean_rows.min(k * chunk::ROWS);
                Ok(())
            }
            None if name == "head" => {
                let beta = dec.f64()?;
                let j = dec.f64()?;
                let shape = (dec.u64()? as usize, dec.u64()? as usize);
                let corr_sum = dec.f64s()?;
                let corr_count = dec.u64()?;
                self.check_head((beta, j), shape, &corr_sum, corr_count, self.n_ops.len())?;
                chunk::check_rows("sse", dec.u64()? as usize, self.n_ops.len())?;
                self.corr_sum = corr_sum;
                self.corr_count = corr_count;
                Ok(())
            }
            None => Err(qmc_ckpt::CkptError::MissingSection {
                name: name.to_string(),
            }),
        }
    }

    fn mark_clean(&mut self) {
        self.clean_rows = self.n_ops.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_ed::lanczos::{lanczos_ground_energy, XxzSectorOp};
    use qmc_ed::xxz::{full_spectrum, XxzParams};
    use qmc_lattice::{Chain, Square};
    use qmc_rng::Xoshiro256StarStar;
    use qmc_stats::BinningAnalysis;

    fn run_sse<L: Lattice>(lat: &L, beta: f64, seed: u64, sweeps: usize) -> SseSeries {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut sse = Sse::new(lat, 1.0, beta, &mut rng);
        sse.run(&mut rng, 3000, sweeps)
    }

    fn validate_chain(l: usize, beta: f64, seed: u64) {
        let lat = Chain::new(l);
        let series = run_sse(&lat, beta, seed, 30_000);
        let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));

        let e_samples = series.energy_samples();
        let be = BinningAnalysis::new(&e_samples, 16);
        let e_exact = spec.energy(beta) / l as f64;
        assert!(
            (be.mean - e_exact).abs() < 5.0 * be.error().max(2e-4),
            "L={l} β={beta}: E {} ± {} vs exact {e_exact}",
            be.mean,
            be.error()
        );

        let (chi, chi_err) = series.susceptibility();
        let chi_exact = spec.susceptibility(beta) / l as f64;
        assert!(
            (chi - chi_exact).abs() < 5.0 * chi_err.max(2e-4),
            "L={l} β={beta}: χ {chi} ± {chi_err} vs exact {chi_exact}"
        );
    }

    #[test]
    fn heisenberg_chain_l4_beta1() {
        validate_chain(4, 1.0, 1);
    }

    #[test]
    fn heisenberg_chain_l8_beta1() {
        validate_chain(8, 1.0, 2);
    }

    #[test]
    fn heisenberg_chain_l8_beta4_no_trotter_error() {
        // SSE has no Δτ bias — works at lower T than the world-line tests.
        validate_chain(8, 4.0, 3);
    }

    #[test]
    fn specific_heat_matches_ed() {
        let lat = Chain::new(8);
        let beta = 1.0;
        let series = run_sse(&lat, beta, 4, 60_000);
        let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));
        let c_exact = spec.heat_capacity(beta) / 8.0;
        let (c, c_err) = series.specific_heat();
        assert!(
            (c - c_exact).abs() < 6.0 * c_err.max(5e-4),
            "C {c} ± {c_err} vs exact {c_exact}"
        );
    }

    #[test]
    fn two_dimensional_4x4_ground_state_energy() {
        // β = 8 on 4×4: compare with the Lanczos ground state (thermal
        // corrections at βJ=8 are ≲ 1e-3 for this gapped finite system).
        let lat = Square::new(4, 4);
        let series = run_sse(&lat, 8.0, 5, 20_000);
        let e_samples = series.energy_samples();
        let be = BinningAnalysis::new(&e_samples, 16);
        let op = XxzSectorOp::new(&lat, XxzParams::heisenberg(1.0), 8);
        let e0 = lanczos_ground_energy(&op, 9, 300, 1e-10) / 16.0;
        assert!(
            (be.mean - e0).abs() < 5.0 * be.error().max(5e-4) + 2e-3,
            "E {} ± {} vs E0 {}",
            be.mean,
            be.error(),
            e0
        );
    }

    #[test]
    fn consistency_invariants_hold_through_sweeps() {
        let lat = Chain::new(8);
        let mut rng = Xoshiro256StarStar::new(6);
        let mut sse = Sse::new(&lat, 1.0, 2.0, &mut rng);
        for sweep in 0..200 {
            sse.sweep(&mut rng);
            sse.adjust_cutoff();
            sse.check_consistency()
                .unwrap_or_else(|e| panic!("sweep {sweep}: {e}"));
        }
    }

    #[test]
    fn operator_count_matches_exact_energy_relation() {
        // ⟨n⟩ = β(N_b J/4 − E_total) exactly (no Trotter error in SSE).
        let lat = Chain::new(8);
        let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));
        for (beta, seed) in [(1.0, 7u64), (2.0, 8)] {
            let series = run_sse(&lat, beta, seed, 20_000);
            let bn = BinningAnalysis::new(&series.n_ops, 16);
            let expect = beta * (8.0 * 0.25 - spec.energy(beta));
            assert!(
                (bn.mean - expect).abs() < 5.0 * bn.error().max(1e-3),
                "β={beta}: ⟨n⟩ {} ± {} vs exact {expect}",
                bn.mean,
                bn.error()
            );
        }
    }

    #[test]
    fn magnetization_sectors_visited() {
        let lat = Chain::new(8);
        let mut rng = Xoshiro256StarStar::new(9);
        let mut sse = Sse::new(&lat, 1.0, 0.5, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            sse.sweep(&mut rng);
            seen.insert((2.0 * sse.measure().magnetization) as i64);
        }
        assert!(seen.len() >= 4, "sectors seen: {seen:?}");
    }

    #[test]
    fn staggered_structure_factor_grows_at_low_t() {
        let lat = Square::new(4, 4);
        let hot = run_sse(&lat, 0.5, 10, 4000).staggered_structure_factor();
        let cold = run_sse(&lat, 6.0, 11, 4000).staggered_structure_factor();
        assert!(
            cold > 2.0 * hot,
            "AFM order should grow on cooling: hot {hot}, cold {cold}"
        );
    }

    #[test]
    fn cutoff_grows_then_stabilizes() {
        let lat = Chain::new(8);
        let mut rng = Xoshiro256StarStar::new(12);
        let mut sse = Sse::new(&lat, 1.0, 4.0, &mut rng);
        for _ in 0..500 {
            sse.sweep(&mut rng);
            sse.adjust_cutoff();
        }
        let m_after_therm = sse.cutoff();
        for _ in 0..500 {
            sse.sweep(&mut rng);
            sse.adjust_cutoff();
        }
        assert!(sse.cutoff() <= m_after_therm + m_after_therm / 2);
        assert!(sse.n_ops() > 0);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let lat = Chain::new(8);
        let mut rng = Xoshiro256StarStar::new(31);
        let mut a = Sse::new(&lat, 1.0, 1.5, &mut rng);
        for _ in 0..100 {
            a.sweep(&mut rng);
            a.adjust_cutoff();
        }
        let ckpt = qmc_ckpt::save_state(&a);
        let rng_saved = rng;

        // Continue A for 50 sweeps.
        let mut trace_a = Vec::new();
        for _ in 0..50 {
            a.sweep(&mut rng);
            trace_a.push(a.measure());
        }

        // Restore into a fresh engine and replay with the saved RNG.
        let mut rng_b = rng_saved;
        let mut dummy_rng = Xoshiro256StarStar::new(0);
        let mut b = Sse::new(&lat, 1.0, 1.5, &mut dummy_rng);
        qmc_ckpt::load_state(&ckpt, &mut b).expect("own checkpoint restores");
        let mut trace_b = Vec::new();
        for _ in 0..50 {
            b.sweep(&mut rng_b);
            trace_b.push(b.measure());
        }
        assert_eq!(trace_a, trace_b, "restored chain must replay identically");
    }

    #[test]
    fn checkpoint_rejects_wrong_lattice() {
        let mut rng = Xoshiro256StarStar::new(32);
        let a = Sse::new(&Chain::new(8), 1.0, 1.0, &mut rng);
        let mut b = Sse::new(&Chain::new(4), 1.0, 1.0, &mut rng);
        let refused = qmc_ckpt::load_state(&qmc_ckpt::save_state(&a), &mut b);
        assert_eq!(
            refused,
            Err(qmc_ckpt::CkptError::corrupt(
                "sse checkpoint is for 8 sites, engine has 4"
            ))
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn chain_correlations_match_ed() {
        let lat = Chain::new(8);
        let beta = 1.0;
        let series = run_sse(&lat, beta, 13, 30_000);
        let corr = series.correlations();
        let p = XxzParams::heisenberg(1.0);
        for r in 0..=4usize {
            let exact = qmc_ed::xxz::szsz_correlation(&lat, &p, beta, 0, r);
            assert!(
                (corr[r] - exact).abs() < 0.008,
                "C({r}) = {} vs exact {exact}",
                corr[r]
            );
        }
    }

    /// The term-by-term double loop `record_measurement` ran before the
    /// packed kernel: the reference its sums must equal bit for bit.
    fn accumulate_correlations_scalar(sse: &Sse, corr_sum: &mut [f64]) {
        for (r, slot) in corr_sum.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in 0..sse.n_sites {
                let a = if sse.state[i] { 0.5 } else { -0.5 };
                let b = if sse.state[(i + r) % sse.n_sites] {
                    0.5
                } else {
                    -0.5
                };
                acc += a * b;
            }
            *slot += acc / sse.n_sites as f64;
        }
    }

    fn assert_corr_sum_tracks_scalar_oracle<L: Lattice>(lat: &L, seed: u64, what: &str) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut sse = Sse::new(lat, 1.0, 1.0, &mut rng);
        let _ = sse.run(&mut rng, 20, 0);
        let mut series = sse.begin_series(40);
        let mut oracle = vec![0.0; series.corr_sum.len()];
        for sweep in 0..40 {
            sse.sweep(&mut rng);
            sse.record_measurement(&mut series);
            accumulate_correlations_scalar(&sse, &mut oracle);
            assert_eq!(
                bits(&series.corr_sum),
                bits(&oracle),
                "{what}, sweep {sweep}"
            );
        }
        assert_eq!(series.corr_count, 40);
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_correlations_equal_scalar_loop_bit_for_bit() {
        for (k, l) in [4, 8, 20, 62, 64, 66, 100, 126, 128, 130, 200]
            .into_iter()
            .enumerate()
        {
            assert_corr_sum_tracks_scalar_oracle(
                &Chain::new(l),
                40 + k as u64,
                &format!("chain {l}"),
            );
        }
        // 2-D: the "harmless extra numbers" must stay the same numbers.
        assert_corr_sum_tracks_scalar_oracle(&Square::new(4, 4), 60, "square 4x4");
        assert_corr_sum_tracks_scalar_oracle(&Square::new(6, 6), 61, "square 6x6");
    }

    #[test]
    fn cancelling_correlation_terms_record_positive_zero() {
        // ↑↑↓↓: two parallel and two anti-parallel pairs at r = 1, so the
        // sum is exactly zero — and must be the scalar loop's +0.0.
        let mut rng = Xoshiro256StarStar::new(62);
        let mut sse = Sse::new(&Chain::new(4), 1.0, 1.0, &mut rng);
        sse.state = vec![true, true, false, false];
        let mut series = sse.begin_series(1);
        sse.record_measurement(&mut series);
        let mut oracle = vec![0.0; 3];
        accumulate_correlations_scalar(&sse, &mut oracle);
        assert_eq!(bits(&series.corr_sum), bits(&oracle));
        assert_eq!(
            bits(&series.corr_sum),
            bits(&[0.25, 0.0, -0.25]),
            "C(1) must be +0.0, not -0.0"
        );
    }

    /// A 70-row series (two row chunks) with its engine.
    fn recorded_series() -> (Sse, SseSeries) {
        let mut rng = Xoshiro256StarStar::new(63);
        let mut sse = Sse::new(&Chain::new(8), 1.0, 1.0, &mut rng);
        let series = sse.run(&mut rng, 50, 70);
        (sse, series)
    }

    fn section_bytes(series: &SseSeries) -> Vec<(String, Vec<u8>)> {
        use qmc_ckpt::Checkpoint;
        series
            .dirty_sections()
            .iter()
            .map(|(name, _)| (name.to_string(), qmc_ckpt::save_section_bytes(series, name)))
            .collect()
    }

    fn restore_sectioned(
        sse: &Sse,
        sections: &[(String, Vec<u8>)],
    ) -> Result<SseSeries, qmc_ckpt::CkptError> {
        let mut restored = sse.begin_series(0);
        for (name, payload) in sections {
            qmc_ckpt::load_section_bytes(payload, name, &mut restored)?;
        }
        Ok(restored)
    }

    /// Add one to the little-endian `u64` that ends `from_end` bytes
    /// before the end of `bytes`.
    fn bump_u64(bytes: &mut [u8], from_end: usize) {
        let at = bytes.len() - from_end - 8;
        let v = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        bytes[at..at + 8].copy_from_slice(&(v + 1).to_le_bytes());
    }

    fn assert_refused_for_corr_count(result: Result<(), qmc_ckpt::CkptError>) {
        let err = result.expect_err("a head with the wrong sample count must be refused");
        let msg = err.to_string();
        assert!(
            msg.contains("71 correlation samples for 70 rows"),
            "error must name both counts: {msg}"
        );
    }

    #[test]
    fn whole_blob_series_with_wrong_corr_count_is_refused() {
        let (sse, series) = recorded_series();
        let mut blob = qmc_ckpt::save_state(&series);

        let mut restored = sse.begin_series(0);
        qmc_ckpt::load_state(&blob, &mut restored).expect("untouched blob restores");
        assert_eq!(bits(&restored.n_ops), bits(&series.n_ops));
        assert_eq!(bits(&restored.correlations()), bits(&series.correlations()));

        // `corr_count` is the last field of the body.
        bump_u64(&mut blob, 0);
        let mut restored = sse.begin_series(0);
        assert_refused_for_corr_count(qmc_ckpt::load_state(&blob, &mut restored));
    }

    #[test]
    fn sectioned_series_with_wrong_corr_count_is_refused() {
        let (sse, series) = recorded_series();
        let mut sections = section_bytes(&series);
        assert_eq!(sections.len(), 3, "two row chunks and the head");

        let restored = restore_sectioned(&sse, &sections).expect("untouched sections restore");
        assert_eq!(bits(&restored.n_ops), bits(&series.n_ops));
        assert_eq!(bits(&restored.correlations()), bits(&series.correlations()));

        // The head ends `… corr_count, row count`.
        let (name, head) = sections.last_mut().expect("head section");
        assert_eq!(name, "head");
        bump_u64(head, 8);
        assert_refused_for_corr_count(restore_sectioned(&sse, &sections).map(|_| ()));
    }

    #[test]
    fn diag_prob_tables_match_direct_formula() {
        // Table entries must equal the previous in-loop expressions
        // bit-for-bit, including after cutoff growth.
        let lat = Chain::new(8);
        let mut rng = Xoshiro256StarStar::new(21);
        let mut sse = Sse::new(&lat, 1.3, 2.7, &mut rng);
        for _ in 0..300 {
            sse.sweep(&mut rng);
            sse.adjust_cutoff();
        }
        let m = sse.cutoff();
        let nb = sse.bonds.len() as f64;
        let half_j = sse.j / 2.0;
        assert_eq!(sse.prob_insert.len(), m + 1);
        for k in 1..=m {
            let insert = sse.beta * nb * half_j / k as f64;
            let remove = k as f64 / (sse.beta * nb * half_j);
            assert_eq!(sse.prob_insert[k].to_bits(), insert.to_bits(), "k={k}");
            assert_eq!(sse.prob_remove[k].to_bits(), remove.to_bits(), "k={k}");
        }
    }

    /// One sweep by the passes the occupied-slot list replaced.
    fn sweep_scalar<R: Rng64>(sse: &mut Sse, rng: &mut R) {
        sse.diagonal_update(rng);
        let (links, vfirst) = sse.build_links_scalar();
        sse.loop_update_scalar(&links, &vfirst, rng);
    }

    /// Steps the new passes and the oracle side by side from one engine and
    /// one stream, the cutoff growing over the first half. Returns how many
    /// sweeps left the state, and the string, unchanged.
    fn assert_sweeps_track_scalar_oracle<L: Lattice>(
        lat: &L,
        beta: f64,
        seed: u64,
        what: &str,
    ) -> (usize, usize) {
        use qmc_ckpt::Checkpoint;
        let mut rng = qmc_rng::CountingRng::new(Xoshiro256StarStar::new(seed));
        let mut new = Sse::new(lat, 1.0, beta, &mut rng);
        let (mut old, mut old_rng) = (new.clone(), rng.clone());
        let sweeps = 120;
        let mut clean = (0, 0);
        for sweep in 0..sweeps {
            new.mark_clean();
            old.mark_clean();
            new.sweep(&mut rng);
            sweep_scalar(&mut old, &mut old_rng);
            let at = format!("{what} β = {beta}, sweep {sweep}");
            assert_eq!(new.ops, old.ops, "{at}: ops");
            assert_eq!(new.state, old.state, "{at}: state");
            assert_eq!(
                (new.state_dirty, new.ops_dirty),
                (old.state_dirty, old.ops_dirty),
                "{at}: dirty flags"
            );
            assert_eq!(rng.draws, old_rng.draws, "{at}: draws");
            new.check_consistency()
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            clean.0 += usize::from(!new.state_dirty);
            clean.1 += usize::from(!new.ops_dirty);
            if sweep < sweeps / 2 {
                new.adjust_cutoff();
                old.adjust_cutoff();
            }
        }
        clean
    }

    #[test]
    fn occupied_list_passes_equal_full_string_scan() {
        // Tiny β: sweeps with no operator, no flipped loop and no flipped
        // free spin, so both dirty flags are seen false as well as true.
        let (state_clean, ops_clean) =
            assert_sweeps_track_scalar_oracle(&Chain::new(4), 0.05, 69, "chain");
        assert!(
            state_clean > 0 && ops_clean > 0,
            "{state_clean} / {ops_clean}"
        );
        for (l, beta) in [(4, 1.0), (6, 2.0), (8, 4.0), (10, 0.5), (16, 1.0)] {
            assert_sweeps_track_scalar_oracle(&Chain::new(l), beta, 70 + l as u64, "chain");
        }
        for (l, beta) in [(64, 1.0), (64, 16.0), (66, 3.0), (128, 2.0)] {
            assert_sweeps_track_scalar_oracle(&Chain::new(l), beta, 90 + l as u64, "chain");
        }
        for (lx, ly, beta) in [
            (4, 4, 0.1),
            (4, 4, 2.0),
            (6, 4, 1.0),
            (4, 6, 3.0),
            (8, 6, 4.0),
            (8, 8, 2.0),
        ] {
            let what = format!("square {lx}x{ly}");
            assert_sweeps_track_scalar_oracle(&Square::new(lx, ly), beta, (lx * ly) as u64, &what);
        }
    }

    #[test]
    fn restored_string_keeps_tracking_the_oracle() {
        // A restore changes the cutoff under a link table that is not reset
        // between sweeps: a longer string into a shorter engine's scratch
        // and back.
        use qmc_ckpt::{load_state, save_state};
        let mut rng = Xoshiro256StarStar::new(80);
        let lat = Chain::new(16);
        let mut cold = Sse::new(&lat, 1.0, 8.0, &mut rng);
        let mut hot = Sse::new(&lat, 1.0, 0.5, &mut rng);
        let _ = cold.run(&mut rng, 200, 0);
        let _ = hot.run(&mut rng, 200, 0);
        assert!(cold.cutoff() > hot.cutoff());
        let (cold_blob, hot_blob) = (save_state(&cold), save_state(&hot));
        for blob in [&cold_blob, &hot_blob, &cold_blob] {
            load_state(blob, &mut hot).expect("own checkpoint restores");
            let (mut old, mut old_rng) = (hot.clone(), rng);
            for sweep in 0..30 {
                hot.sweep(&mut rng);
                sweep_scalar(&mut old, &mut old_rng);
                assert_eq!(
                    (&hot.ops, &hot.state),
                    (&old.ops, &old.state),
                    "sweep {sweep}"
                );
            }
            assert_eq!(rng.next_u64(), old_rng.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "operator loop failed to close (corrupt links)")]
    fn corrupt_link_table_fails_to_close() {
        let mut rng = Xoshiro256StarStar::new(81);
        let mut sse = Sse::new(&Chain::new(8), 1.0, 2.0, &mut rng);
        let _ = sse.run(&mut rng, 20, 0);
        sse.diagonal_update(&mut rng);
        sse.build_links();
        assert!(sse.n_ops > 0);
        // The first loop's exit leg links to itself: its first step lands
        // on a leg that walk has just marked.
        let exit = 4 * sse.occupied[0] as usize + 1;
        sse.links[exit] = exit as i64;
        sse.loop_update(&mut rng);
    }

    #[test]
    #[should_panic(expected = "antiferromagnetic")]
    fn rejects_ferromagnetic_coupling() {
        let lat = Chain::new(4);
        let mut rng = Xoshiro256StarStar::new(0);
        Sse::new(&lat, -1.0, 1.0, &mut rng);
    }
}
