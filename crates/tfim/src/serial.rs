//! Single-memory TFIM path-integral engine (Metropolis + Wolff).

use crate::colour::{Layout, Scratch, SweepKey, Thresholds};
use crate::{AcceptTable, StCouplings, TfimModel};
use qmc_obs::{CounterId, HistId, Registry};
use qmc_rng::{threshold, Rng64, SplitMix64};

/// Spacetime spin configuration of the mapped classical model plus update
/// kernels. Spins are indexed `(t·ly + y)·lx + x`.
///
/// Invariant: every stored spin is `+1` or `−1`. The Metropolis kernel
/// forms its table index by byte arithmetic on seven spins, so this is
/// load-bearing; the one way in besides the updates, checkpoint restore,
/// validates the whole configuration before it replaces anything.
#[derive(Debug, Clone)]
pub struct SerialTfim {
    model: TfimModel,
    c: StCouplings,
    spins: Vec<i8>,
    /// Spins changed since the last successful checkpoint snapshot
    /// (conservatively true on construction and after any accepted
    /// update; cleared only by [`qmc_ckpt::Checkpoint::mark_clean`]).
    spins_dirty: bool,
    /// Engine-owned metrics (acceptance counters, Wolff cluster sizes).
    /// Always live — the reported acceptance rate does not depend on the
    /// observability layer being enabled.
    metrics: Registry,
    id_accepted: CounterId,
    id_proposed: CounterId,
    id_cluster: HistId,
    /// Exact integer acceptance thresholds of the [`AcceptTable`] (no
    /// `exp`, no float compare in the sweep loop).
    thr: Thresholds,
    /// The Metropolis sweeps' keyed draws: key and sweep counter.
    sweep_key: SweepKey,
    /// Wolff add probabilities `1 − e^{−2K}` per bond type, as thresholds
    /// on `raw >> 11` ([`always_draw_threshold`]).
    wolff_thr_space: u64,
    wolff_thr_time: u64,
    /// Wolff scratch: a ring of the cluster sites whose bonds are still to
    /// be tried, a power of two long. It doubles when a site's pushes
    /// might not fit; sized to the lattice up front it would more than
    /// double the heap footprint of a cache-resident engine.
    ring: Vec<u64>,
    /// Wolff cluster updates after each Metropolis sweep (1 on
    /// construction). Not checkpointed: a resume sets it as the
    /// interrupted run did, like the model itself.
    pub wolff_per_sweep: usize,
}

/// A cluster site on the Wolff ring as one word: its index in bits 0–31,
/// its column in bits 32–47 and its row in bits 48–63, carried along so
/// that no neighbour costs a division.
fn member(site: usize, x: usize, y: usize) -> u64 {
    site as u64 | (x as u64) << 32 | (y as u64) << 48
}

/// What a step of `site`, `x` and `y` adds to a [`member`] word: a
/// two's-complement sum that carries no field into the next, as long as
/// the step leads to a site of the lattice.
fn step(site: isize, x: isize, y: isize) -> u64 {
    (site as u64)
        .wrapping_add((x as u64) << 32)
        .wrapping_add((y as u64) << 48)
}

/// Slots the Wolff ring keeps free past its tail: one site writes a slot
/// for each of its six neighbours.
const PUSHES: usize = 6;

/// Entries the Wolff ring starts with: room for a seed's pushes, and a
/// power of two, as is then every size doubling reaches from it.
const STACK_START: usize = 16;

/// Doubles the Wolff ring, moving its entries `head..tail` (positions
/// that count up from the cluster's first push) to where the longer
/// mask puts them.
#[cold]
fn grow(ring: &mut Vec<u64>, head: usize, tail: usize) {
    let mut longer = vec![0; 2 * ring.len()];
    let (old, new) = (ring.len() - 1, longer.len() - 1);
    for i in head..tail {
        longer[i & new] = ring[i & old];
    }
    *ring = longer;
}

/// [`Rng64::bernoulli`]`(p)` as an integer threshold on `raw >> 11`:
/// [`threshold`]'s `⌈p·2⁵³⌉`, by the same identity. But `bernoulli` draws
/// whatever `p` is where `metropolis` skips the draw at `ratio ≥ 1`, so
/// `p = 1` is 2⁵³ — above every `raw >> 11` — and not `NO_DRAW`, which
/// reads "accepted without a draw".
fn always_draw_threshold(p: f64) -> u64 {
    threshold(p).min(1 << 53)
}

/// One sweep's raw measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfimMeasurement {
    /// Quantum energy per site.
    pub energy_per_site: f64,
    /// Spacetime-averaged |magnetization| (the PIMC order parameter
    /// `⟨|(1/β)∫ m(τ) dτ|⟩`).
    pub abs_m: f64,
    /// Spacetime-averaged m².
    pub m2: f64,
    /// `⟨σˣ⟩` estimator.
    pub sigma_x: f64,
}

/// Time series of per-sweep measurements.
#[derive(Debug, Clone, Default)]
pub struct TfimSeries {
    /// Energy per site.
    pub energy: Vec<f64>,
    /// |m| (spacetime average).
    pub abs_m: Vec<f64>,
    /// m².
    pub m2: Vec<f64>,
    /// σˣ per site.
    pub sigma_x: Vec<f64>,
    /// Rows captured by the last successful snapshot: completed row
    /// chunks below this mark are immutable and checkpoint as clean.
    clean_rows: usize,
    /// The model a series begun by [`Self::new`] belongs to, stated in its
    /// checkpoint; `None` for a [`Default`] one, which states nothing.
    model: Option<TfimModel>,
}

impl TfimSeries {
    /// An empty series of `model`'s run: its checkpoint states J, h and β,
    /// and it refuses to restore one that states others.
    pub fn new(model: &TfimModel) -> Self {
        Self {
            model: Some(*model),
            ..Self::default()
        }
    }

    /// Read the couplings a checkpoint states where more than `rest`
    /// bytes remain — a layout of an older build has exactly `rest` left
    /// here and states none — and refuse them unless they are this
    /// series' model (a series begun without one takes any).
    fn check_stated(
        &self,
        dec: &mut qmc_ckpt::Decoder,
        rest: usize,
    ) -> Result<(), qmc_ckpt::CkptError> {
        if dec.remaining() <= rest {
            return Ok(());
        }
        let stated = dec.f64s()?;
        match &self.model {
            Some(model) => crate::check_couplings(&stated, model, "tfim series"),
            None => Ok(()),
        }
    }

    /// Record one measurement.
    pub fn record(&mut self, m: &TfimMeasurement) {
        qmc_obs::health_record("energy", m.energy_per_site);
        self.energy.push(m.energy_per_site);
        self.abs_m.push(m.abs_m);
        self.m2.push(m.m2);
        self.sigma_x.push(m.sigma_x);
    }

    /// Binder cumulant `U₄ = 1 − ⟨m⁴⟩/(3⟨m²⟩²)` of the spacetime-averaged
    /// magnetization: → 2/3 deep in the ordered phase, → 0 in the
    /// disordered phase; curves for different `L` cross near criticality.
    pub fn binder_cumulant(&self) -> f64 {
        let n = self.m2.len().max(1) as f64;
        let m2 = self.m2.iter().sum::<f64>() / n;
        let m4 = self.m2.iter().map(|v| v * v).sum::<f64>() / n;
        if m2 == 0.0 {
            return 0.0;
        }
        1.0 - m4 / (3.0 * m2 * m2)
    }

    /// Number of sweeps recorded.
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }
}

impl SerialTfim {
    /// Fresh engine in the fully-aligned (all-up) configuration.
    pub fn new(model: TfimModel) -> Self {
        let model = model.validated();
        let n = model.lx * model.ly * model.m;
        // Refused here, not truncated on a push.
        assert!(
            u32::try_from(n).is_ok()
                && u16::try_from(model.lx).is_ok()
                && u16::try_from(model.ly).is_ok(),
            "a Wolff stack entry indexes at most 2³² sites in rows and columns of at most 65 535"
        );
        let c = model.couplings();
        let mut metrics = Registry::new();
        let id_accepted = metrics.counter("tfim.accepted");
        let id_proposed = metrics.counter("tfim.proposed");
        // Registered eagerly (not on first Wolff update) so a freshly
        // constructed engine has the exact registry shape a checkpoint
        // expects, however many updates the checkpointed run had done.
        let id_cluster = metrics.hist("tfim.wolff_cluster");
        Self {
            c,
            spins: vec![1; n],
            spins_dirty: true,
            model,
            metrics,
            id_accepted,
            id_proposed,
            id_cluster,
            thr: Thresholds::new(&AcceptTable::new(&c)),
            sweep_key: SweepKey::default(),
            wolff_thr_space: always_draw_threshold(1.0 - (-2.0 * c.k_space).exp()),
            wolff_thr_time: always_draw_threshold(1.0 - (-2.0 * c.k_time).exp()),
            ring: vec![0; STACK_START],
            wolff_per_sweep: 1,
        }
    }

    /// Model parameters.
    pub fn model(&self) -> &TfimModel {
        &self.model
    }

    /// Fraction of Metropolis proposals accepted so far.
    pub fn acceptance_rate(&self) -> f64 {
        self.accepted() as f64 / self.proposed().max(1) as f64
    }

    /// Metropolis proposals accepted so far (`tfim.accepted`).
    pub fn accepted(&self) -> u64 {
        self.metrics.value(self.id_accepted)
    }

    /// Metropolis proposals made so far (`tfim.proposed`).
    pub fn proposed(&self) -> u64 {
        self.metrics.value(self.id_proposed)
    }

    /// The engine's metrics registry (fold into a
    /// [`qmc_obs::RankObs`] with
    /// [`absorb_registry`](qmc_obs::RankObs::absorb_registry) at run end).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, t: usize) -> usize {
        (t * self.model.ly + y) * self.model.lx + x
    }

    /// Spin value at `(x, y, t)`.
    #[inline]
    pub fn spin(&self, x: usize, y: usize, t: usize) -> i8 {
        self.spins[self.idx(x, y, t)]
    }

    /// The six (or four, for chains) neighbour indices of a site, with
    /// coupling kind: `(index, is_temporal)`.
    #[cfg(test)]
    fn neighbors(&self, x: usize, y: usize, t: usize) -> [(usize, bool); 6] {
        let m = &self.model;
        let xp = self.idx((x + 1) % m.lx, y, t);
        let xm = self.idx((x + m.lx - 1) % m.lx, y, t);
        let (yp, ym) = if m.ly > 1 {
            (
                self.idx(x, (y + 1) % m.ly, t),
                self.idx(x, (y + m.ly - 1) % m.ly, t),
            )
        } else {
            // Chains: point the y slots at the site itself with zero
            // effect — they are filtered by `ly > 1` in the kernels.
            (usize::MAX, usize::MAX)
        };
        let tp = self.idx(x, y, (t + 1) % m.m);
        let tm = self.idx(x, y, (t + m.m - 1) % m.m);
        [
            (xp, false),
            (xm, false),
            (yp, false),
            (ym, false),
            (tp, true),
            (tm, true),
        ]
    }

    /// Classical action cost of flipping site `(x, y, t)`:
    /// `ΔS = 2 s (K_s Σ_spatial s' + K_τ Σ_temporal s')`.
    ///
    /// Reference implementation kept for the consistency tests; the sweep
    /// kernel uses thresholds precomputed from the [`AcceptTable`] instead.
    #[cfg(test)]
    fn flip_cost(&self, x: usize, y: usize, t: usize) -> f64 {
        let s = self.spin(x, y, t) as f64;
        let mut spatial = 0.0;
        let mut temporal = 0.0;
        for (nb, is_t) in self.neighbors(x, y, t) {
            if nb == usize::MAX {
                continue;
            }
            if is_t {
                temporal += self.spins[nb] as f64;
            } else {
                spatial += self.spins[nb] as f64;
            }
        }
        2.0 * s * (self.c.k_space * spatial + self.c.k_time * temporal)
    }

    /// The periodic `(t·ly + y)·lx + x` array as the colour kernel sees it.
    fn layout(&self) -> Layout {
        let m = &self.model;
        Layout {
            slices: m.m,
            slice_stride: m.lx * m.ly,
            rows: m.ly,
            row_stride: m.lx,
            width: m.lx,
            origin: 0,
            parity: 0,
            square: m.ly > 1,
            wraps: true,
        }
    }

    /// One full Metropolis sweep in checkerboard order (the exact update
    /// schedule the parallel engine uses): the colour kernel, once per
    /// colour, every site deciding on its keyed draw (see the crate docs).
    /// The engine's first sweep takes one draw from `rng`, the key; no
    /// other sweep draws from it.
    #[qmc_hot::hot]
    pub fn metropolis_sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("tfim.metropolis_sweep");
        let layout = self.layout();
        let mut scratch = Scratch::new();
        let draws = self.sweep_key.keyed(rng, &self.model, 0);
        // Counters accumulate in locals and flush once per sweep: the hot
        // loop stays free of registry indexing (2% overhead budget).
        let (mut proposed, mut accepted) = (0u64, 0u64);
        for colour in 0..2 {
            let (p, a) =
                layout.half_sweep(&mut self.spins, &self.thr, colour, &mut scratch, &draws);
            proposed += p;
            accepted += a;
        }
        self.metrics.add(self.id_proposed, proposed);
        self.metrics.add(self.id_accepted, accepted);
        if accepted > 0 {
            self.spins_dirty = true;
        }
    }

    /// A site-by-site sweep over the keyed draws, the oracle
    /// [`Self::metropolis_sweep`] is compared against: each site of a
    /// colour takes its draw from [`SplitMix64::at`] at its own index in
    /// the sweep and decides as `rng.metropolis(ratio)` would.
    ///
    /// [`SplitMix64::at`]: qmc_rng::SplitMix64::at
    #[cfg(test)]
    fn metropolis_sweep_scalar<R: Rng64>(&mut self, rng: &mut R) {
        let m = self.model;
        let (lx, ly, mm) = (m.lx, m.ly, m.m);
        let slice = lx * ly;
        let accept = AcceptTable::new(&self.c);
        let (key, sweep) = self.sweep_key.next(rng);
        let sweep = sweep * (slice * mm) as u64;
        let mut accepted = 0u64;
        let mut proposed = 0u64;
        for color in 0..2usize {
            for t in 0..mm {
                let up = ((t + 1) % mm) * slice;
                let down = ((t + mm - 1) % mm) * slice;
                let tslice = t * slice;
                for y in 0..ly {
                    let row = tslice + y * lx;
                    let (north, south) = if ly > 1 {
                        (
                            tslice + ((y + 1) % ly) * lx,
                            tslice + ((y + ly - 1) % ly) * lx,
                        )
                    } else {
                        (0, 0)
                    };
                    let x0 = (color + y + t) % 2;
                    for x in (x0..lx).step_by(2) {
                        let xp = if x + 1 == lx { 0 } else { x + 1 };
                        let xm = if x == 0 { lx - 1 } else { x - 1 };
                        let i = row + x;
                        let s = self.spins[i];
                        let mut sp = self.spins[row + xp] as i32 + self.spins[row + xm] as i32;
                        if ly > 1 {
                            sp += self.spins[north + x] as i32 + self.spins[south + x] as i32;
                        }
                        let tp = self.spins[up + y * lx + x] as i32
                            + self.spins[down + y * lx + x] as i32;
                        proposed += 1;
                        let raw = qmc_rng::SplitMix64::at(key, sweep + i as u64);
                        let ratio = accept.ratio(s, sp, tp);
                        if ratio >= 1.0 || qmc_rng::unit_f64(raw) < ratio {
                            self.spins[i] = -s;
                            accepted += 1;
                        }
                    }
                }
            }
        }
        self.metrics.add(self.id_proposed, proposed);
        self.metrics.add(self.id_accepted, accepted);
        if accepted > 0 {
            self.spins_dirty = true;
        }
    }

    /// One Wolff cluster update (grows a single cluster and always flips
    /// it; bond-type-dependent add probabilities `1 − e^{−2K}`). Returns
    /// the cluster size. Takes two draws from `rng`, the seed and the key
    /// its bonds decide on (see the crate docs, "Wolff update").
    #[qmc_hot::hot]
    pub fn wolff_update<R: Rng64>(&mut self, rng: &mut R) -> usize {
        let _span = qmc_obs::span("tfim.wolff");
        let seed = rng.index(self.spins.len());
        let key = rng.next_u64();
        let size = if self.model.ly > 1 {
            self.flip_cluster::<true>(seed, key)
        } else {
            self.flip_cluster::<false>(seed, key)
        };
        // A Wolff update always flips its (≥ 1 site) cluster.
        self.spins_dirty = true;
        self.metrics.record(self.id_cluster, size as u64);
        size
    }

    /// Grows the cluster of `seed` over the bonds keyed by `key`, flipping
    /// every site as it joins, and returns its size. Sites are taken first
    /// in, first out, and every neighbour's bond is decided whether or not
    /// it is live: the neighbour joins on `live & (draw < thr)`, its spin
    /// and the ring slot past the tail are written either way, and the
    /// tail moves on a hit.
    #[qmc_hot::hot]
    fn flip_cluster<const SQUARE: bool>(&mut self, seed: usize, key: u64) -> usize {
        let (lx, ly) = (self.model.lx, self.model.ly);
        let (slice, n) = (lx * ly, self.spins.len());
        let (thr_s, thr_t) = (self.wolff_thr_space, self.wolff_thr_time);
        let per_site: u64 = if SQUARE { 3 } else { 2 };
        // Each direction's step of a member word, within the lattice and
        // across its wrap.
        let (lx, ly, slice, n) = (lx as isize, ly as isize, slice as isize, n as isize);
        let east = (step(1, 1, 0), step(1 - lx, 1 - lx, 0));
        let west = (step(-1, -1, 0), step(lx - 1, lx - 1, 0));
        let north = (step(lx, 0, 1), step(lx - slice, 0, 1 - ly));
        let south = (step(-lx, 0, -1), step(slice - lx, 0, ly - 1));
        let up = (step(slice, 0, 0), step(slice - n, 0, 0));
        let down = (step(-slice, 0, 0), step(n - slice, 0, 0));
        // The bonds of owner `o` are outputs 0..=d of `key` moved on
        // `(d + 1)·o` ([`SplitMix64::advance`]), one multiply per site; a
        // backward neighbour owns the bond to it, and its key is the
        // site's moved on by the same step.
        let moved = |sites: isize| SplitMix64::advance(0, per_site.wrapping_mul(sites as u64));
        let west_key = (moved(-1), moved(lx - 1));
        let south_key = (moved(-lx), moved(slice - lx));
        let down_key = (moved(-slice), moved(n - slice));
        let (lx, ly, slice, n) = (lx as usize, ly as usize, slice as usize, n as usize);
        let (spins, ring) = (&mut self.spins[..], &mut self.ring);

        // The only divisions of an update; every later coordinate is a
        // neighbour's, one step from a known one.
        let in_slice = seed % slice;
        let s = spins[seed];
        spins[seed] = -s;
        ring[0] = member(seed, in_slice % lx, in_slice / lx);
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            if tail - head + PUSHES > ring.len() {
                grow(ring, head, tail);
            }
            let ring = &mut ring[..];
            let mask = ring.len() - 1;
            let w = ring[head & mask];
            head += 1;
            let (at, x, y) = (w as u32 as usize, (w >> 32) as u16, (w >> 48) as u16);
            let own = SplitMix64::advance(key, per_site * at as u64);
            let owner = |wrap: bool, (inside, across): (u64, u64)| {
                own.wrapping_add(if wrap { across } else { inside })
            };
            let mut try_bond = |wrap: bool, (inside, across): (u64, u64), key, dir, thr| {
                let to = w.wrapping_add(if wrap { across } else { inside });
                let v = spins[to as u32 as usize];
                let hit = (v == s) & ((SplitMix64::at(key, dir) >> 11) < thr);
                spins[to as u32 as usize] = if hit { -s } else { v };
                ring[tail & mask] = to;
                tail += usize::from(hit);
            };
            let (east_end, west_end) = (usize::from(x) + 1 == lx, x == 0);
            try_bond(east_end, east, own, 0, thr_s);
            try_bond(west_end, west, owner(west_end, west_key), 0, thr_s);
            if SQUARE {
                let (north_end, south_end) = (usize::from(y) + 1 == ly, y == 0);
                try_bond(north_end, north, own, 1, thr_s);
                try_bond(south_end, south, owner(south_end, south_key), 1, thr_s);
            }
            let (top, bottom) = (at + slice >= n, at < slice);
            try_bond(top, up, own, per_site - 1, thr_t);
            try_bond(bottom, down, owner(bottom, down_key), per_site - 1, thr_t);
        }
        tail
    }

    /// The keyed update decided bond by bond, the oracle
    /// [`Self::wolff_update`] is compared against: the same two draws,
    /// then every bond between two equal spins decided as `bernoulli`
    /// would decide it on its keyed draw, and the seed's component over
    /// the open bonds — found by union-find, marked in a membership array
    /// — flipped.
    #[cfg(test)]
    fn wolff_update_scalar<R: Rng64>(&mut self, rng: &mut R) -> usize {
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let n = self.spins.len();
        let seed = rng.index(n);
        let key = rng.next_u64();
        let mut parent: Vec<usize> = (0..n).collect();
        for owner in 0..n {
            for (dir, to) in self.forward(owner).into_iter().enumerate() {
                if self.spins[to] == self.spins[owner] && self.bond_open(key, owner, dir) {
                    let (a, b) = (root(&mut parent, owner), root(&mut parent, to));
                    parent[a] = b;
                }
            }
        }
        let cluster = root(&mut parent, seed);
        let in_cluster: Vec<bool> = (0..n).map(|i| root(&mut parent, i) == cluster).collect();
        for (s, &hit) in self.spins.iter_mut().zip(&in_cluster) {
            if hit {
                *s = -*s;
            }
        }
        let size = in_cluster.iter().filter(|&&hit| hit).count();
        self.spins_dirty = true;
        self.metrics.record_named("tfim.wolff_cluster", size as u64);
        size
    }

    /// The neighbours across the bonds `site` owns, by `dir`: +x, (+y,)
    /// +t.
    #[cfg(test)]
    fn forward(&self, site: usize) -> Vec<usize> {
        let m = &self.model;
        let (x, y, t) = self.coords(site);
        let mut to = vec![self.idx((x + 1) % m.lx, y, t)];
        if m.ly > 1 {
            to.push(self.idx(x, (y + 1) % m.ly, t));
        }
        to.push(self.idx(x, y, (t + 1) % m.m));
        to
    }

    /// Whether bond `dir` of `owner` opens on the draws keyed by `key`:
    /// `bernoulli(1 − e^{−2K})` of the bond's kind on output
    /// `(d + 1)·owner + dir`, whatever the spins it joins.
    #[cfg(test)]
    fn bond_open(&self, key: u64, owner: usize, dir: usize) -> bool {
        let per_site = if self.model.ly > 1 { 3 } else { 2 };
        let k = if dir + 1 == per_site {
            self.c.k_time
        } else {
            self.c.k_space
        };
        let draw = SplitMix64::at(key, (per_site * owner + dir) as u64);
        qmc_rng::unit_f64(draw) < 1.0 - (-2.0 * k).exp()
    }

    /// The raw spacetime configuration, indexed `(t·ly + y)·lx + x`.
    pub fn export_spins(&self) -> &[i8] {
        &self.spins
    }

    #[cfg(test)]
    fn coords(&self, i: usize) -> (usize, usize, usize) {
        let m = &self.model;
        let x = i % m.lx;
        let y = (i / m.lx) % m.ly;
        let t = i / (m.lx * m.ly);
        (x, y, t)
    }

    /// Raw bond sums `(ΣSP, ΣT)` over the whole configuration: every site
    /// owns its +x (and +y) and +t bond, so each bond is counted exactly
    /// once — the array against itself one column on around each row, one
    /// row on around each slice and one slice on around the lot.
    #[qmc_hot::hot]
    pub fn bond_sums(&self) -> (f64, f64) {
        let (lx, slice) = (self.model.lx, self.model.lx * self.model.ly);
        let mut sp = ring_dot(&self.spins, lx, 1);
        if self.model.ly > 1 {
            sp += ring_dot(&self.spins, slice, lx);
        }
        let tt = ring_dot(&self.spins, self.spins.len(), slice);
        (sp as f64, tt as f64)
    }

    /// The site-by-site count [`Self::bond_sums`] replaced, kept as its
    /// oracle.
    #[cfg(test)]
    fn bond_sums_scalar(&self) -> (f64, f64) {
        let m = &self.model;
        let mut sp = 0i64;
        let mut tt = 0i64;
        for t in 0..m.m {
            for y in 0..m.ly {
                for x in 0..m.lx {
                    let s = self.spin(x, y, t) as i64;
                    sp += s * self.spin((x + 1) % m.lx, y, t) as i64;
                    if m.ly > 1 {
                        sp += s * self.spin(x, (y + 1) % m.ly, t) as i64;
                    }
                    tt += s * self.spin(x, y, (t + 1) % m.m) as i64;
                }
            }
        }
        (sp as f64, tt as f64)
    }

    /// Measure the current configuration.
    pub fn measure(&self) -> TfimMeasurement {
        let _span = qmc_obs::span("tfim.measure");
        let m = &self.model;
        let n = m.n_sites();
        let (sp, tt) = self.bond_sums();
        let mag = sum(&self.spins) as f64 / (n * m.m) as f64;
        TfimMeasurement {
            energy_per_site: self.c.energy(n, m.m, sp, tt) / n as f64,
            abs_m: mag.abs(),
            m2: mag * mag,
            sigma_x: self.c.sigma_x(n, m.m, tt),
        }
    }

    /// Thermalize then record `sweeps` measurements. Each "sweep" is one
    /// Metropolis sweep plus `wolff_per_sweep` cluster updates (which
    /// becomes [`SerialTfim::wolff_per_sweep`]).
    pub fn run<R: Rng64 + qmc_ckpt::Checkpoint>(
        &mut self,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        wolff_per_sweep: usize,
    ) -> TfimSeries {
        self.wolff_per_sweep = wolff_per_sweep;
        qmc_ckpt::run_engine(self, rng, therm, sweeps, None, None, |_, _| {})
            .expect("a run without a store cannot fail")
            .1
    }
}

impl<R: Rng64> qmc_ckpt::Engine<R> for SerialTfim {
    type Series = TfimSeries;

    fn begin_series(&self, _sweeps: usize) -> TfimSeries {
        TfimSeries::new(&self.model)
    }

    fn advance(&mut self, rng: &mut R, record: Option<&mut TfimSeries>) {
        self.metropolis_sweep(rng);
        for _ in 0..self.wolff_per_sweep {
            self.wolff_update(rng);
        }
        if let Some(series) = record {
            series.record(&self.measure());
        }
    }
}

/// Byte lanes [`sum_by`] adds in: one SSE2 register.
const LANES: usize = 16;

/// Cells [`sum_by`] takes before it widens its lanes: 63 terms of
/// magnitude ≤ 2 to a lane stay inside an `i8` whatever their signs. A
/// lane given more can wrap — silently under the release profile, with a
/// panic under dev.
const NARROW: usize = 63 * LANES;

/// `Σ term(a[k], b[k])` for terms within `−2..=2`, added up in byte lanes
/// and widened once per [`NARROW`] cells — an exact integer, whatever the
/// order of the additions. No branch, no dependence between cells: the
/// lane loop is one load, one `term` and one byte add per register.
#[qmc_hot::hot]
#[inline(always)]
pub(crate) fn sum_by(a: &[i8], b: &[i8], term: impl Fn(i8, i8) -> i8) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut total = 0;
    for (a, b) in a.chunks(NARROW).zip(b.chunks(NARROW)) {
        let (a, b) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        for (&x, &y) in a.remainder().iter().zip(b.remainder()) {
            total += i64::from(term(x, y));
        }
        let mut lanes = [0i8; LANES];
        for (a, b) in a.zip(b) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(a.iter().zip(b)) {
                *lane += term(x, y);
            }
        }
        total += lanes.iter().map(|&lane| i64::from(lane)).sum::<i64>();
    }
    total
}

/// `Σ a[k]·b[k]` over two equally long runs of ±1 spins. For such bytes
/// `x ^ y` is 0 where they agree and −2 where they differ, so
/// `x·y = 1 + (x ^ y)` and the product costs an exclusive or.
#[qmc_hot::hot]
#[inline]
pub(crate) fn dot(a: &[i8], b: &[i8]) -> i64 {
    a.len() as i64 + sum_by(a, b, |x, y| x ^ y)
}

/// `Σ a[k]·a[k′]` over an array of `period`-cell rings laid end to end,
/// `k′` being the cell `step` on from `k` around `k`'s own ring. The array
/// is walked as one long ring whatever the period, so that narrow rings
/// still make long runs; that pairs the last `step` cells of every ring
/// with the head of the ring after it, which is then exchanged for the
/// ring's own head.
#[qmc_hot::hot]
#[inline]
fn ring_dot(a: &[i8], period: usize, step: usize) -> i64 {
    let n = a.len();
    let mut total = dot(&a[..n - step], &a[step..]) + dot(&a[n - step..], &a[..step]);
    for own in (0..n).step_by(period) {
        let next = if own + period == n { 0 } else { own + period };
        let last = &a[own + period - step..own + period];
        for ((&x, &own), &next) in last.iter().zip(&a[own..]).zip(&a[next..]) {
            // x·own − x·next, each product as in `dot`.
            total += i64::from((x ^ own) - (x ^ next));
        }
    }
    total
}

/// `Σ a[k]` over a run of ±1 spins.
#[qmc_hot::hot]
#[inline]
pub(crate) fn sum(a: &[i8]) -> i64 {
    sum_by(a, a, |x, _| x)
}

impl qmc_ckpt::Checkpoint for SerialTfim {
    fn kind(&self) -> &'static str {
        "engine.tfim.serial"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        qmc_ckpt::save_sections_in_order(self, enc);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        // A blob written before the model section starts with the spins,
        // whose count (`lx·ly·m ≥ 8`) is never the model's three.
        if dec.clone().u64()? == 3 {
            self.load_section("model", dec)?;
            // Assigned once the spins are, so a refused blob lands nothing.
            let sweep_key = SweepKey::load(dec, &self.model, "tfim")?;
            self.load_section("spins", dec)?;
            self.sweep_key = sweep_key;
        } else {
            self.load_section("spins", dec)?;
        }
        self.load_section("metrics", dec)
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        let mut s = qmc_ckpt::DirtySections::new();
        // First, so a restore is judged before a spin lands. Always
        // written (24 bytes): a delta on a store that predates the section
        // has no copy of it to refer back to.
        s.push("model", true);
        // Before the spins, so a refused key lands nothing either. The
        // counter moves every sweep.
        s.push("key", true);
        s.push("spins", self.spins_dirty);
        // Counters advance every sweep whether or not a flip landed.
        s.push("metrics", true);
        s
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match name {
            "model" => crate::save_couplings(enc, &self.model),
            "key" => self.sweep_key.save(enc),
            "spins" => {
                let raw: Vec<u8> = self.spins.iter().map(|&s| s as u8).collect();
                enc.bytes(&raw);
            }
            "metrics" => qmc_ckpt::registry::save_registry(enc, &self.metrics),
            _ => panic!("engine.tfim.serial has no checkpoint section {name:?}"),
        }
    }

    fn load_section(
        &mut self,
        name: &str,
        dec: &mut qmc_ckpt::Decoder,
    ) -> Result<(), qmc_ckpt::CkptError> {
        match name {
            // The engine must already be constructed with the same model:
            // the configuration is restored, the derived tables are not
            // re-read. J, h and β are checked; a store written before
            // they were has no `model` section, and is taken on trust.
            "model" => crate::check_couplings(&dec.f64s()?, &self.model, "tfim"),
            // A store written before the key was has no `key` section: the
            // fresh engine a resume builds draws its key at its first sweep.
            "key" => {
                self.sweep_key = SweepKey::load(dec, &self.model, "tfim")?;
                Ok(())
            }
            "spins" => {
                crate::colour::restore_spins(&mut self.spins, dec.bytes()?, "tfim")?;
                self.spins_dirty = true;
                Ok(())
            }
            "metrics" => qmc_ckpt::registry::load_registry(dec, &mut self.metrics),
            _ => Err(qmc_ckpt::CkptError::MissingSection {
                name: name.to_string(),
            }),
        }
    }

    fn mark_clean(&mut self) {
        self.spins_dirty = false;
    }
}

impl TfimSeries {
    /// The columns, in the order both checkpoint layouts store them.
    fn columns(&self) -> [&[f64]; 4] {
        [&self.energy, &self.abs_m, &self.m2, &self.sigma_x]
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 4] {
        [
            &mut self.energy,
            &mut self.abs_m,
            &mut self.m2,
            &mut self.sigma_x,
        ]
    }
}

impl qmc_ckpt::Checkpoint for TfimSeries {
    fn kind(&self) -> &'static str {
        "series.tfim"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        for col in self.columns() {
            enc.f64s(col);
        }
        // After the columns, where a blob of an older build simply ends.
        if let Some(model) = &self.model {
            crate::save_couplings(enc, model);
        }
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let cols = [dec.f64s()?, dec.f64s()?, dec.f64s()?, dec.f64s()?];
        self.check_stated(dec, 0)?;
        qmc_ckpt::chunk::check_columns("tfim", &cols)?;
        for (col, restored) in self.columns_mut().into_iter().zip(cols) {
            *col = restored;
        }
        self.clean_rows = 0;
        Ok(())
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        qmc_ckpt::chunk::sections(self.len(), self.clean_rows)
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match qmc_ckpt::chunk::parse(name) {
            Some(k) => qmc_ckpt::chunk::save_rows(k, &self.columns(), enc),
            None if name == "head" => {
                if let Some(model) = &self.model {
                    crate::save_couplings(enc, model);
                }
                enc.u64(self.len() as u64);
            }
            None => panic!("series.tfim has no checkpoint section {name:?}"),
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
                chunk::load_rows("tfim", k, &mut self.columns_mut(), dec)?;
                self.clean_rows = self.clean_rows.min(k * chunk::ROWS);
                Ok(())
            }
            None if name == "head" => {
                // The row count is the last field.
                self.check_stated(dec, 8)?;
                chunk::check_rows("tfim", dec.u64()? as usize, self.len())
            }
            None => Err(qmc_ckpt::CkptError::MissingSection {
                name: name.to_string(),
            }),
        }
    }

    fn mark_clean(&mut self) {
        self.clean_rows = self.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_ed::tfim::{full_spectrum, thermal, TfimParams};
    use qmc_lattice::Chain;
    use qmc_rng::{CountingRng, Xoshiro256StarStar};
    use qmc_stats::BinningAnalysis;

    fn model(lx: usize, h: f64, beta: f64, m: usize) -> TfimModel {
        TfimModel {
            lx,
            ly: 1,
            j: 1.0,
            h,
            beta,
            m,
        }
    }

    fn run_chain(lx: usize, h: f64, beta: f64, m: usize, seed: u64, wolff: usize) -> TfimSeries {
        let mut eng = SerialTfim::new(model(lx, h, beta, m));
        let mut rng = Xoshiro256StarStar::new(seed);
        eng.run(&mut rng, 2000, 20_000, wolff)
    }

    /// 4σ + Trotter-bias validation of E and σx against dense ED.
    fn validate(lx: usize, h: f64, beta: f64, m: usize, seed: u64) {
        let series = run_chain(lx, h, beta, m, seed, 1);
        let lat = Chain::new(lx);
        let exact = thermal(&lat, &TfimParams { j: 1.0, h }, beta);
        let e_exact = exact.energy / lx as f64;

        let be = BinningAnalysis::new(&series.energy, 16);
        let trotter = (beta / m as f64).powi(2) * h * 2.0;
        assert!(
            (be.mean - e_exact).abs() < 4.0 * be.error().max(2e-4) + trotter,
            "L={lx} h={h} β={beta} m={m}: E {} ± {} vs {e_exact}",
            be.mean,
            be.error()
        );

        let bx = BinningAnalysis::new(&series.sigma_x, 16);
        assert!(
            (bx.mean - exact.sx).abs() < 4.0 * bx.error().max(2e-4) + trotter,
            "σx {} ± {} vs {}",
            bx.mean,
            bx.error(),
            exact.sx
        );
    }

    #[test]
    fn chain_l4_near_critical_matches_ed() {
        validate(4, 1.0, 1.0, 16, 1);
    }

    #[test]
    fn chain_l4_ordered_phase_matches_ed() {
        validate(4, 0.4, 2.0, 32, 2);
    }

    #[test]
    fn chain_l8_disordered_phase_matches_ed() {
        validate(8, 2.0, 1.0, 32, 3);
    }

    #[test]
    fn metropolis_only_also_matches_ed() {
        // Without cluster updates (pure checkerboard Metropolis — the
        // parallel schedule) the answers must agree too.
        let series = run_chain(4, 1.0, 1.0, 16, 4, 0);
        let lat = Chain::new(4);
        let spec = full_spectrum(&lat, &TfimParams { j: 1.0, h: 1.0 });
        let e_exact = spec.energy(1.0) / 4.0;
        let be = BinningAnalysis::new(&series.energy, 16);
        let trotter = (1.0 / 16.0f64).powi(2) * 2.0;
        assert!(
            (be.mean - e_exact).abs() < 5.0 * be.error().max(2e-4) + trotter,
            "E {} ± {} vs {e_exact}",
            be.mean,
            be.error()
        );
    }

    #[test]
    fn wolff_and_metropolis_sample_same_distribution() {
        let a = run_chain(6, 1.0, 1.5, 16, 5, 0);
        let b = run_chain(6, 1.0, 1.5, 16, 6, 2);
        let ba = BinningAnalysis::new(&a.energy, 16);
        let bb = BinningAnalysis::new(&b.energy, 16);
        let err = (ba.error().powi(2) + bb.error().powi(2)).sqrt().max(5e-4);
        assert!(
            (ba.mean - bb.mean).abs() < 5.0 * err,
            "{} ± {} vs {} ± {}",
            ba.mean,
            ba.error(),
            bb.mean,
            bb.error()
        );
    }

    #[test]
    fn ordered_and_disordered_phases() {
        // Deep FM phase: |m| near 1. Deep PM phase: |m| near 0, σx near 1.
        let fm = run_chain(8, 0.2, 4.0, 32, 7, 2);
        let pm = run_chain(8, 4.0, 4.0, 32, 8, 2);
        let fm_m = fm.abs_m.iter().sum::<f64>() / fm.len() as f64;
        let pm_m = pm.abs_m.iter().sum::<f64>() / pm.len() as f64;
        let pm_sx = pm.sigma_x.iter().sum::<f64>() / pm.len() as f64;
        assert!(fm_m > 0.8, "FM |m| = {fm_m}");
        assert!(pm_m < 0.4, "PM |m| = {pm_m}");
        assert!(pm_sx > 0.9, "PM σx = {pm_sx}");
    }

    #[test]
    fn two_dimensional_small_lattice_runs_and_is_sane() {
        let mut eng = SerialTfim::new(TfimModel {
            lx: 4,
            ly: 4,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 8,
        });
        let mut rng = Xoshiro256StarStar::new(9);
        let series = eng.run(&mut rng, 500, 2000, 1);
        let e = series.energy.iter().sum::<f64>() / series.len() as f64;
        // Energy must lie between the trivial bounds −(2J + h) and 0.
        assert!(e < 0.0 && e > -4.0, "E = {e}");
    }

    #[test]
    fn binder_cumulant_limits() {
        // Ordered phase → ≈ 2/3; disordered → near 0.
        let ordered = run_chain(8, 0.2, 4.0, 32, 21, 2);
        let disordered = run_chain(8, 4.0, 4.0, 32, 22, 2);
        let u_ord = ordered.binder_cumulant();
        let u_dis = disordered.binder_cumulant();
        assert!(u_ord > 0.6, "ordered U4 = {u_ord}");
        assert!(u_dis < 0.45, "disordered U4 = {u_dis}");
    }

    #[test]
    fn wolff_cluster_size_bounded_and_positive() {
        let mut eng = SerialTfim::new(model(8, 1.0, 1.0, 8));
        let mut rng = Xoshiro256StarStar::new(10);
        for _ in 0..50 {
            let size = eng.wolff_update(&mut rng);
            assert!((1..=64).contains(&size));
        }
    }

    #[test]
    fn measurement_of_aligned_configuration() {
        let eng = SerialTfim::new(model(4, 1.0, 1.0, 4));
        let meas = eng.measure();
        assert_eq!(meas.abs_m, 1.0);
        assert_eq!(meas.m2, 1.0);
        // ΣSP = 4 bonds × 4 slices, ΣT = 4 sites × 4 slices.
        let (sp, tt) = eng.bond_sums();
        assert_eq!(sp, 16.0);
        assert_eq!(tt, 16.0);
    }

    #[test]
    fn table_sweep_reproduces_exp_reference_trajectory() {
        // The table-driven kernel must replay the exp-per-proposal
        // reference bit-for-bit: identical spins after identical seeds,
        // which proves the optimization perturbs no random-number draw.
        let reference_sweep = |eng: &mut SerialTfim, rng: &mut Xoshiro256StarStar| {
            let m = eng.model;
            let (key, sweep) = eng.sweep_key.next(rng);
            for color in 0..2usize {
                for t in 0..m.m {
                    for y in 0..m.ly {
                        for x in 0..m.lx {
                            if (x + y + t) % 2 != color {
                                continue;
                            }
                            let cost = eng.flip_cost(x, y, t);
                            let i = eng.idx(x, y, t);
                            let at = sweep * eng.spins.len() as u64 + i as u64;
                            let draw = qmc_rng::unit_f64(qmc_rng::SplitMix64::at(key, at));
                            let ratio = (-cost).exp();
                            if ratio >= 1.0 || draw < ratio {
                                eng.spins[i] = -eng.spins[i];
                            }
                        }
                    }
                }
            }
        };
        for m in [
            model(8, 1.3, 1.7, 8),
            TfimModel {
                lx: 4,
                ly: 4,
                j: 1.0,
                h: 2.0,
                beta: 1.0,
                m: 8,
            },
            // Wrap columns next to each other's neighbours, a row as wide
            // as the benchmark's, and one wider than a kernel block.
            TfimModel {
                lx: 6,
                ly: 4,
                j: 1.0,
                h: 3.0,
                beta: 1.5,
                m: 6,
            },
            model(64, 1.0, 4.0, 16),
            model(2050, 1.0, 1.0, 2),
        ] {
            let mut fast = SerialTfim::new(m);
            let mut slow = SerialTfim::new(m);
            let mut rng_fast = Xoshiro256StarStar::new(31);
            let mut rng_slow = Xoshiro256StarStar::new(31);
            for _ in 0..25 {
                fast.metropolis_sweep(&mut rng_fast);
                reference_sweep(&mut slow, &mut rng_slow);
                assert_eq!(fast.spins, slow.spins);
            }
        }
    }

    #[test]
    fn flip_cost_consistent_with_bond_sums() {
        // ΔS must equal the actual change in −K·Σss′ under the flip.
        let mut eng = SerialTfim::new(model(6, 0.9, 1.3, 6));
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..20 {
            eng.metropolis_sweep(&mut rng);
        }
        let action = |e: &SerialTfim| {
            let (sp, tt) = e.bond_sums();
            -(e.c.k_space * sp + e.c.k_time * tt)
        };
        for (x, y, t) in [(0, 0, 0), (3, 0, 2), (5, 0, 5)] {
            let before = action(&eng);
            let cost = eng.flip_cost(x, y, t);
            let i = eng.idx(x, y, t);
            eng.spins[i] = -eng.spins[i];
            let after = action(&eng);
            eng.spins[i] = -eng.spins[i];
            assert!(
                ((after - before) - cost).abs() < 1e-10,
                "ΔS {} vs cost {}",
                after - before,
                cost
            );
        }
    }

    #[test]
    fn colour_kernel_matches_site_by_site_oracle_after_every_sweep() {
        // The exp reference above pins the spins; the loop the colour
        // kernel replaced also pins what it does not look at — both
        // counters, the dirty flag and the number of raw draws — with
        // Wolff updates interleaved as `run` interleaves them.
        for (m, wolff) in [
            (model(8, 1.3, 1.7, 8), 0),
            (model(64, 1.0, 16.0, 128), 1),
            (model(2050, 1.0, 1.0, 2), 0),
            (
                TfimModel {
                    lx: 6,
                    ly: 4,
                    j: 1.0,
                    h: 3.0,
                    beta: 1.5,
                    m: 6,
                },
                2,
            ),
        ] {
            let mut fast = SerialTfim::new(m);
            let mut slow = SerialTfim::new(m);
            let mut rng_fast = CountingRng::new(Xoshiro256StarStar::new(47));
            let mut rng_slow = rng_fast.clone();
            for sweep in 0..12 {
                qmc_ckpt::Checkpoint::mark_clean(&mut fast);
                qmc_ckpt::Checkpoint::mark_clean(&mut slow);
                fast.metropolis_sweep(&mut rng_fast);
                slow.metropolis_sweep_scalar(&mut rng_slow);
                assert!(fast.spins == slow.spins, "{m:?} sweep {sweep}");
                assert_eq!(fast.accepted(), slow.accepted(), "{m:?} sweep {sweep}");
                assert_eq!(fast.proposed(), slow.proposed(), "{m:?} sweep {sweep}");
                assert_eq!(fast.spins_dirty, slow.spins_dirty, "{m:?} sweep {sweep}");
                assert_eq!(rng_fast.draws, rng_slow.draws, "{m:?} sweep {sweep}");
                for _ in 0..wolff {
                    assert_eq!(
                        fast.wolff_update(&mut rng_fast),
                        slow.wolff_update_scalar(&mut rng_slow)
                    );
                }
            }
            assert!(fast.accepted() > 0);
            assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }

    /// `(lx, ly, h, β, m)` of every Wolff row of `tests/trajectory_pins.rs`
    /// — two slices, the narrowest chain, widths that are no power of two,
    /// `ly ≠ lx`, ordered and disordered points, the benchmark's chain —
    /// and a chain whose columns do not fit a byte.
    const WOLFF_GEOMETRIES: [(usize, usize, f64, f64, usize); 22] = [
        (4, 1, 0.7, 2.0, 16),
        (6, 1, 1.3, 1.7, 6),
        (64, 1, 1.0, 16.0, 128),
        (64, 1, 0.4, 2.0, 8),
        (6, 4, 3.0, 1.5, 6),
        (6, 6, 2.5, 1.0, 4),
        (64, 4, 3.044, 2.0, 8),
        (4, 1, 1.0, 0.5, 2),
        (8, 1, 0.6, 1.0, 2),
        (4, 4, 1.5, 0.5, 2),
        (4, 1, 1.0, 4.0, 32),
        (6, 1, 1.0, 3.0, 12),
        (10, 1, 0.9, 2.5, 10),
        (10, 4, 2.5, 1.5, 6),
        (4, 6, 2.0, 2.0, 8),
        (6, 10, 3.044, 1.0, 4),
        (16, 1, 0.1, 4.0, 16),
        (64, 1, 0.2, 8.0, 32),
        (6, 6, 0.5, 2.0, 8),
        (16, 1, 100.0, 0.2, 8),
        (8, 4, 60.0, 0.3, 6),
        (300, 1, 0.8, 1.0, 4),
    ];

    fn wolff_models() -> impl Iterator<Item = TfimModel> {
        WOLFF_GEOMETRIES
            .iter()
            .map(|&(lx, ly, h, beta, m)| TfimModel {
                ly,
                ..model(lx, h, beta, m)
            })
    }

    #[test]
    fn wolff_kernel_matches_the_membership_array_oracle_after_every_update() {
        for m in wolff_models() {
            for seed in [3, 59] {
                let mut fast = SerialTfim::new(m);
                let mut slow = SerialTfim::new(m);
                let mut rng_fast = CountingRng::new(Xoshiro256StarStar::new(seed));
                let mut rng_slow = rng_fast.clone();
                for sweep in 0..8 {
                    fast.metropolis_sweep(&mut rng_fast);
                    slow.metropolis_sweep(&mut rng_slow);
                    for _ in 0..3 {
                        qmc_ckpt::Checkpoint::mark_clean(&mut fast);
                        let size = fast.wolff_update(&mut rng_fast);
                        assert_eq!(size, slow.wolff_update_scalar(&mut rng_slow));
                        assert!(fast.spins == slow.spins, "{m:?} seed {seed} sweep {sweep}");
                        assert_eq!(rng_fast.draws, rng_slow.draws, "{m:?} sweep {sweep}");
                        assert!(fast.spins_dirty);
                    }
                }
                let hist = |eng: &SerialTfim| format!("{:?}", eng.metrics.hists());
                assert_eq!(hist(&fast), hist(&slow), "{m:?} seed {seed}");
                assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
            }
        }
    }

    /// The cluster a depth-first walk over the keyed bonds grows from
    /// `seed`: a membership array, sites taken last in, first out, and
    /// each site's bonds tried in the order +t, (+y,) +x, then −t, (−y,)
    /// −x, the ones its neighbours own — not the kernel's order.
    fn depth_first_cluster(eng: &SerialTfim, seed: usize, key: u64) -> Vec<bool> {
        let m = &eng.model;
        let s = eng.spins[seed];
        let mut in_cluster = vec![false; eng.spins.len()];
        in_cluster[seed] = true;
        let mut stack = vec![seed];
        while let Some(site) = stack.pop() {
            let (x, y, t) = eng.coords(site);
            let mut backward = vec![eng.idx((x + m.lx - 1) % m.lx, y, t)];
            if m.ly > 1 {
                backward.push(eng.idx(x, (y + m.ly - 1) % m.ly, t));
            }
            backward.push(eng.idx(x, y, (t + m.m - 1) % m.m));
            let ours = eng.forward(site).into_iter().enumerate().rev();
            let theirs = backward.into_iter().enumerate().rev();
            let bonds = ours
                .map(|(dir, to)| (to, site, dir))
                .chain(theirs.map(|(dir, owner)| (owner, owner, dir)));
            for (to, owner, dir) in bonds {
                if !in_cluster[to] && eng.spins[to] == s && eng.bond_open(key, owner, dir) {
                    in_cluster[to] = true;
                    stack.push(to);
                }
            }
        }
        in_cluster
    }

    #[test]
    fn a_depth_first_walk_over_the_keyed_bonds_builds_the_same_cluster() {
        // The bonds decide on their own draws, so the cluster is one of
        // (seed, key, spins) whatever order a walk takes them in.
        for m in wolff_models() {
            let mut eng = SerialTfim::new(m);
            let mut rng = Xoshiro256StarStar::new(71);
            for sweep in 0..6 {
                eng.metropolis_sweep(&mut rng);
                for _ in 0..3 {
                    let mut peek = rng;
                    let (seed, key) = (peek.index(eng.spins.len()), peek.next_u64());
                    let in_cluster = depth_first_cluster(&eng, seed, key);
                    let want: Vec<i8> = eng
                        .spins
                        .iter()
                        .zip(&in_cluster)
                        .map(|(&s, &hit)| if hit { -s } else { s })
                        .collect();
                    let size = eng.wolff_update(&mut rng);
                    assert!(eng.spins == want, "{m:?} sweep {sweep}");
                    assert_eq!(size, in_cluster.iter().filter(|&&hit| hit).count());
                }
            }
        }
    }

    #[test]
    fn wolff_thresholds_decide_as_bernoulli_and_always_draw() {
        // `bernoulli(p)` is `unit_f64(raw) < p` on a draw it always takes:
        // p = 1 must sit above every `raw >> 11` without being `NO_DRAW`.
        let top = (1u64 << 53) - 1;
        assert_eq!(always_draw_threshold(1.0), top + 1);
        assert_eq!(always_draw_threshold(0.0), 0);
        let couplings = wolff_models().map(|m| m.couplings());
        let ps = couplings.flat_map(|c| [c.k_space, c.k_time].map(|k| 1.0 - (-2.0 * k).exp()));
        for p in ps.chain([0.0, 5e-324, 0.5, 1.0 - 2f64.powi(-53), 1.0]) {
            let thr = always_draw_threshold(p);
            assert_ne!(thr, qmc_rng::NO_DRAW);
            let around = [thr.wrapping_sub(1), thr, thr + 1, 0, top];
            for n in around.into_iter().filter(|&n| n <= top) {
                for low in [0u64, (1 << 11) - 1] {
                    let raw = n << 11 | low;
                    assert_eq!((raw >> 11) < thr, qmc_rng::unit_f64(raw) < p, "p {p:e}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a Wolff stack entry indexes at most")]
    fn a_lattice_a_stack_entry_cannot_index_is_refused() {
        let _ = SerialTfim::new(model(1 << 16, 1.0, 1.0, 2));
    }

    #[test]
    fn bond_sums_match_a_site_by_site_count_and_measure_bit_for_bit() {
        // Every engine starts from the checkerboard, where each bond is
        // anti-aligned and a byte lane takes its largest term cell after
        // cell, and one has slices longer than the 1 008 cells a lane adds
        // up before it widens: an accumulator too narrow for that wraps
        // without a word under the release profile.
        let big = TfimModel {
            ly: 40,
            ..model(64, 3.044, 2.0, 4)
        };
        for m in wolff_models().chain([big]) {
            let mut eng = SerialTfim::new(m);
            let mut rng = Xoshiro256StarStar::new(61);
            let staggered: Vec<i8> = (0..eng.spins.len())
                .map(|i| {
                    let (x, y, t) = eng.coords(i);
                    1 - 2 * ((x + y + t) % 2) as i8
                })
                .collect();
            eng.spins.copy_from_slice(&staggered);
            assert_eq!(eng.bond_sums().1, -(staggered.len() as f64));
            for sweep in 0..6 {
                let (sp, tt) = eng.bond_sums_scalar();
                assert_eq!(eng.bond_sums(), (sp, tt), "{m:?} sweep {sweep}");
                let n = m.n_sites();
                let total: i64 = eng.spins.iter().map(|&s| s as i64).sum();
                let mag = total as f64 / (n * m.m) as f64;
                let want = [
                    eng.c.energy(n, m.m, sp, tt) / n as f64,
                    mag.abs(),
                    mag * mag,
                    eng.c.sigma_x(n, m.m, tt),
                ];
                let got = eng.measure();
                let got = [got.energy_per_site, got.abs_m, got.m2, got.sigma_x];
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{m:?}");
                eng.metropolis_sweep(&mut rng);
                eng.wolff_update(&mut rng);
            }
        }
    }

    #[test]
    fn refused_checkpoint_leaves_the_engine_untouched() {
        // Blobs every CRC accepts, through the whole-blob and the sectioned
        // path: one whose last spin byte is 0 (`load_spins` used to copy
        // spin by spin and stop there, leaving all but one site replaced),
        // and two whose key or sweep counter cannot be — no key after 30
        // sweeps, a counter past the draw index range. Each must be
        // refused before anything lands, so the engine goes on exactly
        // like one that never saw it.
        let engine_after = |sweeps: usize| {
            let mut eng = SerialTfim::new(model(8, 1.3, 1.7, 8));
            let mut rng = Xoshiro256StarStar::new(23);
            let _ = eng.run(&mut rng, sweeps, 0, 1);
            (eng, rng)
        };
        let (donor, _) = engine_after(30);
        use qmc_ckpt::Checkpoint as _;
        // kind tag (length-prefixed) and body length; the whole blob has
        // the model section (J, h, β as `f64s`) and the key section (flag,
        // key, counter) before the spin count and the spins.
        let head = 8 + donor.kind().len() + 8;
        let key_at = head + 32;
        let last_spin = key_at + 17 + 8 + donor.spins.len() - 1;
        let whole = qmc_ckpt::save_state(&donor);
        let section = |name| qmc_ckpt::save_section_bytes(&donor, name);
        assert_eq!(whole[last_spin] as i8, *donor.spins.last().unwrap());
        assert_eq!(section("spins").len(), head + 8 + donor.spins.len());
        assert_eq!((whole[key_at], section("key")[head]), (1, 1));
        let tampered = |mut blob: Vec<u8>, at: usize, bytes: &[u8]| {
            blob[at..at + bytes.len()].copy_from_slice(bytes);
            blob
        };
        // (what, its section, where it is in the whole blob and in the
        // section, the bytes written there)
        let last_in_section = head + 7 + donor.spins.len();
        let cases = [
            ("a spin of 0", "spins", last_spin, last_in_section, &[0][..]),
            ("no key after 30 sweeps", "key", key_at, head, &[0]),
            (
                "a counter past the index range",
                "key",
                key_at + 9,
                head + 9,
                &[0xff; 8],
            ),
        ];
        let offers = cases
            .into_iter()
            .flat_map(|(what, name, in_whole, at, bytes)| {
                [
                    (what, None, tampered(whole.clone(), in_whole, bytes)),
                    (what, Some(name), tampered(section(name), at, bytes)),
                ]
            });
        for (what, section, blob) in offers {
            let (mut eng, mut rng) = engine_after(20);
            let (mut twin, mut twin_rng) = engine_after(20);
            assert!(donor.spins != eng.spins);
            let mut file = qmc_ckpt::CkptFile::new();
            file.add("engine", blob);
            let file = qmc_ckpt::CkptFile::from_bytes(&file.to_bytes()).expect("CRC-valid file");
            let blob = file.require("engine").unwrap();
            let refused = match section {
                Some(name) => qmc_ckpt::load_section_bytes(blob, name, &mut eng),
                None => qmc_ckpt::load_state(blob, &mut eng),
            };
            let at = format!("{what} ({section:?})");
            assert!(
                matches!(refused, Err(qmc_ckpt::CkptError::Corrupt { .. })),
                "{at}: {refused:?}"
            );
            assert!(
                eng.spins == twin.spins,
                "{at}: a refused load replaced spins"
            );
            assert_eq!(eng.sweep_key, twin.sweep_key, "{at}");
            assert_eq!(eng.accepted(), twin.accepted(), "{at}");
            assert_eq!(eng.proposed(), twin.proposed(), "{at}");
            let _ = eng.run(&mut rng, 10, 0, 1);
            let _ = twin.run(&mut twin_rng, 10, 0, 1);
            assert!(eng.spins == twin.spins, "{at}");
            assert_eq!(eng.accepted(), twin.accepted(), "{at}");
            assert_eq!(rng.next_u64(), twin_rng.next_u64(), "{at}");
        }
    }

    #[test]
    fn other_couplings_are_refused_and_the_old_layout_loads() {
        use qmc_ckpt::Checkpoint as _;
        let ours = model(8, 1.3, 1.7, 8);
        let engine_after = |model: TfimModel, seed: u64| {
            let mut eng = SerialTfim::new(model);
            let _ = eng.run(&mut Xoshiro256StarStar::new(seed), 20, 0, 1);
            eng
        };
        let seen = |eng: &SerialTfim| (eng.spins.clone(), eng.accepted(), eng.proposed());
        let before = seen(&engine_after(ours, 1));
        for other in [
            TfimModel { beta: 4.0, ..ours },
            TfimModel { h: 1.0, ..ours },
            TfimModel { j: 0.5, ..ours },
        ] {
            let donor = engine_after(other, 2);
            let offers = [
                (None, qmc_ckpt::save_state(&donor)),
                (Some("model"), qmc_ckpt::save_section_bytes(&donor, "model")),
            ];
            for (section, blob) in offers {
                let mut target = engine_after(ours, 1);
                let refused = match section {
                    Some(name) => qmc_ckpt::load_section_bytes(&blob, name, &mut target),
                    None => qmc_ckpt::load_state(&blob, &mut target),
                };
                assert!(
                    matches!(&refused, Err(qmc_ckpt::CkptError::Corrupt { detail }) if detail.contains('β')),
                    "{other:?} {section:?}: {refused:?}"
                );
                assert!(
                    seen(&target) == before,
                    "{other:?} {section:?}: something landed"
                );
            }
        }

        // What an older build wrote: no model section, as a whole blob
        // (spins, then metrics) and as a sectioned image.
        let donor = engine_after(ours, 2);
        let mut body = qmc_ckpt::Encoder::new();
        donor.save_section("spins", &mut body);
        donor.save_section("metrics", &mut body);
        let mut blob = qmc_ckpt::Encoder::new();
        blob.str(donor.kind());
        blob.bytes(&body.into_bytes());
        let mut target = engine_after(ours, 1);
        qmc_ckpt::load_state(&blob.into_bytes(), &mut target).expect("an old whole blob");
        assert!(seen(&target) == seen(&donor));
        let mut file = qmc_ckpt::CkptFile::new();
        for name in ["spins", "metrics"] {
            file.add(
                &format!("engine/{name}"),
                qmc_ckpt::save_section_bytes(&donor, name),
            );
        }
        let mut target = engine_after(ours, 1);
        qmc_ckpt::restore_sections(&file, "engine", &mut target).expect("an old image");
        assert!(seen(&target) == seen(&donor));
    }
}
