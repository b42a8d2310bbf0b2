//! Single-memory TFIM path-integral engine (Metropolis + Wolff).

use crate::colour::{Layout, Scratch, Thresholds};
use crate::{AcceptTable, StCouplings, TfimModel};
use qmc_obs::{CounterId, Registry};
use qmc_rng::Rng64;

/// Spacetime spin configuration of the mapped classical model plus update
/// kernels. Spins are indexed `(t·ly + y)·lx + x`.
///
/// Invariant: every stored spin is `+1` or `−1`. The Metropolis kernel
/// forms its table index by byte arithmetic on seven spins, so this is
/// load-bearing; every way in ([`Self::import_spins`], checkpoint restore)
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
    /// Exact integer acceptance thresholds of the [`AcceptTable`] (no
    /// `exp`, no float compare in the sweep loop).
    thr: Thresholds,
    /// Wolff add probabilities `1 − e^{−2K}`, precomputed per bond type.
    wolff_p_space: f64,
    wolff_p_time: f64,
    // Wolff scratch
    stack: Vec<usize>,
    in_cluster: Vec<bool>,
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
}

impl TfimSeries {
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
        let c = model.couplings();
        let mut metrics = Registry::new();
        let id_accepted = metrics.counter("tfim.accepted");
        let id_proposed = metrics.counter("tfim.proposed");
        // Registered eagerly (not on first Wolff update) so a freshly
        // constructed engine has the exact registry shape a checkpoint
        // expects, however many updates the checkpointed run had done.
        metrics.hist("tfim.wolff_cluster");
        Self {
            c,
            spins: vec![1; n],
            spins_dirty: true,
            model,
            metrics,
            id_accepted,
            id_proposed,
            thr: Thresholds::new(&AcceptTable::new(&c)),
            wolff_p_space: 1.0 - (-2.0 * c.k_space).exp(),
            wolff_p_time: 1.0 - (-2.0 * c.k_time).exp(),
            stack: Vec::new(),
            in_cluster: vec![false; n],
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
    /// colour (see the crate docs). Proposal order, decisions and the
    /// random-number stream are those of a site-by-site loop over colour,
    /// slice, row and column calling `rng.metropolis(ratio)`.
    #[qmc_hot::hot]
    pub fn metropolis_sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("tfim.metropolis_sweep");
        let layout = self.layout();
        let mut scratch = Scratch::new();
        // Counters accumulate in locals and flush once per sweep: the hot
        // loop stays free of registry indexing (2% overhead budget).
        let (mut proposed, mut accepted) = (0u64, 0u64);
        for colour in 0..2 {
            let (p, a) = layout.half_sweep(&mut self.spins, &self.thr, colour, &mut scratch, rng);
            proposed += p;
            accepted += a;
        }
        self.metrics.add(self.id_proposed, proposed);
        self.metrics.add(self.id_accepted, accepted);
        if accepted > 0 {
            self.spins_dirty = true;
        }
    }

    /// The site-by-site sweep [`Self::metropolis_sweep`] replaced, kept as
    /// the oracle its trajectory is compared against.
    #[cfg(test)]
    fn metropolis_sweep_scalar<R: Rng64>(&mut self, rng: &mut R) {
        let m = self.model;
        let (lx, ly, mm) = (m.lx, m.ly, m.m);
        let slice = lx * ly;
        let accept = AcceptTable::new(&self.c);
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
                        if rng.metropolis(accept.ratio(s, sp, tp)) {
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
    /// it; bond-type-dependent add probabilities `1 − e^{−2K}`).
    pub fn wolff_update<R: Rng64>(&mut self, rng: &mut R) -> usize {
        let _span = qmc_obs::span("tfim.wolff");
        let n = self.spins.len();
        let seed = rng.index(n);
        let (p_s, p_t) = (self.wolff_p_space, self.wolff_p_time);

        self.in_cluster.iter_mut().for_each(|b| *b = false);
        self.stack.clear();
        self.stack.push(seed);
        self.in_cluster[seed] = true;
        let mut size = 0usize;

        while let Some(site) = self.stack.pop() {
            size += 1;
            let (x, y, t) = self.coords(site);
            let s = self.spins[site];
            for (nb, is_t) in self.neighbors(x, y, t) {
                if nb == usize::MAX || self.in_cluster[nb] || self.spins[nb] != s {
                    continue;
                }
                let p = if is_t { p_t } else { p_s };
                if rng.bernoulli(p) {
                    self.in_cluster[nb] = true;
                    self.stack.push(nb);
                }
            }
            self.spins[site] = -s;
        }
        // A Wolff update always flips its (≥ 1 site) cluster.
        self.spins_dirty = true;
        self.metrics.record_named("tfim.wolff_cluster", size as u64);
        size
    }

    /// The raw spacetime configuration, indexed `(t·ly + y)·lx + x` — the
    /// bridge to the bit-packed sweep path (see [`crate::packed`]).
    pub fn export_spins(&self) -> &[i8] {
        &self.spins
    }

    /// Replace the spacetime configuration (±1 per site, same layout as
    /// [`Self::export_spins`]). Used by the packed drivers to hand a
    /// batch-updated configuration back to the scalar engine.
    pub fn import_spins(&mut self, spins: &[i8]) {
        assert_eq!(
            spins.len(),
            self.spins.len(),
            "configuration length mismatch"
        );
        assert!(spins.iter().all(|&s| s == 1 || s == -1), "spins must be ±1");
        self.spins.copy_from_slice(spins);
        self.spins_dirty = true;
    }

    fn coords(&self, i: usize) -> (usize, usize, usize) {
        let m = &self.model;
        let x = i % m.lx;
        let y = (i / m.lx) % m.ly;
        let t = i / (m.lx * m.ly);
        (x, y, t)
    }

    /// Raw bond sums `(ΣSP, ΣT)` over the whole configuration.
    pub fn bond_sums(&self) -> (f64, f64) {
        let m = &self.model;
        let mut sp = 0i64;
        let mut tt = 0i64;
        for t in 0..m.m {
            for y in 0..m.ly {
                for x in 0..m.lx {
                    let s = self.spin(x, y, t) as i64;
                    // Each site owns its +x (and +y) bond: every spatial
                    // bond is counted exactly once.
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
        let total: i64 = self.spins.iter().map(|&s| s as i64).sum();
        let mag = total as f64 / (n * m.m) as f64;
        TfimMeasurement {
            energy_per_site: self.c.energy(n, m.m, sp, tt) / n as f64,
            abs_m: mag.abs(),
            m2: mag * mag,
            sigma_x: self.c.sigma_x(n, m.m, tt),
        }
    }

    /// Thermalize then record `sweeps` measurements. Each "sweep" is one
    /// Metropolis sweep plus `wolff_per_sweep` cluster updates.
    pub fn run<R: Rng64>(
        &mut self,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        wolff_per_sweep: usize,
    ) -> TfimSeries {
        for _ in 0..therm {
            self.metropolis_sweep(rng);
            for _ in 0..wolff_per_sweep {
                self.wolff_update(rng);
            }
        }
        let mut series = TfimSeries::default();
        for _ in 0..sweeps {
            self.metropolis_sweep(rng);
            for _ in 0..wolff_per_sweep {
                self.wolff_update(rng);
            }
            series.record(&self.measure());
        }
        series
    }
}

impl qmc_ckpt::Checkpoint for SerialTfim {
    fn kind(&self) -> &'static str {
        "engine.tfim.serial"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        qmc_ckpt::save_sections_in_order(self, enc);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        qmc_ckpt::load_sections_in_order(self, dec)
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        let mut s = qmc_ckpt::DirtySections::new();
        s.push("spins", self.spins_dirty);
        // Counters advance every sweep whether or not a flip landed.
        s.push("metrics", true);
        s
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match name {
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
            // re-read.
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
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let cols = [dec.f64s()?, dec.f64s()?, dec.f64s()?, dec.f64s()?];
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
            None if name == "head" => enc.u64(self.len() as u64),
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
            None if name == "head" => chunk::check_rows("tfim", dec.u64()? as usize, self.len()),
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
            for color in 0..2usize {
                for t in 0..m.m {
                    for y in 0..m.ly {
                        for x in 0..m.lx {
                            if (x + y + t) % 2 != color {
                                continue;
                            }
                            let cost = eng.flip_cost(x, y, t);
                            if rng.metropolis((-cost).exp()) {
                                let i = eng.idx(x, y, t);
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
                        slow.wolff_update(&mut rng_slow)
                    );
                }
            }
            assert!(fast.accepted() > 0);
            assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
        }
    }

    #[test]
    fn refused_checkpoint_leaves_the_engine_untouched() {
        // Blobs every CRC accepts, whose last spin byte is 0, through
        // the whole-blob and the sectioned path: `load_spins` used to
        // copy spin by spin and stop there, leaving all but one site
        // replaced. They must be refused before anything lands, so the
        // engine goes on exactly like one that never saw them.
        let engine_after = |sweeps: usize| {
            let mut eng = SerialTfim::new(model(8, 1.3, 1.7, 8));
            let mut rng = Xoshiro256StarStar::new(23);
            let _ = eng.run(&mut rng, sweeps, 0, 1);
            (eng, rng)
        };
        let (donor, _) = engine_after(30);
        let restore_tampered =
            |eng: &mut SerialTfim, mut blob: Vec<u8>, last_spin: usize, section| {
                assert_eq!(blob[last_spin] as i8, *donor.spins.last().unwrap());
                blob[last_spin] = 0;
                let mut file = qmc_ckpt::CkptFile::new();
                file.add("engine", blob);
                let file =
                    qmc_ckpt::CkptFile::from_bytes(&file.to_bytes()).expect("CRC-valid file");
                let blob = file.require("engine").unwrap();
                match section {
                    Some(name) => qmc_ckpt::load_section_bytes(blob, name, eng),
                    None => qmc_ckpt::load_state(blob, eng),
                }
            };
        use qmc_ckpt::Checkpoint as _;
        // kind tag (length-prefixed), body length, spin count, spins.
        let last_spin = 8 + donor.kind().len() + 8 + 8 + donor.spins.len() - 1;
        let whole = (qmc_ckpt::save_state(&donor), None);
        let section = (qmc_ckpt::save_section_bytes(&donor, "spins"), Some("spins"));
        assert_eq!(section.0.len(), last_spin + 1);
        for (blob, section) in [whole, section] {
            let (mut eng, mut rng) = engine_after(20);
            let (mut twin, mut twin_rng) = engine_after(20);
            assert!(donor.spins != eng.spins);
            let refused = restore_tampered(&mut eng, blob, last_spin, section);
            assert!(
                matches!(refused, Err(qmc_ckpt::CkptError::Corrupt { .. })),
                "{section:?}: {refused:?}"
            );
            assert!(
                eng.spins == twin.spins,
                "{section:?}: a refused load replaced spins"
            );
            assert_eq!(eng.accepted(), twin.accepted());
            assert_eq!(eng.proposed(), twin.proposed());
            let _ = eng.run(&mut rng, 10, 0, 1);
            let _ = twin.run(&mut twin_rng, 10, 0, 1);
            assert!(eng.spins == twin.spins);
            assert_eq!(eng.accepted(), twin.accepted());
            assert_eq!(rng.next_u64(), twin_rng.next_u64());
        }
    }
}
