//! Observable estimators on world-line configurations.
//!
//! The energy estimator is the standard τ-derivative of the log weight:
//! `E = ⟨ε⟩` with `ε = (1/m) Σ_cells e(class)`, and the specific heat
//! needs the well-known correction term
//! `C = β² [⟨ε²⟩ − ⟨ε⟩² − ⟨∂ε/∂β⟩]` because `ε` itself depends on β.

use crate::engine::Worldline;
use crate::weights::by_pattern;
use qmc_lattice::doubled_mismatches;
use qmc_stats::jackknife_pair;

/// One sweep's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Energy per site, `ε/L`.
    pub energy_per_site: f64,
    /// `∂ε/∂β` per site (specific-heat correction).
    pub denergy_per_site: f64,
    /// Total magnetization `M = Σ Sᶻ` (row 0; conserved across rows).
    pub magnetization: f64,
    /// Staggered magnetization `Σ (−1)^i Sᶻ_i` of row 0.
    pub staggered: f64,
}

/// Measure the current configuration.
pub fn measure(w: &Worldline) -> Measurement {
    let p = *w.params();
    let m = p.m as f64;
    let wt = *w.weights();
    let e = by_pattern(|class| wt.energy(class));
    let de = by_pattern(|class| wt.denergy(class));
    let mut eps = 0.0;
    let mut deps = 0.0;
    w.for_each_pattern(|p| {
        eps += e[p];
        deps += de[p];
    });
    // ε = (1/m) Σ e_cell ; ∂ε/∂β = (1/m²) Σ ∂e/∂Δτ (since Δτ = β/m).
    let energy = eps / m / p.l as f64;
    let denergy = deps / (m * m) / p.l as f64;

    let mut mag = 0.0;
    let mut stag = 0.0;
    for i in 0..p.l {
        let s = if w.spin(i, 0) { 0.5 } else { -0.5 };
        mag += s;
        stag += if i % 2 == 0 { s } else { -s };
    }

    Measurement {
        energy_per_site: energy,
        denergy_per_site: denergy,
        magnetization: mag,
        staggered: stag,
    }
}

/// Time series of measurements plus accumulated spin correlations.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Chain length (for normalization).
    pub l: usize,
    /// Inverse temperature copied at recording time (set by the engine's
    /// `run`; 0 until the first record).
    beta: f64,
    /// Energy per site, one entry per sweep.
    pub energy: Vec<f64>,
    /// `∂ε/∂β` per site.
    pub denergy: Vec<f64>,
    /// Total magnetization.
    pub magnetization: Vec<f64>,
    /// Staggered magnetization of row 0.
    pub staggered: Vec<f64>,
    /// Susceptibility samples `β M² / L` (use [`TimeSeries::susceptibility`]
    /// for the mean-subtracted estimate).
    pub chi: Vec<f64>,
    /// Accumulated `⟨Sᶻ_i Sᶻ_{i+r}⟩` sums, index r ∈ 0..=L/2.
    corr_sum: Vec<f64>,
    /// Number of correlation samples accumulated.
    corr_count: u64,
    /// Rows captured by the last successful snapshot: completed row
    /// chunks below this mark are immutable and checkpoint as clean.
    clean_rows: usize,
    /// Scratch of [`TimeSeries::record_correlations`], sized once and
    /// never checkpointed: the anti-parallel pair count per distance
    /// summed over the rows of a configuration.
    mismatches: Vec<u64>,
}

impl TimeSeries {
    /// Empty series for a chain of length `l`.
    pub fn new(l: usize) -> Self {
        Self::with_capacity(l, 0)
    }

    /// Empty series for a chain of length `l` with room for `sweeps`
    /// recorded rows, so a run of known length never grows its columns
    /// inside the measured loop.
    pub fn with_capacity(l: usize, sweeps: usize) -> Self {
        Self {
            l,
            beta: 0.0,
            energy: Vec::with_capacity(sweeps),
            denergy: Vec::with_capacity(sweeps),
            magnetization: Vec::with_capacity(sweeps),
            staggered: Vec::with_capacity(sweeps),
            chi: Vec::with_capacity(sweeps),
            corr_sum: vec![0.0; l / 2 + 1],
            corr_count: 0,
            clean_rows: 0,
            mismatches: vec![0; l / 2 + 1],
        }
    }

    /// Accumulate the equal-time spin correlation `⟨Sᶻ_i Sᶻ_{i+r}⟩`
    /// averaged over all sites and imaginary-time rows of the current
    /// configuration.
    ///
    /// Every term is ±¼, so with `mism(r)` the number of (site, row)
    /// pairs whose spin differs from the one `r` sites along its row,
    ///
    /// `Σ_t Σ_i Sᶻ_{i,t} Sᶻ_{i+r,t} = (L·rows − 2·mism(r)) / 4`,
    ///
    /// and each row contributes to `mism(r)` by one shift + XOR +
    /// popcount per word of the engine's packed row, which is stored
    /// doubled and counted in place ([`doubled_mismatches`]). The integer
    /// count is summed over the rows first and converted once;
    /// the result is exact in f64 (a small integer times ¼, as every
    /// partial sum of the term-by-term loop was, with the same `+0.0`
    /// when the terms cancel), so the accumulated sums are bit-identical
    /// to the scalar triple loop's. Cost: O(rows·L²/64) word operations
    /// instead of O(rows·L²) multiply-adds — 34 816 products become
    /// 64 × 17 shift-XOR-popcounts at L = 32, m = 32.
    #[qmc_hot::hot]
    pub fn record_correlations(&mut self, w: &Worldline) {
        let rows = w.rows();
        self.mismatches.fill(0);
        for t in 0..rows {
            let row = w.doubled_row(t);
            for (r, count) in self.mismatches.iter_mut().enumerate() {
                *count += doubled_mismatches(row, self.l, r) as u64;
            }
        }
        let pairs = self.l * rows;
        for (slot, &mism) in self.corr_sum.iter_mut().zip(&self.mismatches) {
            let acc = (pairs as i64 - 2 * mism as i64) as f64 * 0.25;
            *slot += acc / pairs as f64;
        }
        self.corr_count += 1;
    }

    /// Mean equal-time correlation function `C(r)`, r ∈ 0..=L/2.
    pub fn correlations(&self) -> Vec<f64> {
        if self.corr_count == 0 {
            return vec![0.0; self.corr_sum.len()];
        }
        self.corr_sum
            .iter()
            .map(|s| s / self.corr_count as f64)
            .collect()
    }

    /// Record one measurement (β is needed for χ samples; stored from the
    /// first caller context via [`TimeSeries::set_beta`]).
    pub fn record(&mut self, m: &Measurement) {
        self.energy.push(m.energy_per_site);
        self.denergy.push(m.denergy_per_site);
        self.magnetization.push(m.magnetization);
        self.staggered.push(m.staggered);
        self.chi
            .push(self.beta * m.magnetization * m.magnetization / self.l as f64);
    }

    /// Set β for χ normalization (the engine calls this).
    pub fn set_beta(&mut self, beta: f64) {
        self.beta = beta;
    }

    /// Number of recorded sweeps.
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// Mean energy per site.
    pub fn mean_energy(&self) -> f64 {
        mean(&self.energy)
    }

    /// Uniform susceptibility per site,
    /// `χ = β(⟨M²⟩ − ⟨M⟩²)/L`, with a jackknife error.
    pub fn susceptibility(&self) -> (f64, f64) {
        let m2: Vec<f64> = self.magnetization.iter().map(|m| m * m).collect();
        let beta = self.beta;
        let l = self.l as f64;
        let est = jackknife_pair(
            &m2,
            &self.magnetization,
            32.min(self.len() / 2).max(2),
            |a, b| beta * (a - b * b) / l,
        );
        (est.value, est.error)
    }

    /// Specific heat per site:
    /// `C = β²[⟨ε²⟩ − ⟨ε⟩² − ⟨∂ε/∂β⟩]·L` … per site this is
    /// `β² L (⟨e²⟩ − ⟨e⟩²) − β²⟨∂e/∂β⟩` with `e = ε/L`.
    pub fn specific_heat(&self) -> (f64, f64) {
        let beta = self.beta;
        let l = self.l as f64;
        let e2: Vec<f64> = self.energy.iter().map(|e| e * e).collect();
        let fluct = jackknife_pair(&e2, &self.energy, 32.min(self.len() / 2).max(2), |a, b| {
            beta * beta * l * (a - b * b)
        });
        let de_mean = mean(&self.denergy);
        (fluct.value - beta * beta * de_mean, fluct.error)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

impl TimeSeries {
    /// The columns, in the order both checkpoint layouts store them.
    fn columns(&self) -> [&[f64]; 5] {
        [
            &self.energy,
            &self.denergy,
            &self.magnetization,
            &self.staggered,
            &self.chi,
        ]
    }

    fn columns_mut(&mut self) -> [&mut Vec<f64>; 5] {
        [
            &mut self.energy,
            &mut self.denergy,
            &mut self.magnetization,
            &mut self.staggered,
            &mut self.chi,
        ]
    }

    /// Refuse head fields of either layout that belong to another chain
    /// length.
    fn check_head(&self, l: usize, corr_sum: &[f64]) -> Result<(), qmc_ckpt::CkptError> {
        if l != self.l {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "worldline series is for l={}, checkpoint has l={l}",
                self.l
            )));
        }
        if corr_sum.len() != self.corr_sum.len() {
            return Err(qmc_ckpt::CkptError::corrupt(
                "worldline series correlation table has the wrong length",
            ));
        }
        Ok(())
    }
}

impl qmc_ckpt::Checkpoint for TimeSeries {
    fn kind(&self) -> &'static str {
        "series.worldline"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u64(self.l as u64);
        enc.f64(self.beta);
        for col in self.columns() {
            enc.f64s(col);
        }
        enc.f64s(&self.corr_sum);
        enc.u64(self.corr_count);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let l = dec.u64()? as usize;
        let beta = dec.f64()?;
        let cols = [
            dec.f64s()?,
            dec.f64s()?,
            dec.f64s()?,
            dec.f64s()?,
            dec.f64s()?,
        ];
        let corr_sum = dec.f64s()?;
        let corr_count = dec.u64()?;
        self.check_head(l, &corr_sum)?;
        qmc_ckpt::chunk::check_columns("worldline", &cols)?;
        self.beta = beta;
        for (col, restored) in self.columns_mut().into_iter().zip(cols) {
            *col = restored;
        }
        self.corr_sum = corr_sum;
        self.corr_count = corr_count;
        self.clean_rows = 0;
        Ok(())
    }

    fn dirty_sections(&self) -> qmc_ckpt::DirtySections {
        // The head also carries β and the correlation accumulators, which
        // change every sweep.
        qmc_ckpt::chunk::sections(self.len(), self.clean_rows)
    }

    fn save_section(&self, name: &str, enc: &mut qmc_ckpt::Encoder) {
        match qmc_ckpt::chunk::parse(name) {
            Some(k) => qmc_ckpt::chunk::save_rows(k, &self.columns(), enc),
            None if name == "head" => {
                enc.u64(self.l as u64);
                enc.f64(self.beta);
                enc.f64s(&self.corr_sum);
                enc.u64(self.corr_count);
                enc.u64(self.len() as u64);
            }
            None => panic!("series.worldline has no checkpoint section {name:?}"),
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
                chunk::load_rows("worldline", k, &mut self.columns_mut(), dec)?;
                self.clean_rows = self.clean_rows.min(k * chunk::ROWS);
                Ok(())
            }
            None if name == "head" => {
                let l = dec.u64()? as usize;
                let beta = dec.f64()?;
                let corr_sum = dec.f64s()?;
                let corr_count = dec.u64()?;
                self.check_head(l, &corr_sum)?;
                chunk::check_rows("worldline", dec.u64()? as usize, self.len())?;
                self.beta = beta;
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
        self.clean_rows = self.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorldlineParams;
    use crate::weights::{classify, PlaqWeights};
    use qmc_rng::Xoshiro256StarStar;
    use qmc_stats::BinningAnalysis;

    /// Brute-force reference: enumerate every valid zero-seam-crossing
    /// configuration of a small space-time lattice and compute the exact
    /// *discrete-Trotter* expectation values the sampler should reproduce
    /// (this isolates sampler correctness from Trotter error).
    fn enumerate_reference(p: WorldlineParams) -> (f64, f64) {
        let rows = 2 * p.m;
        let l = p.l;
        let wt = PlaqWeights::new(p.jx, p.jz, p.dtau());
        let states = 1usize << l;
        let mut z = 0.0;
        let mut e_acc = 0.0;
        let mut chi_acc = 0.0;

        // Iterate over all row-state tuples via an odometer.
        let mut cfg = vec![0usize; rows];
        loop {
            // weight & validity
            let spin = |row: usize, i: usize| cfg[row] >> i & 1 == 1;
            let mut w = 1.0;
            let mut eps = 0.0;
            let mut seam = 0i64;
            'weight: {
                for t in 0..rows {
                    let tu = (t + 1) % rows;
                    let start = t % 2;
                    for i in (start..l).step_by(2) {
                        let j = (i + 1) % l;
                        let class = classify((spin(t, i), spin(t, j)), (spin(tu, i), spin(tu, j)));
                        let cw = wt.weight(class);
                        if cw <= 0.0 {
                            w = 0.0;
                            break 'weight;
                        }
                        w *= cw;
                        eps += wt.energy(class);
                        if i == l - 1 && class == crate::weights::PlaqClass::Flip {
                            seam += if spin(t, i) { 1 } else { -1 };
                        }
                    }
                }
            }
            if w > 0.0 && seam == 0 {
                z += w;
                e_acc += w * eps / p.m as f64 / l as f64;
                let m: f64 = (0..l).map(|i| if spin(0, i) { 0.5 } else { -0.5 }).sum();
                chi_acc += w * p.beta * m * m / l as f64;
            }
            // odometer increment
            let mut r = 0;
            loop {
                cfg[r] += 1;
                if cfg[r] < states {
                    break;
                }
                cfg[r] = 0;
                r += 1;
                if r == rows {
                    return (e_acc / z, chi_acc / z);
                }
            }
        }
    }

    #[test]
    fn sampler_reproduces_exact_discrete_trotter_values() {
        // L=4, m=2 (4 rows of 16 states → 65 536 configs): the QMC answer
        // must match the brute-force enumeration of its *own* discrete
        // distribution, winding sector included.
        let p = WorldlineParams {
            l: 4,
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 2,
        };
        let (e_exact, chi_exact) = enumerate_reference(p);
        let mut w = crate::engine::Worldline::new(p);
        let mut rng = Xoshiro256StarStar::new(314);
        let series = w.run(&mut rng, 2_000, 60_000);
        let be = BinningAnalysis::new(&series.energy, 16);
        assert!(
            (be.mean - e_exact).abs() < 5.0 * be.error().max(5e-4),
            "E {} ± {} vs exact discrete {}",
            be.mean,
            be.error(),
            e_exact
        );
        let bchi = BinningAnalysis::new(&series.chi, 16);
        assert!(
            (bchi.mean - chi_exact).abs() < 5.0 * bchi.error().max(5e-4),
            "χ {} ± {} vs exact discrete {}",
            bchi.mean,
            bchi.error(),
            chi_exact
        );
    }

    #[test]
    fn sampler_exactness_xy_model() {
        let p = WorldlineParams {
            l: 4,
            jx: 1.0,
            jz: 0.0,
            beta: 0.8,
            m: 2,
        };
        let (e_exact, _) = enumerate_reference(p);
        let mut w = crate::engine::Worldline::new(p);
        let mut rng = Xoshiro256StarStar::new(2718);
        let series = w.run(&mut rng, 2_000, 60_000);
        let be = BinningAnalysis::new(&series.energy, 16);
        assert!(
            (be.mean - e_exact).abs() < 5.0 * be.error().max(5e-4),
            "E {} ± {} vs exact discrete {}",
            be.mean,
            be.error(),
            e_exact
        );
    }

    #[test]
    fn ferromagnetic_ising_limit_ground_state_energy() {
        // jx→0 (tiny), jz=−1 (FM), low T: world lines freeze into the
        // aligned state; E/site → jz/4 = −0.25.
        let p = WorldlineParams {
            l: 6,
            jx: 1e-6,
            jz: -1.0,
            beta: 8.0,
            m: 16,
        };
        let mut w = crate::engine::Worldline::new(p);
        let mut rng = Xoshiro256StarStar::new(10);
        let series = w.run(&mut rng, 3000, 3000);
        assert!(
            (series.mean_energy() + 0.25).abs() < 0.02,
            "E = {}",
            series.mean_energy()
        );
    }

    /// The term-by-term triple loop `record_correlations` ran before the
    /// packed kernel: the reference its sums must equal bit for bit.
    fn accumulate_correlations_scalar(w: &Worldline, corr_sum: &mut [f64]) {
        let l = w.params().l;
        let rows = w.rows();
        for (r, slot) in corr_sum.iter_mut().enumerate() {
            let mut acc = 0.0;
            for t in 0..rows {
                for i in 0..l {
                    let a = if w.spin(i, t) { 0.5 } else { -0.5 };
                    let b = if w.spin((i + r) % l, t) { 0.5 } else { -0.5 };
                    acc += a * b;
                }
            }
            *slot += acc / (l * rows) as f64;
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_correlations_equal_scalar_loop_bit_for_bit() {
        for (k, l) in [4, 8, 32, 66].into_iter().enumerate() {
            let mut w = Worldline::new(WorldlineParams {
                l,
                jx: 1.0,
                jz: 1.0,
                beta: 1.0,
                m: 8,
            });
            let mut rng = Xoshiro256StarStar::new(70 + k as u64);
            let mut series = TimeSeries::with_capacity(l, 40);
            let mut oracle = vec![0.0; l / 2 + 1];
            // The Néel start is the first sample: C(r) = ±¼ exactly.
            for sweep in 0..40 {
                series.record_correlations(&w);
                accumulate_correlations_scalar(&w, &mut oracle);
                assert_eq!(
                    bits(&series.corr_sum),
                    bits(&oracle),
                    "l = {l}, sweep {sweep}"
                );
                w.sweep(&mut rng);
            }
            assert_eq!(series.corr_count, 40);
        }
    }

    #[test]
    fn cancelling_correlation_terms_record_positive_zero() {
        // Straight world lines ↑↑↓↓ in every row: two parallel and two
        // anti-parallel pairs at r = 1, so the sum is exactly zero — and
        // must be the scalar loop's +0.0.
        let mut w = Worldline::new(WorldlineParams {
            l: 4,
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 2,
        });
        w.import_spins(&[1, 1, 0, 0].repeat(w.rows()));
        let mut series = TimeSeries::new(4);
        series.record_correlations(&w);
        let mut oracle = vec![0.0; 3];
        accumulate_correlations_scalar(&w, &mut oracle);
        assert_eq!(bits(&series.corr_sum), bits(&oracle));
        assert_eq!(
            bits(&series.corr_sum),
            bits(&[0.25, 0.0, -0.25]),
            "C(1) must be +0.0, not -0.0"
        );
    }

    #[test]
    fn timeseries_bookkeeping() {
        let mut ts = TimeSeries::new(4);
        assert!(ts.is_empty());
        ts.set_beta(2.0);
        ts.record(&Measurement {
            energy_per_site: -0.3,
            denergy_per_site: 0.0,
            magnetization: 1.0,
            staggered: 0.0,
        });
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.energy[0], -0.3);
        // χ sample = β M²/L = 2·1/4
        assert!((ts.chi[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn susceptibility_subtracts_mean_magnetization() {
        let mut ts = TimeSeries::new(2);
        ts.set_beta(1.0);
        // Alternate M = ±1: ⟨M⟩ = 0, ⟨M²⟩ = 1 → χ = 1/2.
        for k in 0..64 {
            ts.record(&Measurement {
                energy_per_site: 0.0,
                denergy_per_site: 0.0,
                magnetization: if k % 2 == 0 { 1.0 } else { -1.0 },
                staggered: 0.0,
            });
        }
        let (chi, _) = ts.susceptibility();
        assert!((chi - 0.5).abs() < 1e-12, "chi = {chi}");
    }
}
