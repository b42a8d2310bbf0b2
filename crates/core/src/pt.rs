//! Replica-exchange Monte Carlo (parallel tempering) over the world-line
//! engine.
//!
//! `I` replicas at inverse temperatures `β_1 < … < β_I` (all sharing the
//! same `l` and Trotter number `m`) run independent world-line updates;
//! periodically, neighbouring pairs propose to *swap configurations* with
//!
//! `P = min(1, exp[lwₖ(X_{k+1}) + lw_{k+1}(Xₖ) − lwₖ(Xₖ) − lw_{k+1}(X_{k+1})])`.
//!
//! Swapping configurations (rather than temperatures) keeps each
//! replica's measurement temperature fixed — convenient for both the
//! serial ladder and the one-replica-per-rank parallel driver, where rank
//! ↔ β never changes and only configuration payloads travel.

use qmc_comm::{wire, Communicator, ReduceOp};
use qmc_rng::{Rng64, SplitMix64};
use qmc_worldline::weights::PlaqWeights;
use qmc_worldline::{Worldline, WorldlineParams};

/// Exchange statistics of a tempering run.
#[derive(Debug, Clone, Default)]
pub struct PtStats {
    /// Per-pair accepted swaps (pair k = temperatures k, k+1).
    pub accepted: Vec<u64>,
    /// Per-pair attempted swaps.
    pub attempted: Vec<u64>,
    /// Completed walker round trips (slot 0 → top slot → slot 0).
    pub round_trips: u64,
}

impl PtStats {
    /// Acceptance rate of pair `k` (0 when never attempted).
    pub fn rate(&self, k: usize) -> f64 {
        if self.attempted[k] == 0 {
            0.0
        } else {
            self.accepted[k] as f64 / self.attempted[k] as f64
        }
    }
}

/// Serial parallel-tempering ladder.
pub struct PtLadder {
    replicas: Vec<Worldline>,
    betas: Vec<f64>,
    stats: PtStats,
    /// Walker identity currently occupying each slot.
    walker_at: Vec<usize>,
    /// Last extreme slot each walker touched: 0 = bottom, 1 = top after
    /// the bottom, 2 = no bottom yet. A trip bottom→top→bottom increments
    /// `round_trips`; a walker seen at the top before the bottom stays at
    /// 2, so its first top→bottom walk is not counted.
    walker_phase: Vec<u8>,
}

impl PtLadder {
    /// Build a ladder; `betas` must be strictly increasing.
    pub fn new(l: usize, jx: f64, jz: f64, m: usize, betas: Vec<f64>) -> Self {
        assert!(betas.len() >= 2, "need at least two temperatures");
        assert!(
            betas.windows(2).all(|w| w[0] < w[1]),
            "β ladder must be strictly increasing"
        );
        let replicas = betas
            .iter()
            .map(|&beta| Worldline::new(WorldlineParams { l, jx, jz, beta, m }))
            .collect();
        let n = betas.len();
        Self {
            replicas,
            stats: PtStats {
                accepted: vec![0; n - 1],
                attempted: vec![0; n - 1],
                round_trips: 0,
            },
            walker_at: (0..n).collect(),
            walker_phase: vec![2; n],
            betas,
        }
    }

    /// The temperature ladder.
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// Immutable access to replica `k` (slot order = β order).
    pub fn replica(&self, k: usize) -> &Worldline {
        &self.replicas[k]
    }

    /// One update sweep on every replica.
    pub fn sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("pt.sweep");
        for r in &mut self.replicas {
            r.sweep(rng);
        }
    }

    /// One exchange phase: pairs `(k, k+1)` with `k ≡ phase (mod 2)`.
    pub fn exchange<R: Rng64>(&mut self, rng: &mut R, phase: usize) {
        let _span = qmc_obs::span("pt.exchange");
        let before: u64 = self.stats.accepted.iter().sum();
        let before_att: u64 = self.stats.attempted.iter().sum();
        let n = self.replicas.len();
        let mut k = phase % 2;
        while k + 1 < n {
            self.stats.attempted[k] += 1;
            let (lo, hi) = self.replicas.split_at_mut(k + 1);
            let a = &mut lo[k];
            let b = &mut hi[0];
            let (a_own, a_cross) = a.log_weight_pair(b.weights());
            let (b_own, b_cross) = b.log_weight_pair(a.weights());
            let log_ratio = a_cross + b_cross - a_own - b_own;
            if rng.metropolis(log_ratio.exp()) {
                self.stats.accepted[k] += 1;
                a.swap_spins(b);
                self.walker_at.swap(k, k + 1);
            }
            k += 2;
        }
        self.update_round_trips();
        if qmc_obs::metrics_enabled() {
            let acc: u64 = self.stats.accepted.iter().sum();
            let att: u64 = self.stats.attempted.iter().sum();
            qmc_obs::counter_add("pt.swaps_accepted", acc - before);
            qmc_obs::counter_add("pt.swaps_attempted", att - before_att);
        }
    }

    fn update_round_trips(&mut self) {
        let top = self.replicas.len() - 1;
        let bottom_walker = self.walker_at[0];
        let top_walker = self.walker_at[top];
        if self.walker_phase[top_walker] == 0 {
            // was last at the bottom, has now reached the top
            self.walker_phase[top_walker] = 1;
        }
        if self.walker_phase[bottom_walker] == 1 {
            self.stats.round_trips += 1;
        }
        self.walker_phase[bottom_walker] = 0;
    }

    /// Run with `exchange_every` sweeps between exchange phases; returns
    /// per-slot energy series (per site).
    pub fn run<R: Rng64>(
        &mut self,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        exchange_every: usize,
    ) -> Vec<Vec<f64>> {
        assert!(exchange_every >= 1);
        let mut phase = 0;
        for s in 0..therm {
            self.sweep(rng);
            if s % exchange_every == 0 {
                self.exchange(rng, phase);
                phase ^= 1;
            }
        }
        let mut energies: Vec<Vec<f64>> = vec![Vec::with_capacity(sweeps); self.replicas.len()];
        for s in 0..sweeps {
            self.sweep(rng);
            if s % exchange_every == 0 {
                self.exchange(rng, phase);
                phase ^= 1;
            }
            for (k, r) in self.replicas.iter().enumerate() {
                let e = qmc_worldline::estimators::measure(r).energy_per_site;
                if k == 0 {
                    qmc_obs::health_record("energy", e);
                }
                energies[k].push(e);
            }
        }
        energies
    }

    /// Exchange statistics.
    pub fn stats(&self) -> &PtStats {
        &self.stats
    }
}

/// Configuration of a distributed parallel-tempering run.
#[derive(Debug, Clone)]
pub struct PtConfig {
    /// Chain length.
    pub l: usize,
    /// Transverse exchange.
    pub jx: f64,
    /// Longitudinal exchange.
    pub jz: f64,
    /// Trotter number (shared by all replicas).
    pub m: usize,
    /// Strictly increasing temperature ladder; one rank per entry.
    pub betas: Vec<f64>,
    /// Thermalization sweeps.
    pub therm: usize,
    /// Measured sweeps.
    pub sweeps: usize,
    /// Sweeps between exchange phases.
    pub exchange_every: usize,
    /// Common-random-number seed for swap decisions (must match on every
    /// rank; independent of the per-rank sampling RNG).
    pub seed: u64,
}

/// Distributed parallel tempering: rank `k` owns the replica at
/// `betas[k]` (one rank per temperature, `comm.size() == betas.len()`).
///
/// Swap decisions use common random numbers derived from
/// `(seed, step, pair)`, so both partners reach the same verdict without
/// an extra message; accepted swaps exchange configuration payloads.
/// Returns `(my_energy_series, pair_acceptance_rates)`; the acceptance
/// vector is allreduced so every rank sees all pairs.
///
/// This is [`run_pt_parallel_ckpt`] with checkpointing off and no sweep
/// hook — there is one loop, not a plain copy and a checkpointed copy.
pub fn run_pt_parallel<C: Communicator, R: Rng64 + qmc_ckpt::Checkpoint>(
    comm: &mut C,
    cfg: &PtConfig,
    rng: &mut R,
) -> (Vec<f64>, Vec<f64>) {
    run_pt_parallel_ckpt(comm, cfg, rng, None, |_, _| {})
}

impl qmc_ckpt::Checkpoint for PtLadder {
    fn kind(&self) -> &'static str {
        "pt.ladder"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        enc.u64(self.replicas.len() as u64);
        for r in &self.replicas {
            qmc_ckpt::write_state(enc, r);
        }
        enc.u64s(&self.stats.accepted);
        enc.u64s(&self.stats.attempted);
        enc.u64(self.stats.round_trips);
        let walkers: Vec<u64> = self.walker_at.iter().map(|&w| w as u64).collect();
        enc.u64s(&walkers);
        enc.bytes(&self.walker_phase);
    }

    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        let n = dec.u64()? as usize;
        if n != self.replicas.len() {
            return Err(qmc_ckpt::CkptError::corrupt(format!(
                "pt ladder has {} replicas, checkpoint has {n}",
                self.replicas.len()
            )));
        }
        for r in &mut self.replicas {
            qmc_ckpt::read_state(dec, r)?;
        }
        let accepted = dec.u64s()?;
        let attempted = dec.u64s()?;
        if accepted.len() != n - 1 || attempted.len() != n - 1 {
            return Err(qmc_ckpt::CkptError::corrupt(
                "pt ladder pair statistics have the wrong length",
            ));
        }
        self.stats.accepted = accepted;
        self.stats.attempted = attempted;
        self.stats.round_trips = dec.u64()?;
        let walkers = dec.u64s()?;
        let phases = dec.bytes()?;
        if walkers.len() != n || phases.len() != n {
            return Err(qmc_ckpt::CkptError::corrupt(
                "pt ladder walker bookkeeping has the wrong length",
            ));
        }
        if walkers.iter().any(|&w| w as usize >= n) || phases.iter().any(|&p| p > 2) {
            return Err(qmc_ckpt::CkptError::corrupt(
                "pt ladder walker bookkeeping out of range",
            ));
        }
        self.walker_at = walkers.iter().map(|&w| w as usize).collect();
        self.walker_phase = phases.to_vec();
        Ok(())
    }
}

/// Checkpoint policy for [`run_pt_parallel_ckpt`]: the coordinated-run
/// façade over [`qmc_ckpt::Cadence`] (`every`, `full_every`) plus the
/// store, resume, collective-drain and elastic-remap knobs.
pub struct PtCheckpointing<'a> {
    /// Generation store; every rank must name the same directory (the
    /// writes themselves are coordinated through rank 0).
    pub store: &'a qmc_ckpt::CkptStore,
    /// Write a coordinated checkpoint every `every` sweeps (before the
    /// sweep runs, so generation `g` is the state entering sweep `g`).
    pub every: usize,
    /// Write every `full_every`-th generation as a full snapshot; the
    /// ones in between are deltas against the last full generation.
    /// `0` disables deltas — every generation is a full snapshot.
    pub full_every: usize,
    /// Resume from the newest valid generation before sweeping.
    pub resume: bool,
    /// Graceful-drain flag. Must be `Some` on every rank or `None` on
    /// every rank (the drain decision is a collective): rank 0 reads the
    /// flag at each sweep boundary and broadcasts the verdict, so all
    /// ranks write one final coordinated full checkpoint and exit
    /// together. Resuming afterwards continues the identical trajectory
    /// bit for bit; checking only rank 0's flag keeps the ranks from
    /// desynchronizing on a racy read.
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
    /// β ladder of the run that wrote the checkpoints this run resumes
    /// from, when the ladder was resized to fit a changed world
    /// (elastic shrink or re-grow). `None` — the common case — means
    /// the ladder never changed and a world-size mismatch degrades to a
    /// fresh start as before. With `Some(old_betas)`, a mismatched
    /// checkpoint is *remapped*: each new rank is rehydrated from the
    /// old rank that simulated the same β (bit equality), βs with no
    /// old counterpart join fresh at the resumed sweep boundary, and
    /// pair statistics migrate only where both ends of the pair kept
    /// their βs (all other pairs restart at zero attempts).
    pub elastic_from: Option<&'a [f64]>,
}

/// The distributed parallel-tempering loop, with optional coordinated
/// checkpoint/restore and a per-sweep hook.
///
/// Checkpointing draws no random numbers and exchanges no user-tag
/// messages, so every random draw on every rank is independent of `ck`.
/// Checkpoints are written *before* the sweep whose index they carry, so
/// resuming generation `g` replays sweeps `g..` on the same trajectory.
/// The cadence and its full-snapshot rule, the `meta` header and the
/// layout switch come from the helpers the serial loop
/// [`qmc_ckpt::drive`] is built from; only the collective drain verdict
/// and the coordinated write — each rank framing its own sections, the
/// delta decision derived on every rank from its
/// [`qmc_ckpt::coord::DeltaBase`] — are this loop's own. `on_sweep` runs
/// after the checkpoint write at the top of every iteration: it is the
/// injection point for [`qmc_comm::FaultyComm::tick_sweep`]-style rank
/// kills.
///
/// Panics on a zero `ck.every` ([`qmc_ckpt::CkptError::ZeroCadence`]) and
/// on a newest generation that does not restore.
pub fn run_pt_parallel_ckpt<C, R, F>(
    comm: &mut C,
    cfg: &PtConfig,
    rng: &mut R,
    ck: Option<&PtCheckpointing<'_>>,
    mut on_sweep: F,
) -> (Vec<f64>, Vec<f64>)
where
    C: Communicator,
    R: Rng64 + qmc_ckpt::Checkpoint,
    F: FnMut(&mut C, usize),
{
    let PtConfig {
        l,
        jx,
        jz,
        m,
        ref betas,
        therm,
        sweeps,
        exchange_every,
        seed,
    } = *cfg;
    assert_eq!(
        comm.size(),
        betas.len(),
        "one rank per temperature required"
    );
    assert!(betas.windows(2).all(|w| w[0] < w[1]));
    let me = comm.rank();
    let mut replica = Worldline::new(WorldlineParams {
        l,
        jx,
        jz,
        beta: betas[me],
        m,
    });
    let neighbor_weights: Vec<PlaqWeights> = betas
        .iter()
        .map(|&b| PlaqWeights::new(jx, jz, b / m as f64))
        .collect();

    let mut accepted = vec![0.0f64; betas.len() - 1];
    let mut attempted = vec![0.0f64; betas.len() - 1];
    let mut energies = Vec::with_capacity(sweeps);
    let mut step = 0u64;
    let mut start = 0usize;

    // The frozen façade converts into the one shared cadence rule; "every
    // 0 sweeps" is refused here instead of dividing by zero below.
    let ck = ck.map(|ck| {
        let cadence = qmc_ckpt::Cadence::new(ck.every, ck.full_every)
            .unwrap_or_else(|e| panic!("rank {me}: {e}"));
        (ck, cadence)
    });

    // What every rank knows of the store's delta base; the commits and
    // the resume below move it alike on every rank.
    let mut base = qmc_ckpt::coord::DeltaBase::default();
    if let Some((ck, _)) = ck {
        if ck.resume {
            use qmc_ckpt::coord::{DeltaBase, ElasticRestore};
            // A checkpoint from another world size degrades to a fresh
            // start on every rank — unless it is from the declared
            // pre-resize ladder, which is remapped by β (bit equality).
            let restored =
                qmc_ckpt::coord::restore_coordinated_remapped(comm, ck.store, |old_world| {
                    let old = ck.elastic_from.filter(|old| old.len() == old_world)?;
                    let same = |b: &f64| old.iter().position(|ob| ob.to_bits() == b.to_bits());
                    Some(betas.iter().map(same).collect())
                });
            base = DeltaBase::restored(&restored);
            match restored {
                ElasticRestore::Fresh => {}
                ElasticRestore::Joined(generation) => {
                    // A re-grown rank has no old state: it joins the
                    // resumed world at the checkpoint boundary with a
                    // fresh replica/rng and empty accumulators. The
                    // exchange-step counter is reconstructed from the
                    // sweep index (one phase per `exchange_every`
                    // boundary in [0, generation)), so its parity stays
                    // in lockstep with the survivors' restored counters.
                    start = generation as usize;
                    step = (generation).div_ceil(exchange_every as u64);
                }
                ElasticRestore::Resumed(generation, file)
                | ElasticRestore::Remapped(generation, file) => {
                    let mut step0 = [0u64];
                    let restored = (|| {
                        let s0 = qmc_ckpt::read_meta(&file, generation, &mut step0)?;
                        qmc_ckpt::restore_sections(&file, "replica", &mut replica)?;
                        qmc_ckpt::restore_sections(&file, "rng", rng)?;
                        let mut dec = qmc_ckpt::Decoder::new(file.require("stats")?);
                        Ok::<_, qmc_ckpt::CkptError>((s0, dec.f64s()?, dec.f64s()?, dec.f64s()?))
                    })();
                    let (s0, acc, att, series) =
                        restored.unwrap_or_else(|e| panic!("rank {me}: resume failed: {e}"));
                    energies = series;
                    if acc.len() == betas.len() - 1 {
                        accepted = acc;
                        attempted = att;
                    } else if let Some(old_betas) = ck.elastic_from {
                        // Checkpoint from the pre-resize ladder: migrate
                        // pair accumulators where both ends of the pair
                        // survived adjacently; every other pair is new
                        // and restarts at zero attempts.
                        for k in 0..betas.len() - 1 {
                            let p = old_betas.windows(2).position(|w| {
                                w[0].to_bits() == betas[k].to_bits()
                                    && w[1].to_bits() == betas[k + 1].to_bits()
                            });
                            if let Some(p) = p {
                                accepted[k] = acc.get(p).copied().unwrap_or(0.0);
                                attempted[k] = att.get(p).copied().unwrap_or(0.0);
                            }
                        }
                    } else {
                        panic!(
                            "rank {me}: resume failed: pair statistics have length {} for a \
                             {}-rung ladder",
                            acc.len(),
                            betas.len()
                        );
                    }
                    step = step0[0];
                    start = s0;
                }
            }
        }
    }

    let do_phase = |replica: &mut Worldline,
                    comm: &mut C,
                    step: u64,
                    accepted: &mut [f64],
                    attempted: &mut [f64]| {
        let _span = qmc_obs::span("pt.exchange");
        let phase = (step % 2) as usize;
        // The pair for me: partner above if my index parity == phase,
        // else partner below (if any).
        let pair_k = if me % 2 == phase {
            me // pair (me, me+1)
        } else {
            me.wrapping_sub(1) // pair (me−1, me)
        };
        if pair_k == usize::MAX || pair_k + 1 >= betas.len() {
            return;
        }
        let partner = if pair_k == me { me + 1 } else { me - 1 };
        // Exchange the two cross log-weights.
        let (lw_own, lw_cross) = replica.log_weight_pair(&neighbor_weights[partner]);
        let payload = wire::f64s_to_bytes(&[lw_own, lw_cross]);
        let other = wire::bytes_to_f64s(&comm.sendrecv_bytes(partner, 7, &payload, partner, 7));
        let (lw_partner_own, lw_partner_cross) = (other[0], other[1]);
        let log_ratio = lw_cross + lw_partner_cross - lw_own - lw_partner_own;
        // Common random number: both sides derive the same coin.
        let coin = SplitMix64::new(
            seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pair_k as u64) << 32,
        )
        .next_f64();
        if me == pair_k {
            attempted[pair_k] += 1.0;
            qmc_obs::counter_add("pt.swaps_attempted", 1);
        }
        if coin < log_ratio.exp() {
            if me == pair_k {
                accepted[pair_k] += 1.0;
                qmc_obs::counter_add("pt.swaps_accepted", 1);
            }
            let mine = replica.export_spins();
            let theirs = comm.sendrecv_bytes(partner, 8, &mine, partner, 8);
            replica.import_spins(&theirs);
        }
    };

    // A run-level span bounds the whole loop so per-rank attribution
    // (compute = span time minus in-span comm) covers loop bookkeeping
    // and the gaps between per-step guards; `pt.step` nests inside it
    // for trace granularity.
    let run_span = qmc_obs::span("pt.run");
    let stop = ck.and_then(|(c, _)| c.stop);
    for s in start..therm + sweeps {
        let _step_span = qmc_obs::span("pt.step");
        // Drain check (collective): rank 0 reads the stop flag, every
        // rank hears the same verdict, so the final coordinated write
        // below sees all ranks or none. No RNG draws are involved, so a
        // run with the flag never raised stays bit-identical.
        let draining = stop.is_some() && {
            let mine = if me == 0 {
                let raised = stop.is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst));
                vec![raised as u8]
            } else {
                Vec::new()
            };
            comm.broadcast_bytes(0, mine)[0] != 0
        };
        if let Some((ck, cadence)) = ck {
            if let Some(want_full) = cadence.due(s, draining) {
                let (_, committed) = qmc_ckpt::coord::write_coordinated_sections(
                    comm,
                    ck.store,
                    &mut base,
                    s as u64,
                    want_full,
                    |sections| {
                        sections.payload("meta", |enc| qmc_ckpt::write_meta(enc, s, &[step]));
                        sections.state("replica", &replica);
                        sections.state("rng", rng);
                        sections.payload("stats", |st| {
                            st.f64s(&accepted);
                            st.f64s(&attempted);
                            st.f64s(&energies);
                        });
                    },
                );
                // Every rank saw the same commit ack, so either all mark
                // their state clean or none do — a rank that wrongly
                // believed "clean" would ship stale base references into
                // the next delta.
                if committed {
                    qmc_ckpt::Checkpoint::mark_clean(&mut replica);
                    qmc_ckpt::Checkpoint::mark_clean(rng);
                }
            }
        }
        if draining {
            // Checkpoint written; exit before the sweep it names runs.
            // The partial energy series (`energies.len() < sweeps`) is
            // how callers recognize a drained run.
            break;
        }
        on_sweep(comm, s);
        replica.sweep(rng);
        if s % exchange_every == 0 {
            do_phase(&mut replica, comm, step, &mut accepted, &mut attempted);
            step += 1;
        }
        if s >= therm {
            let e = qmc_worldline::estimators::measure(&replica).energy_per_site;
            qmc_obs::health_record("energy", e);
            energies.push(e);
        }
    }
    drop(run_span);

    let acc = comm.allreduce_f64(&accepted, ReduceOp::Sum);
    let att = comm.allreduce_f64(&attempted, ReduceOp::Sum);
    let rates = acc
        .iter()
        .zip(&att)
        .map(|(a, t)| if *t > 0.0 { a / t } else { 0.0 })
        .collect();
    (energies, rates)
}

/// Build a geometric β ladder from `beta_min` to `beta_max` with `n`
/// rungs — the textbook starting point for reasonable exchange rates.
pub fn geometric_ladder(beta_min: f64, beta_max: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && beta_min > 0.0 && beta_max > beta_min);
    let ratio = (beta_max / beta_min).powf(1.0 / (n - 1) as f64);
    (0..n).map(|k| beta_min * ratio.powi(k as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_ed::xxz::{full_spectrum, XxzParams};
    use qmc_lattice::Chain;
    use qmc_rng::Xoshiro256StarStar;
    use qmc_stats::BinningAnalysis;

    #[test]
    fn geometric_ladder_properties() {
        let l = geometric_ladder(0.5, 4.0, 4);
        assert_eq!(l.len(), 4);
        assert!((l[0] - 0.5).abs() < 1e-12);
        assert!((l[3] - 4.0).abs() < 1e-9);
        let r1 = l[1] / l[0];
        let r2 = l[2] / l[1];
        assert!((r1 - r2).abs() < 1e-9, "ratios must be constant");
    }

    #[test]
    fn ladder_energies_match_ed_at_every_temperature() {
        let betas = vec![0.5, 0.75, 1.0, 1.5];
        let mut ladder = PtLadder::new(8, 1.0, 1.0, 16, betas.clone());
        let mut rng = Xoshiro256StarStar::new(3);
        let energies = ladder.run(&mut rng, 1500, 12_000, 2);

        let lat = Chain::new(8);
        let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));
        for (k, beta) in betas.iter().enumerate() {
            let exact = spec.energy(*beta) / 8.0;
            let b = BinningAnalysis::new(&energies[k], 16);
            let trotter = (beta / 16.0).powi(2) * 2.0;
            assert!(
                (b.mean - exact).abs() < 5.0 * b.error().max(3e-4) + trotter,
                "β={beta}: {} ± {} vs {exact}",
                b.mean,
                b.error()
            );
        }
    }

    #[test]
    fn exchanges_are_accepted_at_reasonable_rates() {
        let mut ladder = PtLadder::new(8, 1.0, 1.0, 16, geometric_ladder(0.5, 2.0, 4));
        let mut rng = Xoshiro256StarStar::new(4);
        ladder.run(&mut rng, 500, 5000, 2);
        for k in 0..3 {
            let rate = ladder.stats().rate(k);
            assert!(
                rate > 0.05 && rate < 1.0,
                "pair {k}: acceptance {rate} out of range"
            );
        }
    }

    #[test]
    fn round_trips_occur() {
        let mut ladder = PtLadder::new(4, 1.0, 1.0, 8, geometric_ladder(0.4, 1.2, 3));
        let mut rng = Xoshiro256StarStar::new(5);
        ladder.run(&mut rng, 500, 20_000, 1);
        assert!(
            ladder.stats().round_trips > 0,
            "no walker completed a round trip"
        );
    }

    /// Serves 0 for every draw: a Metropolis test with a positive ratio
    /// always accepts.
    struct AlwaysAccept;

    impl Rng64 for AlwaysAccept {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    #[test]
    fn a_one_way_trip_is_not_a_round_trip() {
        let mut ladder = PtLadder::new(4, 1.0, 1.0, 2, vec![0.5, 1.0]);
        // Phase 1 has no pair on two rungs: it only sees walker 0 at the
        // bottom and walker 1 at the top.
        ladder.exchange(&mut AlwaysAccept, 1);
        ladder.exchange(&mut AlwaysAccept, 0);
        assert_eq!(ladder.stats().accepted, [1]);
        // Walker 1 went top → bottom once; walker 0 bottom → top.
        assert_eq!(ladder.stats().round_trips, 0);
        ladder.exchange(&mut AlwaysAccept, 0);
        // Walker 0 is back at the bottom: the first round trip.
        assert_eq!(ladder.stats().round_trips, 1);
    }

    #[test]
    fn exchange_preserves_configuration_validity() {
        let mut ladder = PtLadder::new(6, 1.0, 1.0, 8, geometric_ladder(0.5, 2.0, 4));
        let mut rng = Xoshiro256StarStar::new(6);
        for s in 0..200 {
            ladder.sweep(&mut rng);
            ladder.exchange(&mut rng, s % 2);
            for k in 0..4 {
                assert!(
                    ladder.replica(k).log_weight().is_finite(),
                    "slot {k} invalid after exchange {s}"
                );
            }
        }
    }

    #[test]
    fn parallel_pt_matches_ed() {
        let betas = vec![0.5, 1.0, 1.5, 2.0];
        let betas2 = betas.clone();
        let results = qmc_comm::run_threads(4, move |comm| {
            let mut rng = qmc_rng::StreamFactory::new(17).stream(comm.rank());
            let cfg = PtConfig {
                l: 8,
                jx: 1.0,
                jz: 1.0,
                m: 16,
                betas: betas2.clone(),
                therm: 1000,
                sweeps: 10_000,
                exchange_every: 2,
                seed: 99,
            };
            run_pt_parallel(comm, &cfg, &mut rng)
        });
        let lat = Chain::new(8);
        let spec = full_spectrum(&lat, &XxzParams::heisenberg(1.0));
        for (rank, beta) in betas.iter().enumerate() {
            let exact = spec.energy(*beta) / 8.0;
            let b = BinningAnalysis::new(&results[rank].0, 16);
            let trotter = (beta / 16.0).powi(2) * 2.0;
            assert!(
                (b.mean - exact).abs() < 5.0 * b.error().max(3e-4) + trotter,
                "rank {rank} β={beta}: {} ± {} vs {exact}",
                b.mean,
                b.error()
            );
        }
        // acceptance rates identical on all ranks, nonzero somewhere
        assert_eq!(results[0].1, results[1].1);
        assert!(results[0].1.iter().any(|&r| r > 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_ladder() {
        PtLadder::new(4, 1.0, 1.0, 8, vec![1.0, 0.5]);
    }
}
