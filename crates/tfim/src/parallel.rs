//! Domain-decomposed parallel TFIM engine.
//!
//! The spatial lattice is block-distributed over a processor grid
//! ([`qmc_lattice::Decomposition`]); every rank stores its block for all
//! `m` time slices plus a one-cell ghost frame in the spatial directions
//! (the time direction is local). One sweep is:
//!
//! 1. update all sites of checkerboard parity 0 (`(x+y+t) mod 2`, global
//!    coordinates) — these only read parity-1 neighbours, which are either
//!    interior or current ghosts;
//! 2. halo exchange with the 4 mesh neighbours;
//! 3. same for parity 1; 4. halo exchange.
//!
//! Because same-parity sites are conditionally independent, this parallel
//! schedule is exactly a sequential checkerboard sweep in another order.
//!
//! Every site decides on a keyed draw: global site `g = (t·ly + y)·lx + x`
//! in the engine's sweep `s` (counted from its first) takes output
//! `s·(lx·ly·m) + g` of the SplitMix64 stream seeded by `key`
//! ([`qmc_rng::SplitMix64::at`]), and `key` is the first draw of the
//! rank's own generator at that first sweep — no message carries it. A
//! caller that hands every rank the same stream therefore gets the same
//! trajectory, series and spins bit for bit, on every `P` and every
//! processor grid, and the same as a Metropolis-only
//! [`SerialTfim`](crate::serial::SerialTfim) on that stream.
//!
//! Virtual-machine runs ([`qmc_comm::ModelComm`]) charge
//! [`FLOPS_PER_UPDATE`] per site update, which is how the T1/T2/T3 scaling
//! tables are produced.

use crate::colour::{Keyed, Layout, Scratch, SweepKey, Thresholds};
use crate::serial::{dot, sum, TfimMeasurement, TfimSeries};
use crate::{AcceptTable, StCouplings, TfimModel};
use qmc_comm::{Communicator, ReduceOp};
use qmc_lattice::{Decomposition, Dir, ProcGrid, Subdomain};
use qmc_obs::{CounterId, Registry};
use qmc_rng::Rng64;

/// Modeled cost of one Metropolis site update, in flop-equivalents
/// (neighbour gather, table lookup, RNG draw, store — calibrated to a
/// 1993-class scalar node).
pub const FLOPS_PER_UPDATE: f64 = 50.0;

/// Processor grid for a model on `p` ranks: chains decompose along x
/// only; 2-D lattices get the most nearly square factorization.
pub fn grid_for(model: &TfimModel, p: usize) -> ProcGrid {
    if model.ly == 1 {
        ProcGrid::new(p, 1)
    } else {
        ProcGrid::nearly_square(p)
    }
}

/// Per-rank state of the distributed TFIM engine.
///
/// Invariant: every stored spin — interior, ghost strip and the never
/// exchanged frame corners alike — is `+1` or `−1`. The Metropolis kernel
/// forms its table index by byte arithmetic on a site and its six
/// neighbours, ghosts included, so this is load-bearing: construction
/// fills the whole padded block with `+1`, a halo exchange copies peers'
/// interior spins, and a checkpoint is validated whole before it replaces
/// anything.
pub struct DistTfim {
    model: TfimModel,
    c: StCouplings,
    sub: Subdomain,
    grid: ProcGrid,
    rank: usize,
    /// Spins with ghosts: `m` slices of `(w+2)·(h+2)`, value ±1.
    spins: Vec<i8>,
    slice_stride: usize,
    /// Exact integer acceptance thresholds of the shared [`AcceptTable`].
    thr: Thresholds,
    /// The keyed draws' key and sweep counter.
    sweep_key: SweepKey,
    /// Engine-owned metrics: acceptance counters plus per-direction halo
    /// byte counts. Always live, so reported acceptance rates are the
    /// same whether or not the observability layer is enabled.
    metrics: Registry,
    id_accepted: CounterId,
    id_proposed: CounterId,
    /// Persistent halo send buffer (reused every exchange: steady-state
    /// sweeps perform zero heap allocations in this engine).
    send_buf: Vec<u8>,
    /// Persistent halo receive buffer.
    recv_buf: Vec<u8>,
    /// Per-direction halo plan (neighbours, tags, gather/scatter strips),
    /// precomputed once so the exchange loop allocates nothing.
    halo: Vec<HaloDir>,
}

/// One strip of a slice — a row or a column of the padded block — as the
/// arithmetic progression of local indices it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Strip {
    start: usize,
    stride: usize,
    len: usize,
}

impl Strip {
    /// The progression through `idx`, which must be one.
    fn of(idx: &[usize]) -> Self {
        let start = idx[0];
        let stride = idx.get(1).map_or(1, |&second| second - start);
        assert!(
            idx.iter()
                .enumerate()
                .all(|(k, &i)| i == start + k * stride),
            "halo strip {idx:?} is not an arithmetic progression"
        );
        Self {
            start,
            stride,
            len: idx.len(),
        }
    }
}

/// Precomputed halo-exchange plan for one mesh direction.
struct HaloDir {
    /// Rank my edge strip is sent to.
    neighbor: usize,
    /// Rank whose strip lands in my ghosts.
    from: usize,
    /// Message tag (distinct per direction).
    tag: u32,
    /// Interior strip gathered into the send buffer.
    send: Strip,
    /// Ghost strip the received bytes scatter into.
    recv: Strip,
    /// Per-direction halo byte counter (`tfim.halo_bytes.<dir>`) in the
    /// engine registry; counts actually-sent messages, not self-wraps.
    bytes_ctr: CounterId,
}

impl DistTfim {
    /// Build the rank-local state (collective: every rank must call it).
    pub fn new<C: Communicator>(model: TfimModel, comm: &C) -> Self {
        let model = model.validated();
        let grid = grid_for(&model, comm.size());
        assert_eq!(
            grid.size(),
            comm.size(),
            "grid does not match communicator size"
        );
        let decomp = Decomposition::new(model.lx, model.ly, grid);
        let sub = decomp.subdomain(comm.rank());
        let slice_stride = sub.padded_len();
        let spins = vec![1i8; slice_stride * model.m];
        let c = model.couplings();
        // Largest halo strip: one row or column of the block, all slices.
        let strip = sub.w.max(sub.h) * model.m;
        let rank = comm.rank();
        let dirs: &[Dir] = if model.ly == 1 {
            &[Dir::East, Dir::West]
        } else {
            &Dir::ALL
        };
        let mut metrics = Registry::new();
        let id_accepted = metrics.counter("tfim.accepted");
        let id_proposed = metrics.counter("tfim.proposed");
        let halo = dirs
            .iter()
            .map(|&dir| HaloDir {
                neighbor: grid.neighbor(rank, dir),
                // What I send toward `dir` lands in the neighbour's ghost
                // strip facing `dir.opposite()`; symmetrically I receive
                // from my `dir.opposite()` neighbour into my
                // `dir.opposite()`-facing ghosts.
                from: grid.neighbor(rank, dir.opposite()),
                tag: 100 + dir_id(dir),
                send: Strip::of(&sub.send_strip(dir)),
                recv: Strip::of(&sub.recv_strip(dir.opposite())),
                bytes_ctr: metrics.counter(dir_bytes_counter(dir)),
            })
            .collect();

        Self {
            model,
            c,
            sub,
            grid,
            rank,
            spins,
            slice_stride,
            thr: Thresholds::new(&AcceptTable::new(&c)),
            sweep_key: SweepKey::default(),
            metrics,
            id_accepted,
            id_proposed,
            send_buf: Vec::with_capacity(strip),
            recv_buf: Vec::with_capacity(strip),
            halo,
        }
    }

    /// Fraction of Metropolis proposals accepted on this rank so far
    /// (parity with [`crate::serial::SerialTfim`]; aggregate across ranks
    /// with an allreduce over `[accepted, proposed]` if a global rate is
    /// wanted).
    pub fn acceptance_rate(&self) -> f64 {
        self.accepted() as f64 / self.proposed().max(1) as f64
    }

    /// Metropolis proposals accepted on this rank (`tfim.accepted`).
    pub fn accepted(&self) -> u64 {
        self.metrics.value(self.id_accepted)
    }

    /// Metropolis proposals made on this rank (`tfim.proposed`).
    pub fn proposed(&self) -> u64 {
        self.metrics.value(self.id_proposed)
    }

    /// This rank's engine metrics: acceptance counters plus
    /// `tfim.halo_bytes.<east|west|north|south>` byte counts (fold into a
    /// [`qmc_obs::RankObs`] with
    /// [`absorb_registry`](qmc_obs::RankObs::absorb_registry)).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The block this rank owns.
    pub fn subdomain(&self) -> Subdomain {
        self.sub
    }

    #[inline]
    fn at(&self, t: usize, local2d: usize) -> i8 {
        self.spins[t * self.slice_stride + local2d]
    }

    /// Exchange ghost frames with the four mesh neighbours (one aggregated
    /// message per direction covering all time slices). Neighbours that
    /// are this rank itself (periodic wrap of a 1-wide grid dimension) are
    /// served by local copies — no self-messages.
    ///
    /// Allocation-free in steady state: the per-direction plan (strips,
    /// neighbours, tags) is precomputed at construction and the send/recv
    /// byte buffers are persistent fields reused across exchanges (via
    /// [`Communicator::sendrecv_bytes_into`]).
    #[qmc_hot::hot]
    pub fn halo_exchange<C: Communicator>(&mut self, comm: &mut C) {
        let _span = qmc_obs::span("tfim.halo_exchange");
        // Detach the plan and buffers from `self` so the gather/scatter
        // loops can borrow `self.spins` without conflicts.
        let halo = std::mem::take(&mut self.halo);
        let mut send = std::mem::take(&mut self.send_buf);
        let mut recv = std::mem::take(&mut self.recv_buf);
        for hd in &halo {
            send.clear();
            let Strip { start, stride, len } = hd.send;
            for slice in self.spins.chunks_exact(self.slice_stride) {
                send.extend((0..len).map(|k| slice[start + k * stride] as u8));
            }

            let incoming: &[u8] = if hd.neighbor == self.rank && hd.from == self.rank {
                &send // periodic self-wrap: my own edge is my ghost
            } else {
                self.metrics.add(hd.bytes_ctr, send.len() as u64);
                comm.sendrecv_bytes_into(hd.neighbor, hd.tag, &send, hd.from, hd.tag, &mut recv);
                &recv
            };

            assert_eq!(
                incoming.len(),
                hd.recv.len * self.model.m,
                "halo payload size mismatch"
            );
            for (slice, strip) in self
                .spins
                .chunks_exact_mut(self.slice_stride)
                .zip(incoming.chunks_exact(hd.recv.len))
            {
                for (k, &b) in strip.iter().enumerate() {
                    debug_assert!(b as i8 == 1 || b as i8 == -1, "halo spin {b} is not ±1");
                    slice[hd.recv.start + k * hd.recv.stride] = b as i8;
                }
            }
        }
        self.halo = halo;
        self.send_buf = send;
        self.recv_buf = recv;
    }

    /// The ghost-padded block as the colour kernel sees it.
    fn layout(&self) -> Layout {
        let sub = self.sub;
        Layout {
            slices: self.model.m,
            slice_stride: self.slice_stride,
            rows: sub.h,
            row_stride: sub.w + 2,
            width: sub.w,
            origin: sub.local(0, 0),
            parity: (sub.x0 + sub.y0) % 2,
            square: self.model.ly > 1,
            wraps: false,
        }
    }

    /// The keyed draws of the sweep about to run, this rank's block
    /// origin being global `(x0, y0)`; the first sweep takes the key from
    /// `rng`.
    fn draws<R: Rng64>(&mut self, rng: &mut R) -> Keyed {
        let first = self.sub.y0 * self.model.lx + self.sub.x0;
        self.sweep_key.keyed(rng, &self.model, first)
    }

    /// Update every interior site of global parity `color` with the colour
    /// kernel (see the crate docs); returns the number of proposals
    /// (== sites of that parity).
    #[qmc_hot::hot]
    fn half_sweep(&mut self, color: usize, scratch: &mut Scratch, draws: &Keyed) -> u64 {
        let (proposals, accepted) =
            self.layout()
                .half_sweep(&mut self.spins, &self.thr, color, scratch, draws);
        self.metrics.add(self.id_proposed, proposals);
        self.metrics.add(self.id_accepted, accepted);
        proposals
    }

    /// A site-by-site half-sweep of sweep `sweep` over the draws keyed by
    /// `key`, the oracle [`Self::half_sweep`] is compared against after
    /// every half-sweep: each site of the colour takes its draw from
    /// [`SplitMix64::at`] at its own global index and decides as
    /// `rng.metropolis(ratio)` would.
    ///
    /// [`SplitMix64::at`]: qmc_rng::SplitMix64::at
    #[cfg(test)]
    fn half_sweep_scalar(&mut self, color: usize, key: u64, sweep: u64) -> u64 {
        let m = self.model;
        let sub = self.sub;
        let w2 = sub.w + 2;
        let accept = AcceptTable::new(&self.c);
        let sweep = sweep * (m.lx * m.ly * m.m) as u64;
        let mut proposals = 0u64;
        let mut accepted = 0u64;
        for t in 0..m.m {
            let base = t * self.slice_stride;
            let up = ((t + 1) % m.m) * self.slice_stride;
            let down = ((t + m.m - 1) % m.m) * self.slice_stride;
            for iy in 0..sub.h {
                let gy = sub.y0 + iy;
                for ix in 0..sub.w {
                    let gx = sub.x0 + ix;
                    if (gx + gy + t) % 2 != color {
                        continue;
                    }
                    let li = sub.local(ix as isize, iy as isize);
                    let s = self.spins[base + li];
                    let mut sp =
                        self.spins[base + li - 1] as i32 + self.spins[base + li + 1] as i32;
                    if m.ly > 1 {
                        sp += self.spins[base + li - w2] as i32 + self.spins[base + li + w2] as i32;
                    }
                    let tp = self.spins[up + li] as i32 + self.spins[down + li] as i32;
                    proposals += 1;
                    let g = ((t * m.ly + gy) * m.lx + gx) as u64;
                    let raw = qmc_rng::SplitMix64::at(key, sweep.wrapping_add(g));
                    let ratio = accept.ratio(s, sp, tp);
                    if ratio >= 1.0 || qmc_rng::unit_f64(raw) < ratio {
                        self.spins[base + li] = -s;
                        accepted += 1;
                    }
                }
            }
        }
        self.metrics.add(self.id_proposed, proposals);
        self.metrics.add(self.id_accepted, accepted);
        proposals
    }

    /// One full sweep: two parity halves, each followed by a halo
    /// exchange; compute time is charged to the communicator's clock. The
    /// engine's first sweep takes one draw from `rng`, the key of its
    /// keyed draws (see the module docs); no other sweep draws from it.
    #[qmc_hot::hot]
    pub fn sweep<C: Communicator, R: Rng64>(&mut self, comm: &mut C, rng: &mut R) {
        let _span = qmc_obs::span("tfim.sweep");
        let mut scratch = Scratch::new();
        let draws = self.draws(rng);
        for color in 0..2 {
            let proposals = {
                let _half = qmc_obs::span("tfim.half_sweep");
                self.half_sweep(color, &mut scratch, &draws)
            };
            comm.compute(proposals as f64 * FLOPS_PER_UPDATE);
            self.halo_exchange(comm);
        }
    }

    /// Local contributions `(ΣSP, ΣT, Σs)` over owned sites (each site
    /// owns its +x/+y bonds; edge partners come from current ghosts). A
    /// slice's owned cells are walked as one run, from the first to the
    /// last, against the runs one cell east, one row north and one slice
    /// up, by the serial engine's byte-lane kernels; between two rows the
    /// run crosses the right ghost of one and the left ghost of the next,
    /// whose terms are taken back out. Every term is a ±1 product, so the
    /// sums are the integers a site-by-site loop reaches.
    #[qmc_hot::hot]
    fn local_sums(&self) -> (f64, f64, f64) {
        let (w, h, m) = (self.sub.w, self.sub.h, self.model.m);
        let row = w + 2;
        // A chain owns no +y bond.
        let square = self.model.ly > 1;
        let (first, len) = (self.sub.local(0, 0), (h - 1) * row + w);
        let crossed = (1..h as isize)
            .flat_map(|iy| [self.sub.local(w as isize, iy - 1), self.sub.local(-1, iy)]);
        let (mut sp, mut tt, mut tot) = (0i64, 0i64, 0i64);
        for t in 0..m {
            let up = if t + 1 == m { 0 } else { t + 1 };
            let (at, above) = (t * self.slice_stride, up * self.slice_stride);
            let run = |start: usize| &self.spins[start..start + len];
            let own = run(at + first);
            sp += dot(own, run(at + first + 1));
            if square {
                sp += dot(own, run(at + first + row));
            }
            tt += dot(own, run(above + first));
            tot += sum(own);
            for g in crossed.clone() {
                let s = i64::from(self.spins[at + g]);
                let east = i64::from(self.spins[at + g + 1]);
                let north = if square {
                    i64::from(self.spins[at + g + row])
                } else {
                    0
                };
                sp -= s * (east + north);
                tt -= s * i64::from(self.spins[above + g]);
                tot -= s;
            }
        }
        (sp as f64, tt as f64, tot as f64)
    }

    /// Global measurement (collective allreduce; every rank returns the
    /// same values). Ghosts must be current (call after [`Self::sweep`]).
    pub fn measure<C: Communicator>(&self, comm: &mut C) -> TfimMeasurement {
        let _span = qmc_obs::span("tfim.measure");
        let (sp, tt, tot) = self.local_sums();
        let global = comm.allreduce_f64(&[sp, tt, tot], ReduceOp::Sum);
        let n = self.model.n_sites();
        let mag = global[2] / (n * self.model.m) as f64;
        TfimMeasurement {
            energy_per_site: self.c.energy(n, self.model.m, global[0], global[1]) / n as f64,
            abs_m: mag.abs(),
            m2: mag * mag,
            sigma_x: self.c.sigma_x(n, self.model.m, global[1]),
        }
    }

    /// Thermalize and run, recording one measurement per sweep (identical
    /// series on every rank).
    pub fn run<C: Communicator, R: Rng64>(
        &mut self,
        comm: &mut C,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
    ) -> TfimSeries {
        // Initial exchange so ghosts are valid before the first sweep.
        self.halo_exchange(comm);
        for _ in 0..therm {
            self.sweep(comm, rng);
        }
        let mut series = TfimSeries::new(&self.model);
        for _ in 0..sweeps {
            self.sweep(comm, rng);
            series.record(&self.measure(comm));
        }
        series
    }

    /// Gather the full space-time configuration on rank 0 (testing aid).
    pub fn gather_global<C: Communicator>(&self, comm: &mut C) -> Option<Vec<i8>> {
        let m = self.model;
        let sub = self.sub;
        // Interior values in (t, iy, ix) order.
        let mut mine = Vec::with_capacity(sub.w * sub.h * m.m);
        for t in 0..m.m {
            let base = t * self.slice_stride;
            for iy in 0..sub.h {
                for ix in 0..sub.w {
                    mine.push(self.spins[base + sub.local(ix as isize, iy as isize)] as u8);
                }
            }
        }
        let gathered = comm.gather_bytes(0, &mine)?;
        // Reassemble into global (t·ly + y)·lx + x layout.
        let decomp = Decomposition::new(m.lx, m.ly, self.grid);
        let mut global = vec![0i8; m.lx * m.ly * m.m];
        for (rank, payload) in gathered.iter().enumerate() {
            let s = decomp.subdomain(rank);
            let mut it = payload.iter();
            for t in 0..m.m {
                for iy in 0..s.h {
                    for ix in 0..s.w {
                        let (gx, gy) = s.global(ix, iy, m.lx, m.ly);
                        global[(t * m.ly + gy) * m.lx + gx] = *it.next().expect("sized") as i8;
                    }
                }
            }
        }
        Some(global)
    }

    /// Direct ghost access for the consistency tests.
    pub fn ghost(&self, t: usize, ix: isize, iy: isize) -> i8 {
        self.at(t, self.sub.local(ix, iy))
    }
}

impl qmc_ckpt::Checkpoint for DistTfim {
    fn kind(&self) -> &'static str {
        "engine.tfim.dist"
    }

    fn save(&self, enc: &mut qmc_ckpt::Encoder) {
        crate::save_couplings(enc, &self.model);
        // The full ghost-padded block: restoring ghosts too means a
        // resumed rank needs no extra halo exchange to be sweep-ready,
        // and the very next half-sweep reads exactly what it would have.
        let raw: Vec<u8> = self.spins.iter().map(|&s| s as u8).collect();
        enc.bytes(&raw);
        self.sweep_key.save(enc);
        qmc_ckpt::registry::save_registry(enc, &self.metrics);
    }

    /// Everything is read and judged before anything is assigned, so a
    /// refused checkpoint leaves the engine as it was.
    fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
        crate::check_couplings(&dec.f64s()?, &self.model, "dist tfim")?;
        let raw = dec.bytes()?;
        let sweep_key = SweepKey::load(dec, &self.model, "dist tfim")?;
        let mut metrics = self.metrics.clone();
        qmc_ckpt::registry::load_registry(dec, &mut metrics)?;
        crate::colour::restore_spins(&mut self.spins, raw, "dist tfim")?;
        self.sweep_key = sweep_key;
        self.metrics = metrics;
        Ok(())
    }
}

fn dir_id(d: Dir) -> u32 {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::North => 2,
        Dir::South => 3,
    }
}

fn dir_bytes_counter(d: Dir) -> &'static str {
    match d {
        Dir::East => "tfim.halo_bytes.east",
        Dir::West => "tfim.halo_bytes.west",
        Dir::North => "tfim.halo_bytes.north",
        Dir::South => "tfim.halo_bytes.south",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_ckpt::Checkpoint;
    use qmc_comm::{run_threads, SerialComm};
    use qmc_rng::{CountingRng, StreamFactory, Xoshiro256StarStar};
    use qmc_stats::BinningAnalysis;

    fn chain_model(lx: usize, h: f64, beta: f64, m: usize) -> TfimModel {
        TfimModel {
            lx,
            ly: 1,
            j: 1.0,
            h,
            beta,
            m,
        }
    }

    #[test]
    fn ghost_consistency_after_exchange() {
        // After a halo exchange, every rank's ghost column must equal the
        // true global neighbour value.
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 1.0,
            beta: 1.0,
            m: 4,
        };
        run_threads(4, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(42).stream(comm.rank());
            // Scramble, exchange, then verify against the gathered truth.
            eng.halo_exchange(comm);
            for _ in 0..3 {
                eng.sweep(comm, &mut rng);
            }
            let global = eng.gather_global(comm);
            let global = comm.broadcast_bytes(
                0,
                global
                    .map(|g| g.iter().map(|&s| s as u8).collect())
                    .unwrap_or_default(),
            );
            let g = |x: usize, y: usize, t: usize| global[(t * 8 + y) * 8 + x] as i8;
            let sub = eng.subdomain();
            for t in 0..model.m {
                for iy in 0..sub.h {
                    // west ghost (ix = −1) should equal global x0−1 column
                    let gx = (sub.x0 + 8 - 1) % 8;
                    let gy = sub.y0 + iy;
                    assert_eq!(eng.ghost(t, -1, iy as isize), g(gx, gy, t));
                    // east ghost
                    let gx = (sub.x0 + sub.w) % 8;
                    assert_eq!(eng.ghost(t, sub.w as isize, iy as isize), g(gx, gy, t));
                }
                for ix in 0..sub.w {
                    let gx = sub.x0 + ix;
                    let gy = (sub.y0 + 8 - 1) % 8;
                    assert_eq!(eng.ghost(t, ix as isize, -1), g(gx, gy, t));
                    let gy = (sub.y0 + sub.h) % 8;
                    assert_eq!(eng.ghost(t, ix as isize, sub.h as isize), g(gx, gy, t));
                }
            }
        });
    }

    #[test]
    fn single_rank_matches_ed() {
        let model = chain_model(4, 1.0, 1.0, 16);
        let mut comm = SerialComm::new();
        let mut eng = DistTfim::new(model, &comm);
        let mut rng = Xoshiro256StarStar::new(7);
        let series = eng.run(&mut comm, &mut rng, 2000, 20_000);

        let lat = qmc_lattice::Chain::new(4);
        let exact = qmc_ed::tfim::thermal(&lat, &qmc_ed::tfim::TfimParams { j: 1.0, h: 1.0 }, 1.0);
        let be = BinningAnalysis::new(&series.energy, 16);
        let trotter = (1.0f64 / 16.0).powi(2) * 2.0;
        assert!(
            (be.mean - exact.energy / 4.0).abs() < 4.0 * be.error().max(2e-4) + trotter,
            "E {} ± {} vs {}",
            be.mean,
            be.error(),
            exact.energy / 4.0
        );
    }

    #[test]
    fn four_ranks_match_ed_chain() {
        let model = chain_model(8, 1.0, 1.0, 16);
        let results = run_threads(4, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(5).stream(comm.rank());
            eng.run(comm, &mut rng, 2000, 20_000)
        });
        // Every rank returns the same (collective) series.
        let lat = qmc_lattice::Chain::new(8);
        let exact = qmc_ed::tfim::thermal(&lat, &qmc_ed::tfim::TfimParams { j: 1.0, h: 1.0 }, 1.0);
        let be = BinningAnalysis::new(&results[0].energy, 16);
        let trotter = (1.0f64 / 16.0).powi(2) * 2.0;
        assert!(
            (be.mean - exact.energy / 8.0).abs() < 4.0 * be.error().max(2e-4) + trotter,
            "E {} ± {} vs {}",
            be.mean,
            be.error(),
            exact.energy / 8.0
        );
        for r in &results[1..] {
            assert_eq!(r.energy, results[0].energy, "series differ across ranks");
        }
    }

    #[test]
    fn buffered_halo_matches_allocating_reference() {
        // The buffer-reuse halo exchange must land exactly the bytes the
        // straightforward allocating sendrecv_bytes implementation does:
        // corrupt a copy's ghosts, refill them through the reference
        // path, and compare byte-for-byte against the buffered engine.
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 1.5,
            beta: 1.0,
            m: 4,
        };
        run_threads(4, move |comm| {
            let mut a = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(55).stream(comm.rank());
            a.halo_exchange(comm);
            for _ in 0..5 {
                a.sweep(comm, &mut rng);
            }

            let mut b = DistTfim::new(model, comm);
            b.spins.copy_from_slice(&a.spins);
            // The reference takes its strips from the lattice crate's
            // index lists, not from the engine's `Strip` progressions.
            type Plan = (usize, usize, u32, Vec<usize>, Vec<usize>);
            let plan: Vec<Plan> = b
                .halo
                .iter()
                .zip(Dir::ALL)
                .map(|(hd, dir)| {
                    assert_eq!(hd.tag, 100 + dir_id(dir));
                    (
                        hd.neighbor,
                        hd.from,
                        hd.tag,
                        b.sub.send_strip(dir),
                        b.sub.recv_strip(dir.opposite()),
                    )
                })
                .collect();
            for (_, _, _, _, recv_idx) in &plan {
                for t in 0..model.m {
                    for &i in recv_idx {
                        b.spins[t * b.slice_stride + i] = 0;
                    }
                }
            }
            for (neighbor, from, tag, send_idx, recv_idx) in &plan {
                let mut send = Vec::new();
                for t in 0..model.m {
                    for &i in send_idx {
                        send.push(b.spins[t * b.slice_stride + i] as u8);
                    }
                }
                let incoming = if *neighbor == comm.rank() && *from == comm.rank() {
                    send.clone()
                } else {
                    comm.sendrecv_bytes(*neighbor, *tag, &send, *from, *tag)
                };
                let mut it = incoming.iter();
                for t in 0..model.m {
                    for &i in recv_idx {
                        b.spins[t * b.slice_stride + i] = *it.next().unwrap() as i8;
                    }
                }
            }
            assert_eq!(a.spins, b.spins, "rank {}", comm.rank());
        });
    }

    #[test]
    fn halo_byte_counters_match_comm_stats() {
        // Every user-level byte this engine sends is a halo strip, so the
        // per-direction registry counters must sum to the communicator's
        // bytes_sent (no collectives run before the check).
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 1.0,
            beta: 1.0,
            m: 4,
        };
        run_threads(4, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(3).stream(comm.rank());
            eng.halo_exchange(comm);
            for _ in 0..3 {
                eng.sweep(comm, &mut rng);
            }
            let dirs = ["east", "west", "north", "south"];
            let halo_bytes: u64 = dirs
                .iter()
                .map(|d| eng.metrics().get(&format!("tfim.halo_bytes.{d}")))
                .sum();
            assert!(halo_bytes > 0);
            assert_eq!(halo_bytes, comm.stats().bytes_sent, "rank {}", comm.rank());
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let model = chain_model(8, 1.0, 1.0, 8);
        let run = || {
            run_threads(2, move |comm| {
                let mut eng = DistTfim::new(model, comm);
                let mut rng = StreamFactory::new(123).stream(comm.rank());
                eng.run(comm, &mut rng, 50, 100)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a[0].energy, b[0].energy);
        assert_eq!(a[0].m2, b[0].m2);
    }

    #[test]
    fn two_dimensional_parallel_runs() {
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 3.0,
            beta: 1.0,
            m: 8,
        };
        let results = run_threads(4, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(77).stream(comm.rank());
            eng.run(comm, &mut rng, 300, 1000)
        });
        let e = results[0].energy.iter().sum::<f64>() / results[0].energy.len() as f64;
        assert!(e < 0.0 && e > -6.0, "E = {e}");
    }

    #[test]
    fn modelworld_speedup_shape() {
        // On the simulated 1993 mesh, a decent-sized problem must show
        // real speedup from P=1 to P=16.
        let model = TfimModel {
            lx: 64,
            ly: 64,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 8,
        };
        let time_for = |p: usize| {
            let reports =
                qmc_comm::run_model(p, qmc_comm::MachineModel::mesh_1993(p), move |comm| {
                    let mut eng = DistTfim::new(model, comm);
                    let mut rng = StreamFactory::new(1).stream(comm.rank());
                    eng.halo_exchange(comm);
                    for _ in 0..5 {
                        eng.sweep(comm, &mut rng);
                    }
                    eng.measure(comm);
                });
            qmc_comm::model::job_seconds(&reports)
        };
        let t1 = time_for(1);
        let t16 = time_for(16);
        let speedup = t1 / t16;
        assert!(
            speedup > 8.0 && speedup <= 16.0,
            "speedup at P=16: {speedup} (t1={t1}, t16={t16})"
        );
    }

    const fn square_model(lx: usize, ly: usize, h: f64, beta: f64, m: usize) -> TfimModel {
        TfimModel {
            lx,
            ly,
            j: 1.0,
            h,
            beta,
            m,
        }
    }

    #[test]
    fn colour_kernel_matches_site_by_site_oracle_after_every_half_sweep() {
        // Two engines per rank on one fixed seed, one stepped by the
        // colour kernel and one by the loop it replaced: after every
        // half-sweep the whole ghost-padded block, both counters and the
        // number of raw draws agree. Shapes: chains and squares on 1–4
        // ranks, self-wrapped directions, 1-, 2- and 3-wide blocks, 192
        // rows of 6 (128 fit a kernel block — not a whole number of
        // slices, so a run of rows is cut mid-slice), a padded row that
        // fills a block exactly (1022 + 2), and rows too wide for one:
        // 1023 alone (an odd segment), 1024 + 3, 1024 + 1024 + 2.
        let cases = [
            (chain_model(8, 1.0, 1.0, 8), 2, 12),
            (chain_model(10, 1.0, 1.0, 4), 1, 12),
            (chain_model(10, 1.2, 1.5, 4), 3, 12),
            (chain_model(4, 1.0, 1.0, 4), 4, 12),
            (square_model(8, 8, 2.0, 1.0, 4), 1, 8),
            (square_model(6, 6, 2.5, 1.0, 4), 2, 12),
            (square_model(6, 10, 3.0, 1.5, 4), 3, 12),
            (square_model(16, 16, 2.0, 1.0, 8), 4, 8),
            (square_model(12, 12, 3.044, 2.0, 6), 4, 8),
            (square_model(12, 12, 3.044, 2.0, 32), 4, 4),
            (chain_model(2044, 1.0, 1.0, 2), 2, 6),
            (chain_model(2046, 1.3, 0.5, 2), 2, 6),
            (chain_model(2054, 1.3, 0.5, 2), 2, 6),
            (chain_model(2050, 1.0, 1.0, 2), 1, 6),
            (square_model(64, 64, 3.044, 2.0, 32), 2, 2),
        ];
        for (model, ranks, sweeps) in cases {
            let accepted = run_threads(ranks, move |comm| {
                let rank = comm.rank();
                let stream = || CountingRng::new(StreamFactory::new(71).stream(rank));
                let (mut rng_fast, mut rng_slow) = (stream(), stream());
                let mut fast = DistTfim::new(model, comm);
                let mut slow = DistTfim::new(model, comm);
                fast.halo_exchange(comm);
                slow.halo_exchange(comm);
                let mut scratch = Scratch::new();
                for sweep in 0..sweeps {
                    let draws = fast.draws(&mut rng_fast);
                    let (key, number) = slow.sweep_key.next(&mut rng_slow);
                    for color in 0..2 {
                        let at = format!("{model:?} rank {rank} sweep {sweep} colour {color}");
                        let proposals = fast.half_sweep(color, &mut scratch, &draws);
                        assert_eq!(
                            proposals,
                            slow.half_sweep_scalar(color, key, number),
                            "{at}"
                        );
                        assert!(fast.spins == slow.spins, "spins differ: {at}");
                        assert_eq!(fast.accepted(), slow.accepted(), "{at}");
                        assert_eq!(fast.proposed(), slow.proposed(), "{at}");
                        assert_eq!(rng_fast.draws, rng_slow.draws, "{at}");
                        fast.halo_exchange(comm);
                        slow.halo_exchange(comm);
                    }
                }
                assert_eq!(rng_fast.draws, 1, "the key is the only draw");
                assert_eq!(rng_fast.next_u64(), rng_slow.next_u64());
                fast.accepted()
            });
            assert!(
                accepted.iter().sum::<u64>() > 0,
                "{model:?}: nothing flipped"
            );
        }
    }

    /// What a run on `ranks` ranks that hands every rank the same stream
    /// leaves behind: the series bits, the gathered spins, and the
    /// accepted / proposed counters summed over ranks.
    fn one_stream_run(
        model: TfimModel,
        ranks: usize,
        therm: usize,
        sweeps: usize,
    ) -> (Vec<u64>, Vec<i8>, u64, u64) {
        let mut out = run_threads(ranks, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(61).stream(0);
            let series = eng.run(comm, &mut rng, therm, sweeps);
            let counts = comm.allreduce_f64(
                &[eng.accepted() as f64, eng.proposed() as f64],
                ReduceOp::Sum,
            );
            let bits = [&series.energy, &series.abs_m, &series.m2, &series.sigma_x]
                .iter()
                .flat_map(|col| col.iter().map(|x| x.to_bits()))
                .collect();
            (
                bits,
                eng.gather_global(comm),
                counts[0] as u64,
                counts[1] as u64,
            )
        });
        let (bits, spins, accepted, proposed) = out.swap_remove(0);
        (bits, spins.expect("rank 0 gathers"), accepted, proposed)
    }

    /// What a Metropolis-only [`SerialTfim`](crate::serial::SerialTfim)
    /// run on the stream [`one_stream_run`] hands every rank leaves behind.
    fn serial_run(model: TfimModel, therm: usize, sweeps: usize) -> (Vec<u64>, Vec<i8>, u64, u64) {
        let mut eng = crate::serial::SerialTfim::new(model);
        let mut rng = StreamFactory::new(61).stream(0);
        let series = eng.run(&mut rng, therm, sweeps, 0);
        let bits = [&series.energy, &series.abs_m, &series.m2, &series.sigma_x]
            .iter()
            .flat_map(|col| col.iter().map(|x| x.to_bits()))
            .collect();
        (
            bits,
            eng.export_spins().to_vec(),
            eng.accepted(),
            eng.proposed(),
        )
    }

    #[test]
    fn one_stream_gives_one_trajectory_on_every_p() {
        // The serial engine's Metropolis sweep is the reference. Chains
        // split along x, squares on every `grid_for` shape: P = 2 and 3
        // are `P × 1` grids, 4 is 2 × 2, 8 is 4 × 2; uneven blocks (10
        // over 3 and 4 ranks), and the benchmark's model.
        let cases = [
            (chain_model(24, 1.0, 1.0, 8), &[1, 2, 3, 4, 8][..], 10, 30),
            (chain_model(10, 1.2, 1.5, 4), &[1, 2, 3, 4][..], 10, 30),
            (square_model(8, 8, 2.0, 1.0, 4), &[1, 2, 4, 8][..], 5, 20),
            (
                square_model(12, 12, 3.044, 2.0, 6),
                &[1, 2, 3, 4, 8][..],
                5,
                20,
            ),
            (square_model(10, 6, 3.0, 1.5, 4), &[1, 2, 3, 4][..], 5, 20),
            (square_model(64, 64, 3.044, 2.0, 32), &[1, 2, 4][..], 2, 3),
        ];
        for (model, ps, therm, sweeps) in cases {
            let want = serial_run(model, therm, sweeps);
            assert!(want.2 > 0, "{model:?}: nothing flipped");
            for &p in ps {
                let got = one_stream_run(model, p, therm, sweeps);
                assert!(got == want, "{model:?}: P = {p} left another trajectory");
            }
        }
    }

    #[test]
    fn a_restored_engine_continues_bit_for_bit() {
        // P = 2 with each rank on its own stream: checkpoint every rank
        // after 15 sweeps, restore into fresh engines, and run on. The
        // restored engines are handed other generators — after the first
        // sweep a rank's generator is never drawn from again, so the
        // checkpoint's key and sweep counter are its whole draw state.
        let model = square_model(8, 8, 2.5, 1.0, 4);
        let results = run_threads(2, move |comm| {
            let mut eng = DistTfim::new(model, comm);
            let mut rng = StreamFactory::new(29).stream(comm.rank());
            let _ = eng.run(comm, &mut rng, 15, 0);
            let blob = qmc_ckpt::save_state(&eng);
            let straight = eng.run(comm, &mut rng, 0, 25);

            let mut resumed = DistTfim::new(model, comm);
            qmc_ckpt::load_state(&blob, &mut resumed).expect("own checkpoint");
            let mut other = StreamFactory::new(30).stream(comm.rank() + 7);
            let after = resumed.run(comm, &mut other, 0, 25);
            assert_eq!(straight.energy, after.energy);
            assert_eq!(straight.m2, after.m2);
            assert!(eng.spins == resumed.spins);
            assert_eq!(eng.accepted(), resumed.accepted());
            assert_eq!(eng.sweep_key, resumed.sweep_key);
            straight.len()
        });
        assert_eq!(results, [25, 25]);
    }

    #[test]
    fn local_sums_match_a_site_by_site_count() {
        for (model, ranks) in [
            (chain_model(10, 1.2, 1.5, 4), 3),
            (square_model(6, 10, 3.0, 1.5, 4), 3),
            (square_model(12, 12, 3.044, 2.0, 6), 4),
        ] {
            run_threads(ranks, move |comm| {
                let mut eng = DistTfim::new(model, comm);
                let mut rng = StreamFactory::new(13).stream(comm.rank());
                let _ = eng.run(comm, &mut rng, 10, 0);
                let (sub, w2) = (eng.sub, eng.sub.w + 2);
                let (mut sp, mut tt, mut tot) = (0i64, 0i64, 0i64);
                for t in 0..model.m {
                    for iy in 0..sub.h {
                        for ix in 0..sub.w {
                            let li = sub.local(ix as isize, iy as isize);
                            let s = eng.at(t, li) as i64;
                            sp += s * eng.at(t, li + 1) as i64;
                            if model.ly > 1 {
                                sp += s * eng.at(t, li + w2) as i64;
                            }
                            tt += s * eng.at((t + 1) % model.m, li) as i64;
                            tot += s;
                        }
                    }
                }
                assert_eq!(eng.local_sums(), (sp as f64, tt as f64, tot as f64));
            });
        }
    }

    #[test]
    fn refused_checkpoint_leaves_the_engine_untouched() {
        // Blobs every CRC accepts: one whose last spin byte is 0 (`load`
        // used to copy spin by spin and stop there, leaving all but one
        // cell of the block replaced), one of a run at another β, and
        // three whose key or sweep counter cannot be. Each must be refused
        // before anything lands, so the engine goes on exactly like one
        // that never saw it.
        let model = square_model(6, 6, 2.5, 1.0, 4);
        let engine_after = |model: TfimModel, sweeps: usize| {
            let mut comm = SerialComm::new();
            let mut eng = DistTfim::new(model, &comm);
            let mut rng = Xoshiro256StarStar::new(19);
            let _ = eng.run(&mut comm, &mut rng, sweeps, 0);
            (eng, rng, comm)
        };
        let (mut eng, mut rng, mut comm) = engine_after(model, 20);
        let (mut twin, mut twin_rng, mut twin_comm) = engine_after(model, 20);
        let (donor, ..) = engine_after(model, 30);
        assert!(donor.spins != eng.spins);
        let (foreign, ..) = engine_after(TfimModel { beta: 4.0, ..model }, 30);

        let blob = qmc_ckpt::save_state(&donor);
        // kind tag (length-prefixed), body length, J/h/β, spin count,
        // spins, then the key flag, the key and the sweep counter.
        let spins_at = 8 + donor.kind().len() + 8 + 32 + 8;
        let flag_at = spins_at + donor.spins.len();
        assert_eq!(blob[flag_at - 1] as i8, *donor.spins.last().unwrap());
        assert_eq!(blob[flag_at], 1);
        let tampered = |at: usize, bytes: &[u8]| {
            let mut blob = blob.clone();
            blob[at..at + bytes.len()].copy_from_slice(bytes);
            blob
        };
        let offers = [
            ("a spin of 0", tampered(flag_at - 1, &[0])),
            ("another β", qmc_ckpt::save_state(&foreign)),
            ("a key flag of 2", tampered(flag_at, &[2])),
            ("no key after 30 sweeps", tampered(flag_at, &[0])),
            (
                "a counter past the index range",
                tampered(flag_at + 9, &[0xff; 8]),
            ),
        ];
        for (what, blob) in offers {
            let mut file = qmc_ckpt::CkptFile::new();
            file.add("engine", blob);
            let file = qmc_ckpt::CkptFile::from_bytes(&file.to_bytes()).expect("CRC-valid file");
            let refused = file.restore("engine", &mut eng);
            assert!(
                matches!(refused, Err(qmc_ckpt::CkptError::Corrupt { .. })),
                "{what}: {refused:?}"
            );
            assert!(
                eng.spins == twin.spins,
                "{what}: a refused load replaced spins"
            );
            assert_eq!(eng.sweep_key, twin.sweep_key, "{what}");
            assert_eq!(eng.accepted(), twin.accepted(), "{what}");
            assert_eq!(eng.proposed(), twin.proposed(), "{what}");
        }
        for _ in 0..10 {
            eng.sweep(&mut comm, &mut rng);
            twin.sweep(&mut twin_comm, &mut twin_rng);
        }
        assert!(eng.spins == twin.spins);
        assert_eq!(eng.accepted(), twin.accepted());
        assert_eq!(rng.next_u64(), twin_rng.next_u64());
    }
}
