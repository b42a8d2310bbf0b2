//! Multi-spin-coded TFIM sweep kernels: 64 spins per `u64`, updated with
//! bitwise logic and **no per-spin branch, no per-spin RNG call**.
//!
//! # Replica packing
//!
//! [`PackedReplicas`] runs up to 64 independent replicas of the same
//! model in lockstep: bit `j` of word `i` is spin `i` of replica `j`
//! (bit 1 ⇔ spin +1). One checkerboard site visit then:
//!
//! 1. gathers the (2 or 4) spatial and 2 temporal neighbour words and
//!    reduces them to *bit planes* of the per-lane up-neighbour counts
//!    with carry-save adders (`sum2`/`sum4` — pure XOR/AND trees);
//! 2. draws all lane variates with **one** batched [`Rng64::fill_u64`]
//!    call of 32 words — each draw supplies two independent 32-bit
//!    decision lanes (lane `j` consumes the low half of draw `j/2` when
//!    `j` is even, the high half when odd — see *RNG lane discipline*);
//! 3. assembles per-lane 6-bit table indices eight lanes at a time with
//!    a bit→byte spread and resolves every acceptance as an integer
//!    compare `r ≤ thr` against the precomputed [`PackedAcceptTable`]
//!    (the [`AcceptTable`] ratios rescaled to `u32` thresholds, so
//!    `P(accept) = min(1, e^{−ΔS})` to within 2⁻³¹ — orders of magnitude
//!    below any statistical resolution of the estimators);
//! 4. merges all accepted flips with a single masked XOR into the word.
//!
//! # RNG lane discipline
//!
//! Every site word consumes exactly `DRAWS_PER_WORD` (32) raw draws
//! whatever the active lane count, so the stream layout is
//! model-determined: adding or removing replicas never re-times anyone's
//! variates — the contract the distributed engines keep with per-rank
//! streams. Two decisions per draw halve the RNG cost of a site word;
//! with a 64-draw stride the speedup over the old site-by-site scalar
//! loop was capped near 3.6×. Against today's colour kernel `repro bench`
//! guards ≥ 1.6×.
//!
//! # Measurement
//!
//! Observables never unpack: a [`LaneCounter`] streams the bond-equality
//! words `!(w ^ neighbour)`, transposes blocks of 64 and popcounts per
//! lane, and the counts become signed bond sums by `2·eq − n_bonds` in
//! the scalar estimator's float operation order.
//!
//! The scalar engines are untouched: their fixed-seed trajectories remain
//! bit-identical. The packed path is validated statistically — against
//! the exact-diagonalization oracle and against scalar-path means — in
//! the tests below, and its measurements are *bit-identical* to
//! [`SerialTfim::measure`](crate::serial::SerialTfim::measure) on equal
//! configurations (same integer bond sums, same float operation order).

use crate::serial::{TfimMeasurement, TfimSeries};
use crate::{AcceptTable, StCouplings, TfimModel};
use qmc_lattice::{LaneCounter, PackedLattice};
use qmc_obs::{CounterId, Registry};
use qmc_rng::Rng64;

/// Map an acceptance ratio to a `u32` threshold such that
/// `P(r ≤ thr) = (thr+1)/2³² = min(1, ratio)` for a uniform `u32` draw
/// `r`, exactly for `ratio ≥ 1` and to within 2⁻³¹ below (scaling plus
/// the saturating float→int cast). 32 random bits per decision let one
/// `u64` draw feed two lanes — that halves the RNG cost per site update,
/// and the ≤ 2⁻³¹ acceptance-probability quantization is invisible next
/// to statistical errors of order 10⁻⁴.
fn threshold(ratio: f64) -> u32 {
    if ratio >= 1.0 {
        u32::MAX
    } else {
        const TWO32: f64 = 4_294_967_296.0; // 2^32
                                            // Scaling by a power of two is exact except for the final
                                            // rounding into f64's 52-bit mantissa; the saturating cast and
                                            // the −1 keep the acceptance probability within 2⁻³¹ of the
                                            // ratio (and strictly below 1 for every ratio < 1).
        ((ratio * TWO32) as u32).saturating_sub(1)
    }
}

/// [`AcceptTable`] rescaled to integer thresholds, indexed by a 6-bit
/// pattern assembled per lane from the bit planes:
/// `idx = s | u_sp·2 | u_t·16` where `s` is the site bit, `u_sp ∈ [0, 4]`
/// the count of *up* spatial neighbours and `u_t ∈ [0, 2]` the count of
/// up temporal neighbours. Unreachable patterns hold threshold 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedAcceptTable {
    thr: [u32; 64],
}

impl PackedAcceptTable {
    /// Tabulate thresholds for a site with `spatial_neighbors` (2 on a
    /// chain, 4 on a square lattice) spatial neighbours.
    pub fn new(c: &StCouplings, spatial_neighbors: usize) -> Self {
        assert!(
            spatial_neighbors == 2 || spatial_neighbors == 4,
            "spatial_neighbors must be 2 (chain) or 4 (square)"
        );
        let scalar = AcceptTable::new(c);
        let mut thr = [0u32; 64];
        for s_bit in 0..2usize {
            let s: i8 = if s_bit == 1 { 1 } else { -1 };
            for u_sp in 0..=spatial_neighbors {
                for u_t in 0..=2usize {
                    // The signed neighbour sums of the scalar table: each
                    // down neighbour contributes −1, each up +1.
                    let sp = 2 * u_sp as i32 - spatial_neighbors as i32;
                    let tp = 2 * u_t as i32 - 2;
                    thr[s_bit | (u_sp << 1) | (u_t << 4)] = threshold(scalar.ratio(s, sp, tp));
                }
            }
        }
        Self { thr }
    }

    /// Threshold for an assembled 6-bit index.
    #[inline(always)]
    fn get(&self, idx: usize) -> u32 {
        self.thr[idx & 63]
    }
}

/// Carry-save add of two one-bit-per-lane words: `(sum, carry)` planes.
#[inline(always)]
fn sum2(a: u64, b: u64) -> (u64, u64) {
    (a ^ b, a & b)
}

/// Bit planes `(p0, p1, p2)` of the per-lane count of set bits among four
/// words (count ∈ [0, 4], so three planes suffice).
#[inline(always)]
fn sum4(a: u64, b: u64, c: u64, d: u64) -> (u64, u64, u64) {
    let (s0, c0) = sum2(a, b);
    let (s1, c1) = sum2(c, d);
    let (p0, carry) = sum2(s0, s1);
    // c0 + c1 + carry ∈ [0, 2]: c0&c1 ⇒ s0 = s1 = 0 ⇒ carry = 0, and
    // carry ⇒ s0 = s1 = 1 ⇒ c0 = c1 = 0 — so XOR/AND recover both bits.
    (p0, c0 ^ c1 ^ carry, c0 & c1)
}

/// Per-lane neighbour-count bit planes of one packed site: spatial count
/// planes `s0..s2` (value `s0 + 2·s1 + 4·s2`) and temporal planes
/// `t0, t1`.
#[derive(Clone, Copy)]
struct Planes {
    s0: u64,
    s1: u64,
    s2: u64,
    t0: u64,
    t1: u64,
}

impl Planes {
    /// Reduce neighbour words to count planes; `north`/`south` are
    /// ignored for chains (`ly == 1`).
    #[inline(always)]
    fn gather(ly: usize, east: u64, west: u64, north: u64, south: u64, up: u64, down: u64) -> Self {
        let (s0, s1, s2) = if ly > 1 {
            sum4(east, west, north, south)
        } else {
            let (a, b) = sum2(east, west);
            (a, b, 0)
        };
        let (t0, t1) = sum2(up, down);
        Self { s0, s1, s2, t0, t1 }
    }
}

/// Raw `u64` draws consumed per packed site word: two 32-bit decision
/// lanes per draw cover all 64 bit lanes. The count is independent of the
/// active lane count so the RNG stream layout is model-determined.
const DRAWS_PER_WORD: usize = 32;

/// Spread the low 8 bits of `b` to the least-significant bit of each of
/// the 8 bytes of the result (bit `k` → bit `8k`), in three shift-or-mask
/// steps. Shifting the spread planes left by 0..5 and OR-ing assembles
/// eight 6-bit table indices — one per byte — in parallel.
#[inline(always)]
fn spread8(b: u64) -> u64 {
    let mut x = b & 0xFF;
    x = (x | (x << 28)) & 0x0000_000F_0000_000F;
    x = (x | (x << 14)) & 0x0003_0003_0003_0003;
    x = (x | (x << 7)) & 0x0101_0101_0101_0101;
    x
}

/// Resolve the acceptance mask of one packed site: lane `j` compares a
/// uniform 32-bit variate (the low half of draw `rnd[j/2]` for even `j`,
/// the high half for odd `j`) against `thr(j, idx_j)`, where `idx_j` is
/// the 6-bit pattern of lane `j`'s site bit and neighbour-count planes.
/// The indices are assembled eight lanes at a time with [`spread8`] — one
/// byte per lane — instead of a per-lane shift cascade. Returns a mask
/// with bit `j` set iff lane `j` accepts; the caller merges it with one
/// XOR.
#[inline(always)]
fn resolve_word(w: u64, pl: Planes, rnd: &[u64], thr: impl Fn(usize, usize) -> u32) -> u64 {
    debug_assert_eq!(rnd.len(), DRAWS_PER_WORD);
    let mut accept = 0u64;
    for chunk in 0..8usize {
        let sh = chunk * 8;
        let idxb = spread8(w >> sh)
            | spread8(pl.s0 >> sh) << 1
            | spread8(pl.s1 >> sh) << 2
            | spread8(pl.s2 >> sh) << 3
            | spread8(pl.t0 >> sh) << 4
            | spread8(pl.t1 >> sh) << 5;
        let mut bits = 0u64;
        for half in 0..4usize {
            let r = rnd[4 * chunk + half];
            let j = 2 * half;
            let idx_lo = ((idxb >> (8 * j)) & 63) as usize;
            let idx_hi = ((idxb >> (8 * j + 8)) & 63) as usize;
            bits |= (((r as u32) <= thr(sh + j, idx_lo)) as u64) << j;
            bits |= ((((r >> 32) as u32) <= thr(sh + j + 1, idx_hi)) as u64) << (j + 1);
        }
        accept |= bits << sh;
    }
    accept
}

/// Per-lane `(up-spin, equal-spatial-bond, equal-temporal-bond)` counts
/// of a replica-packed spacetime configuration — the integer inputs to
/// every packed observable. Each site owns its `+x` (and `+y`) and `+t`
/// bonds, exactly like
/// [`SerialTfim::bond_sums`](crate::serial::SerialTfim::bond_sums).
fn lane_counts(model: &TfimModel, lat: &PackedLattice) -> ([u64; 64], [u64; 64], [u64; 64]) {
    let (lx, ly, mm) = (model.lx, model.ly, model.m);
    let slice = lx * ly;
    let mask = lat.lane_mask();
    let words = lat.words();
    let mut ups = LaneCounter::new();
    let mut speq = LaneCounter::new();
    let mut teq = LaneCounter::new();
    for t in 0..mm {
        let tslice = t * slice;
        let tup = ((t + 1) % mm) * slice;
        for y in 0..ly {
            let row = tslice + y * lx;
            let north = tslice + ((y + 1) % ly) * lx;
            for x in 0..lx {
                let w = words[row + x];
                ups.push(w);
                let xp = if x + 1 == lx { 0 } else { x + 1 };
                speq.push(!(w ^ words[row + xp]) & mask);
                if ly > 1 {
                    speq.push(!(w ^ words[north + x]) & mask);
                }
                teq.push(!(w ^ words[tup + y * lx + x]) & mask);
            }
        }
    }
    (ups.finish(), speq.finish(), teq.finish())
}

/// Assemble a per-lane measurement from the lane counts (bit-identical to
/// the scalar estimator path: same integers, same float operation order).
fn lane_measurement(
    c: &StCouplings,
    model: &TfimModel,
    up: u64,
    sp_eq: u64,
    t_eq: u64,
) -> TfimMeasurement {
    let n = model.n_sites();
    let cells = (n * model.m) as i64;
    let n_sp_bonds = cells * if model.ly > 1 { 2 } else { 1 };
    let sp = (2 * sp_eq as i64 - n_sp_bonds) as f64;
    let tt = (2 * t_eq as i64 - cells) as f64;
    let mag = (2 * up as i64 - cells) as f64 / cells as f64;
    TfimMeasurement {
        energy_per_site: c.energy(n, model.m, sp, tt) / n as f64,
        abs_m: mag.abs(),
        m2: mag * mag,
        sigma_x: c.sigma_x(n, model.m, tt),
    }
}

/// Replica-packed serial TFIM engine: up to 64 independent replicas of
/// one model advancing through a shared bitwise checkerboard sweep.
#[derive(Debug, Clone)]
pub struct PackedReplicas {
    model: TfimModel,
    c: StCouplings,
    lat: PackedLattice,
    table: PackedAcceptTable,
    /// Persistent per-site draw buffer ([`DRAWS_PER_WORD`] raw `u64`s) —
    /// the sweep performs zero heap allocations.
    rbuf: Vec<u64>,
    metrics: Registry,
    id_accepted: CounterId,
    id_proposed: CounterId,
}

impl PackedReplicas {
    /// `lanes` replicas of `model`, all starting fully aligned.
    pub fn new(model: TfimModel, lanes: usize) -> Self {
        let model = model.validated();
        let cells = model.lx * model.ly * model.m;
        let c = model.couplings();
        let k_sp = if model.ly > 1 { 4 } else { 2 };
        let mut metrics = Registry::new();
        let id_accepted = metrics.counter("tfim.accepted");
        let id_proposed = metrics.counter("tfim.proposed");
        Self {
            model,
            c,
            lat: PackedLattice::new(cells, lanes),
            table: PackedAcceptTable::new(&c, k_sp),
            rbuf: vec![0; DRAWS_PER_WORD],
            metrics,
            id_accepted,
            id_proposed,
        }
    }

    /// Metropolis proposals accepted across all lanes (`tfim.accepted`).
    pub fn accepted(&self) -> u64 {
        self.metrics.value(self.id_accepted)
    }

    /// Metropolis proposals made across all lanes (`tfim.proposed`).
    pub fn proposed(&self) -> u64 {
        self.metrics.value(self.id_proposed)
    }

    /// Fraction of proposals accepted so far.
    pub fn acceptance_rate(&self) -> f64 {
        self.accepted() as f64 / self.proposed().max(1) as f64
    }

    /// One bitwise checkerboard Metropolis sweep over every lane: the
    /// site visit order matches
    /// [`SerialTfim::metropolis_sweep`](crate::serial::SerialTfim::metropolis_sweep);
    /// each site consumes `DRAWS_PER_WORD` raw draws through one batched
    /// [`Rng64::fill_u64`] call and resolves all lanes branch-free.
    #[qmc_hot::hot]
    pub fn metropolis_sweep<R: Rng64>(&mut self, rng: &mut R) {
        let _span = qmc_obs::span("tfim.packed_sweep");
        let m = self.model;
        let (lx, ly, mm) = (m.lx, m.ly, m.m);
        let slice = lx * ly;
        let lanes = self.lat.lanes();
        let lane_mask = self.lat.lane_mask();
        let table = self.table;
        let rbuf = &mut self.rbuf[..DRAWS_PER_WORD];
        let words = self.lat.words_mut();
        let mut accepted = 0u64;
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
                        let w = words[i];
                        let pl = Planes::gather(
                            ly,
                            words[row + xp],
                            words[row + xm],
                            words[north + x],
                            words[south + x],
                            words[up + y * lx + x],
                            words[down + y * lx + x],
                        );
                        rng.fill_u64(rbuf);
                        let flip = resolve_word(w, pl, rbuf, |_, idx| table.get(idx)) & lane_mask;
                        words[i] = w ^ flip;
                        accepted += u64::from(flip.count_ones());
                    }
                }
            }
        }
        self.metrics
            .add(self.id_proposed, (slice * mm * lanes) as u64);
        self.metrics.add(self.id_accepted, accepted);
    }

    /// Measure every lane into `out` (cleared first). Per-lane bond sums
    /// come from 64×64 bit transposes plus popcounts, and each entry is
    /// bit-identical to
    /// [`SerialTfim::measure`](crate::serial::SerialTfim::measure) on the
    /// same configuration.
    pub fn measure_into(&self, out: &mut Vec<TfimMeasurement>) {
        let _span = qmc_obs::span("tfim.packed_measure");
        out.clear();
        let (ups, sps, tts) = lane_counts(&self.model, &self.lat);
        for lane in 0..self.lat.lanes() {
            out.push(lane_measurement(
                &self.c,
                &self.model,
                ups[lane],
                sps[lane],
                tts[lane],
            ));
        }
    }

    /// Thermalize then record `sweeps` measurements per lane.
    pub fn run<R: Rng64>(&mut self, rng: &mut R, therm: usize, sweeps: usize) -> Vec<TfimSeries> {
        for _ in 0..therm {
            self.metropolis_sweep(rng);
        }
        let mut series: Vec<TfimSeries> = (0..self.lat.lanes())
            .map(|_| TfimSeries::default())
            .collect();
        let mut meas = Vec::with_capacity(self.lat.lanes());
        for _ in 0..sweeps {
            self.metropolis_sweep(rng);
            self.measure_into(&mut meas);
            for (s, m) in series.iter_mut().zip(&meas) {
                s.record(m);
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialTfim;
    use qmc_rng::Xoshiro256StarStar;
    use qmc_stats::BinningAnalysis;

    fn chain(lx: usize, h: f64, beta: f64, m: usize) -> TfimModel {
        TfimModel {
            lx,
            ly: 1,
            j: 1.0,
            h,
            beta,
            m,
        }
    }

    fn square(l: usize, h: f64, beta: f64, m: usize) -> TfimModel {
        TfimModel {
            lx: l,
            ly: l,
            j: 1.0,
            h,
            beta,
            m,
        }
    }

    /// Pool per-lane series: mean of lane means, error from per-lane
    /// binning errors of independent lanes.
    fn pooled(series: &[TfimSeries], field: fn(&TfimSeries) -> &Vec<f64>) -> (f64, f64) {
        let n = series.len() as f64;
        let mut mean = 0.0;
        let mut var = 0.0;
        for s in series {
            let b = BinningAnalysis::new(field(s), 16);
            mean += b.mean;
            var += b.error().powi(2);
        }
        (mean / n, var.sqrt() / n)
    }

    #[test]
    fn threshold_maps_ratios_to_u32_compare() {
        assert_eq!(threshold(1.0), u32::MAX);
        assert_eq!(threshold(2.5), u32::MAX);
        // P(r ≤ thr(0.5)) = (thr+1)/2^32 = 0.5 exactly.
        assert_eq!(threshold(0.5), (1u32 << 31) - 1);
        assert_eq!(threshold(0.0), 0);
        assert!(threshold(0.25) < threshold(0.5));
        // Ratios just below 1 stay strictly below certain acceptance.
        assert!(threshold(1.0 - 1e-12) < u32::MAX);
    }

    /// The byte-spread fast path of [`resolve_word`] reproduces, bit for
    /// bit, the naive per-lane reference: lane `j` takes the low half of
    /// draw `j/2` when even, the high half when odd (the RNG lane
    /// discipline), indexed by its own 6-bit plane pattern.
    #[test]
    fn resolve_word_matches_per_lane_reference() {
        let mut rng = Xoshiro256StarStar::new(99);
        let mut draws = [0u64; DRAWS_PER_WORD];
        // Per-(lane, idx) thresholds spanning the full u32 range.
        let thr =
            |j: usize, idx: usize| ((j as u32) << 26) ^ ((idx as u32).wrapping_mul(0x0421_1593));
        for trial in 0..64 {
            let w = rng.next_u64();
            let pl = Planes {
                s0: rng.next_u64(),
                s1: rng.next_u64(),
                s2: rng.next_u64(),
                t0: rng.next_u64(),
                t1: rng.next_u64(),
            };
            rng.fill_u64(&mut draws);
            let fast = resolve_word(w, pl, &draws, thr);
            let mut expect = 0u64;
            for j in 0..64usize {
                let idx = (((w >> j) & 1)
                    | ((pl.s0 >> j) & 1) << 1
                    | ((pl.s1 >> j) & 1) << 2
                    | ((pl.s2 >> j) & 1) << 3
                    | ((pl.t0 >> j) & 1) << 4
                    | ((pl.t1 >> j) & 1) << 5) as usize;
                let r = if j % 2 == 0 {
                    draws[j / 2] as u32
                } else {
                    (draws[j / 2] >> 32) as u32
                };
                expect |= ((r <= thr(j, idx)) as u64) << j;
            }
            assert_eq!(fast, expect, "trial {trial}");
        }
    }

    #[test]
    fn packed_table_matches_scalar_ratios_over_reachable_domain() {
        for (model, k_sp) in [(chain(8, 1.3, 1.7, 8), 2), (square(4, 2.0, 1.0, 8), 4)] {
            let c = model.couplings();
            let scalar = AcceptTable::new(&c);
            let packed = PackedAcceptTable::new(&c, k_sp);
            for s_bit in 0..2usize {
                let s: i8 = if s_bit == 1 { 1 } else { -1 };
                for u_sp in 0..=k_sp {
                    for u_t in 0..=2usize {
                        let sp = 2 * u_sp as i32 - k_sp as i32;
                        let tp = 2 * u_t as i32 - 2;
                        let idx = s_bit | (u_sp << 1) | (u_t << 4);
                        assert_eq!(
                            packed.get(idx),
                            threshold(scalar.ratio(s, sp, tp)),
                            "s={s} u_sp={u_sp} u_t={u_t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sum4_planes_encode_exact_counts() {
        // Exhaustive over all 16 per-lane input combinations, replicated
        // across lanes with different alignment.
        for pattern in 0..16u64 {
            let a = if pattern & 1 != 0 { !0u64 } else { 0 };
            let b = if pattern & 2 != 0 { !0u64 } else { 0 };
            let c = if pattern & 4 != 0 { !0u64 } else { 0 };
            let d = if pattern & 8 != 0 { !0u64 } else { 0 };
            let (p0, p1, p2) = sum4(a, b, c, d);
            let expect = pattern.count_ones() as u64;
            let got = (p0 & 1) + 2 * (p1 & 1) + 4 * (p2 & 1);
            assert_eq!(got, expect, "pattern {pattern:04b}");
        }
    }

    /// Scalar configurations packed one per lane, at sizes not divisible
    /// by 64, single-replica worlds, and odd y/t extents (the
    /// checkerboard parity cases): every lane unpacks to exactly what was
    /// packed, and measures bit for bit what the scalar engine measures.
    #[test]
    fn pack_unpack_roundtrip_and_bitwise_measure_agreement() {
        for (model, lanes) in [
            (chain(6, 1.2, 1.3, 6), 5),    // 36 cells: not divisible by 64
            (chain(4, 0.7, 2.0, 16), 1),   // single-replica world
            (square(4, 1.5, 1.0, 4), 3),   // 64 cells: exactly one block
            (chain(10, 2.0, 0.7, 26), 64), // 260 cells: 4 blocks + tail
        ] {
            // Scramble each scalar engine differently.
            let mut engines: Vec<SerialTfim> = (0..lanes).map(|_| SerialTfim::new(model)).collect();
            for (k, eng) in engines.iter_mut().enumerate() {
                let mut rng = Xoshiro256StarStar::new(1000 + k as u64);
                for _ in 0..8 {
                    eng.metropolis_sweep(&mut rng);
                }
            }

            let mut packed = PackedReplicas::new(model, lanes);
            for (lane, eng) in engines.iter().enumerate() {
                packed.lat.pack_lane(lane, eng.export_spins());
            }
            let mut back = vec![0i8; packed.lat.cells()];
            for (lane, eng) in engines.iter().enumerate() {
                packed.lat.unpack_lane(lane, &mut back);
                assert_eq!(&back[..], eng.export_spins());
            }

            // Bitwise measurement agreement per configuration.
            let mut meas = Vec::new();
            packed.measure_into(&mut meas);
            for (eng, pm) in engines.iter().zip(&meas) {
                let sm = eng.measure();
                assert_eq!(sm.energy_per_site.to_bits(), pm.energy_per_site.to_bits());
                assert_eq!(sm.abs_m.to_bits(), pm.abs_m.to_bits());
                assert_eq!(sm.m2.to_bits(), pm.m2.to_bits());
                assert_eq!(sm.sigma_x.to_bits(), pm.sigma_x.to_bits());
            }
        }
    }

    #[test]
    fn packed_replicas_match_ed_pooled() {
        // 16 replicas of the L=4 near-critical chain, pooled against the
        // exact-diagonalization oracle.
        let model = chain(4, 1.0, 1.0, 16);
        let mut packed = PackedReplicas::new(model, 16);
        let mut rng = Xoshiro256StarStar::new(42);
        let series = packed.run(&mut rng, 1500, 4000);

        let lat = qmc_lattice::Chain::new(4);
        let exact = qmc_ed::tfim::thermal(&lat, &qmc_ed::tfim::TfimParams { j: 1.0, h: 1.0 }, 1.0);
        let (e, de) = pooled(&series, |s| &s.energy);
        let trotter = (1.0f64 / 16.0).powi(2) * 2.0;
        assert!(
            (e - exact.energy / 4.0).abs() < 4.0 * de.max(2e-4) + trotter,
            "E {e} ± {de} vs {}",
            exact.energy / 4.0
        );
        let (sx, dsx) = pooled(&series, |s| &s.sigma_x);
        assert!(
            (sx - exact.sx).abs() < 4.0 * dsx.max(2e-4) + trotter,
            "σx {sx} ± {dsx} vs {}",
            exact.sx
        );
        let rate = packed.acceptance_rate();
        assert!(rate > 0.05 && rate < 0.95, "acceptance {rate}");
    }

    #[test]
    fn packed_square_lattice_matches_scalar_means() {
        // 2-D model: packed (4 spatial neighbours → sum4 path) vs the
        // scalar engine, distribution level.
        let model = square(4, 2.5, 1.0, 8);
        let mut packed = PackedReplicas::new(model, 8);
        let mut rng = Xoshiro256StarStar::new(7);
        let pseries = packed.run(&mut rng, 800, 3000);
        let (pe, pde) = pooled(&pseries, |s| &s.energy);

        let mut scalar = SerialTfim::new(model);
        let mut srng = Xoshiro256StarStar::new(8);
        let sseries = scalar.run(&mut srng, 1500, 15_000, 0);
        let bs = BinningAnalysis::new(&sseries.energy, 16);
        let err = (pde.powi(2) + bs.error().powi(2)).sqrt().max(5e-4);
        assert!(
            (pe - bs.mean).abs() < 5.0 * err,
            "packed {pe} ± {pde} vs scalar {} ± {}",
            bs.mean,
            bs.error()
        );
    }
}
