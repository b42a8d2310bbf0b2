//! Committed trajectory pins for the TFIM, world-line and SSE engines.
//!
//! Every TFIM row is a fixed-seed run reduced to five numbers: an FNV-1a
//! fingerprint of the `energy` / `m2` series bits, one of the final spins
//! (for `DistTfim` the whole ghost-padded block of every rank, in rank
//! order), the raw draws served, and the accepted / proposed counters.
//! The literals were recorded on the site-by-site Metropolis loops of
//! commit 9079f3b, before the colour kernel existed, so a kernel PR is
//! judged against committed numbers and not only against an oracle that
//! lives in the same diff. A literal is never edited to make a kernel
//! change pass: a mismatch means the change moved a draw or a decision.
//!
//! The world-line rows were recorded the same way on commit 9486c87,
//! before the chain engine's table-driven replica step: `Worldline` and
//! `GenericWorldline` (whose moves that step leaves alone — pinned so its
//! own kernel change starts pinned) reduced to a fingerprint of every
//! sweep's measurement and log-weight bits, one of the final spins, the
//! raw draws served and the move counters; the serial and the threaded
//! parallel-tempering drivers to every rung's energy bits, the swap-rate
//! bits and the draws. The chain rows at `l = 66` and `l = 130` and the
//! threaded row at `l = 66` were added on commit c30e049, before the
//! chain engine packed its rows into words, so the multi-word path was
//! pinned by the bool-row kernel it replaced.
//!
//! The SSE rows were recorded on commit 5a8d861, before the sweep walked
//! an occupied-slot list: `Sse::run` (thermalization with cutoff growth,
//! then recorded sweeps) reduced to every sweep's measurement bits, the
//! correlation means, the final basis state and operator string as their
//! checkpoint sections hold them, the cutoff and the raw draws served.
//!
//! The `PackedReplicas` row was recorded on commit 9114e64, where the
//! only fix on that trajectory was the packed checkpoint layout pin: it
//! is that pin's run, through `PackedReplicas::run` instead of the
//! checkpointed driver, recorded before the pin was deleted with the
//! engine's checkpoint support.

use qmc_comm::{run_threads, Communicator};
use qmc_core::pt::{run_pt_parallel, PtConfig, PtLadder};
use qmc_lattice::{Chain, Lattice, Square};
use qmc_rng::{CountingRng, StreamFactory, Xoshiro256StarStar};
use qmc_sse::Sse;
use qmc_tfim::packed::PackedReplicas;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::{SerialTfim, TfimSeries};
use qmc_tfim::TfimModel;
use qmc_worldline::estimators::{measure, Measurement};
use qmc_worldline::weights::PlaqWeights;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};
use std::fmt;

/// FNV-1a over a stream of 64-bit words, little-endian byte order.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn spins(&mut self, spins: impl Iterator<Item = i8>) {
        for s in spins {
            self.word(s as u8 as u64);
        }
    }

    fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn measurement(&mut self, m: &Measurement) {
        self.f64s([
            m.energy_per_site,
            m.denergy_per_site,
            m.magnetization,
            m.staggered,
        ]);
    }
}

fn series_fp(series: &TfimSeries) -> u64 {
    let mut f = Fnv::new();
    for (e, m2) in series.energy.iter().zip(&series.m2) {
        f.word(e.to_bits());
        f.word(m2.to_bits());
    }
    f.0
}

/// What a run is reduced to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    series: u64,
    spins: u64,
    draws: u64,
    accepted: u64,
    proposed: u64,
}

const fn pin(series: u64, spins: u64, draws: u64, accepted: u64, proposed: u64) -> Pin {
    Pin {
        series,
        spins,
        draws,
        accepted,
        proposed,
    }
}

/// A pin prints as the source text of its literal.
impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pin({:#018x}, {:#018x}, {}, {}, {})",
            self.series, self.spins, self.draws, self.accepted, self.proposed
        )
    }
}

const fn model(lx: usize, ly: usize, h: f64, beta: f64, m: usize) -> TfimModel {
    TfimModel {
        lx,
        ly,
        j: 1.0,
        h,
        beta,
        m,
    }
}

/// `(model, seed, thermalization, recorded sweeps, Wolff per sweep)`.
type SerialCase = (TfimModel, u64, usize, usize, usize, Pin);

#[rustfmt::skip]
const SERIAL: &[SerialCase] = &[
    (model(4, 1, 1.0, 1.0, 8), 11, 10, 40, 0, pin(0x2ae7cef9dc965b73, 0x2b9870e7cd4c7ea5, 1492, 168, 1600)),
    (model(4, 1, 0.7, 2.0, 16), 12, 10, 40, 2, pin(0xf83ae52f64d094e5, 0xf4e50de5975ac45b, 12748, 155, 3200)),
    (model(6, 1, 1.3, 1.7, 6), 13, 10, 40, 1, pin(0x1cc3a5debe5f063a, 0xfd823e0606b022e5, 3303, 433, 1800)),
    (model(64, 1, 1.0, 16.0, 128), 14, 5, 20, 1, pin(0x490d161422f6bdfb, 0xad4605eae713191b, 342008, 21394, 204800)),
    (model(64, 1, 1.0, 4.0, 16), 15, 5, 20, 0, pin(0x4c81d2432d7d222e, 0x0f12d1a2472cb81b, 23311, 3561, 25600)),
    (model(64, 1, 0.4, 2.0, 8), 16, 5, 20, 2, pin(0x1e589ea872cb780a, 0xfee5d8716048c0e5, 39129, 250, 12800)),
    (model(4, 4, 2.0, 1.0, 8), 17, 10, 40, 0, pin(0x4c795263d51363f3, 0xeb326e7ac01781e5, 6028, 734, 6400)),
    (model(6, 4, 3.0, 1.5, 6), 18, 10, 40, 1, pin(0xf56ae76b50c0a293, 0xbc7827d0378bcedb, 14179, 2076, 7200)),
    (model(6, 6, 2.5, 1.0, 4), 19, 10, 40, 2, pin(0x9c97675b88b79d60, 0xd486ab794f18149b, 29009, 1369, 7200)),
    (model(64, 4, 3.044, 2.0, 8), 20, 3, 12, 1, pin(0x400e9bccf44d89a5, 0x7be22d60cdf747db, 49040, 9026, 30720)),
    (model(64, 64, 3.044, 2.0, 32), 21, 2, 6, 0, pin(0x17f555d49edab53d, 0xadf3e2eb2794189b, 974020, 153027, 1048576)),
    // Wolff-heavy rows, recorded on commit 7b1396d, before the cluster
    // move stepped by index arithmetic: two slices (a site's up and down
    // neighbours are one site), the narrowest chain, widths that are no
    // power of two, squares with ly != lx at three clusters a sweep, an
    // ordered point (the cluster is nearly the lattice: deepest stack) and
    // a disordered one (nearly every cluster is its seed).
    (model(4, 1, 1.0, 0.5, 2), 22, 10, 40, 3, pin(0x5080eb438fd90d1b, 0x77ddf87b1260f95b, 1587, 30, 400)),
    (model(8, 1, 0.6, 1.0, 2), 23, 10, 40, 2, pin(0x65c9ab10ebf84a1f, 0xe7bd443d38499225, 2358, 57, 800)),
    (model(4, 4, 1.5, 0.5, 2), 24, 10, 40, 2, pin(0xd5cf90733b746729, 0xa26a269578cf0125, 6201, 164, 1600)),
    (model(4, 1, 1.0, 4.0, 32), 25, 10, 40, 2, pin(0x514c3ea3404b1008, 0x9b2ef2213b3742e5, 20985, 642, 6400)),
    (model(6, 1, 1.0, 3.0, 12), 26, 10, 40, 2, pin(0xf3495733cf5a95a8, 0xb93230ce5b0f319b, 11071, 511, 3600)),
    (model(10, 1, 0.9, 2.5, 10), 27, 10, 40, 2, pin(0x8e3f2e5f2a7997f1, 0xae664003989d921b, 15951, 571, 5000)),
    (model(10, 4, 2.5, 1.5, 6), 28, 10, 40, 3, pin(0x086b1df95b5be37d, 0xe5421eadce3fb6e5, 73496, 2027, 12000)),
    (model(4, 6, 2.0, 2.0, 8), 29, 10, 40, 3, pin(0x4a007872d6137a9a, 0xd4f33d08ab02f4db, 60464, 986, 9600)),
    (model(6, 10, 3.044, 1.0, 4), 30, 10, 40, 3, pin(0x34d16e77aecec91d, 0x7aeadf1b80f1cd25, 54532, 3423, 12000)),
    (model(16, 1, 0.1, 4.0, 16), 31, 10, 40, 2, pin(0xd832d85847876813, 0xf3686360e9e9b325, 51284, 7, 12800)),
    (model(64, 1, 0.2, 8.0, 32), 32, 5, 20, 1, pin(0x703779a7cd3d4567, 0x0d22dac57879efa5, 129583, 159, 51200)),
    (model(6, 6, 0.5, 2.0, 8), 33, 10, 40, 2, pin(0xd007fb7d7633441d, 0x62fe7ce4d8a6a525, 67184, 90, 14400)),
    (model(16, 1, 100.0, 0.2, 8), 34, 10, 40, 2, pin(0x5e1b65b63dcabca0, 0x008b9eb6be74d35b, 2932, 6187, 6400)),
    (model(8, 4, 60.0, 0.3, 6), 35, 10, 40, 3, pin(0x73cf453fb85117f6, 0x25e0a511e61c77e5, 5182, 8819, 9600)),
];

fn run_serial(&(model, seed, therm, sweeps, wolff, _): &SerialCase) -> Pin {
    let mut eng = SerialTfim::new(model);
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let series = eng.run(&mut rng, therm, sweeps, wolff);
    let mut spins = Fnv::new();
    spins.spins(eng.export_spins().iter().copied());
    Pin {
        series: series_fp(&series),
        spins: spins.0,
        draws: rng.draws,
        accepted: eng.accepted(),
        proposed: eng.proposed(),
    }
}

/// `(model, ranks, seed, thermalization, recorded sweeps)`. The grid is
/// `grid_for`'s: chains split along x, squares most nearly square, so
/// P = 2 and 3 on a square are `P × 1` grids whose y direction wraps onto
/// the rank itself, and P = 1 wraps both.
type DistCase = (TfimModel, usize, u64, usize, usize, Pin);

#[rustfmt::skip]
const DIST: &[DistCase] = &[
    // Chains: self-wrap, even, odd (4, 3, 3) and 3-wide blocks.
    (model(10, 1, 1.0, 1.0, 4), 1, 31, 10, 40, pin(0x6b6829ff2992e51e, 0x1813f27702026a65, 1863, 225, 2000)),
    (model(8, 1, 1.0, 1.0, 8), 2, 32, 10, 40, pin(0x58782f7d165718ce, 0xf01331e3107e6925, 2901, 434, 3200)),
    (model(10, 1, 1.2, 1.5, 4), 3, 33, 10, 40, pin(0x82a58b9a127af143, 0x4fed04a24303279b, 1703, 459, 2000)),
    (model(12, 1, 0.8, 2.0, 6), 4, 34, 10, 40, pin(0xdc1945532e3b0b20, 0x154c2a79d5449465, 3509, 175, 3600)),
    (model(4, 1, 1.0, 1.0, 4), 4, 35, 10, 40, pin(0x57d5415c8e75bfb7, 0xa66a1fdce6bfeb5b, 749, 97, 800)),
    // Squares: both directions self-wrapped, 3 × 6 blocks (odd width),
    // 2-wide blocks, 8 × 8 / 6 × 6 / 2 × 2 blocks on a 2 × 2 grid.
    (model(8, 8, 2.0, 1.0, 4), 1, 36, 5, 20, pin(0x6bfe9071944a492e, 0xe1f955aef262d7a5, 6072, 631, 6400)),
    (model(6, 6, 2.5, 1.0, 4), 2, 37, 10, 40, pin(0x010b67c77cea8a2d, 0x86be38c602fa77e5, 6427, 1421, 7200)),
    (model(6, 10, 3.0, 1.5, 4), 3, 38, 10, 40, pin(0xebd0e2d6e7680d3d, 0x06da10f0ebcb38e5, 11171, 1615, 12000)),
    (model(16, 16, 2.0, 1.0, 8), 4, 39, 5, 20, pin(0x27ec4f7537345c61, 0xccf2ef6e9da90b9b, 48236, 5733, 51200)),
    (model(12, 12, 3.044, 2.0, 6), 4, 40, 5, 20, pin(0x2f4b10a3479deae4, 0x708586936d805065, 19752, 3574, 21600)),
    (model(4, 4, 2.0, 1.0, 8), 4, 41, 10, 40, pin(0xd9357a25898c721c, 0x9704060ddefe7fdb, 5973, 789, 6400)),
    // The benchmark's `tfim2d_halo` model on two ranks.
    (model(64, 64, 3.044, 2.0, 32), 2, 42, 2, 6, pin(0x34645d048ff7b188, 0xb5ff187b8d82eae5, 972230, 155724, 1048576)),
];

fn run_dist(&(model, ranks, seed, therm, sweeps, _): &DistCase) -> Pin {
    let per_rank = run_threads(ranks, move |comm| {
        let mut eng = DistTfim::new(model, comm);
        let mut rng = CountingRng::new(StreamFactory::new(seed).stream(comm.rank()));
        let series = eng.run(comm, &mut rng, therm, sweeps);
        let sub = eng.subdomain();
        let mut block = Vec::with_capacity(sub.padded_len() * model.m);
        for t in 0..model.m {
            for iy in -1..=sub.h as isize {
                for ix in -1..=sub.w as isize {
                    block.push(eng.ghost(t, ix, iy));
                }
            }
        }
        (
            series_fp(&series),
            block,
            rng.draws,
            eng.accepted(),
            eng.proposed(),
        )
    });
    let mut spins = Fnv::new();
    let mut out = pin(per_rank[0].0, 0, 0, 0, 0);
    for (series, block, draws, accepted, proposed) in &per_rank {
        assert_eq!(*series, out.series, "the series is collective");
        spins.spins(block.iter().copied());
        out.draws += draws;
        out.accepted += accepted;
        out.proposed += proposed;
    }
    out.spins = spins.0;
    out
}

/// Runs every case and reports all mismatches at once, as source lines.
fn check<C: fmt::Debug, P: PartialEq + fmt::Display>(
    cases: &[C],
    run: impl Fn(&C) -> P,
    want: impl Fn(&C) -> P,
) {
    let mut wrong = String::new();
    for (k, case) in cases.iter().enumerate() {
        let got = run(case);
        if got != want(case) {
            wrong += &format!("\n  case {k}: {got} from {case:?}");
        }
    }
    assert!(wrong.is_empty(), "fixed-seed trajectories moved:{wrong}");
}

#[test]
fn serial_tfim_trajectories_match_their_pins() {
    check(SERIAL, run_serial, |c| c.5);
}

#[test]
fn dist_tfim_trajectories_match_their_pins() {
    check(DIST, run_dist, |c| c.5);
}

/// What a replica-packed run is reduced to: every lane's energy and σˣ
/// bits, lane after lane, the raw draws served, and the accepted /
/// proposed counters summed over lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedPin {
    series: u64,
    draws: u64,
    accepted: u64,
    proposed: u64,
}

impl fmt::Display for PackedPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PackedPin {{ series: {:#018x}, draws: {}, accepted: {}, proposed: {} }}",
            self.series, self.draws, self.accepted, self.proposed
        )
    }
}

/// `(model, lanes, seed, thermalization, recorded sweeps)`.
type PackedCase = (TfimModel, usize, u64, usize, usize, PackedPin);

#[rustfmt::skip]
const PACKED: &[PackedCase] = &[
    (model(4, 4, 2.0, 1.0, 4), 5, 102, 20, 150, PackedPin { series: 0x1a4db38f5aafbf79, draws: 348160, accepted: 5980, proposed: 54400 }),
];

fn run_packed(&(model, lanes, seed, therm, sweeps, _): &PackedCase) -> PackedPin {
    let mut eng = PackedReplicas::new(model, lanes);
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let mut series = Fnv::new();
    for lane in eng.run(&mut rng, therm, sweeps) {
        series.f64s(lane.energy.iter().chain(&lane.sigma_x).copied());
    }
    PackedPin {
        series: series.0,
        draws: rng.draws,
        accepted: eng.accepted(),
        proposed: eng.proposed(),
    }
}

#[test]
fn packed_replicas_trajectory_matches_its_pin() {
    check(PACKED, run_packed, |c| c.5);
}

/// What a world-line run is reduced to; `counters` in the order the
/// engine checkpoints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WlPin<const N: usize> {
    series: u64,
    spins: u64,
    draws: u64,
    counters: [u64; N],
}

const fn wl<const N: usize>(series: u64, spins: u64, draws: u64, counters: [u64; N]) -> WlPin<N> {
    WlPin {
        series,
        spins,
        draws,
        counters,
    }
}

impl<const N: usize> fmt::Display for WlPin<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wl({:#018x}, {:#018x}, {}, {:?})",
            self.series, self.spins, self.draws, self.counters
        )
    }
}

/// `((l, m, jx, jz, β), seed, sweeps)`: every sweep is fingerprinted, from
/// the Néel start on.
type ChainCase = ((usize, usize, f64, f64, f64), u64, usize, WlPin<4>);

#[rustfmt::skip]
const CHAIN: &[ChainCase] = &[
    // The benchmark's `pt_xxz_ckpt` rung shape at its two hottest rungs.
    ((32, 32, 1.0, 1.0, 2.0), 51, 200, wl(0x8968a75969ee9c9c, 0xe7d70652d4d3d6e5, 155261, [5240, 148354, 2159, 6400])),
    ((32, 32, 1.0, 1.0, 2.4), 52, 200, wl(0x5a553a432bc1107d, 0x4572de0ffed11e25, 155598, [6960, 150587, 1438, 6400])),
    // The smallest chain (every neighbour index wraps), odd m, XXZ both ways.
    ((4, 2, 1.0, 0.7, 1.3), 53, 400, wl(0x7dfb1a2624644ac8, 0xfcd805606911ac25, 3917, [308, 1835, 1036, 1600])),
    ((6, 3, 1.0, 1.0, 1.5), 54, 400, wl(0x3629822b0e993e5f, 0x5a0b7a7d8571b7a5, 7886, [744, 4488, 1215, 2400])),
    ((8, 4, 0.6, 1.0, 1.0), 55, 400, wl(0x89081e2f0283a382, 0x5f6cdb634debc725, 12188, [194, 7904, 2305, 3200])),
    ((16, 8, 1.0, 0.3, 4.0), 56, 300, wl(0xd77deb4386ff43f2, 0xb5d83f186915f325, 24090, [7405, 23363, 853, 4800])),
    ((64, 16, 1.0, 1.0, 1.0), 57, 150, wl(0x445b7fd32974804e, 0xc9261d28c406a325, 110163, [2164, 96280, 6411, 9600])),
    // Rows past one word: a second word holding two columns, and three
    // words with the periodic seam inside a partial one.
    ((66, 8, 1.0, 1.0, 1.0), 58, 150, wl(0xa69a79f14931dede, 0x0917d8395728d525, 63444, [1994, 49404, 6604, 9900])),
    ((130, 6, 1.0, 0.8, 1.5), 59, 100, wl(0x50c5fd8f31f2a14e, 0xd6a26b984e437665, 64941, [5121, 48661, 7351, 13000])),
];

fn run_chain(&((l, m, jx, jz, beta), seed, sweeps, _): &ChainCase) -> WlPin<4> {
    let mut eng = Worldline::new(WorldlineParams { l, jx, jz, beta, m });
    // A neighbouring rung's table, as an exchange phase evaluates it.
    let other = PlaqWeights::new(jx, jz, 1.2 * beta / m as f64);
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let mut series = Fnv::new();
    for _ in 0..sweeps {
        eng.sweep(&mut rng);
        series.measurement(&measure(&eng));
        series.f64s([eng.log_weight(), eng.log_weight_with(&other)]);
    }
    let mut spins = Fnv::new();
    spins.spins(eng.export_spins().iter().map(|&s| s as i8));
    WlPin {
        series: series.0,
        spins: spins.0,
        draws: rng.draws,
        counters: [
            eng.local_accepted,
            eng.local_proposed,
            eng.straight_accepted,
            eng.straight_proposed,
        ],
    }
}

/// `((jx, jz, β, m), seed, sweeps)` on a lattice given per test.
type GenericCase = ((f64, f64, f64, usize), u64, usize, WlPin<6>);

#[rustfmt::skip]
const GENERIC_SQUARE_4X4: &[GenericCase] = &[
    ((1.0, 1.0, 1.0, 4), 61, 120, wl(0xd1a7c627a689baa3, 0xbae06c8064c6d525, 15919, [607, 8762, 26, 15360, 936, 1920])),
    ((1.0, 0.5, 2.0, 3), 62, 120, wl(0x5a359eac5c14103b, 0xf8947c9cae1dac65, 9440, [1237, 4757, 397, 11520, 514, 1920])),
];

#[rustfmt::skip]
const GENERIC_CHAIN_8: &[GenericCase] = &[
    ((1.0, 1.0, 1.0, 4), 63, 300, wl(0xa52babf4f08c7c5b, 0x8fd71b735872a2e5, 9125, [457, 5684, 0, 0, 1678, 2400])),
    ((0.6, 1.0, 2.0, 8), 64, 300, wl(0xa5f184275ae9d26d, 0x0422282e5bc9ab25, 17175, [774, 13865, 0, 0, 1011, 2400])),
];

fn run_generic<L: Lattice>(
    lattice: L,
    &((jx, jz, beta, m), seed, sweeps, _): &GenericCase,
) -> WlPin<6> {
    let n = lattice.num_sites();
    let mut eng = GenericWorldline::new(lattice, GenericParams { jx, jz, beta, m });
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let mut series = Fnv::new();
    for _ in 0..sweeps {
        eng.sweep(&mut rng);
        series.measurement(&eng.measure());
        series.f64s([eng.log_weight()]);
    }
    let mut spins = Fnv::new();
    for row in 0..eng.rows() {
        spins.spins((0..n).map(|site| eng.spin(site, row) as i8));
    }
    WlPin {
        series: series.0,
        spins: spins.0,
        draws: rng.draws,
        counters: [
            eng.window_accepted,
            eng.window_proposed,
            eng.ring_accepted,
            eng.ring_proposed,
            eng.straight_accepted,
            eng.straight_proposed,
        ],
    }
}

/// What a tempering run is reduced to: every rung's energy series in rung
/// order, the pair swap rates, and the draws of every generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PtPin {
    energies: u64,
    rates: u64,
    draws: u64,
}

const fn pt(energies: u64, rates: u64, draws: u64) -> PtPin {
    PtPin {
        energies,
        rates,
        draws,
    }
}

impl fmt::Display for PtPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pt({:#018x}, {:#018x}, {})",
            self.energies, self.rates, self.draws
        )
    }
}

/// `((l, m, jx, jz), β of the hottest rung, rungs, seed, thermalization,
/// recorded sweeps, exchange_every)`; adjacent rungs are a factor 1.2
/// apart, as in the benchmark's ladder. The serial ladder always has four
/// rungs; the threaded one runs a rung per rank.
type PtCase = (
    (usize, usize, f64, f64),
    f64,
    usize,
    u64,
    usize,
    usize,
    usize,
    PtPin,
);

fn ladder(beta0: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|k| beta0 * 1.2f64.powi(k as i32)).collect()
}

/// `rates` folds in `round_trips`. The first two rows' `rates` were
/// re-recorded when `PtLadder` stopped counting a walker's first
/// top→bottom walk as a round trip; their `energies` and `draws` are the
/// original literals, and the third row completes no round trip either way.
#[rustfmt::skip]
const PT_SERIAL: &[PtCase] = &[
    ((8, 8, 1.0, 1.0), 0.5, 4, 71, 20, 120, 2, pt(0x7d1c6ee6d4f209ba, 0xbe038995c18068b0, 27752)),
    ((16, 8, 1.0, 0.5), 1.0, 4, 72, 20, 80, 1, pt(0xd11d982e3038f3e9, 0x69fc5c1d2291ea54, 38236)),
    ((32, 32, 1.0, 1.0), 2.0, 4, 73, 6, 30, 2, pt(0xa4ebb7e05ef834ce, 0x9b448a0e96633250, 116585)),
];

fn run_pt_serial(&((l, m, jx, jz), beta0, rungs, seed, therm, sweeps, every, _): &PtCase) -> PtPin {
    let mut pt = PtLadder::new(l, jx, jz, m, ladder(beta0, rungs));
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let series = pt.run(&mut rng, therm, sweeps, every);
    let mut energies = Fnv::new();
    for rung in &series {
        energies.f64s(rung.iter().copied());
    }
    let mut rates = Fnv::new();
    rates.f64s((0..rungs - 1).map(|k| pt.stats().rate(k)));
    rates.word(pt.stats().round_trips);
    PtPin {
        energies: energies.0,
        rates: rates.0,
        draws: rng.draws,
    }
}

#[rustfmt::skip]
const PT_THREADS: &[PtCase] = &[
    ((8, 8, 1.0, 1.0), 0.5, 2, 81, 20, 120, 2, pt(0x50f058eac9458aa6, 0x2db6bfa576c71655, 13293)),
    ((8, 8, 1.0, 1.0), 0.5, 4, 82, 20, 120, 2, pt(0xbf2f3a38ad0523a9, 0x471f654e7c838ed8, 27540)),
    ((16, 8, 1.0, 0.5), 1.0, 4, 83, 20, 80, 1, pt(0x71e62cbe16fc19d9, 0x0c9ab2f8a6d0a7c3, 37988)),
    ((32, 32, 1.0, 1.0), 2.0, 2, 84, 6, 30, 2, pt(0x095f81490cf95f0c, 0xf4077a9635d32b68, 56027)),
    ((32, 32, 1.0, 1.0), 2.0, 4, 85, 6, 30, 2, pt(0xf8355320dd9a3288, 0xc99ac12b1dd6c975, 113516)),
    // A two-word swap payload.
    ((66, 8, 1.0, 1.0), 1.0, 2, 86, 10, 40, 2, pt(0xd8daca1a7fe307f0, 0xad70d07ac4c9111a, 43096)),
];

fn run_pt_threads(
    &((l, m, jx, jz), beta0, ranks, seed, therm, sweeps, exchange_every, _): &PtCase,
) -> PtPin {
    let cfg = PtConfig {
        l,
        jx,
        jz,
        m,
        betas: ladder(beta0, ranks),
        therm,
        sweeps,
        exchange_every,
        seed: seed + 1000,
    };
    let per_rank = run_threads(ranks, move |comm| {
        let mut rng = CountingRng::new(StreamFactory::new(seed).stream(comm.rank()));
        let (energy, rates) = run_pt_parallel(comm, &cfg, &mut rng);
        (energy, rates, rng.draws)
    });
    let mut energies = Fnv::new();
    let mut rates = Fnv::new();
    rates.f64s(per_rank[0].1.iter().copied());
    let mut draws = 0;
    for (energy, rank_rates, rank_draws) in &per_rank {
        assert_eq!(rank_rates, &per_rank[0].1, "the swap rates are collective");
        energies.f64s(energy.iter().copied());
        draws += rank_draws;
    }
    PtPin {
        energies: energies.0,
        rates: rates.0,
        draws,
    }
}

#[test]
fn chain_worldline_trajectories_match_their_pins() {
    check(CHAIN, run_chain, |c| c.3);
}

#[test]
fn generic_worldline_trajectories_match_their_pins() {
    check(
        GENERIC_SQUARE_4X4,
        |c| run_generic(Square::new(4, 4), c),
        |c| c.3,
    );
    check(GENERIC_CHAIN_8, |c| run_generic(Chain::new(8), c), |c| c.3);
}

#[test]
fn serial_pt_ladder_trajectories_match_their_pins() {
    check(PT_SERIAL, run_pt_serial, |c| c.7);
}

#[test]
fn threaded_pt_trajectories_match_their_pins() {
    check(PT_THREADS, run_pt_threads, |c| c.7);
}

/// What an SSE run is reduced to: the `n_ops` / magnetization / staggered
/// bits of every recorded sweep, the correlation means, the basis state
/// and the operator string (the bytes of their checkpoint sections, so
/// the string is pinned as the `i64`s it is written as), the cutoff and
/// the raw draws served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SsePin {
    series: u64,
    corr: u64,
    spins: u64,
    ops: u64,
    cutoff: usize,
    draws: u64,
}

const fn sse(series: u64, corr: u64, spins: u64, ops: u64, cutoff: usize, draws: u64) -> SsePin {
    SsePin {
        series,
        corr,
        spins,
        ops,
        cutoff,
        draws,
    }
}

impl fmt::Display for SsePin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sse({:#018x}, {:#018x}, {:#018x}, {:#018x}, {}, {})",
            self.series, self.corr, self.spins, self.ops, self.cutoff, self.draws
        )
    }
}

/// `(β, seed, thermalization, recorded sweeps)` at `J = 1` on a lattice
/// given per test.
type SseCase = ((f64, u64, usize, usize), SsePin);

#[rustfmt::skip]
const SSE_CHAIN_64: &[SseCase] = &[
    // The benchmark's `heis_sse_scan` chain at both ends of its β scan.
    ((1.0, 91, 200, 200), sse(0x9cdad9b13b6c4d8a, 0xcaa9bb8b82e12344, 0x9c59dc55405feb05, 0xc10e0a64768d4998, 64, 44913)),
    ((16.0, 92, 200, 100), sse(0x3d8688b143844f4d, 0x181fe250dfbe4a60, 0xd08eeab54c7f6d01, 0x50df719ba8edd113, 1039, 327365)),
];

#[rustfmt::skip]
const SSE_CHAIN_6: &[SseCase] = &[
    ((2.0, 93, 300, 300), sse(0x06183ec27cfd14ed, 0xe04394e8ce29af43, 0x7649e2493e68fb8d, 0x86ac9736d38bad6c, 31, 27689)),
];

#[rustfmt::skip]
const SSE_SQUARE_4X4: &[SseCase] = &[
    ((2.0, 94, 300, 300), sse(0x50d2747fa9e79ca5, 0x7a18e47571cb2f1e, 0x7f413b7eae12db24, 0xc2285760a4150ed6, 84, 56021)),
];

#[rustfmt::skip]
const SSE_SQUARE_8X6: &[SseCase] = &[
    ((4.0, 95, 200, 200), sse(0xbf21d2ff10ba676b, 0x21068907db9afc8b, 0xa82e6f84d85c51e6, 0x2d44f3a1cb263c7d, 363, 131393)),
];

fn run_sse<L: Lattice>(lattice: L, &((beta, seed, therm, sweeps), _): &SseCase) -> SsePin {
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(seed));
    let mut eng = Sse::new(&lattice, 1.0, beta, &mut rng);
    let series = eng.run(&mut rng, therm, sweeps);
    let mut rows = Fnv::new();
    for ((n, m), s) in series
        .n_ops
        .iter()
        .zip(&series.magnetization)
        .zip(&series.staggered)
    {
        rows.f64s([*n, *m, *s]);
    }
    let mut corr = Fnv::new();
    corr.f64s(series.correlations());
    let mut spins = Fnv::new();
    spins.bytes(&qmc_ckpt::save_section_bytes(&eng, "spins"));
    let mut ops = Fnv::new();
    ops.bytes(&qmc_ckpt::save_section_bytes(&eng, "ops"));
    SsePin {
        series: rows.0,
        corr: corr.0,
        spins: spins.0,
        ops: ops.0,
        cutoff: eng.cutoff(),
        draws: rng.draws,
    }
}

#[test]
fn sse_trajectories_match_their_pins() {
    check(SSE_CHAIN_64, |c| run_sse(Chain::new(64), c), |c| c.1);
    check(SSE_CHAIN_6, |c| run_sse(Chain::new(6), c), |c| c.1);
    check(SSE_SQUARE_4X4, |c| run_sse(Square::new(4, 4), c), |c| c.1);
    check(SSE_SQUARE_8X6, |c| run_sse(Square::new(8, 6), c), |c| c.1);
}
