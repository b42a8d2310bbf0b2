//! Committed trajectory pins for the two TFIM engines.
//!
//! Every row is a fixed-seed run reduced to five numbers: an FNV-1a
//! fingerprint of the `energy` / `m2` series bits, one of the final spins
//! (for `DistTfim` the whole ghost-padded block of every rank, in rank
//! order), the raw draws served, and the accepted / proposed counters.
//! The literals were recorded on the site-by-site Metropolis loops of
//! commit 9079f3b, before the colour kernel existed, so a kernel PR is
//! judged against committed numbers and not only against an oracle that
//! lives in the same diff. A literal is never edited to make a kernel
//! change pass: a mismatch means the change moved a draw or a decision.

use qmc_comm::{run_threads, Communicator};
use qmc_rng::{CountingRng, StreamFactory, Xoshiro256StarStar};
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::{SerialTfim, TfimSeries};
use qmc_tfim::TfimModel;

/// FNV-1a over a stream of 64-bit words, little-endian byte order.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn spins(&mut self, spins: impl Iterator<Item = i8>) {
        for s in spins {
            self.word(s as u8 as u64);
        }
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
fn check<C: std::fmt::Debug>(cases: &[C], run: impl Fn(&C) -> Pin, want: impl Fn(&C) -> Pin) {
    let mut wrong = String::new();
    for (k, case) in cases.iter().enumerate() {
        let got = run(case);
        if got != want(case) {
            wrong += &format!(
                "\n  case {k}: pin({:#018x}, {:#018x}, {}, {}, {}) from {case:?}",
                got.series, got.spins, got.draws, got.accepted, got.proposed
            );
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
