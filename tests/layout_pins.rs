//! Committed byte-layout pins for every sectioned checkpoint type.
//!
//! Every row is one serialized body reduced to its byte length and its
//! `qmc_ckpt::crc32`: `save_state` (the whole-blob form a v1 file holds)
//! and each `save_section_bytes` body in `dirty_sections` order (what
//! `plan_sections` writes), taken after a fixed-seed
//! `run_*_ckpt(.., None, None)` of 20 thermalization and 150 measured
//! sweeps — two full 64-row chunks and a partial one. The literals were
//! recorded on commit 9d8f370, where each type still hand-wrote its
//! whole-blob and its sectioned form separately, so a PR that derives
//! one from the other, or moves the chunk protocol, is judged against
//! committed numbers and not against a round trip that lives in the same
//! diff. A literal is never edited to make such a change pass: a
//! mismatch means a byte on disk moved.

use qmc_bench::ckpt_driver::{
    run_generic_worldline_ckpt, run_packed_tfim_ckpt, run_serial_tfim_ckpt, run_sse_ckpt,
    run_worldline_ckpt,
};
use qmc_ckpt::{crc32, save_section_bytes, save_state, Checkpoint};
use qmc_lattice::{Chain, Square};
use qmc_rng::Xoshiro256StarStar;
use qmc_tfim::TfimModel;
use qmc_worldline::{GenericParams, WorldlineParams};

const THERM: usize = 20;
const SWEEPS: usize = 150;

/// `(body, byte length, CRC32)`: `body` is `<value>` for `save_state` and
/// `<value>:<section>` for `save_section_bytes`.
type Pin = (&'static str, usize, u32);

/// Appends the whole-blob row of `state`, then one row per section.
fn digest(rows: &mut Vec<(String, usize, u32)>, value: &str, state: &impl Checkpoint) {
    let whole = save_state(state);
    rows.push((value.to_string(), whole.len(), crc32(&whole)));
    for (name, _) in state.dirty_sections().iter() {
        let body = save_section_bytes(state, name);
        rows.push((format!("{value}:{name}"), body.len(), crc32(&body)));
    }
}

/// Digests the engine, its series and the generator they ran on,
/// compares every row and, on a mismatch, prints the whole table as
/// source lines.
fn check(engine: &impl Checkpoint, series: &impl Checkpoint, rng: &impl Checkpoint, want: &[Pin]) {
    let mut got = Vec::new();
    digest(&mut got, "engine", engine);
    digest(&mut got, "series", series);
    digest(&mut got, "rng", rng);
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g.0.as_str(), g.1, g.2) == *w);
    let table: String = got
        .iter()
        .map(|(body, len, crc)| format!("\n    ({body:?}, {len}, {crc:#010x}),"))
        .collect();
    assert!(same, "checkpoint bytes moved; the run now writes:{table}");
}

const CHAIN_MODEL: TfimModel = TfimModel {
    lx: 8,
    ly: 1,
    j: 1.0,
    h: 1.3,
    beta: 1.7,
    m: 8,
};

#[rustfmt::skip]
const SERIAL_TFIM: &[Pin] = &[
    ("engine", 766, 0x10c4aa87),
    ("engine:spins", 106, 0xec141597),
    ("engine:metrics", 694, 0x732cfffc),
    ("series", 4859, 0x127d2c78),
    ("series:rows/0", 2115, 0xc798b1d5),
    ("series:rows/1", 2115, 0x98c9460d),
    ("series:rows/2", 771, 0x84a56917),
    ("series:head", 35, 0xec5bdbcd),
    ("rng", 64, 0x4bb7770c),
    ("rng:state", 64, 0x4bb7770c),
];

#[test]
fn serial_tfim_bodies_match_their_pins() {
    let mut rng = Xoshiro256StarStar::new(101);
    let (eng, series) =
        run_serial_tfim_ckpt(CHAIN_MODEL, &mut rng, THERM, SWEEPS, 1, None, None).unwrap();
    assert_eq!(series.len(), SWEEPS);
    check(&eng, &series, &rng, SERIAL_TFIM);
}

#[rustfmt::skip]
const PACKED_TFIM: &[Pin] = &[
    ("engine", 644, 0xe4873b1b),
    ("engine:spins", 570, 0x0a2784e9),
    ("engine:metrics", 108, 0x971d2e11),
    ("series", 24337, 0x66f56211),
    ("series:l0/rows/0", 2122, 0x61c51d54),
    ("series:l0/rows/1", 2122, 0x8eff96ed),
    ("series:l0/rows/2", 778, 0x0740ebad),
    ("series:l0/head", 42, 0x28b2862a),
    ("series:l1/rows/0", 2122, 0x78ccd2da),
    ("series:l1/rows/1", 2122, 0x54fce6b4),
    ("series:l1/rows/2", 778, 0x5ffabe9b),
    ("series:l1/head", 42, 0x28b2862a),
    ("series:l2/rows/0", 2122, 0x4fe4d369),
    ("series:l2/rows/1", 2122, 0x69d16988),
    ("series:l2/rows/2", 778, 0xe333e125),
    ("series:l2/head", 42, 0x28b2862a),
    ("series:l3/rows/0", 2122, 0xf9aaa28c),
    ("series:l3/rows/1", 2122, 0xc54b3272),
    ("series:l3/rows/2", 778, 0x0e9bac03),
    ("series:l3/head", 42, 0x28b2862a),
    ("series:l4/rows/0", 2122, 0x4909abf1),
    ("series:l4/rows/1", 2122, 0x1fa6a2dd),
    ("series:l4/rows/2", 778, 0x70f2445c),
    ("series:l4/head", 42, 0x28b2862a),
    ("rng", 64, 0x19d6bb8c),
    ("rng:state", 64, 0x19d6bb8c),
];

#[test]
fn packed_tfim_bodies_match_their_pins() {
    let model = TfimModel {
        lx: 4,
        ly: 4,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let mut rng = Xoshiro256StarStar::new(102);
    let (eng, series) =
        run_packed_tfim_ckpt(model, 5, &mut rng, THERM, SWEEPS, None, None).unwrap();
    assert_eq!(series.lanes.len(), 5);
    check(&eng, &series, &rng, PACKED_TFIM);
}

#[rustfmt::skip]
const WORLDLINE_CHAIN: &[Pin] = &[
    ("engine", 206, 0x24df8613),
    ("engine:spins", 174, 0x196a26b0),
    ("engine:counters", 70, 0xc2411f81),
    ("series", 6144, 0xc1245c45),
    ("series:rows/0", 2640, 0xd43eabb6),
    ("series:rows/1", 2640, 0xab99dff6),
    ("series:rows/2", 960, 0xca1926ae),
    ("series:head", 112, 0xf9ea1c74),
    ("rng", 64, 0xd863ada2),
    ("rng:state", 64, 0xd863ada2),
];

#[test]
fn worldline_chain_bodies_match_their_pins() {
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let mut rng = Xoshiro256StarStar::new(103);
    let (eng, series) = run_worldline_ckpt(params, &mut rng, THERM, SWEEPS, None, None).unwrap();
    assert_eq!(series.len(), SWEEPS);
    check(&eng, &series, &rng, WORLDLINE_CHAIN);
}

#[rustfmt::skip]
const WORLDLINE_GENERIC: &[Pin] = &[
    ("engine", 352, 0x8bcb3bdb),
    ("engine:spins", 304, 0x3fab4759),
    ("engine:counters", 88, 0xf78e1700),
    ("series", 6176, 0xce44e41f),
    ("series:rows/0", 2640, 0x49eed6c8),
    ("series:rows/1", 2640, 0xa751ec24),
    ("series:rows/2", 960, 0x285e5a06),
    ("series:head", 144, 0xaaf22d29),
    ("rng", 64, 0x330a955d),
    ("rng:state", 64, 0x330a955d),
];

#[test]
fn generic_worldline_bodies_match_their_pins() {
    let params = GenericParams {
        jx: 1.0,
        jz: 1.0,
        beta: 0.5,
        m: 4,
    };
    let mut rng = Xoshiro256StarStar::new(104);
    let (eng, series) = run_generic_worldline_ckpt(
        Square::new(4, 4),
        params,
        &mut rng,
        THERM,
        SWEEPS,
        None,
        None,
    )
    .unwrap();
    assert_eq!(series.len(), SWEEPS);
    check(&eng, &series, &rng, WORLDLINE_GENERIC);
}

#[rustfmt::skip]
const SSE: &[Pin] = &[
    ("engine", 330, 0x5c773cf4),
    ("engine:spins", 50, 0x40738b4f),
    ("engine:ops", 306, 0x0862dc30),
    ("series", 3738, 0xfb2bda99),
    ("series:rows/0", 1594, 0xed6af40b),
    ("series:rows/1", 1594, 0x4c16ea93),
    ("series:rows/2", 586, 0xade38534),
    ("series:head", 122, 0x132b0273),
    ("rng", 64, 0xc5736f2d),
    ("rng:state", 64, 0xc5736f2d),
];

#[test]
fn sse_bodies_match_their_pins() {
    let mut rng = Xoshiro256StarStar::new(105);
    let (eng, series) = run_sse_ckpt(
        &Chain::new(8),
        1.0,
        2.0,
        &mut rng,
        THERM,
        SWEEPS,
        None,
        None,
    )
    .unwrap();
    assert_eq!(series.n_ops.len(), SWEEPS);
    check(&eng, &series, &rng, SSE);
}
