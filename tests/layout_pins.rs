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
    run_generic_worldline_ckpt, run_serial_tfim_ckpt, run_sse_ckpt, run_worldline_ckpt,
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

// ---------------------------------------------------------------------
// The checksum itself and the images a store holds. Recorded on commit
// 8e5b7a3, where `crc32` was one table look-up per byte and a generation
// was a `ckpt-<gen>.qckpt` file put in place by temp + rename: a faster
// checksum must return these values, and a store that keeps generations
// some other way must still materialise these images.
// ---------------------------------------------------------------------

/// The first `len` bytes of a fixed xorshift64 stream (little-endian
/// words).
fn xorshift_bytes(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `(length of the xorshift stream, CRC32)`.
#[rustfmt::skip]
const CRC_STREAM: &[(usize, u32)] = &[
    (0, 0x00000000),
    (1, 0x7a6530d8),
    (7, 0xe9be8f59),
    (8, 0x4f3926ad),
    (9, 0xc34cddf7),
    (63, 0x4717b872),
    (64, 0x93418255),
    (65, 0xb3fa51dc),
    (6811, 0x3fe8fbe3),
    (1048576, 0x665310df),
];

#[test]
fn crc32_matches_its_pinned_values() {
    // The IEEE 802.3 check values every implementation publishes.
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let got: Vec<(usize, u32)> = [0, 1, 7, 8, 9, 63, 64, 65, 6811, 1 << 20]
        .iter()
        .map(|&len| (len, crc32(&xorshift_bytes(len))))
        .collect();
    let table: String = got
        .iter()
        .map(|(len, crc)| format!("\n    ({len}, {crc:#010x}),"))
        .collect();
    assert!(got == CRC_STREAM, "crc32 moved; it now returns:{table}");
}

/// Compares `(key, byte length, CRC32)` rows and, on a mismatch, prints
/// what was found as source lines.
fn check_rows<K: PartialEq + std::fmt::Debug>(
    got: &[(K, usize, u32)],
    want: &[(K, usize, u32)],
    what: &str,
) {
    let table: String = got
        .iter()
        .map(|(key, len, crc)| format!("\n    ({key:?}, {len}, {crc:#010x}),"))
        .collect();
    assert!(got == want, "{what}:{table}");
}

/// `(generation, byte length, CRC32)` of `load(generation).to_bytes()`.
type ImagePin = (u64, usize, u32);

/// Compares the materialised image of every generation `store` lists.
fn check_images(store: &qmc_ckpt::CkptStore, want: &[ImagePin]) {
    let got: Vec<ImagePin> = store
        .generations()
        .into_iter()
        .map(|g| {
            let image = store.load(g).expect("a listed generation loads").to_bytes();
            (g, image.len(), crc32(&image))
        })
        .collect();
    check_rows(&got, want, "generation images moved; the store now holds");
}

/// `(file name, byte length, CRC32)` of every file in a store's
/// directory: which slot a generation lands in, the `seq` it is written
/// under and what an earlier, longer occupant leaves behind it are all
/// fixed by the order of the commits. Recorded with the slot layout.
type SlotPin = (&'static str, usize, u32);

fn check_slots(dir: &std::path::Path, want: &[SlotPin]) {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|entry| {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(entry.path()).expect("slot file"))
        })
        .collect();
    files.sort();
    let got: Vec<(&str, usize, u32)> = files
        .iter()
        .map(|(name, bytes)| (name.as_str(), bytes.len(), crc32(bytes)))
        .collect();
    check_rows(&got, want, "slot files moved; the directory now holds");
}

fn pin_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qmc-layout-pins-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 2-rank tempering run of 40 sweeps that commits every 2, every 8th
/// commit a full image, into a store that retains 4 generations.
fn pt_pin_store(dir: &std::path::Path) {
    use qmc_core::pt::{run_pt_parallel_ckpt, PtCheckpointing, PtConfig};
    let cfg = PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 8,
        betas: vec![0.5, 1.0],
        therm: 10,
        sweeps: 30,
        exchange_every: 2,
        seed: 99,
    };
    let dir = dir.to_path_buf();
    qmc_comm::run_threads(2, move |comm| {
        use qmc_comm::Communicator;
        let mut rng = qmc_rng::StreamFactory::new(17).stream(comm.rank());
        let store = qmc_ckpt::CkptStore::new(&dir, 4).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every: 2,
            full_every: 8,
            resume: false,
            stop: None,
            elastic_from: None,
        };
        run_pt_parallel_ckpt(comm, &cfg, &mut rng, Some(&ck), |_, _| {});
    });
}

#[rustfmt::skip]
const PT_IMAGES: &[ImagePin] = &[
    (32, 1531, 0x5dae8cc7),
    (34, 1563, 0xb77e7b9a),
    (36, 1595, 0xf200a9d4),
    (38, 1627, 0x53d05d29),
];

#[rustfmt::skip]
const PT_SLOTS: &[SlotPin] = &[
    ("slot-0.qckpt", 1539, 0xdac691d6),
    ("slot-1.qckpt", 1571, 0x47d19244),
    ("slot-2.qckpt", 1603, 0x73fb68aa),
    ("slot-3.qckpt", 1635, 0xa76ead9d),
    ("slot-4.qckpt", 1667, 0x6d2f4d47),
];

#[test]
fn pt_store_images_match_their_pins() {
    let dir = pin_dir("pt");
    pt_pin_store(&dir);
    let store = qmc_ckpt::CkptStore::new(&dir, 4).expect("reopen");
    check_images(&store, PT_IMAGES);
    check_slots(&dir, PT_SLOTS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A serial world-line run of 160 sweeps through `qmc_ckpt::drive`: a
/// commit every 10, every 4th a full image, retain 3. The first 64-row
/// chunk of the series is complete and clean from sweep 74 on, so the
/// newest generations are a delta chain on the full image at sweep 120.
fn serial_pin_store(dir: &std::path::Path) {
    let store = qmc_ckpt::CkptStore::new(dir, 3).expect("store");
    let ck = qmc_ckpt::Policy {
        store: &store,
        cadence: qmc_ckpt::Cadence::new(10, 4).expect("cadence"),
        resume: false,
        stop: None,
    };
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let mut rng = Xoshiro256StarStar::new(106);
    run_worldline_ckpt(params, &mut rng, 10, 150, Some(&ck), None).expect("run completes");
}

#[rustfmt::skip]
const SERIAL_IMAGES: &[ImagePin] = &[
    (120, 5248, 0x696e667f),
    (130, 5648, 0xba0ecdab),
    (140, 6161, 0xf9e535eb),
    (150, 6561, 0x11dce7ba),
];

#[rustfmt::skip]
const SERIAL_SLOTS: &[SlotPin] = &[
    ("slot-0.qckpt", 3688, 0x257a59a9),
    ("slot-1.qckpt", 2375, 0x2d6eb2d2),
    ("slot-2.qckpt", 2775, 0x15bb7824),
    ("slot-3.qckpt", 3175, 0x95012c77),
    ("slot-4.qckpt", 5288, 0xc866629f),
    ("slot-5.qckpt", 3060, 0xa9b623e2),
    ("slot-6.qckpt", 3574, 0x67ce7192),
];

#[test]
fn serial_store_images_match_their_pins() {
    let dir = pin_dir("serial");
    serial_pin_store(&dir);
    let store = qmc_ckpt::CkptStore::new(&dir, 3).expect("reopen");
    check_images(&store, SERIAL_IMAGES);
    check_slots(&dir, SERIAL_SLOTS);
    let _ = std::fs::remove_dir_all(&dir);
}
