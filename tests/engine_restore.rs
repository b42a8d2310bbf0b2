//! A refused section leaves an engine as it was.
//!
//! Both engines are offered, into a thermalised and snapshotted
//! configuration, another run's spins with the last one flipped: the right
//! length, every byte a bool, every CRC satisfied, but two plaquettes that
//! break Sᶻ conservation. It arrives once as the `spins` section and once
//! inside a whole blob. Before the engines judged the candidate first and
//! kept it second, the refusal left the broken configuration in place and
//! the section marked dirty.
//!
//! The SSE engine is offered its own operator string with one
//! off-diagonal operator made diagonal: the right length, every code a
//! bond of the lattice, but a string that no longer closes around the
//! basis state. Before the engine judged the candidate against the state
//! first, the refusal left the open string, its operator count and a
//! dirty flag behind — and a whole blob left its spins behind as well.

use qmc_ckpt::{
    load_section_bytes, load_state, save_section_bytes, save_state, Checkpoint, CkptError,
};
use qmc_lattice::{Chain, Lattice, Square};
use qmc_rng::Xoshiro256StarStar;
use qmc_sse::Sse;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};

/// Everything a caller can see of an engine: spins, counters, and the
/// section list with its dirty flags.
type Seen = (Vec<bool>, Vec<u64>, Vec<(String, bool)>);

/// `engine(seed)` is thermalised from `seed`; `observe` lists its spins
/// and its `counters` counters, which are `u64`s after the spins in the
/// whole-blob body.
fn assert_refused_spins_change_nothing<E: Checkpoint>(
    counters: usize,
    engine: impl Fn(u64) -> E,
    observe: impl Fn(&E) -> (Vec<bool>, Vec<u64>),
) {
    let see = |e: &E| -> Seen {
        let (spins, counted) = observe(e);
        assert_eq!(counted.len(), counters);
        let sections = e.dirty_sections();
        let sections = sections
            .iter()
            .map(|(name, dirty)| (name.to_string(), dirty));
        (spins, counted, sections.collect())
    };
    let snapshotted = || {
        let mut target = engine(1);
        target.mark_clean();
        target
    };
    let before = see(&snapshotted());
    assert_eq!(
        before.2,
        [("spins".to_string(), false), ("counters".to_string(), true)]
    );
    let donor = engine(2);
    assert_ne!(
        see(&donor).0,
        before.0,
        "the donor is another configuration"
    );

    // The last spin is the last byte of the section body, and sits before
    // the counters in the whole blob.
    let mut section = save_section_bytes(&donor, "spins");
    *section.last_mut().expect("a body") ^= 1;
    let mut blob = save_state(&donor);
    let at = blob.len() - 1 - 8 * counters;
    blob[at] ^= 1;

    let mut wrong = String::new();
    for (what, as_section, bytes) in [("section", true, section), ("whole blob", false, blob)] {
        let mut target = snapshotted();
        let refused = if as_section {
            load_section_bytes(&bytes, "spins", &mut target)
        } else {
            load_state(&bytes, &mut target)
        };
        if !matches!(refused, Err(CkptError::Corrupt { .. })) {
            wrong += &format!("\n  {what}: {refused:?}");
        }
        if see(&target) != before {
            wrong += &format!("\n  {what}: the refused restore changed the engine");
        }
    }
    assert!(wrong.is_empty(), "{}:{wrong}", donor.kind());
}

#[test]
fn refused_spins_leave_a_chain_engine_as_it_was() {
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 4,
    };
    assert_refused_spins_change_nothing(
        4,
        |seed| {
            let mut eng = Worldline::new(params);
            eng.run(&mut Xoshiro256StarStar::new(seed), 50, 0);
            eng
        },
        |e| {
            let spins = e.export_spins().iter().map(|&s| s != 0).collect();
            let counters = vec![
                e.local_accepted,
                e.local_proposed,
                e.straight_accepted,
                e.straight_proposed,
            ];
            (spins, counters)
        },
    );
}

#[test]
fn refused_spins_leave_a_generic_engine_as_it_was() {
    let params = GenericParams {
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 3,
    };
    assert_refused_spins_change_nothing(
        6,
        |seed| {
            let mut eng = GenericWorldline::new(Square::new(4, 4), params);
            eng.run(&mut Xoshiro256StarStar::new(seed), 50, 0);
            eng
        },
        |e| {
            let n = e.lattice().num_sites();
            let spins = (0..e.rows() * n).map(|k| e.spin(k % n, k / n)).collect();
            let counters = vec![
                e.window_accepted,
                e.window_proposed,
                e.ring_accepted,
                e.ring_proposed,
                e.straight_accepted,
                e.straight_proposed,
            ];
            (spins, counters)
        },
    );
}

#[test]
fn a_refused_operator_string_leaves_an_sse_engine_as_it_was() {
    // Everything a caller can see: both section bodies, the operator
    // count, the cutoff and the dirty flags.
    type SeenSse = (Vec<u8>, Vec<u8>, usize, usize, Vec<(String, bool)>);
    let see = |e: &Sse| -> SeenSse {
        let sections = e.dirty_sections();
        let sections = sections
            .iter()
            .map(|(name, dirty)| (name.to_string(), dirty));
        (
            save_section_bytes(e, "spins"),
            save_section_bytes(e, "ops"),
            e.n_ops(),
            e.cutoff(),
            sections.collect(),
        )
    };
    let snapshotted = || {
        let mut rng = Xoshiro256StarStar::new(5);
        let mut eng = Sse::new(&Chain::new(8), 1.0, 2.0, &mut rng);
        (0..200).for_each(|_| eng.sweep(&mut rng));
        eng.mark_clean();
        (eng, rng)
    };
    let (intact, _) = snapshotted();
    let before = see(&intact);
    assert_eq!(
        before.4,
        [("spins".to_string(), false), ("ops".to_string(), false)]
    );

    // One little-endian i64 per slot of the string closes the `ops` body
    // and the whole blob alike; odd codes are off-diagonal.
    let mut section = before.1.clone();
    let mut blob = save_state(&intact);
    let string = 8 * intact.cutoff();
    let codes = section[section.len() - string..].chunks_exact(8);
    let k = codes
        .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
        .position(|op| op >= 0 && op % 2 == 1)
        .expect("a thermalised string holds an off-diagonal operator");
    for body in [&mut section, &mut blob] {
        let at = body.len() - string + 8 * k;
        body[at] ^= 1;
    }

    let mut wrong = String::new();
    for (what, as_section, bytes) in [("section", true, section), ("whole blob", false, blob)] {
        let (mut target, mut rng) = snapshotted();
        let refused = if as_section {
            load_section_bytes(&bytes, "ops", &mut target)
        } else {
            load_state(&bytes, &mut target)
        };
        if !matches!(refused, Err(CkptError::Corrupt { .. })) {
            wrong += &format!("\n  {what}: {refused:?}");
        }
        if see(&target) != before {
            wrong += &format!("\n  {what}: the refused restore changed the engine");
        }
        // The probability tables are private; a trajectory shows them.
        let (mut twin, mut twin_rng) = snapshotted();
        (0..20).for_each(|_| target.sweep(&mut rng));
        (0..20).for_each(|_| twin.sweep(&mut twin_rng));
        if see(&target) != see(&twin) {
            wrong += &format!("\n  {what}: the engine continues on another trajectory");
        }
    }
    assert!(wrong.is_empty(), "engine.sse:{wrong}");
}
