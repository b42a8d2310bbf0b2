//! The shared sweep-boundary loop, `qmc_ckpt::drive`, through its public
//! surface: cadence rule, kill/resume, drain, and — replacing per-caller
//! handling — restore failures reported before any sweep runs.

use qmc_ckpt::{
    drive, restore_sections, save_section_bytes, Cadence, Checkpoint, CkptError, CkptFile,
    CkptStore, Decoder, Encoder, End, Policy,
};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, Ordering};

/// Minimal checkpointable state: one word under a chosen kind tag.
struct Word(&'static str, u64);

impl Checkpoint for Word {
    fn kind(&self) -> &'static str {
        self.0
    }
    fn save(&self, enc: &mut Encoder) {
        enc.u64(self.1);
    }
    fn load(&mut self, dec: &mut Decoder) -> Result<(), CkptError> {
        self.1 = dec.u64()?;
        Ok(())
    }
}

fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-ckpt-drive-{}-{label}-{n}", std::process::id()))
}

const TOTAL: usize = 13;

/// A toy "engine": each sweep folds the sweep index and an rng word
/// into the engine and the series, so any skipped, repeated or
/// reordered step changes the fingerprint. Returns the end state,
/// the fingerprint and the sweeps that actually ran.
fn run(
    engine_kind: &'static str,
    policy: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> (Result<End, CkptError>, (u64, u64, u64), Vec<usize>) {
    let (mut eng, mut rng, mut series) =
        (Word(engine_kind, 1), Word("t.rng", 7), Word("t.series", 0));
    let mut ran = Vec::new();
    let end = drive(
        (&mut eng, &mut rng, &mut series),
        TOTAL,
        policy,
        kill_at,
        |eng, rng, series, s| {
            ran.push(s);
            rng.1 = rng
                .1
                .wrapping_mul(6364136223846793005)
                .wrapping_add(s as u64);
            eng.1 ^= rng.1.rotate_left(s as u32);
            series.1 = series.1.wrapping_add(eng.1);
        },
        |_, _| {},
    );
    (end, (eng.1, rng.1, series.1), ran)
}

fn policy(store: &CkptStore, resume: bool) -> Policy<'_> {
    Policy {
        store,
        cadence: Cadence::new(4, 3).unwrap(),
        resume,
        stop: None,
    }
}

#[test]
fn zero_cadence_is_a_typed_error() {
    assert_eq!(Cadence::new(0, 3), Err(CkptError::ZeroCadence));
    assert_eq!(Cadence::new(0, 0), Err(CkptError::ZeroCadence));
    assert!(Cadence::new(1, 0).is_ok());
}

#[test]
fn due_is_the_cadence_modulus_and_the_full_rule() {
    let c = Cadence::new(4, 3).unwrap();
    let got: Vec<_> = (0..=12).map(|s| c.due(s, false)).collect();
    let mut want = vec![None; 13];
    (want[0], want[4], want[8], want[12]) = (Some(true), Some(false), Some(false), Some(true));
    assert_eq!(got, want);
    // Off-cadence and on a delta slot alike, a drain writes a full one.
    assert_eq!(c.due(5, true), Some(true));
    assert_eq!(c.due(4, true), Some(true));
    // full_every = 0: every generation is a full snapshot.
    let all_full = Cadence::new(4, 0).unwrap();
    assert_eq!(all_full.due(4, false), Some(true));
    assert_eq!(all_full.due(5, false), None);
}

#[test]
fn kill_at_every_boundary_resumes_to_the_plain_loop() {
    let (end, reference, ran) = run("t.engine", None, None);
    assert_eq!(end, Ok(End::Finished));
    assert_eq!(ran, (0..TOTAL).collect::<Vec<_>>());
    for k in 1..TOTAL {
        let dir = scratch("kill");
        let store = CkptStore::new(&dir, 2).unwrap();
        let (end, _, ran) = run("t.engine", Some(&policy(&store, false)), Some(k));
        assert_eq!(end, Ok(End::Killed { at: k }));
        assert_eq!(ran, (0..k).collect::<Vec<_>>());
        let (end, resumed, ran) = run("t.engine", Some(&policy(&store, true)), None);
        assert_eq!(end, Ok(End::Finished));
        assert_eq!(
            ran.first(),
            Some(&(k / 4 * 4)),
            "resumes at the newest generation"
        );
        assert_eq!(resumed, reference, "kill at {k}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_raised_stop_flag_writes_a_full_generation_and_drains() {
    let dir = scratch("drain");
    let store = CkptStore::new(&dir, 3).unwrap();
    let flag = AtomicBool::new(false);
    let p = Policy {
        stop: Some(&flag),
        ..policy(&store, false)
    };
    let (mut eng, mut rng, mut series) = (Word("e", 0), Word("r", 0), Word("s", 0));
    let end = drive(
        (&mut eng, &mut rng, &mut series),
        TOTAL,
        Some(&p),
        None,
        |_, _, _, s| flag.store(s == 5, Ordering::SeqCst),
        |_, _| {},
    );
    assert_eq!(end, Ok(End::Drained { at: 6 }));
    assert_eq!(store.generations().last(), Some(&6));
    assert_eq!(store.delta_base(), Some(6), "the drain generation is full");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces per-caller handling: whatever is wrong with the newest
/// generation, `drive` reports it before the first sweep.
#[test]
fn an_unrestorable_generation_is_err_before_any_sweep() {
    let dir = scratch("bad");
    let store = CkptStore::new(&dir, 4).unwrap();
    let (end, _, _) = run("t.engine", Some(&policy(&store, false)), Some(6));
    assert_eq!(end, Ok(End::Killed { at: 6 }));

    // A section written by a different engine kind.
    let (end, _, ran) = run("t.other-engine", Some(&policy(&store, true)), None);
    assert!(
        matches!(end, Err(CkptError::KindMismatch { .. })),
        "{end:?}"
    );
    assert!(ran.is_empty());

    // A newer generation whose `meta` is cut short, then one whose
    // `meta` names a different sweep than the generation it sits in.
    let good = store.latest().unwrap().1;
    for (generation, meta, want) in [
        (7u64, vec![1u8, 2, 3], "truncated"),
        (8u64, 5u64.to_le_bytes().to_vec(), "carries sweep index 5"),
    ] {
        let mut file = CkptFile::new();
        file.add("meta", meta);
        for (name, payload) in good.sections().filter(|(n, _)| *n != "meta") {
            file.add(name, payload.to_vec());
        }
        store.write(generation, &file).unwrap();
        let (end, _, ran) = run("t.engine", Some(&policy(&store, true)), None);
        let err = end.expect_err("corrupt meta must not restore");
        assert!(err.to_string().contains(want), "{err}");
        assert!(ran.is_empty());
    }

    // Without `resume` the same store is simply overwritten.
    let (end, _, ran) = run("t.engine", Some(&policy(&store, false)), None);
    assert_eq!(end, Ok(End::Finished));
    assert_eq!(ran.len(), TOTAL);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_sections_reads_either_layout() {
    let mut file = CkptFile::new();
    file.add_state("engine", &Word("t.engine", 42)); // legacy: one opaque section
    file.add("rng/state", save_section_bytes(&Word("t.rng", 9), "state"));
    let (mut eng, mut rng) = (Word("t.engine", 0), Word("t.rng", 0));
    restore_sections(&file, "engine", &mut eng).unwrap();
    restore_sections(&file, "rng", &mut rng).unwrap();
    assert_eq!((eng.1, rng.1), (42, 9));
    let missing = restore_sections(&file, "series", &mut Word("t.series", 0));
    assert!(matches!(missing, Err(CkptError::MissingSection { .. })));
}
