//! Elastic-world integration tests.
//!
//! A rank death is *absorbed* by the elastic policy
//! (`qmc_core::pt::run_pt_elastic`, the one qmc-serve and `repro
//! elastic` run; here through `qmc_bench::elastic::kill_run`). First a
//! fresh world resumes from the store (every rank restores from the
//! newest coordinated generation through the rejoin path of
//! `qmc_ckpt::coord`), and the finished run is indistinguishable —
//! observables AND RNG draw counts — from one that never died. With no
//! respawn budget the policy drops the dead rank's β instead and the
//! survivors resume remapped onto the smaller world. The two crash
//! matrices below kill each rank of a 4-rank parallel-tempering world
//! at every sweep boundary, one per policy. The resize tests pin the
//! remap itself: the β ladder shrinks (or re-grows) to fit, survivors
//! are remapped onto the new world by β, and a re-grown rung joins
//! fresh at the checkpoint boundary.

use qmc_bench::elastic::{kill_run, reference, same_bits, RankOut};
use qmc_ckpt::CkptStore;
use qmc_comm::{run_threads, Communicator};
use qmc_core::pt::{
    run_pt_parallel_ckpt, with_run_store, ElasticRun, PtCheckpointing, PtConfig, PtLadder,
};
use qmc_rng::{CountingRng, StreamFactory};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Unique scratch checkpoint directory (std-only, no tempdir crate).
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-elastic-it-{}-{label}-{n}", std::process::id()))
}

/// Copy a flat checkpoint directory so two runs can resume from the
/// same generations without sharing a store.
fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy dst");
    for entry in std::fs::read_dir(src).expect("copy src") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy generation");
    }
}

/// Serializes panic-hook swaps: the crash matrices unwind whole worlds
/// on purpose, and silencing that spam must not race another test.
static HOOK: Mutex<()> = Mutex::new(());

fn pt_cfg() -> PtConfig {
    PtConfig {
        l: 6,
        jx: 1.0,
        jz: 1.0,
        m: 6,
        betas: vec![0.5, 0.8, 1.2, 1.8],
        therm: 4,
        sweeps: 10,
        exchange_every: 2,
        seed: 99,
    }
}

/// Run `kill_run` once per `(victim, kill)` in `kills`, each in a store
/// of its own, with the injected panics silenced; then `check` each run
/// with the hook restored, so a failed assertion prints its message.
fn crash_matrix(
    cfg: &PtConfig,
    kills: impl Iterator<Item = (usize, usize)>,
    respawn_budget: usize,
    mut check: impl FnMut(usize, usize, ElasticRun<RankOut>),
) {
    let guard = HOOK.lock().expect("hook guard");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let runs: Vec<_> = kills
        .map(|(victim, kill)| {
            let dir = scratch("matrix");
            let run = kill_run(cfg, &dir, victim, kill, respawn_budget);
            let _ = std::fs::remove_dir_all(&dir);
            (victim, kill, run)
        })
        .collect();
    std::panic::set_hook(hook);
    drop(guard);
    for (victim, kill, run) in runs {
        let run = run.unwrap_or_else(|e| panic!("kill rank {victim} at sweep {kill}: {e:?}"));
        check(victim, kill, run);
    }
}

/// Kill each rank at every sweep boundary; the relaunched world must
/// finish bit-identical to the uninterrupted reference with equal RNG
/// draw counts on every rank.
#[test]
fn respawn_crash_matrix_is_bit_identical_with_equal_draws() {
    let cfg = pt_cfg();
    let want = reference(&cfg);
    let total = cfg.therm + cfg.sweeps;
    let kills = (0..cfg.betas.len()).flat_map(|v| (1..total).map(move |k| (v, k)));
    crash_matrix(&cfg, kills, 1, |victim, kill, run| {
        assert_eq!(
            run.respawns, 1,
            "kill rank {victim} at sweep {kill}: exactly one respawn expected"
        );
        for (rank, (got, exp)) in run.results.iter().zip(&want).enumerate() {
            assert_eq!(
                bits(&got.0),
                bits(&exp.0),
                "kill rank {victim} at sweep {kill}: rank {rank} energy series diverged"
            );
            assert_eq!(
                bits(&got.1),
                bits(&exp.1),
                "kill rank {victim} at sweep {kill}: rank {rank} rates diverged"
            );
            assert_eq!(
                got.2, exp.2,
                "kill rank {victim} at sweep {kill}: rank {rank} RNG draw count diverged"
            );
        }
    });
}

/// With no respawn budget the policy drops the dead rank's β. Kill each
/// rank at every boundary, twice: each run must finish on 3 rungs with
/// full survivor series, the survivors must be the other three βs (each
/// series opens with the reference's own up to the resumed generation),
/// and the two runs must agree bit for bit.
#[test]
fn resize_crash_matrix_drops_the_dead_rung_deterministically() {
    let cfg = pt_cfg();
    let want = reference(&cfg);
    let total = cfg.therm + cfg.sweeps;
    let kills = (0..cfg.betas.len()).flat_map(|v| (0..total).flat_map(move |k| [(v, k), (v, k)]));
    let mut first: Option<Vec<RankOut>> = None;
    crash_matrix(&cfg, kills, 0, |victim, kill, run| {
        let at = format!("kill rank {victim} at sweep {kill}");
        assert_eq!(run.respawns, 0, "{at}: no respawn budget");
        assert!(run.resized, "{at}: the ladder must be resized");
        assert_eq!(run.results.len(), cfg.betas.len() - 1, "{at}: 3 rungs");
        // kill_run writes a generation every 2 sweeps, before the sweep.
        let restored = (kill - kill % 2).saturating_sub(cfg.therm);
        let survivors = (0..cfg.betas.len()).filter(|&r| r != victim);
        for (got, old) in run.results.iter().zip(survivors) {
            assert_eq!(got.0.len(), cfg.sweeps, "{at}: full survivor series");
            assert_eq!(got.1.len(), cfg.betas.len() - 2, "{at}: one rate per pair");
            assert_eq!(
                bits(&got.0[..restored]),
                bits(&want[old].0[..restored]),
                "{at}: the survivor at β = {} kept its history",
                cfg.betas[old]
            );
        }
        match first.take() {
            None => first = Some(run.results),
            Some(a) => assert!(same_bits(&a, &run.results), "{at}: two runs diverged"),
        }
    });
}

/// Seed a full-ladder checkpointed run with one mid-run generation, so
/// the resize tests have a coordinated boundary to rehydrate from.
fn seed_store(cfg: &PtConfig, dir: &Path, every: usize) {
    let cfg2 = cfg.clone();
    let dir2 = dir.to_path_buf();
    run_threads(cfg.betas.len(), move |comm| {
        let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
        let store = CkptStore::new(&dir2, 3).expect("seed store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 0,
            resume: false,
            stop: None,
            elastic_from: None,
        };
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, _| {})
    });
}

/// One resumed run on a (possibly resized) ladder, rehydrating from
/// `dir` with the pre-resize ladder declared via `elastic_from`.
fn resized_run(cfg: &PtConfig, old_betas: &[f64], dir: &Path, every: usize) -> Vec<RankOut> {
    let cfg2 = cfg.clone();
    let dir2 = dir.to_path_buf();
    let old: Vec<f64> = old_betas.to_vec();
    run_threads(cfg.betas.len(), move |comm| {
        let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
        let (e, r) = with_run_store(Some(&dir2), (every, 0), None, Some(&old), |ck| {
            run_pt_parallel_ckpt(comm, &cfg2, &mut rng, ck, |_, _| {})
        });
        (e, r, rng.draws)
    })
}

/// Shrink 4 → 3 rungs: the resumed world must be deterministic (two
/// resumes from the same generations are bit-identical) and the
/// surviving βs must agree statistically with a serial ladder built
/// directly at those temperatures.
#[test]
fn shrink_resize_is_deterministic_and_matches_the_serial_ladder() {
    let mut cfg = pt_cfg();
    cfg.therm = 8;
    cfg.sweeps = 40;
    let every = 16; // generations 0 and 16: one mid-run boundary
    let dir = scratch("shrink-seed");
    seed_store(&cfg, &dir, every);

    // Drop the third rung; survivors keep strictly-increasing βs.
    let old_betas = cfg.betas.clone();
    let shrunk = PtConfig {
        betas: vec![0.5, 0.8, 1.8],
        ..cfg.clone()
    };
    assert!(shrunk.betas.windows(2).all(|w| w[0] < w[1]));

    let dir_b = scratch("shrink-copy");
    copy_store(&dir, &dir_b);
    let a = resized_run(&shrunk, &old_betas, &dir, every);
    let b = resized_run(&shrunk, &old_betas, &dir_b, every);
    for (rank, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            bits(&ra.0),
            bits(&rb.0),
            "shrink resume must be deterministic (rank {rank})"
        );
        assert_eq!(ra.2, rb.2, "shrink draw counts must be deterministic");
    }
    // Survivors carry their pre-resize history: full measurement rows.
    for (e, r, _) in &a {
        assert_eq!(e.len(), shrunk.sweeps, "every survivor has a full series");
        assert_eq!(
            r.len(),
            shrunk.betas.len() - 1,
            "one rate per surviving pair"
        );
    }

    // Statistical agreement with a serial ladder at the surviving βs.
    let mut ladder = PtLadder::new(cfg.l, cfg.jx, cfg.jz, cfg.m, shrunk.betas.clone());
    let mut rng = StreamFactory::new(7).stream(0);
    let serial = ladder.run(&mut rng, cfg.therm, cfg.sweeps, cfg.exchange_every);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    for (k, (elastic, serial)) in a.iter().zip(&serial).enumerate() {
        let (me, ms) = (mean(&elastic.0), mean(serial));
        assert!(
            (me - ms).abs() < 0.35,
            "β={} energy mean diverged: elastic {me:.4} vs serial {ms:.4}",
            shrunk.betas[k]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Re-grow 2 → 3 rungs: the new middle β has no old counterpart, so it
/// joins fresh at the checkpoint boundary while both survivors resume
/// their exact state; the grow path is deterministic too.
#[test]
fn grow_joins_the_new_rung_at_the_checkpoint_boundary() {
    let cfg = PtConfig {
        betas: vec![0.6, 1.3],
        ..pt_cfg()
    };
    let every = 8; // generations 0 and 8 of 14 total sweeps
    let dir = scratch("grow-seed");
    seed_store(&cfg, &dir, every);

    let old_betas = cfg.betas.clone();
    let grown = PtConfig {
        betas: vec![0.6, 0.95, 1.3],
        ..cfg.clone()
    };
    let dir_b = scratch("grow-copy");
    copy_store(&dir, &dir_b);
    let a = resized_run(&grown, &old_betas, &dir, every);
    let b = resized_run(&grown, &old_betas, &dir_b, every);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(
            bits(&ra.0),
            bits(&rb.0),
            "grow resume must be deterministic"
        );
    }

    // Survivors (slots 0 and 2) carry their full restored series; the
    // joined rung (slot 1) starts measuring at the rejoin boundary:
    // sweeps 8..14 are all past therm = 4, so it records 6 samples.
    let boundary = 8usize;
    let joined_samples = (cfg.therm + cfg.sweeps) - boundary;
    assert_eq!(a[0].0.len(), cfg.sweeps, "survivor 0 keeps its history");
    assert_eq!(a[2].0.len(), cfg.sweeps, "survivor 1 keeps its history");
    assert_eq!(
        a[1].0.len(),
        joined_samples,
        "the joined rung measures only from the rejoin boundary"
    );
    for (_, r, _) in &a {
        assert_eq!(
            r.len(),
            grown.betas.len() - 1,
            "one rate per pair after grow"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_b);
}
