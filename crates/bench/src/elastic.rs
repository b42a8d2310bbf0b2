//! `repro elastic` — the elastic-worlds demo.
//!
//! Two acts, each pinned against an uninterrupted reference run:
//!
//! 1. **Respawn**: a 4-rank parallel-tempering world loses a rank
//!    mid-flight ([`respawn_run`]). A fresh world resumes from the
//!    store: every rank of a new launch restores from the newest
//!    coordinated checkpoint generation. The finished run must be
//!    bit-identical — observables AND total RNG draw counts — to a run
//!    that never died.
//! 2. **Shrink**: the same death with a zero respawn budget instead
//!    drops the dead β rung and resumes the survivors on the shrunk
//!    ladder. Two resumes from copies of the same store must agree
//!    bit-for-bit, and every survivor must carry its full measurement
//!    history across the resize.
//!
//! Writes `VERIFY_elastic.json` (schema `qmc-elastic/v1`) at the
//! repository root with the respawn/resize counts and per-act verdicts;
//! the caller exits non-zero when any verdict fails (the
//! `scripts/check.sh elastic` stage).

use qmc_ckpt::CkptStore;
use qmc_comm::{run_threads, try_run_threads, Communicator, ThreadComm, WorldError};
use qmc_core::pt::{run_pt_parallel_ckpt, PtCheckpointing, PtConfig};
use qmc_rng::{CountingRng, StreamFactory};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qmc-elastic-demo-{}-{label}-{n}",
        std::process::id()
    ))
}

fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy dst");
    for entry in std::fs::read_dir(src).expect("copy src") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy generation");
    }
}

fn cfg(quick: bool) -> PtConfig {
    PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 8,
        betas: vec![0.5, 0.8, 1.2, 1.8],
        therm: if quick { 4 } else { 10 },
        sweeps: if quick { 12 } else { 40 },
        exchange_every: 2,
        seed: 99,
    }
}

/// (energy series, acceptance rates, total RNG draws) per rank.
pub type RankOut = (Vec<f64>, Vec<f64>, u64);

/// The uninterrupted reference run every elastic run is judged against.
pub fn reference(cfg: &PtConfig) -> Vec<RankOut> {
    let cfg2 = cfg.clone();
    run_threads(cfg.betas.len(), move |comm| {
        let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
        let (e, r) = run_pt_parallel_ckpt(comm, &cfg2, &mut rng, None, |_, _| {});
        (e, r, rng.draws)
    })
}

/// Act 1's run: rank `victim` dies once, at sweep `kill_sweep`, and a
/// fresh world resumes from the store in `dir` (every rank restores
/// from the newest coordinated generation), at most once. Returns the
/// number of respawns and each rank's output.
///
/// The kill is one-shot: the relaunched world replays that boundary and
/// must not die on it again. The caller silences the expected panic.
pub fn respawn_run(
    cfg: &PtConfig,
    dir: &Path,
    victim: usize,
    kill_sweep: usize,
) -> Result<(usize, Vec<RankOut>), WorldError> {
    let cfg2 = cfg.clone();
    let dir2 = dir.to_path_buf();
    let fired = Arc::new(AtomicBool::new(false));
    let rank = Arc::new(move |comm: &mut ThreadComm| {
        let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
        let store = CkptStore::new(&dir2, 3).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every: 2,
            full_every: 2,
            resume: true,
            stop: None,
            elastic_from: None,
        };
        let fired = Arc::clone(&fired);
        let (e, r) = run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), move |c, s| {
            if s == kill_sweep && c.rank() == victim && !fired.swap(true, Ordering::SeqCst) {
                panic!("injected kill: rank {victim} at sweep {s}");
            }
        });
        (e, r, rng.draws)
    });
    let launch = || try_run_threads(cfg.betas.len(), Duration::from_secs(60), Arc::clone(&rank));
    match launch() {
        Err(WorldError::RankDied { .. }) => launch().map(|results| (1, results)),
        run => run.map(|results| (0, results)),
    }
}

/// Run the demo; returns the rendered report and an overall verdict.
/// Writes `VERIFY_elastic.json`.
pub fn elastic_demo(quick: bool) -> (String, bool) {
    let (mut out, mut ok, json) = elastic_acts(quick);
    ok &= crate::write_artifact(&mut out, "  ", "VERIFY_elastic.json", &json);
    let _ = writeln!(out, "elastic: {}", if ok { "PASS" } else { "FAIL" });
    (out, ok)
}

/// Both acts: the report so far, whether every verdict held, and the
/// `VERIFY_elastic.json` text (schema `qmc-elastic/v1`).
pub fn elastic_acts(quick: bool) -> (String, bool, String) {
    let mut out = String::new();
    let mut ok = true;
    let cfg = cfg(quick);
    let kill_sweep = (cfg.therm + cfg.sweeps) * 2 / 3;
    let victim = 2usize;

    let _ = writeln!(
        out,
        "elastic worlds: {}-rank PT ladder, {} sweeps, kill rank {victim} at sweep {kill_sweep}",
        cfg.betas.len(),
        cfg.therm + cfg.sweeps
    );
    let want = reference(&cfg);

    // Act 1: a fresh world resumes from the store, bit-identical finish.
    let dir = scratch("respawn");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = respawn_run(&cfg, &dir, victim, kill_sweep);
    std::panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);

    let (respawns, respawn_identical) = match run {
        Ok((respawns, results)) => {
            let identical = results.iter().zip(&want).all(|(got, exp)| {
                bits(&got.0) == bits(&exp.0) && bits(&got.1) == bits(&exp.1) && got.2 == exp.2
            });
            (respawns, identical)
        }
        Err(e) => {
            let _ = writeln!(out, "  act 1: elastic run FAILED: {e:?}");
            (0, false)
        }
    };
    ok &= respawns == 1 && respawn_identical;
    let _ = writeln!(
        out,
        "  act 1: respawned {respawns} rank(s); bit-identical to uninterrupted reference \
         (observables + RNG draws): {}",
        if respawn_identical { "yes" } else { "NO" }
    );

    // Act 2: shrink the ladder instead of respawning. Seed a store
    // with one mid-run generation, then resume twice on the shrunk
    // ladder from copies of the same generations.
    let seed_dir = scratch("shrink-seed");
    {
        let cfg2 = cfg.clone();
        let dir2 = seed_dir.clone();
        let every = cfg.sweeps / 2;
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
    let old_betas = cfg.betas.clone();
    let shrunk = PtConfig {
        betas: old_betas
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != victim)
            .map(|(_, b)| *b)
            .collect(),
        ..cfg.clone()
    };
    let copy_dir = scratch("shrink-copy");
    copy_store(&seed_dir, &copy_dir);
    let resume = |dir: &Path| -> Vec<RankOut> {
        let cfg2 = shrunk.clone();
        let old: Vec<f64> = old_betas.clone();
        let dir2 = dir.to_path_buf();
        let every = cfg.sweeps / 2;
        run_threads(shrunk.betas.len(), move |comm| {
            let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
            let store = CkptStore::new(&dir2, 3).expect("resize store");
            let ck = PtCheckpointing {
                store: &store,
                every,
                full_every: 0,
                resume: true,
                stop: None,
                elastic_from: Some(&old),
            };
            let (e, r) = run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, _| {});
            (e, r, rng.draws)
        })
    };
    let a = resume(&seed_dir);
    let b = resume(&copy_dir);
    let _ = std::fs::remove_dir_all(&seed_dir);
    let _ = std::fs::remove_dir_all(&copy_dir);

    let shrink_deterministic = a
        .iter()
        .zip(&b)
        .all(|(ra, rb)| bits(&ra.0) == bits(&rb.0) && bits(&ra.1) == bits(&rb.1) && ra.2 == rb.2);
    let shrink_rows = a
        .iter()
        .all(|(e, r, _)| e.len() == shrunk.sweeps && r.len() == shrunk.betas.len() - 1);
    ok &= shrink_deterministic && shrink_rows;
    let _ = writeln!(
        out,
        "  act 2: shrank ladder {} -> {} rungs; deterministic resume: {}; \
         full survivor history: {}",
        old_betas.len(),
        shrunk.betas.len(),
        if shrink_deterministic { "yes" } else { "NO" },
        if shrink_rows { "yes" } else { "NO" }
    );

    let mut json = qmc_obs::json::JsonWriter::artifact("qmc-elastic/v1");
    json.key("respawns").u64(respawns as u64);
    json.key("resizes").u64(1);
    json.key("verdicts").begin_object();
    json.key("respawn_bit_identical").bool(respawn_identical);
    json.key("shrink_deterministic").bool(shrink_deterministic);
    json.key("shrink_full_history").bool(shrink_rows);
    json.end_object();
    (out, ok, json.finish())
}
