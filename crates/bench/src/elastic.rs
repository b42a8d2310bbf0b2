//! `repro elastic` — the elastic-worlds demo.
//!
//! Both acts run the elastic policy qmc-serve runs,
//! [`qmc_core::pt::run_pt_elastic`], through [`kill_run`], and each is
//! judged against an uninterrupted reference run:
//!
//! 1. **Respawn**: a 4-rank parallel-tempering world loses a rank
//!    mid-flight. A fresh world resumes from the store: every rank of
//!    the new launch restores from the newest coordinated checkpoint
//!    generation. The finished run must be bit-identical — observables
//!    AND total RNG draw counts — to a run that never died.
//! 2. **Shrink**: the same death with a zero respawn budget makes the
//!    policy drop the dead β rung and resume the survivors on the shrunk
//!    ladder. Two such runs over separate stores must agree bit for bit,
//!    and every survivor must carry its full measurement history across
//!    the resize.
//!
//! Writes `VERIFY_elastic.json` (schema `qmc-elastic/v1`) at the
//! repository root with the respawns and resizes the policy counted and
//! the per-act verdicts; the caller exits non-zero when any verdict
//! fails (the `scripts/check.sh elastic` stage).

use qmc_comm::{run_threads, Communicator, WorldError};
use qmc_core::pt::{run_pt_elastic, run_pt_parallel_ckpt, ElasticRun, PtConfig};
use qmc_rng::{CountingRng, StreamFactory};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether two runs agree bit for bit: energies, rates and draw counts.
pub fn same_bits(a: &[RankOut], b: &[RankOut]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| bits(&x.0) == bits(&y.0) && bits(&x.1) == bits(&y.1) && x.2 == y.2)
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
    run_threads(cfg.betas.len(), |comm| {
        let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
        let (e, r) = run_pt_parallel_ckpt(comm, cfg, &mut rng, None, |_, _| {});
        (e, r, rng.draws)
    })
}

/// `cfg` under the elastic policy with a store in `dir` (a generation
/// every 2 sweeps, every second one full), where rank `victim` dies
/// once, at sweep `kill_sweep`, and the policy may relaunch a full-size
/// world `respawn_budget` times before it resizes.
///
/// The kill is one-shot: a relaunched world replays that boundary and
/// must not die on it again. The caller silences the expected panic.
pub fn kill_run(
    cfg: &PtConfig,
    dir: &Path,
    victim: usize,
    kill_sweep: usize,
    respawn_budget: usize,
) -> Result<ElasticRun<RankOut>, WorldError> {
    let fired = AtomicBool::new(false);
    run_pt_elastic(
        cfg,
        Some(dir),
        (2, 2),
        respawn_budget,
        move |comm, cfg, ck| {
            let mut rng = CountingRng::new(StreamFactory::new(17).stream(comm.rank()));
            let (e, r) = run_pt_parallel_ckpt(comm, cfg, &mut rng, ck, |c, s| {
                if s == kill_sweep && c.rank() == victim && !fired.swap(true, Ordering::SeqCst) {
                    panic!("injected kill: rank {victim} at sweep {s}");
                }
            });
            (e, r, rng.draws)
        },
    )
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

    // Each run in a store of its own; the expected panics are silenced.
    let run = |out: &mut String, label: &str, respawn_budget: usize| {
        let dir = crate::scratch(label);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = kill_run(&cfg, &dir, victim, kill_sweep, respawn_budget);
        std::panic::set_hook(hook);
        let _ = std::fs::remove_dir_all(&dir);
        run.map_err(|e| {
            let _ = writeln!(out, "  {label}: elastic run FAILED: {e:?}");
        })
        .ok()
    };

    // Act 1: a fresh world resumes from the store, bit-identical finish.
    let act1 = run(&mut out, "respawn", 1);
    let respawn_identical = act1
        .as_ref()
        .is_some_and(|a| !a.resized && same_bits(&a.results, &want));
    let respawns = act1.as_ref().map_or(0, |a| a.respawns);
    ok &= respawns == 1 && respawn_identical;
    let _ = writeln!(
        out,
        "  act 1: respawned {respawns} rank(s); bit-identical to uninterrupted reference \
         (observables + RNG draws): {}",
        if respawn_identical { "yes" } else { "NO" }
    );

    // Act 2: no respawn budget, so the policy shrinks the ladder; a
    // second run over a store of its own must agree bit for bit.
    let (a, b) = (run(&mut out, "shrink-a", 0), run(&mut out, "shrink-b", 0));
    let shrink_deterministic =
        (a.as_ref().zip(b.as_ref())).is_some_and(|(a, b)| same_bits(&a.results, &b.results));
    let rungs = a.as_ref().map_or(0, |a| a.results.len());
    let shrink_rows = a.as_ref().is_some_and(|a| {
        a.resized
            && rungs == cfg.betas.len() - 1
            && a.results
                .iter()
                .all(|(e, r, _)| e.len() == cfg.sweeps && r.len() == rungs - 1)
    });
    ok &= shrink_deterministic && shrink_rows;
    let _ = writeln!(
        out,
        "  act 2: shrank ladder {} -> {rungs} rungs; deterministic resume: {}; \
         full survivor history: {}",
        cfg.betas.len(),
        if shrink_deterministic { "yes" } else { "NO" },
        if shrink_rows { "yes" } else { "NO" }
    );

    let mut json = qmc_obs::json::JsonWriter::artifact("qmc-elastic/v1");
    // What the policy counted, over act 1 and act 2's first run.
    let counted = || act1.iter().chain(&a);
    json.key("respawns")
        .u64(counted().map(|r| u64::from(r.respawns)).sum());
    json.key("resizes")
        .u64(counted().map(|r| u64::from(r.resized)).sum());
    json.key("verdicts").begin_object();
    json.key("respawn_bit_identical").bool(respawn_identical);
    json.key("shrink_deterministic").bool(shrink_deterministic);
    json.key("shrink_full_history").bool(shrink_rows);
    json.end_object();
    (out, ok, json.finish())
}
