//! `repro faults` — fault injection, recovery, and deterministic resume.
//!
//! A three-act demonstration on a 4-rank thread-backed parallel-tempering
//! run (one replica per rank, common-random-number swap decisions):
//!
//! 1. **Reference** — a clean run records every rank's energy series and
//!    the pair acceptance rates.
//! 2. **Absorbable faults** — the same run behind [`qmc_comm::FaultyComm`]
//!    with seeded drops, duplicates, delays, and transient send failures.
//!    The retry/backoff and sequence-number layers absorb all of it: the
//!    results must be bit-identical to the reference.
//! 3. **Rank kill + recovery** — the run checkpoints every few sweeps
//!    through the coordinated rank-0 store; a scheduled kill takes one
//!    rank down mid-run (its peers give up after bounded retries). A
//!    fresh world then resumes from the newest intact generation — still
//!    under injected faults — and must land on the identical trajectory.
//!
//! The same machinery backs `--checkpoint-every/--checkpoint-dir/--resume`
//! on the `qmc` CLI and the crash-at-every-boundary tests in
//! `tests/checkpoint.rs`.

use qmc_ckpt::CkptStore;
use qmc_comm::{run_threads, run_threads_with_timeout, Communicator, FaultPlan, FaultyComm};
use qmc_core::pt::{geometric_ladder, run_pt_parallel_ckpt, PtCheckpointing, PtConfig};
use qmc_rng::StreamFactory;
use std::fmt::Write as _;
use std::time::Duration;

/// Ranks (= temperatures) in the demo ladder.
const RANKS: usize = 4;

/// The rank the scheduled kill takes down in act 3.
const KILLED_RANK: usize = 2;

fn demo_cfg(quick: bool) -> PtConfig {
    PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 8,
        betas: geometric_ladder(0.5, 2.0, RANKS),
        therm: if quick { 10 } else { 30 },
        sweeps: if quick { 30 } else { 90 },
        exchange_every: 2,
        seed: 4242,
    }
}

/// Absorbable-fault schedule: noisy but survivable.
fn noisy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drops(30)
        .duplicates(30)
        .delays(40)
        .transient_fails(20)
        .retry(8, Duration::from_millis(25))
}

type RankResult = (Vec<f64>, Vec<f64>);

fn bitwise_equal(a: &[RankResult], b: &[RankResult]) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| bits(&x.0) == bits(&y.0) && bits(&x.1) == bits(&y.1))
}

/// Clean reference run (no fault layer, no checkpointing).
fn reference_run(cfg: &PtConfig) -> Vec<RankResult> {
    let cfg = cfg.clone();
    run_threads(RANKS, move |comm| {
        let mut rng = StreamFactory::new(cfg.seed).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg, &mut rng, None, |_, _| {})
    })
}

/// The same run behind `FaultyComm`, optionally checkpointing into
/// `dir`, optionally resuming, with the plan's scheduled kill (if any)
/// armed. Returns per-rank `(result, fault_stats)`.
fn faulty_run(
    cfg: &PtConfig,
    plan: FaultPlan,
    ckpt: Option<(&str, usize, bool)>,
    timeout: Duration,
) -> Vec<(RankResult, qmc_comm::FaultStats)> {
    let cfg = cfg.clone();
    let ckpt = ckpt.map(|(d, e, r)| (d.to_string(), e, r));
    run_threads_with_timeout(RANKS, timeout, move |comm| {
        let mut rng = StreamFactory::new(cfg.seed).stream(comm.rank());
        let mut faulty = FaultyComm::new(comm, plan);
        let opened = ckpt.as_ref().map(|(dir, every, resume)| {
            let store = CkptStore::new(dir, 3).expect("checkpoint dir");
            (store, *every, *resume)
        });
        let ck = opened
            .as_ref()
            .map(|&(ref store, every, resume)| PtCheckpointing {
                store,
                every,
                full_every: 2,
                resume,
                stop: None,
                elastic_from: None,
            });
        let result = run_pt_parallel_ckpt(&mut faulty, &cfg, &mut rng, ck.as_ref(), |c, s| {
            c.tick_sweep(s)
        });
        let stats = faulty.fault_stats();
        qmc_obs::publish_fault_stats(&stats);
        (result, stats)
    })
}

/// The fault-injection demo — `repro faults`.
///
/// `every`/`dir` override the checkpoint cadence and directory (`0` /
/// empty = defaults); `resume_only` skips the reference and crash acts
/// and just resumes whatever the directory holds (the flag `--resume`).
pub fn faults_demo(quick: bool, every: usize, dir: &str, resume_only: bool) -> String {
    let cfg = demo_cfg(quick);
    let every = if every == 0 { 8 } else { every };
    let default_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ckpt/faults-demo");
    let dir = if dir.is_empty() { default_dir } else { dir };
    let total = cfg.therm + cfg.sweeps;
    let kill_sweep = 2 * total / 3;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault demo: {RANKS}-rank PT ladder (L={}, m={}, β ∈ [{:.2}, {:.2}]), \
         {total} sweeps, checkpoint every {every}",
        cfg.l,
        cfg.m,
        cfg.betas[0],
        cfg.betas[RANKS - 1],
    );

    // Act 1: the clean reference trajectory.
    let reference = reference_run(&cfg);
    let mean0 = reference[0].0.iter().sum::<f64>() / reference[0].0.len().max(1) as f64;
    let _ = writeln!(
        out,
        "  reference: rank-0 ⟨E/N⟩ = {mean0:+.6}, swap rates {:?}",
        reference[0]
            .1
            .iter()
            .map(|r| (r * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    if !resume_only {
        // Act 2: absorbable faults must not change a single bit.
        let noisy = faulty_run(&cfg, noisy_plan(909), None, Duration::from_secs(60));
        let results: Vec<RankResult> = noisy.iter().map(|(r, _)| r.clone()).collect();
        let absorbed = bitwise_equal(&reference, &results);
        let sum =
            |f: fn(&qmc_comm::FaultStats) -> u64| noisy.iter().map(|(_, s)| f(s)).sum::<u64>();
        let _ = writeln!(
            out,
            "  absorbed faults: {} drops, {} dups, {} delays, {} send failures \
             → {} retries, {} stale discards; results bit-identical: {}",
            sum(|s| s.dropped),
            sum(|s| s.duplicated),
            sum(|s| s.delayed),
            sum(|s| s.send_failures),
            sum(|s| s.retries),
            sum(|s| s.stale_discarded),
            if absorbed { "yes" } else { "NO" }
        );
        assert!(absorbed, "absorbable faults changed the trajectory");

        // Act 3a: checkpoint + scheduled rank kill. The whole world goes
        // down (peers exhaust their retries); silence the panic hook so
        // the expected crash does not spray backtraces over the report.
        let _ = std::fs::remove_dir_all(dir);
        let kill_plan = noisy_plan(909)
            .kill(KILLED_RANK, kill_sweep)
            .retry(3, Duration::from_millis(10));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty_run(
                &cfg,
                kill_plan,
                Some((dir, every, false)),
                Duration::from_secs(5),
            )
        }));
        std::panic::set_hook(hook);
        assert!(
            crashed.is_err(),
            "the scheduled kill must take the run down"
        );
        let _ = writeln!(
            out,
            "  kill: rank {KILLED_RANK} down at sweep {kill_sweep}; world lost \
             (peers gave up after bounded retries)"
        );
    }

    // Act 3b: resume from the newest intact generation, faults still on.
    let survivor = CkptStore::new(dir, 3).expect("checkpoint dir");
    let generation = survivor
        .generations()
        .last()
        .copied()
        .expect("a coordinated checkpoint survived the crash");
    let resumed = faulty_run(
        &cfg,
        noisy_plan(911),
        Some((dir, every, true)),
        Duration::from_secs(60),
    );
    let results: Vec<RankResult> = resumed.iter().map(|(r, _)| r.clone()).collect();
    let identical = bitwise_equal(&reference, &results);
    let retries = resumed
        .iter()
        .map(|(_, s)| s.retries + s.timeouts)
        .sum::<u64>();
    let _ = writeln!(
        out,
        "  recovery: resumed from generation {generation} under injected faults \
         ({retries} retry/timeout events); trajectory bit-identical: {}",
        if identical { "yes" } else { "NO" }
    );
    assert!(
        identical,
        "resumed run diverged from the reference trajectory"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbable_faults_and_recovery_reproduce_the_reference() {
        let dir = std::env::temp_dir().join(format!("qmc-faults-demo-{}", std::process::id()));
        let report = faults_demo(true, 0, dir.to_str().unwrap(), false);
        assert!(report.contains("bit-identical: yes"));
        assert!(!report.contains("bit-identical: NO"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
