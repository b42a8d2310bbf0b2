//! Job execution: engine set-up and outcome mapping for each job kind.
//! Neither kind owns a run loop: a serial TFIM job runs its engine through
//! [`qmc_ckpt::run_engine`] — the single sweep-boundary loop (restore,
//! checkpoint *before* the sweep whose index the generation carries,
//! drain/kill at sweep boundaries) that `SerialTfim::run` and the `qmc`
//! CLI also run through, so a job checkpointed by one attempt on a worker
//! — or by the CLI — resumes bit-identically in the next; a
//! parallel-tempering job hands its policy to
//! `qmc_core::pt::run_pt_parallel_ckpt`.
//!
//! Kills come in two flavors, both deterministic:
//! * serial jobs abort at a chosen sweep boundary, leaving the store
//!   exactly as a real mid-run death would (any generation due at that
//!   boundary is written; nothing newer);
//! * parallel-tempering jobs die for real: one rank of the job's
//!   ThreadWorld panics mid-run, and the attempt rides the death through
//!   under `qmc_core::pt::run_pt_elastic` (see `run_pt`).

use crate::job::{JobKind, JobObservables, JobSpec};
use qmc_ckpt::{run_engine, Cadence, CkptStore, End, Policy};
use qmc_comm::{run_threads, Communicator, WorldError};
use qmc_core::pt::{run_pt_elastic, run_pt_parallel_ckpt, with_run_store, PtConfig};
use qmc_obs::Registry;
use qmc_rng::{StreamFactory, Xoshiro256StarStar};
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How a single attempt at a job ended.
#[derive(Debug)]
pub enum Outcome {
    /// Ran to completion; per-tenant engine counters ride along for the
    /// metrics namespace.
    Done {
        /// The job's observable series.
        obs: JobObservables,
        /// Per-tenant engine counters for the metrics namespace.
        metrics: Registry,
        /// Rank deaths absorbed by relaunching the world during the
        /// attempt.
        respawns: u32,
        /// Whether the β ladder was resized (shrunk) to finish.
        resized: bool,
    },
    /// The worker died at (or near) this sweep; the job's checkpoint
    /// store holds its latest surviving generation.
    Killed {
        /// Sweep boundary of the injected death.
        at_sweep: u64,
    },
    /// Graceful drain: a final checkpoint generation was written at this
    /// boundary before exiting.
    Drained {
        /// Sweep boundary the drain checkpoint carries.
        at_sweep: u64,
    },
    /// The attempt cannot proceed and a retry would hit the same wall
    /// (e.g. the checkpoint store fails to restore). The scheduler fails
    /// the job with this reason instead of requeueing it forever.
    Failed {
        /// What went wrong, with enough context to diagnose.
        reason: String,
    },
}

/// Controls for one attempt: checkpointing, fault injection, drain, and
/// progress streaming.
pub struct RunCtl<'a> {
    /// Per-job checkpoint store (`None` disables checkpointing — used
    /// for uninterrupted reference runs).
    pub store: Option<&'a CkptStore>,
    /// Checkpoint cadence in sweeps.
    pub every: usize,
    /// Full-snapshot cadence in generations (0 = all full).
    pub full_every: usize,
    /// Resume from the newest generation (a fresh store has none, so
    /// this is safe to leave on).
    pub resume: bool,
    /// Deterministic injected death at this sweep boundary.
    pub kill_at: Option<u64>,
    /// Graceful-drain flag, checked at sweep boundaries.
    pub stop: Option<&'a AtomicBool>,
    /// How many rank deaths a parallel attempt may absorb by relaunching
    /// a fresh world from the store before it resizes the ladder (and,
    /// failing that, requeues). `0` resizes on the first death.
    pub respawn_budget: usize,
    /// Progress callback: `(sweep, total, mean_energy)` at every
    /// checkpoint boundary.
    pub snapshot: Option<&'a mut dyn FnMut(u64, u64, f64)>,
}

impl Default for RunCtl<'_> {
    fn default() -> Self {
        RunCtl {
            store: None,
            every: 10,
            full_every: 3,
            resume: true,
            kill_at: None,
            stop: None,
            respawn_budget: 1,
            snapshot: None,
        }
    }
}

/// Run one attempt of `spec` under `ctl`. The spec must already be
/// validated; parameter errors here are bugs, not tenant input.
pub fn run_job(spec: &JobSpec, ctl: RunCtl<'_>) -> Outcome {
    // "Every 0 sweeps" is no schedule; retrying would hit the same wall.
    let cadence = match Cadence::new(ctl.every, ctl.full_every) {
        Ok(cadence) => cadence,
        Err(e) => {
            return Outcome::Failed {
                reason: e.to_string(),
            }
        }
    };
    match &spec.kind {
        JobKind::Tfim {
            lx,
            ly,
            j,
            h,
            m,
            wolff,
        } => {
            let model = TfimModel {
                lx: *lx,
                ly: *ly,
                j: *j,
                h: *h,
                beta: spec.betas[0],
                m: *m,
            };
            run_tfim(model, *wolff, spec, ctl, cadence)
        }
        JobKind::PtXxz {
            l,
            jx,
            jz,
            m,
            exchange_every,
        } => {
            let cfg = PtConfig {
                l: *l,
                jx: *jx,
                jz: *jz,
                m: *m,
                betas: spec.betas.clone(),
                therm: spec.therm as usize,
                sweeps: spec.sweeps as usize,
                exchange_every: *exchange_every,
                seed: spec.seed,
            };
            run_pt(cfg, ctl)
        }
    }
}

/// Serial TFIM attempt: the engine through the shared [`run_engine`] loop.
fn run_tfim(
    model: TfimModel,
    wolff: usize,
    spec: &JobSpec,
    mut ctl: RunCtl<'_>,
    cadence: Cadence,
) -> Outcome {
    let (therm, sweeps) = (spec.therm as usize, spec.sweeps as usize);
    let total = therm + sweeps;
    let mut eng = SerialTfim::new(model);
    eng.wolff_per_sweep = wolff;
    let mut rng = Xoshiro256StarStar::new(spec.seed);

    let policy = ctl.store.map(|store| Policy {
        store,
        cadence,
        resume: ctl.resume,
        stop: ctl.stop,
    });
    let run = run_engine(
        &mut eng,
        &mut rng,
        therm,
        sweeps,
        policy.as_ref(),
        ctl.kill_at.map(|k| k as usize),
        |series, s| {
            if let Some(snap) = ctl.snapshot.as_deref_mut() {
                let e = &series.energy;
                let mean = if e.is_empty() {
                    f64::NAN
                } else {
                    e.iter().sum::<f64>() / e.len() as f64
                };
                snap(s as u64, total as u64, mean);
            }
        },
    );
    match run {
        Ok((End::Finished, series)) => Outcome::Done {
            obs: JobObservables {
                // Cloned, not moved: the server retains results, and a
                // clone drops the series' spare growth capacity.
                energy: vec![series.energy.clone()],
                extra: vec![series.abs_m.clone()],
            },
            metrics: eng.metrics().clone(),
            respawns: 0,
            resized: false,
        },
        Ok((End::Drained { at }, _)) => Outcome::Drained {
            at_sweep: at as u64,
        },
        Ok((End::Killed { at }, _)) => Outcome::Killed {
            at_sweep: at as u64,
        },
        // A restore failure (corrupt generation, or a checkpoint written
        // by a different spec) is terminal for the job, not the worker:
        // report it instead of panicking the pool thread.
        Err(e) => Outcome::Failed {
            reason: format!("restore from checkpoint: {e}"),
        },
    }
}

/// Serializes panic-hook swaps across workers: injected PT kills unwind
/// a whole ThreadWorld, and silencing the expected panic must not race
/// another worker doing the same.
static KILL_HOOK: Mutex<()> = Mutex::new(());

/// Parallel-tempering attempt on a fresh ThreadWorld (one rank per β).
///
/// A kill-armed attempt runs under [`run_pt_elastic`], the elastic
/// policy: a rank death is absorbed *inside the attempt* by a fresh
/// world resuming from the store (up to `ctl.respawn_budget`
/// relaunches, bit-identical to a run that never died), then by a
/// ladder resize. Only when neither applies does the attempt report
/// `Killed` for the scheduler's requeue path; a stalled world fails the
/// job. An unarmed attempt runs one world and honours the drain flag.
fn run_pt(cfg: PtConfig, mut ctl: RunCtl<'_>) -> Outcome {
    let cadence = (ctl.every, ctl.full_every);
    let dir = ctl.store.map(|s| s.dir().to_path_buf());
    let (sweeps, total) = (cfg.sweeps, (cfg.therm + cfg.sweeps) as u64);
    let snap = ctl.snapshot.take();

    if let Some(kill_sweep) = ctl.kill_at {
        // One-shot injected death: rank `1 % size` panics at the
        // scheduled sweep on its first pass only — a respawned world
        // replaying that boundary must not die again (see `KILL_HOOK`).
        let fired = AtomicBool::new(false);
        let guard = KILL_HOOK.lock().expect("kill hook guard");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = run_pt_elastic(
            &cfg,
            dir.as_deref(),
            cadence,
            ctl.respawn_budget,
            move |comm, cfg, ck| {
                let mut rng = StreamFactory::new(cfg.seed).stream(comm.rank());
                run_pt_parallel_ckpt(comm, cfg, &mut rng, ck, |c, s| {
                    if s as u64 == kill_sweep
                        && c.rank() == 1 % c.size()
                        && !fired.swap(true, Ordering::SeqCst)
                    {
                        panic!("injected rank kill at sweep {s}");
                    }
                })
            },
        );
        std::panic::set_hook(hook);
        drop(guard);
        return match run {
            Ok(run) => pt_outcome(run.results, total, snap, run.respawns, run.resized),
            Err(WorldError::RankDied { .. }) => Outcome::Killed {
                at_sweep: kill_sweep,
            },
            Err(WorldError::Stalled { message, .. }) => Outcome::Failed { reason: message },
        };
    }

    // Every rank shares the same drain flag; the PT driver reads it only
    // on rank 0 and broadcasts the verdict, so this is rank-consistent.
    let results = run_threads(cfg.betas.len(), |comm| {
        let mut rng = StreamFactory::new(cfg.seed).stream(comm.rank());
        with_run_store(dir.as_deref(), cadence, ctl.stop, None, |ck| {
            run_pt_parallel_ckpt(comm, &cfg, &mut rng, ck, |_, _| {})
        })
    });
    if results[0].0.len() < sweeps {
        // Drained: the drain checkpoint, the store's newest generation,
        // carries the boundary, even where no energy was recorded yet.
        let newest = ctl.store.and_then(|s| s.generations().last().copied());
        let at = newest.unwrap_or(0);
        if let Some(s) = snap {
            s(at, total, f64::NAN);
        }
        return Outcome::Drained { at_sweep: at };
    }
    pt_outcome(results, total, snap, 0, false)
}

fn pt_outcome(
    results: Vec<(Vec<f64>, Vec<f64>)>,
    total: u64,
    snapshot: Option<&mut dyn FnMut(u64, u64, f64)>,
    respawns: u32,
    resized: bool,
) -> Outcome {
    let rates = results.first().map(|(_, r)| r.clone()).unwrap_or_default();
    let energy: Vec<Vec<f64>> = results.into_iter().map(|(e, _)| e).collect();
    if let Some(snap) = snapshot {
        let mean = energy
            .first()
            .filter(|e| !e.is_empty())
            .map(|e| e.iter().sum::<f64>() / e.len() as f64)
            .unwrap_or(f64::NAN);
        snap(total, total, mean);
    }
    Outcome::Done {
        obs: JobObservables {
            energy,
            extra: vec![rates],
        },
        metrics: Registry::new(),
        respawns,
        resized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU64;

    fn scratch(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qmc-serve-run-{}-{label}-{n}", std::process::id()))
    }

    fn tfim_spec() -> JobSpec {
        JobSpec {
            tenant: "alice".into(),
            name: "t".into(),
            kind: JobKind::Tfim {
                lx: 4,
                ly: 1,
                j: 1.0,
                h: 2.0,
                m: 4,
                wolff: 1,
            },
            betas: vec![1.0],
            therm: 5,
            sweeps: 15,
            seed: 11,
            priority: 0,
            ckpt_every: 4,
        }
    }

    fn pt_spec() -> JobSpec {
        JobSpec {
            tenant: "bob".into(),
            name: "pt".into(),
            kind: JobKind::PtXxz {
                l: 8,
                jx: 1.0,
                jz: 1.0,
                m: 8,
                exchange_every: 2,
            },
            betas: vec![0.5, 0.9, 1.4, 2.0],
            therm: 8,
            sweeps: 16,
            seed: 23,
            priority: 0,
            ckpt_every: 4,
        }
    }

    fn reference(spec: &JobSpec) -> JobObservables {
        match run_job(spec, RunCtl::default()) {
            Outcome::Done { obs, .. } => obs,
            other => panic!("reference run must complete, got {other:?}"),
        }
    }

    #[test]
    fn tfim_kill_and_resume_is_bit_identical() {
        let spec = tfim_spec();
        let want = reference(&spec);
        for kill in [3u64, 9, 14] {
            let dir = scratch("tfim-kill");
            let store = CkptStore::new(&dir, 3).unwrap();
            let killed = run_job(
                &spec,
                RunCtl {
                    store: Some(&store),
                    every: 4,
                    kill_at: Some(kill),
                    ..Default::default()
                },
            );
            assert!(matches!(killed, Outcome::Killed { at_sweep } if at_sweep == kill));
            let resumed = run_job(
                &spec,
                RunCtl {
                    store: Some(&store),
                    every: 4,
                    ..Default::default()
                },
            );
            match resumed {
                Outcome::Done { obs, .. } => {
                    assert!(obs.bits_eq(&want), "kill at {kill}: observables diverged")
                }
                other => panic!("resume must complete, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn pt_world_kill_rides_through_via_respawn_bit_identical() {
        let spec = pt_spec();
        let want = reference(&spec);
        let dir = scratch("pt-kill");
        let store = CkptStore::new(&dir, 3).unwrap();
        let kill = (spec.therm + spec.sweeps) as u64 * 2 / 3;
        // One rank dies mid-flight; a fresh world resumes from the store,
        // every rank at the newest coordinated generation, and finishes
        // in the SAME run_job call — no external requeue needed.
        let outcome = run_job(
            &spec,
            RunCtl {
                store: Some(&store),
                every: 4,
                kill_at: Some(kill),
                ..Default::default()
            },
        );
        match outcome {
            Outcome::Done {
                obs,
                respawns,
                resized,
                ..
            } => {
                assert_eq!(respawns, 1, "exactly one respawn expected");
                assert!(!resized, "respawn path must not shrink the ladder");
                assert!(obs.bits_eq(&want), "PT respawn ride-through diverged");
            }
            other => panic!("ride-through must complete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pt_world_kill_with_no_budget_resizes_the_ladder() {
        let spec = pt_spec();
        let dir = scratch("pt-resize");
        let store = CkptStore::new(&dir, 3).unwrap();
        let kill = (spec.therm + spec.sweeps) as u64 * 2 / 3;
        let outcome = run_job(
            &spec,
            RunCtl {
                store: Some(&store),
                every: 4,
                kill_at: Some(kill),
                respawn_budget: 0,
                ..Default::default()
            },
        );
        match outcome {
            Outcome::Done {
                obs,
                respawns,
                resized,
                ..
            } => {
                assert_eq!(respawns, 0);
                assert!(resized, "budget 0 must fall back to a ladder resize");
                // One β was dropped: the surviving ladder has one fewer row.
                assert_eq!(obs.energy.len(), spec.betas.len() - 1);
            }
            other => panic!("resize ride-through must complete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pt_world_kill_without_store_or_budget_is_killed() {
        let spec = pt_spec();
        let kill = (spec.therm + spec.sweeps) as u64 * 2 / 3;
        let outcome = run_job(
            &spec,
            RunCtl {
                kill_at: Some(kill),
                respawn_budget: 0,
                ..Default::default()
            },
        );
        assert!(
            matches!(outcome, Outcome::Killed { at_sweep } if at_sweep == kill),
            "{outcome:?}"
        );
    }

    #[test]
    fn tfim_drain_then_resume_is_bit_identical() {
        let spec = tfim_spec();
        let want = reference(&spec);
        let dir = scratch("tfim-drain");
        let store = CkptStore::new(&dir, 3).unwrap();
        let flag = AtomicBool::new(true); // drain immediately at the first boundary
        let drained = run_job(
            &spec,
            RunCtl {
                store: Some(&store),
                every: 4,
                stop: Some(&flag),
                ..Default::default()
            },
        );
        assert!(matches!(drained, Outcome::Drained { .. }), "{drained:?}");
        let resumed = run_job(
            &spec,
            RunCtl {
                store: Some(&store),
                every: 4,
                ..Default::default()
            },
        );
        match resumed {
            Outcome::Done { obs, .. } => assert!(obs.bits_eq(&want), "drain resume diverged"),
            other => panic!("resume must complete, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pt_drain_during_thermalization_reports_its_boundary() {
        let dir = scratch("pt-drain");
        let store = CkptStore::new(&dir, 3).unwrap();
        // Raised before the run: the drain comes at boundary 0, inside
        // therm = 8, with no measurement recorded yet.
        let flag = AtomicBool::new(true);
        let ctl = RunCtl {
            store: Some(&store),
            stop: Some(&flag),
            ..Default::default()
        };
        let drained = run_job(&pt_spec(), ctl);
        assert!(
            matches!(drained, Outcome::Drained { at_sweep: 0 }),
            "{drained:?}"
        );
        assert_eq!(store.generations(), [0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_stream_at_checkpoint_boundaries() {
        let spec = tfim_spec();
        let dir = scratch("tfim-snap");
        let store = CkptStore::new(&dir, 3).unwrap();
        let mut seen: Vec<(u64, u64)> = Vec::new();
        let mut cb = |sweep: u64, total: u64, _mean: f64| seen.push((sweep, total));
        let done = run_job(
            &spec,
            RunCtl {
                store: Some(&store),
                every: 4,
                snapshot: Some(&mut cb),
                ..Default::default()
            },
        );
        assert!(matches!(done, Outcome::Done { .. }));
        let total = (spec.therm + spec.sweeps) as u64;
        assert_eq!(
            seen,
            (0..total)
                .step_by(4)
                .map(|s| (s, total))
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
