//! Checkpoint/restart integration tests.
//!
//! The contract of `qmc-ckpt` is that a resumed run is indistinguishable
//! from one that never stopped: with a fixed seed, killing a run at *any*
//! sweep boundary and resuming from the newest on-disk generation must
//! reproduce the final observable series bit for bit and draw exactly as
//! many random numbers. The crash matrix below kills each engine at every
//! sweep index; the parallel-tempering test kills a live rank through the
//! fault-injection layer and recovers a 4-rank ThreadWorld run from the
//! coordinated checkpoint.

use qmc_ckpt::{
    load_state, run_engine, save_state, Cadence, Checkpoint, CkptError, CkptStore, End, Engine,
    Policy,
};
use qmc_comm::{run_threads, run_threads_with_timeout, Communicator, FaultPlan, FaultyComm};
use qmc_core::pt::{run_pt_parallel_ckpt, PtCheckpointing, PtConfig, PtLadder};
use qmc_lattice::{Chain, Square};
use qmc_rng::{Buffered, CountingRng, Rng64, StreamFactory, Xoshiro256StarStar};
use qmc_sse::Sse;
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Unique scratch checkpoint directory (std-only, no tempdir crate).
fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-ckpt-it-{}-{label}-{n}", std::process::id()))
}

/// `eng` from sweep 0 through `qmc_ckpt::run_engine`: `None` when the run
/// ended early (killed or drained). A store that does not restore fails
/// the test.
fn ckpt_run<R: Checkpoint, E: Engine<R>>(
    mut eng: E,
    rng: &mut R,
    therm: usize,
    sweeps: usize,
    ck: Option<&Policy<'_>>,
    kill_at: Option<usize>,
) -> Option<(E, E::Series)> {
    let (end, series) = run_engine(&mut eng, rng, therm, sweeps, ck, kill_at, |_, _| {})
        .expect("restore from checkpoint");
    (end == End::Finished).then_some((eng, series))
}

/// Crash-at-every-boundary matrix: `run(ck, kill_at, rng)` executes one
/// engine workload (`total` sweeps, fresh identically-seeded RNG each
/// call) and returns its observable fingerprint. For every sweep index k
/// the run is killed at k and resumed; fingerprint and draw count must
/// equal the uninterrupted reference.
fn crash_matrix<T, F>(label: &str, total: usize, every: usize, run: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(Option<&Policy<'_>>, Option<usize>) -> Option<(T, u64)>,
{
    let reference = run(None, None).expect("reference run completes");
    for k in 1..total {
        let dir = scratch(label);
        let store = CkptStore::new(&dir, 2).expect("scratch store");
        // `full_every: 3` exercises the delta chains: most generations in
        // the matrix are deltas against an earlier full snapshot, so every
        // bit-identity assertion below also covers delta restore.
        let ck = Policy {
            store: &store,
            cadence: Cadence::new(every, 3).unwrap(),
            resume: false,
            stop: None,
        };
        assert!(
            run(Some(&ck), Some(k)).is_none(),
            "{label}: kill at sweep {k} must abort the run"
        );
        let ck = Policy {
            store: &store,
            cadence: Cadence::new(every, 3).unwrap(),
            resume: true,
            stop: None,
        };
        let resumed = run(Some(&ck), None)
            .unwrap_or_else(|| panic!("{label}: resume after kill at {k} did not complete"));
        assert_eq!(
            reference, resumed,
            "{label}: resume after kill at sweep {k} diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn serial_tfim_resumes_bit_identical_at_every_boundary() {
    let (therm, sweeps, every) = (6, 12, 5);
    crash_matrix("tfim", therm + sweeps, every, |ck, kill| {
        let model = TfimModel {
            lx: 8,
            ly: 8,
            j: 1.0,
            h: 2.0,
            beta: 1.0,
            m: 4,
        };
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
        let (eng, series) = ckpt_run(SerialTfim::new(model), &mut rng, therm, sweeps, ck, kill)?;
        let mut b = bits(&series.energy);
        b.extend(bits(&series.abs_m));
        b.extend(bits(&series.sigma_x));
        Some(((b, eng.accepted(), eng.proposed()), rng.draws))
    });
}

/// Steady-state delta generations of the serial TFIM driver stay under
/// half the size of full snapshots: the whole 16×16×8 lattice is dirty
/// every generation, but the accumulated series' chunked dirty tracking
/// re-writes only new row chunks.
#[test]
fn serial_tfim_delta_checkpoints_stay_under_half_full_size() {
    let model = TfimModel {
        lx: 16,
        ly: 16,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 8,
    };
    let (sweeps, every) = (600usize, 5usize);
    let run = |every: usize, full_every: usize| -> u64 {
        let dir = scratch("delta-bytes");
        let store = CkptStore::new(&dir, 2).expect("scratch store");
        let ck = Policy {
            store: &store,
            cadence: Cadence::new(every, full_every).unwrap(),
            resume: false,
            stop: None,
        };
        let mut rng = Buffered::new(Xoshiro256StarStar::new(21));
        assert!(
            ckpt_run(SerialTfim::new(model), &mut rng, 0, sweeps, Some(&ck), None).is_some(),
            "run completes"
        );
        let written = store.bytes_written();
        let _ = std::fs::remove_dir_all(&dir);
        written
    };
    let gens = sweeps.div_ceil(every) as u64;
    let first = run(sweeps + 1, 0); // a single full generation at sweep 0
    let full_total = run(every, 0); // every generation a full snapshot
    let delta_total = run(every, usize::MAX); // generation 0 full, rest deltas
    let full_per_gen = (full_total - first) as f64 / (gens - 1) as f64;
    let delta_per_gen = (delta_total - first) as f64 / (gens - 1) as f64;
    let ratio = delta_per_gen / full_per_gen;
    assert!(
        ratio <= 0.5,
        "delta generations {delta_per_gen:.0} B vs full {full_per_gen:.0} B = {ratio:.3}x"
    );
}

#[test]
fn worldline_resumes_bit_identical_at_every_boundary() {
    let (therm, sweeps, every) = (6, 12, 5);
    crash_matrix("worldline", therm + sweeps, every, |ck, kill| {
        let params = WorldlineParams {
            l: 8,
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 8,
        };
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(11));
        let (eng, series) = ckpt_run(Worldline::new(params), &mut rng, therm, sweeps, ck, kill)?;
        let mut b = bits(&series.energy);
        b.extend(bits(&series.magnetization));
        b.extend(bits(&series.correlations()));
        Some(((b, eng.local_accepted, eng.straight_accepted), rng.draws))
    });
}

#[test]
fn generic_worldline_resumes_bit_identical_at_every_boundary() {
    let (therm, sweeps, every) = (6, 12, 5);
    crash_matrix("generic", therm + sweeps, every, |ck, kill| {
        let params = GenericParams {
            jx: 1.0,
            jz: 1.0,
            beta: 1.0,
            m: 8,
        };
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(13));
        let (_eng, series) = ckpt_run(
            GenericWorldline::new(Square::new(4, 4), params),
            &mut rng,
            therm,
            sweeps,
            ck,
            kill,
        )?;
        let mut b = bits(&series.energy);
        b.extend(bits(&series.magnetization));
        Some((b, rng.draws))
    });
}

#[test]
fn sse_resumes_bit_identical_at_every_boundary() {
    let (therm, sweeps, every) = (8, 12, 5);
    crash_matrix("sse", therm + sweeps, every, |ck, kill| {
        let lat = Chain::new(8);
        let mut rng = CountingRng::new(Xoshiro256StarStar::new(17));
        let (eng, series) = ckpt_run(
            Sse::new(&lat, 1.0, 2.0, &mut rng),
            &mut rng,
            therm,
            sweeps,
            ck,
            kill,
        )?;
        let mut b = bits(&series.n_ops);
        b.extend(bits(&series.magnetization));
        Some(((b, eng.cutoff()), rng.draws))
    });
}

/// The four checkpointed drivers `qmc-bench` carried before one engine
/// loop replaced them, kept verbatim: the oracle that loop is compared
/// against, sweep sequence, draw count and every byte of the result.
mod oracle {
    use qmc_ckpt::{drive, Checkpoint, CkptError, End, Policy};
    use qmc_lattice::Lattice;
    use qmc_rng::Rng64;
    use qmc_sse::{Sse, SseSeries};
    use qmc_tfim::serial::{SerialTfim, TfimSeries};
    use qmc_tfim::TfimModel;
    use qmc_worldline::estimators::TimeSeries;
    use qmc_worldline::{GenericParams, GenericWorldline, Worldline, WorldlineParams};

    /// `true` when every sweep ran. A store that does not restore is a
    /// caller error here (wrong directory, wrong engine), not tenant input.
    fn finished(end: Result<End, CkptError>) -> bool {
        end.expect("restore from checkpoint") == End::Finished
    }

    /// Checkpointed serial TFIM run; draw-for-draw identical to
    /// [`SerialTfim::run`]. Returns the final engine alongside the series;
    /// `None` = simulated crash at `kill_at`.
    pub fn run_serial_tfim_ckpt<R: Rng64 + Checkpoint>(
        model: TfimModel,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        wolff_per_sweep: usize,
        ck: Option<&Policy<'_>>,
        kill_at: Option<usize>,
    ) -> Option<(SerialTfim, TfimSeries)> {
        let mut eng = SerialTfim::new(model);
        // The one edit to the old driver: a series states its model in
        // its checkpoint since J, h and β are checked on restore.
        let mut series = TfimSeries::new(&model);
        let done = drive(
            (&mut eng, rng, &mut series),
            therm + sweeps,
            ck,
            kill_at,
            |eng, rng, series, s| {
                eng.metropolis_sweep(rng);
                for _ in 0..wolff_per_sweep {
                    eng.wolff_update(rng);
                }
                if s >= therm {
                    series.record(&eng.measure());
                }
            },
            |_, _| {},
        );
        finished(done).then_some((eng, series))
    }

    /// Checkpointed world-line chain run; draw-for-draw identical to
    /// [`Worldline::run`].
    pub fn run_worldline_ckpt<R: Rng64 + Checkpoint>(
        params: WorldlineParams,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        ck: Option<&Policy<'_>>,
        kill_at: Option<usize>,
    ) -> Option<(Worldline, TimeSeries)> {
        let mut eng = Worldline::new(params);
        let mut series = TimeSeries::with_capacity(params.l, sweeps);
        series.set_beta(params.beta);
        let done = drive(
            (&mut eng, rng, &mut series),
            therm + sweeps,
            ck,
            kill_at,
            |eng, rng, series, s| {
                eng.sweep(rng);
                if s >= therm {
                    series.record(&qmc_worldline::estimators::measure(eng));
                    series.record_correlations(eng);
                }
            },
            |_, _| {},
        );
        finished(done).then_some((eng, series))
    }

    /// Checkpointed generic world-line run; draw-for-draw identical to
    /// [`GenericWorldline::run`].
    pub fn run_generic_worldline_ckpt<L: Lattice, R: Rng64 + Checkpoint>(
        lattice: L,
        params: GenericParams,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        ck: Option<&Policy<'_>>,
        kill_at: Option<usize>,
    ) -> Option<(GenericWorldline<L>, TimeSeries)> {
        let n_sites = lattice.num_sites();
        let mut eng = GenericWorldline::new(lattice, params);
        let mut series = TimeSeries::with_capacity(n_sites, sweeps);
        series.set_beta(params.beta);
        let done = drive(
            (&mut eng, rng, &mut series),
            therm + sweeps,
            ck,
            kill_at,
            |eng, rng, series, s| {
                eng.sweep(rng);
                if s >= therm {
                    series.record(&eng.measure());
                }
            },
            |_, _| {},
        );
        finished(done).then_some((eng, series))
    }

    /// Checkpointed SSE run; draw-for-draw identical to [`Sse::run`]
    /// (thermalization sweeps adapt the cutoff, measured sweeps do not).
    ///
    /// `Sse::new` itself consumes RNG draws for the random initial state, so
    /// the caller must pass a freshly seeded RNG on resume too — the restore
    /// then rewinds both engine and RNG to the checkpointed state.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sse_ckpt<L: Lattice, R: Rng64 + Checkpoint>(
        lattice: &L,
        j: f64,
        beta: f64,
        rng: &mut R,
        therm: usize,
        sweeps: usize,
        ck: Option<&Policy<'_>>,
        kill_at: Option<usize>,
    ) -> Option<(Sse, SseSeries)> {
        let mut eng = Sse::new(lattice, j, beta, rng);
        let mut series = eng.begin_series(sweeps);
        let done = drive(
            (&mut eng, rng, &mut series),
            therm + sweeps,
            ck,
            kill_at,
            |eng, rng, series, s| {
                eng.sweep(rng);
                if s < therm {
                    eng.adjust_cutoff();
                } else {
                    eng.record_measurement(series);
                }
            },
            |_, _| {},
        );
        finished(done).then_some((eng, series))
    }
}

/// What a finished run leaves behind: the engine's and the series' whole
/// checkpoint images (every column, bit for bit) and the draw count.
fn print(eng: &impl Checkpoint, series: &impl Checkpoint, draws: u64) -> (Vec<u8>, Vec<u8>, u64) {
    (save_state(eng), save_state(series), draws)
}

/// `run_engine`, and the plain `run()` of every serial engine that
/// delegates to it, replay the oracle driver's sequence exactly,
/// including a run that only measures (`therm = 0`) and one that only
/// thermalises (`sweeps = 0`, where SSE adapts its cutoff).
#[test]
fn ckpt_drivers_match_plain_runs() {
    let rng = |seed| CountingRng::new(Xoshiro256StarStar::new(seed));
    let model = TfimModel {
        lx: 8,
        ly: 8,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let generic = GenericParams {
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let lat = Chain::new(8);
    for (therm, sweeps) in [(10, 30), (0, 30), (25, 0)] {
        let case = format!("therm {therm}, sweeps {sweeps}");

        let mut r = rng(7);
        let (eng, series) =
            oracle::run_serial_tfim_ckpt(model, &mut r, therm, sweeps, 2, None, None).unwrap();
        let want = print(&eng, &series, r.draws);
        let mut r = rng(7);
        let mut eng = SerialTfim::new(model);
        let series = eng.run(&mut r, therm, sweeps, 2);
        assert_eq!(want, print(&eng, &series, r.draws), "serial TFIM, {case}");
        let mut r = rng(7);
        let mut eng = SerialTfim::new(model);
        eng.wolff_per_sweep = 2;
        let (eng, series) = ckpt_run(eng, &mut r, therm, sweeps, None, None).unwrap();
        assert_eq!(
            want,
            print(&eng, &series, r.draws),
            "serial TFIM loop, {case}"
        );

        let mut r = rng(11);
        let (eng, series) =
            oracle::run_worldline_ckpt(params, &mut r, therm, sweeps, None, None).unwrap();
        let want = print(&eng, &series, r.draws);
        let mut r = rng(11);
        let mut eng = Worldline::new(params);
        let series = eng.run(&mut r, therm, sweeps);
        assert_eq!(
            want,
            print(&eng, &series, r.draws),
            "world-line chain, {case}"
        );
        let mut r = rng(11);
        let (eng, series) =
            ckpt_run(Worldline::new(params), &mut r, therm, sweeps, None, None).unwrap();
        assert_eq!(
            want,
            print(&eng, &series, r.draws),
            "world-line chain loop, {case}"
        );

        let mut r = rng(13);
        let (eng, series) = oracle::run_generic_worldline_ckpt(
            Square::new(4, 4),
            generic,
            &mut r,
            therm,
            sweeps,
            None,
            None,
        )
        .unwrap();
        let want = print(&eng, &series, r.draws);
        let mut r = rng(13);
        let mut eng = GenericWorldline::new(Square::new(4, 4), generic);
        let series = eng.run(&mut r, therm, sweeps);
        assert_eq!(
            want,
            print(&eng, &series, r.draws),
            "generic world-line, {case}"
        );
        let mut r = rng(13);
        let eng = GenericWorldline::new(Square::new(4, 4), generic);
        let (eng, series) = ckpt_run(eng, &mut r, therm, sweeps, None, None).unwrap();
        assert_eq!(
            want,
            print(&eng, &series, r.draws),
            "generic world-line loop, {case}"
        );

        let mut r = rng(17);
        let (eng, series) =
            oracle::run_sse_ckpt(&lat, 1.0, 2.0, &mut r, therm, sweeps, None, None).unwrap();
        let want = print(&eng, &series, r.draws);
        let mut r = rng(17);
        let mut eng = Sse::new(&lat, 1.0, 2.0, &mut r);
        let series = eng.run(&mut r, therm, sweeps);
        assert_eq!(want, print(&eng, &series, r.draws), "SSE, {case}");
        let mut r = rng(17);
        let eng = Sse::new(&lat, 1.0, 2.0, &mut r);
        let (eng, series) = ckpt_run(eng, &mut r, therm, sweeps, None, None).unwrap();
        assert_eq!(want, print(&eng, &series, r.draws), "SSE loop, {case}");
    }
}

/// Run `args` under the `qmc` CLI; its exit code and standard error.
fn qmc(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_qmc"))
        .args(args)
        .output()
        .expect("qmc runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `qmc <engine> <args>` checkpointing into a fresh store, then the same
/// with `--resume` at another β, prints the restore error and exits 2. It
/// used to restore the old run and print its energy under the new β's
/// header.
fn assert_cli_refuses_resume_at_another_beta(engine: &str, args: &[&str]) {
    let dir = scratch(&format!("cli-{engine}"));
    let dir_arg = dir.to_str().expect("utf-8 scratch path");
    let run = |beta: &str, resume: bool| {
        let mut all = vec![engine, "--beta", beta];
        all.extend_from_slice(args);
        all.extend(["--checkpoint-dir", dir_arg]);
        if resume {
            all.push("--resume");
        }
        qmc(&all)
    };
    let (code, err) = run("1.0", false);
    assert_eq!(code, Some(0), "{engine} at β = 1: {err}");
    let (code, err) = run("4.0", true);
    assert_eq!(code, Some(2), "{engine} resumed at β = 4: {err}");
    assert!(
        err.contains("restore from checkpoint") && err.contains("β"),
        "{engine} resumed at β = 4: stderr {err:?}"
    );
    let (code, err) = run("1.0", true);
    assert_eq!(code, Some(0), "{engine} resumed at β = 1: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forty sweeps after ten of thermalization, a generation every ten.
const SHORT_RUN: [&str; 6] = [
    "--sweeps",
    "40",
    "--therm",
    "10",
    "--checkpoint-every",
    "10",
];

#[test]
fn qmc_worldline_refuses_a_resume_at_another_beta() {
    let args = [&["--l", "8", "--m", "8"][..], &SHORT_RUN].concat();
    assert_cli_refuses_resume_at_another_beta("worldline", &args);
}

#[test]
fn qmc_sse_refuses_a_resume_at_another_beta() {
    let args = [&["--l", "8"][..], &SHORT_RUN].concat();
    assert_cli_refuses_resume_at_another_beta("sse", &args);
}

#[test]
fn qmc_tfim_refuses_a_resume_at_another_beta() {
    let args = [
        "--lx",
        "8",
        "--m",
        "8",
        "--sweeps",
        "200",
        "--therm",
        "0",
        "--checkpoint-every",
        "50",
    ];
    assert_cli_refuses_resume_at_another_beta("tfim", &args);
}

/// Resume `eng` from `store`, expecting the restore to be refused as
/// corrupt before any generation is written or any sweep runs.
fn assert_resume_refused<R: Checkpoint, E: Engine<R>>(
    label: &str,
    store: &CkptStore,
    mut eng: E,
    rng: &mut R,
) {
    let before = store.generations();
    let policy = Policy {
        store,
        cadence: Cadence::new(5, 3).unwrap(),
        resume: true,
        stop: None,
    };
    let refused = run_engine(&mut eng, rng, 6, 12, Some(&policy), None, |_, s| {
        panic!("{label}: generation {s} written after a refused restore")
    });
    assert!(
        matches!(refused, Err(CkptError::Corrupt { .. })),
        "{label}: {:?}",
        refused.map(|(end, _)| end)
    );
    assert_eq!(store.generations(), before, "{label}: the store changed");
}

/// A fresh store holding the generations of `eng`'s 6 + 12 sweep run.
fn store_written_by<R: Checkpoint, E: Engine<R>>(label: &str, eng: E, rng: &mut R) -> CkptStore {
    let store = CkptStore::new(scratch(label), 2).expect("scratch store");
    let policy = Policy {
        store: &store,
        cadence: Cadence::new(5, 3).unwrap(),
        resume: false,
        stop: None,
    };
    assert!(
        ckpt_run(eng, rng, 6, 12, Some(&policy), None).is_some(),
        "{label}: the first run completes"
    );
    store
}

/// A world-line store (chain or generic lattice) written at one β does
/// not resume a run at another: the series carries β and refuses it.
#[test]
fn run_engine_refuses_a_worldline_store_at_another_beta() {
    let params = WorldlineParams {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let rng = || Xoshiro256StarStar::new(11);
    let store = store_written_by("wl-beta", Worldline::new(params), &mut rng());
    let eng = Worldline::new(WorldlineParams {
        beta: 4.0,
        ..params
    });
    assert_resume_refused("chain", &store, eng, &mut rng());
    let _ = std::fs::remove_dir_all(store.dir());

    let generic = GenericParams {
        jx: 1.0,
        jz: 1.0,
        beta: 1.0,
        m: 8,
    };
    let eng = GenericWorldline::new(Square::new(4, 4), generic);
    let store = store_written_by("generic-beta", eng, &mut rng());
    let eng = GenericWorldline::new(
        Square::new(4, 4),
        GenericParams {
            beta: 4.0,
            ..generic
        },
    );
    assert_resume_refused("generic", &store, eng, &mut rng());
    let _ = std::fs::remove_dir_all(store.dir());
}

/// An SSE store written at one (β, J) resumes a run at neither another β
/// nor another J.
#[test]
fn run_engine_refuses_an_sse_store_at_another_beta_or_j() {
    let lat = Chain::new(8);
    let mut rng = Xoshiro256StarStar::new(17);
    let eng = Sse::new(&lat, 1.0, 2.0, &mut rng);
    let store = store_written_by("sse-beta", eng, &mut rng);
    for (label, j, beta) in [("β = 4", 1.0, 4.0), ("J = 0.5", 0.5, 2.0)] {
        let mut rng = Xoshiro256StarStar::new(17);
        let eng = Sse::new(&lat, j, beta, &mut rng);
        assert_resume_refused(label, &store, eng, &mut rng);
    }
    let _ = std::fs::remove_dir_all(store.dir());
}

/// `run_engine` shows `at_checkpoint` the series as each generation is
/// written: at boundary `s`, the rows of the measured sweeps before `s`.
/// qmc-serve's progress snapshots read the series there.
#[test]
fn run_engine_shows_each_written_generation_its_series() {
    let model = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let dir = scratch("at-checkpoint");
    let store = CkptStore::new(&dir, 2).expect("scratch store");
    let policy = Policy {
        store: &store,
        cadence: Cadence::new(5, 3).unwrap(),
        resume: false,
        stop: None,
    };
    let mut seen = Vec::new();
    let mut eng = SerialTfim::new(model);
    let mut rng = Xoshiro256StarStar::new(7);
    let (end, series) = run_engine(
        &mut eng,
        &mut rng,
        6,
        12,
        Some(&policy),
        None,
        |series, s| seen.push((s, series.len())),
    )
    .expect("a fresh store restores nothing");
    assert_eq!(end, End::Finished);
    assert_eq!(seen, [(0, 0), (5, 0), (10, 4), (15, 9)]);
    assert_eq!(series.len(), 12);
    let _ = std::fs::remove_dir_all(&dir);
}

fn pt_cfg() -> PtConfig {
    PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 8,
        betas: vec![0.5, 0.8, 1.2, 1.8],
        therm: 10,
        sweeps: 26,
        exchange_every: 2,
        seed: 99,
    }
}

/// Regression: `every: 0` used to reach `s % every` in the PT loop and
/// die with a remainder-by-zero; the shared cadence rule names the mistake.
#[test]
#[should_panic(expected = "checkpoint cadence must be at least 1 sweep")]
fn pt_refuses_a_zero_checkpoint_cadence_by_name() {
    let store = CkptStore::new(scratch("pt-zero"), 2).expect("store");
    let ck = PtCheckpointing {
        store: &store,
        every: 0,
        full_every: 0,
        resume: false,
        stop: None,
        elastic_from: None,
    };
    let cfg = PtConfig {
        betas: vec![1.0],
        ..pt_cfg()
    };
    let mut rng = Xoshiro256StarStar::new(1);
    run_pt_parallel_ckpt(
        &mut qmc_comm::SerialComm::new(),
        &cfg,
        &mut rng,
        Some(&ck),
        |_, _| {},
    );
}

/// Kill rank 2 of a 4-rank ThreadWorld PT run through the fault layer
/// (peers engage recv retry/backoff, give up, and the world goes down),
/// then recover from the coordinated checkpoint and finish bit-identical
/// to a run that never crashed.
#[test]
fn pt_recovers_bit_identical_after_injected_rank_kill() {
    let cfg = pt_cfg();
    let every = 4;
    let kill_sweep = 2 * (cfg.therm + cfg.sweeps) / 3;
    let dir = scratch("pt-kill");

    let cfg2 = cfg.clone();
    let reference = run_threads(4, move |comm| {
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, None, |_, _| {})
    });

    // Crash run: the scheduled kill panics rank 2; its partners exhaust
    // their bounded retries and the join propagates the panic. The hook
    // is silenced so the expected crash does not spam the test log.
    let cfg2 = cfg.clone();
    let dir2 = dir.clone();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_threads_with_timeout(4, Duration::from_secs(5), move |comm| {
            let plan = FaultPlan::new(41)
                .kill(2, kill_sweep)
                .retry(3, Duration::from_millis(10));
            let mut rng = StreamFactory::new(17).stream(comm.rank());
            let store = CkptStore::new(&dir2, 3).expect("store");
            let ck = PtCheckpointing {
                store: &store,
                every,
                full_every: 2,
                resume: false,
                stop: None,
                elastic_from: None,
            };
            let mut faulty = FaultyComm::new(comm, plan);
            run_pt_parallel_ckpt(&mut faulty, &cfg2, &mut rng, Some(&ck), |c, s| {
                c.tick_sweep(s)
            })
        })
    }));
    std::panic::set_hook(hook);
    assert!(
        crashed.is_err(),
        "the injected rank kill must crash the run"
    );

    // A coordinated generation at or before the kill survived on disk.
    let store = CkptStore::new(&dir, 3).expect("store");
    let newest = *store.generations().last().expect("a generation survived");
    assert!(newest as usize <= kill_sweep);

    // Recovery: fresh world, faults absorbable-only, resume and finish.
    let cfg2 = cfg.clone();
    let dir2 = dir.clone();
    let recovered = run_threads(4, move |comm| {
        let plan = FaultPlan::new(43)
            .drops(20)
            .delays(30)
            .retry(8, Duration::from_millis(25));
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        let store = CkptStore::new(&dir2, 3).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 2,
            resume: true,
            stop: None,
            elastic_from: None,
        };
        let mut faulty = FaultyComm::new(comm, plan);
        run_pt_parallel_ckpt(&mut faulty, &cfg2, &mut rng, Some(&ck), |c, s| {
            c.tick_sweep(s)
        })
    });

    for (r, rec) in reference.iter().zip(&recovered) {
        assert_eq!(bits(&r.0), bits(&rec.0), "recovered energy series diverged");
        assert_eq!(bits(&r.1), bits(&rec.1), "recovered rates diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory an older build left behind — `ckpt-<generation>.qckpt`
/// files it put in place by temp + rename, the newer one a delta on the
/// older, and the temp file of a writer that died before its rename —
/// resumes bit-identically; the run's own generations go into slot files
/// and the legacy files are gone once `retain` newer generations exist.
#[test]
fn pt_resumes_from_a_legacy_directory_and_leaves_only_slots() {
    use qmc_ckpt::{crc32, RawCkpt, SectionData};
    use std::sync::atomic::AtomicBool;
    let cfg = pt_cfg();
    let (every, retain) = (2, 3);
    let drain_after = (cfg.therm + cfg.sweeps) / 2 - 1;

    let cfg2 = cfg.clone();
    let reference = run_threads(4, move |comm| {
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, None, |_, _| {})
    });

    // Half a run into a store of today's, to have generations to copy.
    let source = scratch("pt-legacy-source");
    let (cfg2, dir2) = (cfg.clone(), source.clone());
    run_threads(4, move |comm| {
        let flag = AtomicBool::new(false);
        let store = CkptStore::new(&dir2, retain).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 2,
            resume: false,
            stop: Some(&flag),
            elastic_from: None,
        };
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, s| {
            if s == drain_after {
                flag.store(true, Ordering::SeqCst);
            }
        })
    });
    let store = CkptStore::new(&source, retain).expect("store");
    let gens = store.generations();
    let &[.., older, newer] = &gens[..] else {
        panic!("half a run leaves two generations, not {gens:?}");
    };
    assert_eq!(newer, (drain_after + 1) as u64);
    let (full, on_it) = (store.load(older).unwrap(), store.load(newer).unwrap());

    // The same two generations as the older build wrote them.
    let dir = scratch("pt-legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let legacy = |g: u64| dir.join(format!("ckpt-{g:010}.qckpt"));
    std::fs::write(legacy(older), full.to_bytes()).unwrap();
    let delta = RawCkpt {
        base: Some(older),
        sections: on_it
            .sections()
            .map(|(name, payload)| {
                let data = if full.get(name) == Some(payload) {
                    SectionData::BaseRef {
                        crc: crc32(payload),
                        len: payload.len() as u32,
                    }
                } else {
                    SectionData::Payload(payload.to_vec())
                };
                (name.to_string(), data)
            })
            .collect(),
    };
    std::fs::write(legacy(newer), delta.to_bytes()).unwrap();
    let orphan = dir.join(format!(".ckpt-{:010}.qckpt.tmp", newer + every as u64));
    std::fs::write(&orphan, b"half-written").unwrap();

    let (cfg2, dir2) = (cfg.clone(), dir.clone());
    let resumed = run_threads(4, move |comm| {
        let store = CkptStore::new(&dir2, retain).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 2,
            resume: true,
            stop: None,
            elastic_from: None,
        };
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        let mut first_sweep = None;
        let out = run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, s| {
            first_sweep.get_or_insert(s);
        });
        (out, first_sweep)
    });
    for (r, (d, first_sweep)) in reference.iter().zip(&resumed) {
        assert_eq!(
            *first_sweep,
            Some(newer as usize),
            "a resume, not a fresh start"
        );
        assert_eq!(bits(&r.0), bits(&d.0), "resume from legacy files diverged");
        assert_eq!(bits(&r.1), bits(&d.1), "legacy resume rates diverged");
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(
        names.len() > retain && names.iter().all(|n| n.starts_with("slot-")),
        "legacy and temp files must be gone: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&source);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forward compatibility: a v1 monolithic checkpoint (the pre-delta
/// layout — whole engine/rng/series states as single opaque sections)
/// must still resume under the sectioned delta driver, continue
/// bit-identically, and safely switch to the new layout for subsequent
/// generations.
#[test]
fn v1_monolithic_checkpoints_resume_under_the_delta_driver() {
    let model = TfimModel {
        lx: 8,
        ly: 8,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let (therm, sweeps) = (6, 12);
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
    let (_, reference) = ckpt_run(SerialTfim::new(model), &mut rng, therm, sweeps, None, None)
        .expect("reference run completes");
    let (ref_bits, ref_draws) = (bits(&reference.energy), rng.draws);

    // Hand-build the legacy generation at sweep k exactly as the
    // pre-delta driver wrote it: replay k sweeps, then store whole
    // states as single sections.
    let k = 7usize;
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
    let mut eng = SerialTfim::new(model);
    let mut series = qmc_tfim::serial::TfimSeries::default();
    for s in 0..k {
        eng.metropolis_sweep(&mut rng);
        eng.wolff_update(&mut rng);
        if s >= therm {
            series.record(&eng.measure());
        }
    }
    let dir = scratch("v1-compat");
    {
        let store = CkptStore::new(&dir, 2).expect("scratch store");
        let mut file = qmc_ckpt::CkptFile::new();
        let mut meta = qmc_ckpt::Encoder::new();
        meta.u64(k as u64);
        file.add("meta", meta.into_bytes());
        file.add_state("engine", &eng);
        file.add_state("rng", &rng);
        file.add_state("series", &series);
        store.write(k as u64, &file).expect("legacy write");
    }

    // Resume from the v1 file with delta checkpointing fully enabled.
    let store = CkptStore::new(&dir, 2).expect("scratch store");
    let ck = Policy {
        store: &store,
        cadence: Cadence::new(5, 3).unwrap(),
        resume: true,
        stop: None,
    };
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
    let (_, resumed) = ckpt_run(
        SerialTfim::new(model),
        &mut rng,
        therm,
        sweeps,
        Some(&ck),
        None,
    )
    .expect("resume from v1 completes");
    assert_eq!(ref_bits, bits(&resumed.energy), "v1 resume diverged");
    assert_eq!(ref_draws, rng.draws, "v1 resume drew a different count");
    assert!(
        store.generations().len() > 1,
        "the resumed run wrote new generations after the v1 file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One loop, one section layout: a serial TFIM store written by
/// `run_engine` directly and killed at sweep k resumes under `qmc_serve::run_job`
/// to the bit-identical series, and the other way round.
#[test]
fn bench_and_serve_resume_each_others_tfim_stores() {
    use qmc_serve::{run_job, JobKind, JobSpec, Outcome, RunCtl};
    let (therm, sweeps, every, seed) = (6usize, 12usize, 5usize, 7u64);
    let model = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let spec = JobSpec {
        tenant: "alice".into(),
        name: "cross".into(),
        kind: JobKind::Tfim {
            lx: model.lx,
            ly: model.ly,
            j: model.j,
            h: model.h,
            m: model.m,
            wolff: 1,
        },
        betas: vec![model.beta],
        therm: therm as u32,
        sweeps: sweeps as u32,
        seed,
        priority: 0,
        ckpt_every: every as u32,
    };
    // Each side returns (energy, |m|) bit patterns, `None` when killed.
    let bench = |ck: Option<&Policy<'_>>, kill: Option<usize>| {
        let mut rng = Xoshiro256StarStar::new(seed);
        ckpt_run(SerialTfim::new(model), &mut rng, therm, sweeps, ck, kill)
            .map(|(_, s)| (bits(&s.energy), bits(&s.abs_m)))
    };
    let serve = |store: &CkptStore, kill: Option<usize>| {
        let ctl = RunCtl {
            store: Some(store),
            every,
            kill_at: kill.map(|k| k as u64),
            ..Default::default()
        };
        match run_job(&spec, ctl) {
            Outcome::Done { obs, .. } => Some((bits(&obs.energy[0]), bits(&obs.extra[0]))),
            Outcome::Killed { .. } => None,
            other => panic!("unexpected outcome {other:?}"),
        }
    };
    let reference = bench(None, None);
    assert!(reference.is_some());
    for k in [1, 5, 9, 17] {
        let dir = scratch("cross");
        let store = CkptStore::new(&dir, 2).expect("scratch store");
        let policy = |resume| Policy {
            store: &store,
            cadence: Cadence::new(every, 3).unwrap(),
            resume,
            stop: None,
        };
        assert!(bench(Some(&policy(false)), Some(k)).is_none());
        assert_eq!(serve(&store, None), reference, "bench → serve, kill at {k}");
        let _ = std::fs::remove_dir_all(&dir);

        let store = CkptStore::new(&dir, 2).expect("scratch store");
        assert!(serve(&store, Some(k)).is_none());
        assert_eq!(
            bench(Some(&policy(true)), None),
            reference,
            "serve → bench, kill at {k}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The serial PT ladder checkpoints as one unit (replicas + pair stats +
/// walker bookkeeping): a restored ladder continues exactly like the
/// original.
#[test]
fn pt_ladder_round_trips_and_continues_identically() {
    let betas = vec![0.5, 0.8, 1.2, 1.8];
    let mut a = PtLadder::new(8, 1.0, 1.0, 8, betas.clone());
    let mut rng = Xoshiro256StarStar::new(23);
    for step in 0..20 {
        a.sweep(&mut rng);
        a.exchange(&mut rng, step % 2);
    }
    let snapshot = save_state(&a);

    let mut b = PtLadder::new(8, 1.0, 1.0, 8, betas);
    load_state(&snapshot, &mut b).expect("ladder restores");

    let mut rng_a = Xoshiro256StarStar::new(31);
    let mut rng_b = Xoshiro256StarStar::new(31);
    for step in 0..20 {
        a.sweep(&mut rng_a);
        a.exchange(&mut rng_a, step % 2);
        b.sweep(&mut rng_b);
        b.exchange(&mut rng_b, step % 2);
    }
    assert_eq!(save_state(&a), save_state(&b), "continuations diverged");
    assert_eq!(a.stats().attempted, b.stats().attempted);
    assert_eq!(a.stats().accepted, b.stats().accepted);
}

/// Graceful drain of the serial driver: a stop flag raised mid-run (here
/// deterministically, after a fixed number of RNG draws) makes the
/// driver write one final full generation at the next sweep boundary and
/// exit cleanly; resuming from that generation completes bit-identical
/// to a run that was never drained.
#[test]
fn serial_tfim_drains_at_sweep_boundary_and_resumes_bit_identical() {
    use std::sync::atomic::AtomicBool;

    /// Counts draws like `CountingRng` (same checkpoint layout) and
    /// raises the drain flag once `after` draws have been consumed.
    struct DrainRng<'a, R> {
        inner: R,
        draws: u64,
        flag: &'a AtomicBool,
        after: u64,
    }
    impl<R: Rng64> Rng64 for DrainRng<'_, R> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            if self.draws >= self.after {
                self.flag.store(true, Ordering::SeqCst);
            }
            self.inner.next_u64()
        }
    }
    impl<R: Rng64 + Checkpoint> Checkpoint for DrainRng<'_, R> {
        fn kind(&self) -> &'static str {
            // Shares `CountingRng`'s kind and layout so the drained
            // checkpoint can be resumed by either wrapper.
            "rng.counting"
        }

        fn save(&self, enc: &mut qmc_ckpt::Encoder) {
            enc.u64(self.draws);
            qmc_ckpt::write_state(enc, &self.inner);
        }
        fn load(&mut self, dec: &mut qmc_ckpt::Decoder) -> Result<(), qmc_ckpt::CkptError> {
            self.draws = dec.u64()?;
            qmc_ckpt::read_state(dec, &mut self.inner)
        }
    }

    let model = TfimModel {
        lx: 8,
        ly: 8,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let (therm, sweeps, every) = (6usize, 12usize, 5usize);

    let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
    let (_, reference) = ckpt_run(SerialTfim::new(model), &mut rng, therm, sweeps, None, None)
        .expect("reference run completes");
    let (ref_bits, ref_draws) = (bits(&reference.energy), rng.draws);

    // Drain roughly halfway through the draw stream: the flag goes up
    // mid-sweep, the driver notices at the next sweep boundary.
    let dir = scratch("drain");
    let store = CkptStore::new(&dir, 3).expect("scratch store");
    let flag = AtomicBool::new(false);
    let ck = Policy {
        store: &store,
        cadence: Cadence::new(every, 3).unwrap(),
        resume: false,
        stop: Some(&flag),
    };
    let mut rng = DrainRng {
        inner: Xoshiro256StarStar::new(7),
        draws: 0,
        flag: &flag,
        after: ref_draws / 2,
    };
    assert!(
        ckpt_run(
            SerialTfim::new(model),
            &mut rng,
            therm,
            sweeps,
            Some(&ck),
            None
        )
        .is_none(),
        "a drained run must end early"
    );
    let drained_at = *store
        .generations()
        .last()
        .expect("drain wrote a generation");
    assert!(
        drained_at > 0 && (drained_at as usize) < therm + sweeps,
        "drain landed at sweep {drained_at}, expected mid-run"
    );

    // Resume (plain counting RNG — the checkpoint layouts match) and
    // land exactly on the undisturbed trajectory.
    let ck = Policy {
        store: &store,
        cadence: Cadence::new(every, 3).unwrap(),
        resume: true,
        stop: None,
    };
    let mut rng = CountingRng::new(Xoshiro256StarStar::new(7));
    let (_, resumed) = ckpt_run(
        SerialTfim::new(model),
        &mut rng,
        therm,
        sweeps,
        Some(&ck),
        None,
    )
    .expect("resumed run completes");
    assert_eq!(ref_bits, bits(&resumed.energy), "drained resume diverged");
    assert_eq!(ref_draws, rng.draws, "draw count diverged across the drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain of the 4-rank PT driver: the stop flag (read on rank 0,
/// broadcast to everyone) makes all ranks write one coordinated full
/// generation and exit together; resuming finishes bit-identical to an
/// undisturbed run.
#[test]
fn pt_drains_collectively_and_resumes_bit_identical() {
    use std::sync::atomic::AtomicBool;
    let cfg = pt_cfg();
    let every = 4;
    let drain_after = (cfg.therm + cfg.sweeps) / 2;
    let dir = scratch("pt-drain");

    let cfg2 = cfg.clone();
    let reference = run_threads(4, move |comm| {
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, None, |_, _| {})
    });

    let cfg2 = cfg.clone();
    let dir2 = dir.clone();
    let drained = run_threads(4, move |comm| {
        let flag = AtomicBool::new(false);
        let store = CkptStore::new(&dir2, 3).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 2,
            resume: false,
            stop: Some(&flag),
            elastic_from: None,
        };
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, s| {
            if s == drain_after {
                flag.store(true, Ordering::SeqCst);
            }
        })
    });
    // Every rank exited early together with the same partial series len.
    for (energies, _) in &drained {
        assert_eq!(
            energies.len(),
            drain_after + 1 - cfg.therm,
            "rank drained at the wrong boundary"
        );
    }
    let store = CkptStore::new(&dir, 3).expect("store");
    assert_eq!(
        *store
            .generations()
            .last()
            .expect("drain wrote a generation"),
        (drain_after + 1) as u64,
        "the drain generation names the boundary after the flag was raised"
    );

    let cfg2 = cfg.clone();
    let dir2 = dir.clone();
    let resumed = run_threads(4, move |comm| {
        let store = CkptStore::new(&dir2, 3).expect("store");
        let ck = PtCheckpointing {
            store: &store,
            every,
            full_every: 2,
            resume: true,
            stop: None,
            elastic_from: None,
        };
        let mut rng = StreamFactory::new(17).stream(comm.rank());
        run_pt_parallel_ckpt(comm, &cfg2, &mut rng, Some(&ck), |_, _| {})
    });
    for (r, d) in reference.iter().zip(&resumed) {
        assert_eq!(bits(&r.0), bits(&d.0), "drained PT resume diverged");
        assert_eq!(bits(&r.1), bits(&d.1), "drained PT rates diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
