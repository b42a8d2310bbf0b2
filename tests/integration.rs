//! Workspace integration tests: cross-crate flows exercised end-to-end.
//!
//! Each test stitches several crates together the way a user would —
//! engines + communicators + statistics + oracles — rather than testing a
//! module in isolation.

use qmc_comm::{job_seconds, run_model, run_threads, Communicator, MachineModel, SerialComm};
use qmc_core::pt::{geometric_ladder, PtLadder};
use qmc_core::replica::run_replicas;
use qmc_ed::xxz::{full_spectrum, XxzParams};
use qmc_lattice::{Chain, Square};
use qmc_rng::{StreamFactory, Xoshiro256StarStar};
use qmc_stats::BinningAnalysis;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::TfimModel;
use qmc_worldline::{Worldline, WorldlineParams};

/// Worldline + SSE + ED: three independent implementations of the same
/// Hamiltonian agree on the energy.
#[test]
fn three_way_energy_agreement() {
    let l = 8;
    let beta = 1.0;
    let lat = Chain::new(l);
    let exact = full_spectrum(&lat, &XxzParams::heisenberg(1.0)).energy(beta) / l as f64;

    let mut wl = Worldline::new(WorldlineParams {
        l,
        jx: 1.0,
        jz: 1.0,
        beta,
        m: 16,
    });
    let mut rng = Xoshiro256StarStar::new(1);
    let ws = wl.run(&mut rng, 3_000, 25_000);
    let bw = BinningAnalysis::new(&ws.energy, 16);
    let trotter = (beta / 16.0).powi(2) * 2.0;
    assert!(
        (bw.mean - exact).abs() < 4.0 * bw.error().max(3e-4) + trotter,
        "worldline {} ± {} vs {exact}",
        bw.mean,
        bw.error()
    );

    let mut rng2 = Xoshiro256StarStar::new(2);
    let mut sse = qmc_sse::Sse::new(&lat, 1.0, beta, &mut rng2);
    let ss = sse.run(&mut rng2, 3_000, 25_000);
    let bs = BinningAnalysis::new(&ss.energy_samples(), 16);
    assert!(
        (bs.mean - exact).abs() < 4.0 * bs.error().max(3e-4),
        "sse {} ± {} vs {exact}",
        bs.mean,
        bs.error()
    );
}

/// Replica driver over real threads feeding SSE points, gathered at
/// rank 0, each point matching the ED curve.
#[test]
fn replica_parallel_temperature_scan() {
    let l = 8;
    let betas = [0.5, 1.0, 1.5, 2.0];
    let results = run_threads(2, move |comm| {
        run_replicas(comm, betas.len(), |idx| {
            let lat = Chain::new(l);
            let mut rng = StreamFactory::new(99).stream(idx);
            let mut sse = qmc_sse::Sse::new(&lat, 1.0, betas[idx], &mut rng);
            let series = sse.run(&mut rng, 2_000, 15_000);
            let b = BinningAnalysis::new(&series.energy_samples(), 16);
            vec![b.mean, b.error()]
        })
    });
    let table = results[0].as_ref().expect("rank 0 gathers");
    let spec = full_spectrum(&Chain::new(l), &XxzParams::heisenberg(1.0));
    for (idx, row) in table.iter().enumerate() {
        let exact = spec.energy(betas[idx]) / l as f64;
        assert!(
            (row[0] - exact).abs() < 5.0 * row[1].max(3e-4),
            "β={}: {} ± {} vs {exact}",
            betas[idx],
            row[0],
            row[1]
        );
    }
}

/// The distributed TFIM engine produces the same physics on the thread
/// machine and the simulated mesh (identical algorithm, different
/// "hardware").
#[test]
fn thread_and_model_machines_agree_physically() {
    let model = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 1.0,
        beta: 2.0,
        m: 16,
    };
    let threads = run_threads(2, move |comm| {
        let mut eng = DistTfim::new(model, comm);
        let mut rng = StreamFactory::new(3).stream(comm.rank());
        eng.run(comm, &mut rng, 1_000, 8_000)
    });
    let modeled = run_model(2, MachineModel::mesh_1993(2), move |comm| {
        let mut eng = DistTfim::new(model, comm);
        let mut rng = StreamFactory::new(3).stream(comm.rank());
        eng.run(comm, &mut rng, 1_000, 8_000)
    });
    // Same seeds, same rank count ⇒ *identical* Markov chains.
    assert_eq!(threads[0].energy, modeled[0].result.energy);
    assert!(job_seconds(&modeled) > 0.0);
}

/// Parallel tempering beats plain Metropolis at relaxing from a cold
/// start across temperatures (smoke test that the machinery cooperates).
#[test]
fn tempering_ladder_end_to_end() {
    let mut ladder = PtLadder::new(8, 1.0, 1.0, 16, geometric_ladder(0.5, 2.0, 4));
    let mut rng = Xoshiro256StarStar::new(11);
    let energies = ladder.run(&mut rng, 500, 4_000, 2);
    assert_eq!(energies.len(), 4);
    // Energies must be ordered: colder replica ⇒ lower energy.
    let means: Vec<f64> = energies
        .iter()
        .map(|e| e.iter().sum::<f64>() / e.len() as f64)
        .collect();
    for w in means.windows(2) {
        assert!(w[1] < w[0] + 0.02, "E(β↑) should decrease: {means:?}");
    }
}

/// The experiment registry is complete and runnable (quick smoke of the
/// fast entries).
#[test]
fn experiment_registry_complete() {
    let reg = qmc_bench::registry();
    let ids: Vec<&str> = reg.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        vec!["f1", "f2", "f3", "f4", "f5", "t1", "t2", "t3", "t4", "t5", "t6"]
    );
}

/// ModelWorld scaling tables are bit-deterministic run to run.
#[test]
fn scaling_experiments_deterministic() {
    let a = qmc_bench::scaling::t1_strong_scaling(true);
    let b = qmc_bench::scaling::t1_strong_scaling(true);
    assert_eq!(a, b);
}

/// Serial communicator supports the full engine stack (degenerate P=1).
#[test]
fn serial_comm_runs_distributed_engine() {
    let model = TfimModel {
        lx: 8,
        ly: 8,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 4,
    };
    let mut comm = SerialComm::new();
    let mut eng = DistTfim::new(model, &comm);
    let mut rng = Xoshiro256StarStar::new(5);
    let series = eng.run(&mut comm, &mut rng, 200, 500);
    assert_eq!(series.energy.len(), 500);
    assert!(series.energy.iter().all(|e| e.is_finite()));
    assert_eq!(comm.rank(), 0);
}

/// 2-D SSE at low temperature approaches the 4×4 Lanczos ground state —
/// the full oracle stack (basis, matrix-free op, Lanczos) in one test.
#[test]
fn sse_2d_reaches_lanczos_ground_state() {
    let lat = Square::new(4, 4);
    let mut rng = Xoshiro256StarStar::new(21);
    let mut sse = qmc_sse::Sse::new(&lat, 1.0, 6.0, &mut rng);
    let series = sse.run(&mut rng, 3_000, 12_000);
    let b = BinningAnalysis::new(&series.energy_samples(), 16);

    let op = qmc_ed::lanczos::XxzSectorOp::new(&lat, XxzParams::heisenberg(1.0), 8);
    let e0 = qmc_ed::lanczos::lanczos_ground_energy(&op, 13, 300, 1e-10) / 16.0;
    assert!(
        (b.mean - e0).abs() < 5.0 * b.error().max(5e-4) + 4e-3,
        "SSE {} ± {} vs Lanczos {e0}",
        b.mean,
        b.error()
    );
}

/// `repro` used to test each known `--flag` with `any(..)` and ignore the
/// rest, so a typo (`bench --asert-guards`) ran unguarded and exited 0.
/// An unrecognised flag is refused before anything runs.
#[test]
fn repro_refuses_unknown_flags() {
    let repro = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs")
    };
    for args in [
        &["bench", "--asert-guards"][..],
        &["t1", "--quick", "--bogus"],
    ] {
        let out = repro(args);
        let flag = args.last().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: stderr {err:?} names no flag");
    }
    assert_eq!(repro(&["t1", "--quick"]).status.code(), Some(0));
}
