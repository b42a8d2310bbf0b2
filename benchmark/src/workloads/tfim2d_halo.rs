//! `tfim2d_halo`: the paper's core. 64×64 TFIM, m = 32, β = 2 at
//! h/J = 3.044, `DistTfim::run` on P ThreadWorld ranks (`grid_for`),
//! halo exchange and an allreduce measurement every sweep, no
//! checkpoints. The ranks take turns on one CPU: every message is a
//! hand-over between threads. A sweep is one full-lattice sweep.

use crate::estimate::tau;
use crate::oracle;
use crate::probes;
use crate::run::{ChunkClock, Ctx, Measured, Outcome};
use crate::spec::halo::*;
use crate::sys::{self, now_ns};
use crate::trace::{summarize, CountingRng, Layer, SpanBuf, TraceComm};
use crate::workloads::{
    baseline_chunks, comm_since, common_checks, finish_traced, main_pass, rank_stream, save_trace,
    setups_before,
};
use qmc_comm::{run_threads, CommStats, Communicator, ThreadComm};
use qmc_rng::Rng64;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::serial::TfimSeries;
use qmc_tfim::TfimModel;
use std::sync::Mutex;
use std::time::Instant;

const NAME: &str = "tfim2d_halo";
const HALO_COUNTERS: [&str; 4] = [
    "tfim.halo_bytes.east",
    "tfim.halo_bytes.west",
    "tfim.halo_bytes.north",
    "tfim.halo_bytes.south",
];

/// Operations a run performs: the chunks of its passes (a traced run
/// adds a traced pass and a P = 1 baseline).
pub fn planned(ctx: &Ctx) -> u64 {
    let (chunks, _) = main_pass(ctx, CHUNKS);
    if ctx.trace {
        (2 * chunks + baseline_chunks(ctx, CHUNKS)) as u64
    } else {
        chunks as u64
    }
}

/// What rank 0 keeps for the harness: the time and the (allreduced)
/// energy series. Allocated at full size before the pass starts.
struct Keeper {
    clock: ChunkClock,
    energy: Vec<f64>,
}

/// What one rank brings back from a pass.
struct RankOut {
    setup_end_ns: u64,
    new_ns: u64,
    keeper: Option<Keeper>,
    comm: CommStats,
    wall_s: f64,
    halo_bytes: u64,
    accepted: u64,
    proposed: u64,
    draws: u64,
    buf: Option<SpanBuf>,
}

/// Engine and stream of one rank, thermalized: the per-rank part of a
/// from-scratch set-up.
fn setup_rank(
    model: TfimModel,
    therm: usize,
    seed: u64,
    comm: &mut ThreadComm,
) -> (DistTfim, impl Rng64, u64) {
    let t0 = now_ns();
    let mut eng = DistTfim::new(model, comm);
    let new_ns = now_ns() - t0;
    let mut rng = rank_stream(seed, comm.rank());
    let _ = eng.run(comm, &mut rng, therm, 0);
    (eng, rng, new_ns)
}

fn halo_bytes(eng: &DistTfim) -> u64 {
    HALO_COUNTERS.iter().map(|c| eng.metrics().get(c)).sum()
}

/// One pass on `ranks` ranks: `setups − 1` set-up-only worlds, then one
/// that continues into `chunks` measured chunks, traced or not.
fn pass(
    ctx: &Ctx,
    ranks: usize,
    chunks: usize,
    setups: usize,
    traced: bool,
) -> (Measured, Vec<RankOut>) {
    let sweeps = CHUNK_SWEEPS;
    let therm = ctx.sized(THERM);
    let mut m = Measured {
        sweeps_per_chunk: sweeps as f64,
        setup_s: Vec::with_capacity(setups),
        ..Measured::default()
    };
    let keeper = Mutex::new(Some(Keeper {
        clock: ChunkClock::with_capacity(chunks),
        energy: Vec::with_capacity(chunks * sweeps),
    }));
    let throw_away = |m: &mut Measured, i: usize| {
        let seed = ctx.setup_seed(0x100, i, setups);
        let t0 = now_ns();
        let ends = run_threads(ranks, |comm| {
            let _ = setup_rank(MODEL, therm, seed, comm);
            now_ns()
        });
        m.setup_s.push((ends[0] - t0) as f64 * 1e-9);
    };
    let before = setups_before(setups);
    for i in 0..before {
        throw_away(&mut m, i);
    }
    let heap0 = sys::heap_baseline();
    let seed = ctx.setup_seed(0x100, setups - 1, setups);
    let t0 = now_ns();
    let mut outs = run_threads(ranks, |comm| {
        let (mut eng, rng, new_ns) = setup_rank(MODEL, therm, seed, comm);
        let setup_end_ns = now_ns();
        let comm0 = comm.stats();
        let (halo0, acc0, prop0) = (halo_bytes(&eng), eng.accepted(), eng.proposed());
        // Rank 0 keeps the time; the ranks move in lockstep.
        let mut keeper = (comm.rank() == 0)
            .then(|| keeper.lock().expect("keeper lock").take())
            .flatten();
        if let Some(k) = keeper.as_mut() {
            k.clock.start();
        }
        let started = Instant::now();
        let (draws, buf) = if traced {
            let mut tc = TraceComm::new(comm, chunks * (12 * sweeps + 8));
            let mut rng = CountingRng::new(rng);
            for k in 0..chunks {
                tc.buf.id = k as u32;
                let c0 = keeper
                    .as_ref()
                    .map_or_else(now_ns, |k| k.clock.chunk_start());
                // `DistTfim::run` refreshes the ghosts before sweeping.
                eng.halo_exchange(&mut tc);
                let mut t = now_ns();
                tc.buf.push("tfim.halo_exchange", Layer::Tfim, 0, c0, t);
                let mut series = TfimSeries::default();
                for _ in 0..sweeps {
                    eng.sweep(&mut tc, &mut rng);
                    let t1 = now_ns();
                    tc.buf.push("tfim.dist_sweep", Layer::Tfim, 0, t, t1);
                    let meas = eng.measure(&mut tc);
                    let t2 = now_ns();
                    tc.buf.push("tfim.dist_measure", Layer::Tfim, 0, t1, t2);
                    series.record(&meas);
                    t = now_ns();
                    tc.buf.push("tfim.series_record", Layer::Tfim, 0, t2, t);
                }
                tc.buf.push("bench.chunk", Layer::Bench, 0, c0, t);
                if let Some(k) = keeper.as_mut() {
                    k.energy.extend_from_slice(&series.energy);
                    k.clock.lap();
                }
            }
            (rng.draws, Some(tc.buf))
        } else {
            let mut rng = rng;
            for _ in 0..chunks {
                let series = eng.run(comm, &mut rng, 0, sweeps);
                if let Some(k) = keeper.as_mut() {
                    k.energy.extend_from_slice(&series.energy);
                    k.clock.lap();
                }
            }
            (0, None)
        };
        let wall_s = started.elapsed().as_secs_f64();
        let c1 = comm.stats();
        RankOut {
            setup_end_ns,
            new_ns,
            keeper,
            comm: comm_since(c1, comm0),
            wall_s,
            halo_bytes: halo_bytes(&eng) - halo0,
            accepted: eng.accepted() - acc0,
            proposed: eng.proposed() - prop0,
            draws,
            buf,
        }
    });
    m.peak_heap_mb = sys::peak_heap_mb(heap0);
    m.setup_s.push((outs[0].setup_end_ns - t0) as f64 * 1e-9);
    let keeper = outs[0].keeper.take().expect("rank 0 keeps the time");
    m.energy = keeper.energy;
    keeper.clock.finish(&mut m);
    for i in before..setups - 1 {
        throw_away(&mut m, i);
    }
    (m, outs)
}

/// Companion: the same engine and halo path on an 8-site chain split
/// over the same ranks, against exact diagonalization.
fn companion(ctx: &Ctx, out: &mut Outcome) {
    let (therm, sweeps) = (ctx.sized(SMALL_SWEEPS.0), ctx.sized(SMALL_SWEEPS.1));
    let seed = ctx.derive(0x1F0);
    let results = run_threads(ctx.ranks, |comm| {
        let (mut eng, mut rng, _) = setup_rank(SMALL, therm, seed, comm);
        let series = eng.run(comm, &mut rng, 0, sweeps);
        (series.energy, eng.accepted(), eng.proposed())
    });
    let exact = oracle::tfim_chain_energy(SMALL.lx, SMALL.j, SMALL.h, SMALL.beta);
    let allow = oracle::tfim_trotter_allowance(SMALL.j, SMALL.h, SMALL.dtau());
    let (ok, detail) = oracle::z_check(&results[0].0, exact, allow);
    out.check("oracle_8_sites", ok, detail);
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        planned: planned(ctx),
        ..Outcome::default()
    };
    let wall0 = Instant::now();
    let (chunks, setups) = main_pass(ctx, CHUNKS);
    let sampler = ctx.trace.then(sys::ThreadSampler::start);
    let (m, ranks_out) = pass(ctx, ctx.ranks, chunks, setups, false);
    out.threads_max = sampler.map_or(0, sys::ThreadSampler::stop);
    out.count_chunks(&m);
    common_checks(ctx, &mut out, &m, tau(&m.energy, TAU_MAX_BIN));
    let accepted: u64 = ranks_out.iter().map(|r| r.accepted).sum();
    let proposed: u64 = ranks_out.iter().map(|r| r.proposed).sum();
    let acc = accepted as f64 / proposed.max(1) as f64;
    out.check(
        "acceptance_in_unit_interval",
        acc > 0.0 && acc < 1.0,
        format!("acceptance {acc:.4}"),
    );
    companion(ctx, &mut out);

    if ctx.trace {
        let (tm, mut traced_out) = pass(ctx, ctx.ranks, chunks, 1, true);
        let (p1, _) = pass(ctx, 1, baseline_chunks(ctx, CHUNKS), 1, false);
        out.count_chunks(&tm);
        out.count_chunks(&p1);
        let mut bufs: Vec<SpanBuf> = traced_out
            .iter_mut()
            .map(|r| r.buf.take().expect("traced pass records spans"))
            .collect();
        let sum = summarize(&mut bufs);
        save_trace(ctx, NAME, &bufs);

        let sweeps = (chunks * CHUNK_SWEEPS) as f64;
        let sites = (MODEL.lx * MODEL.ly * MODEL.m) as f64;
        let ranks = ctx.ranks as f64;
        let total = |f: fn(&RankOut) -> f64| traced_out.iter().map(f).sum::<f64>();
        out.set("rng.draws_per_sweep", total(|r| r.draws as f64) / sweeps);
        out.set(
            "lattice.decomp_build_us",
            probes::lattice_decomp_build_us(MODEL, ctx.ranks),
        );
        out.set(
            "lattice.halo_bytes_per_sweep",
            total(|r| r.halo_bytes as f64) / sweeps,
        );
        out.set("tfim.new_us", traced_out[0].new_ns as f64 / 1e3);
        out.set(
            "tfim.accept_ratio",
            total(|r| r.accepted as f64) / total(|r| r.proposed as f64).max(1.0),
        );
        // Self time: the sweep span minus the halo traffic inside it,
        // per site this rank owns.
        out.set(
            "tfim.dist_sweep_ns_per_site",
            sum.self_sum("tfim.dist_sweep") / (sweeps * sites),
        );
        out.set("tfim.dist_measure_us", sum.p50("tfim.dist_measure", 1e3));
        out.set(
            "comm.msgs_per_sweep",
            total(|r| r.comm.messages_sent as f64) / sweeps,
        );
        out.set(
            "comm.bytes_per_sweep",
            total(|r| r.comm.bytes_sent as f64) / sweeps,
        );
        out.set(
            "comm.wait_frac",
            total(|r| r.comm.recv_wait_seconds / r.wall_s) / ranks,
        );
        out.set("comm.sendrecv_us.p50", sum.p50("comm.sendrecv", 1e3));
        out.set("comm.allreduce_us.p50", sum.p50("comm.allreduce", 1e3));
        out.set("comm.thread_pingpong_us", probes::thread_pingpong_us());
        // The ranks share one CPU: 1 would mean that splitting the
        // lattice over P ranks costs nothing.
        out.set(
            "core.parallel_efficiency",
            m.sweeps_per_s() / p1.sweeps_per_s(),
        );
        out.set("bench.p1_sweeps_per_s", p1.sweeps_per_s());
        finish_traced(&mut out, &m, &tm, &sum, wall0);
    }
    out.measured = m;
    out
}
