//! `tfim_chain_crit`: the plain single-threaded baseline. 1-D TFIM
//! L = 64, m = 128, β = 16 at h = J, `SerialTfim::run` with one Wolff
//! update per sweep, P = 1, no communicator, no checkpoints.

use crate::estimate::tau;
use crate::oracle;
use crate::probes;
use crate::run::{ChunkClock, Ctx, Measured, Outcome};
use crate::spec::chain::*;
use crate::sys::{self, now_ns};
use crate::trace::{summarize, CountingRng, Layer, SpanBuf};
use crate::workloads::{common_checks, finish_traced, main_pass, save_trace, setups_before};
use qmc_rng::Xoshiro256StarStar;
use qmc_tfim::serial::{SerialTfim, TfimSeries};
use std::time::Instant;

const NAME: &str = "tfim_chain_crit";

/// Operations a run performs: its measured chunks (a traced run makes
/// an untraced and a traced pass).
pub fn planned(ctx: &Ctx) -> u64 {
    let (chunks, _) = main_pass(ctx, CHUNKS);
    (chunks * if ctx.trace { 2 } else { 1 }) as u64
}

/// From-scratch set-up: engine, tables, fixed thermalization.
fn setup(ctx: &Ctx, seed: u64) -> (SerialTfim, Xoshiro256StarStar) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut eng = SerialTfim::new(MODEL);
    let _ = eng.run(&mut rng, ctx.sized(THERM), 0, WOLFF);
    (eng, rng)
}

fn untraced_pass(ctx: &Ctx, chunks: usize, setups: usize) -> (Measured, SerialTfim) {
    let mut m = Measured {
        sweeps_per_chunk: CHUNK_SWEEPS as f64,
        setup_s: Vec::with_capacity(setups),
        energy: Vec::with_capacity(chunks * CHUNK_SWEEPS),
        ..Measured::default()
    };
    let mut clock = ChunkClock::with_capacity(chunks);
    let timed_setup = |m: &mut Measured, i: usize| {
        let t0 = Instant::now();
        let ready = setup(ctx, ctx.setup_seed(0x200, i, setups));
        m.setup_s.push(t0.elapsed().as_secs_f64());
        ready
    };
    let before = setups_before(setups);
    for i in 0..before {
        let _ = timed_setup(&mut m, i);
    }
    let heap0 = sys::heap_baseline();
    let (mut eng, mut rng) = timed_setup(&mut m, setups - 1);
    clock.start();
    for _ in 0..chunks {
        let series = eng.run(&mut rng, 0, CHUNK_SWEEPS, WOLFF);
        m.energy.extend_from_slice(&series.energy);
        clock.lap();
    }
    m.peak_heap_mb = sys::peak_heap_mb(heap0);
    clock.finish(&mut m);
    for i in before..setups - 1 {
        let _ = timed_setup(&mut m, i);
    }
    (m, eng)
}

/// Exact counts of the traced pass.
struct Counts {
    draws_per_sweep: f64,
    cluster_frac: f64,
    accept_ratio: f64,
}

/// The same fixed work driven through the per-sweep public functions
/// with a span around each.
fn traced_pass(ctx: &Ctx, chunks: usize) -> (Measured, SpanBuf, Counts) {
    let mut m = Measured {
        sweeps_per_chunk: CHUNK_SWEEPS as f64,
        ..Measured::default()
    };
    let t0 = Instant::now();
    let (mut eng, rng) = setup(ctx, ctx.setup_seed(0x200, 0, 1));
    m.setup_s.push(t0.elapsed().as_secs_f64());
    let mut rng = CountingRng::new(rng);
    let mut buf = SpanBuf::with_capacity(chunks * (4 * CHUNK_SWEEPS + 1));
    let mut series = TfimSeries::default();
    let (acc0, prop0) = (eng.accepted(), eng.proposed());
    let mut cluster_sites = 0usize;
    let mut clock = ChunkClock::with_capacity(chunks);
    clock.start();
    for k in 0..chunks {
        buf.id = k as u32;
        let c0 = clock.chunk_start();
        let mut t = c0;
        for _ in 0..CHUNK_SWEEPS {
            eng.metropolis_sweep(&mut rng);
            let t1 = now_ns();
            buf.push("tfim.metropolis_sweep", Layer::Tfim, 0, t, t1);
            for _ in 0..WOLFF {
                cluster_sites += eng.wolff_update(&mut rng);
            }
            let t2 = now_ns();
            buf.push("tfim.wolff_update", Layer::Tfim, 0, t1, t2);
            let meas = eng.measure();
            let t3 = now_ns();
            buf.push("tfim.measure", Layer::Tfim, 0, t2, t3);
            series.record(&meas);
            t = now_ns();
            buf.push("tfim.series_record", Layer::Tfim, 0, t3, t);
        }
        buf.push("bench.chunk", Layer::Bench, 0, c0, t);
        clock.lap();
    }
    clock.finish(&mut m);
    let sweeps = (chunks * CHUNK_SWEEPS) as f64;
    let sites = (MODEL.lx * MODEL.ly * MODEL.m) as f64;
    let counts = Counts {
        draws_per_sweep: rng.draws as f64 / sweeps,
        cluster_frac: cluster_sites as f64 / (sweeps * WOLFF as f64 * sites),
        accept_ratio: (eng.accepted() - acc0) as f64 / (eng.proposed() - prop0).max(1) as f64,
    };
    m.energy = series.energy;
    (m, buf, counts)
}

/// Companion run on 8 sites against exact diagonalization.
fn companion(ctx: &Ctx, out: &mut Outcome) {
    let (therm, sweeps) = (ctx.sized(SMALL_SWEEPS.0), ctx.sized(SMALL_SWEEPS.1));
    let mut rng = Xoshiro256StarStar::new(ctx.derive(0x2F0));
    let mut eng = SerialTfim::new(SMALL);
    let series = eng.run(&mut rng, therm, sweeps, WOLFF);
    let exact = oracle::tfim_chain_energy(SMALL.lx, SMALL.j, SMALL.h, SMALL.beta);
    let allow = oracle::tfim_trotter_allowance(SMALL.j, SMALL.h, SMALL.dtau());
    let (ok, detail) = oracle::z_check(&series.energy, exact, allow);
    out.check("oracle_8_sites", ok, detail);
    let acc = eng.acceptance_rate();
    out.check(
        "acceptance_in_unit_interval",
        acc > 0.0 && acc < 1.0,
        format!("companion acceptance {acc:.4}"),
    );
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
    let (m, eng) = untraced_pass(ctx, chunks, setups);
    out.threads_max = sampler.map_or(0, sys::ThreadSampler::stop);
    out.count_chunks(&m);
    common_checks(ctx, &mut out, &m, tau(&m.energy, TAU_MAX_BIN));
    let acc = eng.acceptance_rate();
    out.check(
        "acceptance_in_unit_interval",
        acc > 0.0 && acc < 1.0,
        format!("acceptance {acc:.4}"),
    );
    companion(ctx, &mut out);

    if ctx.trace {
        let (tm, buf, counts) = traced_pass(ctx, chunks);
        out.count_chunks(&tm);
        let mut bufs = [buf];
        let sum = summarize(&mut bufs);
        save_trace(ctx, NAME, &bufs);
        let sites = (MODEL.lx * MODEL.ly * MODEL.m) as f64;
        out.set("rng.draws_per_sweep", counts.draws_per_sweep);
        out.set("tfim.new_us", probes::tfim_serial_new_us(MODEL));
        out.set(
            "tfim.metropolis_ns_per_site",
            sum.p50("tfim.metropolis_sweep", 1.0) / sites,
        );
        out.set(
            "tfim.wolff_us_per_update",
            sum.p50("tfim.wolff_update", 1e3) / WOLFF as f64,
        );
        out.set("tfim.wolff_cluster_frac", counts.cluster_frac);
        out.set(
            "tfim.measure_ns_per_site",
            sum.p50("tfim.measure", 1.0) / sites,
        );
        out.set("tfim.accept_ratio", counts.accept_ratio);
        out.set(
            "tfim.packed_replica_ns_per_site",
            probes::tfim_packed_replica_ns_per_site(),
        );
        // P = 1: the parallel efficiency of a serial run is 1 by
        // definition and needs no baseline pass.
        out.set("core.parallel_efficiency", 1.0);
        out.set("bench.p1_sweeps_per_s", m.sweeps_per_s());
        finish_traced(&mut out, &m, &tm, &sum, wall0);
    }
    out.measured = m;
    out
}
