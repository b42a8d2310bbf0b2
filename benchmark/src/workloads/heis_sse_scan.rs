//! `heis_sse_scan`: Heisenberg chain L = 64, an 8-point β scan of `Sse`
//! engines kept per point and advanced in rounds through
//! `core::run_replicas` on P ranks (contiguous split). Cost grows with
//! β, so the split is imbalanced (`core.replica_imbalance`); the ranks
//! share one CPU, so a round takes the sum of their work plus the
//! gather. A sweep is one point-sweep.

use crate::estimate::tau;
use crate::oracle;
use crate::probes;
use crate::run::{mix, ChunkClock, Ctx, Measured, Outcome};
use crate::spec::sse::*;
use crate::sys::{self, now_ns};
use crate::trace::{summarize, CountingRng, Layer, SpanBuf, TraceComm};
use crate::workloads::{
    baseline_chunks, comm_since, common_checks, finish_traced, main_pass, save_trace, setups_before,
};
use qmc_comm::{run_threads, CommStats, Communicator, ThreadComm};
use qmc_core::{run_replicas, ReplicaPlan};
use qmc_lattice::Chain;
use qmc_rng::Xoshiro256StarStar;
use qmc_sse::{Sse, SseSeries};
use std::sync::Mutex;
use std::time::Instant;

const NAME: &str = "heis_sse_scan";

/// Operations a run performs: the rounds of its passes (a traced run
/// adds a traced pass and a P = 1 baseline).
pub fn planned(ctx: &Ctx) -> u64 {
    let (chunks, _) = main_pass(ctx, CHUNKS);
    if ctx.trace {
        (2 * chunks + baseline_chunks(ctx, CHUNKS)) as u64
    } else {
        chunks as u64
    }
}

/// One scan point on its owning rank.
struct Point<R> {
    eng: Sse,
    rng: R,
    series: SseSeries,
}

/// What one rank brings back from a pass.
struct RankOut {
    setup_end_ns: u64,
    new_ns: u64,
    clock: Option<ChunkClock>,
    /// `(point index, series, cutoff, consistent)`.
    points: Vec<(usize, SseSeries, usize, bool)>,
    comm: CommStats,
    busy_ns: Vec<u64>,
    draws: u64,
    bufs: Vec<SpanBuf>,
}

/// This rank's points, constructed and thermalized, with series sized
/// for `capacity` measurements as `Sse::run` sizes them: the per-rank
/// part of a from-scratch set-up.
fn setup_rank(
    ctx: &Ctx,
    seed: u64,
    capacity: usize,
    comm: &ThreadComm,
) -> (usize, Vec<Point<Xoshiro256StarStar>>, u64) {
    let lat = Chain::new(L);
    let mine = ReplicaPlan::new(BETAS.len(), comm.size()).points_of(comm.rank());
    let mut new_ns = 0;
    let points = mine
        .clone()
        .map(|idx| {
            let mut rng = Xoshiro256StarStar::new(mix(seed, idx as u64));
            let t0 = now_ns();
            let mut eng = Sse::new(&lat, J, BETAS[idx], &mut rng);
            new_ns += now_ns() - t0;
            let _ = eng.run(&mut rng, ctx.sized(THERM), 0);
            let series = eng.begin_series(capacity);
            Point { eng, rng, series }
        })
        .collect();
    (mine.start, points, new_ns)
}

/// One pass on `ranks` ranks: `setups − 1` set-up-only worlds, then one
/// that continues into `chunks` measured rounds, traced or not.
fn pass(
    ctx: &Ctx,
    ranks: usize,
    chunks: usize,
    setups: usize,
    traced: bool,
) -> (Measured, Vec<RankOut>) {
    let mut m = Measured {
        sweeps_per_chunk: (BETAS.len() * ROUND_SWEEPS) as f64,
        setup_s: Vec::with_capacity(setups),
        ..Measured::default()
    };
    let clock = Mutex::new(Some(ChunkClock::with_capacity(chunks)));
    let throw_away = |m: &mut Measured, i: usize| {
        let seed = ctx.setup_seed(0x300, i, setups);
        let t0 = now_ns();
        let ends = run_threads(ranks, |comm| {
            let _ = setup_rank(ctx, seed, 0, comm);
            comm.barrier();
            now_ns()
        });
        m.setup_s.push((ends[0] - t0) as f64 * 1e-9);
    };
    let before = setups_before(setups);
    for i in 0..before {
        throw_away(&mut m, i);
    }
    let heap0 = sys::heap_baseline();
    let seed = ctx.setup_seed(0x300, setups - 1, setups);
    let t0 = now_ns();
    let mut outs = run_threads(ranks, |comm| {
        let (first, mut points, new_ns) = setup_rank(ctx, seed, chunks * ROUND_SWEEPS, comm);
        // The scan is ready when its slowest rank is.
        comm.barrier();
        let setup_end_ns = now_ns();
        let comm0 = comm.stats();
        // Rank 0 keeps the time.
        let mut clock = (comm.rank() == 0)
            .then(|| clock.lock().expect("clock lock").take())
            .flatten();
        if let Some(c) = clock.as_mut() {
            c.start();
        }
        let mut busy_ns = Vec::with_capacity(chunks);
        let mut bufs = Vec::new();
        let mut draws = 0;
        let points = if traced {
            let mut points: Vec<Point<CountingRng<Xoshiro256StarStar>>> = points
                .into_iter()
                .map(|p| Point {
                    eng: p.eng,
                    rng: CountingRng::new(p.rng),
                    series: p.series,
                })
                .collect();
            let mut tc = TraceComm::new(comm, 16 * chunks);
            // The closure cannot reach the communicator's buffer while
            // `run_replicas` holds it; engine spans go to their own.
            let mut eng_buf =
                SpanBuf::with_capacity(chunks * points.len() * (2 * ROUND_SWEEPS + 1));
            for k in 0..chunks {
                (tc.buf.id, eng_buf.id) = (k as u32, k as u32);
                let c0 = clock.as_ref().map_or_else(now_ns, ChunkClock::chunk_start);
                let mut busy = 0;
                let _ = run_replicas(&mut tc, BETAS.len(), |idx| {
                    let p = &mut points[idx - first];
                    let mut t = now_ns();
                    let p0 = t;
                    for _ in 0..ROUND_SWEEPS {
                        p.eng.sweep(&mut p.rng);
                        let t1 = now_ns();
                        eng_buf.push("sse.sweep", Layer::Sse, 0, t, t1);
                        p.eng.record_measurement(&mut p.series);
                        t = now_ns();
                        eng_buf.push("sse.record_measurement", Layer::Sse, 0, t1, t);
                    }
                    busy += t - p0;
                    vec![p.eng.n_ops() as f64]
                });
                let t = now_ns();
                tc.buf.push("core.run_replicas", Layer::Core, 0, c0, t);
                tc.buf.push("bench.chunk", Layer::Bench, 0, c0, t);
                busy_ns.push(busy);
                if let Some(c) = clock.as_mut() {
                    c.lap();
                }
            }
            let mut all = tc.buf;
            all.dropped += eng_buf.dropped;
            all.spans.append(&mut eng_buf.spans);
            bufs.push(all);
            draws = points.iter().map(|p| p.rng.draws).sum();
            points
                .into_iter()
                .map(|p| (p.eng, p.series))
                .collect::<Vec<_>>()
        } else {
            for _ in 0..chunks {
                let _ = run_replicas(comm, BETAS.len(), |idx| {
                    let p = &mut points[idx - first];
                    for _ in 0..ROUND_SWEEPS {
                        p.eng.sweep(&mut p.rng);
                        p.eng.record_measurement(&mut p.series);
                    }
                    vec![p.eng.n_ops() as f64]
                });
                if let Some(c) = clock.as_mut() {
                    c.lap();
                }
            }
            points.into_iter().map(|p| (p.eng, p.series)).collect()
        };
        let c1 = comm.stats();
        RankOut {
            setup_end_ns,
            new_ns,
            clock,
            points: points
                .into_iter()
                .enumerate()
                .map(|(i, (eng, series))| {
                    let (cutoff, ok) = (eng.cutoff(), eng.check_consistency().is_ok());
                    (first + i, series, cutoff, ok)
                })
                .collect(),
            comm: comm_since(c1, comm0),
            busy_ns,
            draws,
            bufs,
        }
    });
    m.peak_heap_mb = sys::peak_heap_mb(heap0);
    m.setup_s.push((outs[0].setup_end_ns - t0) as f64 * 1e-9);
    outs[0]
        .clock
        .take()
        .expect("rank 0 keeps the time")
        .finish(&mut m);
    for i in before..setups - 1 {
        throw_away(&mut m, i);
    }
    (m, outs)
}

/// Companion: the same engine on an 8-site chain against exact
/// diagonalization (SSE has no Trotter error: no allowance).
fn companion(ctx: &Ctx, out: &mut Outcome) {
    let (therm, sweeps) = (ctx.sized(SMALL_SWEEPS.0), ctx.sized(SMALL_SWEEPS.1));
    let mut rng = Xoshiro256StarStar::new(ctx.derive(0x3F0));
    let mut eng = Sse::new(&Chain::new(SMALL_L), J, SMALL_BETA, &mut rng);
    let series = eng.run(&mut rng, therm, sweeps);
    let exact = oracle::xxz_chain_energy(SMALL_L, J, J, SMALL_BETA);
    let (ok, detail) = oracle::z_check(&series.energy_samples(), exact, 0.0);
    out.check("oracle_8_sites", ok, detail);
    out.check(
        "companion_consistent",
        eng.check_consistency().is_ok(),
        format!("{:?}", eng.check_consistency()),
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
    let (mut m, ranks_out) = pass(ctx, ctx.ranks, chunks, setups, false);
    out.threads_max = sampler.map_or(0, sys::ThreadSampler::stop);
    out.count_chunks(&m);

    // `(point index, energy series, τ_int, mean n_ops, cutoff,
    // consistent)`; the target point of a scan is its
    // slowest-decorrelating one.
    let mut points: Vec<_> = ranks_out
        .iter()
        .flat_map(|r| r.points.iter())
        .map(|(idx, series, cutoff, ok)| {
            let energy = series.energy_samples();
            let n_ops = series.n_ops.iter().sum::<f64>() / series.n_ops.len().max(1) as f64;
            let t = tau(&energy, TAU_MAX_BIN);
            (*idx, energy, t, n_ops, *cutoff, *ok)
        })
        .collect();
    let slowest = points
        .iter()
        .map(|p| p.2.tau_int)
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
        .expect("the scan has points");
    m.energy = std::mem::take(&mut points[slowest].1);
    common_checks(ctx, &mut out, &m, points[slowest].2);
    out.check(
        "every_point_converged",
        points.iter().all(|p| p.2.converged) || ctx.quick,
        format!("slowest point is beta = {}", BETAS[points[slowest].0]),
    );
    out.check(
        "engines_consistent",
        points
            .iter()
            .all(|p| p.5 && p.1.iter().all(|e| e.is_finite())),
        format!("{} points", points.len()),
    );
    companion(ctx, &mut out);

    if ctx.trace {
        let (tm, mut traced_out) = pass(ctx, ctx.ranks, chunks, 1, true);
        let (p1, _) = pass(ctx, 1, baseline_chunks(ctx, CHUNKS), 1, false);
        out.count_chunks(&tm);
        out.count_chunks(&p1);
        let mut bufs: Vec<SpanBuf> = traced_out
            .iter_mut()
            .flat_map(|r| r.bufs.drain(..))
            .collect();
        let sum = summarize(&mut bufs);
        save_trace(ctx, NAME, &bufs);

        let sweeps = chunks as f64 * m.sweeps_per_chunk;
        let ranks = ctx.ranks as f64;
        let total = |f: &dyn Fn(&RankOut) -> f64| traced_out.iter().map(f).sum::<f64>();
        let coldest = points
            .iter()
            .find(|p| p.0 == BETAS.len() - 1)
            .expect("coldest point");
        out.set("rng.draws_per_sweep", total(&|r| r.draws as f64) / sweeps);
        out.set(
            "sse.new_us",
            total(&|r| r.new_ns as f64) / BETAS.len() as f64 / 1e3,
        );
        // ns per operator-string slot: the sweep visits every slot of
        // the cutoff-length string.
        let slots: f64 =
            points.iter().map(|p| p.4 as f64).sum::<f64>() * chunks as f64 * ROUND_SWEEPS as f64;
        out.set(
            "sse.sweep_ns_per_op",
            sum.by_name
                .get("sse.sweep")
                .map_or(0.0, |v| v.iter().sum::<f64>())
                / slots,
        );
        out.set("sse.measure_us", sum.p50("sse.record_measurement", 1e3));
        out.set("sse.n_ops_mean", coldest.3);
        out.set("sse.cutoff", coldest.4 as f64);
        // Busiest rank's time in its points over the mean, per round.
        let imbalance: Vec<f64> = (0..chunks)
            .map(|k| {
                let busy: Vec<f64> = traced_out.iter().map(|r| r.busy_ns[k] as f64).collect();
                busy.iter().copied().fold(0.0, f64::max) / (busy.iter().sum::<f64>() / ranks)
            })
            .collect();
        out.set(
            "core.replica_imbalance",
            crate::estimate::median(&imbalance),
        );
        out.set("core.replicas_gather_us", sum.p50("comm.gather", 1e3));
        // The ranks share one CPU: 1 would mean that splitting the
        // scan over P ranks costs nothing.
        out.set(
            "core.parallel_efficiency",
            m.sweeps_per_s() / p1.sweeps_per_s(),
        );
        out.set(
            "comm.msgs_per_sweep",
            total(&|r| r.comm.messages_sent as f64) / sweeps,
        );
        out.set(
            "comm.bytes_per_sweep",
            total(&|r| r.comm.bytes_sent as f64) / sweeps,
        );
        out.set(
            "comm.wait_frac",
            total(&|r| r.comm.recv_wait_seconds) / (ranks * tm.chunks().total),
        );
        out.set("comm.thread_pingpong_us", probes::thread_pingpong_us());
        out.set("bench.p1_sweeps_per_s", p1.sweeps_per_s());
        finish_traced(&mut out, &m, &tm, &sum, wall0);
    }
    out.measured = m;
    out
}
