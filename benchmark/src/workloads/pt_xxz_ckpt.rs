//! `pt_xxz_ckpt`: production-shaped parallel tempering. XXZ world-line
//! ladder l = 32, m = 32, P rungs (β ratio 1.2 from β = 2),
//! `run_pt_parallel_ckpt` with an exchange every 2 sweeps and
//! coordinated delta checkpoints. A sweep is one ladder sweep.
//!
//! The driver checkpoints its whole energy series with every commit, so
//! one long run would make each commit dearer than the last and no two
//! chunks equal work. The measured phase is therefore K production runs
//! back to back, each from scratch (fresh store, world and engines, a
//! short thermalization) and each contributing its measured part as one
//! chunk: every chunk then does exactly the same work.

use crate::estimate::tau;
use crate::oracle;
use crate::probes;
use crate::run::{mix, ChunkClock, Ctx, Measured, Outcome};
use crate::spec::pt::*;
use crate::spec::{RESUME_SWEEPS, TRAJECTORY_SEED};
use crate::sys::{self, now_ns, Scratch};
use crate::trace::{summarize, CountingRng, Layer, SpanBuf, TraceComm};
use crate::workloads::{
    baseline_chunks, comm_since, common_checks, finish_traced, main_pass, rank_stream, save_trace,
    setups_before,
};
use qmc_ckpt::CkptStore;
use qmc_comm::{run_threads, CommStats, Communicator};
use qmc_core::pt::{run_pt_parallel_ckpt, PtCheckpointing, PtConfig};
use qmc_rng::Xoshiro256StarStar;
use qmc_worldline::{Worldline, WorldlineParams};
use std::path::Path;
use std::time::Instant;

const NAME: &str = "pt_xxz_ckpt";

/// Commits inside one chunk.
const CHUNK_COMMITS: usize = CHUNK_SWEEPS / CKPT_EVERY;

/// Operations a run performs: chunks and the commits inside them (a
/// traced run adds a traced pass, a `ck = None` pass and a P = 1 pass,
/// the last two without commits).
pub fn planned(ctx: &Ctx) -> u64 {
    let (chunks, _) = main_pass(ctx, CHUNKS);
    let with_commits = (chunks * (1 + CHUNK_COMMITS)) as u64;
    if ctx.trace {
        2 * with_commits + 2 * baseline_chunks(ctx, CHUNKS) as u64
    } else {
        with_commits
    }
}

fn config(
    ctx: &Ctx,
    l: usize,
    m: usize,
    beta0: f64,
    therm: usize,
    sweeps: usize,
    seed: u64,
) -> PtConfig {
    PtConfig {
        l,
        jx: JX,
        jz: JZ,
        m,
        betas: betas(beta0, ctx.ranks),
        therm,
        sweeps,
        exchange_every: EXCHANGE_EVERY,
        seed,
    }
}

/// How a pass drives the ladder.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The production driver as is.
    Plain,
    /// Same driver behind the tracing decorators.
    Traced,
    /// Same driver with `ck = None`.
    NoCkpt,
}

/// What one rank brings back from one production run.
struct RankRun {
    /// When `on_sweep(therm)` fired: set-up ends, the chunk starts.
    start_ns: u64,
    end_ns: u64,
    cpu: (f64, f64),
    energy: Vec<f64>,
    swap_rates: Vec<f64>,
    /// Commits in the measured part whose write did not land or whose
    /// retained generation does not load.
    failed_commits: u64,
    /// `(bytes, was a full snapshot)` of each measured-part commit.
    commit_bytes: Vec<(u64, bool)>,
    comm: CommStats,
    draws: u64,
    /// `on_sweep` times of the measured part (traced mode).
    marks: Vec<u64>,
    buf: Option<SpanBuf>,
}

/// One production run: fresh store in `dir`, fresh world, `cfg.therm`
/// thermalization sweeps, `cfg.sweeps` measured ones.
fn production_run(
    cfg: &PtConfig,
    every: usize,
    dir: &Path,
    stream_seed: u64,
    mode: Mode,
) -> Vec<RankRun> {
    let therm = cfg.therm;
    run_threads(cfg.betas.len(), |comm| {
        let rank0 = comm.rank() == 0;
        let store =
            (mode != Mode::NoCkpt).then(|| CkptStore::new(dir, RETAIN).expect("open store"));
        let ck = store.as_ref().map(|s| PtCheckpointing {
            store: s,
            every,
            full_every: FULL_EVERY,
            resume: false,
            stop: None,
            elastic_from: None,
        });
        let mut start_ns = 0;
        let mut cpu0 = 0.0;
        let mut comm0 = CommStats::default();
        let mut written = 0;
        let mut failed_commits = 0;
        let mut commit_bytes = Vec::with_capacity(cfg.sweeps / every);
        let mut marks = Vec::new();
        let mut rng = rank_stream(stream_seed, comm.rank());
        let mut draws = 0;
        // Runs after any commit due at sweep `s`, before the sweep.
        let mut hook = |stats: CommStats, s: usize| {
            if s == therm {
                if rank0 {
                    cpu0 = sys::process_cpu_s();
                }
                comm0 = stats;
                start_ns = now_ns();
            }
            if mode == Mode::Traced && s >= therm {
                marks.push(now_ns());
            }
            if let (true, Some(store)) = (rank0, store.as_ref()) {
                let now = store.bytes_written();
                if s >= therm && s.is_multiple_of(every) {
                    if now == written {
                        failed_commits += 1;
                    }
                    let full = (s / every).is_multiple_of(FULL_EVERY);
                    commit_bytes.push((now - written, full));
                }
                written = now;
            }
        };
        let ((energy, swap_rates), buf) = if mode == Mode::Traced {
            let mut tc = TraceComm::new(comm, 8 * (cfg.therm + cfg.sweeps));
            let mut rng = CountingRng::new(rng);
            let r = run_pt_parallel_ckpt(&mut tc, cfg, &mut rng, ck.as_ref(), |c, s| {
                hook(c.stats(), s)
            });
            draws = rng.draws;
            (r, Some(tc.buf))
        } else {
            let r =
                run_pt_parallel_ckpt(comm, cfg, &mut rng, ck.as_ref(), |c, s| hook(c.stats(), s));
            (r, None)
        };
        let end_ns = now_ns();
        let cpu = if rank0 {
            (cpu0, sys::process_cpu_s())
        } else {
            (0.0, 0.0)
        };
        if let (true, Some(store)) = (rank0, store.as_ref()) {
            failed_commits += store
                .generations()
                .iter()
                .filter(|g| store.load(**g).is_err())
                .count() as u64;
        }
        let c1 = comm.stats();
        RankRun {
            start_ns,
            end_ns,
            cpu,
            energy,
            swap_rates,
            failed_commits,
            commit_bytes,
            comm: comm_since(c1, comm0),
            draws,
            marks,
            buf,
        }
    })
}

/// Totals of one pass beyond its [`Measured`].
#[derive(Default)]
struct PassOut {
    failed_commits: u64,
    commit_bytes: Vec<(u64, bool)>,
    swap_rate: f64,
    msgs: f64,
    bytes: f64,
    wait_s: f64,
    draws: f64,
    bufs: Vec<SpanBuf>,
}

/// One pass: `setups − 1` set-up-only instances, then `chunks`
/// production runs, the first of which carries the long thermalization
/// of a set-up instance.
fn pass(
    ctx: &Ctx,
    scratch: &Scratch,
    chunks: usize,
    setups: usize,
    mode: Mode,
) -> (Measured, PassOut) {
    let mut m = Measured {
        sweeps_per_chunk: CHUNK_SWEEPS as f64,
        setup_s: Vec::with_capacity(setups),
        walls: Vec::with_capacity(chunks),
        chunk_cpu: Vec::with_capacity(chunks),
        energy: Vec::with_capacity(chunks * CHUNK_SWEEPS),
        ..Measured::default()
    };
    let mut out = PassOut {
        commit_bytes: Vec::with_capacity(chunks * CHUNK_COMMITS),
        ..PassOut::default()
    };
    let long = ctx.sized(THERM);
    let throw_away = |m: &mut Measured, i: usize| {
        let seed = ctx.setup_seed(0x400, i, setups);
        let cfg = config(ctx, L, M, BETA0, long, 0, seed);
        let dir = scratch.sub(&format!("setup-{i}"));
        let t0 = now_ns();
        let runs = production_run(&cfg, CKPT_EVERY, &dir, cfg.seed, mode);
        m.setup_s.push((runs[0].end_ns - t0) as f64 * 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    };
    let before = setups_before(setups);
    for i in 0..before {
        throw_away(&mut m, i);
    }
    let mut rank_bufs: Vec<SpanBuf> = Vec::new();
    let heap0 = sys::heap_baseline();
    let (host0, cpu0, wall0) = (sys::host_busy_s(), sys::process_cpu_s(), now_ns());
    for k in 0..chunks {
        let therm = if k == 0 {
            long
        } else {
            ctx.sized(REPEAT_THERM)
        };
        // Every production run is part of the commit's fixed trajectory.
        let seed = mix(TRAJECTORY_SEED, 0x440 + k as u64);
        let cfg = config(ctx, L, M, BETA0, therm, CHUNK_SWEEPS, seed);
        let dir = scratch.sub(&format!("run-{k}"));
        let t0 = now_ns();
        let mut runs = production_run(&cfg, CKPT_EVERY, &dir, cfg.seed, mode);
        let _ = std::fs::remove_dir_all(&dir);
        if k == 0 {
            m.setup_s.push((runs[0].start_ns - t0) as f64 * 1e-9);
        }
        m.walls
            .push((runs[0].end_ns - runs[0].start_ns) as f64 * 1e-9);
        m.chunk_cpu.push(runs[0].cpu.1 - runs[0].cpu.0);
        // The coldest rung is the ladder's target point.
        m.energy
            .extend_from_slice(&runs.last().expect("ranks").energy);
        out.failed_commits += runs[0].failed_commits;
        out.commit_bytes.append(&mut runs[0].commit_bytes);
        let pairs = runs[0].swap_rates.len().max(1) as f64;
        out.swap_rate += runs[0].swap_rates.iter().sum::<f64>() / pairs / chunks as f64;
        for r in &runs {
            out.msgs += r.comm.messages_sent as f64;
            out.bytes += r.comm.bytes_sent as f64;
            out.wait_s += r.comm.recv_wait_seconds;
            out.draws += r.draws as f64;
        }
        if mode == Mode::Traced {
            for (rank, r) in runs.iter_mut().enumerate() {
                let mut buf = r.buf.take().expect("traced run records spans");
                synthesize(&mut buf, &r.marks, r.end_ns, k as u32);
                match rank_bufs.get_mut(rank) {
                    Some(all) => {
                        all.dropped += buf.dropped;
                        all.spans.append(&mut buf.spans);
                    }
                    None => rank_bufs.push(buf),
                }
            }
        }
    }
    // Other processes' share is taken over the whole loop, the short
    // re-thermalizations between the chunks included.
    m.phase_wall_s = (now_ns() - wall0) as f64 * 1e-9;
    m.other_cpu_s = ((sys::host_busy_s() - host0) - (sys::process_cpu_s() - cpu0)).max(0.0);
    m.peak_heap_mb = sys::peak_heap_mb(heap0);
    for i in before..setups - 1 {
        throw_away(&mut m, i);
    }
    out.bufs = rank_bufs;
    (m, out)
}

/// Turn one rank's flat comm spans and `on_sweep` marks into the span
/// tree of the measured part: per sweep a `worldline` span (sweep,
/// log-weights, measurement) holding a `core.pt_exchange` span around
/// its exchange messages, and a `ckpt.commit` span from the commit's
/// first broadcast to the next `on_sweep`. Spans from before the
/// measured part are dropped.
fn synthesize(buf: &mut SpanBuf, marks: &[u64], end_ns: u64, id: u32) {
    let Some(&first) = marks.first() else {
        buf.spans.clear();
        return;
    };
    buf.spans.retain(|s| s.start >= first);
    buf.spans.sort_by_key(|s| s.start);
    buf.id = id;
    for s in &mut buf.spans {
        s.id = id;
    }
    let comm: Vec<_> = buf.spans.clone();
    let mut next = 0;
    for (i, &t0) in marks.iter().enumerate() {
        let t1 = marks.get(i + 1).copied().unwrap_or(end_ns);
        let mut exchange: Option<(u64, u64)> = None;
        let mut commit_start = None;
        while let Some(c) = comm.get(next).filter(|c| c.start < t1) {
            match c.name {
                "comm.sendrecv" => {
                    let e = exchange.get_or_insert((c.start, c.end));
                    e.1 = c.end;
                }
                "comm.broadcast" | "comm.gather" => {
                    commit_start.get_or_insert(c.start);
                }
                _ => {}
            }
            next += 1;
        }
        let step_end = commit_start.unwrap_or(t1);
        buf.push("worldline.sweep_measure", Layer::Worldline, 0, t0, step_end);
        if let Some((a, b)) = exchange {
            buf.push("core.pt_exchange", Layer::Core, 0, a, b);
        }
        if let Some(a) = commit_start {
            buf.push("ckpt.commit", Layer::Ckpt, 0, a, t1);
        }
    }
    buf.push("bench.chunk", Layer::Bench, 0, first, end_ns);
}

/// P = 1 baseline: one replica at the coldest β, sweep + measurement,
/// no exchange, no checkpoints. Its sweep is a replica sweep.
fn single_replica_pass(ctx: &Ctx, chunks: usize) -> Measured {
    let mut m = Measured {
        sweeps_per_chunk: CHUNK_SWEEPS as f64,
        ..Measured::default()
    };
    let beta = *betas(BETA0, ctx.ranks).last().expect("rungs");
    let mut w = Worldline::new(WorldlineParams {
        l: L,
        jx: JX,
        jz: JZ,
        beta,
        m: M,
    });
    let mut rng = Xoshiro256StarStar::new(mix(TRAJECTORY_SEED, 0x4E0));
    let t0 = Instant::now();
    for _ in 0..ctx.sized(REPEAT_THERM) {
        w.sweep(&mut rng);
    }
    m.setup_s.push(t0.elapsed().as_secs_f64());
    let mut clock = ChunkClock::with_capacity(chunks);
    clock.start();
    for _ in 0..chunks {
        for _ in 0..CHUNK_SWEEPS {
            w.sweep(&mut rng);
            m.energy
                .push(qmc_worldline::estimators::measure(&w).energy_per_site);
        }
        clock.lap();
    }
    clock.finish(&mut m);
    m
}

/// Companion: the same driver on an 8-site ladder against exact
/// diagonalization, and the restore check — resuming the newest
/// generation and continuing `RESUME_SWEEPS` sweeps must reproduce the
/// uninterrupted series bit for bit on every rung.
fn companion(ctx: &Ctx, scratch: &Scratch, out: &mut Outcome) {
    let (therm, sweeps) = (ctx.sized(SMALL_SWEEPS.0), ctx.sized(SMALL_SWEEPS.1));
    let cfg = config(
        ctx,
        SMALL_L,
        SMALL_M,
        SMALL_BETA0,
        therm,
        sweeps,
        ctx.derive(0x4F0),
    );
    // The driver writes its whole energy series with every commit, so a
    // long run at the workload's cadence would spend its time there;
    // the physics check commits rarely.
    let runs = production_run(
        &cfg,
        SMALL_CKPT_EVERY,
        &scratch.sub("small"),
        cfg.seed,
        Mode::Plain,
    );
    let coldest = runs.last().expect("ranks");
    let beta = *cfg.betas.last().expect("rungs");
    let exact = oracle::xxz_chain_energy(SMALL_L, JX, JZ, beta);
    let allow = oracle::xxz_trotter_allowance(JX, JZ, beta / SMALL_M as f64);
    let (ok, detail) = oracle::z_check(&coldest.energy, exact, allow);
    out.check("oracle_8_sites", ok, detail);
    let rate = runs[0].swap_rates.iter().sum::<f64>() / runs[0].swap_rates.len().max(1) as f64;
    out.check(
        "swap_acceptance_in_unit_interval",
        rate > 0.0 && rate < 1.0,
        format!("swap acceptance {rate:.4}"),
    );

    // Generations land every CKPT_EVERY sweeps; stop a run right after
    // generation `cut`, resume it, and compare with a run never stopped.
    let cut = 28 * CKPT_EVERY;
    let total = cut + RESUME_SWEEPS;
    let small_therm = 16 * CKPT_EVERY;
    let series = |sweeps: usize, dir: &str, resume: bool| {
        let cfg = config(
            ctx,
            SMALL_L,
            SMALL_M,
            SMALL_BETA0,
            small_therm,
            sweeps,
            ctx.derive(0x4F8),
        );
        let dir = scratch.sub(dir);
        run_threads(cfg.betas.len(), |comm| {
            let store = CkptStore::new(&dir, RETAIN).expect("open store");
            let ck = PtCheckpointing {
                store: &store,
                every: CKPT_EVERY,
                full_every: FULL_EVERY,
                resume,
                stop: None,
                elastic_from: None,
            };
            let mut rng = rank_stream(cfg.seed, comm.rank());
            run_pt_parallel_ckpt(comm, &cfg, &mut rng, Some(&ck), |_, _| {}).0
        })
    };
    let reference = series(total - small_therm, "resume-ref", false);
    // Ends after sweep `cut`, so its newest generation is `cut`.
    let _ = series(cut + 1 - small_therm, "resume-cut", false);
    let resumed = series(total - small_therm, "resume-cut", true);
    let same = reference.len() == resumed.len()
        && reference.iter().zip(&resumed).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    out.check(
        "resume_bit_identical",
        same && reference[0].len() == total - small_therm,
        format!(
            "generation {cut} + {RESUME_SWEEPS} sweeps on {} rungs",
            reference.len()
        ),
    );
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        planned: planned(ctx),
        ..Outcome::default()
    };
    let wall0 = Instant::now();
    let scratch = Scratch::new(&ctx.out, NAME);
    let (chunks, setups) = main_pass(ctx, CHUNKS);
    let sampler = ctx.trace.then(sys::ThreadSampler::start);
    let (m, po) = pass(ctx, &scratch, chunks, setups, Mode::Plain);
    out.threads_max = sampler.map_or(0, sys::ThreadSampler::stop);
    out.count_chunks(&m);
    out.attempted += po.commit_bytes.len() as u64;
    out.failed += po.failed_commits;
    common_checks(ctx, &mut out, &m, tau(&m.energy, TAU_MAX_BIN));
    out.check(
        "swap_acceptance_in_unit_interval",
        po.swap_rate > 0.0 && po.swap_rate < 1.0,
        format!("swap acceptance {:.4}", po.swap_rate),
    );
    companion(ctx, &scratch, &mut out);

    if ctx.trace {
        let base = baseline_chunks(ctx, CHUNKS);
        let (tm, mut tpo) = pass(ctx, &scratch, chunks, 1, Mode::Traced);
        let (nock, _) = pass(ctx, &scratch, base, 1, Mode::NoCkpt);
        let p1 = single_replica_pass(ctx, base);
        for pass in [&tm, &nock, &p1] {
            out.count_chunks(pass);
        }
        out.attempted += tpo.commit_bytes.len() as u64;
        out.failed += tpo.failed_commits;
        let sum = summarize(&mut tpo.bufs);
        save_trace(ctx, NAME, &tpo.bufs);

        let sweeps = chunks as f64 * m.sweeps_per_chunk;
        let ranks = ctx.ranks as f64;
        let mean_bytes = |full: bool| {
            let v: Vec<f64> = tpo
                .commit_bytes
                .iter()
                .filter(|c| c.1 == full)
                .map(|c| c.0 as f64)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        out.set("rng.draws_per_sweep", tpo.draws / sweeps);
        let wl = probes::worldline(
            L,
            JX,
            JZ,
            *betas(BETA0, ctx.ranks).last().expect("rungs"),
            M,
        );
        out.set("worldline.new_us", wl.new_us);
        out.set("worldline.sweep_ns_per_site", wl.sweep_ns_per_site);
        out.set("worldline.accept_ratio", wl.accept_ratio);
        out.set("core.pt_exchange_us.p50", sum.p50("core.pt_exchange", 1e3));
        out.set("core.pt_swap_accept_ratio", po.swap_rate);
        // The rungs share one CPU: replica sweeps per second in the
        // ladder over those of a replica run alone; 1 would mean that
        // exchanges and commits cost nothing.
        out.set(
            "core.parallel_efficiency",
            ranks * m.sweeps_per_s() / p1.sweeps_per_s(),
        );
        out.set("comm.msgs_per_sweep", tpo.msgs / sweeps);
        out.set("comm.bytes_per_sweep", tpo.bytes / sweeps);
        out.set("comm.wait_frac", tpo.wait_s / (ranks * tm.chunks().total));
        out.set("comm.sendrecv_us.p50", sum.p50("comm.sendrecv", 1e3));
        out.set("comm.thread_pingpong_us", probes::thread_pingpong_us());
        out.set("ckpt.overhead_frac", 1.0 - nock.chunk_s() / m.chunk_s());
        out.set("ckpt.commits", po.commit_bytes.len() as f64);
        out.set("ckpt.bytes_per_commit_full", mean_bytes(true));
        out.set("ckpt.bytes_per_commit_delta", mean_bytes(false));
        let ck = probes::ckpt(ctx, &scratch);
        out.set("ckpt.plan_us", ck.plan_us);
        out.set("ckpt.write_full_ms", ck.write_full_ms);
        out.set("ckpt.write_delta_ms", ck.write_delta_ms);
        out.set("ckpt.latest_ms", ck.latest_ms);
        out.set("ckpt.restore_ms", ck.restore_ms);
        out.set("bench.nockpt_sweeps_per_s", nock.sweeps_per_s());
        out.set("bench.p1_sweeps_per_s", p1.sweeps_per_s());
        finish_traced(&mut out, &m, &tm, &sum, wall0);
    }
    out.measured = m;
    out
}
