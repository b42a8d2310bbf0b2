//! `serve_mixed_jobs`: an in-process `Server` on 127.0.0.1:0 with
//! `max(1, P/2)` workers and `min(nproc, 2·workers)` persistent clients
//! in closed loop (each blocked in `await_result` while a worker
//! computes) over a fixed, seed-shuffled job list: 80 % small TFIM
//! chains, 20 % parallel-tempering ladders, 4 tenants, mixed
//! priorities. A chunk is 20 consecutive completions; a sweep is one
//! sweep of a completed job (`therm + sweeps` per job).

use crate::estimate::{median, tau};
use crate::oracle;
use crate::probes;
use crate::run::{Ctx, Measured, Outcome};
use crate::spec::pt::{BETA_RATIO, EXCHANGE_EVERY};
use crate::spec::serve::*;
use crate::sys::{self, now_ns, Scratch};
use crate::trace::{summarize, Layer, SpanBuf};
use crate::workloads::{finish_traced, main_pass, save_trace, setups_before};
use qmc_rng::{Rng64, Xoshiro256StarStar};
use qmc_serve::{
    Client, JobKind, JobObservables, JobSpec, Outcome as JobOutcome, RunCtl, ServeConfig, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const NAME: &str = "serve_mixed_jobs";

/// Server workers on `ranks` ranks' worth of CPUs.
fn workers(ctx: &Ctx) -> usize {
    (ctx.ranks / 2).max(1)
}

/// Closed-loop clients.
fn clients(ctx: &Ctx) -> usize {
    sys::nproc().min(2 * workers(ctx)).max(1)
}

/// Rungs of a PT job: the CPUs one worker may use (at least 2).
fn pt_rungs(ctx: &Ctx) -> usize {
    (ctx.ranks / workers(ctx)).max(2)
}

/// Most threads runnable at once: every worker inside a PT job (the
/// clients are blocked in `await_result` meanwhile).
pub fn runnable_threads(ctx: &Ctx) -> usize {
    workers(ctx) * pt_rungs(ctx)
}

/// Operations a run performs: chunks plus the jobs in them (a traced
/// run makes an untraced and a traced pass).
pub fn planned(ctx: &Ctx) -> u64 {
    let (chunks, _) = main_pass(ctx, CHUNKS);
    (chunks * (1 + CHUNK_JOBS) * if ctx.trace { 2 } else { 1 }) as u64
}

fn tfim_job() -> JobKind {
    JobKind::Tfim {
        lx: TFIM_L,
        ly: 1,
        j: 1.0,
        h: 1.0,
        m: TFIM_M,
        wolff: 1,
    }
}

/// `n` jobs named `{prefix}{index}`: every block of `CHUNK_JOBS` holds
/// exactly `CHUNK_PT_JOBS` ladders (so every chunk is equal work), in an
/// order, with tenants, priorities and job seeds drawn from `seed`.
fn job_list(ctx: &Ctx, n: usize, prefix: &str, seed: u64) -> Vec<JobSpec> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut jobs = Vec::with_capacity(n);
    let mut block: Vec<bool> = Vec::with_capacity(CHUNK_JOBS);
    while jobs.len() < n {
        block.clear();
        block.extend((0..CHUNK_JOBS).map(|i| i < CHUNK_PT_JOBS));
        rng.shuffle(&mut block);
        for &is_pt in block.iter().take(n - jobs.len()) {
            let (kind, betas, (therm, sweeps)) = if is_pt {
                (
                    JobKind::PtXxz {
                        l: PT_L,
                        jx: 1.0,
                        jz: 1.0,
                        m: PT_M,
                        exchange_every: EXCHANGE_EVERY,
                    },
                    (0..pt_rungs(ctx))
                        .map(|k| BETA_RATIO.powi(k as i32))
                        .collect(),
                    PT_SWEEPS,
                )
            } else {
                (tfim_job(), vec![TFIM_BETA], TFIM_SWEEPS)
            };
            jobs.push(JobSpec {
                tenant: TENANTS[rng.index(TENANTS.len())].to_string(),
                name: format!("{prefix}{}", jobs.len()),
                kind,
                betas,
                therm,
                sweeps,
                seed: rng.next_u64(),
                priority: rng.index(4) as u8,
                ckpt_every: (therm + sweeps) / SNAPSHOTS_PER_JOB,
            });
        }
    }
    jobs
}

/// What a client keeps of one finished job.
struct Done {
    index: usize,
    submit_ns: u64,
    accepted_ns: u64,
    done_ns: u64,
    first_attempt: bool,
    snapshots: u32,
    /// `(mean energy, τ_int, converged)` of a TFIM job's series.
    tfim: Option<(f64, f64, bool)>,
    finite: bool,
    /// Kept for one job in `VERIFY_EVERY`.
    obs: Option<JobObservables>,
}

impl Done {
    /// Heap this record accounts for on the client side: itself, once
    /// in its client's list and once in the merged one, and the series
    /// of a result kept for the bit-identity check.
    fn held_bytes(&self) -> usize {
        let series = self
            .obs
            .iter()
            .flat_map(|o| o.energy.iter().chain(&o.extra));
        2 * std::mem::size_of::<Done>()
            + series
                .map(|v| std::mem::size_of_val(v) + v.capacity() * 8)
                .sum::<usize>()
    }
}

/// Run `jobs` through `addr` in closed loop from `clients` threads;
/// returns the finished jobs and the `(ns, process CPU s)` readings
/// taken at every `CHUNK_JOBS`-th completion.
fn closed_loop(
    addr: std::net::SocketAddr,
    jobs: &[JobSpec],
    n_clients: usize,
    keep: bool,
) -> (Vec<Done>, Vec<(u64, f64)>) {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let marks = Mutex::new(Vec::with_capacity(jobs.len() / CHUNK_JOBS + 1));
    let ready = Barrier::new(n_clients);
    let mut all = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let (next, finished, marks, ready) = (&next, &finished, &marks, &ready);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, TENANTS[c % TENANTS.len()])
                        .expect("connect to the in-process server");
                    let mut mine = Vec::with_capacity(jobs.len() / n_clients + 1);
                    if ready.wait().is_leader() {
                        marks
                            .lock()
                            .expect("marks lock")
                            .push((now_ns(), sys::process_cpu_s()));
                    }
                    ready.wait();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(index) else { break };
                        let submit_ns = now_ns();
                        let id = client.submit(spec);
                        let accepted_ns = now_ns();
                        let mut snapshots = 0;
                        let result =
                            id.and_then(|id| client.await_result(id, |_, _, _, _| snapshots += 1));
                        let done_ns = now_ns();
                        let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                        if n % CHUNK_JOBS == 0 {
                            marks
                                .lock()
                                .expect("marks lock")
                                .push((done_ns, sys::process_cpu_s()));
                        }
                        let mut done = Done {
                            index,
                            submit_ns,
                            accepted_ns,
                            done_ns,
                            first_attempt: false,
                            snapshots,
                            tfim: None,
                            finite: false,
                            obs: None,
                        };
                        if let Ok((obs, attempts)) = result {
                            done.first_attempt = attempts == 1;
                            done.finite = obs.energy.iter().flatten().all(|e| e.is_finite());
                            if matches!(spec.kind, JobKind::Tfim { .. }) {
                                let e = &obs.energy[0];
                                let t = tau(e, TAU_MAX_BIN);
                                done.tfim = Some((
                                    e.iter().sum::<f64>() / e.len().max(1) as f64,
                                    t.tau_int,
                                    t.converged,
                                ));
                            }
                            if keep && index % VERIFY_EVERY == 0 {
                                done.obs = Some(obs);
                            }
                        }
                        mine.push(done);
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
    });
    all.sort_by_key(|d| d.index);
    let mut marks = marks.into_inner().expect("marks lock");
    marks.sort_by_key(|m| m.0);
    (all, marks)
}

/// A server on a fresh checkpoint root, warmed up with the jobs `warm`:
/// one from-scratch set-up instance. Returns the server and when set-up
/// ended.
fn setup(ctx: &Ctx, scratch: &Scratch, instance: usize, warm: &[JobSpec]) -> (Server, u64) {
    let server = Server::start(
        ServeConfig {
            workers: workers(ctx),
            ckpt_root: scratch.sub(&format!("root-{instance}")),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start the in-process server");
    let (done, _) = closed_loop(server.addr(), warm, clients(ctx), false);
    assert!(done.iter().all(|d| d.first_attempt), "warm-up job failed");
    (server, now_ns())
}

/// What a pass found beyond its [`Measured`].
struct PassOut {
    jobs: Vec<JobSpec>,
    done: Vec<Done>,
}

/// One pass: `setups − 1` set-up-only servers, then one that serves the
/// measured job list.
fn pass(
    ctx: &Ctx,
    scratch: &Scratch,
    chunks: usize,
    setups: usize,
    salt: u64,
) -> (Measured, PassOut) {
    // A job's sweeps are its `therm + sweeps`.
    let per_chunk: u32 = (CHUNK_JOBS - CHUNK_PT_JOBS) as u32 * (TFIM_SWEEPS.0 + TFIM_SWEEPS.1)
        + CHUNK_PT_JOBS as u32 * (PT_SWEEPS.0 + PT_SWEEPS.1);
    let mut m = Measured {
        sweeps_per_chunk: f64::from(per_chunk),
        setup_s: Vec::with_capacity(setups),
        ..Measured::default()
    };
    // The inputs are generated before the heap window opens.
    let warm: Vec<Vec<JobSpec>> = (0..setups)
        .map(|i| {
            let seed = ctx.derive(0x500 + i as u64);
            job_list(ctx, ctx.sized(WARMUP_JOBS), "warm", seed)
        })
        .collect();
    let jobs = job_list(ctx, chunks * CHUNK_JOBS, "job", ctx.derive(salt));
    let throw_away = |m: &mut Measured, i: usize| {
        let t0 = now_ns();
        let (server, end) = setup(ctx, scratch, i, &warm[i]);
        m.setup_s.push((end - t0) as f64 * 1e-9);
        server.shutdown();
    };
    let before = setups_before(setups);
    for i in 0..before {
        throw_away(&mut m, i);
    }
    let heap0 = sys::heap_baseline();
    let t0 = now_ns();
    let (server, end) = setup(ctx, scratch, setups - 1, &warm[setups - 1]);
    m.setup_s.push((end - t0) as f64 * 1e-9);
    let host0 = sys::host_busy_s();
    let (done, marks) = closed_loop(server.addr(), &jobs, clients(ctx), true);
    let host = sys::host_busy_s() - host0;
    // The server keeps every result, so the heap peaks as the last job
    // ends; what the clients hold by then is the harness's own.
    let held: usize = done.iter().map(Done::held_bytes).sum();
    m.peak_heap_mb = sys::peak_heap_mb(heap0) - held as f64 / 1e6;
    server.shutdown();
    for i in before..setups - 1 {
        throw_away(&mut m, i);
    }
    m.walls = marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 * 1e-9)
        .collect();
    m.chunk_cpu = marks.windows(2).map(|w| w[1].1 - w[0].1).collect();
    m.phase_wall_s = m.walls.iter().sum();
    m.other_cpu_s = (host - m.chunk_cpu.iter().sum::<f64>()).max(0.0);
    (m, PassOut { jobs, done })
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
    let (mut m, po) = pass(ctx, &scratch, chunks, setups, 0x5A0);
    out.threads_max = sampler.map_or(0, sys::ThreadSampler::stop);
    out.count_chunks(&m);
    out.attempted += po.done.len() as u64;
    let failed_jobs = po.done.iter().filter(|d| !d.first_attempt).count();
    out.failed += failed_jobs as u64;

    // Statistics of the small TFIM jobs: τ_int is their median, and
    // their pooled energy is the ≤ 12-site companion (8 sites, one mean
    // per independent job).
    let tfim: Vec<(f64, f64, bool)> = po.done.iter().filter_map(|d| d.tfim).collect();
    let taus: Vec<f64> = tfim.iter().map(|t| t.1).collect();
    let converged = tfim.iter().filter(|t| t.2).count() as f64 / tfim.len().max(1) as f64;
    let t = crate::estimate::Tau {
        tau_int: median(&taus),
        converged: converged >= 0.5,
    };
    out.tau = Some(t);
    out.check(
        "energies_finite",
        po.done.iter().all(|d| d.finite),
        format!("{} jobs", po.done.len()),
    );
    out.check(
        "binning_converged",
        t.converged || ctx.quick,
        format!(
            "median tau_int {:.3}; {:.0} % of {} TFIM jobs converged",
            t.tau_int,
            converged * 100.0,
            tfim.len()
        ),
    );
    let means: Vec<f64> = tfim.iter().map(|t| t.0).collect();
    m.energy = means.clone();
    let n = means.len().max(2) as f64;
    let mean = means.iter().sum::<f64>() / n;
    let err = (means.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0) / n).sqrt();
    let exact = oracle::tfim_chain_energy(TFIM_L, 1.0, 1.0, TFIM_BETA);
    let allow = oracle::tfim_trotter_allowance(1.0, 1.0, TFIM_BETA / TFIM_M as f64);
    let z = oracle::z_of(mean, err, exact, allow);
    out.check(
        "oracle_8_sites",
        z <= oracle::Z_MAX,
        format!(
            "pooled mean {mean:.5} ± {err:.5} over {} jobs, exact {exact:.5}, Trotter allowance {allow:.5}, z {z:.2}"
        , means.len()),
    );

    // A fixed sample of results must equal a direct `run_job` bit for bit.
    let mut checked = 0;
    let mut same = 0;
    for d in po.done.iter().filter(|d| d.obs.is_some()) {
        checked += 1;
        if let JobOutcome::Done { obs, .. } =
            qmc_serve::run_job(&po.jobs[d.index], RunCtl::default())
        {
            same += usize::from(obs.bits_eq(d.obs.as_ref().expect("kept")));
        }
    }
    out.check(
        "results_match_direct_run",
        checked > 0 && same == checked,
        format!("{same} of {checked} sampled results bit-identical to run_job"),
    );

    if ctx.trace {
        let (tm, tpo) = pass(ctx, &scratch, chunks, 1, 0x5B0);
        out.count_chunks(&tm);
        out.attempted += tpo.done.len() as u64;
        out.failed += tpo.done.iter().filter(|d| !d.first_attempt).count() as u64;
        // Client-side spans: one per job, holding its submit round trip
        // and its wait for the result.
        let mut buf = SpanBuf::with_capacity(3 * tpo.done.len() + chunks);
        for d in &tpo.done {
            buf.id = d.index as u32;
            buf.push("serve.job", Layer::Serve, 0, d.submit_ns, d.done_ns);
            buf.push("serve.submit", Layer::Serve, 0, d.submit_ns, d.accepted_ns);
            buf.push("serve.await", Layer::Serve, 0, d.accepted_ns, d.done_ns);
        }
        let mut bufs = [buf];
        let sum = summarize(&mut bufs);
        save_trace(ctx, NAME, &bufs);

        let lat: Vec<f64> = tpo
            .done
            .iter()
            .map(|d| (d.done_ns - d.submit_ns) as f64 * 1e-6)
            .collect();
        let sorted_lat = crate::estimate::sorted(&lat);
        let total_wall: f64 = tm.walls.iter().sum();
        out.set("serve.jobs_per_s", CHUNK_JOBS as f64 / tm.chunk_s());
        out.set(
            "serve.job_latency_ms.p50",
            crate::estimate::quantile(&sorted_lat, 0.5),
        );
        out.set(
            "serve.job_latency_ms.p90",
            crate::estimate::quantile(&sorted_lat, 0.9),
        );
        out.set("serve.job_latency_samples", lat.len() as f64);
        out.set("serve.submit_rtt_us.p50", sum.p50("serve.submit", 1e3));
        out.set(
            "serve.snapshots_per_job",
            tpo.done.iter().map(|d| f64::from(d.snapshots)).sum::<f64>()
                / tpo.done.len().max(1) as f64,
        );
        out.set("serve.failed_jobs", failed_jobs as f64);

        // Where a job's latency goes, from the same specs run directly:
        // engines alone, engines with the per-job store, and the rest.
        let direct = probes::serve_direct(&tpo.jobs, &scratch);
        let latency_p50 = crate::estimate::quantile(&sorted_lat, 0.5);
        out.set("serve.run_job_direct_ms.p50", direct.with_store_ms_p50);
        out.set(
            "serve.overhead_ms.p50",
            latency_p50 - direct.with_store_ms_p50,
        );
        let jobs = tpo.done.len() as f64;
        let busy_ms: f64 = lat.iter().sum();
        let frames = 2.0 + 2.0 + f64::from(SNAPSHOTS_PER_JOB);
        let net = probes::tcp();
        let comm_ms = jobs * frames * net.frame_rtt_us / 2.0 / 1e3;
        let tfim_ms = direct.tfim_engine_ms_mean * direct.tfim_share * jobs;
        let pt_ms = direct.pt_engine_ms_mean * (1.0 - direct.tfim_share) * jobs;
        let ckpt_ms = direct.ckpt_ms_mean * jobs;
        out.set("trace.self_frac.tfim", tfim_ms / busy_ms);
        out.set("trace.self_frac.worldline", pt_ms / busy_ms);
        out.set("trace.self_frac.ckpt", ckpt_ms / busy_ms);
        out.set("trace.self_frac.comm", comm_ms / busy_ms);
        out.set(
            "trace.self_frac.serve",
            (1.0 - (tfim_ms + pt_ms + ckpt_ms + comm_ms) / busy_ms).max(0.0),
        );
        out.set("trace.self_frac.sse", 0.0);
        out.set("trace.self_frac.core", 0.0);
        out.set("trace.self_frac.stats", 0.0);
        out.set("comm.tcp_frame_rtt_us", net.frame_rtt_us);
        out.set("comm.tcp_frame_MBps", net.frame_mbps);
        out.set("comm.crc32_ns_per_byte", probes::crc32_ns_per_byte());
        let ns = probes::ckpt_namespace(&scratch);
        out.set("ckpt.namespace_open_us", ns.0);
        out.set("ckpt.namespace_remove_us", ns.1);
        let sched = probes::sched();
        out.set("serve.sched_submit_ns.at_1", sched.submit_at_1);
        out.set("serve.sched_submit_ns.at_10000", sched.submit_at_10000);
        out.set("serve.sched_pop_ns.at_1", sched.pop_at_1);
        out.set("serve.sched_pop_ns.at_10000", sched.pop_at_10000);
        let (enc, dec) = probes::msg_codec_ns(&tpo.jobs[0]);
        out.set("serve.msg_encode_ns", enc);
        out.set("serve.msg_decode_ns", dec);
        out.set("core.parallel_efficiency", 1.0);
        out.set("bench.p1_sweeps_per_s", m.sweeps_per_s());
        finish_traced(&mut out, &m, &tm, &sum, wall0);
        // Share of the clients' wall time spent inside a job.
        out.set(
            "trace.coverage",
            busy_ms / 1e3 / (clients(ctx) as f64 * total_wall),
        );
    }
    out.measured = m;
    out
}
