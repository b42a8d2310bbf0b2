//! Isolated timings of single public functions, run only in traced
//! runs and outside every timed window. Each probe repeats its call
//! and reports the median.

use crate::estimate::median;
use qmc_comm::{run_threads, Communicator};
use qmc_rng::{Rng64, Xoshiro256StarStar};
use qmc_tfim::serial::SerialTfim;
use qmc_tfim::TfimModel;
use std::hint::black_box;
use std::time::Instant;

/// Median over `reps` timings of `f`, each running its call `inner`
/// times; ns per call.
pub fn median_ns(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&samples)
}

/// `Rng64::fill_u64` on a 1024-word buffer, ns per word.
pub fn rng_fill_ns_per_u64() -> f64 {
    let mut rng = Xoshiro256StarStar::new(1);
    let mut buf = [0u64; 1024];
    median_ns(21, 200, || {
        rng.fill_u64(&mut buf);
        black_box(&buf);
    }) / buf.len() as f64
}

/// One `qmc_obs::span` open + drop with the recorder off: the cost the
/// engines pay on every sweep whether or not anyone is tracing.
pub fn obs_span_ns() -> f64 {
    median_ns(21, 100_000, || {
        let _span = black_box(qmc_obs::span("bench.probe"));
    })
}

/// `SerialTfim::new` (tables + lattice), µs.
pub fn tfim_serial_new_us(model: TfimModel) -> f64 {
    median_ns(21, 20, || {
        black_box(SerialTfim::new(black_box(model)));
    }) / 1e3
}

/// Replica-packed Metropolis sweep (64 lanes of a 16×16×8 lattice), ns
/// per site update. No workload runs the packed engines yet; the probe
/// keeps their kernel on the record.
pub fn tfim_packed_replica_ns_per_site() -> f64 {
    let model = TfimModel {
        lx: 16,
        ly: 16,
        j: 1.0,
        h: 1.0,
        beta: 1.0,
        m: 8,
    };
    let lanes = 64;
    let mut eng = qmc_tfim::packed::PackedReplicas::new(model, lanes);
    let mut rng = Xoshiro256StarStar::new(17);
    for _ in 0..10 {
        eng.metropolis_sweep(&mut rng);
    }
    median_ns(11, 20, || eng.metropolis_sweep(&mut rng))
        / (model.lx * model.ly * model.m * lanes) as f64
}

/// `Decomposition::new` plus every rank's subdomain and halo strips for
/// `model` on `ranks` ranks, µs.
pub fn lattice_decomp_build_us(model: TfimModel, ranks: usize) -> f64 {
    use qmc_lattice::{Decomposition, Dir};
    let grid = qmc_tfim::parallel::grid_for(&model, ranks);
    median_ns(21, 20, || {
        let d = Decomposition::new(model.lx, model.ly, grid);
        for r in 0..ranks {
            let sub = d.subdomain(r);
            for dir in Dir::ALL {
                black_box((sub.send_strip(dir), sub.recv_strip(dir)));
            }
        }
    }) / 1e3
}

/// Round trip of an 8-byte message between two ThreadWorld ranks, µs.
pub fn thread_pingpong_us() -> f64 {
    const ROUNDS: usize = 2_000;
    let samples = run_threads(2, |comm| {
        let peer = 1 - comm.rank();
        let payload = [0u8; 8];
        let mut samples = Vec::with_capacity(11);
        for _ in 0..11 {
            let t0 = Instant::now();
            for _ in 0..ROUNDS {
                if comm.rank() == 0 {
                    comm.send_bytes(peer, 1, &payload);
                    black_box(comm.recv_bytes(peer, 1));
                } else {
                    black_box(comm.recv_bytes(peer, 1));
                    comm.send_bytes(peer, 1, &payload);
                }
            }
            samples.push(t0.elapsed().as_nanos() as f64 / ROUNDS as f64);
        }
        samples
    });
    median(&samples[0]) / 1e3
}

/// World-line engine probes at one ladder rung.
pub struct WorldlineProbe {
    /// `Worldline::new`, µs.
    pub new_us: f64,
    /// `Worldline::sweep` per space-time site (`l × 2m`), ns.
    pub sweep_ns_per_site: f64,
    /// Local-move acceptance over the probe's sweeps.
    pub accept_ratio: f64,
}

/// Standalone `Worldline` at the ladder's parameters.
pub fn worldline(l: usize, jx: f64, jz: f64, beta: f64, m: usize) -> WorldlineProbe {
    use qmc_worldline::{Worldline, WorldlineParams};
    let params = WorldlineParams { l, jx, jz, beta, m };
    let new_us = median_ns(21, 10, || {
        black_box(Worldline::new(black_box(params)));
    }) / 1e3;
    let mut w = Worldline::new(params);
    let mut rng = Xoshiro256StarStar::new(23);
    for _ in 0..200 {
        w.sweep(&mut rng);
    }
    let (a0, p0) = (w.local_accepted, w.local_proposed);
    let sweep_ns = median_ns(21, 50, || w.sweep(&mut rng));
    WorldlineProbe {
        new_us,
        sweep_ns_per_site: sweep_ns / (l * 2 * m) as f64,
        accept_ratio: (w.local_accepted - a0) as f64 / (w.local_proposed - p0).max(1) as f64,
    }
}

/// Checkpoint-path probes on a ladder's final state.
pub struct CkptProbe {
    /// `plan_sections` of one rank's replica and generator, µs.
    pub plan_us: f64,
    /// `CkptStore::write_plan` of a full P-rank generation, ms.
    pub write_full_ms: f64,
    /// `CkptStore::write_plan` of a delta generation, ms.
    pub write_delta_ms: f64,
    /// `CkptStore::latest`, ms.
    pub latest_ms: f64,
    /// `restore_coordinated` on P ranks, ms (rank 0's view).
    pub restore_ms: f64,
}

/// Build the state a `pt_xxz_ckpt` run ends a chunk with (replica,
/// generator, energy series per rung) and time the checkpoint calls.
pub fn ckpt(ctx: &crate::run::Ctx, scratch: &crate::sys::Scratch) -> CkptProbe {
    use crate::spec::pt::*;
    use qmc_ckpt::{plan_sections, Checkpoint, CkptStore, Encoder, SectionPlan};
    use qmc_worldline::{Worldline, WorldlineParams};
    let rungs = betas(BETA0, ctx.ranks);
    let mut state: Vec<_> = rungs
        .iter()
        .enumerate()
        .map(|(r, &beta)| {
            let mut w = Worldline::new(WorldlineParams {
                l: L,
                jx: JX,
                jz: JZ,
                beta,
                m: M,
            });
            let mut rng = crate::workloads::rank_stream(29, r);
            for _ in 0..64 {
                w.sweep(&mut rng);
            }
            (w, rng)
        })
        .collect();
    let energies = vec![-0.4; CHUNK_SWEEPS];
    let plan_of = |state: &[(Worldline, _)], delta: bool| {
        let mut plan = Vec::new();
        for (r, (w, rng)) in state.iter().enumerate() {
            let mut meta = Encoder::new();
            meta.u64(0);
            meta.u64(0);
            plan.push((
                format!("rank{r}/meta"),
                SectionPlan::Payload(meta.into_bytes()),
            ));
            plan_sections(&mut plan, &format!("rank{r}/replica"), w, delta);
            plan_sections(&mut plan, &format!("rank{r}/rng"), rng, delta);
            let mut st = Encoder::new();
            st.f64s(&[0.0]);
            st.f64s(&[0.0]);
            st.f64s(&energies);
            plan.push((
                format!("rank{r}/stats"),
                SectionPlan::Payload(st.into_bytes()),
            ));
        }
        plan
    };
    let plan_us = median_ns(21, 20, || {
        let mut plan = Vec::new();
        plan_sections(&mut plan, "replica", &state[0].0, false);
        plan_sections(&mut plan, "rng", &state[0].1, false);
        black_box(plan);
    }) / 1e3;

    let dir = scratch.sub("probe-ckpt");
    let store = CkptStore::new(&dir, RETAIN).expect("open probe store");
    let mut generation = 0u64;
    let mut full = Vec::new();
    let mut delta = Vec::new();
    for _ in 0..15 {
        let plan = plan_of(&state, false);
        let t0 = Instant::now();
        store
            .write_plan(generation, plan, false)
            .expect("full write");
        full.push(t0.elapsed().as_nanos() as f64);
        generation += 1;
        for (w, rng) in &mut state {
            w.mark_clean();
            rng.mark_clean();
            w.sweep(rng);
        }
        let plan = plan_of(&state, true);
        let t0 = Instant::now();
        store
            .write_plan(generation, plan, true)
            .expect("delta write");
        delta.push(t0.elapsed().as_nanos() as f64);
        generation += 1;
    }
    let latest_ms = median_ns(15, 1, || {
        black_box(store.latest());
    }) / 1e6;
    let restores = run_threads(rungs.len(), |comm| {
        let store = CkptStore::new(&dir, RETAIN).expect("open probe store");
        let mut samples = Vec::with_capacity(15);
        for _ in 0..15 {
            comm.barrier();
            let t0 = Instant::now();
            black_box(qmc_ckpt::coord::restore_coordinated(comm, &store));
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        samples
    });
    let _ = std::fs::remove_dir_all(&dir);
    CkptProbe {
        plan_us,
        write_full_ms: median(&full) / 1e6,
        write_delta_ms: median(&delta) / 1e6,
        latest_ms,
        restore_ms: median(&restores[0]) / 1e6,
    }
}

/// `(open, remove)` of a per-job checkpoint namespace, µs: what the
/// server does around every job.
pub fn ckpt_namespace(scratch: &crate::sys::Scratch) -> (f64, f64) {
    let root = scratch.sub("probe-ns");
    let mut open = Vec::new();
    let mut remove = Vec::new();
    for i in 0..200 {
        let t0 = Instant::now();
        let store = qmc_ckpt::CkptStore::open_namespace(&root, &format!("tenant/job{i}"), 3)
            .expect("open namespace");
        open.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let _ = std::fs::remove_dir_all(store.dir());
        remove.push(t0.elapsed().as_nanos() as f64);
    }
    let _ = std::fs::remove_dir_all(&root);
    (median(&open) / 1e3, median(&remove) / 1e3)
}

/// Loopback framing probes.
pub struct TcpProbe {
    /// Round trip of a 64-byte frame, µs.
    pub frame_rtt_us: f64,
    /// One-way throughput of 1 MiB frames (echoed back), MB/s.
    pub frame_mbps: f64,
}

/// `FrameConn` against an echo thread on 127.0.0.1.
pub fn tcp() -> TcpProbe {
    use qmc_comm::tcp::{FrameConn, FrameListener};
    let listener = FrameListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut conn = loop {
                if let Ok(Some(c)) = listener.accept() {
                    break c;
                }
                std::thread::yield_now();
            };
            while let Ok(frame) = conn.recv() {
                if conn.send(&frame).is_err() {
                    break;
                }
            }
        });
        let mut conn = FrameConn::connect(addr).expect("connect loopback");
        let small = [7u8; 64];
        let rtt = median_ns(21, 100, || {
            conn.send(&small).expect("send");
            black_box(conn.recv().expect("echo"));
        });
        let big = vec![7u8; 1 << 20];
        let big_ns = median_ns(9, 2, || {
            conn.send(&big).expect("send");
            black_box(conn.recv().expect("echo"));
        });
        conn.shutdown();
        TcpProbe {
            frame_rtt_us: rtt / 1e3,
            // Each round trip moves the frame twice.
            frame_mbps: 2.0 * big.len() as f64 / 1e6 / (big_ns * 1e-9),
        }
    })
}

/// `qmc_comm::crc::crc32` over 1 MiB, ns per byte.
pub fn crc32_ns_per_byte() -> f64 {
    let data = vec![0xA5u8; 1 << 20];
    median_ns(11, 2, || {
        black_box(qmc_comm::crc::crc32(black_box(&data)));
    }) / data.len() as f64
}

/// Pure-scheduler probes.
pub struct SchedProbe {
    /// `Sched::submit` into an empty table, ns.
    pub submit_at_1: f64,
    /// `Sched::submit` with 10 000 jobs queued, ns.
    pub submit_at_10000: f64,
    /// `Sched::pop_next` with one job queued, ns.
    pub pop_at_1: f64,
    /// `Sched::pop_next` with 10 000 jobs queued, ns.
    pub pop_at_10000: f64,
}

/// Time the pure `Sched` state machine at two queue depths.
pub fn sched() -> SchedProbe {
    use qmc_serve::{JobKind, JobSpec, Sched, TenantQuota};
    let quota = TenantQuota {
        max_active: usize::MAX,
    };
    let spec = |i: usize| JobSpec {
        tenant: format!("t{}", i % 4),
        name: format!("job{i}"),
        kind: JobKind::Tfim {
            lx: 8,
            ly: 1,
            j: 1.0,
            h: 1.0,
            m: 16,
            wolff: 1,
        },
        betas: vec![2.0],
        therm: 1,
        sweeps: 1,
        seed: i as u64,
        priority: (i % 4) as u8,
        ckpt_every: 0,
    };
    let samples = |depth: usize| {
        let mut s = Sched::default();
        for i in 0..depth - 1 {
            s.submit(spec(i), &quota, &[]).expect("admitted");
        }
        let mut submit = Vec::new();
        let mut pop = Vec::new();
        for k in 0..25 {
            let job = spec(depth + k);
            let t0 = Instant::now();
            black_box(s.submit(job, &quota, &[]).expect("admitted"));
            submit.push(t0.elapsed().as_nanos() as f64);
            let t0 = Instant::now();
            black_box(s.pop_next());
            pop.push(t0.elapsed().as_nanos() as f64);
        }
        (median(&submit), median(&pop))
    };
    let (submit_at_1, pop_at_1) = samples(1);
    let (submit_at_10000, pop_at_10000) = samples(10_000);
    SchedProbe {
        submit_at_1,
        submit_at_10000,
        pop_at_1,
        pop_at_10000,
    }
}

/// `(encode, decode)` of a `Submit` message carrying `spec`, ns.
pub fn msg_codec_ns(spec: &qmc_serve::JobSpec) -> (f64, f64) {
    use qmc_serve::wire::Msg;
    let msg = Msg::Submit { spec: spec.clone() };
    let bytes = msg.encode();
    (
        median_ns(21, 1_000, || {
            black_box(msg.encode());
        }),
        median_ns(21, 1_000, || {
            black_box(Msg::decode(black_box(&bytes)).expect("decodes"));
        }),
    )
}

/// The serve workload's jobs run directly through `run_job`.
pub struct DirectProbe {
    /// Median `run_job` time with the per-job store, all kinds, ms.
    pub with_store_ms_p50: f64,
    /// Mean engine-only time of a TFIM job, ms.
    pub tfim_engine_ms_mean: f64,
    /// Mean engine-only time of a PT job, ms.
    pub pt_engine_ms_mean: f64,
    /// Mean extra time the per-job store costs, ms per job.
    pub ckpt_ms_mean: f64,
    /// Share of TFIM jobs in the sample.
    pub tfim_share: f64,
}

/// Run the first jobs of the measured list in-process, with and without
/// the per-job checkpoint namespace the server gives them.
pub fn serve_direct(jobs: &[qmc_serve::JobSpec], scratch: &crate::sys::Scratch) -> DirectProbe {
    use qmc_serve::{run_job, JobKind, RunCtl};
    let root = scratch.sub("probe-direct");
    let sample = &jobs[..jobs.len().min(4 * crate::spec::serve::CHUNK_JOBS)];
    let (mut with_store, mut tfim, mut pt) = (Vec::new(), Vec::new(), Vec::new());
    let mut ckpt_ms = 0.0;
    for spec in sample {
        let t0 = Instant::now();
        black_box(run_job(spec, RunCtl::default()));
        let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let store = qmc_ckpt::CkptStore::open_namespace(&root, &spec.namespace(), 3)
            .expect("open namespace");
        black_box(run_job(
            spec,
            RunCtl {
                store: Some(&store),
                every: spec.ckpt_every as usize,
                ..RunCtl::default()
            },
        ));
        let _ = std::fs::remove_dir_all(store.dir());
        let stored_ms = t0.elapsed().as_secs_f64() * 1e3;
        with_store.push(stored_ms);
        ckpt_ms += (stored_ms - engine_ms).max(0.0);
        match spec.kind {
            JobKind::Tfim { .. } => tfim.push(engine_ms),
            JobKind::PtXxz { .. } => pt.push(engine_ms),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    DirectProbe {
        with_store_ms_p50: median(&with_store),
        tfim_engine_ms_mean: mean(&tfim),
        pt_engine_ms_mean: mean(&pt),
        ckpt_ms_mean: ckpt_ms / sample.len().max(1) as f64,
        tfim_share: tfim.len() as f64 / sample.len().max(1) as f64,
    }
}
