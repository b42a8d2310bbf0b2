//! The benchmark's constants: workload sizes, work per chunk, and the
//! metric tables `BENCHMARK.json` is generated from and checked against.
//!
//! Work is fixed, never time-bounded: every run of a commit does
//! identical work. Sweep and chunk counts were calibrated once, with
//! every thread of a run on one CPU of a 2-vCPU host, so that a chunk
//! takes ≥ 50 ms, a set-up ≥ 0.4 s, the measured phase 11–15 s and a
//! whole untraced run 18–23 s (up to 30 s while the host is contended).

use qmc_tfim::TfimModel;

/// `run_seconds` of `BENCHMARK.json`: the nominal length of a measured
/// phase, and the only value `--seconds` accepts.
pub const RUN_SECONDS: u32 = 20;
/// Seed of the measured phase's engine streams on the four physics
/// workloads. `--seed` derives everything else (the throw-away set-up
/// instances, companion runs, the restore check, the whole serve job
/// list); the trajectory the rates and τ_int are read from is this
/// commit's own, so work per chunk and τ_int repeat exactly from run to
/// run and move only when an update algorithm changes.
pub const TRAJECTORY_SEED: u64 = 0x5EED_1993;
/// From-scratch set-up instances per run; `setup_s` reads them like the
/// chunks (`estimate::usual`: just above the fastest of the five). One of
/// them continues into the measured phase.
pub const SETUP_INSTANCES: usize = 5;
/// Rank cap of the threaded workloads (`P = min(nproc, MAX_RANKS)`). The
/// ranks take turns on one CPU (`sys::pin_to_one_cpu`), so a sweep costs
/// the same CPU work whatever P is and chunk sizes do not scale with it.
pub const MAX_RANKS: usize = 4;
/// A traced run splits one run's worth of work between its passes:
/// untraced and traced get this share each, the two baselines half of it.
pub const TRACED_PASS_SHARE: f64 = 1.0 / 3.0;
/// Sweeps the restore check continues past the newest generation.
pub const RESUME_SWEEPS: usize = 64;

/// `tfim2d_halo`: 64×64 TFIM, m = 32, β = 2 at the 2-D critical field.
pub mod halo {
    use super::TfimModel;
    /// The model.
    pub const MODEL: TfimModel = TfimModel {
        lx: 64,
        ly: 64,
        j: 1.0,
        h: 3.044,
        beta: 2.0,
        m: 32,
    };
    /// Thermalization sweeps of one set-up.
    pub const THERM: usize = 320;
    /// Sweeps per chunk.
    pub const CHUNK_SWEEPS: usize = 28;
    /// Longest bin of the τ_int estimate, sweeps (τ_int ≈ 1).
    pub const TAU_MAX_BIN: usize = 16;
    /// Chunks of the measured phase.
    pub const CHUNKS: usize = 280;
    /// Companion chain: L = 8, m = 32, β = 1, h = J, on P ranks.
    pub const SMALL: TfimModel = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 1.0,
        beta: 1.0,
        m: 32,
    };
    /// Companion sweeps (therm, measured).
    pub const SMALL_SWEEPS: (usize, usize) = (1_000, 30_000);
}

/// `tfim_chain_crit`: 1-D TFIM at h = J, Metropolis + 1 Wolff per sweep.
pub mod chain {
    use super::TfimModel;
    /// The model.
    pub const MODEL: TfimModel = TfimModel {
        lx: 64,
        ly: 1,
        j: 1.0,
        h: 1.0,
        beta: 16.0,
        m: 128,
    };
    /// Wolff updates per sweep.
    pub const WOLFF: usize = 1;
    /// Thermalization sweeps of one set-up.
    pub const THERM: usize = 2_400;
    /// Sweeps per chunk.
    pub const CHUNK_SWEEPS: usize = 300;
    /// Longest bin of the τ_int estimate, sweeps (τ_int ≈ 1.1).
    pub const TAU_MAX_BIN: usize = 16;
    /// Chunks of the measured phase.
    pub const CHUNKS: usize = 240;
    /// Companion chain: L = 8, m = 64, β = 2.
    pub const SMALL: TfimModel = TfimModel {
        lx: 8,
        ly: 1,
        j: 1.0,
        h: 1.0,
        beta: 2.0,
        m: 64,
    };
    /// Companion sweeps (therm, measured).
    pub const SMALL_SWEEPS: (usize, usize) = (1_000, 40_000);
}

/// `heis_sse_scan`: Heisenberg chain, 8-point β scan.
pub mod sse {
    /// Chain length.
    pub const L: usize = 64;
    /// Coupling.
    pub const J: f64 = 1.0;
    /// The scan.
    pub const BETAS: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];
    /// Thermalization sweeps per point (with cutoff adaptation).
    pub const THERM: usize = 4_000;
    /// Sweeps per point and round (a round is one chunk).
    pub const ROUND_SWEEPS: usize = 200;
    /// Longest bin of the τ_int estimate, sweeps.
    pub const TAU_MAX_BIN: usize = 32;
    /// Chunks (rounds) of the measured phase.
    pub const CHUNKS: usize = 260;
    /// Companion: L = 8 at β = 2.
    pub const SMALL_L: usize = 8;
    /// Companion β.
    pub const SMALL_BETA: f64 = 2.0;
    /// Companion sweeps (therm, measured).
    pub const SMALL_SWEEPS: (usize, usize) = (2_000, 40_000);
}

/// `pt_xxz_ckpt`: XXZ world-line parallel tempering with coordinated
/// delta checkpoints.
pub mod pt {
    /// Chain length.
    pub const L: usize = 32;
    /// Trotter number.
    pub const M: usize = 32;
    /// Transverse exchange.
    pub const JX: f64 = 1.0;
    /// Longitudinal exchange.
    pub const JZ: f64 = 1.0;
    /// Hottest rung.
    pub const BETA0: f64 = 2.0;
    /// Ratio of adjacent rungs.
    pub const BETA_RATIO: f64 = 1.2;
    /// Sweeps between exchange phases.
    pub const EXCHANGE_EVERY: usize = 2;
    /// Sweeps between coordinated commits: the cadence at which commits
    /// cost about 30 % of the measured wall at the seed commit with the
    /// rungs on one CPU (`ckpt.overhead_frac`).
    pub const CKPT_EVERY: usize = 2;
    /// Every `FULL_EVERY`-th generation is a full snapshot.
    pub const FULL_EVERY: usize = 8;
    /// Generations retained.
    pub const RETAIN: usize = 4;
    /// Thermalization sweeps of one set-up (and of the first
    /// production run, which the last set-up instance continues into).
    pub const THERM: usize = 1_792;
    /// Thermalization sweeps of every later production run.
    pub const REPEAT_THERM: usize = 64;
    /// Measured ladder sweeps of one production run: one chunk (a
    /// multiple of `CKPT_EVERY`, so every chunk holds as many commits).
    pub const CHUNK_SWEEPS: usize = 224;
    /// Longest bin of the τ_int estimate, sweeps (the coldest rung's
    /// τ_int is about 10 under local world-line moves).
    pub const TAU_MAX_BIN: usize = 128;
    /// Chunks (production runs) of the measured phase.
    pub const CHUNKS: usize = 200;
    /// Companion ladder: L = 8, m = 16, same β ladder rule from β = 1.
    pub const SMALL_L: usize = 8;
    /// Companion Trotter number.
    pub const SMALL_M: usize = 16;
    /// Companion hottest rung.
    pub const SMALL_BETA0: f64 = 1.0;
    /// Companion sweeps (therm, measured).
    pub const SMALL_SWEEPS: (usize, usize) = (1_024, 20_480);
    /// Companion commit cadence, sweeps.
    pub const SMALL_CKPT_EVERY: usize = 1_024;

    /// The β ladder for `p` rungs.
    pub fn betas(beta0: f64, p: usize) -> Vec<f64> {
        (0..p.max(2))
            .map(|k| beta0 * BETA_RATIO.powi(k as i32))
            .collect()
    }
}

/// `serve_mixed_jobs`: closed-loop clients against an in-process server.
pub mod serve {
    /// Completed jobs per chunk.
    pub const CHUNK_JOBS: usize = 20;
    /// Of which parallel-tempering jobs (the rest are small TFIM chains).
    pub const CHUNK_PT_JOBS: usize = 4;
    /// Longest bin of the τ_int estimate, sweeps.
    pub const TAU_MAX_BIN: usize = 32;
    /// Chunks of the measured phase.
    pub const CHUNKS: usize = 200;
    /// Warm-up jobs of one set-up.
    pub const WARMUP_JOBS: usize = 180;
    /// Tenants the jobs are spread over.
    pub const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];
    /// Small job: TFIM chain L = 8, m = 16 at β = 2, h = J (doubles as
    /// the ≤ 12-site companion: its pooled energy is checked against ED).
    pub const TFIM_L: usize = 8;
    /// Small job Trotter slices.
    pub const TFIM_M: usize = 16;
    /// Small job β.
    pub const TFIM_BETA: f64 = 2.0;
    /// Small job (therm, sweeps).
    pub const TFIM_SWEEPS: (u32, u32) = (100, 400);
    /// PT job: XXZ chain L = 8, m = 8, P rungs from β = 1.
    pub const PT_L: usize = 8;
    /// PT job Trotter number.
    pub const PT_M: usize = 8;
    /// PT job (therm, sweeps).
    pub const PT_SWEEPS: (u32, u32) = (20, 80);
    /// Progress snapshots (= checkpoints) per job.
    pub const SNAPSHOTS_PER_JOB: u32 = 1;
    /// One in this many results is compared with a direct `run_job`.
    pub const VERIFY_EVERY: usize = 10;
}

/// Direction of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "tfim2d_halo",
        "Paper's core: 64x64x32 TFIM split over P thread ranks on one CPU, halo exchange + allreduce every sweep; tfim dist kernel, comm, lattice carry it; bypasses worldline, sse, ckpt, serve, core::pt",
    ),
    (
        "tfim_chain_crit",
        "Plain single-threaded baseline at the 1-D critical point: cache-resident lattice, Metropolis + Wolff, tau_int matters; no comm, no ckpt; the quietest row, so host drift can be told from code change",
    ),
    (
        "heis_sse_scan",
        "8-point beta scan of SSE engines advanced in rounds through core::run_replicas on P ranks with a gather per round; sse does all the work and its cost grows with beta; bypasses tfim, worldline, halo",
    ),
    (
        "pt_xxz_ckpt",
        "Production-shaped parallel tempering: worldline kernel + core::pt tiny latency-bound messages + coordinated delta checkpoints in one loop; the only workload where ckpt is a large share of wall",
    ),
    (
        "serve_mixed_jobs",
        "Closed-loop clients against an in-process qmc-serve over TCP: many small jobs (80% TFIM, 20% PT), per-job ckpt namespaces; serve + comm::tcp overhead is a large share; bypasses halo and sse",
    ),
];

/// `(name, unit, better, bound)` of the end-to-end metrics.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Lower, 0.25),
    ("sweeps_per_s", "1/s", Higher, 0.25),
    ("indep_samples_per_s", "1/s", Higher, 0.25),
    ("cpu_s_per_ksweep", "s", Lower, 0.25),
    ("peak_heap_mb", "MB", Lower, 0.05),
];

/// `(name, unit, better)` of the per-layer metrics.
pub const PER_LAYER: [(&str, &str, Better); 87] = [
    // rng
    ("rng.fill_ns_per_u64", "ns", Lower),
    ("rng.draws_per_sweep", "count", Lower),
    // lattice
    ("lattice.decomp_build_us", "us", Lower),
    ("lattice.halo_bytes_per_sweep", "bytes", Lower),
    // stats
    ("stats.tau_int", "count", Lower),
    ("stats.binning_converged", "ratio", Higher),
    // tfim
    ("tfim.new_us", "us", Lower),
    ("tfim.metropolis_ns_per_site", "ns", Lower),
    ("tfim.wolff_us_per_update", "us", Lower),
    ("tfim.wolff_cluster_frac", "ratio", Higher),
    ("tfim.measure_ns_per_site", "ns", Lower),
    ("tfim.accept_ratio", "ratio", Higher),
    ("tfim.dist_sweep_ns_per_site", "ns", Lower),
    ("tfim.dist_measure_us", "us", Lower),
    ("tfim.packed_replica_ns_per_site", "ns", Lower),
    // worldline
    ("worldline.new_us", "us", Lower),
    ("worldline.sweep_ns_per_site", "ns", Lower),
    ("worldline.accept_ratio", "ratio", Higher),
    // sse
    ("sse.new_us", "us", Lower),
    ("sse.sweep_ns_per_op", "ns", Lower),
    ("sse.measure_us", "us", Lower),
    ("sse.n_ops_mean", "count", Lower),
    ("sse.cutoff", "count", Lower),
    // core
    ("core.pt_exchange_us.p50", "us", Lower),
    ("core.pt_swap_accept_ratio", "ratio", Higher),
    ("core.replica_imbalance", "ratio", Lower),
    ("core.replicas_gather_us", "us", Lower),
    ("core.parallel_efficiency", "ratio", Higher),
    // comm
    ("comm.msgs_per_sweep", "count", Lower),
    ("comm.bytes_per_sweep", "bytes", Lower),
    ("comm.wait_frac", "ratio", Lower),
    ("comm.sendrecv_us.p50", "us", Lower),
    ("comm.allreduce_us.p50", "us", Lower),
    ("comm.thread_pingpong_us", "us", Lower),
    ("comm.tcp_frame_rtt_us", "us", Lower),
    ("comm.tcp_frame_MBps", "MB/s", Higher),
    ("comm.crc32_ns_per_byte", "ns", Lower),
    // ckpt
    ("ckpt.overhead_frac", "ratio", Lower),
    ("ckpt.commits", "count", Lower),
    ("ckpt.bytes_per_commit_full", "bytes", Lower),
    ("ckpt.bytes_per_commit_delta", "bytes", Lower),
    ("ckpt.plan_us", "us", Lower),
    ("ckpt.write_full_ms", "ms", Lower),
    ("ckpt.write_delta_ms", "ms", Lower),
    ("ckpt.latest_ms", "ms", Lower),
    ("ckpt.restore_ms", "ms", Lower),
    ("ckpt.namespace_open_us", "us", Lower),
    ("ckpt.namespace_remove_us", "us", Lower),
    // serve
    ("serve.jobs_per_s", "1/s", Higher),
    ("serve.job_latency_ms.p50", "ms", Lower),
    ("serve.job_latency_ms.p90", "ms", Lower),
    ("serve.job_latency_samples", "count", Higher),
    ("serve.submit_rtt_us.p50", "us", Lower),
    ("serve.run_job_direct_ms.p50", "ms", Lower),
    ("serve.overhead_ms.p50", "ms", Lower),
    ("serve.sched_submit_ns.at_1", "ns", Lower),
    ("serve.sched_submit_ns.at_10000", "ns", Lower),
    ("serve.sched_pop_ns.at_1", "ns", Lower),
    ("serve.sched_pop_ns.at_10000", "ns", Lower),
    ("serve.msg_encode_ns", "ns", Lower),
    ("serve.msg_decode_ns", "ns", Lower),
    ("serve.snapshots_per_job", "count", Lower),
    ("serve.failed_jobs", "count", Lower),
    // obs
    ("obs.span_ns", "ns", Lower),
    // trace
    ("trace.overhead", "ratio", Lower),
    ("trace.coverage", "ratio", Higher),
    ("trace.self_frac.tfim", "ratio", Lower),
    ("trace.self_frac.worldline", "ratio", Lower),
    ("trace.self_frac.sse", "ratio", Lower),
    ("trace.self_frac.core", "ratio", Lower),
    ("trace.self_frac.comm", "ratio", Lower),
    ("trace.self_frac.ckpt", "ratio", Lower),
    ("trace.self_frac.serve", "ratio", Lower),
    ("trace.self_frac.stats", "ratio", Lower),
    ("trace.spans_dropped", "count", Lower),
    // bench: health of the measurement itself
    ("bench.chunks", "count", Higher),
    ("bench.chunk_ms.p50", "ms", Lower),
    ("bench.chunk_ms.p90", "ms", Lower),
    ("bench.chunk_spread", "ratio", Lower),
    ("bench.host_busy_frac", "ratio", Lower),
    ("bench.threads_max", "count", Lower),
    ("bench.wall_s", "s", Lower),
    ("bench.peak_rss_mb", "MB", Lower),
    // the traced run's own copy of the end-to-end rates, so one traced
    // run is readable without its untraced twin
    ("bench.untraced_sweeps_per_s", "1/s", Higher),
    ("bench.traced_sweeps_per_s", "1/s", Higher),
    ("bench.p1_sweeps_per_s", "1/s", Higher),
    ("bench.nockpt_sweeps_per_s", "1/s", Higher),
];
