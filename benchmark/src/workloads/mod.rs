//! The five workloads and what their drivers share.

pub mod heis_sse_scan;
pub mod pt_xxz_ckpt;
pub mod serve_mixed_jobs;
pub mod tfim2d_halo;
pub mod tfim_chain_crit;

use crate::estimate::Tau;
use crate::probes;
use crate::run::{Ctx, Measured, Outcome};
use crate::spec::{SETUP_INSTANCES, TRACED_PASS_SHARE};
use crate::sys;
use crate::trace::{write_trace, Layer, SpanBuf, Summary};
use qmc_ckpt::Checkpoint;
use qmc_comm::CommStats;
use qmc_rng::{Rng64, StreamFactory};
use std::time::Instant;

/// Run workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "tfim2d_halo" => tfim2d_halo::run(ctx),
        "tfim_chain_crit" => tfim_chain_crit::run(ctx),
        "heis_sse_scan" => heis_sse_scan::run(ctx),
        "pt_xxz_ckpt" => pt_xxz_ckpt::run(ctx),
        "serve_mixed_jobs" => serve_mixed_jobs::run(ctx),
        _ => return None,
    })
}

/// Operations workload `name` will perform under `ctx`.
pub fn planned(name: &str, ctx: &Ctx) -> Option<u64> {
    Some(match name {
        "tfim2d_halo" => tfim2d_halo::planned(ctx),
        "tfim_chain_crit" => tfim_chain_crit::planned(ctx),
        "heis_sse_scan" => heis_sse_scan::planned(ctx),
        "pt_xxz_ckpt" => pt_xxz_ckpt::planned(ctx),
        "serve_mixed_jobs" => serve_mixed_jobs::planned(ctx),
        _ => return None,
    })
}

/// Most threads workload `name` keeps runnable at once.
pub fn planned_threads(name: &str, ctx: &Ctx) -> usize {
    match name {
        "tfim_chain_crit" => 1,
        "serve_mixed_jobs" => serve_mixed_jobs::runnable_threads(ctx),
        _ => ctx.ranks,
    }
}

/// Chunks and set-up instances of the main untraced pass of a workload
/// with `full` chunks: all of them with five set-ups, or a traced run's
/// share with one.
pub fn main_pass(ctx: &Ctx, full: usize) -> (usize, usize) {
    if ctx.trace {
        (share(ctx.sized(full), TRACED_PASS_SHARE), 1)
    } else {
        (ctx.sized(full).max(2), SETUP_INSTANCES)
    }
}

/// How many of a pass's `setups − 1` throw-away set-up instances run
/// before its measured phase; the others run after it, so that set-up
/// time is sampled at both ends of the run and not in its first
/// seconds only.
pub fn setups_before(setups: usize) -> usize {
    (setups - 1) / 2
}

/// Chunks of a traced run's baseline pass (`ck = None`, P = 1).
pub fn baseline_chunks(ctx: &Ctx, full: usize) -> usize {
    share(ctx.sized(full), TRACED_PASS_SHARE / 2.0)
}

fn share(full: usize, frac: f64) -> usize {
    ((full as f64 * frac).round() as usize).max(2)
}

/// Rank `rank`'s generator of the world seeded `seed` (the production
/// `StreamFactory` split; checkpointable, as the PT driver requires).
pub fn rank_stream(seed: u64, rank: usize) -> impl Rng64 + Checkpoint {
    StreamFactory::new(seed).stream(rank)
}

/// What a rank sent and waited between two readings of its stats.
pub fn comm_since(now: CommStats, then: CommStats) -> CommStats {
    CommStats {
        messages_sent: now.messages_sent - then.messages_sent,
        bytes_sent: now.bytes_sent - then.bytes_sent,
        recv_wait_seconds: now.recv_wait_seconds - then.recv_wait_seconds,
        ..CommStats::default()
    }
}

/// The checks every workload makes on its measured pass: chunk count
/// and health, finite energies, converged binning.
pub fn common_checks(ctx: &Ctx, out: &mut Outcome, m: &Measured, t: Tau) {
    out.check(
        "energies_finite",
        !m.energy.is_empty() && m.energy.iter().all(|e| e.is_finite()),
        format!("{} energies", m.energy.len()),
    );
    out.check(
        "binning_converged",
        // A `--quick` series is too short to judge.
        t.converged || ctx.quick,
        format!("tau_int {:.3} over {} sweeps", t.tau_int, m.energy.len()),
    );
    out.tau = Some(t);
}

/// Write a traced pass's spans to `<out>/trace.<workload>.json`
/// (`--quick` writes nothing).
pub fn save_trace(ctx: &Ctx, workload: &str, bufs: &[SpanBuf]) {
    if ctx.quick {
        return;
    }
    let path = ctx.out.join(format!("trace.{workload}.json"));
    if let Err(e) = write_trace(&path, workload, bufs) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Fill the per-layer metrics every traced run reports the same way:
/// trace health, self-time shares, measurement health, and the probes
/// of layers all workloads touch.
pub fn finish_traced(
    out: &mut Outcome,
    untraced: &Measured,
    traced: &Measured,
    sum: &Summary,
    wall0: Instant,
) {
    let t = out.tau.expect("tau set by common_checks");
    out.set("stats.tau_int", t.tau_int);
    out.set("stats.binning_converged", f64::from(u8::from(t.converged)));
    out.set("rng.fill_ns_per_u64", probes::rng_fill_ns_per_u64());
    out.set("obs.span_ns", probes::obs_span_ns());
    out.set(
        "trace.overhead",
        untraced.sweeps_per_s() / traced.sweeps_per_s(),
    );
    out.set("trace.coverage", sum.coverage());
    out.set("trace.spans_dropped", sum.dropped as f64);
    for (name, layer) in [
        ("trace.self_frac.tfim", Layer::Tfim),
        ("trace.self_frac.worldline", Layer::Worldline),
        ("trace.self_frac.sse", Layer::Sse),
        ("trace.self_frac.core", Layer::Core),
        ("trace.self_frac.comm", Layer::Comm),
        ("trace.self_frac.ckpt", Layer::Ckpt),
        ("trace.self_frac.serve", Layer::Serve),
        ("trace.self_frac.stats", Layer::Stats),
    ] {
        // A workload that attributes time some other way than by spans
        // (serve) sets its shares itself.
        if !out.layer.contains_key(name) {
            out.set(name, sum.self_frac(layer));
        }
    }
    let c = untraced.chunks();
    out.set("bench.chunks", c.k as f64);
    out.set("bench.chunk_ms.p50", c.p50 * 1e3);
    out.set("bench.chunk_ms.p90", c.p90 * 1e3);
    out.set("bench.chunk_spread", c.spread);
    out.set("bench.host_busy_frac", untraced.host_busy_frac());
    out.set("bench.threads_max", out.threads_max as f64);
    out.set("bench.untraced_sweeps_per_s", untraced.sweeps_per_s());
    out.set("bench.traced_sweeps_per_s", traced.sweeps_per_s());
    out.set("bench.wall_s", wall0.elapsed().as_secs_f64());
    out.set("bench.peak_rss_mb", sys::peak_rss_mb());
}
