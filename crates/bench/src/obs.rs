//! `repro --metrics --trace` — the observability demo run.
//!
//! A 4-rank thread-backed distributed TFIM job with per-rank spans and
//! metrics enabled: each rank records into its own ring, the records are
//! gathered to rank 0 over the [`qmc_comm::Communicator`], and the merged
//! view is exported as `METRICS_run.json` (schema `qmc-metrics/v1`)
//! and/or a Chrome trace-event `trace.json` (one track per rank — load it
//! in Perfetto or `chrome://tracing`).
//!
//! The same `--metrics`/`--trace` flags also work on every `repro`
//! experiment and on the `qmc` driver; this module is the self-contained
//! demonstration the README walks through.

use qmc_comm::{run_threads, Communicator};
use qmc_obs::{chrome_trace_json, gather_ranks, metrics_json, ObsConfig, RankObs, RunMeta};
use qmc_rng::StreamFactory;
use qmc_tfim::parallel::DistTfim;
use qmc_tfim::TfimModel;
use std::fmt::Write as _;

/// The demo workload: 4 thread-backed ranks, 32×32×8 TFIM.
const RANKS: usize = 4;

fn demo_model() -> TfimModel {
    TfimModel {
        lx: 32,
        ly: 32,
        j: 1.0,
        h: 2.0,
        beta: 1.0,
        m: 8,
    }
}

/// Run the instrumented 4-rank TFIM job and return the gathered per-rank
/// records (always `RANKS` entries, rank order).
pub fn run_instrumented(sweeps: usize, config: &ObsConfig) -> Vec<RankObs> {
    let model = demo_model();
    let cfg = config.clone();
    let mut results = run_threads(RANKS, move |comm| {
        qmc_obs::init(comm.rank(), &cfg);
        let mut eng = DistTfim::new(model, comm);
        let mut rng = StreamFactory::new(97).stream(comm.rank());
        eng.halo_exchange(comm);
        for _ in 0..sweeps {
            eng.sweep(comm, &mut rng);
            // Feeds convergence health when the config enables it;
            // measure() is collective + RNG-free, so the demo stays
            // deterministic either way.
            let m = eng.measure(comm);
            qmc_obs::health_record("energy", m.energy_per_site);
        }
        let mut mine = qmc_obs::finish().expect("recorder installed by init");
        mine.absorb_registry(eng.metrics());
        mine.comm = Some(comm.stats());
        gather_ranks(comm, &mine)
    });
    results
        .swap_remove(0)
        .expect("rank 0 holds the gathered records")
}

/// Metadata describing the demo run (engine/backend/params).
pub fn demo_meta(sweeps: usize) -> RunMeta {
    let model = demo_model();
    RunMeta::new("obs-demo", "dist-tfim", "threads", RANKS)
        .param("lx", model.lx)
        .param("ly", model.ly)
        .param("m", model.m)
        .param("h", model.h)
        .param("beta", model.beta)
        .param("sweeps", sweeps)
}

/// The observability demo — `repro --metrics --trace` with no experiment.
///
/// Writes `METRICS_run.json` when `metrics`, `trace.json` when `trace`,
/// both at the repository root, and returns a human-readable summary.
pub fn obs_demo(metrics: bool, trace: bool, quick: bool) -> String {
    let sweeps = if quick { 30 } else { 300 };
    let mut config = ObsConfig::new()
        .with_spans(trace || metrics)
        .with_metrics(metrics);
    if metrics {
        // Silent monitor (no periodic printing): snapshots still land
        // in METRICS_run.json's per-rank `health` arrays.
        config = config.with_health_every(0);
    }
    let ranks = run_instrumented(sweeps, &config);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "observability demo: dist TFIM 32×32×8, {RANKS} thread ranks, {sweeps} sweeps"
    );
    for r in &ranks {
        let spans = r.spans.len();
        let accepted = r.counter("tfim.accepted");
        let proposed = r.counter("tfim.proposed");
        // ThreadComm is a wall-clock backend: compute_seconds holds raw
        // flop charges there, so report wall comm time, not a fraction.
        let (sent, wait_ms) = r
            .comm
            .map(|c| (c.bytes_sent, 1e3 * c.recv_wait_seconds))
            .unwrap_or((0, 0.0));
        let _ = writeln!(
            out,
            "  rank {}: {} spans ({} dropped), acceptance {:.3}, sent {} B, recv wait {:.2} ms",
            r.rank,
            spans,
            r.dropped_spans,
            accepted as f64 / proposed.max(1) as f64,
            sent,
            wait_ms
        );
    }

    out.push_str(&write_artifacts(&demo_meta(sweeps), &ranks, metrics, trace));
    out
}

/// Write whichever artifacts were requested (`METRICS_run.json`,
/// `trace.json`, both at the repository root) from gathered per-rank
/// records; returns the log lines naming what was written.
pub fn write_artifacts(meta: &RunMeta, ranks: &[RankObs], metrics: bool, trace: bool) -> String {
    let mut out = String::new();
    if metrics {
        crate::write_artifact(&mut out, "", "METRICS_run.json", &metrics_json(meta, ranks));
    }
    if trace && crate::write_artifact(&mut out, "", "trace.json", &chrome_trace_json(ranks)) {
        out.push_str("  (open trace.json in https://ui.perfetto.dev or chrome://tracing)\n");
    }
    out
}

/// Finish the calling thread's recorder (if one was installed) and write
/// the requested artifacts as a single-rank run labelled `label`. Used by
/// the CLIs when `--metrics`/`--trace` accompany a serial command.
pub fn export_current_thread(label: &str, metrics: bool, trace: bool) -> String {
    match qmc_obs::finish() {
        Some(rank) => {
            let meta = RunMeta::new(label, "driver", "serial", 1);
            write_artifacts(&meta, std::slice::from_ref(&rank), metrics, trace)
        }
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_gathers_all_ranks_with_spans_and_counters() {
        let ranks = run_instrumented(3, &ObsConfig::new());
        assert_eq!(ranks.len(), RANKS);
        for (i, r) in ranks.iter().enumerate() {
            assert_eq!(r.rank, i as u64);
            assert!(!r.spans.is_empty(), "rank {i} recorded no spans");
            assert!(r.counter("tfim.proposed") > 0);
            let comm = r.comm.expect("comm stats attached");
            assert!(comm.bytes_sent > 0);
        }
    }
}
