//! `repro analyze` — the causal-tracing and critical-path demo.
//!
//! Records a 4-rank thread-backed parallel-tempering run observed by
//! [`qmc_obs::Tracer`] (every user-level send/receive lands in the
//! per-rank ring with its channel sequence number and enclosing span),
//! merges the per-rank streams into a cross-rank happens-before DAG,
//! and walks out the critical path:
//!
//! 1. the longest compute+message chain through the run, segment by
//!    segment (which rank, which span, or which message bound progress),
//! 2. per-rank attribution (compute / receive-wait / send) covering the
//!    observed window, and
//! 3. the straggler rank and load-imbalance factor.
//!
//! The report is printed and the structured version written as
//! `ANALYSIS_run.json` (schema `qmc-analysis/v1`) next to `trace.json`
//! (whose flow events draw the same messages as arrows between rank
//! tracks in Perfetto). The same run doubles as the fixture for the
//! integration tests: injecting an artificial per-sweep stall on one
//! rank must drag the critical path onto it.

use qmc_comm::{run_threads, Communicator, Observed};
use qmc_core::pt::{run_pt_parallel_ckpt, PtConfig};
use qmc_obs::{
    analysis_json, analyze, chrome_trace_json, gather_ranks, render_report, Analysis, CommDir,
    ObsConfig, RankObs, RunMeta, Tracer,
};
use qmc_rng::StreamFactory;
use std::fmt::Write as _;

/// The demo workload: 4 thread-backed ranks, one β rung each.
const RANKS: usize = 4;

/// The exact PT configuration [`run_traced`] runs — public so the
/// integration tests can replay it bare and compare trajectories.
pub fn demo_cfg() -> PtConfig {
    PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 4,
        betas: vec![0.5, 1.0, 1.5, 2.0],
        therm: 10,
        sweeps: 30,
        exchange_every: 5,
        seed: 7,
    }
}

/// Per-sweep stall injected on a designated slow rank — used by the
/// integration tests to prove the critical path follows a straggler.
const STALL: std::time::Duration = std::time::Duration::from_millis(2);

/// RNG stream-factory seed of the demo run (shared with the bare replay
/// in the integration tests).
pub const STREAM_SEED: u64 = 41;

/// Run the traced 4-rank PT demo and return (gathered per-rank records,
/// rank-0 energy series). `slow_rank` injects a per-sweep stall there.
///
/// Tracing is observation-only: the stall hook and the [`Tracer`] never
/// touch the RNG streams or message payloads, so the energy series is
/// bit-identical to an untraced run of the same seeds (pinned by
/// `tests/observability.rs`).
pub fn run_traced(slow_rank: Option<usize>) -> (Vec<RankObs>, Vec<f64>) {
    let cfg = demo_cfg();
    let obs = ObsConfig::new();
    let mut results = run_threads(RANKS, move |comm| {
        qmc_obs::init(comm.rank(), &obs);
        let me = comm.rank();
        let mut rng = StreamFactory::new(STREAM_SEED).stream(me);
        let (energies, _rates) = {
            let mut traced = Observed::new(comm, Tracer);
            run_pt_parallel_ckpt(&mut traced, &cfg, &mut rng, None, |_c, _s| {
                if Some(me) == slow_rank {
                    std::thread::sleep(STALL);
                }
            })
        };
        let mut mine = qmc_obs::finish().expect("recorder installed by init");
        mine.set_comm(comm.stats());
        (gather_ranks(comm, &mine), energies)
    });
    let (gathered, energies) = results.swap_remove(0);
    (
        gathered.expect("rank 0 holds the gathered records"),
        energies,
    )
}

/// Rebuild a [`qmc_verify::WorldTrace`] from the traced user-level comm
/// events. Ranks are indexed by their `rank` field; gaps (a rank that
/// recorded nothing) are empty.
fn world_trace(ranks: &[RankObs]) -> qmc_verify::WorldTrace {
    let n = ranks.iter().map(|r| r.rank + 1).max().unwrap_or(0) as usize;
    let mut tr = qmc_verify::WorldTrace {
        ranks: vec![Vec::new(); n],
    };
    for r in ranks {
        let events = &mut tr.ranks[r.rank as usize];
        for e in &r.comm_events {
            events.push(match e.dir {
                CommDir::Send => qmc_verify::Event::Send {
                    dst: e.peer as usize,
                    tag: e.tag,
                    bytes: e.bytes as usize,
                    internal: false,
                },
                CommDir::Recv => qmc_verify::Event::Recv {
                    src: e.peer as usize,
                    tag: e.tag,
                    bytes: e.bytes as usize,
                    internal: false,
                },
            });
        }
    }
    tr
}

/// [`qmc_obs::analyze`] behind the protocol gate: when no rank
/// overflowed its comm ring, the reconstructed event trace is first
/// validated with [`qmc_verify::check`] — a violation is returned as
/// `Err` rather than silently producing a nonsense DAG. (With overflow
/// the trace is incomplete, so the check is skipped and the unmatched
/// counts tell the story instead.)
pub fn checked_analyze(ranks: &[RankObs]) -> Result<Analysis, String> {
    if ranks.iter().all(|r| r.dropped_comm_events == 0) {
        qmc_verify::check(&world_trace(ranks)).map_err(|vs| {
            let lines: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            format!("protocol check failed: {}", lines.join("; "))
        })?;
    }
    analyze(ranks)
}

/// Metadata describing the analyze demo run.
pub fn demo_meta() -> RunMeta {
    let cfg = demo_cfg();
    RunMeta::new("analyze-demo", "pt-worldline", "threads", RANKS)
        .param("l", cfg.l)
        .param("m", cfg.m)
        .param("betas", cfg.betas.len())
        .param("sweeps", cfg.sweeps)
        .param("exchange_every", cfg.exchange_every)
}

/// `repro analyze`: returns (report text, analysis succeeded).
///
/// Writes `ANALYSIS_run.json` and `trace.json` at the repository root.
pub fn analyze_demo(_quick: bool) -> (String, bool) {
    let (ranks, _) = run_traced(None);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analyze demo: 4-rank ThreadWorld parallel tempering (traced)"
    );
    match checked_analyze(&ranks) {
        Ok(a) => {
            out.push_str(&render_report(&a));
            let json = analysis_json(&demo_meta(), &a);
            crate::write_artifact(&mut out, "", "ANALYSIS_run.json", &json);
            if crate::write_artifact(&mut out, "", "trace.json", &chrome_trace_json(&ranks)) {
                out.push_str(
                    "  (open trace.json in https://ui.perfetto.dev — flow arrows draw the \
                     same messages the critical path walks)\n",
                );
            }
            (out, true)
        }
        Err(e) => {
            let _ = writeln!(out, "analysis failed: {e}");
            (out, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_demo_yields_flows_and_an_analysis() {
        let (ranks, energies) = run_traced(None);
        assert_eq!(ranks.len(), RANKS);
        assert!(!energies.is_empty());
        for r in &ranks {
            assert!(!r.spans.is_empty(), "rank {} recorded no spans", r.rank);
            assert!(
                !r.comm_events.is_empty(),
                "rank {} recorded no comm events",
                r.rank
            );
            assert_eq!(r.dropped_comm_events, 0);
        }
        let a = checked_analyze(&ranks).expect("clean analysis");
        assert!(!a.critical_path.is_empty());
        assert!(a.matched_messages > 0);
        for att in &a.ranks {
            assert!(
                att.coverage() >= 0.99,
                "rank {} coverage {}",
                att.rank,
                att.coverage()
            );
        }
    }

    #[test]
    fn protocol_violation_is_reported() {
        // A recv with no send anywhere and a claimed-complete trace.
        let r0 = RankObs {
            rank: 0,
            comm_events: vec![qmc_obs::CommEvent {
                dir: CommDir::Recv,
                peer: 0,
                tag: 5,
                seq: 0,
                bytes: 8,
                t0_us: 1.0,
                t1_us: 2.0,
                span_id: 0,
            }],
            ..Default::default()
        };
        let err = checked_analyze(&[r0]).unwrap_err();
        assert!(err.starts_with("protocol check failed"), "{err}");
    }
}
