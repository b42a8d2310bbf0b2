//! `repro verify` — run the comm-protocol model checker and the
//! workspace invariant linter, the two static/dynamic analyses from
//! `qmc-verify`.
//!
//! Four acts:
//!
//! 1. Record a real 4-rank thread-backed parallel-tempering run with a
//!    [`qmc_verify::Recorder`] and prove the captured traffic
//!    deadlock-free (send/recv matching, reserved-tag discipline, SPMD
//!    collective agreement).
//! 2. Feed the checker a deliberately broken crossed-receive program and
//!    show it reports the exact wait-for cycle.
//! 3. Run `qmc-lint` over the workspace sources.
//! 4. Exhaustively explore the checkpoint-commit, drain-verdict and
//!    respawn-barrier protocol models (sleep sets + DPOR) and the job
//!    lifecycle of the real `qmc_serve::Sched` (every reachable state,
//!    [`crate::sched_model`]) at the committed instance sizes: all four
//!    must be invariant-clean under their transition ceilings, DPOR
//!    must beat the naive enumeration by at least 2×, and a seeded
//!    drain, respawn and scheduler bug must each yield a minimized,
//!    rendered counterexample (the gate's teeth). Writes
//!    `VERIFY_explore.json` (schema `qmc-verify-explore/v1`).
//!
//! Returns the report text and whether everything passed (the CLI turns
//! a failure into a non-zero exit for `scripts/check.sh`).

use crate::sched_model::{Misuse, SchedModel};
use qmc_comm::Communicator;
use qmc_core::pt::{run_pt_parallel, PtConfig};
use qmc_rng::StreamFactory;
use qmc_verify::model::{
    CkptCommitModel, DrainModel, DrainMutation, RespawnModel, RespawnMutation,
};
use qmc_verify::{
    check, explore, explore_naive, lint, record_threads, Budget, Event, ExploreStats, Outcome,
    WorldTrace,
};
use std::fmt::Write as _;

/// Record a quick 4-rank PT run and return its trace.
fn record_pt_trace() -> WorldTrace {
    let cfg = PtConfig {
        l: 8,
        jx: 1.0,
        jz: 1.0,
        m: 4,
        betas: vec![0.5, 1.0, 1.5, 2.0],
        therm: 10,
        sweeps: 30,
        exchange_every: 5,
        seed: 7,
    };
    let (_, trace) = record_threads(4, move |comm| {
        let mut rng = StreamFactory::new(41).stream(comm.rank());
        run_pt_parallel(comm, &cfg, &mut rng)
    });
    trace
}

/// A crossed-receive program's trace: both ranks post a receive for the
/// other and the sends that would satisfy them come after — the
/// canonical deadlock. Hand-built because actually *running* it would
/// trip the runtime detector in `qmc-comm` instead of producing a trace.
fn crossed_recv_trace() -> WorldTrace {
    let recv = |src| Event::Recv {
        src,
        tag: 7,
        bytes: 8,
        internal: false,
    };
    let send = |dst| Event::Send {
        dst,
        tag: 7,
        bytes: 8,
        internal: false,
    };
    WorldTrace {
        ranks: vec![vec![recv(1), send(1)], vec![recv(0), send(0)]],
    }
}

/// `repro verify`: returns (report text, all checks passed).
pub fn verify_demo() -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;

    // Act 1: a real PT run must verify deadlock-free.
    let trace = record_pt_trace();
    let _ = writeln!(
        out,
        "[1/4] trace check: 4-rank ThreadWorld parallel tempering \
         ({} events recorded)",
        trace.len()
    );
    match check(&trace) {
        Ok(report) => {
            let _ = writeln!(out, "      OK: {report}");
        }
        Err(violations) => {
            ok = false;
            let _ = writeln!(out, "      FAIL: {} violation(s)", violations.len());
            for v in &violations {
                let _ = writeln!(out, "        {v}");
            }
        }
    }

    // Act 2: the checker must flag a crossed-receive program with the
    // exact wait-for cycle (a self-test that the gate has teeth).
    let _ = writeln!(out, "[2/4] trace check: crossed-recv counterexample");
    match check(&crossed_recv_trace()) {
        Ok(_) => {
            ok = false;
            let _ = writeln!(out, "      FAIL: deadlock was not detected");
        }
        Err(violations) => {
            let cycle = violations
                .iter()
                .find(|v| v.to_string().contains("waits on"));
            match cycle {
                Some(v) => {
                    let _ = writeln!(out, "      OK, flagged: {v}");
                }
                None => {
                    ok = false;
                    let _ = writeln!(
                        out,
                        "      FAIL: violations reported but no wait-for cycle named"
                    );
                }
            }
        }
    }

    // Act 3: the workspace linter.
    let _ = writeln!(out, "[3/4] qmc-lint: workspace invariants");
    match lint::workspace_root_from(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))) {
        Some(root) => match lint::lint_workspace(&root) {
            Ok(findings) if findings.is_empty() => {
                let _ = writeln!(
                    out,
                    "      OK: {} rules clean over {}",
                    lint::Rule::all().len(),
                    root.display()
                );
            }
            Ok(findings) => {
                ok = false;
                let _ = writeln!(out, "      FAIL: {} finding(s)", findings.len());
                for f in &findings {
                    let _ = writeln!(out, "        {f}");
                }
            }
            Err(e) => {
                ok = false;
                let _ = writeln!(out, "      FAIL: I/O error while scanning: {e}");
            }
        },
        None => {
            ok = false;
            let _ = writeln!(out, "      FAIL: workspace root not found");
        }
    }

    // Act 4: exhaustive protocol exploration at the committed budgets.
    let _ = writeln!(
        out,
        "[4/4] explore: exhaustive protocol exploration (sleep sets + DPOR)"
    );
    let (explored, json) = explore_act(&mut out);
    ok &= explored && crate::write_artifact(&mut out, "      ", "VERIFY_explore.json", &json);

    let _ = writeln!(out, "verify: {}", if ok { "PASS" } else { "FAIL" });
    (out, ok)
}

/// Committed exploration budgets: instance, fault budget, transition
/// ceiling. A ceiling regression means the protocol grew a race or the
/// model grew state; either deserves a red gate, not a silent slowdown.
const CKPT_CEILING: u64 = 40_000;
const DRAIN_CEILING: u64 = 6_000;
/// Re-based when the row began to search the real `Sched`'s reachable
/// states (159 088 transitions measured; it was 320 305 interleavings of
/// the mirror model under a ceiling of 600 000).
const SCHED_CEILING: u64 = 300_000;
const RESPAWN_CEILING: u64 = 4_000;
/// Minimum acceptable DPOR-vs-naive transition ratio on the committed
/// reduction instances.
const MIN_REDUCTION: f64 = 2.0;

/// Act 4 body: appends to the report and returns the overall pass with
/// the `VERIFY_explore.json` text (schema `qmc-verify-explore/v1`).
pub fn explore_act(out: &mut String) -> (bool, String) {
    let mut ok = true;
    let mut json = qmc_obs::json::JsonWriter::artifact("qmc-verify-explore/v1");

    // (a) The three protocol models and the real scheduler must be
    // invariant-clean within their committed ceilings.
    json.key("models").begin_array();
    fn row<A>(name: &str, ceiling: u64, found: Outcome<A>) -> (&str, ExploreStats, bool, u64) {
        (name, found.stats(), found.is_clean(), ceiling)
    }
    let (two, none) = (Budget::with_faults(2), Budget::with_faults(0));
    let runs = [
        row(
            "ckpt-commit(3 ranks, 2 rounds, full_every 2, 2 faults)",
            CKPT_CEILING,
            explore(&CkptCommitModel::new(3, 2, 2), two),
        ),
        row(
            "drain-verdict(4 ranks, 3 sweeps)",
            DRAIN_CEILING,
            explore(&DrainModel::new(4, 3), none),
        ),
        row(
            "qmc_serve::Sched(2 tenants x 2 jobs, 2 workers, quota 2, 2 faults; every state)",
            SCHED_CEILING,
            SchedModel::new(2, 2, 2, 2).explore(two),
        ),
        row(
            "respawn-barrier(3 ranks, 1 crash)",
            RESPAWN_CEILING,
            explore(&RespawnModel::new(3), none),
        ),
    ];
    for (name, stats, clean, ceiling) in &runs {
        let within = stats.transitions <= *ceiling;
        if *clean && within {
            let _ = writeln!(
                out,
                "      OK: {name}: clean, {} transitions / {} states \
                 (ceiling {ceiling})",
                stats.transitions, stats.unique_states
            );
        } else {
            ok = false;
            let _ = writeln!(
                out,
                "      FAIL: {name}: clean={clean}, {} transitions \
                 (ceiling {ceiling})",
                stats.transitions
            );
        }
        json.begin_object();
        json.key("model").str(name);
        json.key("clean").bool(*clean);
        json.key("transitions").u64(stats.transitions);
        json.key("unique_states").u64(stats.unique_states);
        json.key("executions").u64(stats.executions);
        json.key("ceiling").u64(*ceiling);
        json.end_object();
    }
    json.end_array();

    // (b) DPOR must genuinely reduce: same verdict as the naive
    // enumeration, at least MIN_REDUCTION times fewer transitions.
    json.key("reduction").begin_array();
    {
        type Counted = (u64, bool);
        fn stat<A>(o: &Outcome<A>) -> Counted {
            (o.stats().transitions, o.is_clean())
        }
        let instances: [(&str, Counted, Counted); 2] = {
            let m1 = CkptCommitModel::new(3, 1, 1);
            let m2 = DrainModel::new(3, 2);
            let b = none;
            [
                (
                    "ckpt-commit(3 ranks, 1 round)",
                    stat(&explore(&m1, b)),
                    stat(&explore_naive(&m1, b)),
                ),
                (
                    "drain-verdict(3 ranks, 2 sweeps)",
                    stat(&explore(&m2, b)),
                    stat(&explore_naive(&m2, b)),
                ),
            ]
        };
        for (name, (d, d_clean), (n, n_clean)) in &instances {
            let ratio = *n as f64 / (*d).max(1) as f64;
            let agree = d_clean == n_clean;
            if agree && ratio >= MIN_REDUCTION {
                let _ = writeln!(
                    out,
                    "      OK: {name}: DPOR {d} vs naive {n} transitions \
                     ({ratio:.1}x reduction)"
                );
            } else {
                ok = false;
                let _ = writeln!(
                    out,
                    "      FAIL: {name}: DPOR {d} vs naive {n}, agree={agree} \
                     ({ratio:.1}x < {MIN_REDUCTION:.1}x)"
                );
            }
            json.begin_object();
            json.key("instance").str(name);
            json.key("dpor").u64(*d);
            json.key("naive").u64(*n);
            json.key("ratio").f64_fixed(ratio, 3);
            json.end_object();
        }
    }
    json.end_array();

    // (c) Teeth: each seeded bug must produce a minimized, rendered
    // counterexample. Rank 0 stops on a raised flag without broadcasting
    // the verdict and the world deadlocks on the receive; the mailboxes
    // are reset while an incarnation-0 thread still runs and stale
    // residue reaches incarnation 1; a worker leaves on the drain
    // without asking the scheduler (the rule the deleted scheduler model
    // had drifted to) and a queued job is stranded.
    let drain = DrainModel::new(3, 2).mutated(DrainMutation::SkipFinalBroadcast);
    let respawn = RespawnModel::new(2).mutated(RespawnMutation::EagerReset);
    let sched = SchedModel {
        misuse: Some(Misuse::ExitOnDrain),
        ..SchedModel::new(1, 1, 1, 1)
    };
    let mutants = [
        flagged(out, "drain SkipFinalBroadcast", explore(&drain, none)),
        flagged(out, "respawn EagerReset", explore(&respawn, none)),
        flagged(out, "sched ExitOnDrain", sched.explore(none)),
    ];
    ok &= mutants.iter().all(|(_, len)| *len > 0);

    json.key("mutants").begin_array();
    for (model, len) in mutants {
        json.begin_object();
        json.key("model").str(model);
        json.key("schedule_len").u64(len as u64);
        json.end_object();
    }
    json.end_array();
    json.key("guards").begin_object();
    json.key("all_clean_within_ceiling").bool(ok);
    json.key("min_reduction_ratio").f64_fixed(MIN_REDUCTION, 1);
    json.end_object();
    (ok, json.finish())
}

/// Report one seeded bug: its minimized counterexample rendered under
/// an OK line, or a FAIL line when the search did not flag it. Returns
/// the `mutants` row, a schedule length of 0 meaning "not flagged".
fn flagged<'a, A>(out: &mut String, name: &'a str, found: Outcome<A>) -> (&'a str, usize) {
    let Outcome::Violation(ce) = found else {
        let _ = writeln!(
            out,
            "      FAIL: {name} mutant not flagged (got {:?})",
            found.stats()
        );
        return (name, 0);
    };
    let len = ce.schedule.len();
    let _ = writeln!(
        out,
        "      OK, flagged: {name} mutant, minimized to {len} steps:"
    );
    for line in ce.render().lines() {
        let _ = writeln!(out, "      {line}");
    }
    (name, len)
}
