//! Protocol-verification integration: real engine traffic through the
//! `qmc-verify` recording layer and checker.
//!
//! These pin the acceptance contract: a production 4-rank
//! parallel-tempering run verifies deadlock-free with messages actually
//! matched, a crossed-recv program is flagged with the exact wait-for
//! cycle, and recording is opt-in (plain runs bypass it entirely).

use qmc_comm::Communicator;
use qmc_core::pt::{run_pt_parallel, PtConfig};
use qmc_rng::StreamFactory;
use qmc_verify::{check, record_threads, Event, Violation, WorldTrace};

fn pt_config() -> PtConfig {
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

#[test]
fn four_rank_pt_run_verifies_deadlock_free() {
    let cfg = pt_config();
    let (results, trace) = record_threads(4, move |comm| {
        let mut rng = StreamFactory::new(41).stream(comm.rank());
        run_pt_parallel(comm, &cfg, &mut rng)
    });
    assert_eq!(results.len(), 4);

    let report = check(&trace).expect("PT traffic must verify deadlock-free");
    assert_eq!(report.ranks, 4);
    assert!(
        report.user_messages > 0,
        "PT exchanges user messages (log-weights + spin payloads)"
    );
    assert!(
        report.internal_messages > 0,
        "PT runs collectives, which decompose into internal messages"
    );
    assert!(report.collectives > 0, "allreduces must be recorded");
}

#[test]
fn recording_does_not_perturb_the_physics() {
    // The recording wrapper must be a pure observer: the PT trajectory
    // through it is bit-identical to the bare run.
    let cfg = pt_config();
    let cfg2 = cfg.clone();
    let (recorded, _trace) = record_threads(4, move |comm| {
        let mut rng = StreamFactory::new(41).stream(comm.rank());
        run_pt_parallel(comm, &cfg, &mut rng)
    });
    let bare = qmc_comm::run_threads(4, move |comm| {
        let mut rng = StreamFactory::new(41).stream(comm.rank());
        run_pt_parallel(comm, &cfg2, &mut rng)
    });
    for rank in 0..4 {
        assert_eq!(
            recorded[rank].0, bare[rank].0,
            "rank {rank}: energy series must be bit-identical"
        );
        assert_eq!(recorded[rank].1, bare[rank].1, "rank {rank}: acceptances");
    }
}

#[test]
fn crossed_recv_trace_is_flagged_with_the_exact_cycle() {
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
    let trace = WorldTrace {
        ranks: vec![vec![recv(1), send(1)], vec![recv(0), send(0)]],
    };
    let violations = check(&trace).expect_err("crossed recvs must be flagged");
    let deadlock = violations
        .iter()
        .find(|v| matches!(v, Violation::Deadlock { .. }))
        .expect("a Deadlock violation must be present");
    assert_eq!(
        deadlock.to_string(),
        "deadlock: rank 0 waits on rank 1 (tag 0x7) -> \
         rank 1 waits on rank 0 (tag 0x7) -> rank 0"
    );
}

#[test]
fn lost_message_shows_up_as_orphan_or_stall() {
    // Rank 0 sends on tag 3 but rank 1 listens on tag 4: the receive can
    // never complete and the send is never consumed.
    let trace = WorldTrace {
        ranks: vec![
            vec![Event::Send {
                dst: 1,
                tag: 3,
                bytes: 4,
                internal: false,
            }],
            vec![Event::Recv {
                src: 0,
                tag: 4,
                bytes: 4,
                internal: false,
            }],
        ],
    };
    let violations = check(&trace).expect_err("tag mismatch must be flagged");
    assert!(
        violations.len() >= 2,
        "both the unreceivable recv and the orphan send should surface: {violations:?}"
    );
}

/// The workspace lints clean: every rule `qmc-lint` (and `repro verify`)
/// applies holds on the sources under `crates/`, `tests/` and
/// `examples/`, so a violation fails the test suite, not only the
/// scripted gate.
#[test]
fn workspace_lints_clean() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = qmc_verify::workspace_root_from(manifest).expect("a workspace root above the crate");
    let findings = qmc_verify::lint_workspace(&root).expect("workspace sources are readable");
    let report: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(
        findings.is_empty(),
        "{} lint finding(s):\n{}",
        findings.len(),
        report.join("\n")
    );
}
