//! The explored protocols, checked at their committed sizes
//! (`qmc_verify::model`, `qmc_bench::sched_model`).
//!
//! Two claims, each checked here:
//!
//! 1. **Clean within budget** — the checkpoint-commit and drain-verdict
//!    models and the job lifecycle explore invariant-clean at the
//!    committed instance sizes, under the committed transition ceilings
//!    (a regression here means the protocol grew a real race or the
//!    instance grew state the budget can't cover). The lifecycle is not
//!    a model of `qmc_serve::Sched`: every transition calls the real
//!    scheduler.
//! 2. **Seeded bugs come back minimised, and are real** — every
//!    commit / drain mutant's minimized counterexample schedule,
//!    replayed deterministically against the *real* implementation
//!    (`qmc_ckpt::coord::write_coordinated_sections` over `ThreadComm`,
//!    blocking verdict receives over `ThreadComm`), exhibits the same
//!    violation the model checker reported; every scheduler mutant is a
//!    way of misusing the real `Sched`, so its counterexample already is
//!    the real code misbehaving.

use qmc_bench::sched_model::{End, Misuse, SchedAction, SchedModel, Worker};
use qmc_ckpt::coord::{write_coordinated_sections, DeltaBase, ElasticRestore, RankSections};
use qmc_ckpt::{CkptFile, CkptStore, SectionPlan};
use qmc_comm::{run_threads, run_threads_with_timeout, Communicator};
use qmc_verify::model::{CkptCommitModel, CkptMutation, DrainModel, DrainMutation};
use qmc_verify::{explore, explore_naive, Budget, Outcome};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("qmc-explore-{}-{label}-{n}", std::process::id()))
}

// ---------------------------------------------------------------------------
// 1. Unmutated protocols explore clean within the committed budget.
// ---------------------------------------------------------------------------

#[test]
fn ckpt_commit_explores_clean_within_committed_budget() {
    let m = CkptCommitModel::new(3, 2, 2);
    let out = explore(&m, Budget::with_faults(2));
    assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    assert!(
        out.stats().transitions <= 40_000,
        "committed ceiling blown: {} transitions",
        out.stats().transitions
    );
}

#[test]
fn drain_verdict_explores_clean_within_committed_budget() {
    let m = DrainModel::new(4, 3);
    let out = explore(&m, Budget::with_faults(0));
    assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    assert!(
        out.stats().transitions <= 6_000,
        "committed ceiling blown: {} transitions",
        out.stats().transitions
    );
}

#[test]
fn scheduler_explores_clean_within_committed_budget() {
    let out = SchedModel::new(2, 2, 2, 2).explore(Budget::with_faults(2));
    assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    assert!(
        out.stats().transitions <= 300_000,
        "committed ceiling blown: {} transitions",
        out.stats().transitions
    );
}

/// What the committed instance cannot reach: a refused namespace
/// collision, and — with its two faults under the server's cap of five —
/// the retry cap. With a cap of 2, two kills of one job fail it for
/// good and its tenant's next submission must find the slot and the name
/// free; a drain that begins with a job queued still sees it dispatched
/// and parked. The two schedules below are walked, not assumed.
#[test]
fn scheduler_small_instances_and_a_reachable_retry_cap_explore_clean() {
    let colliding = |quota| SchedModel {
        ns_collide: true,
        ..SchedModel::new(1, 2, 1, quota)
    };
    let m = SchedModel {
        max_attempts: 2,
        ..SchedModel::new(1, 2, 2, 1)
    };
    for m in [SchedModel::new(2, 1, 1, 1), colliding(1), colliding(2), m] {
        let out = m.explore(Budget::with_faults(2));
        assert!(out.is_clean(), "{m:?}: expected clean, got {out:?}");
        assert!(
            out.stats().transitions <= 2_000,
            "{m:?}: committed ceiling blown: {} transitions",
            out.stats().transitions
        );
    }

    use qmc_serve::JobState;
    use qmc_verify::Model;
    let (submit, next) = (SchedAction::Submit(0), SchedAction::Next(0));
    let settle = |end| SchedAction::Settle(0, end);
    let walk_from = |s, acts: &[SchedAction]| {
        acts.iter().fold(s, |s, a| {
            assert!(m.actions(&s).contains(a), "{a:?} is not enabled");
            m.apply(&s, a)
        })
    };
    let walk = |acts: &[SchedAction]| walk_from(m.init(), acts);
    // Cap reached: Failed, and once the failure is delivered the quota-1
    // tenant is admitted again.
    let killed = settle(End::Killed);
    let s = walk(&[submit, next, killed, next, killed]);
    assert_eq!(s.sched.job(0).expect("kept").state, JobState::Failed);
    let s = walk_from(s, &[SchedAction::Claim(0), submit]);
    assert!(s.sched.job(0).is_none(), "a delivered record is dropped");
    assert_eq!(s.sched.job(1).expect("admitted").state, JobState::Queued);
    // Dispatch while draining: queued before the drain, parked after it.
    let s = walk(&[submit, SchedAction::Drain, next, settle(End::Drained), next]);
    assert_eq!(s.sched.job(0).expect("kept").state, JobState::Paused);
    assert_eq!(s.workers[0], Worker::Exited, "nothing left to run");
}

#[test]
fn dpor_agrees_with_naive_and_reduces_on_committed_instances() {
    fn check(name: &str, d: qmc_verify::ExploreStats, n: qmc_verify::ExploreStats) {
        assert!(
            d.transitions * 2 <= n.transitions,
            "{name}: DPOR {} vs naive {} — ratio under 2.0",
            d.transitions,
            n.transitions
        );
    }
    let m = CkptCommitModel::new(3, 1, 1);
    let (d, n) = (
        explore(&m, Budget::with_faults(0)),
        explore_naive(&m, Budget::with_faults(0)),
    );
    assert!(d.is_clean() && n.is_clean(), "ckpt(3,1,1) disagreed");
    check("ckpt(3,1,1)", d.stats(), n.stats());

    let m = DrainModel::new(3, 2);
    let (d, n) = (
        explore(&m, Budget::with_faults(0)),
        explore_naive(&m, Budget::with_faults(0)),
    );
    assert!(d.is_clean() && n.is_clean(), "drain(3,2) disagreed");
    check("drain(3,2)", d.stats(), n.stats());
}

// ---------------------------------------------------------------------------
// 2. Scheduler: each way of misusing the real `Sched` is caught.
// ---------------------------------------------------------------------------

/// Explore a misused 1-worker, quota-1 scheduler and return the
/// minimised counterexample.
fn sched_counterexample(
    jobs: usize,
    misuse: Misuse,
) -> Box<qmc_verify::CounterExample<SchedAction>> {
    let m = SchedModel {
        misuse: Some(misuse),
        ..SchedModel::new(1, jobs, 1, 1)
    };
    match m.explore(Budget::with_faults(1)) {
        Outcome::Violation(ce) => ce,
        other => panic!("{m:?} must violate, got {:?}", other.stats()),
    }
}

#[test]
fn forget_requeue_counterexample_replays_on_real_sched() {
    let ce = sched_counterexample(1, Misuse::ForgetRequeue);
    assert!(ce.message.contains("lost"), "message: {}", ce.message);
    // Minimal: submit, dispatch, kill.
    let want = [
        SchedAction::Submit(0),
        SchedAction::Next(0),
        SchedAction::Settle(0, End::Killed),
    ];
    assert_eq!(ce.schedule, want);
}

#[test]
fn skip_quota_counterexample_replays_on_real_sched() {
    let ce = sched_counterexample(2, Misuse::SkipQuota);
    assert!(
        ce.message.contains("active jobs, quota is"),
        "message: {}",
        ce.message
    );
    // Minimal: two submits back to back.
    assert_eq!(ce.schedule, [SchedAction::Submit(0); 2]);
}

/// The rule the deleted mirror model had drifted to: no dispatch once a
/// drain begins. Driven that way the real scheduler strands a job.
#[test]
fn exit_on_drain_counterexample_strands_a_queued_job() {
    let ce = sched_counterexample(1, Misuse::ExitOnDrain);
    assert!(
        ce.message.contains("left Queued"),
        "message: {}",
        ce.message
    );
    let want = [
        SchedAction::Submit(0),
        SchedAction::Drain,
        SchedAction::Next(0),
    ];
    assert_eq!(ce.schedule, want);
}

/// A handler that claims a job before it is terminal tells its client
/// the job is over while the real scheduler, which refuses to drop an
/// unfinished record, keeps holding it.
#[test]
fn claim_unfinished_counterexample_keeps_a_delivered_record() {
    let ce = sched_counterexample(1, Misuse::ClaimUnfinished);
    assert!(
        ce.message.contains("delivered while Queued"),
        "message: {}",
        ce.message
    );
    assert_eq!(ce.schedule, [SchedAction::Submit(0), SchedAction::Claim(0)]);
}

// ---------------------------------------------------------------------------
// 2. Checkpoint commit: counterexamples replay on the real store.
// ---------------------------------------------------------------------------

/// Two coordinated rounds against a real `CkptStore` over `ThreadComm`;
/// round 2's persist is forced to fail by squatting a directory on the
/// name of the slot file generation 2 needs (permission games don't
/// work under root, but opening a directory for writing fails for
/// anyone).
/// `gate` selects the correct commit-ack gate or the
/// [`CkptMutation::SkipAckGate`] bug (believe the generation landed
/// without consulting the broadcast ack). Returns each rank's believed
/// newest generation.
fn ckpt_two_rounds_with_failed_write(dir: &std::path::Path, gate: bool) -> Vec<u64> {
    let dir2 = dir.to_path_buf();
    let believed = run_threads(2, move |comm| {
        let rank = comm.rank();
        let store = CkptStore::new(&dir2, 4).expect("store");
        comm.barrier();
        let build = |sections: &mut RankSections| {
            sections.plan(vec![(
                "spins".to_string(),
                SectionPlan::Payload(vec![rank as u8; 8]),
            )])
        };
        let base = &mut DeltaBase::default();
        let (_, committed) = write_coordinated_sections(comm, &store, base, 1, true, build);
        let mut believed = 0u64;
        if committed {
            believed = 1;
        }
        comm.barrier();
        believed
    });
    assert!(believed.iter().all(|&b| b == 1), "round 1 must commit");

    // Generation 1 sits in slot 0; generation 2's write now hits a
    // directory and fails.
    let squat = dir.join("slot-1.qckpt");
    std::fs::create_dir(&squat).expect("squat the next slot's name");
    let dir2 = dir.to_path_buf();
    let believed = run_threads(2, move |comm| {
        let rank = comm.rank();
        let store = CkptStore::new(&dir2, 4).expect("store");
        comm.barrier();
        let build = |sections: &mut RankSections| {
            sections.plan(vec![(
                "spins".to_string(),
                SectionPlan::Payload(vec![rank as u8; 8]),
            )])
        };
        let base = &mut DeltaBase::default();
        let (_, committed) = write_coordinated_sections(comm, &store, base, 2, true, build);
        // The gate: only a rank-consistent committed ack may advance
        // the believed generation (and, in the real driver, clear the
        // dirty flags the next delta builds on).
        if gate {
            if committed {
                2
            } else {
                1
            }
        } else {
            // SkipAckGate mutant: believe the write landed regardless.
            2
        }
    });
    std::fs::remove_dir(&squat).expect("unsquat");
    believed
}

/// [`CkptMutation::SkipAckGate`]'s minimized counterexample (write
/// fails, acks ignored) reproduces on the real coordinated writer: the
/// store holds only generation 1 while every rank believes 2 — the
/// exact divergence the model invariant reports. The gated control on
/// the same schedule keeps belief and store in agreement.
#[test]
fn skip_ack_gate_counterexample_replays_on_real_store() {
    let m = CkptCommitModel::new(2, 1, 1).mutated(CkptMutation::SkipAckGate);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(1)) else {
        panic!("mutant must violate the gate invariant");
    };
    assert!(
        ce.message.contains("believes generation"),
        "message: {}",
        ce.message
    );
    use qmc_verify::model::CkptAction;
    assert!(
        ce.schedule
            .iter()
            .any(|a| matches!(a, CkptAction::Write { ok: false, .. })),
        "the minimized schedule injects the failed write: {:#?}",
        ce.schedule
    );

    let dir = scratch("ackgate");
    let believed = ckpt_two_rounds_with_failed_write(&dir, false);
    let store = CkptStore::new(&dir, 4).expect("reopen");
    assert_eq!(store.generations(), vec![1], "only generation 1 landed");
    assert!(
        believed.iter().all(|&b| b == 2),
        "mutant: every rank believes generation 2 — the modeled violation, live: {believed:?}"
    );

    let dir = scratch("ackgate-control");
    let believed = ckpt_two_rounds_with_failed_write(&dir, true);
    let store = CkptStore::new(&dir, 4).expect("reopen");
    assert_eq!(store.generations(), vec![1]);
    assert!(
        believed.iter().all(|&b| b == 1),
        "gated control: belief tracks the store, live: {believed:?}"
    );
}

/// [`CkptMutation::BaseOnFailedAck`]'s counterexample (the first write
/// fails, rank 1 moves its delta base to it anyway, and at the next
/// round derives a delta where rank 0, with no base, derives full)
/// replays on the real writer: rank 1 frames a base reference to a
/// generation the store never held, rank 0 refuses the tagged fragment,
/// and the generation commits on no rank. The control, whose rank 1
/// keeps its base on the failed ack, commits it as a full image.
#[test]
fn base_on_failed_ack_counterexample_replays_on_real_store() {
    let m = CkptCommitModel::new(2, 2, 2).mutated(CkptMutation::BaseOnFailedAck);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(1)) else {
        panic!("mutant must violate decision agreement");
    };
    assert!(
        ce.message
            .contains("rank 0 derived full but rank 1 derived a delta on gen 1"),
        "message: {}",
        ce.message
    );
    use qmc_verify::model::CkptAction;
    assert!(
        ce.schedule
            .iter()
            .any(|a| matches!(a, CkptAction::Write { ok: false, .. })),
        "the minimized schedule injects the failed write: {:#?}",
        ce.schedule
    );

    for mutant in [true, false] {
        let dir = scratch(if mutant { "base" } else { "base-ok" });
        let dir2 = dir.clone();
        let committed = run_threads(2, move |comm| {
            let rank = comm.rank();
            let store = CkptStore::new(&dir2, 4).expect("store");
            let mut base = DeltaBase::default();
            // Generation 1 needs slot 0, whose name a directory squats.
            let squat = dir2.join("slot-0.qckpt");
            if rank == 0 {
                std::fs::create_dir(&squat).expect("squat the first slot's name");
            }
            comm.barrier();
            let spins = vec![rank as u8; 8];
            let spins_section = |delta| {
                let section = if delta {
                    SectionPlan::Clean
                } else {
                    SectionPlan::Payload(spins.clone())
                };
                vec![("spins".to_string(), section)]
            };
            let build =
                |sections: &mut RankSections| sections.plan(spins_section(sections.delta()));
            let (_, committed) =
                write_coordinated_sections(comm, &store, &mut base, 1, true, build);
            assert!(!committed, "round 1 fails everywhere");
            if mutant && rank == 1 {
                // The bug: the ack arrived, so rank 1 takes generation 1
                // for its base, with the sections it tried to write.
                let mut tried = CkptFile::new();
                tried.add("spins", spins.clone());
                base = DeltaBase::restored(&ElasticRestore::Resumed(1, tried));
            }
            if rank == 0 {
                std::fs::remove_dir(&squat).expect("unsquat");
            }
            // Round 2 may be a delta; the spins did not move.
            write_coordinated_sections(comm, &store, &mut base, 2, false, build).1
        });
        let store = CkptStore::new(&dir, 4).expect("reopen");
        if mutant {
            // The real writer detects the modeled divergence: a delta
            // fragment in a full commit is refused, rank-consistently.
            assert!(
                committed.iter().all(|&c| !c),
                "mutant round 2 must not commit"
            );
            assert!(store.generations().is_empty());
        } else {
            assert!(committed.iter().all(|&c| c), "control commits round 2");
            assert_eq!(store.generations(), vec![2]);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Drain verdict: counterexamples replay over a real ThreadComm.
// ---------------------------------------------------------------------------

/// [`DrainMutation::SkipFinalBroadcast`]'s counterexample is a
/// *deadlock* rendered as wait-for edges; replayed on a real
/// `ThreadComm` world it reproduces as the deadlock detector's
/// dead-peer diagnosis with the same edge (rank 1 waits on rank 0,
/// verdict tag, and the message can never arrive).
#[test]
fn skip_final_broadcast_counterexample_replays_as_real_deadlock() {
    use qmc_verify::model::TAG_VERDICT;
    let m = DrainModel::new(3, 2).mutated(DrainMutation::SkipFinalBroadcast);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(0)) else {
        panic!("skipping the stop broadcast must deadlock");
    };
    let Some(qmc_verify::Violation::Deadlock { cycle }) = &ce.deadlock else {
        panic!("expected wait-for edges, got {:?}", ce.deadlock);
    };
    assert!(cycle.iter().all(|e| e.src == 0 && e.tag == TAG_VERDICT));

    // Replay: rank 0 observes the raised flag and stops WITHOUT
    // broadcasting the verdict; every other rank blocks on the verdict
    // receive. The real dead-peer detector panics the world with the
    // same wait-for edge the model rendered.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_threads_with_timeout(3, Duration::from_secs(20), move |comm| {
            if comm.rank() == 0 {
                // Mutant: flag is up → stop silently, no broadcast.
            } else {
                let _ = comm.recv_bytes(0, TAG_VERDICT);
            }
        })
    }));
    std::panic::set_hook(hook);
    let err = crashed.expect_err("the silent stop must deadlock the world");
    let payload = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        payload.contains("waits on rank 0 (tag 0x20)")
            && payload.contains("the message can never arrive"),
        "dead-peer diagnosis must name the modeled edge, got: {payload}"
    );

    // Control: rank 0 broadcasts the stop verdict; every rank stops at
    // the same boundary.
    let stops = run_threads(3, |comm| {
        if comm.rank() == 0 {
            for dst in 1..comm.size() {
                comm.send_bytes(dst, TAG_VERDICT, &[1]);
            }
            0u64 // stopped at boundary 0
        } else {
            let verdict = comm.recv_bytes(0, TAG_VERDICT);
            assert_eq!(verdict, vec![1]);
            0u64
        }
    });
    assert!(stops.iter().all(|&s| s == 0), "all ranks stop together");
}

/// [`DrainMutation::LocalFlagRead`]'s counterexample (the environment
/// raises the flag between two ranks' boundary checks) replays on a
/// real shared `AtomicBool` over `ThreadComm`: the local-read world
/// splits — one rank stops, the other runs to completion — while the
/// broadcast-verdict control keeps the world agreed.
#[test]
fn local_flag_read_counterexample_replays_on_real_flag() {
    use qmc_verify::model::TAG_VERDICT;
    let m = DrainModel::new(2, 1).mutated(DrainMutation::LocalFlagRead);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(0)) else {
        panic!("local flag reads must diverge");
    };
    assert_eq!(ce.schedule.len(), 3, "schedule: {:#?}", ce.schedule);

    // Encode each rank's run outcome as: -1 = finished the full run,
    // k >= 0 = stopped at boundary k. The token message sequences the
    // counterexample deterministically: rank 1 checks first (flag
    // down), then the flag rises, then rank 0 checks.
    const TOKEN: u32 = 0x21;
    let flag = Arc::new(AtomicBool::new(false));
    let f2 = Arc::clone(&flag);
    let outcomes = run_threads(2, move |comm| {
        if comm.rank() == 1 {
            // Mutant: read the flag locally at boundary 0.
            let stop = f2.load(Ordering::SeqCst);
            comm.send_bytes(0, TOKEN, &[1]);
            if stop {
                0i64
            } else {
                -1 // ran the single sweep to completion
            }
        } else {
            let _ = comm.recv_bytes(1, TOKEN);
            // The drain request lands between the two boundary checks.
            f2.store(true, Ordering::SeqCst);
            let stop = f2.load(Ordering::SeqCst);
            if stop {
                0i64
            } else {
                -1
            }
        }
    });
    assert_eq!(
        outcomes,
        vec![0, -1],
        "split world reproduced: rank 0 stopped at boundary 0, rank 1 finished"
    );

    // Control: rank 1 waits for the broadcast verdict instead of
    // reading the flag; the same environment timing no longer splits.
    let f2 = Arc::clone(&flag);
    f2.store(false, Ordering::SeqCst);
    let f3 = Arc::clone(&flag);
    let outcomes = run_threads(2, move |comm| {
        if comm.rank() == 1 {
            comm.send_bytes(0, TOKEN, &[1]);
            let verdict = comm.recv_bytes(0, TAG_VERDICT);
            if verdict == vec![1] {
                0i64
            } else {
                -1
            }
        } else {
            let _ = comm.recv_bytes(1, TOKEN);
            f3.store(true, Ordering::SeqCst);
            let stop = f3.load(Ordering::SeqCst);
            comm.send_bytes(1, TAG_VERDICT, &[u8::from(stop)]);
            if stop {
                0i64
            } else {
                -1
            }
        }
    });
    assert_eq!(
        outcomes,
        vec![0, 0],
        "broadcast verdict keeps the world agreed"
    );
}
