//! Model–implementation conformance for the DPOR-explored protocol
//! models (`qmc_verify::model`).
//!
//! Three claims, each checked here:
//!
//! 1. **Clean within budget** — the unmutated checkpoint-commit,
//!    drain-verdict, and scheduler models explore invariant-clean at
//!    the committed instance sizes, under the committed transition
//!    ceilings (a regression here means the protocol grew a real race
//!    or the model grew state the budget can't cover).
//! 2. **Mutants reproduce on the real code** — every seeded mutation's
//!    minimized counterexample schedule, replayed deterministically
//!    against the *real* implementation (`qmc_serve::Sched`,
//!    `qmc_ckpt::coord::write_coordinated_sections` over `ThreadComm`,
//!    blocking verdict receives over `ThreadComm`), exhibits the same
//!    violation the model checker reported. The models are not toys —
//!    they predict real behavior.
//! 3. **Bisimulation on the happy paths** — handwritten schedules step
//!    the scheduler model and the real `Sched` side by side, comparing
//!    an abstraction of the real state after every action.

use qmc_ckpt::{CkptStore, SectionPlan};
use qmc_comm::{run_threads, run_threads_with_timeout, Communicator};
use qmc_obs::Registry;
use qmc_serve::{JobKind, JobObservables, JobSpec, Sched, TenantQuota};
use qmc_verify::model::{
    CkptCommitModel, CkptMutation, DrainModel, DrainMutation, SchedModel, SchedMutation,
};
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
    let m = SchedModel::new(2, 2, 2, 2);
    let out = explore(&m, Budget::with_faults(2));
    assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    assert!(
        out.stats().transitions <= 600_000,
        "committed ceiling blown: {} transitions",
        out.stats().transitions
    );
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
// 2 + 3. Scheduler: bisimulation harness over the real `Sched`.
// ---------------------------------------------------------------------------

use qmc_verify::model::{JobSt, SchedAction, SchedState};

/// What the harness knows about one model job's real-world twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RealId {
    NotSubmitted,
    Rejected,
    Id(u64),
}

/// Steps the model and the real scheduler in lockstep and compares an
/// abstraction of the real state against the model state after every
/// action. The mutation glue flags replay a *model mutant's*
/// counterexample by making the harness drive the real code the way
/// the buggy code would.
struct Harness {
    model: SchedModel,
    state: SchedState,
    sched: Sched,
    real: Vec<RealId>,
    /// worker index → model job it is executing.
    workers: Vec<Option<usize>>,
    /// Glue for [`SchedMutation::ForgetRequeue`]: a killed worker frees
    /// itself without requeueing its job.
    forget_requeue: bool,
    /// Glue for [`SchedMutation::SkipQuota`]: admission runs with an
    /// unbounded quota.
    skip_quota: bool,
}

impl Harness {
    fn new(model: SchedModel) -> Self {
        let state = qmc_verify::Model::init(&model);
        let njobs = model.tenants * model.jobs_per_tenant;
        Harness {
            model,
            state,
            sched: Sched::default(),
            real: vec![RealId::NotSubmitted; njobs],
            workers: vec![None; model.workers],
            forget_requeue: matches!(model.mutation, Some(SchedMutation::ForgetRequeue)),
            skip_quota: matches!(model.mutation, Some(SchedMutation::SkipQuota)),
        }
    }

    fn model_job_of(&self, rid: u64) -> usize {
        self.real
            .iter()
            .position(|r| *r == RealId::Id(rid))
            .expect("dispatched id maps to a model job")
    }

    fn spec_for(&self, job: usize) -> JobSpec {
        let tenant = job / self.model.jobs_per_tenant;
        // Colliding instances share one sanitized name per tenant;
        // otherwise every job gets its own namespace.
        let name = if self.model.ns_collide {
            format!("shared-{tenant}")
        } else {
            format!("job-{job}")
        };
        let priority =
            u8::from(self.model.jobs_per_tenant > 1 && job % self.model.jobs_per_tenant == 1);
        JobSpec {
            tenant: format!("t{tenant}"),
            name,
            kind: JobKind::Tfim {
                lx: 4,
                ly: 1,
                j: 1.0,
                h: 2.0,
                m: 4,
                wolff: 1,
            },
            betas: vec![1.0],
            therm: 2,
            sweeps: 4,
            seed: job as u64,
            priority,
            ckpt_every: 0,
        }
    }

    /// Apply one model action to both worlds.
    fn step(&mut self, a: SchedAction) {
        match a {
            SchedAction::Submit { tenant } => {
                let t = tenant as usize;
                let job = (0..self.model.jobs_per_tenant)
                    .map(|j| t * self.model.jobs_per_tenant + j)
                    .find(|&id| self.real[id] == RealId::NotSubmitted)
                    .expect("a job left to submit");
                let quota = TenantQuota {
                    max_active: if self.skip_quota {
                        usize::MAX
                    } else {
                        self.model.quota
                    },
                };
                self.real[job] = match self.sched.submit(self.spec_for(job), &quota, &[]) {
                    Ok(rid) => RealId::Id(rid),
                    Err(_) => RealId::Rejected,
                };
            }
            SchedAction::Dispatch { worker } => {
                let rid = self.sched.pop_next().expect("model says a job is pending");
                self.workers[worker as usize] = Some(self.model_job_of(rid));
            }
            SchedAction::Complete { worker } => {
                let job = self.workers[worker as usize].take().expect("busy worker");
                let RealId::Id(rid) = self.real[job] else {
                    panic!("running job has a real id");
                };
                self.sched
                    .complete(rid, JobObservables::default(), &Registry::new());
            }
            SchedAction::Fail { worker } => {
                let job = self.workers[worker as usize].take().expect("busy worker");
                let RealId::Id(rid) = self.real[job] else {
                    panic!("running job has a real id");
                };
                self.sched.fail(rid, "injected failure".into());
            }
            SchedAction::Kill { worker } => {
                let job = self.workers[worker as usize].take().expect("busy worker");
                let RealId::Id(rid) = self.real[job] else {
                    panic!("running job has a real id");
                };
                if !self.forget_requeue {
                    self.sched.requeue(rid);
                }
                // ForgetRequeue glue: the worker frees itself, the
                // record stays Running — exactly the modeled bug.
            }
            SchedAction::Drain => self.sched.draining = true,
            SchedAction::DrainPark { worker } => {
                let job = self.workers[worker as usize].take().expect("busy worker");
                let RealId::Id(rid) = self.real[job] else {
                    panic!("running job has a real id");
                };
                self.sched.pause(rid);
            }
        }
        self.state = qmc_verify::Model::apply(&self.model, &self.state, &a);
    }

    /// The abstraction function: project the real scheduler onto the
    /// model's state space and compare.
    fn assert_conforms(&self, ctx: &str) {
        use qmc_serve::JobState;
        let (jobs, pending, workers, draining) = self.state.snapshot();
        assert_eq!(draining, self.sched.draining, "{ctx}: draining flag");
        assert_eq!(
            pending.len(),
            self.sched.pending_len(),
            "{ctx}: pending queue length"
        );
        for (job, st) in jobs.iter().enumerate() {
            let real = self.real[job];
            match (st, real) {
                (JobSt::NotSubmitted, RealId::NotSubmitted) => {}
                (JobSt::Rejected, RealId::Rejected) => {}
                (st, RealId::Id(rid)) => {
                    let rec = self.sched.job(rid).expect("live id keeps its record");
                    let want = match st {
                        JobSt::Queued => JobState::Queued,
                        JobSt::Running(_) => JobState::Running,
                        JobSt::Paused => JobState::Paused,
                        JobSt::Done => JobState::Done,
                        JobSt::Failed => JobState::Failed,
                        other => panic!("{ctx}: model job {job} is {other:?} but a real id exists"),
                    };
                    assert_eq!(rec.state, want, "{ctx}: job {job} state");
                }
                (st, real) => panic!("{ctx}: model job {job} is {st:?}, real twin is {real:?}"),
            }
        }
        for (w, slot) in workers.iter().enumerate() {
            assert_eq!(
                slot.map(|j| j as usize),
                self.workers[w],
                "{ctx}: worker {w} assignment"
            );
        }
    }

    fn replay(&mut self, schedule: &[SchedAction]) {
        for a in schedule {
            self.step(*a);
        }
    }
}

#[test]
fn sched_bisimulation_happy_path_priority_dispatch() {
    let m = SchedModel::new(1, 2, 1, 2);
    let mut h = Harness::new(m);
    let script = [
        SchedAction::Submit { tenant: 0 },
        SchedAction::Submit { tenant: 0 },
        // Job 1 carries priority 1, so the single worker takes it first.
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Complete { worker: 0 },
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Complete { worker: 0 },
    ];
    for (i, a) in script.iter().enumerate() {
        h.step(*a);
        h.assert_conforms(&format!("after action {i} ({a:?})"));
    }
    // The priority-1 job (model job 1) ran first.
    assert_eq!(h.workers, vec![None]);
}

#[test]
fn sched_bisimulation_kill_requeue_redispatch() {
    let m = SchedModel::new(1, 1, 1, 1);
    let mut h = Harness::new(m);
    let script = [
        SchedAction::Submit { tenant: 0 },
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Kill { worker: 0 },
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Complete { worker: 0 },
    ];
    for (i, a) in script.iter().enumerate() {
        h.step(*a);
        h.assert_conforms(&format!("after action {i} ({a:?})"));
    }
}

#[test]
fn sched_bisimulation_quota_and_ns_rejection() {
    // Quota: second submit while the first is active is rejected.
    let mut h = Harness::new(SchedModel::new(1, 2, 1, 1));
    h.step(SchedAction::Submit { tenant: 0 });
    h.assert_conforms("after first submit");
    h.step(SchedAction::Submit { tenant: 0 });
    h.assert_conforms("after over-quota submit");

    // Namespace: quota of 2 admits both by count, but the shared
    // namespace key rejects the second.
    let mut h = Harness::new(SchedModel::new(1, 2, 1, 2).with_ns_collision());
    h.step(SchedAction::Submit { tenant: 0 });
    h.step(SchedAction::Submit { tenant: 0 });
    h.assert_conforms("after colliding submit");
}

#[test]
fn sched_bisimulation_drain_park_and_fail() {
    let mut h = Harness::new(SchedModel::new(1, 1, 1, 1));
    let script = [
        SchedAction::Submit { tenant: 0 },
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Drain,
        SchedAction::DrainPark { worker: 0 },
    ];
    for (i, a) in script.iter().enumerate() {
        h.step(*a);
        h.assert_conforms(&format!("after action {i} ({a:?})"));
    }

    let mut h = Harness::new(SchedModel::new(1, 1, 1, 1));
    let script = [
        SchedAction::Submit { tenant: 0 },
        SchedAction::Dispatch { worker: 0 },
        SchedAction::Fail { worker: 0 },
    ];
    for (i, a) in script.iter().enumerate() {
        h.step(*a);
        h.assert_conforms(&format!("after action {i} ({a:?})"));
    }
}

#[test]
fn forget_requeue_counterexample_replays_on_real_sched() {
    let m = SchedModel::new(1, 1, 1, 1).mutated(SchedMutation::ForgetRequeue);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(1)) else {
        panic!("forgetting the requeue must violate");
    };
    assert!(ce.message.contains("lost"), "message: {}", ce.message);

    // Replay the minimized schedule against the real scheduler, with
    // the harness reproducing the buggy worker loop.
    let mut h = Harness::new(m);
    h.replay(&ce.schedule);
    // The violation is real: the record still says Running, but no
    // worker holds the job and nothing is pending — the job is lost.
    let RealId::Id(rid) = h.real[0] else {
        panic!("the job was submitted")
    };
    assert_eq!(
        h.sched.job(rid).expect("record kept").state,
        qmc_serve::JobState::Running,
        "record claims an executor"
    );
    assert!(h.workers.iter().all(Option::is_none), "no worker has it");
    assert_eq!(h.sched.pending_len(), 0, "and it is not queued either");
}

#[test]
fn skip_quota_counterexample_replays_on_real_sched() {
    let m = SchedModel::new(1, 2, 1, 1).mutated(SchedMutation::SkipQuota);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(0)) else {
        panic!("skipping the quota check must violate");
    };
    assert!(ce.message.contains("quota"), "message: {}", ce.message);

    let mut h = Harness::new(m);
    h.replay(&ce.schedule);
    // Both jobs were admitted even though the tenant's quota is 1.
    let active = (0..2)
        .filter(|&j| {
            matches!(h.real[j], RealId::Id(rid)
                if matches!(h.sched.job(rid).expect("kept").state,
                    qmc_serve::JobState::Queued | qmc_serve::JobState::Running))
        })
        .count();
    assert!(
        active > m.quota,
        "over-admission reproduced: {active} active"
    );

    // The unglued real scheduler rejects the same schedule's second
    // submit — the bug lives in the mutation, not the implementation.
    let mut h = Harness::new(SchedModel::new(1, 2, 1, 1));
    h.replay(&ce.schedule);
    h.assert_conforms("unmutated replay");
    assert_eq!(h.real[1], RealId::Rejected);
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
        let build = |_delta: bool| {
            vec![(
                "spins".to_string(),
                SectionPlan::Payload(vec![rank as u8; 8]),
            )]
        };
        let (_, committed) =
            qmc_ckpt::coord::write_coordinated_sections(comm, &store, 1, true, build);
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
        let build = |_delta: bool| {
            vec![(
                "spins".to_string(),
                SectionPlan::Payload(vec![rank as u8; 8]),
            )]
        };
        let (_, committed) =
            qmc_ckpt::coord::write_coordinated_sections(comm, &store, 2, true, build);
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

/// [`CkptMutation::LocalDecision`]'s counterexample (a rank plans delta
/// while rank 0 decided full) replays on the real writer: the divergent
/// plan reaches `write_plan`, which refuses a `Clean` section in a full
/// archive, so the generation never commits. The control honoring the
/// broadcast decision commits it.
#[test]
fn local_decision_counterexample_replays_on_real_store() {
    let m = CkptCommitModel::new(2, 2, 1).mutated(CkptMutation::LocalDecision);
    let Outcome::Violation(ce) = explore(&m, Budget::with_faults(0)) else {
        panic!("mutant must violate decision agreement");
    };
    assert!(
        ce.message.contains("planned delta but rank 0 decided full"),
        "message: {}",
        ce.message
    );

    for honor_broadcast in [false, true] {
        let dir = scratch(if honor_broadcast {
            "decide-ok"
        } else {
            "decide"
        });
        let dir2 = dir.clone();
        let committed = run_threads(2, move |comm| {
            let rank = comm.rank();
            let store = CkptStore::new(&dir2, 4).expect("store");
            comm.barrier();
            let full = |_| {
                vec![(
                    "spins".to_string(),
                    SectionPlan::Payload(vec![rank as u8; 8]),
                )]
            };
            let (_, committed) =
                qmc_ckpt::coord::write_coordinated_sections(comm, &store, 1, true, full);
            assert!(committed, "round 1 commits everywhere");
            // Round 2: rank 0 decides FULL. The mutant rank ignores the
            // broadcast decision and plans from its *local* guess
            // ("nothing changed since my last write → send Clean").
            let plan = move |broadcast_delta: bool| {
                let delta_guess = if honor_broadcast || rank == 0 {
                    broadcast_delta
                } else {
                    true // LocalDecision bug: private guess, not the broadcast
                };
                let section = if delta_guess {
                    SectionPlan::Clean
                } else {
                    SectionPlan::Payload(vec![rank as u8; 8])
                };
                vec![("spins".to_string(), section)]
            };
            let (_, committed) =
                qmc_ckpt::coord::write_coordinated_sections(comm, &store, 2, true, plan);
            committed
        });
        let store = CkptStore::new(&dir, 4).expect("reopen");
        if honor_broadcast {
            assert!(committed.iter().all(|&c| c), "control commits round 2");
            assert_eq!(store.generations(), vec![1, 2]);
        } else {
            // The real writer detects the modeled divergence: a Clean
            // section in a full archive is refused, rank-consistently.
            assert!(
                committed.iter().all(|&c| !c),
                "mutant round 2 must not commit"
            );
            assert_eq!(store.generations(), vec![1]);
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
