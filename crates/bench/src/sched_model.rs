//! The job lifecycle under the explorer: a [`qmc_verify::Model`] whose
//! state *is* a [`qmc_serve::Sched`] and whose actions are the calls
//! `qmc_serve::server` makes on it under the scheduler lock.
//!
//! Nothing here restates admission, dispatch order, requeue, the retry
//! cap or delivery. A transition clones the scheduler and calls
//! `submit`, `next_work`, `settle`, `claim` or sets `draining`, as a
//! connection handler, a worker or the admin does; the model adds what
//! the server keeps outside the scheduler (which worker holds which job,
//! which workers have left, which replies were delivered) and the
//! processes that make the calls: one client per tenant, which submits
//! and awaits, one process per worker, the admin. Fault actions are an
//! attempt ending `Killed` or `Failed`. A seeded bug is a way of
//! *misusing* the one implementation ([`Misuse`]).
//!
//! Invariants, read off the real records in every reached state:
//! per-tenant slot-holding jobs (active, or terminal and undelivered)
//! within the quota; namespace keys unique among live jobs; `Running`
//! records ↔ busy workers one to one (a `Running` job no worker holds is
//! lost); the pending queue holds exactly the `Queued` jobs, once each;
//! once every worker has left, no job is still `Queued` or `Running`; a
//! record leaves the table only when its terminal reply is delivered, and
//! every accepted id is either still held or was delivered exactly once.
//!
//! The search is every reachable state once ([`explore_states`]), not
//! the partial-order reduction: these actions share one lock, nothing is
//! claimed to commute (`dependent` says so), and with 2 tenants × 2 jobs,
//! 2 workers and 2 faults the interleavings pass 20 million transitions
//! unfinished where the states need 266 598.

use qmc_obs::Registry;
use qmc_serve::{JobKind, JobObservables, JobSpec, JobState, Next, Outcome, Sched, TenantQuota};
use qmc_verify::{explore_states, Budget, Model, Outcome as Explored};
use std::hash::{Hash, Hasher};

/// Seeded bugs: ways a worker loop or a handler could drive [`Sched`]
/// wrongly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misuse {
    /// A killed worker frees itself without settling the attempt: the
    /// record stays `Running` with no executor.
    ForgetRequeue,
    /// The handler admits with an unbounded quota.
    SkipQuota,
    /// A worker that finds the drain begun leaves without asking for
    /// work, so jobs accepted before the drain stay `Queued` for ever.
    ExitOnDrain,
    /// The handler delivers and claims a job before it is terminal: the
    /// client hears its job is over while the record stays held.
    ClaimUnfinished,
}

/// One explored instance of the lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct SchedModel {
    /// Number of tenants (one submitting client each).
    pub tenants: usize,
    /// Jobs each tenant submits, in order; a tenant's second job gets
    /// priority 1 so dispatch order is exercised.
    pub jobs_per_tenant: usize,
    /// Worker pool size.
    pub workers: usize,
    /// Per-tenant active-job quota.
    pub quota: usize,
    /// Retry cap handed to [`Sched::settle`].
    pub max_attempts: u32,
    /// When true a tenant's jobs all share one name, so a second submit
    /// while the first is live must be refused.
    pub ns_collide: bool,
    /// Optional seeded bug.
    pub misuse: Option<Misuse>,
}

impl SchedModel {
    /// A correctly driven scheduler under the server's retry cap.
    pub fn new(tenants: usize, jobs_per_tenant: usize, workers: usize, quota: usize) -> Self {
        SchedModel {
            tenants,
            jobs_per_tenant,
            workers,
            quota,
            max_attempts: qmc_serve::MAX_ATTEMPTS,
            ns_collide: false,
            misuse: None,
        }
    }

    /// Search every reachable state of this instance, remembering each
    /// by its [`SchedState::key`].
    pub fn explore(&self, budget: Budget) -> Explored<SchedAction> {
        explore_states(self, budget, SchedState::key)
    }

    /// Model job `tenant * jobs_per_tenant + slot`; the seed carries the
    /// index so a record says which job it is.
    fn spec(&self, job: usize) -> JobSpec {
        let slot = job % self.jobs_per_tenant;
        JobSpec {
            tenant: format!("t{}", job / self.jobs_per_tenant),
            name: if self.ns_collide {
                "shared".into()
            } else {
                format!("job-{slot}")
            },
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
            priority: u8::from(slot == 1),
            ckpt_every: 0,
        }
    }
}

/// One worker thread of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Worker {
    /// Waiting on the scheduler.
    Idle,
    /// Running an attempt of this job.
    Busy(u64),
    /// Left the pool ([`Next::Exit`]).
    Exited,
}

/// The scheduler plus what the server keeps outside it.
#[derive(Clone)]
pub struct SchedState {
    /// The real scheduler.
    pub sched: Sched,
    /// Per tenant, how many of its jobs its client has submitted.
    pub submitted: Vec<usize>,
    /// The worker table.
    pub workers: Vec<Worker>,
    /// Per accepted id, in id order, how many terminal replies its
    /// tenant's handler has delivered (and claimed the record after).
    pub delivered: Vec<u8>,
}

impl SchedState {
    /// The job tenant `t`'s handler delivers next. The client awaits its
    /// jobs in the order it submitted them, so that is its oldest held
    /// job, once its terminal reply is ready — or, misused, at once.
    fn deliverable(&self, t: usize, misuse: Option<Misuse>) -> Option<u64> {
        let tenant = format!("t{t}");
        let (id, rec) = self
            .sched
            .jobs()
            .find(|(_, rec)| rec.spec.tenant == tenant)?;
        (rec.state.is_terminal() || misuse == Some(Misuse::ClaimUnfinished)).then_some(id)
    }

    /// Everything that decides what a state can still do, and nothing
    /// else, as bytes (an instance is small: each count fits one): the
    /// submissions made per tenant; how many accepted ids are gone from
    /// the table without having been delivered exactly once; per held job
    /// which one it is, its state, its attempts, how often the pending
    /// queue lists it and how often it was delivered; the drain flag; the
    /// worker table sorted, a busy worker naming its job by rank among
    /// the held ones. Left out: counters and timestamps; the order of the
    /// pending vector (dispatch picks by priority then id, unique per
    /// job); the ids themselves — only their order among held jobs
    /// decides anything, so whether an earlier submission was delivered
    /// or refused no longer matters once it is gone; and which worker is
    /// which — the pool's threads run one loop and no invariant names
    /// one, so the table is compared as a multiset.
    pub fn key(&self) -> Vec<u8> {
        let byte = |n: u64| u8::try_from(n).expect("an explored instance is small");
        let mut key: Vec<u8> = self.submitted.iter().map(|n| byte(*n as u64)).collect();
        let gone_wrong = (self.delivered.iter().enumerate())
            .filter(|(id, n)| self.sched.job(*id as u64).is_none() && **n != 1)
            .count();
        key.push(byte(gone_wrong as u64));
        for (id, rec) in self.sched.jobs() {
            let queued = self.sched.pending().filter(|p| *p == id).count();
            let attempts = byte(rec.attempts.into());
            key.extend([
                byte(rec.spec.seed),
                rec.state as u8,
                attempts,
                byte(queued as u64),
                self.delivered[id as usize],
            ]);
        }
        key.push(self.sched.draining.into());
        let at = key.len();
        key.extend(self.workers.iter().map(|w| match w {
            Worker::Idle => 0,
            Worker::Exited => 1,
            Worker::Busy(id) => match self.sched.jobs().position(|(held, _)| held == *id) {
                Some(rank) => 2 + byte(rank as u64),
                None => u8::MAX,
            },
        }));
        key[at..].sort_unstable();
        key
    }
}

impl PartialEq for SchedState {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for SchedState {}

impl Hash for SchedState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.key().hash(h);
    }
}

/// How an attempt ended — the [`Outcome`] a worker hands to
/// [`Sched::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Ran to completion.
    Done,
    /// Cannot proceed and a retry would not help (fault budget).
    Failed,
    /// The worker died mid-job (fault budget).
    Killed,
    /// Checkpointed at a sweep boundary because the drain flag is up.
    Drained,
}

impl End {
    fn outcome(self) -> Outcome {
        match self {
            End::Done => Outcome::Done {
                obs: JobObservables::default(),
                metrics: Registry::new(),
                respawns: 0,
                resized: false,
            },
            End::Failed => Outcome::Failed {
                reason: "injected failure".into(),
            },
            End::Killed => Outcome::Killed { at_sweep: 0 },
            End::Drained => Outcome::Drained { at_sweep: 0 },
        }
    }
}

/// One scheduler-lock-held region of the server; a counterexample
/// prints these as they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// Tenant `.0`'s handler submits its next job.
    Submit(usize),
    /// Idle worker `.0` asks the scheduler what to do.
    Next(usize),
    /// Worker `.0`'s attempt ended, and how.
    Settle(usize, End),
    /// Tenant `.0`'s handler delivers the terminal reply of its oldest
    /// held job, once finished, and claims the record.
    Claim(usize),
    /// The admin begins a graceful drain.
    Drain,
}

impl Model for SchedModel {
    type State = SchedState;
    type Action = SchedAction;

    fn init(&self) -> SchedState {
        SchedState {
            sched: Sched::default(),
            submitted: vec![0; self.tenants],
            workers: vec![Worker::Idle; self.workers],
            delivered: Vec::new(),
        }
    }

    fn actions(&self, s: &SchedState) -> Vec<SchedAction> {
        let mut acts = Vec::new();
        for (t, n) in s.submitted.iter().enumerate() {
            if *n < self.jobs_per_tenant {
                acts.push(SchedAction::Submit(t));
            }
            if s.deliverable(t, self.misuse).is_some() {
                acts.push(SchedAction::Claim(t));
            }
        }
        for (w, slot) in s.workers.iter().enumerate() {
            match slot {
                // A worker told to wait sleeps on the condvar: asking
                // again only changes anything once one of these holds.
                Worker::Idle if s.sched.pending_len() > 0 || s.sched.draining => {
                    acts.push(SchedAction::Next(w));
                }
                Worker::Busy(_) => {
                    // `run_job` reports `Drained` only off the stop flag.
                    let ends = [End::Done, End::Failed, End::Killed, End::Drained]
                        .into_iter()
                        .filter(|end| *end != End::Drained || s.sched.draining);
                    acts.extend(ends.map(|end| SchedAction::Settle(w, end)));
                }
                Worker::Idle | Worker::Exited => {}
            }
        }
        if !s.sched.draining {
            acts.push(SchedAction::Drain);
        }
        acts
    }

    fn apply(&self, s: &SchedState, a: &SchedAction) -> SchedState {
        let mut t = s.clone();
        match *a {
            SchedAction::Submit(tenant) => {
                let job = tenant * self.jobs_per_tenant + t.submitted[tenant];
                t.submitted[tenant] += 1;
                let max_active = match self.misuse {
                    Some(Misuse::SkipQuota) => usize::MAX,
                    _ => self.quota,
                };
                // A refusal (quota, namespace, draining) leaves no record.
                let accepted = t
                    .sched
                    .submit(self.spec(job), &TenantQuota { max_active }, &[]);
                if accepted.is_ok() {
                    t.delivered.push(0);
                }
            }
            SchedAction::Next(w) => {
                let exits_unasked = self.misuse == Some(Misuse::ExitOnDrain) && t.sched.draining;
                t.workers[w] = if exits_unasked {
                    Worker::Exited
                } else {
                    match t.sched.next_work() {
                        Next::Run(id) => Worker::Busy(id),
                        Next::Exit => Worker::Exited,
                        Next::Wait => unreachable!("enabled only with work queued or a drain"),
                    }
                };
            }
            SchedAction::Settle(w, end) => {
                let Worker::Busy(id) = t.workers[w] else {
                    unreachable!("settle enabled only for a busy worker");
                };
                t.workers[w] = Worker::Idle;
                let forgets = self.misuse == Some(Misuse::ForgetRequeue) && end == End::Killed;
                if !forgets {
                    t.sched.settle(id, end.outcome(), self.max_attempts);
                }
            }
            SchedAction::Claim(tenant) => {
                let id = s.deliverable(tenant, self.misuse).expect("enabled");
                t.delivered[id as usize] += 1;
                t.sched.claim(id);
            }
            SchedAction::Drain => t.sched.draining = true,
        }
        t
    }

    fn invariant(&self, s: &SchedState) -> Result<(), String> {
        for (id, delivered) in s.delivered.iter().enumerate() {
            let held = s.sched.job(id as u64);
            match (held, delivered) {
                (None, 1) | (Some(_), 0) => {}
                (None, 0) => return Err(format!("job {id} left the table undelivered")),
                (Some(rec), _) => {
                    return Err(format!(
                        "job {id} was delivered while {:?}, and its record is still held",
                        rec.state
                    ))
                }
                (None, n) => return Err(format!("job {id} was delivered {n} times")),
            }
        }
        for (a, ra) in s.sched.jobs() {
            let tenant = &ra.spec.tenant;
            let held = (s.sched.jobs())
                .filter(|(_, r)| r.spec.tenant == *tenant && r.state.holds_slot())
                .count();
            if held > self.quota {
                return Err(format!(
                    "tenant {tenant} has {held} undelivered or active jobs, quota is {}",
                    self.quota
                ));
            }
            if let Some((b, _)) = s.sched.jobs().find(|(b, rb)| {
                *b > a && ra.state.is_live() && rb.state.is_live() && ra.ns_key == rb.ns_key
            }) {
                return Err(format!(
                    "jobs {a} and {b} are both live under namespace key {}",
                    ra.ns_key
                ));
            }
            let holders = s.workers.iter().filter(|w| **w == Worker::Busy(a)).count();
            if holders != usize::from(ra.state == JobState::Running) {
                let lost = if holders == 0 {
                    " — the job is lost"
                } else {
                    ""
                };
                return Err(format!(
                    "job {a} is recorded {:?} and {holders} worker(s) are executing it{lost}",
                    ra.state
                ));
            }
            let queued = s.sched.pending().filter(|id| *id == a).count();
            if queued != usize::from(ra.state == JobState::Queued) {
                return Err(format!(
                    "job {a} is {:?} and appears {queued} time(s) in the pending queue",
                    ra.state
                ));
            }
            if ra.state.is_active() && s.workers.iter().all(|w| *w == Worker::Exited) {
                return Err(format!(
                    "job {a} left {:?} after every worker exited",
                    ra.state
                ));
            }
        }
        Ok(())
    }

    fn pid(&self, a: &SchedAction) -> usize {
        match *a {
            SchedAction::Submit(tenant) | SchedAction::Claim(tenant) => tenant,
            SchedAction::Next(w) | SchedAction::Settle(w, _) => self.tenants + w,
            SchedAction::Drain => self.tenants + self.workers,
        }
    }

    fn dependent(&self, _: &SchedAction, _: &SchedAction) -> bool {
        true
    }

    fn is_fault(&self, a: &SchedAction) -> bool {
        matches!(a, SchedAction::Settle(_, End::Failed | End::Killed))
    }

    fn is_final(&self, s: &SchedState) -> bool {
        // A drain is always on offer until taken, and a draining idle
        // worker can always ask and leave: a run is over when every
        // client has heard back and the pool is empty. That no job was
        // left behind is the invariant's last clause, and no finished
        // result is left undelivered in a quiescent state: its claim
        // would still be enabled.
        s.submitted.iter().all(|n| *n == self.jobs_per_tenant)
            && s.workers.iter().all(|w| *w == Worker::Exited)
    }
}
