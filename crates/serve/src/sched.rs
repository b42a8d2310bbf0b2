//! Scheduler state machine: admission (validation + tenant quota),
//! priority dispatch, requeue-on-kill, delivery, and per-tenant metrics.
//!
//! This module is pure bookkeeping — no sockets, no threads — so every
//! transition is unit-testable. The server wraps one [`Sched`] in a
//! mutex and drives it from the acceptor, the connection handlers, and
//! the worker pool; each lock-held decision of a worker is one method
//! here ([`Sched::next_work`], [`Sched::settle`]), a handler that has
//! written a job's terminal reply calls [`Sched::claim`], and the
//! state-space explorer (`qmc_bench::sched_model`) calls the same methods
//! on a clone per transition, so what is explored is what runs.
//!
//! The table holds only what a client can still claim: a record is
//! dropped once its result (or failure) has been delivered, and a
//! tenant's undelivered results count against its quota beside its
//! queued and running jobs. Memory is therefore bounded by the quotas,
//! not by how many jobs the server has ever accepted, and admission
//! reads two indexes kept in step with the table instead of walking it.

use crate::job::{JobObservables, JobSpec};
use crate::run::Outcome;
use qmc_obs::{HealthMonitor, HealthSnapshot, RankObs, Registry};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuota {
    /// Maximum jobs a tenant may hold a slot with: queued, running, or
    /// finished with a result not yet delivered. Submissions beyond it
    /// are rejected, which is what keeps every server-side queue and the
    /// job table bounded against a hostile client — one that submits and
    /// never awaits is refused instead of growing the table.
    pub max_active: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { max_active: 64 }
    }
}

/// A deterministic injected worker death: the `index`-th accepted job
/// dies at `at_sweep` on its first attempt.
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// Submission-order job id (ids are assigned sequentially).
    pub job: u64,
    /// Sweep boundary of the death.
    pub at_sweep: u64,
}

/// Lifecycle of an accepted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker (also the state after a requeue).
    Queued,
    /// A worker is sweeping it.
    Running,
    /// Finished; the result is held until an `Await` delivers it.
    Done,
    /// Checkpointed and parked by a server drain. Never claimed: the
    /// record is what a restarted server resumes.
    Paused,
    /// An attempt died in a way a retry cannot fix (restore error,
    /// worker panic); the reason is held until an `Await` delivers it.
    Failed,
}

impl JobState {
    /// Queued or running: a worker still owes the job an attempt.
    pub fn is_active(self) -> bool {
        matches!(self, JobState::Queued | JobState::Running)
    }

    /// Done or Failed: the job's terminal reply is ready, and once it is
    /// delivered the record is claimed ([`Sched::claim`]).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }

    /// Holds a slot of its tenant's quota: active, or terminal and not
    /// yet claimed (a claimed record is gone). A parked job holds none.
    pub fn holds_slot(self) -> bool {
        self != JobState::Paused
    }

    /// Holds its checkpoint namespace: active, or parked by a drain with
    /// the generations a restarted server resumes from. `Done` and
    /// `Failed` release the name and the worker removes the directory.
    pub fn is_live(self) -> bool {
        self.is_active() || self == JobState::Paused
    }
}

/// What an idle worker does next ([`Sched::next_work`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run one attempt of this job (it is now `Running`).
    Run(u64),
    /// Nothing is queued; wait for a submission, a requeue or a drain.
    Wait,
    /// Draining and nothing is queued: leave the pool.
    Exit,
}

/// One progress snapshot retained for streaming.
#[derive(Debug, Clone, Copy)]
pub struct SnapRec {
    /// Monotonic per-job sequence number (1-based).
    pub seq: u64,
    /// Sweeps completed.
    pub sweep: u64,
    /// Total sweep budget.
    pub total: u64,
    /// Running mean energy (NaN before measurement starts).
    pub mean_energy: f64,
    /// Attempt that produced it (> 1 after a requeue).
    pub attempt: u32,
}

/// Everything the server tracks about one accepted job.
#[derive(Debug, Clone)]
pub struct JobRec {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Sanitized checkpoint-directory key of `spec.namespace()`; two
    /// jobs with equal keys would resume each other's generations, so
    /// admission refuses the collision while the first is live.
    pub ns_key: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Attempts started (1 on first dispatch).
    pub attempts: u32,
    /// Armed deterministic kill for the *first* attempt only.
    pub kill_at: Option<u64>,
    /// Recent snapshots (bounded ring; old entries are dropped).
    pub snapshots: VecDeque<SnapRec>,
    /// Next snapshot sequence number to assign.
    pub next_seq: u64,
    /// Final observables and attempt count, once done.
    pub result: Option<(JobObservables, u32)>,
    /// Why the job failed, once [`JobState::Failed`].
    pub error: Option<String>,
}

/// How many snapshots a job retains for late-joining `Await` streams.
const SNAPSHOT_RING: usize = 64;

/// The scheduler: job table, pending queue, counters, tenant health.
#[derive(Default, Clone)]
pub struct Sched {
    /// Held records by id: every accepted job a client can still claim.
    /// A delivered result's record is dropped ([`Sched::claim`]); ids are
    /// never reused. Ordered, so that whoever walks the records (the
    /// explorer builds its state key that way) sees them in id order
    /// whatever the run. Behind `Arc` so that a clone of the scheduler —
    /// the explorer takes one per transition — shares the records and
    /// copies only the one it changes; the server never clones, so there
    /// `make_mut` never copies.
    jobs: BTreeMap<u64, Arc<JobRec>>,
    /// The id the next accepted job gets.
    next_id: u64,
    /// Per tenant, how many held records take a slot of its quota
    /// ([`JobState::holds_slot`]); a tenant holding none has no entry.
    slots: BTreeMap<String, usize>,
    /// Checkpoint namespace keys of the live jobs
    /// ([`JobState::is_live`]). Only ever probed, never walked, so its
    /// order cannot reach the explorer; hashed rather than ordered
    /// because an ordered probe chases a string per level, which doubles
    /// a submission's cost with 10 000 jobs held.
    live_ns: HashSet<String>,
    /// `(priority, id)` of each job awaiting a worker: dispatch picks
    /// from this alone, without a lookup in the table per candidate.
    pending: Vec<(u8, u64)>,
    /// Set once a drain begins; rejects new submissions.
    pub draining: bool,
    /// Server counters (`serve.*`) and absorbed per-tenant registries.
    pub obs: RankObs,
    /// Per-tenant online health over completed-job mean energies.
    tenant_health: Vec<(String, HealthMonitor)>,
}

impl Sched {
    /// The record for `id`, if it is held: accepted and not yet claimed.
    pub fn job(&self, id: u64) -> Option<&JobRec> {
        self.jobs.get(&id).map(|rec| &**rec)
    }

    /// Every held record, in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (u64, &JobRec)> + Clone + '_ {
        self.jobs.iter().map(|(id, rec)| (*id, &**rec))
    }

    /// A held record, by internal invariant: only a terminal job is ever
    /// claimed, so any id the scheduler still acts on is held.
    fn rec(&self, id: u64) -> &JobRec {
        self.job(id)
            .expect("only terminal jobs are claimed; a live id keeps its record")
    }

    fn rec_mut(&mut self, id: u64) -> &mut JobRec {
        Arc::make_mut(
            self.jobs
                .get_mut(&id)
                .expect("only terminal jobs are claimed; a live id keeps its record"),
        )
    }

    /// Drop a delivered job's record: the connection handler calls this
    /// once it has written the job's terminal reply (the `Result` of a
    /// Done job, the `Error` of a Failed one). Frees the tenant's quota
    /// slot. A record that is not terminal — queued, running, or parked
    /// by a drain for a restarted server to resume — is left alone.
    /// Returns whether a record was dropped.
    pub fn claim(&mut self, id: u64) -> bool {
        if !self.job(id).is_some_and(|rec| rec.state.is_terminal()) {
            return false;
        }
        let rec = self.jobs.remove(&id).expect("held");
        self.release_slot(&rec.spec.tenant);
        true
    }

    /// Give back one of `tenant`'s quota slots.
    fn release_slot(&mut self, tenant: &str) {
        let held = self.slots.get_mut(tenant).expect("a held job has a slot");
        *held -= 1;
        if *held == 0 {
            self.slots.remove(tenant);
        }
    }

    /// Admission: validation, drain check, tenant quota. On success the
    /// job is queued and its id returned.
    pub fn submit(
        &mut self,
        spec: JobSpec,
        quota: &TenantQuota,
        kills: &[KillSpec],
    ) -> Result<u64, String> {
        self.obs.counter_add("serve.jobs_submitted", 1);
        if self.draining {
            self.obs.counter_add("serve.jobs_rejected", 1);
            return Err("server is draining".into());
        }
        if let Err(reason) = spec.validate() {
            self.obs.counter_add("serve.jobs_rejected", 1);
            return Err(reason);
        }
        let held = self.slots.get(&spec.tenant).copied().unwrap_or(0);
        if held >= quota.max_active {
            self.obs.counter_add("serve.jobs_rejected", 1);
            return Err(format!(
                "tenant {} quota exceeded ({held} active or undelivered, limit {})",
                spec.tenant, quota.max_active
            ));
        }
        // Namespace uniqueness: the checkpoint directory is keyed by the
        // *sanitized* tenant/name, so distinct names can still collide
        // on disk ("job a" vs "job_a"). Two live jobs sharing a
        // namespace would resume each other's generations; refuse the
        // second while the first is Queued/Running/Paused. (Done and
        // Failed jobs release the name — the worker removes their
        // checkpoint directory, so reuse starts from a clean store.)
        let ns_key = qmc_ckpt::namespace_key(&spec.namespace());
        if self.live_ns.contains(&ns_key) {
            self.obs.counter_add("serve.jobs_rejected", 1);
            return Err(format!(
                "job namespace '{}' collides with a live job's checkpoint \
                 directory ({ns_key})",
                spec.namespace()
            ));
        }
        let (id, priority) = (self.next_id, spec.priority);
        self.next_id += 1;
        let kill_at = kills.iter().find(|k| k.job == id).map(|k| k.at_sweep);
        *self.slots.entry(spec.tenant.clone()).or_default() += 1;
        self.live_ns.insert(ns_key.clone());
        self.jobs.insert(
            id,
            Arc::new(JobRec {
                spec,
                ns_key,
                state: JobState::Queued,
                attempts: 0,
                kill_at,
                snapshots: VecDeque::new(),
                next_seq: 1,
                result: None,
                error: None,
            }),
        );
        // Bounded by construction: admission above enforces the tenant
        // quota before anything is queued.
        self.pending.push((priority, id));
        Ok(id)
    }

    /// Pop the next job to run: highest priority first, then oldest id
    /// (a requeued job keeps its original id, so it goes back to the
    /// front of its priority class).
    pub fn pop_next(&mut self) -> Option<u64> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(_, &(priority, id))| (priority, std::cmp::Reverse(id)))?
            .0;
        let (_, id) = self.pending.swap_remove(best);
        let rec = self.rec_mut(id);
        rec.state = JobState::Running;
        rec.attempts += 1;
        Some(id)
    }

    /// What an idle worker does next. Dispatch comes before the drain
    /// check on purpose: a drain still runs every queued job to its
    /// first sweep boundary, where the attempt checkpoints and parks it,
    /// so no accepted job is left `Queued` when the pool winds down.
    pub fn next_work(&mut self) -> Next {
        match self.pop_next() {
            Some(id) => Next::Run(id),
            None if self.draining => Next::Exit,
            None => Next::Wait,
        }
    }

    /// Apply the outcome of the attempt a worker just ran and return the
    /// job's new state. What the worker owes it: a `Queued` job needs a
    /// worker woken, and a job that is no longer [`JobState::is_live`]
    /// has released its namespace, so its checkpoint directory goes.
    /// `max_attempts` caps how often a killed job is requeued.
    pub fn settle(&mut self, id: u64, outcome: Outcome, max_attempts: u32) -> JobState {
        match outcome {
            Outcome::Done {
                obs,
                metrics,
                respawns,
                resized,
            } => {
                // A PT attempt that rode through a worker death itself
                // (respawn and/or ladder resize) completes like any
                // other — only the elastic counters record the event.
                self.note_elastic(respawns, resized);
                self.complete(id, obs, &metrics);
            }
            Outcome::Killed { at_sweep } => {
                self.requeue_capped(
                    id,
                    max_attempts,
                    format!("worker killed at sweep {at_sweep}"),
                );
            }
            Outcome::Drained { .. } => self.pause(id),
            Outcome::Failed { reason } => self.fail(id, reason),
        }
        self.rec(id).state
    }

    /// Ids awaiting a worker, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = u64> + '_ {
        self.pending.iter().map(|&(_, id)| id)
    }

    /// Number of jobs awaiting a worker.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Record a progress snapshot (bounded ring per job).
    pub fn record_snapshot(&mut self, id: u64, sweep: u64, total: u64, mean_energy: f64) {
        let rec = self.rec_mut(id);
        let snap = SnapRec {
            seq: rec.next_seq,
            sweep,
            total,
            mean_energy,
            attempt: rec.attempts,
        };
        rec.next_seq += 1;
        if rec.snapshots.len() == SNAPSHOT_RING {
            rec.snapshots.pop_front();
        }
        rec.snapshots.push_back(snap);
        self.obs.counter_add("serve.snapshots", 1);
    }

    /// A worker finished the job: store the result, fold the engine's
    /// registry into the tenant namespace, feed tenant health.
    fn complete(&mut self, id: u64, obs: JobObservables, engine_metrics: &Registry) {
        self.release_name(id);
        let rec = self.rec_mut(id);
        rec.state = JobState::Done;
        let attempts = rec.attempts;
        let tenant = rec.spec.tenant.clone();
        let mean = obs
            .energy
            .first()
            .filter(|e| !e.is_empty())
            .map(|e| e.iter().sum::<f64>() / e.len() as f64);
        rec.result = Some((obs, attempts));
        self.obs
            .absorb_registry_prefixed(engine_metrics, &format!("tenant.{tenant}."));
        self.obs.counter_add("serve.jobs_completed", 1);
        self.obs
            .counter_add(&format!("tenant.{tenant}.jobs_completed"), 1);
        if let Some(mean) = mean {
            let idx = match self.tenant_health.iter().position(|(t, _)| *t == tenant) {
                Some(i) => i,
                None => {
                    self.tenant_health.push((tenant, HealthMonitor::new(4)));
                    self.tenant_health.len() - 1
                }
            };
            self.tenant_health[idx].1.push(mean);
        }
    }

    /// A worker died running the job: put it back in the queue (the
    /// armed kill is disarmed — a requeue retries for real).
    fn requeue(&mut self, id: u64) {
        let rec = self.rec_mut(id);
        rec.state = JobState::Queued;
        rec.kill_at = None;
        let priority = rec.spec.priority;
        // Re-admission is not re-checked against the quota: the job
        // already holds its admission slot (it never left Queued|Running
        // from the tenant's accounting perspective).
        self.pending.push((priority, id));
        self.obs.counter_add("serve.requeues", 1);
        self.obs.counter_add("serve.worker_kills", 1);
    }

    /// Requeue with a retry cap: if the job has already started
    /// `max_attempts` attempts, transition it to [`JobState::Failed`]
    /// with `last_error` instead of queueing attempt `max_attempts + 1`.
    /// Returns `true` if the job was requeued, `false` if it was failed.
    fn requeue_capped(&mut self, id: u64, max_attempts: u32, last_error: String) -> bool {
        if self.rec(id).attempts >= max_attempts {
            self.obs.counter_add("serve.worker_kills", 1);
            self.fail(
                id,
                format!("retry cap reached ({max_attempts} attempts): {last_error}"),
            );
            return false;
        }
        self.requeue(id);
        true
    }

    /// A PT world rode through a worker death inside the attempt: record
    /// how it survived (`respawns` fresh worlds resumed from the store
    /// and/or one ladder `resize`) without the job ever leaving
    /// `Running`.
    fn note_elastic(&mut self, respawns: u32, resized: bool) {
        if respawns > 0 {
            self.obs.counter_add("serve.respawns", respawns as u64);
        }
        if resized {
            self.obs.counter_add("serve.resizes", 1);
        }
    }

    /// A drain checkpointed the job mid-run and parked it: it keeps its
    /// namespace for a restarted server to resume from, but not its
    /// quota slot.
    fn pause(&mut self, id: u64) {
        let rec = self.rec_mut(id);
        rec.state = JobState::Paused;
        let tenant = rec.spec.tenant.clone();
        self.release_slot(&tenant);
        self.obs.counter_add("serve.jobs_drained", 1);
    }

    /// An attempt died in a way a retry cannot fix (restore error,
    /// worker panic): park the job as Failed with the reason, releasing
    /// its namespace instead of looping the failure. The quota slot is
    /// freed when the reason is delivered.
    fn fail(&mut self, id: u64, reason: String) {
        self.release_name(id);
        let rec = self.rec_mut(id);
        rec.state = JobState::Failed;
        rec.error = Some(reason);
        self.obs.counter_add("serve.jobs_failed", 1);
    }

    /// A job leaving [`JobState::is_live`] gives its namespace back.
    fn release_name(&mut self, id: u64) {
        let released = self.live_ns.remove(&self.jobs[&id].ns_key);
        debug_assert!(released, "a live job holds its namespace");
    }

    /// Counters and health snapshots, optionally filtered to one
    /// tenant's namespace (plus the global `serve.*` counters).
    pub fn stats(&self, tenant: &str) -> crate::TenantStats {
        let keep = |name: &str| {
            tenant.is_empty()
                || name.starts_with("serve.")
                || name.starts_with(&format!("tenant.{tenant}."))
        };
        let mut counters: Vec<(String, u64)> = self
            .obs
            .counters
            .iter()
            .filter(|(n, _)| keep(n))
            .cloned()
            .collect();
        counters.sort();
        let health = self
            .tenant_health
            .iter()
            .filter(|(t, _)| tenant.is_empty() || *t == tenant)
            .map(|(t, hm)| HealthSnapshot::of(&format!("tenant.{t}.energy"), hm))
            .collect();
        (counters, health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn spec(tenant: &str, name: &str, priority: u8) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            name: name.into(),
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
            sweeps: 8,
            seed: 1,
            priority,
            ckpt_every: 0,
        }
    }

    #[test]
    fn quota_rejects_excess_submissions() {
        let mut sched = Sched::default();
        let quota = TenantQuota { max_active: 2 };
        assert!(sched.submit(spec("a", "j1", 0), &quota, &[]).is_ok());
        assert!(sched.submit(spec("a", "j2", 0), &quota, &[]).is_ok());
        let err = sched.submit(spec("a", "j3", 0), &quota, &[]).unwrap_err();
        assert!(err.contains("quota"), "{err}");
        // Another tenant is unaffected.
        assert!(sched.submit(spec("b", "j1", 0), &quota, &[]).is_ok());
        assert_eq!(sched.obs.counter("serve.jobs_rejected"), 1);
    }

    #[test]
    fn dispatch_is_priority_then_fifo_and_requeue_goes_first() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let lo1 = sched.submit(spec("a", "lo1", 1), &quota, &[]).unwrap();
        let hi = sched.submit(spec("a", "hi", 9), &quota, &[]).unwrap();
        let lo2 = sched.submit(spec("a", "lo2", 1), &quota, &[]).unwrap();
        assert_eq!(sched.pop_next(), Some(hi));
        assert_eq!(sched.pop_next(), Some(lo1));
        // A kill requeues lo1; it outranks lo2 (same priority, older id).
        sched.requeue(lo1);
        assert_eq!(sched.pop_next(), Some(lo1));
        assert_eq!(sched.pop_next(), Some(lo2));
        assert_eq!(sched.pop_next(), None);
        assert_eq!(sched.obs.counter("serve.requeues"), 1);
    }

    #[test]
    fn kills_arm_only_the_named_job_and_disarm_on_requeue() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let kills = [KillSpec {
            job: 1,
            at_sweep: 5,
        }];
        let a = sched.submit(spec("a", "a", 0), &quota, &kills).unwrap();
        let b = sched.submit(spec("a", "b", 0), &quota, &kills).unwrap();
        assert_eq!(sched.job(a).unwrap().kill_at, None);
        assert_eq!(sched.job(b).unwrap().kill_at, Some(5));
        sched.requeue(b);
        assert_eq!(sched.job(b).unwrap().kill_at, None, "retry runs for real");
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let id = sched.submit(spec("a", "a", 0), &quota, &[]).unwrap();
        for s in 0..(SNAPSHOT_RING as u64 + 40) {
            sched.record_snapshot(id, s, 1000, f64::NAN);
        }
        let rec = sched.job(id).unwrap();
        assert_eq!(rec.snapshots.len(), SNAPSHOT_RING);
        // Sequence numbers stay monotonic across the dropped prefix.
        assert_eq!(rec.snapshots.back().unwrap().seq, SNAPSHOT_RING as u64 + 40);
    }

    #[test]
    fn stats_filter_isolates_tenants() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let a = sched.submit(spec("alice", "a", 0), &quota, &[]).unwrap();
        let b = sched.submit(spec("bob", "b", 0), &quota, &[]).unwrap();
        sched.pop_next();
        sched.pop_next();
        let mut reg = Registry::new();
        reg.add_named("accepted", 5);
        sched.complete(
            a,
            JobObservables {
                energy: vec![vec![-1.0]],
                extra: vec![],
            },
            &reg,
        );
        sched.complete(
            b,
            JobObservables {
                energy: vec![vec![-2.0]],
                extra: vec![],
            },
            &reg,
        );
        let (counters, health) = sched.stats("alice");
        assert!(counters.iter().any(|(n, _)| n == "tenant.alice.accepted"));
        assert!(
            !counters.iter().any(|(n, _)| n.starts_with("tenant.bob.")),
            "bob's counters leaked into alice's view"
        );
        assert_eq!(health.len(), 1);
        assert_eq!(health[0].name, "tenant.alice.energy");
        assert_eq!(health[0].mean, -1.0);
    }

    #[test]
    fn namespace_collisions_are_rejected_while_live() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let id = sched.submit(spec("a", "job 1", 0), &quota, &[]).unwrap();
        // Same sanitized checkpoint directory, different literal name.
        let err = sched
            .submit(spec("a", "job_1", 0), &quota, &[])
            .unwrap_err();
        assert!(err.contains("collides"), "{err}");
        // Another tenant's identical job name is a different namespace.
        assert!(sched.submit(spec("b", "job 1", 0), &quota, &[]).is_ok());
        // Once the first job is done its namespace is free again.
        sched.pop_next();
        sched.complete(id, JobObservables::default(), &Registry::new());
        assert!(sched.submit(spec("a", "job_1", 0), &quota, &[]).is_ok());
    }

    #[test]
    fn failed_jobs_release_quota_and_keep_the_reason() {
        let mut sched = Sched::default();
        let quota = TenantQuota { max_active: 1 };
        let id = sched.submit(spec("a", "j1", 0), &quota, &[]).unwrap();
        sched.pop_next();
        sched.fail(id, "restore error: checkpoint corrupt".into());
        let rec = sched.job(id).unwrap();
        assert_eq!(rec.state, JobState::Failed);
        assert!(rec.error.as_deref().unwrap().contains("restore"));
        assert_eq!(sched.obs.counter("serve.jobs_failed"), 1);
        // Once the reason is delivered, the failed job no longer occupies
        // the tenant's quota slot or its checkpoint namespace.
        assert!(sched.claim(id));
        assert!(sched.submit(spec("a", "j1", 0), &quota, &[]).is_ok());
    }

    #[test]
    fn retry_cap_fails_the_job_with_the_last_error() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let id = sched.submit(spec("a", "crashy", 0), &quota, &[]).unwrap();
        // Attempts 1 and 2 die and are requeued under a cap of 3.
        for _ in 0..2 {
            assert_eq!(sched.pop_next(), Some(id));
            assert!(sched.requeue_capped(id, 3, "worker panicked".into()));
            assert_eq!(sched.job(id).unwrap().state, JobState::Queued);
        }
        // Attempt 3 dies too: the cap is reached, so the job fails with
        // the last error instead of queueing a fourth attempt.
        assert_eq!(sched.pop_next(), Some(id));
        assert!(!sched.requeue_capped(id, 3, "worker panicked".into()));
        let rec = sched.job(id).unwrap();
        assert_eq!(rec.state, JobState::Failed);
        let err = rec.error.as_deref().unwrap();
        assert!(
            err.contains("retry cap") && err.contains("worker panicked"),
            "{err}"
        );
        assert_eq!(sched.pending_len(), 0, "a capped job must not be queued");
        assert_eq!(sched.pop_next(), None);
        assert_eq!(sched.obs.counter("serve.jobs_failed"), 1);
        assert_eq!(sched.obs.counter("serve.requeues"), 2);
        assert_eq!(sched.obs.counter("serve.worker_kills"), 3);
    }

    #[test]
    fn next_work_dispatches_first_and_exits_only_when_draining_and_idle() {
        let mut sched = Sched::default();
        assert_eq!(sched.next_work(), Next::Wait, "idle, not draining");
        let quota = TenantQuota::default();
        let id = sched.submit(spec("a", "j", 0), &quota, &[]).unwrap();
        // A drain that finds a job queued still hands it to a worker: the
        // attempt parks it at its first boundary.
        sched.draining = true;
        assert_eq!(sched.next_work(), Next::Run(id));
        let rec = sched.job(id).unwrap();
        assert_eq!((rec.state, rec.attempts), (JobState::Running, 1));
        assert_eq!(sched.next_work(), Next::Exit, "draining, nothing pending");
    }

    #[test]
    fn settle_done_drained_and_failed_arms() {
        let mut sched = Sched::default();
        let quota = TenantQuota { max_active: 3 };
        let submit = |sched: &mut Sched, name| sched.submit(spec("a", name, 0), &quota, &[]);
        let ids = ["done", "parked", "broken"].map(|n| submit(&mut sched, n).unwrap());
        for id in ids {
            assert_eq!(sched.next_work(), Next::Run(id));
        }
        let done = Outcome::Done {
            obs: JobObservables::default(),
            metrics: Registry::new(),
            respawns: 2,
            resized: true,
        };
        assert_eq!(sched.settle(ids[0], done, 5), JobState::Done);
        assert_eq!(sched.obs.counter("serve.respawns"), 2);
        assert_eq!(sched.obs.counter("serve.resizes"), 1);
        assert_eq!(sched.obs.counter("tenant.a.jobs_completed"), 1);

        let parked = sched.settle(ids[1], Outcome::Drained { at_sweep: 4 }, 5);
        assert_eq!(parked, JobState::Paused);
        assert!(parked.is_live() && !parked.is_active());
        assert_eq!(sched.obs.counter("serve.jobs_drained"), 1);

        let reason = "restore error".to_string();
        let broken = sched.settle(ids[2], Outcome::Failed { reason }, 5);
        assert!(broken == JobState::Failed && !broken.is_live());
        let err = sched.job(ids[2]).unwrap().error.as_deref();
        assert_eq!(err, Some("restore error"));

        // Done and Failed gave their names back, and their slots once
        // delivered; the parked job keeps its namespace (a restarted
        // server resumes from it) but not its quota slot.
        assert!(sched.claim(ids[0]) && sched.claim(ids[2]));
        assert!(submit(&mut sched, "done").is_ok());
        assert!(submit(&mut sched, "broken").is_ok());
        let err = submit(&mut sched, "parked").unwrap_err();
        assert!(err.contains("collides"), "{err}");
        assert!(submit(&mut sched, "third").is_ok());
    }

    #[test]
    fn settle_killed_requeues_under_the_cap_then_fails_and_frees_the_slot() {
        let mut sched = Sched::default();
        let quota = TenantQuota { max_active: 1 };
        let id = sched.submit(spec("a", "crashy", 0), &quota, &[]).unwrap();
        let killed = || Outcome::Killed { at_sweep: 7 };

        assert_eq!(sched.next_work(), Next::Run(id));
        assert_eq!(sched.settle(id, killed(), 2), JobState::Queued);
        assert!(sched.pending().eq([id]));
        let full = sched.submit(spec("a", "other", 0), &quota, &[]);
        assert!(
            full.unwrap_err().contains("quota"),
            "a requeue holds its slot"
        );

        assert_eq!(sched.next_work(), Next::Run(id));
        assert_eq!(sched.settle(id, killed(), 2), JobState::Failed);
        assert_eq!(sched.pending_len(), 0, "a capped job is not queued");
        let err = sched.job(id).unwrap().error.clone().unwrap();
        assert!(err.contains("retry cap reached (2 attempts)") && err.contains("sweep 7"));
        assert_eq!(sched.obs.counter("serve.requeues"), 1);
        assert_eq!(sched.obs.counter("serve.worker_kills"), 2);
        // Once the failure is delivered, the quota slot and the namespace
        // are both free again.
        assert!(sched.claim(id));
        assert!(sched.submit(spec("a", "crashy", 0), &quota, &[]).is_ok());
    }

    #[test]
    fn elastic_ride_throughs_bump_the_counters() {
        let mut sched = Sched::default();
        sched.note_elastic(2, false);
        sched.note_elastic(0, true);
        sched.note_elastic(0, false);
        assert_eq!(sched.obs.counter("serve.respawns"), 2);
        assert_eq!(sched.obs.counter("serve.resizes"), 1);
    }

    #[test]
    fn claim_drops_terminal_records_only() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let names = ["done", "failed", "queued", "running", "parked"];
        let [done, failed, queued, running, parked] =
            names.map(|n| sched.submit(spec("a", n, 0), &quota, &[]).unwrap());
        for id in [done, failed, queued, running, parked] {
            assert_eq!(sched.pop_next(), Some(id));
        }
        sched.complete(done, JobObservables::default(), &Registry::new());
        sched.fail(failed, "injected".into());
        sched.pause(parked);
        // Requeue one so a job sits in each non-terminal state alongside
        // the two terminal ones.
        sched.requeue(queued);

        assert!(sched.claim(done) && sched.job(done).is_none());
        assert!(sched.claim(failed) && sched.job(failed).is_none());
        for id in [queued, running, parked] {
            let before = sched.job(id).unwrap().state;
            assert!(!sched.claim(id), "{before:?} must not be claimed");
            assert_eq!(sched.job(id).unwrap().state, before);
        }
        // A claimed id, and one never accepted, claim nothing.
        assert!(!sched.claim(done) && !sched.claim(99));
        let held: Vec<u64> = sched.jobs().map(|(id, _)| id).collect();
        assert_eq!(held, [queued, running, parked]);
        // The pending queue and dispatch are untouched.
        assert!(sched.pending().eq([queued]));
        assert_eq!(sched.pop_next(), Some(queued));
    }

    #[test]
    fn an_unclaimed_result_holds_its_quota_slot_until_claimed() {
        let mut sched = Sched::default();
        let quota = TenantQuota { max_active: 1 };
        let id = sched.submit(spec("a", "j", 0), &quota, &[]).unwrap();
        sched.pop_next();
        sched.complete(id, JobObservables::default(), &Registry::new());
        // Done, and its name is free, but the result is not delivered:
        // the tenant's one slot is still taken.
        let err = sched.submit(spec("a", "k", 0), &quota, &[]).unwrap_err();
        assert!(err.contains("quota") && err.contains("1 active or undelivered"));
        assert!(sched.job(id).is_some(), "an undelivered result is held");
        // Another tenant is unaffected.
        assert!(sched.submit(spec("b", "k", 0), &quota, &[]).is_ok());
        assert!(sched.claim(id));
        assert!(sched.submit(spec("a", "k", 0), &quota, &[]).is_ok());
    }

    #[test]
    fn the_namespace_index_frees_a_name_on_settle() {
        let mut sched = Sched::default();
        let quota = TenantQuota::default();
        let done = Outcome::Done {
            obs: JobObservables::default(),
            metrics: Registry::new(),
            respawns: 0,
            resized: false,
        };
        let failed = Outcome::Failed {
            reason: "injected".into(),
        };
        for (n, outcome) in [done, failed].into_iter().enumerate() {
            let name = format!("job {n}");
            let id = sched.submit(spec("a", &name, 0), &quota, &[]).unwrap();
            assert_eq!(sched.next_work(), Next::Run(id));
            let twin = sched.submit(spec("a", &name, 0), &quota, &[]);
            assert!(twin.unwrap_err().contains("collides"), "live while running");
            // Settling frees the name at once, before any delivery.
            assert!(sched.settle(id, outcome, 5).is_terminal());
            assert!(sched.job(id).is_some());
            let again = sched.submit(spec("a", &name, 0), &quota, &[]).unwrap();
            assert_eq!(sched.next_work(), Next::Run(again));
        }
        // A requeue keeps the name; a drain's park keeps it too.
        let id = sched.submit(spec("a", "kept", 0), &quota, &[]).unwrap();
        assert_eq!(sched.next_work(), Next::Run(id));
        let killed = Outcome::Killed { at_sweep: 1 };
        assert_eq!(sched.settle(id, killed, 5), JobState::Queued);
        assert!(sched.submit(spec("a", "kept", 0), &quota, &[]).is_err());
        assert_eq!(sched.next_work(), Next::Run(id));
        let drained = Outcome::Drained { at_sweep: 1 };
        assert_eq!(sched.settle(id, drained, 5), JobState::Paused);
        assert!(sched.submit(spec("a", "kept", 0), &quota, &[]).is_err());
    }

    #[test]
    fn draining_rejects_new_work() {
        let mut sched = Sched {
            draining: true,
            ..Sched::default()
        };
        let err = sched
            .submit(spec("a", "late", 0), &TenantQuota::default(), &[])
            .unwrap_err();
        assert!(err.contains("draining"), "{err}");
    }
}
