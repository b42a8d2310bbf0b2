//! The job server: acceptor, connection handlers, and the worker pool.
//!
//! Thread layout:
//! * one acceptor thread polls the non-blocking listener (2 ms sleep
//!   between polls) and spawns a handler per connection;
//! * handler threads speak the [`crate::wire`] protocol with one client,
//!   using a bounded read timeout so they notice a server drain;
//! * `cfg.workers` worker threads pull jobs from the scheduler, run
//!   attempts via [`crate::run::run_job`] under a per-job namespaced
//!   checkpoint store, and requeue on an injected death.
//!
//! Locking discipline: the scheduler mutex is held only for state
//! transitions — never across a sweep, a socket write, or a condvar wait
//! with work in hand.

use crate::run::{run_job, Outcome, RunCtl};
use crate::sched::{JobState, KillSpec, Next, Sched, TenantQuota};
use crate::wire::{Msg, PROTO_VERSION};
use qmc_ckpt::CkptStore;
use qmc_comm::tcp::{FrameConn, FrameError, FrameListener};
use qmc_obs::RankObs;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size (concurrent jobs; a PT job's ranks are threads
    /// *inside* one worker).
    pub workers: usize,
    /// Root directory for per-job checkpoint namespaces.
    pub ckpt_root: PathBuf,
    /// Default checkpoint cadence in sweeps (a job's `ckpt_every`
    /// overrides it when nonzero).
    pub ckpt_every: usize,
    /// Per-tenant admission quota.
    pub quota: TenantQuota,
    /// Deterministic injected worker deaths (demo / fault drills).
    pub kills: Vec<KillSpec>,
    /// Tenant name granted operator powers: sessions handshaken as this
    /// tenant may read unfiltered `Stats` and request a `Drain`. Every
    /// other session sees only its own tenant's counters and cannot
    /// drain the server.
    pub admin: String,
}

/// Per-frame payload cap for client connections.
const MAX_FRAME: usize = 1024 * 1024;
/// Retry cap: a job whose worker dies after this many started attempts
/// transitions to `Failed` with the last error instead of being
/// requeued forever.
pub const MAX_ATTEMPTS: u32 = 5;
/// Rank deaths a PT attempt may absorb by relaunching a fresh world from
/// the store before falling back to a ladder resize (see [`crate::run::RunCtl`]); deaths the attempt
/// rides through never reach the requeue path at all.
const RESPAWN_BUDGET: usize = 1;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            ckpt_root: std::env::temp_dir().join("qmc-serve"),
            ckpt_every: 10,
            quota: TenantQuota::default(),
            kills: Vec::new(),
            admin: "admin".into(),
        }
    }
}

/// State shared by every server thread.
struct Shared {
    cfg: ServeConfig,
    sched: Mutex<Sched>,
    /// Wakes workers when work is queued or a drain begins.
    work_cv: Condvar,
    /// Wakes `Await` streams when a job progresses.
    update_cv: Condvar,
    /// Drain requested: reject new jobs, checkpoint in-flight ones,
    /// wind every thread down.
    stop: AtomicBool,
}

impl Shared {
    /// Raise the stop flag in-flight attempts poll, close admission, and
    /// wake every thread that may be waiting on either condvar.
    fn begin_drain(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.sched.lock().expect("scheduler lock").draining = true;
        self.work_cv.notify_all();
        self.update_cv.notify_all();
    }
}

/// A running job server. Dropping the handle does NOT stop the server;
/// call [`Server::drain`] then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 for ephemeral) and start the thread pool.
    /// A default cadence of zero is refused here, as `InvalidInput`
    /// carrying [`qmc_ckpt::CkptError::ZeroCadence`], rather than failing
    /// every job that leaves its own `ckpt_every` at "0 = server default".
    pub fn start(cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        qmc_ckpt::Cadence::new(cfg.ckpt_every, 0)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = FrameListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cfg,
            sched: Mutex::new(Sched::default()),
            work_cv: Condvar::new(),
            update_cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();

        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the kernel-chosen port after a port-0
    /// bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: reject new submissions, checkpoint
    /// in-flight jobs at their next sweep boundary, wind down.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the acceptor and every worker to exit (requires
    /// [`Server::drain`] first, or the queue to go idle forever).
    pub fn join(mut self) -> RankObs {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let sched = self.shared.sched.lock().expect("scheduler lock");
        sched.obs.clone()
    }

    /// Convenience: drain and join in one call, returning the final
    /// server metrics record.
    pub fn shutdown(self) -> RankObs {
        self.drain();
        self.join()
    }

    /// Snapshot of the counters and (optionally tenant-filtered) health
    /// series without going over the wire.
    pub fn stats(&self, tenant: &str) -> crate::TenantStats {
        self.shared
            .sched
            .lock()
            .expect("scheduler lock")
            .stats(tenant)
    }
}

fn accept_loop(listener: FrameListener, shared: Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(Some(conn)) => {
                let shared = Arc::clone(&shared);
                // Handler threads are detached; they exit on hangup or
                // when the stop flag trips their read timeout.
                std::thread::spawn(move || handle_conn(conn, shared));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => return,
        }
    }
}

/// One client connection: Hello handshake, then a command loop.
fn handle_conn(mut conn: FrameConn, shared: Arc<Shared>) {
    conn.set_max_frame(MAX_FRAME);
    let _ = conn.set_recv_timeout(Some(Duration::from_millis(100)));
    let peer = conn.peer().to_string();

    // Handshake: first frame must be a version-matched Hello.
    let tenant = loop {
        match recv_msg(&mut conn, &shared, &peer, "<handshake>") {
            // An empty tenant is nobody's name, and as a `Stats` filter it
            // is the admin's global view: such a session would read every
            // tenant's counters.
            Ok(Some(Msg::Hello { proto, tenant }))
                if proto == PROTO_VERSION && tenant.is_empty() =>
            {
                let _ = send_msg(
                    &mut conn,
                    &Msg::Error {
                        detail: format!("peer {peer}: the tenant name is empty"),
                    },
                );
                return;
            }
            Ok(Some(Msg::Hello { proto, tenant })) if proto == PROTO_VERSION => {
                let _ = send_msg(
                    &mut conn,
                    &Msg::HelloAck {
                        proto: PROTO_VERSION,
                    },
                );
                break tenant;
            }
            Ok(Some(Msg::Hello { proto, .. })) => {
                let _ = send_msg(
                    &mut conn,
                    &Msg::Error {
                        detail: format!(
                            "peer {peer}: protocol revision {proto} unsupported (want {PROTO_VERSION})"
                        ),
                    },
                );
                return;
            }
            Ok(Some(_)) => {
                let _ = send_msg(
                    &mut conn,
                    &Msg::Error {
                        detail: format!("peer {peer}: expected Hello"),
                    },
                );
                return;
            }
            Ok(None) => {
                // Timeout tick: a client that never says Hello must not
                // pin this handler past a drain.
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = send_msg(&mut conn, &Msg::Draining);
                    return;
                }
                continue;
            }
            Err(()) => return,
        }
    };
    let is_admin = tenant == shared.cfg.admin;
    // One reply for an id this session cannot await: never accepted,
    // another tenant's, or already delivered.
    let unknown = |job: u64| Msg::Error {
        detail: format!(
            "peer {peer} tenant {tenant}: unknown job {job} (never accepted for this \
             tenant, or its result was already delivered)"
        ),
    };

    loop {
        let msg = match recv_msg(&mut conn, &shared, &peer, &tenant) {
            Ok(Some(m)) => m,
            Ok(None) => {
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = send_msg(&mut conn, &Msg::Draining);
                    return;
                }
                continue;
            }
            Err(()) => return,
        };
        match msg {
            Msg::Submit { mut spec } => {
                // Every job is admitted, billed and owned under the
                // session's tenant, the admin's included: a spoofed tenant
                // field bills the spoofer, and only the submitting tenant
                // can await the result.
                spec.tenant.clone_from(&tenant);
                let reply = {
                    let mut sched = shared.sched.lock().expect("scheduler lock");
                    // Admission enforces the tenant quota before anything
                    // is queued.
                    let quota = shared.cfg.quota;
                    match sched.submit(spec, &quota, &shared.cfg.kills) {
                        Ok(job) => Msg::Accepted { job },
                        Err(reason) => Msg::Rejected { reason },
                    }
                };
                if matches!(reply, Msg::Accepted { .. }) {
                    shared.work_cv.notify_one();
                }
                if send_msg(&mut conn, &reply).is_err() {
                    return;
                }
            }
            Msg::Await { job, mut after } => {
                // Stream snapshots (and finally the result) for one job.
                loop {
                    enum Step {
                        Send(Vec<Msg>),
                        /// The job's terminal reply: once it is written,
                        /// the result is delivered and the record claimed.
                        Deliver(Msg),
                        Finished(Msg),
                        Wait,
                    }
                    let step = {
                        let sched = shared.sched.lock().expect("scheduler lock");
                        match sched.job(job) {
                            // Another tenant's job is answered exactly as a
                            // job that does not exist, so the reply does not
                            // reveal that it does.
                            Some(rec) if rec.spec.tenant != tenant => Step::Finished(unknown(job)),
                            None => Step::Finished(unknown(job)),
                            Some(rec) => {
                                let fresh: Vec<Msg> = rec
                                    .snapshots
                                    .iter()
                                    .filter(|s| s.seq > after)
                                    .map(|s| Msg::Snapshot {
                                        job,
                                        seq: s.seq,
                                        sweep: s.sweep,
                                        total: s.total,
                                        mean_energy: s.mean_energy,
                                        attempt: s.attempt,
                                    })
                                    .collect();
                                if !fresh.is_empty() {
                                    Step::Send(fresh)
                                } else if let Some((obs, attempts)) = &rec.result {
                                    Step::Deliver(Msg::Result {
                                        job,
                                        obs: obs.clone(),
                                        attempts: *attempts,
                                    })
                                } else if rec.state == JobState::Paused {
                                    Step::Finished(Msg::Draining)
                                } else if rec.state == JobState::Failed {
                                    Step::Deliver(Msg::Error {
                                        detail: format!(
                                            "job {job} failed: {}",
                                            rec.error.as_deref().unwrap_or("unknown")
                                        ),
                                    })
                                } else {
                                    Step::Wait
                                }
                            }
                        }
                    };
                    match step {
                        Step::Send(msgs) => {
                            for m in msgs {
                                if let Msg::Snapshot { seq, .. } = m {
                                    after = after.max(seq);
                                }
                                if send_msg(&mut conn, &m).is_err() {
                                    return;
                                }
                            }
                        }
                        Step::Deliver(m) => {
                            // A reply that did not reach the socket is not
                            // delivered: the record stays for a retry.
                            if send_msg(&mut conn, &m).is_err() {
                                return;
                            }
                            shared.sched.lock().expect("scheduler lock").claim(job);
                            break;
                        }
                        Step::Finished(m) => {
                            let _ = send_msg(&mut conn, &m);
                            break;
                        }
                        Step::Wait => {
                            if shared.stop.load(Ordering::SeqCst) {
                                let _ = send_msg(&mut conn, &Msg::Draining);
                                return;
                            }
                            let sched = shared.sched.lock().expect("scheduler lock");
                            let _unused = shared
                                .update_cv
                                .wait_timeout(sched, Duration::from_millis(100))
                                .expect("scheduler lock");
                        }
                    }
                }
            }
            Msg::Stats { tenant: filter } => {
                // Isolation is pinned at the socket layer: a non-admin
                // session's view is always scoped to its handshaken
                // tenant, whatever filter the client sent (in particular
                // `""`, which for an admin means the global view).
                let filter = if is_admin { filter } else { tenant.clone() };
                let (counters, health) = {
                    let sched = shared.sched.lock().expect("scheduler lock");
                    sched.stats(&filter)
                };
                if send_msg(&mut conn, &Msg::StatsReply { counters, health }).is_err() {
                    return;
                }
            }
            Msg::Drain if !is_admin => {
                let reply = Msg::Error {
                    detail: format!(
                        "peer {peer} tenant {tenant}: drain requires the '{}' tenant",
                        shared.cfg.admin
                    ),
                };
                if send_msg(&mut conn, &reply).is_err() {
                    return;
                }
            }
            Msg::Drain => {
                shared.begin_drain();
                let _ = send_msg(&mut conn, &Msg::Draining);
                return;
            }
            other => {
                let _ = send_msg(
                    &mut conn,
                    &Msg::Error {
                        detail: format!(
                            "peer {peer} tenant {tenant}: unexpected {other:?} from a client"
                        ),
                    },
                );
                return;
            }
        }
    }
}

/// Receive and decode one message. `Ok(None)` is a retryable timeout
/// tick. A malformed frame or payload bumps `serve.bad_frames`, sends an
/// `Error` with peer/tenant context, and drops the connection (`Err`).
fn recv_msg(
    conn: &mut FrameConn,
    shared: &Shared,
    peer: &str,
    tenant: &str,
) -> Result<Option<Msg>, ()> {
    match conn.recv() {
        Ok(payload) => match Msg::decode(&payload) {
            Ok(msg) => Ok(Some(msg)),
            Err(e) => {
                bad_frame(shared);
                let _ = send_msg(
                    conn,
                    &Msg::Error {
                        detail: format!("peer {peer} tenant {tenant}: {e}"),
                    },
                );
                Err(())
            }
        },
        Err(FrameError::TimedOut) => Ok(None),
        Err(FrameError::Closed) => Err(()),
        Err(e) => {
            bad_frame(shared);
            let _ = send_msg(
                conn,
                &Msg::Error {
                    detail: format!("peer {peer} tenant {tenant}: {e}"),
                },
            );
            Err(())
        }
    }
}

fn bad_frame(shared: &Shared) {
    let mut sched = shared.sched.lock().expect("scheduler lock");
    sched.obs.counter_add("serve.bad_frames", 1);
}

fn send_msg(conn: &mut FrameConn, msg: &Msg) -> Result<(), FrameError> {
    conn.send(&msg.encode())
}

/// One worker: pull, run, report, repeat — until drained and idle.
/// Every decision is [`Sched`]'s; this loop owns the waiting, the
/// checkpoint directory and the attempt itself.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Ask the scheduler what to do, then snapshot what the attempt
        // needs so it runs without the lock.
        let (id, spec, kill_at) = {
            let mut sched = shared.sched.lock().expect("scheduler lock");
            let id = loop {
                match sched.next_work() {
                    Next::Run(id) => break id,
                    Next::Exit => return,
                    Next::Wait => {
                        sched = shared
                            .work_cv
                            .wait_timeout(sched, Duration::from_millis(100))
                            .expect("scheduler lock")
                            .0;
                    }
                }
            };
            let rec = sched.job(id).expect("a running job is never claimed");
            (id, rec.spec.clone(), rec.kill_at)
        };
        let every = if spec.ckpt_every > 0 {
            spec.ckpt_every as usize
        } else {
            shared.cfg.ckpt_every
        };
        let store = CkptStore::open_namespace(&shared.cfg.ckpt_root, &spec.namespace(), 3);
        let outcome = match &store {
            Err(e) => Outcome::Failed {
                reason: format!("open checkpoint namespace: {e}"),
            },
            Ok(store) => {
                let mut on_snapshot = |sweep: u64, total: u64, mean: f64| {
                    let mut sched = shared.sched.lock().expect("scheduler lock");
                    sched.record_snapshot(id, sweep, total, mean);
                    drop(sched);
                    shared.update_cv.notify_all();
                };
                // An attempt must not be able to take the pool thread
                // down with it: a panic anywhere in the drive loop
                // (engine invariant, PT world restore, store I/O) fails
                // the *job* — clients get the reason via Await — and the
                // worker lives on.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_job(
                        &spec,
                        RunCtl {
                            store: Some(store),
                            every,
                            full_every: 3,
                            resume: true,
                            kill_at,
                            stop: Some(&shared.stop),
                            snapshot: Some(&mut on_snapshot),
                            respawn_budget: RESPAWN_BUDGET,
                        },
                    )
                }))
                .unwrap_or_else(|payload| {
                    let reason = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".into());
                    Outcome::Failed {
                        reason: format!("attempt panicked: {reason}"),
                    }
                })
            }
        };

        let mut sched = shared.sched.lock().expect("scheduler lock");
        let state = sched.settle(id, outcome, MAX_ATTEMPTS);
        if state == JobState::Queued {
            // The "respawned" worker is this same thread looping around;
            // wake a sibling in case it is idle.
            shared.work_cv.notify_one();
        } else if !state.is_live() {
            // Terminal states free the job's namespace: removing the
            // checkpoint directory keeps finished jobs from accumulating
            // on disk without bound, and guarantees a reused name starts
            // from a clean store instead of a stale generation. It goes
            // before the scheduler lock does, so no client sees the job
            // finished, or reuses its name, while the directory is still
            // there. (A paused job's checkpoints are exactly what a
            // restarted server resumes from; they stay.)
            if let Ok(store) = &store {
                let _ = std::fs::remove_dir_all(store.dir());
            }
        }
        drop(sched);
        shared.update_cv.notify_all();
    }
}
