//! Thread-backed ranks: real parallelism on the host machine.

use crate::deadlock::{diagnose, Poison};
use crate::mailbox::{Mailbox, Msg};
use crate::{CommStats, Communicator, COLLECTIVE_TAG_BASE};
use std::sync::Arc;
use std::time::{Duration, Instant}; // lint: allow(wall-clock) — receive timeouts need host time

/// How long a blocked receive sleeps between deadlock-detector passes.
/// Detection latency is a couple of slices — well under the 1 s budget —
/// while the wake-ups cost a blocked rank ~40 lock acquisitions/second.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// The receive timeout of a [`run_threads`] world and of every world
/// an elastic run launches.
pub const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// A communicator whose ranks are OS threads on the host.
///
/// Obtained inside [`run_threads`]; all correctness tests and the
/// real-speedup benchmarks use this back-end.
///
/// Blocked receives are watched by a runtime deadlock detector: a cycle
/// of mutually waiting ranks is reported as a panic naming the exact
/// wait-for cycle (e.g. `rank 0 waits on rank 1 (tag 0x7) -> rank 1
/// waits on rank 0 (tag 0x7)`) within a few wait slices, instead of
/// hanging the suite until the receive timeout.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    boxes: Arc<Vec<Mailbox>>,
    poison: Arc<Poison>,
    start: Instant,
    stats: CommStats,
    coll_seq: u32,
    timeout: Duration,
}

impl ThreadComm {
    fn new(
        rank: usize,
        size: usize,
        boxes: Arc<Vec<Mailbox>>,
        poison: Arc<Poison>,
        timeout: Duration,
    ) -> Self {
        Self {
            rank,
            size,
            boxes,
            poison,
            start: Instant::now(), // lint: allow(wall-clock)
            stats: CommStats::default(),
            coll_seq: 0,
            timeout,
        }
    }

    fn raw_send(&mut self, dest: usize, tag: u32, data: &[u8]) {
        assert!(dest < self.size, "dest rank {dest} out of range");
        self.stats.note_sent(data.len());
        self.boxes[dest].put(
            self.rank,
            tag,
            Msg {
                bytes: data.to_vec(),
                depart: 0.0,
            },
        );
    }

    /// Blocking receive with deadlock detection.
    ///
    /// Fast path: the message is already queued and `register_waiting`
    /// hands it over without ever publishing a `Waiting` state — zero
    /// extra cost for the common case the benchmarks measure. Slow path:
    /// the rank is registered as waiting and sleeps in bounded slices;
    /// each wake re-checks the queue, then the world poison, then walks
    /// the wait-for graph twice (epoch-stable equality is the proof —
    /// see `deadlock.rs`), then the overall receive timeout.
    fn recv_checked(&mut self, src: usize, tag: u32) -> Msg {
        let me = self.rank;
        if let Some(msg) = self.boxes[me].register_waiting(src, tag) {
            return msg;
        }
        // lint: allow(wall-clock) — receive timeouts need host time
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Some(msg) = self.boxes[me].take_slice(src, tag, WAIT_SLICE) {
                return msg;
            }
            if let Some(msg) = self.poison.get() {
                self.boxes[me].set_running();
                panic!("{msg}");
            }
            if let Some(first) = diagnose(&self.boxes, me) {
                // Not yet proof: the walk is not atomic. A second walk
                // returning the *identical* diagnosis (same epochs) is —
                // every rank on it was continuously blocked in between.
                if diagnose(&self.boxes, me).as_ref() == Some(&first) {
                    let msg = first.render();
                    self.poison.set(&msg);
                    self.boxes[me].set_running();
                    panic!("{msg}");
                }
            }
            // lint: allow(wall-clock)
            if Instant::now() >= deadline {
                let msg = format!(
                    "rank {me}: recv(src={src}, tag={tag:#x}) timed out after {:?} — \
                     deadlock or mismatched send/recv",
                    self.timeout
                );
                // Fail the *world*, not just this rank: peers blocked on
                // other channels pick the poison up within a wait slice
                // instead of each riding out its own full timeout.
                self.poison.set(&msg);
                self.boxes[me].set_running();
                panic!("{msg}");
            }
        }
    }

    fn raw_recv(&mut self, src: usize, tag: u32) -> Vec<u8> {
        assert!(
            src < self.size,
            "rank {me}: recv(src={src}, tag={tag:#x}): src out of range for size-{size} world",
            me = self.rank,
            size = self.size
        );
        let t0 = Instant::now(); // lint: allow(wall-clock)
        let msg = self.recv_checked(src, tag);
        // The whole blocked receive is time spent waiting on the sender.
        let wait = t0.elapsed().as_secs_f64();
        self.stats.comm_seconds += wait;
        self.stats.recv_wait_seconds += wait;
        self.stats.note_received(msg.bytes.len());
        msg.bytes
    }

    fn raw_recv_into(&mut self, src: usize, tag: u32, buf: &mut Vec<u8>) {
        assert!(
            src < self.size,
            "rank {me}: recv(src={src}, tag={tag:#x}): src out of range for size-{size} world",
            me = self.rank,
            size = self.size
        );
        let t0 = Instant::now(); // lint: allow(wall-clock)
        let msg = self.recv_checked(src, tag);
        let wait = t0.elapsed().as_secs_f64();
        self.stats.comm_seconds += wait;
        self.stats.recv_wait_seconds += wait;
        self.stats.note_received(msg.bytes.len());
        buf.clear();
        buf.extend_from_slice(&msg.bytes);
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send_bytes(&mut self, dest: usize, tag: u32, data: &[u8]) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag:#x} is reserved for collectives"
        );
        self.raw_send(dest, tag, data);
    }

    fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        crate::check_recv_args(self.rank, self.size, src, tag);
        self.raw_recv(src, tag)
    }

    fn recv_bytes_timeout(&mut self, src: usize, tag: u32, timeout: Duration) -> Option<Vec<u8>> {
        crate::check_recv_args(self.rank, self.size, src, tag);
        let t0 = Instant::now(); // lint: allow(wall-clock)
        let msg = self.boxes[self.rank].try_take(src, tag, timeout);
        let wait = t0.elapsed().as_secs_f64();
        self.stats.comm_seconds += wait;
        self.stats.recv_wait_seconds += wait;
        let msg = msg?;
        self.stats.note_received(msg.bytes.len());
        Some(msg.bytes)
    }

    fn recv_bytes_into(&mut self, src: usize, tag: u32, buf: &mut Vec<u8>) {
        crate::check_recv_args(self.rank, self.size, src, tag);
        self.raw_recv_into(src, tag, buf);
    }

    fn compute(&mut self, units: f64) {
        // Real time passes on the host; just account for it.
        self.stats.compute_seconds += units;
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn stats(&self) -> CommStats {
        self.stats
    }

    fn next_collective_seq(&mut self) -> u32 {
        let s = self.coll_seq;
        self.coll_seq = self.coll_seq.wrapping_add(1);
        s
    }

    fn send_internal(&mut self, dest: usize, tag: u32, data: &[u8]) {
        self.raw_send(dest, tag, data);
    }

    fn recv_internal(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.raw_recv(src, tag)
    }
}

/// Marks the rank `Done` in its mailbox when the rank closure exits —
/// by return or by unwind — so peers blocked on it get a "dead peer"
/// diagnosis instead of waiting out the receive timeout. A dying rank
/// records its death first, so no peer failing over it is named.
struct DoneGuard {
    boxes: Arc<Vec<Mailbox>>,
    poison: Arc<Poison>,
    rank: usize,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let panicking = std::thread::panicking();
        if panicking {
            let _ = self.poison.first_death.set(self.rank);
        }
        self.boxes[self.rank].set_done(panicking);
    }
}

/// Run an SPMD function on `nranks` thread-backed ranks and collect each
/// rank's return value (indexed by rank).
///
/// Panics in any rank propagate with their original payload (the scope
/// joins all threads first), so a deadlock diagnosis or an assertion
/// inside one rank fails the whole run — the behaviour tests want.
pub fn run_threads<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut ThreadComm) -> T + Send + Sync,
{
    assert!(nranks >= 1, "need at least one rank");
    let timeout = STALL_TIMEOUT;
    let boxes: Arc<Vec<Mailbox>> = Arc::new((0..nranks).map(|_| Mailbox::new()).collect());
    let poison = Arc::new(Poison::new());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let boxes = boxes.clone();
            let poison = poison.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                let _done = DoneGuard {
                    boxes: boxes.clone(),
                    poison: poison.clone(),
                    rank,
                };
                let mut comm = ThreadComm::new(rank, nranks, boxes, poison, timeout);
                f(&mut comm)
            }));
        }
        // Join everyone, then re-raise the first panic with its original
        // payload so callers (and #[should_panic] tests) see the rank's
        // own message, not a generic join error.
        let mut results = Vec::with_capacity(nranks);
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(v) => results.push(v),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    })
}

/// Why a thread world did not finish.
pub enum WorldError {
    /// A rank panicked. Every thread of the world has exited.
    RankDied {
        /// The first rank to die, not a peer that failed over it.
        dead_rank: usize,
        /// That rank's panic payload, for re-raising.
        payload: Box<dyn std::any::Any + Send>,
    },
    /// Some ranks neither returned nor panicked within the stall
    /// backstop; the world was poisoned and their threads abandoned.
    Stalled {
        /// Ranks that never finished.
        unfinished: Vec<usize>,
        /// Human-readable report (also the poison message).
        message: String,
    },
}

impl WorldError {
    /// Re-raise the failure as a panic: a death with the dead rank's own
    /// payload, a stall with its report.
    pub fn raise(self) -> ! {
        match self {
            WorldError::RankDied { payload, .. } => std::panic::resume_unwind(payload),
            WorldError::Stalled { message, .. } => panic!("{message}"),
        }
    }
}

impl std::fmt::Debug for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::RankDied { dead_rank, .. } => f
                .debug_struct("RankDied")
                .field("dead_rank", dead_rank)
                .finish_non_exhaustive(),
            WorldError::Stalled {
                unfinished,
                message,
            } => f
                .debug_struct("Stalled")
                .field("unfinished", unfinished)
                .field("message", message)
                .finish(),
        }
    }
}

/// Run an SPMD function on `nranks` thread-backed ranks in a world of
/// its own, and report a rank death or a stall as a value instead of a
/// panic.
///
/// Every call builds new mailboxes and a new poison word, so nothing of
/// an earlier world reaches this one. That is what makes a respawn a
/// resume: a caller that relaunches after [`WorldError::RankDied`] gets a
/// fresh world, and each rank restores from the newest coordinated
/// checkpoint generation exactly as a first launch resuming through the
/// store would. A [`WorldError::Stalled`] world must not be relaunched
/// over the same store: its abandoned threads may still write to it.
///
/// Rank threads are detached and supervised. Each reports exactly once
/// over a channel (result or caught panic payload) after its
/// `DoneGuard` has marked the mailbox `Done`. If one stalls past
/// `timeout` plus a grace period, the supervisor poisons the world (so
/// blocked survivors fail fast), drains briefly, and abandons whatever
/// still runs rather than hanging the caller.
pub fn try_run_threads<T, F>(
    nranks: usize,
    timeout: Duration,
    f: Arc<F>,
) -> Result<Vec<T>, WorldError>
where
    T: Send + 'static,
    F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
{
    assert!(nranks >= 1, "need at least one rank");
    let boxes: Arc<Vec<Mailbox>> = Arc::new((0..nranks).map(|_| Mailbox::new()).collect());
    let poison = Arc::new(Poison::new());
    type Verdict<T> = Result<T, Box<dyn std::any::Any + Send>>;
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Verdict<T>)>();
    for rank in 0..nranks {
        let boxes = boxes.clone();
        let poison = poison.clone();
        let f = f.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The guard lives *inside* the catch so its Drop (which
                // records Done{panicked}) runs before the verdict is
                // sent.
                let _done = DoneGuard {
                    boxes: boxes.clone(),
                    poison: poison.clone(),
                    rank,
                };
                let mut comm = ThreadComm::new(rank, nranks, boxes, poison, timeout);
                f(&mut comm)
            }));
            let _ = tx.send((rank, out));
        });
    }
    drop(tx);

    // Stall backstop: every live rank either finishes or hits its own
    // receive timeout by `timeout`; the grace covers compute time and
    // slow-but-live senders (which may legitimately outlast `timeout`,
    // see `slow_sender_past_timeout_panics`).
    let grace = (timeout * 2).max(Duration::from_secs(1));
    // lint: allow(wall-clock) — stall backstop needs host time
    let mut deadline = Instant::now() + timeout + grace;
    let mut outs: Vec<Option<Verdict<T>>> = (0..nranks).map(|_| None).collect();
    let mut got = 0usize;
    let mut stalled: Option<String> = None;
    loop {
        while got < nranks {
            // lint: allow(wall-clock)
            let remaining = deadline.saturating_duration_since(Instant::now());
            let Ok((rank, out)) = rx.recv_timeout(remaining) else {
                break;
            };
            got += 1;
            outs[rank] = Some(out);
        }
        if got == nranks {
            break;
        }
        let unfinished: Vec<usize> = (0..nranks).filter(|&r| outs[r].is_none()).collect();
        if let Some(message) = stalled {
            return Err(WorldError::Stalled {
                unfinished,
                message,
            });
        }
        let message = format!(
            "run_threads: rank(s) {unfinished:?} neither returned nor panicked within \
             {timeout:?} + {grace:?} grace — poisoning the world and abandoning their threads"
        );
        poison.set(&message);
        stalled = Some(message);
        // Short drain: poisoned stragglers blocked in a receive notice
        // within a wait slice; give them a few to report in.
        // lint: allow(wall-clock)
        deadline = Instant::now() + WAIT_SLICE * 20;
    }
    if let Some(&dead_rank) = poison.first_death.get() {
        let Some(Err(payload)) = outs[dead_rank].take() else {
            unreachable!("rank {dead_rank} died, so it reported a panic");
        };
        return Err(WorldError::RankDied { dead_rank, payload });
    }
    // No rank died, so every rank returned.
    let returned = outs.into_iter().map(|out| out.and_then(Result::ok));
    Ok(returned.map(|v| v.expect("a result")).collect())
}

/// [`run_threads`] with an explicit receive-timeout (the backstop for
/// blocked receives the deadlock detector cannot prove stuck, e.g. a
/// peer spinning forever without sending).
///
/// Unlike the plain scope-based [`run_threads`], rank threads here are
/// detached and supervised by [`try_run_threads`]: a rank that neither
/// returns nor panics within `timeout` plus a grace period no longer
/// hangs the caller while silently holding live mailbox `Arc`s — the
/// world is poisoned (so blocked survivors fail fast) and the run panics
/// naming the ranks that never finished.
pub fn run_threads_with_timeout<T, F>(nranks: usize, timeout: Duration, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
{
    try_run_threads(nranks, timeout, Arc::new(f)).unwrap_or_else(|e| e.raise())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let out = run_threads(4, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_runs() {
        let out = run_threads(1, |c| c.size());
        assert_eq!(out, vec![1]);
    }

    /// Queues left in every mailbox of a `ranks`-rank world after `n`
    /// allreduces, counted once every rank has returned.
    fn mailbox_keys_after_allreduces(ranks: usize, n: usize) -> usize {
        let boxes = run_threads(ranks, |c| {
            for k in 0..n {
                let sum = c.allreduce_f64(&[k as f64], crate::ReduceOp::Sum);
                assert_eq!(sum, [(ranks * k) as f64]);
            }
            c.boxes.clone()
        });
        boxes[0].iter().map(Mailbox::keys).sum()
    }

    #[test]
    fn collectives_leave_no_queue_behind() {
        // Every collective has a tag of its own; a queue kept per tag
        // grew the map for the length of a run.
        for ranks in [2, 3] {
            let after_10 = mailbox_keys_after_allreduces(ranks, 10);
            let after_10k = mailbox_keys_after_allreduces(ranks, 10_000);
            assert!(
                after_10k <= after_10,
                "{ranks} ranks: {after_10k} queues after 10 000 allreduces, {after_10} after 10"
            );
        }
    }

    #[test]
    fn message_order_preserved_between_pair() {
        let out = run_threads(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send_bytes(1, 3, &[i]);
                }
                Vec::new()
            } else {
                (0..10).map(|_| c.recv_bytes(0, 3)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "deadlock detected: rank 0 waits on rank 1 (tag 0x1) -> \
                               rank 1 waits on rank 0 (tag 0x1)")]
    fn crossed_recvs_panic_with_the_cycle() {
        // Both ranks receive first — classic deadlock; the detector names
        // the cycle long before the (generous) receive timeout.
        run_threads_with_timeout(2, Duration::from_secs(30), |c| {
            let other = 1 - c.rank();
            let _ = c.recv_bytes(other, 1);
        });
    }

    #[test]
    #[should_panic(expected = "dest rank 5 out of range")]
    fn send_to_invalid_rank_panics() {
        run_threads(1, |c| c.send_bytes(5, 1, &[]));
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn slow_sender_past_timeout_panics() {
        // Rank 1 is alive (Running) the whole time, so the detector can
        // prove nothing; the receive-timeout backstop fires instead.
        run_threads_with_timeout(2, Duration::from_millis(60), |c| {
            if c.rank() == 0 {
                let _ = c.recv_bytes(1, 2);
            } else {
                std::thread::sleep(Duration::from_millis(400));
                c.send_bytes(0, 2, &[1]);
            }
        });
    }

    #[test]
    fn stalled_rank_is_reported_and_does_not_hang_the_run() {
        // Rank 1 computes forever without touching the comm layer: the
        // deadlock detector sees it Running and the receive timeout
        // never fires for it. Pre-fix this leaked the thread silently
        // and rank 0's timeout was the only (misleading) signal; now
        // the supervisor poisons the world and names the stalled rank.
        use std::sync::atomic::{AtomicBool, Ordering};
        static STOP: AtomicBool = AtomicBool::new(false);
        let err = std::panic::catch_unwind(|| {
            run_threads_with_timeout(2, Duration::from_millis(50), |c| {
                if c.rank() == 1 {
                    while !STOP.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            });
        })
        .expect_err("a stalled rank must fail the run");
        STOP.store(true, Ordering::Relaxed); // release the leaked thread
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("stall panic carries a String payload");
        assert!(
            msg.contains("rank(s) [1]") && msg.contains("neither returned nor panicked"),
            "stall report must name the unfinished rank: {msg}"
        );
    }

    #[test]
    fn timeout_poisons_the_world_so_survivors_fail_fast() {
        // Rank 0 times out on a receive after 60 ms; rank 1 is blocked
        // on a receive of its own with nothing in flight. Pre-fix rank 1
        // had to ride out its own full timeout; now rank 0's timeout
        // poisons the world and the whole run ends quickly.
        let t0 = Instant::now();
        let err = std::panic::catch_unwind(|| {
            run_threads_with_timeout(2, Duration::from_millis(60), |c| {
                if c.rank() == 0 {
                    let _ = c.recv_bytes(1, 2);
                } else {
                    // Keep rank 1 Running past rank 0's timeout so the
                    // deadlock detector cannot conclude first, then
                    // block on a receive that only poison can end.
                    std::thread::sleep(Duration::from_millis(120));
                    let _ = c.recv_bytes(0, 3);
                }
            });
        })
        .expect_err("both ranks must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("timed out"), "unexpected payload: {msg}");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "survivor did not fail fast: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn elastic_respawn_restarts_the_world_and_reports_the_slot() {
        // Rank 0 sends its world's number on (0 -> 1, tag 4); in the
        // first world rank 1 dies without receiving it. The death comes
        // back naming the slot, and a second launch over the same closure
        // reads that channel again and must see only its own byte: a
        // launcher that reused the first world's mailboxes would hand it
        // the first world's residue.
        use std::sync::atomic::{AtomicU8, Ordering};
        let world = Arc::new(AtomicU8::new(0));
        let w = world.clone();
        let f = Arc::new(move |c: &mut ThreadComm| {
            let n = w.load(Ordering::SeqCst);
            if c.rank() == 0 {
                c.send_bytes(1, 4, &[n]);
                Vec::new()
            } else if n == 0 {
                panic!("injected death in world 0");
            } else {
                c.recv_bytes(0, 4)
            }
        });
        let err = try_run_threads(2, Duration::from_secs(5), f.clone())
            .expect_err("rank 1 dies in the first world");
        let WorldError::RankDied { dead_rank, payload } = err else {
            panic!("expected RankDied, got {err:?}");
        };
        assert_eq!(dead_rank, 1);
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected death in world 0"),
            "the dead rank's own payload comes back"
        );
        world.store(1, Ordering::SeqCst);
        let out = try_run_threads(2, Duration::from_secs(5), f).expect("the second world finishes");
        assert_eq!(out[1], vec![1], "rank 1 sees only its own world's byte");
    }

    #[test]
    fn elastic_budget_zero_reraises_the_original_payload() {
        // A caller that never relaunches (a respawn budget of zero) is
        // `run_threads_with_timeout`: the death escapes as the dead
        // rank's own panic payload, not as a supervisor report.
        let err = std::panic::catch_unwind(|| {
            run_threads_with_timeout(2, Duration::from_secs(5), |c| {
                if c.rank() == 1 {
                    panic!("fatal rank death");
                }
            })
        })
        .expect_err("with no relaunch the death must escape");
        assert_eq!(
            err.downcast_ref::<&str>(),
            Some(&"fatal rank death"),
            "the original payload is re-raised"
        );
    }

    #[test]
    fn now_is_monotone() {
        run_threads(1, |c| {
            let a = c.now();
            std::thread::sleep(Duration::from_millis(5));
            assert!(c.now() > a);
        });
    }

    // Clock semantics: ThreadComm's now() is the *wall* clock — compute()
    // charges are accounting only and never move it (the virtual-clock
    // counterpart is pinned in model.rs).
    #[test]
    fn wall_clock_ignores_compute_charges() {
        run_threads(1, |c| {
            let before = c.now();
            c.compute(1e9); // a gigaflop-equivalent of *accounting*
            let after = c.now();
            assert!(
                after - before < 1.0,
                "compute charge advanced the wall clock by {}s",
                after - before
            );
            assert_eq!(c.stats().compute_seconds, 1e9);
        });
    }

    #[test]
    fn recv_wait_measures_blocked_time() {
        let results = run_threads(2, |c| {
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                c.send_bytes(1, 1, &[7]);
            } else {
                c.recv_bytes(0, 1);
            }
            c.stats()
        });
        // Rank 1 blocked for roughly the sender's sleep.
        assert!(
            results[1].recv_wait_seconds >= 0.01,
            "wait {} too short",
            results[1].recv_wait_seconds
        );
        assert!(results[1].recv_wait_seconds <= results[1].comm_seconds);
        assert_eq!(results[0].recv_wait_seconds, 0.0);
    }
}
