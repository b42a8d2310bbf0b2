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
    incarnation: u32,
}

impl ThreadComm {
    fn new(
        rank: usize,
        size: usize,
        boxes: Arc<Vec<Mailbox>>,
        poison: Arc<Poison>,
        timeout: Duration,
        incarnation: u32,
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
            incarnation,
        }
    }

    /// Which elastic round this world is on: 0 for the initial launch,
    /// +1 for every in-place respawn after a rank death (see
    /// [`run_threads_elastic`]). Fresh per-round communicators also mean
    /// fresh collective sequence numbers and per-channel FIFO queues, so
    /// tracing and deadlock detection stay coherent across respawns.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
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
/// diagnosis instead of waiting out the receive timeout.
struct DoneGuard {
    boxes: Arc<Vec<Mailbox>>,
    rank: usize,
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        self.boxes[self.rank].set_done(std::thread::panicking());
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
    let timeout = Duration::from_secs(60);
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
                    rank,
                };
                let mut comm = ThreadComm::new(rank, nranks, boxes, poison, timeout, 0);
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

/// A completed elastic run: per-rank results plus which mailbox slots
/// had to be respawned along the way (in death order; empty means the
/// run never lost a rank).
#[derive(Debug)]
pub struct ElasticRun<T> {
    /// Each rank's return value from the final (successful) round,
    /// indexed by rank.
    pub results: Vec<T>,
    /// Rank slot respawned before each retry round, in death order.
    pub respawned: Vec<usize>,
}

/// Why an elastic run gave up.
pub enum ElasticError {
    /// A rank died after the respawn budget was spent. `payload` is the
    /// fatal rank's original panic payload.
    Exhausted {
        /// The rank whose death exhausted the budget.
        dead_rank: usize,
        /// Slots respawned before giving up, in death order.
        respawned: Vec<usize>,
        /// The fatal rank's panic payload, for re-raising.
        payload: Box<dyn std::any::Any + Send>,
    },
    /// Some ranks neither returned nor panicked within the stall
    /// backstop; their threads were poisoned and abandoned.
    Stalled {
        /// Ranks that never finished.
        unfinished: Vec<usize>,
        /// Human-readable report (also the poison message).
        message: String,
    },
}

impl std::fmt::Debug for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::Exhausted {
                dead_rank,
                respawned,
                ..
            } => f
                .debug_struct("Exhausted")
                .field("dead_rank", dead_rank)
                .field("respawned", respawned)
                .finish_non_exhaustive(),
            ElasticError::Stalled {
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

/// One round's verdict, as seen by the supervisor.
enum RoundOutcome<T> {
    /// Every rank returned normally; results indexed by rank.
    Done(Vec<T>),
    /// At least one rank panicked (all threads did exit).
    Died {
        dead_rank: usize,
        payload: Box<dyn std::any::Any + Send>,
    },
    /// Some ranks never reported back within the stall backstop.
    Stalled {
        unfinished: Vec<usize>,
        message: String,
    },
}

/// Spawn one round of detached rank threads and collect all verdicts.
///
/// Every thread reports exactly once over the channel — result or
/// caught panic payload — *after* its `DoneGuard` has marked the
/// mailbox `Done`, so by the time the supervisor has `nranks` reports
/// no rank can still touch the mailboxes and a respawn reset is safe.
/// Threads are detached: if one stalls past the backstop the supervisor
/// poisons the world (so blocked survivors fail fast), drains briefly,
/// and abandons whatever still runs rather than hanging the caller.
fn run_round<T, F>(
    nranks: usize,
    timeout: Duration,
    incarnation: u32,
    boxes: &Arc<Vec<Mailbox>>,
    poison: &Arc<Poison>,
    f: &Arc<F>,
) -> RoundOutcome<T>
where
    T: Send + 'static,
    F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
{
    type Verdict<T> = (usize, Result<T, Box<dyn std::any::Any + Send>>);
    let (tx, rx) = std::sync::mpsc::channel::<Verdict<T>>();
    for rank in 0..nranks {
        let boxes = boxes.clone();
        let poison = poison.clone();
        let f = f.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The guard lives *inside* the catch so its Drop (which
                // records Done{panicked}) runs before the verdict is
                // sent — the supervisor never resets a mailbox whose
                // owner hasn't published its exit yet.
                let _done = DoneGuard {
                    boxes: boxes.clone(),
                    rank,
                };
                let mut comm = ThreadComm::new(rank, nranks, boxes, poison, timeout, incarnation);
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
    let stall_deadline = Instant::now() + timeout + grace;
    let mut slots: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    let mut finished = vec![false; nranks];
    let mut got = 0usize;
    let mut first_death: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    let collect =
        |msg: Verdict<T>,
         slots: &mut Vec<Option<T>>,
         finished: &mut Vec<bool>,
         first_death: &mut Option<(usize, Box<dyn std::any::Any + Send>)>| {
            let (rank, out) = msg;
            finished[rank] = true;
            match out {
                Ok(v) => slots[rank] = Some(v),
                Err(payload) => {
                    if first_death.is_none() {
                        *first_death = Some((rank, payload));
                    }
                }
            }
        };
    while got < nranks {
        // lint: allow(wall-clock)
        let remaining = stall_deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        match rx.recv_timeout(remaining) {
            Ok(msg) => {
                collect(msg, &mut slots, &mut finished, &mut first_death);
                got += 1;
            }
            Err(_) => break,
        }
    }
    if got < nranks {
        let unfinished: Vec<usize> = (0..nranks).filter(|&r| !finished[r]).collect();
        let message = format!(
            "run_threads: rank(s) {unfinished:?} neither returned nor panicked within \
             {timeout:?} + {grace:?} grace — poisoning the world and abandoning their threads"
        );
        poison.set(&message);
        // Short drain: poisoned stragglers blocked in a receive notice
        // within a wait slice; give them a few to report in.
        // lint: allow(wall-clock)
        let drain_deadline = Instant::now() + WAIT_SLICE * 20;
        while got < nranks {
            // lint: allow(wall-clock)
            let remaining = drain_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match rx.recv_timeout(remaining) {
                Ok(msg) => {
                    collect(msg, &mut slots, &mut finished, &mut first_death);
                    got += 1;
                }
                Err(_) => break,
            }
        }
        if got < nranks {
            let unfinished: Vec<usize> = (0..nranks).filter(|&r| !finished[r]).collect();
            return RoundOutcome::Stalled {
                unfinished,
                message,
            };
        }
    }
    match first_death {
        Some((dead_rank, payload)) => RoundOutcome::Died { dead_rank, payload },
        None => RoundOutcome::Done(
            slots
                .into_iter()
                .map(|s| s.expect("every finished rank left a result"))
                .collect(),
        ),
    }
}

/// [`run_threads`] with an explicit receive-timeout (the backstop for
/// blocked receives the deadlock detector cannot prove stuck, e.g. a
/// peer spinning forever without sending).
///
/// Unlike the plain scope-based [`run_threads`], rank threads here are
/// detached and supervised: a rank that neither returns nor panics
/// within `timeout` plus a grace period no longer hangs the caller
/// while silently holding live mailbox `Arc`s — the world is poisoned
/// (so blocked survivors fail fast) and the run panics naming the ranks
/// that never finished.
pub fn run_threads_with_timeout<T, F>(nranks: usize, timeout: Duration, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
{
    match run_threads_elastic(nranks, timeout, 0, f) {
        Ok(run) => run.results,
        Err(ElasticError::Exhausted { payload, .. }) => std::panic::resume_unwind(payload),
        Err(ElasticError::Stalled { message, .. }) => panic!("{message}"),
    }
}

/// Run an SPMD function on `nranks` thread-backed ranks with in-place
/// rank respawn: when a rank dies, the supervisor waits for every
/// thread of the round to exit, resets all mailbox slots and the world
/// poison, and relaunches the full world with `incarnation + 1` — up to
/// `max_respawns` times. The rank closure is responsible for recovering
/// its state on re-entry (the PT driver resumes from the latest
/// coordinated checkpoint generation; survivors roll back to the same
/// boundary, so the respawned world is bit-identical to one that never
/// died).
///
/// Respawning the *whole* world rather than just the dead slot is what
/// makes the rejoin protocol race-free: there is no barrier between a
/// half-old, half-new world because no such world ever exists — the
/// model in `qmc_verify::model::respawn` checks exactly this design
/// against its mutants.
pub fn run_threads_elastic<T, F>(
    nranks: usize,
    timeout: Duration,
    max_respawns: usize,
    f: F,
) -> Result<ElasticRun<T>, ElasticError>
where
    T: Send + 'static,
    F: Fn(&mut ThreadComm) -> T + Send + Sync + 'static,
{
    assert!(nranks >= 1, "need at least one rank");
    let boxes: Arc<Vec<Mailbox>> = Arc::new((0..nranks).map(|_| Mailbox::new()).collect());
    let poison = Arc::new(Poison::new());
    let f = Arc::new(f);
    let mut respawned = Vec::new();
    loop {
        let incarnation = respawned.len() as u32;
        match run_round(nranks, timeout, incarnation, &boxes, &poison, &f) {
            RoundOutcome::Done(results) => {
                return Ok(ElasticRun { results, respawned });
            }
            RoundOutcome::Stalled {
                unfinished,
                message,
            } => {
                // Never respawn over a stall: abandoned threads may
                // still hold mailbox Arcs, so a reset could race them.
                return Err(ElasticError::Stalled {
                    unfinished,
                    message,
                });
            }
            RoundOutcome::Died { dead_rank, payload } => {
                if respawned.len() >= max_respawns {
                    return Err(ElasticError::Exhausted {
                        dead_rank,
                        respawned,
                        payload,
                    });
                }
                respawned.push(dead_rank);
                // Every thread of the failed round has exited (the
                // round verdict only lands once all n reports are in),
                // so resetting the shared state cannot race a live
                // rank. Clear residue messages, wait states, and the
                // poison; the epoch bump keeps stale diagnoses from
                // ever comparing equal.
                for mb in boxes.iter() {
                    mb.reset_for_respawn();
                }
                poison.clear();
            }
        }
    }
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
        // Rank 1 dies on its first incarnation, succeeds on the second;
        // the respawned world exchanges cleanly over the reset mailboxes.
        let run = run_threads_elastic(2, Duration::from_secs(5), 1, |c| {
            if c.rank() == 1 && c.incarnation() == 0 {
                // Residue: a message rank 0 will never receive in this
                // round; the reset must drop it.
                c.send_bytes(0, 9, &[0xEE]);
                panic!("injected death on incarnation 0");
            }
            if c.rank() == 0 {
                c.send_bytes(1, 4, &[c.incarnation() as u8]);
                Vec::new()
            } else {
                c.recv_bytes(0, 4)
            }
        })
        .expect("one respawn is within budget");
        assert_eq!(run.respawned, vec![1]);
        assert_eq!(run.results[1], vec![1], "rank 1 sees the respawned round");
    }

    #[test]
    fn elastic_budget_zero_reraises_the_original_payload() {
        let err = std::panic::catch_unwind(|| {
            run_threads_elastic(2, Duration::from_secs(5), 0, |c| {
                if c.rank() == 1 {
                    panic!("fatal rank death");
                }
            })
        })
        .map(|r| {
            // No panic escaped: must be an Exhausted error instead.
            let e = r.expect_err("budget 0 cannot absorb a death");
            let ElasticError::Exhausted {
                dead_rank,
                respawned,
                ..
            } = e
            else {
                panic!("expected Exhausted, got {e:?}");
            };
            assert_eq!(dead_rank, 1);
            assert!(respawned.is_empty());
        });
        assert!(err.is_ok(), "run_threads_elastic itself must not panic");
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
