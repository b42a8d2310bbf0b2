//! Shared in-memory mailboxes: the "wires" of the simulated machine.
//!
//! Each mailbox also carries its owning rank's *wait state* under the
//! same mutex as the queues. That single-lock coupling is what makes the
//! runtime deadlock detector ([`crate::deadlock`]) sound: a sender that
//! deposits a matching message atomically flips the waiting owner back
//! to [`RankState::Running`], so any observer that reads a stable
//! `Waiting { epoch }` twice has proved the owner was continuously
//! blocked on an empty queue in between — there is no window where a
//! rank holds its message but still looks blocked.

use crate::deadlock::RankState;
use crate::COLLECTIVE_TAG_BASE;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A message in flight. `depart` is the sender's virtual clock at the
/// moment the message left (0.0 under the wall-clock back-end).
#[derive(Debug)]
pub(crate) struct Msg {
    pub bytes: Vec<u8>,
    pub depart: f64,
}

struct Inner {
    queues: HashMap<(usize, u32), VecDeque<Msg>>,
    state: RankState,
    epoch: u64,
}

impl Inner {
    /// Take the oldest message queued for `(src, tag)`. A collective's
    /// tag carries its sequence number and never comes back, so its queue
    /// is dropped once empty; a user tag's queue stays, and the next
    /// message on it (the next halo exchange) reuses its buffer.
    fn pop(&mut self, src: usize, tag: u32) -> Option<Msg> {
        let queue = self.queues.get_mut(&(src, tag))?;
        let msg = queue.pop_front();
        if tag >= COLLECTIVE_TAG_BASE && queue.is_empty() {
            self.queues.remove(&(src, tag));
        }
        msg
    }
}

/// One rank's incoming mailbox, keyed by `(source, tag)`, plus the
/// owning rank's wait state.
///
/// FIFO per key (message order between a fixed pair with a fixed tag is
/// preserved — the property the deterministic matching argument rests on).
pub(crate) struct Mailbox {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                queues: HashMap::new(),
                state: RankState::Running,
                epoch: 0,
            }),
            cond: Condvar::new(),
        }
    }
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deposit a message from `src` with `tag`.
    ///
    /// If the owner is registered as waiting on exactly `(src, tag)` it
    /// is flipped back to `Running` under the same lock (see module
    /// docs for why the detector depends on this).
    pub fn put(&self, src: usize, tag: u32, msg: Msg) {
        let mut inner = self.lock();
        inner.queues.entry((src, tag)).or_default().push_back(msg);
        if let RankState::Waiting {
            src: ws, tag: wt, ..
        } = inner.state
        {
            if (ws, wt) == (src, tag) {
                inner.state = RankState::Running;
            }
        }
        drop(inner);
        self.cond.notify_all();
    }

    /// Block until a message from `src` with `tag` arrives.
    ///
    /// Panics after `timeout` — in a correct SPMD program a matching send
    /// always exists, so a timeout means deadlock (or a tag mismatch) and
    /// aborting with context beats hanging forever. The virtual-clock
    /// back-end uses this directly; `ThreadComm` instead goes through
    /// [`Mailbox::register_waiting`] + [`Mailbox::take_slice`] so the
    /// deadlock detector can watch the wait.
    pub fn take(&self, me: usize, src: usize, tag: u32, timeout: Duration) -> Msg {
        match self.try_take(src, tag, timeout) {
            Some(msg) => msg,
            None => panic!(
                "rank {me}: recv(src={src}, tag={tag:#x}) timed out after {timeout:?} — \
                 deadlock or mismatched send/recv"
            ),
        }
    }

    /// Like [`Mailbox::take`] but returns `None` on timeout instead of
    /// panicking — the primitive behind `recv_bytes_timeout`, where the
    /// caller (fault-tolerant retry loops) owns the give-up policy.
    pub fn try_take(&self, src: usize, tag: u32, timeout: Duration) -> Option<Msg> {
        // lint: allow(wall-clock) — receive timeouts need host time
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if let Some(msg) = inner.pop(src, tag) {
                return Some(msg);
            }
            // lint: allow(wall-clock)
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _res) = self
                .cond
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Atomically: if a message for `(src, tag)` is queued, take it
    /// (staying `Running`); otherwise register the owner as waiting on
    /// `(src, tag)` with a fresh epoch and return `None`.
    ///
    /// The queue check and the registration share one critical section,
    /// so `Waiting` is only ever observable while the matching queue is
    /// empty.
    pub fn register_waiting(&self, src: usize, tag: u32) -> Option<Msg> {
        let mut inner = self.lock();
        if let Some(msg) = inner.pop(src, tag) {
            return Some(msg);
        }
        inner.epoch += 1;
        let epoch = inner.epoch;
        inner.state = RankState::Waiting { src, tag, epoch };
        None
    }

    /// One bounded wait slice for a registered waiter: take the message
    /// if it arrived (and ensure the state is back to `Running`), else
    /// return `None` after at most `slice`, leaving the registration in
    /// place so the detector keeps seeing the same epoch.
    pub fn take_slice(&self, src: usize, tag: u32, slice: Duration) -> Option<Msg> {
        // lint: allow(wall-clock) — receive timeouts need host time
        let deadline = Instant::now() + slice;
        let mut inner = self.lock();
        loop {
            if let Some(msg) = inner.pop(src, tag) {
                inner.state = RankState::Running;
                return Some(msg);
            }
            // lint: allow(wall-clock)
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _res) = self
                .cond
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    /// Clear a registration without consuming a message (the waiter is
    /// giving up, e.g. to panic with context).
    pub fn set_running(&self) {
        self.lock().state = RankState::Running;
    }

    /// Mark the owning rank finished (`panicked` says how).
    pub fn set_done(&self, panicked: bool) {
        self.lock().state = RankState::Done { panicked };
    }

    /// Snapshot the owner's wait state (for the deadlock detector).
    pub fn wait_state(&self) -> RankState {
        self.lock().state
    }

    /// How many `(src, tag)` queues the mailbox holds, empty ones included.
    #[cfg(test)]
    pub fn keys(&self) -> usize {
        self.lock().queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_take_roundtrip() {
        let mb = Mailbox::new();
        mb.put(
            3,
            7,
            Msg {
                bytes: vec![1, 2],
                depart: 0.5,
            },
        );
        let m = mb.take(0, 3, 7, Duration::from_secs(1));
        assert_eq!(m.bytes, vec![1, 2]);
        assert_eq!(m.depart, 0.5);
    }

    #[test]
    fn fifo_order_per_key() {
        let mb = Mailbox::new();
        for i in 0..5u8 {
            mb.put(
                0,
                1,
                Msg {
                    bytes: vec![i],
                    depart: 0.0,
                },
            );
        }
        for i in 0..5u8 {
            assert_eq!(mb.take(0, 0, 1, Duration::from_secs(1)).bytes, vec![i]);
        }
    }

    #[test]
    fn keys_do_not_cross_talk() {
        let mb = Mailbox::new();
        mb.put(
            0,
            1,
            Msg {
                bytes: vec![10],
                depart: 0.0,
            },
        );
        mb.put(
            0,
            2,
            Msg {
                bytes: vec![20],
                depart: 0.0,
            },
        );
        mb.put(
            1,
            1,
            Msg {
                bytes: vec![30],
                depart: 0.0,
            },
        );
        assert_eq!(mb.take(0, 1, 1, Duration::from_secs(1)).bytes, vec![30]);
        assert_eq!(mb.take(0, 0, 2, Duration::from_secs(1)).bytes, vec![20]);
        assert_eq!(mb.take(0, 0, 1, Duration::from_secs(1)).bytes, vec![10]);
    }

    #[test]
    fn blocking_take_wakes_on_put() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || mb2.take(0, 9, 9, Duration::from_secs(5)).bytes);
        std::thread::sleep(Duration::from_millis(20));
        mb.put(
            9,
            9,
            Msg {
                bytes: vec![42],
                depart: 0.0,
            },
        );
        assert_eq!(h.join().unwrap(), vec![42]);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn timeout_panics_with_context() {
        let mb = Mailbox::new();
        mb.take(5, 0, 0, Duration::from_millis(10));
    }

    #[test]
    fn try_take_returns_none_on_timeout_and_some_on_message() {
        let mb = Mailbox::new();
        assert!(mb.try_take(0, 0, Duration::from_millis(5)).is_none());
        mb.put(
            0,
            0,
            Msg {
                bytes: vec![9],
                depart: 0.0,
            },
        );
        let m = mb.try_take(0, 0, Duration::from_millis(5)).unwrap();
        assert_eq!(m.bytes, vec![9]);
    }

    #[test]
    fn register_takes_queued_message_without_waiting_state() {
        let mb = Mailbox::new();
        mb.put(
            1,
            4,
            Msg {
                bytes: vec![7],
                depart: 0.0,
            },
        );
        let m = mb.register_waiting(1, 4).expect("message was queued");
        assert_eq!(m.bytes, vec![7]);
        assert_eq!(mb.wait_state(), RankState::Running);
    }

    #[test]
    fn matching_put_flips_registered_waiter_to_running() {
        let mb = Mailbox::new();
        assert!(mb.register_waiting(1, 4).is_none());
        let before = mb.wait_state();
        assert!(matches!(before, RankState::Waiting { src: 1, tag: 4, .. }));

        // A non-matching deposit leaves the registration in place…
        mb.put(
            2,
            4,
            Msg {
                bytes: vec![0],
                depart: 0.0,
            },
        );
        assert_eq!(mb.wait_state(), before);

        // …a matching one atomically flips it.
        mb.put(
            1,
            4,
            Msg {
                bytes: vec![1],
                depart: 0.0,
            },
        );
        assert_eq!(mb.wait_state(), RankState::Running);
        let m = mb.take_slice(1, 4, Duration::from_millis(50)).unwrap();
        assert_eq!(m.bytes, vec![1]);
    }

    #[test]
    fn emptied_collective_queues_go_and_user_queues_stay() {
        let mb = Mailbox::new();
        let msg = || Msg {
            bytes: vec![0],
            depart: 0.0,
        };
        let coll = COLLECTIVE_TAG_BASE + 64;
        mb.put(0, 5, msg());
        mb.put(1, coll, msg());
        mb.put(1, coll, msg());
        assert_eq!(mb.keys(), 2);
        let _ = mb.take(0, 0, 5, Duration::from_secs(1));
        let _ = mb.take(0, 1, coll, Duration::from_secs(1));
        assert_eq!(mb.keys(), 2, "the collective queue still holds a message");
        let _ = mb.register_waiting(1, coll).expect("second message");
        assert_eq!(mb.keys(), 1, "only the user tag's queue is left");
    }

    #[test]
    fn reregistration_bumps_epoch() {
        let mb = Mailbox::new();
        assert!(mb.register_waiting(0, 0).is_none());
        let RankState::Waiting { epoch: e1, .. } = mb.wait_state() else {
            panic!("expected waiting");
        };
        mb.set_running();
        assert!(mb.register_waiting(0, 0).is_none());
        let RankState::Waiting { epoch: e2, .. } = mb.wait_state() else {
            panic!("expected waiting");
        };
        assert!(e2 > e1, "epoch must advance across re-registration");
    }
}
