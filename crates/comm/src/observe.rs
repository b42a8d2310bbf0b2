//! The one watching decorator: [`Observed`] forwards every operation
//! unchanged and reports each point-to-point message to an [`Observer`].
//! Compound operations (sendrecv, the collectives, the `_into` variants)
//! decompose through the trait's defaults into `send_bytes` /
//! `recv_bytes` / `*_internal` on the decorator, so an observer sees the
//! exact message pattern the back-ends execute. Bare runs never construct
//! it.
//!
//! A user-level message is numbered `seq` on its directed channel
//! `(src, dst, tag)`; both ends count, so a send and the receive it
//! satisfied agree on `(src, dst, tag, seq)` with no global clock. The
//! numbers advance whether or not the observer records (the peer cannot
//! see its choice), and a timed-out receive advances nothing. Collective
//! traffic, exactly the reserved tag range, reports `seq` 0: its tags
//! never repeat, so counting them would add a [`ChannelSeq`] entry per
//! collective.

use crate::{CommStats, Communicator};
use std::time::Duration;

/// Per-channel message counters, one entry per `(peer, tag)` channel.
///
/// A rank talks to a handful of peers over a handful of tags, so a
/// linear scan over a tiny table beats hashing on the per-message path
/// (the traced hot path must stay inside a 2 % overhead budget).
#[derive(Debug, Default)]
pub struct ChannelSeq(Vec<(usize, u32, u64)>);

impl ChannelSeq {
    /// Post-increment the counter for `(peer, tag)`: the first call on a
    /// channel returns 0.
    #[inline]
    pub fn bump(&mut self, peer: usize, tag: u32) -> u64 {
        for e in &mut self.0 {
            if e.0 == peer && e.1 == tag {
                let s = e.2;
                e.2 += 1;
                return s;
            }
        }
        self.0.push((peer, tag, 1));
        0
    }
}

/// Direction of a point-to-point message, from the observing rank's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDir {
    /// The observing rank sent the message.
    Send,
    /// The observing rank received the message.
    Recv,
}

/// One point-to-point message as an [`Observer`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Send or receive.
    pub dir: CommDir,
    /// The other rank.
    pub peer: usize,
    /// Message tag; at or above [`COLLECTIVE_TAG_BASE`](crate::COLLECTIVE_TAG_BASE)
    /// exactly when the message is collective traffic.
    pub tag: u32,
    /// Per-channel sequence number of user traffic (from 0); 0 for
    /// collective traffic.
    pub seq: u64,
    /// Payload bytes.
    pub bytes: usize,
}

/// What an [`Observed`] communicator reports to.
pub trait Observer {
    /// A send or receive is about to start; `internal` is true for
    /// collective traffic. Return a start time to have [`Self::message`]
    /// called once the operation completes, or `None` to skip it.
    fn start(&mut self, internal: bool) -> Option<f64>;

    /// A message was sent or delivered; `t0` is what [`Self::start`]
    /// returned for it.
    fn message(&mut self, msg: Message, t0: f64);

    /// A provided collective began with SPMD sequence number `seq`.
    fn collective(&mut self, _seq: u32) {}
}

/// A communicator decorator that reports every message to `O` and
/// changes nothing about its delivery.
pub struct Observed<'a, C: Communicator, O: Observer> {
    inner: &'a mut C,
    observer: O,
    /// Messages sent so far per `(dest, tag)` channel.
    send_seq: ChannelSeq,
    /// Messages received so far per `(src, tag)` channel.
    recv_seq: ChannelSeq,
}

impl<'a, C: Communicator, O: Observer> Observed<'a, C, O> {
    /// Wrap `inner`. Channel sequence numbers start at zero, so wrap once
    /// per run (before the first observed message), not mid-stream.
    pub fn new(inner: &'a mut C, observer: O) -> Self {
        Self {
            inner,
            observer,
            send_seq: ChannelSeq::default(),
            recv_seq: ChannelSeq::default(),
        }
    }

    /// Consume the decorator and return the observer.
    pub fn into_observer(self) -> O {
        self.observer
    }

    #[inline]
    fn report(
        &mut self,
        t0: Option<f64>,
        dir: CommDir,
        peer: usize,
        tag: u32,
        seq: u64,
        bytes: usize,
    ) {
        if let Some(t0) = t0 {
            let msg = Message {
                dir,
                peer,
                tag,
                seq,
                bytes,
            };
            self.observer.message(msg, t0);
        }
    }
}

impl<C: Communicator, O: Observer> Communicator for Observed<'_, C, O> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&mut self, dest: usize, tag: u32, data: &[u8]) {
        let seq = self.send_seq.bump(dest, tag);
        let t0 = self.observer.start(false);
        self.inner.send_bytes(dest, tag, data);
        self.report(t0, CommDir::Send, dest, tag, seq, data.len());
    }

    fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let seq = self.recv_seq.bump(src, tag);
        let t0 = self.observer.start(false);
        let msg = self.inner.recv_bytes(src, tag);
        self.report(t0, CommDir::Recv, src, tag, seq, msg.len());
        msg
    }

    fn recv_bytes_timeout(&mut self, src: usize, tag: u32, timeout: Duration) -> Option<Vec<u8>> {
        let t0 = self.observer.start(false);
        let msg = self.inner.recv_bytes_timeout(src, tag, timeout)?;
        let seq = self.recv_seq.bump(src, tag);
        self.report(t0, CommDir::Recv, src, tag, seq, msg.len());
        Some(msg)
    }

    fn compute(&mut self, units: f64) {
        self.inner.compute(units);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn next_collective_seq(&mut self) -> u32 {
        let seq = self.inner.next_collective_seq();
        self.observer.collective(seq);
        seq
    }

    fn send_internal(&mut self, dest: usize, tag: u32, data: &[u8]) {
        let t0 = self.observer.start(true);
        self.inner.send_internal(dest, tag, data);
        self.report(t0, CommDir::Send, dest, tag, 0, data.len());
    }

    fn recv_internal(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let t0 = self.observer.start(true);
        let msg = self.inner.recv_internal(src, tag);
        self.report(t0, CommDir::Recv, src, tag, 0, msg.len());
        msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_threads, ReduceOp};

    struct Ignore;

    impl Observer for Ignore {
        fn start(&mut self, _internal: bool) -> Option<f64> {
            None
        }
        fn message(&mut self, _msg: Message, _t0: f64) {}
    }

    #[test]
    fn collectives_leave_the_channel_counters_empty() {
        // Every collective uses fresh tags: were its traffic numbered, the
        // linear-scanned tables would grow by an entry per collective.
        run_threads(3, |comm| {
            let mut obs = Observed::new(comm, Ignore);
            for i in 0..1000 {
                let sum = obs.allreduce_f64(&[i as f64], ReduceOp::Sum);
                assert_eq!(sum, vec![3.0 * i as f64]);
            }
            assert!(obs.send_seq.0.is_empty() && obs.recv_seq.0.is_empty());
        });
    }
}
