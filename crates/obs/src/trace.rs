//! Causal comm tracing: a communicator wrapper stamping every user-level
//! point-to-point operation into the rank's comm-event ring.
//!
//! [`TracingComm`] follows the same opt-in wrapper pattern as
//! `qmc_verify::RecordingComm` and `qmc_comm::FaultyComm`: production
//! drivers never construct it, so bare runs carry zero overhead and move
//! exactly the same bytes; a traced run wraps each rank's communicator
//! and the physics code is untouched. Compound operations (sendrecv, the
//! collectives, the `_into` variants) are *not* forwarded wholesale —
//! the trait's default implementations decompose them through
//! `send_bytes`/`recv_bytes`/`*_internal` on the wrapper, so the traced
//! event stream is the exact user-level message pattern.
//!
//! Each event carries a per-channel sequence number: the `seq`-th user
//! message on the directed channel `(src, dst, tag)`. Both end points
//! count their own channel traffic, so a send and the receive it
//! satisfied agree on `(src, dst, tag, seq)` with no global clock — the
//! merger in [`crate::analysis`] pairs them on that key into
//! happens-before edges. Collective-internal traffic is forwarded
//! verbatim and untraced (it would swamp the ring and its causality is
//! already implied by the SPMD collective ordering). The counters are a
//! linear-scanned `Vec<(peer, tag, count)>` — a rank talks to a handful
//! of peers over a handful of tags, and the scan keeps the traced hot
//! path inside the 2 % budget `repro bench` guards — and they advance
//! even when recording is off: the peer cannot see our flag, and both
//! ends must agree.

use std::time::Duration;

use qmc_comm::{CommStats, Communicator};

use crate::record::CommDir;
use crate::span::{comm_event, now_us, spans_enabled, CommRec};

/// Per-channel message counters. A rank talks to a handful of peers over
/// a handful of tags, so a linear scan over a tiny table beats hashing
/// on the per-message hot path (the guarded trace overhead budget is 2%
/// of a whole halo-exchange sweep).
#[derive(Default)]
struct ChannelSeq(Vec<(usize, u32, u64)>);

impl ChannelSeq {
    /// Post-increment the counter for `(peer, tag)`.
    #[inline]
    fn bump(&mut self, peer: usize, tag: u32) -> u64 {
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

/// Communicator wrapper that records user-level sends/receives into the
/// current thread's recorder (see [`crate::init`]). When no recorder is
/// installed or spans are disabled, every operation forwards with one
/// thread-local flag check of overhead.
pub struct TracingComm<'a, C: Communicator> {
    inner: &'a mut C,
    /// Messages sent so far per `(dest, tag)` channel.
    send_seq: ChannelSeq,
    /// Messages received so far per `(src, tag)` channel.
    recv_seq: ChannelSeq,
}

impl<'a, C: Communicator> TracingComm<'a, C> {
    /// Wrap `inner`. Channel sequence numbers start at zero, so wrap
    /// once per run (before the first traced message), not mid-stream.
    pub fn new(inner: &'a mut C) -> Self {
        Self {
            inner,
            send_seq: ChannelSeq::default(),
            recv_seq: ChannelSeq::default(),
        }
    }
}

impl<C: Communicator> Communicator for TracingComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_bytes(&mut self, dest: usize, tag: u32, data: &[u8]) {
        // Sequence numbers advance whether or not recording is on: both
        // endpoints must agree on them, and the peer can't see our flag.
        let seq = self.send_seq.bump(dest, tag);
        if !spans_enabled() {
            return self.inner.send_bytes(dest, tag, data);
        }
        let t0 = now_us();
        self.inner.send_bytes(dest, tag, data);
        comm_event(CommRec {
            dir: CommDir::Send,
            peer: dest as u64,
            tag,
            seq,
            bytes: data.len() as u64,
            t0_us: t0,
            t1_us: now_us(),
            span_id: 0, // stamped by comm_event
        });
    }

    fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let seq = self.recv_seq.bump(src, tag);
        if !spans_enabled() {
            return self.inner.recv_bytes(src, tag);
        }
        let t0 = now_us();
        let msg = self.inner.recv_bytes(src, tag);
        comm_event(CommRec {
            dir: CommDir::Recv,
            peer: src as u64,
            tag,
            seq,
            bytes: msg.len() as u64,
            t0_us: t0,
            t1_us: now_us(),
            span_id: 0, // stamped by comm_event
        });
        msg
    }

    fn recv_bytes_timeout(&mut self, src: usize, tag: u32, timeout: Duration) -> Option<Vec<u8>> {
        if !spans_enabled() {
            let msg = self.inner.recv_bytes_timeout(src, tag, timeout)?;
            self.recv_seq.bump(src, tag);
            return Some(msg);
        }
        let t0 = now_us();
        // A timed-out attempt delivered nothing: the channel count must
        // only advance on delivery or the key would drift off the
        // sender's numbering.
        let msg = self.inner.recv_bytes_timeout(src, tag, timeout)?;
        let seq = self.recv_seq.bump(src, tag);
        comm_event(CommRec {
            dir: CommDir::Recv,
            peer: src as u64,
            tag,
            seq,
            bytes: msg.len() as u64,
            t0_us: t0,
            t1_us: now_us(),
            span_id: 0, // stamped by comm_event
        });
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
        self.inner.next_collective_seq()
    }

    fn send_internal(&mut self, dest: usize, tag: u32, data: &[u8]) {
        self.inner.send_internal(dest, tag, data);
    }

    fn recv_internal(&mut self, src: usize, tag: u32) -> Vec<u8> {
        self.inner.recv_internal(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommDir;
    use crate::span::{finish, init, span, ObsConfig};
    use qmc_comm::SerialComm;

    #[test]
    fn untraced_when_recorder_absent() {
        let mut comm = SerialComm::new();
        let mut tc = TracingComm::new(&mut comm);
        tc.send_bytes(0, 3, &[1, 2]);
        assert_eq!(tc.recv_bytes(0, 3), vec![1, 2]);
        assert!(finish().is_none());
    }

    #[test]
    fn events_carry_channel_seq_and_span_id() {
        init(0, &ObsConfig::new());
        let mut comm = SerialComm::new();
        let mut tc = TracingComm::new(&mut comm);
        let sweep_id = {
            let s = span("exchange");
            let id = s.id();
            tc.send_bytes(0, 7, &[1, 2, 3]);
            tc.send_bytes(0, 7, &[4]);
            tc.recv_bytes(0, 7);
            tc.recv_bytes(0, 7);
            id
        };
        // Outside any span: span_id is 0.
        tc.send_bytes(0, 9, &[5]);
        tc.recv_bytes(0, 9);
        let obs = finish().unwrap();
        assert_eq!(obs.comm_events.len(), 6);
        assert_eq!(obs.dropped_comm_events, 0);
        let e = &obs.comm_events;
        assert_eq!(e[0].dir, CommDir::Send);
        assert_eq!((e[0].tag, e[0].seq, e[0].bytes), (7, 0, 3));
        assert_eq!((e[1].tag, e[1].seq), (7, 1));
        assert_eq!(e[2].dir, CommDir::Recv);
        assert_eq!((e[2].tag, e[2].seq, e[2].bytes), (7, 0, 3));
        assert_eq!((e[3].tag, e[3].seq), (7, 1));
        for ev in &e[..4] {
            assert_eq!(ev.span_id, sweep_id);
            assert!(ev.t1_us >= ev.t0_us);
        }
        // The tag-9 pair is a fresh channel: seq restarts at 0.
        assert_eq!((e[4].tag, e[4].seq, e[4].span_id), (9, 0, 0));
        assert_eq!(e[5].dir, CommDir::Recv);
        // Events are chronological.
        for w in e.windows(2) {
            assert!(w[0].t0_us <= w[1].t0_us);
        }
    }

    #[test]
    fn collective_traffic_is_not_traced() {
        init(0, &ObsConfig::new());
        let mut comm = SerialComm::new();
        let mut tc = TracingComm::new(&mut comm);
        tc.barrier();
        let sum = tc.allreduce_f64(&[2.0], qmc_comm::ReduceOp::Sum);
        assert_eq!(sum, vec![2.0]);
        let obs = finish().unwrap();
        assert!(obs.comm_events.is_empty());
    }

    #[test]
    fn sendrecv_decomposes_into_traced_send_then_recv() {
        init(0, &ObsConfig::new());
        let mut comm = SerialComm::new();
        let mut tc = TracingComm::new(&mut comm);
        let got = tc.sendrecv_bytes(0, 4, &[9, 9], 0, 4);
        assert_eq!(got, vec![9, 9]);
        let obs = finish().unwrap();
        assert_eq!(obs.comm_events.len(), 2);
        assert_eq!(obs.comm_events[0].dir, CommDir::Send);
        assert_eq!(obs.comm_events[1].dir, CommDir::Recv);
    }

    #[test]
    fn timeout_recv_counts_only_deliveries() {
        init(0, &ObsConfig::new());
        let mut comm = SerialComm::new();
        let mut tc = TracingComm::new(&mut comm);
        tc.send_bytes(0, 2, &[1]);
        let got = tc.recv_bytes_timeout(0, 2, Duration::from_millis(1));
        assert_eq!(got, Some(vec![1]));
        let obs = finish().unwrap();
        assert_eq!(obs.comm_events.len(), 2);
        assert_eq!(obs.comm_events[1].seq, 0);
    }
}
