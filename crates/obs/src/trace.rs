//! Causal comm tracing: [`Tracer`] is the [`Observer`] that stamps every
//! user-level point-to-point message into the rank's comm-event ring.
//!
//! A traced run wraps each rank's communicator as
//! `Observed::new(comm, Tracer)`; the physics code is untouched, and
//! [`qmc_comm::observe`] says what the decorator forwards and how it
//! numbers channels. Each event carries that per-channel sequence
//! number, so a send and the receive it satisfied agree on
//! `(src, dst, tag, seq)` with no global clock — the merger in
//! [`crate::analysis`] pairs them on that key into happens-before edges.
//! Collective traffic is not traced: it would swamp the ring, and its
//! causality is already implied by the SPMD collective order. With spans
//! off (or no recorder installed) a message costs one thread-local flag
//! check beyond the channel count.

use qmc_comm::{Message, Observer};

use crate::record::CommEvent;
use crate::span::{comm_event, now_us, spans_enabled};

/// Records user-level sends and receives into the current thread's
/// recorder (see [`crate::init`]), timed on the span clock and stamped
/// with the innermost open span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer;

impl Observer for Tracer {
    #[inline]
    fn start(&mut self, internal: bool) -> Option<f64> {
        (!internal && spans_enabled()).then(now_us)
    }

    #[inline]
    fn message(&mut self, msg: Message, t0_us: f64) {
        comm_event(CommEvent {
            dir: msg.dir,
            peer: msg.peer as u64,
            tag: msg.tag,
            seq: msg.seq,
            bytes: msg.bytes as u64,
            t0_us,
            t1_us: now_us(),
            span_id: 0, // stamped by comm_event
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CommDir;
    use crate::span::{finish, init, span, ObsConfig};
    use qmc_comm::{Communicator, Observed, SerialComm};
    use std::time::Duration;

    #[test]
    fn untraced_when_recorder_absent() {
        let mut comm = SerialComm::new();
        let mut tc = Observed::new(&mut comm, Tracer);
        tc.send_bytes(0, 3, &[1, 2]);
        assert_eq!(tc.recv_bytes(0, 3), vec![1, 2]);
        assert!(finish().is_none());
    }

    #[test]
    fn events_carry_channel_seq_and_span_id() {
        init(0, &ObsConfig::new());
        let mut comm = SerialComm::new();
        let mut tc = Observed::new(&mut comm, Tracer);
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
        let mut tc = Observed::new(&mut comm, Tracer);
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
        let mut tc = Observed::new(&mut comm, Tracer);
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
        let mut tc = Observed::new(&mut comm, Tracer);
        tc.send_bytes(0, 2, &[1]);
        let got = tc.recv_bytes_timeout(0, 2, Duration::from_millis(1));
        assert_eq!(got, Some(vec![1]));
        let obs = finish().unwrap();
        assert_eq!(obs.comm_events.len(), 2);
        assert_eq!(obs.comm_events[1].seq, 0);
    }
}
