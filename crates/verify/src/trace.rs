//! Per-rank communication event traces and the protocol [`Recorder`].
//!
//! [`Recorder`] is the [`Observer`] that captures every point-to-point
//! message an [`Observed`] communicator carries, user *and*
//! collective-internal, plus a marker per collective entry;
//! [`qmc_comm::observe`] says what the decorator forwards. Recording is
//! strictly opt-in: production drivers never construct the decorator.
//! The captured [`WorldTrace`] feeds the offline checker in
//! [`crate::checker`].

use qmc_comm::{CommDir, Communicator, Message, Observed, Observer, COLLECTIVE_TAG_BASE};
use std::sync::{Arc, Mutex};

/// One recorded communication event on a single rank.
///
/// Events are recorded in program order per rank; the checker replays
/// them under the deterministic `(source, tag)` matching semantics of
/// the comm layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A buffered, non-blocking send to `dst`.
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u32,
        /// Payload size.
        bytes: usize,
        /// True when issued by a collective implementation (reserved
        /// tag range); false for user-level `send_bytes`.
        internal: bool,
    },
    /// A completed blocking receive from `src`.
    Recv {
        /// Source rank named by the receive.
        src: usize,
        /// Message tag named by the receive.
        tag: u32,
        /// Payload size actually delivered.
        bytes: usize,
        /// True when issued by a collective implementation.
        internal: bool,
    },
    /// Entry into a provided collective (barrier/broadcast/reduce/
    /// gather); `seq` is the SPMD collective sequence number, which must
    /// advance identically on every rank.
    Collective {
        /// The collective sequence number observed.
        seq: u32,
    },
}

/// The full trace of one SPMD run: `ranks[r]` is rank `r`'s event list.
#[derive(Debug, Clone, Default)]
pub struct WorldTrace {
    /// Per-rank event lists, indexed by rank.
    pub ranks: Vec<Vec<Event>>,
}

impl WorldTrace {
    /// Total number of recorded events across all ranks.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// True when no rank recorded any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records every message and collective entry it is shown, in program
/// order.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
}

impl Recorder {
    /// Consume the recorder and return the recorded events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Observer for Recorder {
    fn start(&mut self, _internal: bool) -> Option<f64> {
        Some(0.0)
    }

    fn message(&mut self, msg: Message, _t0: f64) {
        let (tag, bytes) = (msg.tag, msg.bytes);
        let internal = tag >= COLLECTIVE_TAG_BASE;
        self.events.push(match msg.dir {
            CommDir::Send => Event::Send {
                dst: msg.peer,
                tag,
                bytes,
                internal,
            },
            CommDir::Recv => Event::Recv {
                src: msg.peer,
                tag,
                bytes,
                internal,
            },
        });
    }

    fn collective(&mut self, seq: u32) {
        self.events.push(Event::Collective { seq });
    }
}

/// Run an SPMD function on `nranks` thread-backed ranks with recording
/// enabled, returning each rank's result alongside the assembled
/// [`WorldTrace`].
///
/// This is the one-call entry point for protocol verification:
///
/// ```
/// use qmc_comm::Communicator;
///
/// let (results, trace) = qmc_verify::record_threads(2, |comm| {
///     if comm.rank() == 0 {
///         comm.send_bytes(1, 5, &[1, 2, 3]);
///         0
///     } else {
///         comm.recv_bytes(0, 5).len()
///     }
/// });
/// assert_eq!(results, vec![0, 3]);
/// qmc_verify::check(&trace).expect("protocol is clean");
/// ```
pub fn record_threads<T, F>(nranks: usize, f: F) -> (Vec<T>, WorldTrace)
where
    T: Send,
    F: Fn(&mut Observed<'_, qmc_comm::ThreadComm, Recorder>) -> T + Send + Sync,
{
    let slots: Arc<Mutex<Vec<Vec<Event>>>> = Arc::new(Mutex::new(vec![Vec::new(); nranks]));
    let slots2 = slots.clone();
    let results = qmc_comm::run_threads(nranks, move |comm| {
        let rank = comm.rank();
        let mut rec = Observed::new(comm, Recorder::default());
        let out = f(&mut rec);
        let events = rec.into_observer().into_events();
        slots2.lock().unwrap_or_else(|e| e.into_inner())[rank] = events;
        out
    });
    let ranks = std::mem::take(&mut *slots.lock().unwrap_or_else(|e| e.into_inner()));
    (results, WorldTrace { ranks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_comm::SerialComm;

    #[test]
    fn records_user_send_recv() {
        let mut comm = SerialComm::new();
        let mut rec = Observed::new(&mut comm, Recorder::default());
        rec.send_bytes(0, 3, &[1, 2]);
        let got = rec.recv_bytes(0, 3);
        assert_eq!(got, vec![1, 2]);
        assert_eq!(
            rec.into_observer().into_events(),
            vec![
                Event::Send {
                    dst: 0,
                    tag: 3,
                    bytes: 2,
                    internal: false
                },
                Event::Recv {
                    src: 0,
                    tag: 3,
                    bytes: 2,
                    internal: false
                },
            ]
        );
    }

    #[test]
    fn collectives_decompose_into_internal_events() {
        let (_, trace) = record_threads(2, |comm| {
            comm.allreduce_f64(&[comm.rank() as f64], qmc_comm::ReduceOp::Sum)
        });
        for events in &trace.ranks {
            assert!(matches!(events[0], Event::Collective { seq: 0 }));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Send { internal: true, .. })));
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Recv { internal: true, .. })));
        }
    }

    #[test]
    fn sendrecv_decomposes_into_send_then_recv() {
        let (_, trace) = record_threads(2, |comm| {
            let other = 1 - comm.rank();
            comm.sendrecv_bytes(other, 4, &[9], other, 4)
        });
        for events in &trace.ranks {
            assert_eq!(events.len(), 2);
            assert!(matches!(
                events[0],
                Event::Send {
                    internal: false,
                    ..
                }
            ));
            assert!(matches!(
                events[1],
                Event::Recv {
                    internal: false,
                    ..
                }
            ));
        }
    }
}
