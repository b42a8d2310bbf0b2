//! Message-passing substrate for a (simulated) massively parallel computer.
//!
//! The SC'93-class QMC codes were written against NX/CMMD-style message
//! passing on 2-D mesh multicomputers. Rust's MPI story is thin, so this
//! crate *is* the machine:
//!
//! * [`ThreadComm`] / [`run_threads`] — every rank is an OS thread on the
//!   host; messages go through in-memory mailboxes. Real concurrency, real
//!   wall-clock speedups, used by all correctness tests.
//! * [`ModelComm`] / [`run_model`] — the same program text executes under a
//!   **virtual clock** with an `α + β·bytes + hops·δ` network cost model
//!   and a configurable per-node compute rate ([`MachineModel`]). This is
//!   how the P = 1…1024 scaling tables are regenerated deterministically on
//!   a laptop: the *shape* of the speedup curves depends only on the model,
//!   not on host scheduling.
//! * [`SerialComm`] — the size-1 degenerate communicator, so every solver
//!   can run single-rank without ceremony.
//!
//! Two decorators wrap any of them: [`Observed`] reports every message to
//! an [`Observer`] (tracing and protocol recording are observers), and
//! [`FaultyComm`] perturbs delivery. [`ChannelSeq`] is the one
//! per-channel message counter both number their traffic with.
//!
//! # Programming model
//!
//! SPMD with explicit-source, explicit-tag messaging: `send` is buffered
//! and non-blocking, `recv(src, tag)` blocks. Because receives always name
//! their source and tag, message matching is deterministic — a fixed
//! program yields bit-identical results regardless of host thread
//! scheduling (this is also what makes the virtual clock well defined).
//!
//! Collectives (barrier, broadcast, reduce, gather) are provided methods
//! implemented with textbook binomial-tree / recursive-doubling patterns on
//! top of point-to-point sends, so the cost model automatically charges
//! them their real `O(log P)` critical path.
//!
//! ```
//! use qmc_comm::{run_threads, Communicator, ReduceOp};
//!
//! // Four thread-backed ranks sum their ranks with an allreduce.
//! let results = run_threads(4, |comm| {
//!     comm.allreduce_f64(&[comm.rank() as f64], ReduceOp::Sum)[0]
//! });
//! assert_eq!(results, vec![6.0; 4]);
//! ```
//!
//! ```
//! use qmc_comm::{run_model, job_seconds, Communicator, MachineModel};
//!
//! // The same program under the simulated 1993 mesh: virtual time moves
//! // only through compute charges and modeled message delays.
//! let reports = run_model(2, MachineModel::mesh_1993(2), |comm| {
//!     comm.compute(1_000_000.0); // one million flop-equivalents
//!     comm.barrier();
//! });
//! assert!(job_seconds(&reports) > 0.03); // ≥ 1 Mflop at 25 Mflop/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadlock;
mod mailbox;
mod serial;
mod thread_world;

pub mod crc;
pub mod faulty;
pub mod model;
pub mod observe;
pub mod tcp;

pub mod util;

pub use deadlock::WaitEdge;
pub use faulty::{FaultPlan, FaultStats, FaultyComm};
pub use model::{job_seconds, run_model, MachineModel, ModelComm, ModelReport};
pub use observe::{ChannelSeq, CommDir, Message, Observed, Observer};
pub use serial::SerialComm;
pub use thread_world::{
    run_threads, run_threads_elastic, run_threads_with_timeout, ElasticError, ElasticRun,
    ThreadComm,
};

use std::time::Duration;

/// Tags at or above this value are reserved for the collective
/// implementations; user code must stay below.
pub const COLLECTIVE_TAG_BASE: u32 = 0x8000_0000;

/// Shared misuse check for user-level receives: every back-end panics
/// with the same rank/src/tag context on an out-of-range source or a
/// reserved-range tag, so a bad receive is diagnosable regardless of
/// which communicator the engine happens to be running on.
#[inline]
pub(crate) fn check_recv_args(me: usize, size: usize, src: usize, tag: u32) {
    assert!(
        src < size,
        "rank {me}: recv(src={src}, tag={tag:#x}): src out of range for size-{size} world"
    );
    assert!(
        tag < COLLECTIVE_TAG_BASE,
        "rank {me}: recv(src={src}, tag={tag:#x}): tag is reserved for collectives"
    );
}

/// Reduction operators for [`Communicator::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    #[inline]
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Per-rank communication statistics, in virtual seconds for
/// [`ModelComm`] and wall seconds for [`ThreadComm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent (collective-internal ones included).
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received (collective-internal included).
    pub messages_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Largest single payload moved in either direction, in bytes.
    pub max_message_bytes: u64,
    /// Time attributed to communication (send overhead + receive waits).
    pub comm_seconds: f64,
    /// Time attributed to computation (explicit [`Communicator::compute`]
    /// charges under the model; unused by the thread back-end).
    pub compute_seconds: f64,
    /// Time spent blocked in receives waiting for a message to become
    /// available (a subset of `comm_seconds`: excludes send and receive
    /// overheads). Zero for [`SerialComm`], whose receives never block.
    pub recv_wait_seconds: f64,
}

impl CommStats {
    /// Fraction of accounted time spent communicating:
    /// `comm / (comm + compute)`, or 0 when nothing was accounted.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.comm_seconds + self.compute_seconds;
        if total > 0.0 {
            self.comm_seconds / total
        } else {
            0.0
        }
    }

    /// Elementwise sum of two stat records (used when aggregating ranks).
    pub fn merged(&self, other: &CommStats) -> CommStats {
        CommStats {
            messages_sent: self.messages_sent + other.messages_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            messages_recv: self.messages_recv + other.messages_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            max_message_bytes: self.max_message_bytes.max(other.max_message_bytes),
            comm_seconds: self.comm_seconds + other.comm_seconds,
            compute_seconds: self.compute_seconds + other.compute_seconds,
            recv_wait_seconds: self.recv_wait_seconds + other.recv_wait_seconds,
        }
    }

    #[inline]
    fn note_sent(&mut self, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        self.max_message_bytes = self.max_message_bytes.max(bytes as u64);
    }

    #[inline]
    fn note_received(&mut self, bytes: usize) {
        self.messages_recv += 1;
        self.bytes_recv += bytes as u64;
        self.max_message_bytes = self.max_message_bytes.max(bytes as u64);
    }
}

/// The SPMD communication interface all engines are written against.
pub trait Communicator {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Buffered, non-blocking send of a byte payload.
    ///
    /// Panics if `tag >= COLLECTIVE_TAG_BASE` (reserved) or `dest` is out
    /// of range.
    fn send_bytes(&mut self, dest: usize, tag: u32, data: &[u8]);

    /// Blocking receive of the next message from `src` with `tag`.
    ///
    /// Panics with rank/src/tag context if `src` is out of range or `tag`
    /// is in the reserved collective range (same contract as
    /// [`Self::send_bytes`], uniform across back-ends).
    fn recv_bytes(&mut self, src: usize, tag: u32) -> Vec<u8>;

    /// Receive like [`Self::recv_bytes`], but give up after `timeout` and
    /// return `None` instead of blocking forever.
    ///
    /// This is the primitive fault-tolerant retry loops are built on
    /// (see `FaultyComm`): a lost message shows up as a timeout, the
    /// caller retries with backoff, and a peer that is truly gone turns
    /// into a bounded failure instead of a hang. Misuse (bad `src`,
    /// reserved `tag`) still panics — only the *absence of a message* is
    /// reported via `None`.
    fn recv_bytes_timeout(&mut self, src: usize, tag: u32, timeout: Duration) -> Option<Vec<u8>> {
        let _ = timeout;
        Some(self.recv_bytes(src, tag))
    }

    /// Charge `units` of abstract compute work to this rank's clock.
    ///
    /// Under [`ModelComm`] a unit is one floating-point-op-equivalent;
    /// [`ThreadComm`] ignores the charge (real time passes instead).
    fn compute(&mut self, units: f64);

    /// Elapsed time on this rank's clock, in seconds.
    ///
    /// Two clock semantics coexist behind this one method (pinned by the
    /// `clock semantics` unit tests in each back-end):
    ///
    /// * **Wall** ([`SerialComm`], [`ThreadComm`]): monotonically advances
    ///   with host time; [`Self::compute`] charges are accounting only and
    ///   never move it.
    /// * **Virtual** ([`ModelComm`]): advances *only* through
    ///   [`Self::compute`] charges and modeled message latency; host wall
    ///   time (sleeps, slow hardware) never moves it.
    fn now(&self) -> f64;

    /// Communication statistics so far.
    fn stats(&self) -> CommStats;

    // ------------------------------------------------------------------
    // Internal plumbing for the provided collectives.
    // ------------------------------------------------------------------

    /// Monotone counter shared by the provided collectives; every rank
    /// must call collectives in the same order (SPMD discipline).
    #[doc(hidden)]
    fn next_collective_seq(&mut self) -> u32;

    /// Reserved-tag send used by the provided collectives.
    #[doc(hidden)]
    fn send_internal(&mut self, dest: usize, tag: u32, data: &[u8]);

    /// Reserved-tag receive used by the provided collectives.
    #[doc(hidden)]
    fn recv_internal(&mut self, src: usize, tag: u32) -> Vec<u8>;

    // ------------------------------------------------------------------
    // Typed convenience wrappers.
    // ------------------------------------------------------------------

    /// Send a slice of `f64`s.
    fn send_f64s(&mut self, dest: usize, tag: u32, data: &[f64]) {
        self.send_bytes(dest, tag, &util::f64s_to_bytes(data));
    }

    /// Receive a vector of `f64`s.
    fn recv_f64s(&mut self, src: usize, tag: u32) -> Vec<f64> {
        util::bytes_to_f64s(&self.recv_bytes(src, tag))
    }

    /// Combined send-then-receive (safe because sends are buffered): the
    /// idiom for halo exchange with a mesh neighbour pair.
    fn sendrecv_bytes(
        &mut self,
        dest: usize,
        send_tag: u32,
        data: &[u8],
        src: usize,
        recv_tag: u32,
    ) -> Vec<u8> {
        self.send_bytes(dest, send_tag, data);
        self.recv_bytes(src, recv_tag)
    }

    /// Blocking receive into a caller-provided buffer.
    ///
    /// Contract: `buf` is cleared and then filled with exactly the payload
    /// of the matched message; its *capacity* is reused, so a caller that
    /// keeps the buffer alive across iterations performs no steady-state
    /// heap allocation. The default delegates to [`Self::recv_bytes`];
    /// the in-repo back-ends override it to copy straight out of the
    /// mailbox message.
    fn recv_bytes_into(&mut self, src: usize, tag: u32, buf: &mut Vec<u8>) {
        let msg = self.recv_bytes(src, tag);
        buf.clear();
        buf.extend_from_slice(&msg);
    }

    /// Buffer-reuse variant of [`Self::sendrecv_bytes`]: the received
    /// payload lands in `recv_buf` (cleared first, capacity reused). Same
    /// buffered-send-then-blocking-receive semantics; the default impl
    /// delegates to [`Self::send_bytes`] + [`Self::recv_bytes_into`].
    fn sendrecv_bytes_into(
        &mut self,
        dest: usize,
        send_tag: u32,
        data: &[u8],
        src: usize,
        recv_tag: u32,
        recv_buf: &mut Vec<u8>,
    ) {
        self.send_bytes(dest, send_tag, data);
        self.recv_bytes_into(src, recv_tag, recv_buf);
    }

    // ------------------------------------------------------------------
    // Collectives (binomial tree / recursive doubling on point-to-point).
    // ------------------------------------------------------------------

    /// Synchronize all ranks (dissemination pattern, `⌈log₂ P⌉` rounds).
    fn barrier(&mut self) {
        let seq = self.next_collective_seq();
        let p = self.size();
        if p == 1 {
            return;
        }
        let me = self.rank();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            let tag = COLLECTIVE_TAG_BASE + seq.wrapping_mul(64) + round;
            self.send_internal(to, tag, &[]);
            self.recv_internal(from, tag);
            dist *= 2;
            round += 1;
        }
    }

    /// Broadcast `data` from `root` to every rank (binomial tree).
    fn broadcast_bytes(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        let seq = self.next_collective_seq();
        let p = self.size();
        if p == 1 {
            return data;
        }
        let tag = COLLECTIVE_TAG_BASE + seq.wrapping_mul(64);
        let me = self.rank();
        let vrank = (me + p - root) % p; // root maps to virtual 0
                                         // Receive once (unless root), then forward down the tree.
        let mut buf = if vrank == 0 {
            data
        } else {
            // Parent: clear the lowest set bit of vrank.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % p;
            self.recv_internal(parent, tag)
        };
        // Children: vrank + 2^k for k above vrank's lowest set bit range.
        let lowbit = if vrank == 0 {
            usize::MAX
        } else {
            vrank.trailing_zeros() as usize
        };
        let mut k = 0usize;
        while (1usize << k) < p {
            if k < lowbit {
                let child_v = vrank | (1 << k);
                if child_v != vrank && child_v < p {
                    let child = (child_v + root) % p;
                    let payload = std::mem::take(&mut buf);
                    self.send_internal(child, tag, &payload);
                    buf = payload;
                }
            }
            k += 1;
        }
        buf
    }

    /// Elementwise reduction of a `f64` vector across all ranks; every
    /// rank receives the result (recursive doubling with a fold-in step
    /// for non-power-of-two sizes).
    fn allreduce_f64(&mut self, values: &[f64], op: ReduceOp) -> Vec<f64> {
        let seq = self.next_collective_seq();
        let p = self.size();
        let mut acc = values.to_vec();
        if p == 1 {
            return acc;
        }
        let me = self.rank();
        let base = COLLECTIVE_TAG_BASE + seq.wrapping_mul(64);
        // Largest power of two ≤ p.
        let p2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
        let extra = p - p2;

        // Phase 1: ranks ≥ p2 fold into their partner (rank − p2).
        if me >= p2 {
            self.send_internal(me - p2, base, &util::f64s_to_bytes(&acc));
        } else if me < extra {
            let other = util::bytes_to_f64s(&self.recv_internal(me + p2, base));
            fold(&mut acc, &other, op);
        }

        // Phase 2: recursive doubling among ranks < p2.
        if me < p2 {
            let mut mask = 1usize;
            let mut round = 1u32;
            while mask < p2 {
                let partner = me ^ mask;
                let tag = base + round;
                self.send_internal(partner, tag, &util::f64s_to_bytes(&acc));
                let other = util::bytes_to_f64s(&self.recv_internal(partner, tag));
                fold(&mut acc, &other, op);
                mask <<= 1;
                round += 1;
            }
        }

        // Phase 3: partners get the result back.
        let final_tag = base + 63;
        if me < extra {
            self.send_internal(me + p2, final_tag, &util::f64s_to_bytes(&acc));
        } else if me >= p2 {
            acc = util::bytes_to_f64s(&self.recv_internal(me - p2, final_tag));
        }
        acc
    }

    /// Gather each rank's payload at `root`; returns `Some(payloads)` (in
    /// rank order) on the root and `None` elsewhere.
    fn gather_bytes(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let seq = self.next_collective_seq();
        let tag = COLLECTIVE_TAG_BASE + seq.wrapping_mul(64);
        let p = self.size();
        let me = self.rank();
        if me == root {
            let mut out = Vec::with_capacity(p);
            for r in 0..p {
                if r == me {
                    out.push(data.to_vec());
                } else {
                    out.push(self.recv_internal(r, tag));
                }
            }
            Some(out)
        } else {
            self.send_internal(root, tag, data);
            None
        }
    }

    /// Gather `f64` payloads at `root`.
    fn gather_f64s(&mut self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.gather_bytes(root, &util::f64s_to_bytes(data))
            .map(|v| v.iter().map(|b| util::bytes_to_f64s(b)).collect())
    }
}

#[inline]
fn fold(acc: &mut [f64], other: &[f64], op: ReduceOp) {
    assert_eq!(
        acc.len(),
        other.len(),
        "allreduce payload lengths differ across ranks"
    );
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = op.apply(*a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_semantics() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn serial_collectives_are_identity() {
        let mut c = SerialComm::new();
        assert_eq!(c.allreduce_f64(&[1.0, 2.0], ReduceOp::Sum), vec![1.0, 2.0]);
        assert_eq!(c.broadcast_bytes(0, vec![9]), vec![9]);
        c.barrier();
        assert_eq!(c.gather_bytes(0, &[7]).unwrap(), vec![vec![7]]);
    }

    #[test]
    fn thread_world_point_to_point() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 5, &[1, 2, 3]);
                0u8
            } else {
                comm.recv_bytes(0, 5)[2]
            }
        });
        assert_eq!(results, vec![0, 3]);
    }

    #[test]
    fn thread_world_allreduce_sum_all_sizes() {
        for p in 1..=9usize {
            let results = run_threads(p, move |comm| {
                let v = [comm.rank() as f64, 1.0];
                comm.allreduce_f64(&v, ReduceOp::Sum)
            });
            let expect = vec![(p * (p - 1) / 2) as f64, p as f64];
            for r in results {
                assert_eq!(r, expect, "P = {p}");
            }
        }
    }

    #[test]
    fn thread_world_allreduce_max_min() {
        let results = run_threads(5, |comm| {
            let v = [comm.rank() as f64];
            (
                comm.allreduce_f64(&v, ReduceOp::Max)[0],
                comm.allreduce_f64(&v, ReduceOp::Min)[0],
            )
        });
        for (mx, mn) in results {
            assert_eq!(mx, 4.0);
            assert_eq!(mn, 0.0);
        }
    }

    #[test]
    fn thread_world_broadcast_all_roots() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let results = run_threads(p, move |comm| {
                    let data = if comm.rank() == root {
                        vec![42, root as u8]
                    } else {
                        Vec::new()
                    };
                    comm.broadcast_bytes(root, data)
                });
                for r in results {
                    assert_eq!(r, vec![42, root as u8], "P={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn thread_world_gather_rank_order() {
        let results = run_threads(4, |comm| comm.gather_bytes(2, &[comm.rank() as u8]));
        for (r, res) in results.into_iter().enumerate() {
            if r == 2 {
                assert_eq!(res.unwrap(), vec![vec![0u8], vec![1], vec![2], vec![3]]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn thread_world_barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        run_threads(8, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank's increment must be visible.
            assert_eq!(c2.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn sendrecv_halo_ring() {
        // Each rank passes its rank id to the right around a ring.
        let results = run_threads(6, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let got = comm.sendrecv_bytes(right, 1, &[comm.rank() as u8], left, 1);
            got[0] as usize
        });
        assert_eq!(results, vec![5, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn sendrecv_into_ring_reuses_buffer() {
        // Repeated buffered exchanges must reuse the receive buffer's
        // allocation: the pointer never moves once capacity suffices.
        let results = run_threads(4, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let mut buf: Vec<u8> = Vec::with_capacity(16);
            let ptr0 = buf.as_ptr() as usize;
            for round in 0..10u8 {
                comm.sendrecv_bytes_into(right, 2, &[comm.rank() as u8, round], left, 2, &mut buf);
                assert_eq!(buf, [left as u8, round]);
            }
            assert_eq!(buf.as_ptr() as usize, ptr0, "recv buffer reallocated");
            buf[0] as usize
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn serial_sendrecv_into_self_wrap() {
        // P = 1 periodic wrap: the message comes straight back, reusing
        // the buffer's allocation.
        let mut comm = SerialComm::new();
        let mut buf: Vec<u8> = Vec::with_capacity(8);
        let ptr0 = buf.as_ptr() as usize;
        comm.sendrecv_bytes_into(0, 3, &[1, 2, 3], 0, 3, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        comm.sendrecv_bytes_into(0, 3, &[9], 0, 3, &mut buf);
        assert_eq!(buf, [9]);
        assert_eq!(buf.as_ptr() as usize, ptr0, "recv buffer reallocated");
    }

    #[test]
    fn recv_bytes_into_matches_recv_bytes() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 5, &[1, 2, 3]);
                comm.send_bytes(1, 5, &[4, 5]);
                Vec::new()
            } else {
                let a = comm.recv_bytes(0, 5);
                let mut b = Vec::new();
                comm.recv_bytes_into(0, 5, &mut b);
                vec![a, b]
            }
        });
        assert_eq!(results[1], vec![vec![1, 2, 3], vec![4, 5]]);
    }

    #[test]
    fn collectives_compose_repeatedly() {
        // Back-to-back collectives must not cross-talk.
        let results = run_threads(4, |comm| {
            let mut total = 0.0;
            for i in 0..10 {
                let s = comm.allreduce_f64(&[i as f64], ReduceOp::Sum)[0];
                comm.barrier();
                total += s;
            }
            total
        });
        let expect: f64 = (0..10).map(|i| (i * 4) as f64).sum();
        for r in results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn stats_count_messages() {
        let results = run_threads(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 1, &[0; 100]);
            } else {
                comm.recv_bytes(0, 1);
            }
            comm.stats()
        });
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[0].bytes_sent, 100);
        assert_eq!(results[0].messages_recv, 0);
        assert_eq!(results[0].max_message_bytes, 100);
        assert_eq!(results[1].messages_sent, 0);
        assert_eq!(results[1].messages_recv, 1);
        assert_eq!(results[1].bytes_recv, 100);
        assert_eq!(results[1].max_message_bytes, 100);
        assert!(results[1].recv_wait_seconds >= 0.0);
        assert!(results[1].recv_wait_seconds <= results[1].comm_seconds);
    }

    #[test]
    fn comm_fraction_and_merge() {
        let a = CommStats {
            comm_seconds: 1.0,
            compute_seconds: 3.0,
            max_message_bytes: 10,
            ..Default::default()
        };
        let b = CommStats {
            comm_seconds: 1.0,
            compute_seconds: 0.0,
            max_message_bytes: 64,
            ..Default::default()
        };
        assert_eq!(a.comm_fraction(), 0.25);
        assert_eq!(CommStats::default().comm_fraction(), 0.0);
        let m = a.merged(&b);
        assert_eq!(m.comm_seconds, 2.0);
        assert_eq!(m.compute_seconds, 3.0);
        assert_eq!(m.max_message_bytes, 64);
        assert_eq!(m.comm_fraction(), 0.4);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn user_tags_in_collective_space_rejected() {
        let mut c = SerialComm::new();
        c.send_bytes(0, COLLECTIVE_TAG_BASE, &[]);
    }
}
