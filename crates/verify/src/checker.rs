//! Offline model checker for recorded communication traces.
//!
//! The checker replays a [`WorldTrace`] under the comm layer's exact
//! matching semantics — receives name `(source, tag)`, sends are
//! buffered and never block, message order is FIFO per
//! `(source, destination, tag)` channel — and validates:
//!
//! * **Deadlock freedom**: the replay is driven greedily; because sends
//!   never block, the greedy schedule is confluent, so if it gets stuck
//!   the program deadlocks under *every* schedule. Stuck states are
//!   diagnosed via the wait-for graph: cycles are reported rank by rank
//!   (`rank 0 waits on rank 1 (tag 0x7) -> ...`).
//! * **Send/recv matching**: leftover queued messages at finalize are
//!   orphaned sends; a rank blocked on a peer that has finished (or that
//!   never sends a matching message) is an unreceivable receive.
//! * **Reserved-tag discipline**: user events must stay below
//!   `COLLECTIVE_TAG_BASE`, collective-internal events at or above it.
//! * **SPMD collective order**: every rank must observe the identical
//!   sequence of collective sequence numbers.
//! * **FIFO payload consistency**: each receive's payload size must
//!   equal the matched send's (a mismatch means the transport reordered
//!   or altered messages and the determinism argument is void).

use crate::trace::{Event, WorldTrace};
use qmc_comm::{WaitEdge, COLLECTIVE_TAG_BASE};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

/// A protocol violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A wait-for cycle: no rank in it can ever proceed.
    Deadlock {
        /// The cycle, canonicalized to start at its smallest rank.
        cycle: Vec<WaitEdge>,
    },
    /// A rank blocked on a receive that no remaining send can satisfy.
    UnreceivableRecv {
        /// The blocked rank.
        rank: usize,
        /// The named source rank (which has finished its trace).
        src: usize,
        /// The named tag.
        tag: u32,
        /// Index of the blocked receive in the rank's event list.
        event_index: usize,
    },
    /// A rank stuck behind another blocked rank (collateral damage of a
    /// deadlock or unreceivable receive elsewhere).
    Stalled {
        /// The stuck rank.
        rank: usize,
        /// The blocked rank it waits on.
        src: usize,
        /// The tag it waits for.
        tag: u32,
    },
    /// Messages still queued on a channel after every rank finished.
    OrphanSends {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Channel tag.
        tag: u32,
        /// Number of unconsumed messages.
        count: usize,
    },
    /// A user-level event used a reserved collective tag, or a
    /// collective-internal event used a user tag.
    ReservedTagMisuse {
        /// Offending rank.
        rank: usize,
        /// Index in the rank's event list.
        event_index: usize,
        /// The tag in question.
        tag: u32,
        /// True when a user event strayed into the reserved range;
        /// false when an internal event used a user tag.
        user_event: bool,
    },
    /// Ranks disagree on the order of collective operations.
    CollectiveDivergence {
        /// First rank of the disagreeing pair.
        rank_a: usize,
        /// Second rank of the disagreeing pair.
        rank_b: usize,
        /// Human-readable description of the first divergence.
        detail: String,
    },
    /// A receive's payload size differs from the matched send's.
    PayloadMismatch {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Channel tag.
        tag: u32,
        /// Bytes recorded at the send.
        sent: usize,
        /// Bytes recorded at the receive.
        received: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock { cycle } => {
                write!(f, "deadlock: ")?;
                for (i, e) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, " -> rank {}", cycle[0].rank)
            }
            Violation::UnreceivableRecv {
                rank,
                src,
                tag,
                event_index,
            } => write!(
                f,
                "unreceivable recv: rank {rank} event #{event_index} waits on rank {src} \
                 (tag {tag:#x}), but rank {src} finishes without a matching send"
            ),
            Violation::Stalled { rank, src, tag } => write!(
                f,
                "stalled: rank {rank} waits on blocked rank {src} (tag {tag:#x})"
            ),
            Violation::OrphanSends {
                src,
                dst,
                tag,
                count,
            } => write!(
                f,
                "orphaned sends: {count} message(s) from rank {src} to rank {dst} \
                 (tag {tag:#x}) never received"
            ),
            Violation::ReservedTagMisuse {
                rank,
                event_index,
                tag,
                user_event,
            } => {
                if *user_event {
                    write!(
                        f,
                        "reserved-tag misuse: rank {rank} event #{event_index} uses tag \
                         {tag:#x} in the collective-reserved range"
                    )
                } else {
                    write!(
                        f,
                        "reserved-tag misuse: rank {rank} event #{event_index} is \
                         collective-internal but uses user tag {tag:#x}"
                    )
                }
            }
            Violation::CollectiveDivergence {
                rank_a,
                rank_b,
                detail,
            } => write!(
                f,
                "collective divergence between rank {rank_a} and rank {rank_b}: {detail}"
            ),
            Violation::PayloadMismatch {
                src,
                dst,
                tag,
                sent,
                received,
            } => write!(
                f,
                "payload mismatch on channel rank {src} -> rank {dst} (tag {tag:#x}): \
                 sent {sent} bytes, received {received}"
            ),
        }
    }
}

/// Summary of a successfully verified trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Number of ranks in the trace.
    pub ranks: usize,
    /// Total events across all ranks.
    pub events: usize,
    /// User-level messages matched send-to-recv.
    pub user_messages: usize,
    /// Collective-internal messages matched.
    pub internal_messages: usize,
    /// Collective operations (per rank; identical on every rank).
    pub collectives: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks, {} events: {} user + {} internal messages matched, \
             {} collectives, deadlock-free",
            self.ranks, self.events, self.user_messages, self.internal_messages, self.collectives
        )
    }
}

/// Verify a recorded trace; `Ok` carries match statistics, `Err` every
/// violation found (deadlock diagnosis first).
pub fn check(trace: &WorldTrace) -> Result<Report, Vec<Violation>> {
    let n = trace.ranks.len();
    let mut violations = Vec::new();

    // --- Static per-event checks: reserved-tag discipline. ---
    for (rank, events) in trace.ranks.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            let (tag, internal) = match ev {
                Event::Send { tag, internal, .. } | Event::Recv { tag, internal, .. } => {
                    (*tag, *internal)
                }
                Event::Collective { .. } => continue,
            };
            let reserved = tag >= COLLECTIVE_TAG_BASE;
            if reserved != internal {
                violations.push(Violation::ReservedTagMisuse {
                    rank,
                    event_index: i,
                    tag,
                    user_event: !internal,
                });
            }
        }
    }

    // --- SPMD collective order must agree across ranks. ---
    let coll: Vec<Vec<u32>> = trace
        .ranks
        .iter()
        .map(|events| {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Collective { seq } => Some(*seq),
                    _ => None,
                })
                .collect()
        })
        .collect();
    for r in 1..n {
        if coll[r] != coll[0] {
            let detail = if coll[r].len() != coll[0].len() {
                format!(
                    "rank 0 performed {} collectives, rank {r} performed {}",
                    coll[0].len(),
                    coll[r].len()
                )
            } else {
                let k = coll[0]
                    .iter()
                    .zip(&coll[r])
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                format!(
                    "collective #{k} has seq {} on rank 0 but {} on rank {r}",
                    coll[0][k], coll[r][k]
                )
            };
            violations.push(Violation::CollectiveDivergence {
                rank_a: 0,
                rank_b: r,
                detail,
            });
        }
    }

    // --- Greedy replay under buffered-send semantics. ---
    let mut cursor = vec![0usize; n];
    let mut channels: HashMap<(usize, usize, u32), VecDeque<usize>> = HashMap::new();
    let mut user_messages = 0usize;
    let mut internal_messages = 0usize;
    loop {
        let mut progressed = false;
        #[allow(clippy::needless_range_loop)] // rank indexes two parallel tables
        for rank in 0..n {
            while cursor[rank] < trace.ranks[rank].len() {
                match &trace.ranks[rank][cursor[rank]] {
                    Event::Collective { .. } => {}
                    Event::Send {
                        dst, tag, bytes, ..
                    } => {
                        channels
                            .entry((rank, *dst, *tag))
                            .or_default()
                            .push_back(*bytes);
                    }
                    Event::Recv {
                        src,
                        tag,
                        bytes,
                        internal,
                    } => {
                        let Some(sent) = channels
                            .get_mut(&(*src, rank, *tag))
                            .and_then(|q| q.pop_front())
                        else {
                            break; // blocked: no matching send yet
                        };
                        if sent != *bytes {
                            violations.push(Violation::PayloadMismatch {
                                src: *src,
                                dst: rank,
                                tag: *tag,
                                sent,
                                received: *bytes,
                            });
                        }
                        if *internal {
                            internal_messages += 1;
                        } else {
                            user_messages += 1;
                        }
                    }
                }
                cursor[rank] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // --- Stuck ranks: wait-for graph diagnosis. ---
    let blocked: Vec<Option<(usize, u32, usize)>> = (0..n)
        .map(|rank| {
            if cursor[rank] >= trace.ranks[rank].len() {
                return None;
            }
            match &trace.ranks[rank][cursor[rank]] {
                Event::Recv { src, tag, .. } => Some((*src, *tag, cursor[rank])),
                _ => None,
            }
        })
        .collect();
    let mut in_reported_cycle = vec![false; n];
    for start in 0..n {
        let Some(_) = blocked[start] else { continue };
        if in_reported_cycle[start] {
            continue;
        }
        // Follow the wait-for chain from `start` looking for a cycle.
        let mut chain = vec![start];
        let mut cur = start;
        let cycle = loop {
            let Some((src, _, _)) = blocked[cur] else {
                break None; // chain ends at a finished rank
            };
            if let Some(pos) = chain.iter().position(|&r| r == src) {
                break Some(chain[pos..].to_vec());
            }
            chain.push(src);
            cur = src;
        };
        if let Some(cycle_ranks) = cycle {
            // Canonicalize: rotate so the smallest rank leads, report once.
            let min_pos = cycle_ranks
                .iter()
                .enumerate()
                .min_by_key(|(_, &r)| r)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let rotated: Vec<usize> = cycle_ranks[min_pos..]
                .iter()
                .chain(&cycle_ranks[..min_pos])
                .copied()
                .collect();
            if !in_reported_cycle[rotated[0]] {
                for &r in &rotated {
                    in_reported_cycle[r] = true;
                }
                let edges = rotated
                    .iter()
                    .map(|&r| {
                        let (src, tag, _) = blocked[r].expect("cycle member is blocked");
                        WaitEdge { rank: r, src, tag }
                    })
                    .collect();
                violations.push(Violation::Deadlock { cycle: edges });
            }
        }
    }
    for rank in 0..n {
        let Some((src, tag, event_index)) = blocked[rank] else {
            continue;
        };
        if in_reported_cycle[rank] {
            continue;
        }
        if blocked[src].is_some() {
            violations.push(Violation::Stalled { rank, src, tag });
        } else {
            violations.push(Violation::UnreceivableRecv {
                rank,
                src,
                tag,
                event_index,
            });
        }
    }

    // --- Finalize: every queued message must have been consumed. ---
    let mut orphans: Vec<((usize, usize, u32), usize)> = channels
        .into_iter()
        .filter(|(_, q)| !q.is_empty())
        .map(|(k, q)| (k, q.len()))
        .collect();
    orphans.sort_unstable_by_key(|&(k, _)| k);
    for ((src, dst, tag), count) in orphans {
        violations.push(Violation::OrphanSends {
            src,
            dst,
            tag,
            count,
        });
    }

    if violations.is_empty() {
        Ok(Report {
            ranks: n,
            events: trace.len(),
            user_messages,
            internal_messages,
            collectives: coll.first().map(Vec::len).unwrap_or(0),
        })
    } else {
        // Deadlocks first: they are the root cause of everything else.
        violations.sort_by_key(|v| match v {
            Violation::Deadlock { .. } => 0,
            Violation::UnreceivableRecv { .. } => 1,
            Violation::Stalled { .. } => 2,
            Violation::ReservedTagMisuse { .. } => 3,
            Violation::CollectiveDivergence { .. } => 4,
            Violation::PayloadMismatch { .. } => 5,
            Violation::OrphanSends { .. } => 6,
        });
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(dst: usize, tag: u32, bytes: usize) -> Event {
        Event::Send {
            dst,
            tag,
            bytes,
            internal: false,
        }
    }

    fn recv(src: usize, tag: u32, bytes: usize) -> Event {
        Event::Recv {
            src,
            tag,
            bytes,
            internal: false,
        }
    }

    #[test]
    fn clean_pingpong_verifies() {
        let trace = WorldTrace {
            ranks: vec![
                vec![send(1, 1, 8), recv(1, 2, 4)],
                vec![recv(0, 1, 8), send(0, 2, 4)],
            ],
        };
        let report = check(&trace).expect("clean trace");
        assert_eq!(report.user_messages, 2);
        assert_eq!(report.ranks, 2);
    }

    #[test]
    fn crossed_recv_two_rank_cycle() {
        // Both ranks receive before sending: the textbook deadlock.
        let trace = WorldTrace {
            ranks: vec![
                vec![recv(1, 7, 1), send(1, 7, 1)],
                vec![recv(0, 7, 1), send(0, 7, 1)],
            ],
        };
        let violations = check(&trace).expect_err("deadlock");
        let Violation::Deadlock { cycle } = &violations[0] else {
            panic!("expected deadlock first, got {:?}", violations[0]);
        };
        assert_eq!(
            cycle,
            &vec![
                WaitEdge {
                    rank: 0,
                    src: 1,
                    tag: 7
                },
                WaitEdge {
                    rank: 1,
                    src: 0,
                    tag: 7
                },
            ]
        );
        let text = violations[0].to_string();
        assert!(
            text.contains("rank 0 waits on rank 1 (tag 0x7) -> rank 1 waits on rank 0 (tag 0x7)"),
            "message was: {text}"
        );
    }

    #[test]
    fn three_rank_cycle_reported_once_canonically() {
        // 0 waits on 1, 1 waits on 2, 2 waits on 0.
        let trace = WorldTrace {
            ranks: vec![
                vec![recv(1, 3, 1)],
                vec![recv(2, 3, 1)],
                vec![recv(0, 3, 1)],
            ],
        };
        let violations = check(&trace).expect_err("deadlock");
        let deadlocks: Vec<_> = violations
            .iter()
            .filter(|v| matches!(v, Violation::Deadlock { .. }))
            .collect();
        assert_eq!(deadlocks.len(), 1, "one canonical cycle report");
        let Violation::Deadlock { cycle } = deadlocks[0] else {
            unreachable!()
        };
        assert_eq!(cycle[0].rank, 0, "canonical rotation starts at min rank");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn orphaned_send_detected() {
        let trace = WorldTrace {
            ranks: vec![vec![send(1, 1, 8)], vec![]],
        };
        let violations = check(&trace).expect_err("orphan");
        assert_eq!(
            violations,
            vec![Violation::OrphanSends {
                src: 0,
                dst: 1,
                tag: 1,
                count: 1
            }]
        );
    }

    #[test]
    fn unreceivable_recv_detected() {
        // Rank 1 waits on rank 0, which finished without sending.
        let trace = WorldTrace {
            ranks: vec![vec![], vec![recv(0, 9, 1)]],
        };
        let violations = check(&trace).expect_err("unreceivable");
        assert!(matches!(
            violations[0],
            Violation::UnreceivableRecv {
                rank: 1,
                src: 0,
                tag: 9,
                ..
            }
        ));
    }

    #[test]
    fn stalled_rank_behind_cycle_reported() {
        // 0 and 1 deadlock; 2 waits on 0 (collateral).
        let trace = WorldTrace {
            ranks: vec![
                vec![recv(1, 1, 1)],
                vec![recv(0, 1, 1)],
                vec![recv(0, 2, 1)],
            ],
        };
        let violations = check(&trace).expect_err("deadlock + stall");
        assert!(matches!(violations[0], Violation::Deadlock { .. }));
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::Stalled {
                rank: 2,
                src: 0,
                ..
            }
        )));
    }

    #[test]
    fn reserved_tag_misuse_detected_both_ways() {
        let trace = WorldTrace {
            ranks: vec![vec![
                Event::Send {
                    dst: 0,
                    tag: qmc_comm::COLLECTIVE_TAG_BASE + 1,
                    bytes: 0,
                    internal: false,
                },
                Event::Recv {
                    src: 0,
                    tag: qmc_comm::COLLECTIVE_TAG_BASE + 1,
                    bytes: 0,
                    internal: false,
                },
                Event::Send {
                    dst: 0,
                    tag: 5,
                    bytes: 0,
                    internal: true,
                },
                Event::Recv {
                    src: 0,
                    tag: 5,
                    bytes: 0,
                    internal: true,
                },
            ]],
        };
        let violations = check(&trace).expect_err("misuse");
        let misuses: Vec<_> = violations
            .iter()
            .filter(|v| matches!(v, Violation::ReservedTagMisuse { .. }))
            .collect();
        assert_eq!(misuses.len(), 4);
    }

    #[test]
    fn fifo_matching_pairs_in_order_and_flags_size_mismatch() {
        // Two sends 8 then 4 bytes; receiver records 4 then 8 — the FIFO
        // match pairs (8,4) and (4,8), both mismatched.
        let trace = WorldTrace {
            ranks: vec![
                vec![send(1, 1, 8), send(1, 1, 4)],
                vec![recv(0, 1, 4), recv(0, 1, 8)],
            ],
        };
        let violations = check(&trace).expect_err("mismatch");
        assert_eq!(
            violations
                .iter()
                .filter(|v| matches!(v, Violation::PayloadMismatch { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn collective_divergence_detected() {
        let trace = WorldTrace {
            ranks: vec![
                vec![Event::Collective { seq: 0 }, Event::Collective { seq: 1 }],
                vec![Event::Collective { seq: 0 }],
            ],
        };
        let violations = check(&trace).expect_err("divergence");
        assert!(matches!(
            violations[0],
            Violation::CollectiveDivergence { rank_b: 1, .. }
        ));
    }

    #[test]
    fn self_wait_is_a_length_one_cycle() {
        let trace = WorldTrace {
            ranks: vec![vec![recv(0, 2, 1)]],
        };
        let violations = check(&trace).expect_err("self deadlock");
        let Violation::Deadlock { cycle } = &violations[0] else {
            panic!("expected deadlock");
        };
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle[0].rank, 0);
        assert_eq!(cycle[0].src, 0);
    }
}
