//! Model of the elastic-world respawn barrier
//! (`qmc_comm::run_threads_elastic` + the rejoin restore in
//! `qmc_ckpt::coord::restore_coordinated`).
//!
//! The real protocol: when a rank thread dies, the supervisor waits
//! until *every* incarnation-0 thread has exited (returned or
//! panicked), resets the mailboxes and clears the poison word, then
//! relaunches all rank slots as incarnation 1. The relaunched world
//! rehydrates behind a barrier: rank 0 broadcasts the recovery
//! generation, every other rank restores exactly once and acks, and
//! rank 0 completes only after collecting all acks.
//!
//! Two hazards the barrier exists to exclude:
//!
//! * **Stale residue**: a message deposited by incarnation 0 must never
//!   be consumed by incarnation 1 — resetting the mailboxes while an
//!   old thread still runs lets its sends land *after* the wipe.
//! * **Double restore**: the rejoin path and the ordinary resume path
//!   must not both rehydrate a rank — replaying the generation twice
//!   desynchronizes its RNG stream from the survivors.
//!
//! Seeded mutations: [`RespawnMutation::EagerReset`] resets as soon as
//! the crash is detected (stragglers still alive) — their residue lands
//! in the wiped queues and incarnation 1 consumes it;
//! [`RespawnMutation::SkipRespawn`] never relaunches the dead slot —
//! rank 0's ack collection starves, a deadlock rendered through the
//! wait-for-cycle reporter; [`RespawnMutation::DoubleRestore`] has the
//! rejoined rank run the ordinary resume restore on top of the rejoin
//! restore.

use crate::explore::Model;
use qmc_comm::WaitEdge;

/// Tag used in rendered wait-for edges for the generation broadcast.
pub const TAG_GEN: u32 = 0x30;
/// Tag used in rendered wait-for edges for the rejoin-barrier acks.
pub const TAG_ACK: u32 = 0x31;

/// Seeded protocol bugs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnMutation {
    /// Reset the mailboxes on crash detection without waiting for the
    /// surviving incarnation-0 threads to exit.
    EagerReset,
    /// Never relaunch the dead slot; the survivors run the rejoin
    /// barrier against a world that is one rank short.
    SkipRespawn,
    /// The rejoined rank restores a second time via the ordinary
    /// resume path.
    DoubleRestore,
}

/// The respawn-barrier protocol model.
#[derive(Debug, Clone, Copy)]
pub struct RespawnModel {
    /// Number of rank slots (>= 2).
    pub ranks: usize,
    /// Optional seeded bug.
    pub mutation: Option<RespawnMutation>,
}

impl RespawnModel {
    /// Unmutated model.
    pub fn new(ranks: usize) -> Self {
        RespawnModel {
            ranks,
            mutation: None,
        }
    }

    /// Same instance with a seeded bug.
    pub fn mutated(mut self, m: RespawnMutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// Lifecycle of one rank slot across the two incarnations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotPhase {
    /// Incarnation-0 thread running.
    Running0,
    /// Incarnation-0 thread panicked (the death that triggers respawn).
    Crashed0,
    /// Incarnation-0 thread exited normally (or failed fast on poison).
    Exited0,
    /// Incarnation-1 thread running, not yet rehydrated.
    Running1,
    /// Rank 0 only: generation broadcast sent, collecting acks.
    AwaitAcks,
    /// Incarnation-1 thread rehydrated and done.
    Done1,
}

/// One in-flight mailbox message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Ordinary incarnation-0 traffic (stale after a reset).
    Stale,
    /// The recovery-generation broadcast from rank 0.
    Gen,
    /// A rejoin-barrier ack to rank 0.
    Ack,
}

/// Global model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RespawnState {
    phase: Vec<SlotPhase>,
    /// Per-slot mailbox queue (FIFO).
    queues: Vec<Vec<MsgKind>>,
    /// Which slot crashed, once one has.
    crashed: Option<u8>,
    /// Supervisor has performed the reset-and-relaunch.
    reset_done: bool,
    /// Slot's incarnation-0 thread already performed its one send.
    sent0: Vec<bool>,
    /// Slots whose incarnation-0 thread was still alive at reset time
    /// (EagerReset only): the abandoned thread may still deposit.
    straggler: Vec<bool>,
    /// Restores performed per slot.
    restores: Vec<u8>,
    /// An incarnation-1 thread consumed incarnation-0 residue.
    consumed_stale: bool,
}

/// One scheduler choice in the respawn protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnAction {
    /// The environment kills `rank`'s incarnation-0 thread (at most one
    /// crash per run).
    Crash {
        /// Dying slot.
        rank: u8,
    },
    /// `rank`'s incarnation-0 thread deposits one ordinary message to
    /// its ring neighbour.
    Send0 {
        /// Sending slot.
        rank: u8,
    },
    /// `rank`'s incarnation-0 thread exits (finishes, or fails fast on
    /// the poisoned world).
    Exit0 {
        /// Exiting slot.
        rank: u8,
    },
    /// Supervisor: wipe every mailbox, clear the poison, relaunch the
    /// slots as incarnation 1.
    Reset,
    /// An abandoned incarnation-0 thread (EagerReset only) deposits its
    /// message after the wipe.
    StragglerSend {
        /// Abandoned slot.
        rank: u8,
    },
    /// Rank 0 (incarnation 1) broadcasts the recovery generation.
    BroadcastGen,
    /// Rank `rank` (incarnation 1) consumes its next message; a `Gen`
    /// restores-and-acks, residue trips the staleness invariant.
    Recv1 {
        /// Receiving slot.
        rank: u8,
    },
    /// Rank 0 collects the full ack set and completes.
    CollectAcks,
    /// DoubleRestore mutant only: the rejoined rank re-runs the
    /// ordinary resume restore.
    RestoreAgain {
        /// Rejoined slot.
        rank: u8,
    },
}

impl RespawnModel {
    fn neighbour(&self, rank: usize) -> usize {
        (rank + 1) % self.ranks
    }

    /// Queues an action pops from.
    fn pops(&self, a: &RespawnAction) -> Vec<usize> {
        match a {
            RespawnAction::Recv1 { rank } => vec![*rank as usize],
            RespawnAction::CollectAcks => vec![0],
            _ => Vec::new(),
        }
    }

    /// `(queue, kind)` pushes an action performs.
    fn pushes(&self, a: &RespawnAction) -> Vec<(usize, MsgKind)> {
        match a {
            RespawnAction::Send0 { rank } | RespawnAction::StragglerSend { rank } => {
                vec![(self.neighbour(*rank as usize), MsgKind::Stale)]
            }
            RespawnAction::BroadcastGen => (1..self.ranks).map(|r| (r, MsgKind::Gen)).collect(),
            RespawnAction::Recv1 { .. } => vec![(0, MsgKind::Ack)],
            _ => Vec::new(),
        }
    }
}

impl Model for RespawnModel {
    type State = RespawnState;
    type Action = RespawnAction;

    fn init(&self) -> RespawnState {
        RespawnState {
            phase: vec![SlotPhase::Running0; self.ranks],
            queues: vec![Vec::new(); self.ranks],
            crashed: None,
            reset_done: false,
            sent0: vec![false; self.ranks],
            straggler: vec![false; self.ranks],
            restores: vec![0; self.ranks],
            consumed_stale: false,
        }
    }

    fn actions(&self, s: &RespawnState) -> Vec<RespawnAction> {
        let mut acts = Vec::new();
        for (r, ph) in s.phase.iter().enumerate() {
            let rank = r as u8;
            match *ph {
                SlotPhase::Running0 => {
                    if s.crashed.is_none() {
                        acts.push(RespawnAction::Crash { rank });
                    }
                    if !s.sent0[r] {
                        acts.push(RespawnAction::Send0 { rank });
                    }
                    acts.push(RespawnAction::Exit0 { rank });
                }
                SlotPhase::Running1 => {
                    if r == 0 {
                        acts.push(RespawnAction::BroadcastGen);
                    } else if !s.queues[r].is_empty() {
                        acts.push(RespawnAction::Recv1 { rank });
                    }
                    // else: blocked on the generation broadcast.
                }
                SlotPhase::AwaitAcks => {
                    let acks = s.queues[0].iter().filter(|m| **m == MsgKind::Ack).count();
                    if acks >= self.ranks - 1 {
                        acts.push(RespawnAction::CollectAcks);
                    }
                    // else: blocked on the missing acks.
                }
                SlotPhase::Done1 => {
                    if self.mutation == Some(RespawnMutation::DoubleRestore)
                        && s.crashed == Some(rank)
                        && s.restores[r] == 1
                    {
                        acts.push(RespawnAction::RestoreAgain { rank });
                    }
                }
                SlotPhase::Crashed0 | SlotPhase::Exited0 => {}
            }
            if s.straggler[r] && !s.sent0[r] {
                acts.push(RespawnAction::StragglerSend { rank });
            }
        }
        if s.crashed.is_some() && !s.reset_done {
            let barrier_ok = self.mutation == Some(RespawnMutation::EagerReset)
                || s.phase
                    .iter()
                    .all(|ph| matches!(ph, SlotPhase::Crashed0 | SlotPhase::Exited0));
            if barrier_ok {
                acts.push(RespawnAction::Reset);
            }
        }
        acts
    }

    fn apply(&self, s: &RespawnState, a: &RespawnAction) -> RespawnState {
        let mut t = s.clone();
        match *a {
            RespawnAction::Crash { rank } => {
                t.phase[rank as usize] = SlotPhase::Crashed0;
                t.crashed = Some(rank);
            }
            RespawnAction::Send0 { rank } | RespawnAction::StragglerSend { rank } => {
                let to = self.neighbour(rank as usize);
                t.queues[to].push(MsgKind::Stale);
                t.sent0[rank as usize] = true;
                t.straggler[rank as usize] = false;
            }
            RespawnAction::Exit0 { rank } => t.phase[rank as usize] = SlotPhase::Exited0,
            RespawnAction::Reset => {
                for q in &mut t.queues {
                    q.clear();
                }
                for (r, ph) in t.phase.iter_mut().enumerate() {
                    match *ph {
                        SlotPhase::Running0 => {
                            // EagerReset only: the thread is abandoned
                            // alive while its slot is relaunched.
                            t.straggler[r] = true;
                            *ph = SlotPhase::Running1;
                        }
                        SlotPhase::Exited0 => *ph = SlotPhase::Running1,
                        SlotPhase::Crashed0
                            if self.mutation != Some(RespawnMutation::SkipRespawn) =>
                        {
                            *ph = SlotPhase::Running1;
                        }
                        _ => {}
                    }
                }
                t.reset_done = true;
            }
            RespawnAction::BroadcastGen => {
                for r in 1..self.ranks {
                    if s.phase[r] != SlotPhase::Crashed0 {
                        t.queues[r].push(MsgKind::Gen);
                    }
                }
                t.phase[0] = SlotPhase::AwaitAcks;
            }
            RespawnAction::Recv1 { rank } => {
                let r = rank as usize;
                match t.queues[r].remove(0) {
                    MsgKind::Gen => {
                        t.restores[r] += 1;
                        t.queues[0].push(MsgKind::Ack);
                        t.phase[r] = SlotPhase::Done1;
                    }
                    MsgKind::Stale => t.consumed_stale = true,
                    MsgKind::Ack => {}
                }
            }
            RespawnAction::CollectAcks => {
                t.queues[0].retain(|m| *m != MsgKind::Ack);
                t.restores[0] += 1;
                t.phase[0] = SlotPhase::Done1;
            }
            RespawnAction::RestoreAgain { rank } => t.restores[rank as usize] += 1,
        }
        t
    }

    fn invariant(&self, s: &RespawnState) -> Result<(), String> {
        if s.consumed_stale {
            return Err(
                "an incarnation-1 rank consumed a message deposited by incarnation 0 \
                 (mailbox reset raced a live thread)"
                    .into(),
            );
        }
        if let Some(r) = s.restores.iter().position(|n| *n > 1) {
            return Err(format!(
                "rank {r} restored the recovery generation {} times (rejoin and \
                 resume paths must be exclusive)",
                s.restores[r]
            ));
        }
        Ok(())
    }

    fn pid(&self, a: &RespawnAction) -> usize {
        match a {
            RespawnAction::Crash { .. } => self.ranks + 1, // environment
            RespawnAction::Reset => self.ranks,            // supervisor
            RespawnAction::Send0 { rank }
            | RespawnAction::Exit0 { rank }
            | RespawnAction::StragglerSend { rank }
            | RespawnAction::Recv1 { rank }
            | RespawnAction::RestoreAgain { rank } => *rank as usize,
            RespawnAction::BroadcastGen | RespawnAction::CollectAcks => 0,
        }
    }

    fn dependent(&self, a: &RespawnAction, b: &RespawnAction) -> bool {
        if self.pid(a) == self.pid(b) {
            return true;
        }
        // Crash gates the supervisor and disables whole action classes;
        // Reset rewrites every queue and phase. Both are rare single
        // actions, so conservative full dependence is cheap and sound.
        let global =
            |x: &RespawnAction| matches!(x, RespawnAction::Crash { .. } | RespawnAction::Reset);
        if global(a) || global(b) {
            return true;
        }
        // Queue conflicts: a pop conflicts with anything touching its
        // queue; two pushes conflict only when their kinds differ (equal
        // messages commute, e.g. two barrier acks into rank 0's queue).
        let (pa, pb) = (self.pops(a), self.pops(b));
        let (ha, hb) = (self.pushes(a), self.pushes(b));
        if pa
            .iter()
            .any(|q| pb.contains(q) || hb.iter().any(|(t, _)| t == q))
        {
            return true;
        }
        if pb.iter().any(|q| ha.iter().any(|(t, _)| t == q)) {
            return true;
        }
        ha.iter()
            .any(|(q, k)| hb.iter().any(|(q2, k2)| q == q2 && k != k2))
    }

    fn is_final(&self, s: &RespawnState) -> bool {
        match s.crashed {
            // A run with no death completes in incarnation 0.
            None => s.phase.iter().all(|ph| *ph == SlotPhase::Exited0),
            // A death must be ridden through: every slot rehydrated.
            Some(_) => s.phase.iter().all(|ph| *ph == SlotPhase::Done1),
        }
    }

    fn wait_edges(&self, s: &RespawnState) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        for (r, ph) in s.phase.iter().enumerate() {
            match *ph {
                SlotPhase::Running1 if r > 0 && s.queues[r].is_empty() => {
                    edges.push(WaitEdge {
                        rank: r,
                        src: 0,
                        tag: TAG_GEN,
                    });
                }
                SlotPhase::AwaitAcks => {
                    // Waiting on every slot whose ack cannot have
                    // arrived yet.
                    for (src, ph2) in s.phase.iter().enumerate().skip(1) {
                        if *ph2 != SlotPhase::Done1 {
                            edges.push(WaitEdge {
                                rank: 0,
                                src,
                                tag: TAG_ACK,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        edges
    }

    fn describe(&self, a: &RespawnAction) -> String {
        match *a {
            RespawnAction::Crash { rank } => {
                format!("environment: kill rank {rank}'s incarnation-0 thread")
            }
            RespawnAction::Send0 { rank } => {
                format!(
                    "rank {rank} (inc 0): send to rank {}",
                    self.neighbour(rank as usize)
                )
            }
            RespawnAction::Exit0 { rank } => format!("rank {rank} (inc 0): exit"),
            RespawnAction::Reset => {
                "supervisor: wipe mailboxes, clear poison, relaunch incarnation 1".into()
            }
            RespawnAction::StragglerSend { rank } => format!(
                "abandoned rank-{rank} thread: deposit into rank {}'s wiped mailbox",
                self.neighbour(rank as usize)
            ),
            RespawnAction::BroadcastGen => {
                "rank 0 (inc 1): broadcast the recovery generation".into()
            }
            RespawnAction::Recv1 { rank } => {
                format!("rank {rank} (inc 1): receive, restore, ack")
            }
            RespawnAction::CollectAcks => "rank 0 (inc 1): collect the rejoin-barrier acks".into(),
            RespawnAction::RestoreAgain { rank } => {
                format!("rank {rank}: re-run the ordinary resume restore")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Violation;
    use crate::explore::{explore, explore_naive, Budget, Outcome};

    #[test]
    fn respawn_barrier_is_schedule_independent() {
        let m = RespawnModel::new(3);
        let out = explore(&m, Budget::with_faults(0));
        assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    }

    #[test]
    fn eager_reset_mutant_lets_incarnation_one_consume_residue() {
        let m = RespawnModel::new(2).mutated(RespawnMutation::EagerReset);
        let out = explore(&m, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("an eager reset must leak incarnation-0 residue");
        };
        assert!(
            ce.message.contains("incarnation 0"),
            "message: {}",
            ce.message
        );
    }

    #[test]
    fn skip_respawn_mutant_starves_the_ack_barrier() {
        let m = RespawnModel::new(3).mutated(RespawnMutation::SkipRespawn);
        let out = explore(&m, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("never relaunching the dead slot must deadlock the barrier");
        };
        let Some(Violation::Deadlock { cycle }) = &ce.deadlock else {
            panic!("expected rendered wait-for edges, got {:?}", ce.deadlock);
        };
        // Either side of the barrier can starve on the dead slot: rank 0
        // waiting for its ack, or the survivors waiting for its
        // broadcast (when slot 0 itself died).
        assert!(
            cycle
                .iter()
                .all(|e| (e.rank == 0 && e.tag == TAG_ACK) || (e.src == 0 && e.tag == TAG_GEN)),
            "the starvation must be on the rejoin barrier: {cycle:?}"
        );
    }

    #[test]
    fn double_restore_mutant_is_caught() {
        let m = RespawnModel::new(2).mutated(RespawnMutation::DoubleRestore);
        let out = explore(&m, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("a second restore must violate the at-most-once invariant");
        };
        assert!(
            ce.message
                .contains("restored the recovery generation 2 times"),
            "message: {}",
            ce.message
        );
    }

    #[test]
    fn dpor_agrees_with_naive_and_reduces() {
        let m = RespawnModel::new(3);
        let budget = Budget::with_faults(0);
        let d = explore(&m, budget);
        let nv = explore_naive(&m, budget);
        assert!(d.is_clean() && nv.is_clean());
        assert!(
            d.stats().transitions * 2 <= nv.stats().transitions,
            "DPOR {} vs naive {}",
            d.stats().transitions,
            nv.stats().transitions
        );
    }
}
