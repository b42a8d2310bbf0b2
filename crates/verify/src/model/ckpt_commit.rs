//! Model of the coordinated checkpoint write/commit protocol
//! (`qmc_ckpt::coord::write_coordinated_sections` plus its callers'
//! commit-ack gate), under crash and write-failure injection.
//!
//! Protocol per round (generation `g = round + 1`):
//!
//! 1. Every rank derives full vs delta by itself (`delta on b` when not
//!    `want_full` and its base `b` is set; full otherwise) and frames its
//!    section plan; ranks other than 0 send it to rank 0. No message
//!    carries the decision.
//! 2. Rank 0 gathers all plans, persists the archive (which may
//!    *fail*), then broadcasts the commit ack carrying the outcome.
//! 3. Each rank marks its dirty tracking clean, advances its
//!    latest-generation belief and moves its delta base to `g` **only
//!    if the ack says the write committed** — the gate the real callers
//!    implement with `if committed { state.mark_clean() }`, and the one
//!    each rank's `DeltaBase` applies inside the writer.
//!
//! Faults: any rank may crash at any action boundary; a blocked rank
//! whose awaited peer is dead (and the channel drained) aborts —
//! keeping its volatile dirty/latest state but abandoning the round,
//! which models the runtime deadlock-detector unwind.
//!
//! Invariants (checked at every reachable state):
//!
//! * **gate**: a rank that believes itself clean points at a committed
//!   generation, and *any* latest-generation belief names a committed
//!   generation (one-directional: staying dirty after a successful
//!   commit is safe; marking clean after a failed one is a lost
//!   update at restore time).
//! * **decision agreement**: every rank derives the same decision for a
//!   round — full, or a delta on the same base. With no broadcast
//!   behind it, that holds only because every rank moved its base on
//!   the same acks. The real writer refuses a fragment framed against
//!   another base than rank 0's, so a divergence loses the generation
//!   instead of landing references the file's base does not hold.
//! * **generation agreement**: ranks that complete the protocol agree
//!   on the latest committed generation.
//!
//! Seeded mutations: [`CkptMutation::SkipAckGate`] marks clean
//! regardless of the ack outcome; [`CkptMutation::BaseOnFailedAck`] has
//! the ranks other than 0 move their delta base on any ack.

use crate::explore::Model;
use qmc_comm::WaitEdge;

/// Tag used in rendered wait-for edges for the plan gather.
pub const TAG_PLAN: u32 = 0x11;
/// Tag used in rendered wait-for edges for the commit-ack broadcast.
pub const TAG_ACK: u32 = 0x12;

/// Seeded protocol bugs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMutation {
    /// Mark clean / advance latest regardless of the commit-ack
    /// outcome (drops the `if committed` gate).
    SkipAckGate,
    /// Ranks other than 0 move their delta base to the round's
    /// generation on any ack, committed or not (they take the ack's
    /// arrival for its verdict; rank 0 saw the write fail first-hand).
    BaseOnFailedAck,
}

/// The coordinated checkpoint-commit protocol model.
#[derive(Debug, Clone, Copy)]
pub struct CkptCommitModel {
    /// Number of ranks (>= 1).
    pub ranks: usize,
    /// Checkpoint rounds to run (generation `round + 1`).
    pub rounds: u8,
    /// A full snapshot every `full_every` rounds (round 0 always
    /// full); mirrors `PtCheckpointing::full_every`.
    pub full_every: u8,
    /// Optional seeded bug.
    pub mutation: Option<CkptMutation>,
}

impl CkptCommitModel {
    /// Unmutated model.
    pub fn new(ranks: usize, rounds: u8, full_every: u8) -> Self {
        CkptCommitModel {
            ranks,
            rounds,
            full_every,
            mutation: None,
        }
    }

    /// Same instance with a seeded bug.
    pub fn mutated(mut self, m: CkptMutation) -> Self {
        self.mutation = Some(m);
        self
    }

    fn want_full(&self, round: u8) -> bool {
        self.full_every <= 1 || round.is_multiple_of(self.full_every)
    }
}

/// In-flight protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    /// A rank's section plan for the round.
    Plan {
        /// Round the plan belongs to.
        round: u8,
    },
    /// Commit acknowledgement.
    Ack {
        /// Did the persist succeed?
        ok: bool,
    },
}

/// Per-rank protocol phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// About to derive the round's decision and frame (rank > 0: send)
    /// the section plan.
    Plan,
    /// Rank 0: gathering section plans.
    WaitPlans,
    /// Rank 0: persisting the archive.
    Persist,
    /// Rank 0: persisted (or failed); ack broadcast pending.
    Commit {
        /// Outcome of the persist.
        ok: bool,
    },
    /// Rank > 0: awaiting the commit ack.
    WaitAck,
    /// All rounds completed.
    Done,
    /// Crashed (volatile state lost).
    Crashed,
    /// Unwound after observing a dead peer (volatile state kept).
    Aborted,
}

impl Phase {
    fn terminal(&self) -> bool {
        matches!(self, Phase::Done | Phase::Crashed | Phase::Aborted)
    }
}

/// Global model state: every rank, the network, the persistent store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CkptState {
    phase: Vec<Phase>,
    round: Vec<u8>,
    dirty: Vec<bool>,
    latest: Vec<Option<u8>>,
    /// Per rank: the generation its deltas are framed against.
    base: Vec<Option<u8>>,
    /// Generations present in the (crash-surviving) store, sorted.
    committed: Vec<u8>,
    /// Per round and rank (`round * ranks + rank`): the decision the
    /// rank derived — `Some(None)` full, `Some(Some(b))` delta on `b` —
    /// kept for the decision-agreement invariant.
    decided: Vec<Option<Option<u8>>>,
    /// Rank 0: which ranks' plans arrived this round.
    plan_got: Vec<bool>,
    /// In-flight messages, FIFO per (src, dst) channel.
    msgs: Vec<(u8, u8, Msg)>,
}

impl CkptState {
    fn head(&self, src: u8, dst: u8) -> Option<&Msg> {
        self.msgs
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, m)| m)
    }

    fn pop(&mut self, src: u8, dst: u8) -> Msg {
        let i = self
            .msgs
            .iter()
            .position(|(s, d, _)| *s == src && *d == dst)
            .expect("recv enabled only with a queued message");
        self.msgs.remove(i).2
    }
}

/// One scheduler choice in the checkpoint-commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptAction {
    /// Rank `rank` derives its decision for `round` and frames its plan
    /// (rank > 0: and sends it to rank 0).
    Plan {
        /// Planning rank.
        rank: u8,
        /// Round being planned.
        round: u8,
        /// The decision derived: `None` full, `Some(b)` delta on `b`.
        delta_on: Option<u8>,
    },
    /// Rank 0 receives the section plan from `src`.
    RecvPlan {
        /// Sending rank.
        src: u8,
    },
    /// Rank 0 persists the archive; `ok: false` is an injected write
    /// failure (fault budget).
    Write {
        /// Round being persisted.
        round: u8,
        /// Persist outcome.
        ok: bool,
    },
    /// Rank 0 broadcasts the commit ack and applies its own gate.
    SendAcks {
        /// Round being acknowledged.
        round: u8,
        /// Outcome carried by the ack.
        ok: bool,
    },
    /// Rank `rank` receives the commit ack and applies the gate.
    RecvAck {
        /// Receiving rank.
        rank: u8,
    },
    /// Rank `rank` crashes (fault budget).
    Crash {
        /// Crashing rank.
        rank: u8,
    },
    /// Rank `rank` unwinds after observing a dead peer.
    Abort {
        /// Aborting rank.
        rank: u8,
    },
}

impl CkptAction {
    fn rank(&self) -> u8 {
        match self {
            CkptAction::RecvPlan { .. }
            | CkptAction::Write { .. }
            | CkptAction::SendAcks { .. } => 0,
            CkptAction::Plan { rank, .. }
            | CkptAction::RecvAck { rank }
            | CkptAction::Crash { rank }
            | CkptAction::Abort { rank } => *rank,
        }
    }

    /// Channels this action sends on or consumes from, for the
    /// dependence relation.
    fn channels(&self, n: u8) -> Vec<(u8, u8)> {
        match self {
            CkptAction::SendAcks { .. } => (1..n).map(|r| (0, r)).collect(),
            CkptAction::Plan { rank, .. } if *rank > 0 => vec![(*rank, 0)],
            CkptAction::RecvPlan { src } => vec![(*src, 0)],
            CkptAction::RecvAck { rank } => vec![(0, *rank)],
            CkptAction::Plan { .. }
            | CkptAction::Write { .. }
            | CkptAction::Crash { .. }
            | CkptAction::Abort { .. } => Vec::new(),
        }
    }

    fn is_fault_like(&self) -> bool {
        matches!(self, CkptAction::Crash { .. } | CkptAction::Abort { .. })
    }
}

impl CkptCommitModel {
    fn gen_of(round: u8) -> u8 {
        round + 1
    }

    /// A peer is "dead" for abort purposes once it can never send
    /// again.
    fn dead(phase: Phase) -> bool {
        matches!(phase, Phase::Crashed | Phase::Aborted)
    }

    /// Apply the ack of `round` to rank `r`: the `if committed` gate on
    /// dirty flags and belief, and on the delta base.
    fn take_ack(&self, t: &mut CkptState, r: usize, round: u8, ok: bool) {
        let g = Self::gen_of(round);
        if ok || self.mutation == Some(CkptMutation::SkipAckGate) {
            t.dirty[r] = false;
            t.latest[r] = Some(g);
        }
        if ok || (r > 0 && self.mutation == Some(CkptMutation::BaseOnFailedAck)) {
            t.base[r] = Some(g);
        }
        t.round[r] = round + 1;
        t.phase[r] = if round + 1 == self.rounds {
            Phase::Done
        } else {
            Phase::Plan
        };
    }
}

impl Model for CkptCommitModel {
    type State = CkptState;
    type Action = CkptAction;

    fn init(&self) -> CkptState {
        let n = self.ranks;
        CkptState {
            phase: vec![Phase::Plan; n],
            round: vec![0; n],
            dirty: vec![true; n],
            latest: vec![None; n],
            base: vec![None; n],
            committed: Vec::new(),
            decided: vec![None; self.rounds as usize * n],
            plan_got: vec![false; n],
            msgs: Vec::new(),
        }
    }

    fn actions(&self, s: &CkptState) -> Vec<CkptAction> {
        let n = self.ranks as u8;
        let mut acts = Vec::new();
        for r in 0..n {
            let ri = r as usize;
            match s.phase[ri] {
                Phase::Plan => {
                    let round = s.round[ri];
                    let delta_on = s.base[ri].filter(|_| !self.want_full(round));
                    acts.push(CkptAction::Plan {
                        rank: r,
                        round,
                        delta_on,
                    });
                }
                Phase::WaitPlans => {
                    let mut peer_dead = false;
                    for p in 1..n {
                        if s.plan_got[p as usize] {
                            continue;
                        }
                        if s.head(p, 0).is_some() {
                            acts.push(CkptAction::RecvPlan { src: p });
                        } else if Self::dead(s.phase[p as usize]) {
                            peer_dead = true;
                        }
                    }
                    if peer_dead {
                        acts.push(CkptAction::Abort { rank: 0 });
                    }
                }
                Phase::Persist => {
                    let round = s.round[0];
                    acts.push(CkptAction::Write { round, ok: true });
                    acts.push(CkptAction::Write { round, ok: false });
                }
                Phase::Commit { ok } => {
                    acts.push(CkptAction::SendAcks {
                        round: s.round[0],
                        ok,
                    });
                }
                Phase::WaitAck => {
                    if s.head(0, r).is_some() {
                        acts.push(CkptAction::RecvAck { rank: r });
                    } else if Self::dead(s.phase[0]) {
                        acts.push(CkptAction::Abort { rank: r });
                    }
                }
                _ => {}
            }
        }
        // Crashes: any live rank, at any boundary.
        for r in 0..n {
            if !s.phase[r as usize].terminal() {
                acts.push(CkptAction::Crash { rank: r });
            }
        }
        acts
    }

    fn apply(&self, s: &CkptState, a: &CkptAction) -> CkptState {
        let n = self.ranks as u8;
        let mut t = s.clone();
        match *a {
            CkptAction::Plan {
                rank,
                round,
                delta_on,
            } => {
                let ri = rank as usize;
                t.decided[round as usize * self.ranks + ri] = Some(delta_on);
                // New sweeps ran since the last checkpoint.
                t.dirty[ri] = true;
                if rank == 0 {
                    t.plan_got = vec![false; self.ranks];
                    t.plan_got[0] = true;
                    t.phase[0] = if n == 1 {
                        Phase::Persist
                    } else {
                        Phase::WaitPlans
                    };
                } else {
                    t.msgs.push((rank, 0, Msg::Plan { round }));
                    t.phase[ri] = Phase::WaitAck;
                }
            }
            CkptAction::RecvPlan { src } => {
                let m = t.pop(src, 0);
                debug_assert!(matches!(m, Msg::Plan { .. }));
                t.plan_got[src as usize] = true;
                if t.plan_got.iter().all(|&g| g) {
                    t.phase[0] = Phase::Persist;
                }
            }
            CkptAction::Write { round, ok } => {
                if ok {
                    t.committed.push(Self::gen_of(round));
                    t.committed.sort_unstable();
                }
                t.phase[0] = Phase::Commit { ok };
            }
            CkptAction::SendAcks { round, ok } => {
                for r in 1..n {
                    t.msgs.push((0, r, Msg::Ack { ok }));
                }
                self.take_ack(&mut t, 0, round, ok);
            }
            CkptAction::RecvAck { rank } => {
                let Msg::Ack { ok } = t.pop(0, rank) else {
                    // FIFO heads always match the phase under this
                    // protocol; a mismatch means the model drifted.
                    panic!("rank {rank} expected Ack at head");
                };
                let round = t.round[rank as usize];
                self.take_ack(&mut t, rank as usize, round, ok);
            }
            CkptAction::Crash { rank } => {
                t.phase[rank as usize] = Phase::Crashed;
            }
            CkptAction::Abort { rank } => {
                t.phase[rank as usize] = Phase::Aborted;
            }
        }
        t
    }

    fn invariant(&self, s: &CkptState) -> Result<(), String> {
        // Gate: clean implies committed; latest beliefs name committed
        // generations. Crashed ranks lost their volatile state.
        for r in 0..self.ranks {
            if s.phase[r] == Phase::Crashed {
                continue;
            }
            if let Some(g) = s.latest[r] {
                if !s.committed.contains(&g) {
                    return Err(format!(
                        "rank {r} believes generation {g} is committed but the store \
                         only holds {:?}",
                        s.committed
                    ));
                }
            }
            if !s.dirty[r] && s.latest[r].is_none() {
                return Err(format!(
                    "rank {r} is marked clean without any committed generation"
                ));
            }
        }
        // Decision agreement: every rank that planned a round derived
        // the same decision for it.
        for (round, row) in s.decided.chunks(self.ranks).enumerate() {
            let mut planned = row
                .iter()
                .enumerate()
                .filter_map(|(r, d)| d.map(|d| (r, d)));
            if let Some((r0, d0)) = planned.next() {
                if let Some((r, d)) = planned.find(|&(_, d)| d != d0) {
                    return Err(format!(
                        "round {round}: rank {r0} derived {} but rank {r} derived {}",
                        flavor(d0),
                        flavor(d)
                    ));
                }
            }
        }
        // Generation agreement among completed ranks.
        let done: Vec<(usize, Option<u8>)> = (0..self.ranks)
            .filter(|&r| s.phase[r] == Phase::Done)
            .map(|r| (r, s.latest[r]))
            .collect();
        if let Some(((r0, g0), rest)) = done.split_first().map(|(f, r)| (*f, r)) {
            for &(r, g) in rest {
                if g != g0 {
                    return Err(format!(
                        "ranks {r0} and {r} completed with different latest \
                         generations ({g0:?} vs {g:?})"
                    ));
                }
            }
        }
        Ok(())
    }

    fn pid(&self, a: &CkptAction) -> usize {
        a.rank() as usize
    }

    fn dependent(&self, a: &CkptAction, b: &CkptAction) -> bool {
        if self.pid(a) == self.pid(b) {
            return true;
        }
        // Crashes and aborts interact with everyone's enabledness.
        if a.is_fault_like() || b.is_fault_like() {
            return true;
        }
        let n = self.ranks as u8;
        let ca = a.channels(n);
        b.channels(n).iter().any(|c| ca.contains(c))
    }

    fn is_fault(&self, a: &CkptAction) -> bool {
        matches!(a, CkptAction::Crash { .. }) || matches!(a, CkptAction::Write { ok: false, .. })
    }

    fn is_final(&self, s: &CkptState) -> bool {
        s.phase.iter().all(Phase::terminal)
    }

    fn wait_edges(&self, s: &CkptState) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        for r in 0..self.ranks {
            match s.phase[r] {
                Phase::WaitAck => edges.push(WaitEdge {
                    rank: r,
                    src: 0,
                    tag: TAG_ACK,
                }),
                Phase::WaitPlans => {
                    for p in 1..self.ranks {
                        if !s.plan_got[p] {
                            edges.push(WaitEdge {
                                rank: 0,
                                src: p,
                                tag: TAG_PLAN,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        edges
    }

    fn describe(&self, a: &CkptAction) -> String {
        match *a {
            CkptAction::Plan {
                rank,
                round,
                delta_on,
            } => format!(
                "rank {rank}: derive gen {} as {} and {}",
                CkptCommitModel::gen_of(round),
                flavor(delta_on),
                if rank == 0 {
                    "frame its plan"
                } else {
                    "send its plan"
                }
            ),
            CkptAction::RecvPlan { src } => format!("rank 0: receive section plan from rank {src}"),
            CkptAction::Write { round, ok } => format!(
                "rank 0: persist gen {} archive -> {}",
                CkptCommitModel::gen_of(round),
                if ok { "ok" } else { "WRITE FAILS" }
            ),
            CkptAction::SendAcks { round, ok } => format!(
                "rank 0: broadcast commit ack (gen {}, committed={ok}) and apply gate",
                CkptCommitModel::gen_of(round)
            ),
            CkptAction::RecvAck { rank } => format!("rank {rank}: receive commit ack, apply gate"),
            CkptAction::Crash { rank } => format!("rank {rank}: CRASH"),
            CkptAction::Abort { rank } => format!("rank {rank}: abort (peer dead)"),
        }
    }
}

fn flavor(delta_on: Option<u8>) -> String {
    match delta_on {
        None => "full".to_string(),
        Some(b) => format!("a delta on gen {b}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_naive, Budget, Outcome};

    #[test]
    fn clean_protocol_explores_clean_without_faults() {
        let m = CkptCommitModel::new(3, 2, 2);
        let out = explore(&m, Budget::with_faults(0));
        assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    }

    #[test]
    fn clean_protocol_survives_crash_and_write_failure_injection() {
        let m = CkptCommitModel::new(3, 2, 2);
        let out = explore(&m, Budget::with_faults(1));
        assert!(
            out.is_clean(),
            "crash/write-fault at any step must not break the gate"
        );
    }

    #[test]
    fn skip_ack_gate_mutant_is_caught_and_minimized() {
        let m = CkptCommitModel::new(2, 1, 1).mutated(CkptMutation::SkipAckGate);
        let out = explore(&m, Budget::with_faults(1));
        let Outcome::Violation(ce) = out else {
            panic!("mutant must violate the gate invariant");
        };
        assert!(
            ce.message.contains("believes generation"),
            "message: {}",
            ce.message
        );
        // Minimal run: both ranks plan, plan received, write fails,
        // acks broadcast (mutant cleans rank 0 anyway).
        assert_eq!(ce.schedule.len(), 5, "schedule: {:#?}", ce.schedule);
        assert!(matches!(
            ce.schedule[3],
            CkptAction::Write { ok: false, .. }
        ));
    }

    #[test]
    fn base_on_failed_ack_mutant_is_caught() {
        // Round 0 is full and its write fails; round 1 may be a delta.
        // Rank 1 moved its base on the failed ack and derives a delta on
        // gen 1 where rank 0, with no base, derives full.
        let m = CkptCommitModel::new(2, 2, 2).mutated(CkptMutation::BaseOnFailedAck);
        let out = explore(&m, Budget::with_faults(1));
        let Outcome::Violation(ce) = out else {
            panic!("mutant must violate decision agreement");
        };
        assert!(
            ce.message
                .contains("derived full but rank 1 derived a delta on gen 1"),
            "message: {}",
            ce.message
        );
        assert!(ce
            .schedule
            .iter()
            .any(|a| matches!(a, CkptAction::Write { ok: false, .. })));
        // The unmutated protocol on the same instance is clean.
        let clean = CkptCommitModel::new(2, 2, 2);
        assert!(explore(&clean, Budget::with_faults(1)).is_clean());
    }

    #[test]
    fn dpor_agrees_with_naive_on_small_instance() {
        // Crash actions are conservatively dependent with everything,
        // so the reduction shows on the crash-free instance where the
        // per-rank deliveries genuinely commute.
        let small = CkptCommitModel::new(3, 1, 1);
        let budget = Budget::with_faults(0);
        let d = explore(&small, budget);
        let nv = explore_naive(&small, budget);
        assert!(d.is_clean() && nv.is_clean());
        assert!(
            d.stats().transitions * 2 <= nv.stats().transitions,
            "DPOR {} vs naive {}",
            d.stats().transitions,
            nv.stats().transitions
        );
    }
}
