//! Runtime deadlock detection for the thread-backed world.
//!
//! Every `ThreadComm` receive that blocks registers the rank as
//! `Waiting { src, tag, epoch }` in its own mailbox (under the same
//! mutex as the message queues — see `mailbox.rs` for why that coupling
//! matters). While blocked, the rank periodically walks the wait-for
//! graph: rank *r* waiting on source *s* is an edge *r → s*. A cycle of
//! `Waiting` ranks is a candidate deadlock.
//!
//! One snapshot is not proof — the walk is not atomic, and a rank can be
//! mid-handoff between "message deposited" and "woke up". Soundness
//! comes from *epoch stability*: a second walk that observes the exact
//! same cycle with the exact same epochs proves every member was
//! continuously blocked in between, because (a) a matching deposit flips
//! the waiter to `Running` under the mailbox lock, and (b) every
//! re-registration bumps the epoch. Stable `Waiting { epoch }` therefore
//! means "queue stayed empty and the rank never woke" — the cycle is a
//! genuine deadlock under every schedule.
//!
//! The detecting rank panics with the canonical cycle (rotated to start
//! at the lowest rank, so every detector reports the same text) and
//! poisons the world; other blocked ranks pick the poison up on their
//! next wait slice and fail fast too, instead of riding out the full
//! receive timeout.

use crate::mailbox::Mailbox;
use std::fmt;
use std::sync::Mutex;

/// What a rank is doing right now, as visible to the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankState {
    /// Computing, sending, or between receives.
    Running,
    /// Blocked in a receive for `(src, tag)`; `epoch` increments on
    /// every registration so stale observations can be told apart.
    Waiting { src: usize, tag: u32, epoch: u64 },
    /// The rank's closure returned (or unwound, when `panicked`).
    Done { panicked: bool },
}

/// One edge of a wait-for graph: `rank` is blocked receiving from `src`
/// with `tag`. Its `Display` is the wording of every deadlock report, the
/// runtime detector's and the offline trace checker's alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub rank: usize,
    /// The rank it waits on.
    pub src: usize,
    /// The tag it waits for.
    pub tag: u32,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { rank, src, tag } = self;
        write!(f, "rank {rank} waits on rank {src} (tag {tag:#x})")
    }
}

/// One wait-for edge with the epoch at which it was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitLink {
    pub edge: WaitEdge,
    pub epoch: u64,
}

/// What the wait-for walk concluded. Compared for equality across two
/// walks to confirm stability before anyone panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Diagnosis {
    /// A cycle of mutually waiting ranks (cycle members only, in walk
    /// order starting from the lowest rank in the cycle).
    Cycle(Vec<WaitLink>),
    /// A rank waits on a peer that has already finished and can never
    /// send again.
    DeadPeer { link: WaitLink, panicked: bool },
}

impl Diagnosis {
    /// Human-readable verdict; this exact text becomes the panic payload
    /// (and the world poison), so tests can assert on it.
    pub fn render(&self) -> String {
        match self {
            Diagnosis::Cycle(links) => {
                let chain = links
                    .iter()
                    .map(|l| l.edge.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> ");
                format!("deadlock detected: {chain}")
            }
            Diagnosis::DeadPeer { link, panicked } => format!(
                "{} but rank {} has already {} — the message can never arrive",
                link.edge,
                link.edge.src,
                if *panicked { "panicked" } else { "finished" },
            ),
        }
    }
}

/// Walk the wait-for graph starting at `me`. Returns `None` while no
/// conclusion can be drawn (some rank on the path is still running).
///
/// The caller must walk **twice** and only act when both walks return
/// the same diagnosis — see the module docs for the stability argument.
pub(crate) fn diagnose(boxes: &[Mailbox], me: usize) -> Option<Diagnosis> {
    let mut chain: Vec<WaitLink> = Vec::new();
    let mut rank = me;
    loop {
        match boxes[rank].wait_state() {
            RankState::Running => return None,
            RankState::Done { panicked } => {
                // The *previous* link in the chain waits on a finished
                // rank. (rank == me can't be Done — we are running it.)
                let link = *chain.last()?;
                return Some(Diagnosis::DeadPeer { link, panicked });
            }
            RankState::Waiting { src, tag, epoch } => {
                if let Some(pos) = chain.iter().position(|l| l.edge.rank == rank) {
                    // chain[pos..] is the cycle; anything before it is a
                    // stalled tail feeding into it (still doomed, and the
                    // cycle itself is what every detector should report).
                    let mut cycle = chain[pos..].to_vec();
                    // Canonical form: rotate to start at the lowest rank
                    // so all ranks render the identical message.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.edge.rank)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    return Some(Diagnosis::Cycle(cycle));
                }
                chain.push(WaitLink {
                    edge: WaitEdge { rank, src, tag },
                    epoch,
                });
                rank = src;
            }
        }
    }
}

/// World-wide "a rank has diagnosed a deadlock" flag. Blocked ranks
/// check it every wait slice so one detection fails the whole run fast.
#[derive(Default)]
pub(crate) struct Poison {
    msg: Mutex<Option<String>>,
}

impl Poison {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, msg: &str) {
        let mut slot = self.msg.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert_with(|| msg.to_owned());
    }

    pub fn get(&self) -> Option<String> {
        self.msg.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Clear the poison between elastic respawn rounds.
    ///
    /// Only the world supervisor may call this, and only after every
    /// rank thread of the poisoned round has exited — first-writer-wins
    /// still holds *within* a round, which is all the detector's
    /// soundness argument needs.
    pub fn clear(&self) {
        *self.msg.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiting(boxes: &[Mailbox], rank: usize, src: usize, tag: u32) {
        assert!(boxes[rank].register_waiting(src, tag).is_none());
    }

    #[test]
    fn all_running_is_no_diagnosis() {
        let boxes: Vec<Mailbox> = (0..3).map(|_| Mailbox::new()).collect();
        assert_eq!(diagnose(&boxes, 0), None);
    }

    #[test]
    fn chain_into_running_rank_is_no_diagnosis() {
        let boxes: Vec<Mailbox> = (0..3).map(|_| Mailbox::new()).collect();
        waiting(&boxes, 0, 1, 5);
        waiting(&boxes, 1, 2, 5);
        // rank 2 still running: no verdict yet.
        assert_eq!(diagnose(&boxes, 0), None);
    }

    #[test]
    fn two_cycle_is_detected_and_canonical() {
        let boxes: Vec<Mailbox> = (0..2).map(|_| Mailbox::new()).collect();
        waiting(&boxes, 0, 1, 7);
        waiting(&boxes, 1, 0, 7);
        let d0 = diagnose(&boxes, 0).expect("cycle");
        let d1 = diagnose(&boxes, 1).expect("cycle");
        // Both ranks must render the identical canonical message.
        assert_eq!(d0.render(), d1.render());
        assert_eq!(
            d0.render(),
            "deadlock detected: rank 0 waits on rank 1 (tag 0x7) -> \
             rank 1 waits on rank 0 (tag 0x7)"
        );
    }

    #[test]
    fn stalled_tail_reports_the_cycle_not_itself() {
        let boxes: Vec<Mailbox> = (0..3).map(|_| Mailbox::new()).collect();
        // 2 -> 0, 0 <-> 1 cycle.
        waiting(&boxes, 2, 0, 3);
        waiting(&boxes, 0, 1, 3);
        waiting(&boxes, 1, 0, 3);
        let d2 = diagnose(&boxes, 2).expect("cycle behind the stall");
        let Diagnosis::Cycle(links) = &d2 else {
            panic!("expected cycle, got {d2:?}");
        };
        assert_eq!(
            links.iter().map(|l| l.edge.rank).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn dead_peer_is_reported_with_finish_kind() {
        let boxes: Vec<Mailbox> = (0..2).map(|_| Mailbox::new()).collect();
        waiting(&boxes, 0, 1, 9);
        boxes[1].set_done(false);
        let d = diagnose(&boxes, 0).expect("dead peer");
        assert!(d.render().contains("rank 1 has already finished"), "{d:?}");
        boxes[1].set_done(true);
        let d = diagnose(&boxes, 0).expect("dead peer");
        assert!(d.render().contains("rank 1 has already panicked"), "{d:?}");
    }

    #[test]
    fn epoch_instability_changes_the_diagnosis() {
        let boxes: Vec<Mailbox> = (0..2).map(|_| Mailbox::new()).collect();
        waiting(&boxes, 0, 1, 7);
        waiting(&boxes, 1, 0, 7);
        let first = diagnose(&boxes, 0).expect("cycle");
        // Rank 1 wakes and re-blocks on the same (src, tag): the shape is
        // identical but the epoch differs, so the confirm pass must not
        // treat the two walks as equal.
        boxes[1].set_running();
        waiting(&boxes, 1, 0, 7);
        let second = diagnose(&boxes, 0).expect("cycle");
        assert_ne!(first, second);
        assert_eq!(first.render(), second.render());
    }

    #[test]
    fn poison_is_first_writer_wins() {
        let p = Poison::new();
        assert_eq!(p.get(), None);
        p.set("first");
        p.set("second");
        assert_eq!(p.get().as_deref(), Some("first"));
    }

    #[test]
    fn poison_clear_opens_a_fresh_round() {
        let p = Poison::new();
        p.set("round 0 died");
        p.clear();
        assert_eq!(p.get(), None);
        p.set("round 1 died");
        assert_eq!(p.get().as_deref(), Some("round 1 died"));
    }
}
