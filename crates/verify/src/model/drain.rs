//! Model of the graceful-drain verdict broadcast
//! (`qmc_core::pt::run_pt_parallel_ckpt`'s stop-flag check at sweep
//! boundaries).
//!
//! The real loop: at every sweep boundary rank 0 reads the shared stop
//! flag and broadcasts the verdict; every rank honors the *broadcast*
//! value, never its own read, so either all ranks run the sweep or all
//! stop before it. The environment may raise the flag at any moment —
//! including between two ranks' boundary checks, which is exactly the
//! race a per-rank flag read gets wrong.
//!
//! Invariant: in every reachable state, all ranks that have stopped
//! did so at the same sweep boundary, and no rank finishes the full
//! run while another stopped early.
//!
//! Seeded mutations: [`DrainMutation::LocalFlagRead`] has every rank
//! read the flag itself (no broadcast) — the environment can split
//! the ranks across a boundary; [`DrainMutation::SkipFinalBroadcast`]
//! has rank 0 stop on a raised flag *without* broadcasting the stop
//! verdict — every other rank blocks forever on the verdict receive,
//! a deadlock rendered through the wait-for-cycle reporter.

use crate::explore::Model;
use qmc_comm::WaitEdge;

/// Tag used in rendered wait-for edges for the verdict broadcast.
pub const TAG_VERDICT: u32 = 0x20;

/// Seeded protocol bugs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMutation {
    /// Each rank consults the stop flag directly instead of the
    /// broadcast verdict.
    LocalFlagRead,
    /// Rank 0 stops on a raised flag without broadcasting the final
    /// stop verdict.
    SkipFinalBroadcast,
}

/// The drain-verdict broadcast protocol model.
#[derive(Debug, Clone, Copy)]
pub struct DrainModel {
    /// Number of ranks (>= 1).
    pub ranks: usize,
    /// Total sweeps in the run (boundaries 0..sweeps are checked).
    pub sweeps: u8,
    /// Optional seeded bug.
    pub mutation: Option<DrainMutation>,
}

impl DrainModel {
    /// Unmutated model.
    pub fn new(ranks: usize, sweeps: u8) -> Self {
        DrainModel {
            ranks,
            sweeps,
            mutation: None,
        }
    }

    /// Same instance with a seeded bug.
    pub fn mutated(mut self, m: DrainMutation) -> Self {
        self.mutation = Some(m);
        self
    }
}

/// Per-rank progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankState {
    /// At the boundary before sweep `.0`.
    Boundary(u8),
    /// Stopped before sweep `.0` (completed `.0` sweeps).
    Stopped(u8),
    /// Ran every sweep to completion.
    Finished,
}

/// Global model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DrainState {
    flag: bool,
    ranks: Vec<RankState>,
    /// Verdicts in flight to each rank > 0 (FIFO): `(sweep, stop)`.
    verdicts: Vec<Vec<(u8, bool)>>,
}

/// One scheduler choice in the drain protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainAction {
    /// The environment raises the stop flag (a sweep-boundary request
    /// from the operator; at most once).
    RaiseStop,
    /// Rank 0 reads the flag at boundary `sweep` and broadcasts the
    /// verdict.
    CheckFlag {
        /// Boundary being checked.
        sweep: u8,
    },
    /// Rank `rank` receives the next verdict and advances or stops.
    RecvVerdict {
        /// Receiving rank.
        rank: u8,
    },
    /// `LocalFlagRead` mutant only: rank `rank` reads the flag itself
    /// at boundary `sweep`.
    CheckLocal {
        /// Reading rank.
        rank: u8,
        /// Boundary being checked.
        sweep: u8,
    },
}

impl DrainModel {
    fn local_read(&self) -> bool {
        self.mutation == Some(DrainMutation::LocalFlagRead)
    }

    fn advance(&self, at: u8, stop: bool) -> RankState {
        if stop {
            RankState::Stopped(at)
        } else if at + 1 >= self.sweeps {
            RankState::Finished
        } else {
            RankState::Boundary(at + 1)
        }
    }
}

impl Model for DrainModel {
    type State = DrainState;
    type Action = DrainAction;

    fn init(&self) -> DrainState {
        DrainState {
            flag: false,
            ranks: vec![RankState::Boundary(0); self.ranks],
            verdicts: vec![Vec::new(); self.ranks],
        }
    }

    fn actions(&self, s: &DrainState) -> Vec<DrainAction> {
        let mut acts = Vec::new();
        for (r, st) in s.ranks.iter().enumerate() {
            let RankState::Boundary(sweep) = *st else {
                continue;
            };
            if r == 0 || self.local_read() {
                if r == 0 && !self.local_read() {
                    acts.push(DrainAction::CheckFlag { sweep });
                } else {
                    acts.push(DrainAction::CheckLocal {
                        rank: r as u8,
                        sweep,
                    });
                }
            } else if !s.verdicts[r].is_empty() {
                acts.push(DrainAction::RecvVerdict { rank: r as u8 });
            }
            // else: blocked on the verdict broadcast.
        }
        if !s.flag {
            acts.push(DrainAction::RaiseStop);
        }
        acts
    }

    fn apply(&self, s: &DrainState, a: &DrainAction) -> DrainState {
        let mut t = s.clone();
        match *a {
            DrainAction::RaiseStop => t.flag = true,
            DrainAction::CheckFlag { sweep } => {
                let stop = t.flag;
                let broadcast = !(stop && self.mutation == Some(DrainMutation::SkipFinalBroadcast));
                if broadcast {
                    for q in t.verdicts.iter_mut().skip(1) {
                        q.push((sweep, stop));
                    }
                }
                t.ranks[0] = self.advance(sweep, stop);
            }
            DrainAction::RecvVerdict { rank } => {
                let (sweep, stop) = t.verdicts[rank as usize].remove(0);
                t.ranks[rank as usize] = self.advance(sweep, stop);
            }
            DrainAction::CheckLocal { rank, sweep } => {
                let stop = t.flag;
                t.ranks[rank as usize] = self.advance(sweep, stop);
            }
        }
        t
    }

    fn invariant(&self, s: &DrainState) -> Result<(), String> {
        let mut stopped: Option<(usize, u8)> = None;
        let mut finished: Option<usize> = None;
        for (r, st) in s.ranks.iter().enumerate() {
            match *st {
                RankState::Stopped(at) => match stopped {
                    Some((r0, at0)) if at0 != at => {
                        return Err(format!(
                            "rank {r0} stopped at sweep boundary {at0} but rank {r} \
                             stopped at {at}"
                        ));
                    }
                    _ => stopped = Some((r, at)),
                },
                RankState::Finished => finished = Some(r),
                RankState::Boundary(_) => {}
            }
        }
        if let (Some((rs, at)), Some(rf)) = (stopped, finished) {
            return Err(format!(
                "rank {rs} stopped at sweep boundary {at} but rank {rf} ran all \
                 {} sweeps to completion",
                self.sweeps
            ));
        }
        Ok(())
    }

    fn pid(&self, a: &DrainAction) -> usize {
        match a {
            DrainAction::RaiseStop => self.ranks, // environment process
            DrainAction::CheckFlag { .. } => 0,
            DrainAction::RecvVerdict { rank } => *rank as usize,
            DrainAction::CheckLocal { rank, .. } => *rank as usize,
        }
    }

    fn dependent(&self, a: &DrainAction, b: &DrainAction) -> bool {
        if self.pid(a) == self.pid(b) {
            return true;
        }
        let reads_flag = |x: &DrainAction| {
            matches!(
                x,
                DrainAction::RaiseStop
                    | DrainAction::CheckFlag { .. }
                    | DrainAction::CheckLocal { .. }
            )
        };
        if reads_flag(a) && reads_flag(b) {
            return true;
        }
        // CheckFlag broadcasts on every (0, r) channel; RecvVerdict(r)
        // consumes from it.
        let channel = |x: &DrainAction| -> Option<u8> {
            match x {
                DrainAction::RecvVerdict { rank } => Some(*rank),
                _ => None,
            }
        };
        matches!(
            (a, b),
            (DrainAction::CheckFlag { .. }, _) | (_, DrainAction::CheckFlag { .. })
        ) && (channel(a).is_some() || channel(b).is_some())
    }

    fn is_final(&self, s: &DrainState) -> bool {
        // The flag not being raised yet keeps RaiseStop enabled, so a
        // quiescent state always has every rank terminal; both
        // terminal outcomes are legitimate completions.
        s.ranks
            .iter()
            .all(|st| !matches!(st, RankState::Boundary(_)))
    }

    fn wait_edges(&self, s: &DrainState) -> Vec<WaitEdge> {
        s.ranks
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(r, st)| matches!(st, RankState::Boundary(_)) && s.verdicts[*r].is_empty())
            .map(|(r, _)| WaitEdge {
                rank: r,
                src: 0,
                tag: TAG_VERDICT,
            })
            .collect()
    }

    fn describe(&self, a: &DrainAction) -> String {
        match *a {
            DrainAction::RaiseStop => "environment: raise the stop flag".into(),
            DrainAction::CheckFlag { sweep } => {
                format!("rank 0: check flag at boundary {sweep}, broadcast verdict")
            }
            DrainAction::RecvVerdict { rank } => {
                format!("rank {rank}: receive verdict, advance or stop")
            }
            DrainAction::CheckLocal { rank, sweep } => {
                format!("rank {rank}: read flag locally at boundary {sweep}")
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
    fn broadcast_drain_is_schedule_independent() {
        let m = DrainModel::new(3, 3);
        let out = explore(&m, Budget::with_faults(0));
        assert!(out.is_clean(), "expected clean, got {:?}", out.stats());
    }

    #[test]
    fn local_flag_read_mutant_splits_the_world() {
        let m = DrainModel::new(2, 1).mutated(DrainMutation::LocalFlagRead);
        let out = explore(&m, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("local flag reads must diverge");
        };
        assert_eq!(ce.schedule.len(), 3, "schedule: {:#?}", ce.schedule);
        assert!(
            ce.message.contains("ran all") || ce.message.contains("stopped at"),
            "message: {}",
            ce.message
        );
    }

    #[test]
    fn skip_final_broadcast_mutant_deadlocks_with_wait_edges() {
        let m = DrainModel::new(3, 2).mutated(DrainMutation::SkipFinalBroadcast);
        let out = explore(&m, Budget::with_faults(0));
        let Outcome::Violation(ce) = out else {
            panic!("skipping the stop broadcast must deadlock the world");
        };
        let Some(Violation::Deadlock { cycle }) = &ce.deadlock else {
            panic!("expected rendered wait-for edges, got {:?}", ce.deadlock);
        };
        assert_eq!(cycle.len(), 2, "ranks 1 and 2 both wait on rank 0");
        assert!(cycle.iter().all(|e| e.src == 0 && e.tag == TAG_VERDICT));
        // Minimal: raise the flag, rank 0 stops silently.
        assert_eq!(ce.schedule.len(), 2, "schedule: {:#?}", ce.schedule);
    }

    #[test]
    fn dpor_agrees_with_naive_and_reduces() {
        let m = DrainModel::new(3, 2);
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
