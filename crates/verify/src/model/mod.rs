//! Protocol models: the workspace's message-passing coordination
//! protocols extracted as pure state machines for the [`mod@crate::explore`]
//! DPOR explorer.
//!
//! Three of the four explored protocols are hand-written *mirrors* and
//! live here. The fourth, the job server's lifecycle, is not modelled at
//! all: `qmc_bench::sched_model` hands the explorer the real scheduler
//! of the job server, one real call per transition, because that
//! scheduler already is a state machine without I/O. A mirror can drift
//! from what it mirrors (the scheduler mirror that used to sit in this
//! directory had); the rules below are what keeps the remaining three
//! honest, and they apply only to them.
//!
//! Extraction rules (see DESIGN.md "Exhaustive protocol exploration"):
//!
//! * One model process per participant (rank, supervisor, environment);
//!   every source of nondeterminism — message delivery, crash timing,
//!   write failure, flag raise — is a distinct action, so the explorer
//!   owns the schedule completely.
//! * Transitions mirror the real implementation step-for-step at the
//!   granularity of its atomic sections (one blocking call boundary per
//!   action); `tests/explore.rs` replays explored schedules against the
//!   real `CkptStore`/`ThreadComm` code to keep the two pinned.
//! * Each model carries an optional seeded *mutation* reproducing a
//!   protocol bug the real code was engineered to avoid (dropping the
//!   commit-ack gate, reading the drain flag locally, resetting the
//!   mailboxes early). Mutants exist so the checker's teeth are tested:
//!   every mutant must yield a minimized counterexample, and the
//!   unmutated model must explore clean.
//!
//! The three mirrors:
//!
//! * [`ckpt_commit`]: coordinated full-vs-delta checkpoint write with
//!   rank-0 decision broadcast, plan gather, persist, and the
//!   commit-ack broadcast that gates `mark_clean` — under crash and
//!   write-failure injection (mirrors
//!   `qmc_ckpt::coord::write_coordinated_sections` and its callers).
//! * [`drain`]: the graceful-drain verdict broadcast at sweep
//!   boundaries — every rank must stop at the same sweep in every
//!   schedule (mirrors the drain check in
//!   `qmc_core::pt::run_pt_parallel_ckpt`).
//! * [`respawn`]: the elastic-world respawn barrier — reset only after
//!   every incarnation-0 thread exited, restore exactly once behind the
//!   rejoin ack barrier (mirrors `qmc_comm::run_threads_elastic` plus
//!   the rejoin path of `qmc_ckpt::coord::restore_coordinated`).

pub mod ckpt_commit;
pub mod drain;
pub mod respawn;

pub use ckpt_commit::{CkptAction, CkptCommitModel, CkptMutation};
pub use drain::{DrainAction, DrainModel, DrainMutation, TAG_VERDICT};
pub use respawn::{RespawnAction, RespawnModel, RespawnMutation, TAG_ACK, TAG_GEN};
