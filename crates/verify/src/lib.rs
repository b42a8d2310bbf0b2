//! Protocol verification and static invariant checking for the QMC
//! workspace.
//!
//! Parallel Monte Carlo correctness bugs are silent biases, not
//! crashes: a message matched out of order, an extra RNG draw, a
//! transcendental sneaking back into a table-driven kernel — all leave
//! the program running and the physics subtly wrong. This crate holds
//! the three mechanical checkers that keep those invariants honest:
//!
//! * **Comm-protocol model checker** ([`trace`], [`checker`]):
//!   a [`Recorder`] observing any [`qmc_comm::Communicator`] captures
//!   per-rank event traces; [`check`] replays them under the
//!   deterministic `(source, tag)` matching semantics and proves
//!   deadlock-freedom, send/recv matching, reserved-tag discipline and
//!   SPMD collective agreement — or reports the exact wait-for cycle.
//!   Its runtime counterpart lives in `qmc_comm::ThreadComm`, which
//!   detects wait-for cycles while the program runs and panics with the
//!   cycle instead of hanging the suite.
//! * **Workspace invariant linter** ([`lint`], `qmc-lint` binary):
//!   a dependency-free token-level scanner enforcing the kernel and
//!   serialization disciplines (ten rules, tabulated in [`lint`]) across
//!   the workspace, with per-site waiver comments as the audit trail and
//!   one fixture per rule under `fixtures/` that the self-tests require
//!   to fire, so a rule cannot rot into a no-op.
//! * **Exhaustive protocol explorer** ([`mod@explore`], [`model`]): the
//!   checkpoint-commit and drain-verdict protocols modeled as
//!   deterministic per-process step functions;
//!   [`fn@explore`] enumerates *every* distinguishable interleaving of
//!   deliveries, crashes, and write failures (sleep sets + dynamic
//!   partial-order reduction) within a configurable depth/fault
//!   budget, and renders any violation as a minimized counterexample
//!   schedule. The `tests/explore.rs` conformance suite replays those
//!   schedules against the real `CkptStore`/`ThreadComm`. The job
//!   server's scheduler needs no model: [`explore_states`] walks every
//!   reachable state of the real `qmc_serve::Sched`
//!   (`qmc_bench::sched_model`). Rank respawn needs no model either:
//!   every launch of a thread world gets new mailboxes, so a fresh
//!   world resumes from the store.
//!
//! `repro verify` and `scripts/check.sh` run all three on every gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod explore;
pub mod lint;
pub mod model;
pub mod trace;

pub use checker::{check, Report, Violation};
pub use explore::{
    explore, explore_naive, explore_states, Budget, CounterExample, ExploreStats, Model, Outcome,
};
pub use lint::{lint_source, lint_workspace, workspace_root_from, Finding, Rule};
pub use trace::{record_threads, Event, Recorder, WorldTrace};
