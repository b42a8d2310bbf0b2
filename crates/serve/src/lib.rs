//! qmc-serve: a multi-tenant simulation job server.
//!
//! Turns the library's engines into a long-running service: clients
//! submit jobs (model, lattice, β schedule, sweep budget, priority)
//! over a versioned length-prefixed TCP protocol; a scheduler
//! dispatches them across a worker pool with per-tenant quotas;
//! workers checkpoint in-flight jobs through namespaced [`qmc_ckpt`]
//! stores, so a worker death requeues the job and the next attempt
//! resumes from the latest generation — bit-identical to an
//! uninterrupted run, with zero lost jobs.
//!
//! Layers (each unit-tested in isolation):
//! * [`job`] — job specifications and result payloads;
//! * [`wire`] — the `qmc-serve/v1` message protocol, framed by
//!   [`qmc_comm::tcp`] (magic + length + CRC-32 per frame);
//! * [`run`] — one job attempt: restore, sweep, checkpoint, stream
//!   snapshots; honors injected kills and drain flags;
//! * [`sched`] — admission, priority dispatch, requeue, tenant metrics;
//! * [`server`] / [`client`] — the threaded server and its client API.
//!
//! Everything is std-only, like the rest of the workspace: frames are
//! CRC-checked by hand, timeouts come from socket options (no wall
//! clock reads outside qmc-obs), and concurrency is scoped threads,
//! mutexes, and condvars.

pub mod client;
pub mod job;
pub mod run;
pub mod sched;
pub mod server;
pub mod wire;

pub use client::Client;
pub use job::{JobKind, JobObservables, JobSpec};
pub use run::{run_job, Outcome, RunCtl};
pub use sched::{JobState, KillSpec, Next, Sched, TenantQuota};
pub use server::{ServeConfig, Server, MAX_ATTEMPTS};

use qmc_ckpt::CkptError;
use qmc_comm::tcp::FrameError;
use std::fmt;

/// A stats view: sorted `(counter name, value)` pairs plus per-tenant
/// convergence health snapshots.
pub type TenantStats = (Vec<(String, u64)>, Vec<qmc_obs::HealthSnapshot>);

/// Client-visible failures.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level framing failure (connection unusable).
    Frame(FrameError),
    /// Payload decode failure (schema mismatch, truncation, corruption).
    Codec(CkptError),
    /// The server refused the request (quota, validation, unknown job).
    Rejected(String),
    /// The peer answered with something the protocol does not allow
    /// here.
    Protocol(String),
    /// The server is draining and will not finish this request.
    Draining,
    /// Raw I/O failure outside the framing layer.
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "frame error: {e}"),
            ServeError::Codec(e) => write!(f, "codec error: {e}"),
            ServeError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ServeError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<CkptError> for ServeError {
    fn from(e: CkptError) -> Self {
        ServeError::Codec(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
