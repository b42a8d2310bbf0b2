//! Observability layer for the QMC workspace: per-rank spans, a metrics
//! registry, and machine-readable exporters.
//!
//! The SC'93 paper's evidence is tables of update rates, communication
//! fractions, and scaling curves — numbers that demand a per-phase timing
//! breakdown (sweep vs. halo vs. collective vs. measurement) rather than
//! ad-hoc `Instant` calls. This crate is that breakdown as a permanent,
//! always-compiled layer:
//!
//! * **Spans** ([`span`]) — hierarchical RAII timing scopes recorded into a
//!   per-rank fixed-capacity ring ([`init`]/[`finish`]). Steady-state
//!   recording performs no heap allocation: the ring is preallocated and
//!   span names are `&'static str`. When observability is off (the
//!   default: no [`init`] call, or spans disabled in [`ObsConfig`]),
//!   [`span`] is a branch on a thread-local flag and nothing else.
//! * **Metrics** ([`Registry`]) — named monotonic counters and log₂-bucketed
//!   histograms. Engines own a registry for their acceptance counters (the
//!   values exist whether or not observability is on, preserving reported
//!   acceptance rates); harness-level counts go through [`counter_add`] /
//!   [`hist_record`] into the rank recorder's registry. Completed spans are
//!   folded into a duration histogram per span name automatically when
//!   metrics are enabled.
//! * **Exporters** ([`metrics_json`], [`chrome_trace_json`]) — a versioned
//!   `qmc-metrics/v1` JSON artifact and a Chrome trace-event file (one
//!   track per rank; load `trace.json` in Perfetto or `chrome://tracing`).
//!   Per-rank records are merged at finalize with [`gather_ranks`] over any
//!   [`qmc_comm::Communicator`]. These, the analysis artifact and the
//!   `VERIFY_*` files of `qmc-bench` are all written by
//!   [`json::JsonWriter`], the workspace's only JSON emitter.
//!
//! Instrumentation must never perturb physics: nothing here draws random
//! numbers or reorders messages, so fixed-seed trajectories are
//! bit-identical with observability on or off (enforced by the
//! `observability` integration tests).
//!
//! Span timestamps are **wall-clock** microseconds from a shared epoch
//! ([`ObsConfig::new`]), even under the simulated machine: the trace shows
//! where host time goes, while *virtual*-time attribution stays in
//! [`qmc_comm::CommStats`] (which [`RankObs`] embeds).
//!
//! ```
//! use qmc_obs::{init, finish, span, counter_add, ObsConfig};
//!
//! init(0, &ObsConfig::new());
//! {
//!     let _sweep = span("sweep");
//!     counter_add("proposals", 128);
//! }
//! let rank = finish().expect("recorder was installed");
//! assert_eq!(rank.counter("proposals"), 128);
//! assert_eq!(rank.spans.len(), 1);
//! let trace = qmc_obs::chrome_trace_json(std::slice::from_ref(&rank));
//! assert!(trace.contains("\"ph\": \"B\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod export;
pub mod health;
pub mod json;
mod metrics;
mod record;
mod span;
mod trace;

pub use analysis::{
    analysis_json, analyze, match_flows, render_report, Analysis, Flow, FlowMatch, RankAttribution,
    Segment, SegmentKind, ANALYSIS_SCHEMA,
};
pub use export::{chrome_trace_json, metrics_json, RunMeta};
pub use health::{replica_agreement, HealthMonitor, OnlineBinning};
pub use metrics::{CounterId, Hist, HistId, Registry, N_BUCKETS};
pub use record::{
    gather_ranks, CommDir, CommEvent, CommSummary, HealthSnapshot, HistSnapshot, OwnedSpan, RankObs,
};
pub use span::{
    active_span_id, counter_add, enabled, finish, health_enabled, health_record, hist_record, init,
    metrics_enabled, now_us, span, spans_enabled, ObsConfig, Span,
};
pub use trace::Tracer;

/// Mirror a rank's [`qmc_comm::FaultStats`] into the thread-local metrics
/// registry as `comm.retries` / `comm.timeouts`.
///
/// Lives here rather than on `FaultyComm` itself because `qmc-comm` sits
/// below this crate in the dependency graph. No-op when metrics are
/// disabled, like every [`counter_add`].
pub fn publish_fault_stats(stats: &qmc_comm::FaultStats) {
    counter_add("comm.retries", stats.retries);
    counter_add("comm.timeouts", stats.timeouts);
}
