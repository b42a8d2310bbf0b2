//! Thread-local per-rank recorder: RAII timing spans, comm-event
//! tracing, online health feeds, and free-function metric updates.
//!
//! Each rank (one OS thread under `ThreadComm`, the single main thread
//! under `SerialComm`/`ModelComm`) calls [`init`] once before its solver
//! loop and [`finish`] once after; everything in between goes through
//! [`span`], [`counter_add`], [`hist_record`] and [`health_record`]. When
//! [`init`] was never called — the default for every existing test and
//! binary — all of those are a single thread-local flag check and nothing
//! else, which is what keeps the instrumented hot loops within the 2%
//! overhead budget.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::health::HealthMonitor;
use crate::metrics::Registry;
use crate::record::{CommEvent, HealthSnapshot, OwnedSpan, RankObs};

const F_SPANS: u8 = 1;
const F_METRICS: u8 = 2;
const F_HEALTH: u8 = 4;

thread_local! {
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// What to record on this rank. Clone one config across all ranks of a run
/// so every recorder shares the same wall-clock epoch (merged traces then
/// line up on a common time axis).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Record hierarchical timing spans into the ring.
    pub spans: bool,
    /// Record counters/histograms (and per-span duration histograms).
    pub metrics: bool,
    /// Stream observables pushed via [`health_record`] through an online
    /// [`HealthMonitor`] (τ_int, error bars, equilibration drift).
    pub health: bool,
    /// Print a one-line health report to stderr every this many samples
    /// per observable (0 = never print; snapshots still export).
    pub health_every: usize,
    /// Ring capacity in spans; the oldest spans are overwritten once the
    /// ring is full (the overflow count is reported as `dropped_spans`).
    pub span_capacity: usize,
    /// Ring capacity in traced comm events (see [`crate::Tracer`]); oldest
    /// events are overwritten, counted as `dropped_comm_events`.
    pub comm_capacity: usize,
    epoch: Instant,
}

impl ObsConfig {
    /// Spans and metrics enabled (health off), 65 536-entry rings,
    /// epoch = now.
    pub fn new() -> Self {
        Self {
            spans: true,
            metrics: true,
            health: false,
            health_every: 0,
            span_capacity: 1 << 16,
            comm_capacity: 1 << 16,
            epoch: Instant::now(),
        }
    }

    /// Metrics only (no span ring): counters and histograms without the
    /// per-span timeline.
    pub fn metrics_only() -> Self {
        Self {
            spans: false,
            ..Self::new()
        }
    }

    /// Same config with span recording set to `on`.
    pub fn with_spans(mut self, on: bool) -> Self {
        self.spans = on;
        self
    }

    /// Same config with metrics recording set to `on`.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Same config with online health monitoring set to `on`.
    pub fn with_health(mut self, on: bool) -> Self {
        self.health = on;
        self
    }

    /// Same config with health on and a periodic stderr report every
    /// `every` samples (0 keeps reports silent).
    pub fn with_health_every(mut self, every: usize) -> Self {
        self.health = true;
        self.health_every = every;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One completed (or in-flight) span in the fixed ring.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    id: u64,
    t0_us: f64,
    t1_us: f64,
    depth: u16,
}

/// Default `min_bins` for the online binning behind [`health_record`]
/// (same default the offline analyses in this workspace use).
pub(crate) const HEALTH_MIN_BINS: usize = 16;

/// The per-thread recorder installed by [`init`].
struct Recorder {
    rank: u64,
    epoch: Instant,
    metrics_on: bool,
    ring: Vec<SpanRec>,
    capacity: usize,
    head: usize,
    recorded: u64,
    depth: u16,
    /// Monotone per-rank span id source (ids start at 1; 0 = "no span").
    next_span_id: u64,
    /// Ids of currently open spans, innermost last.
    open: Vec<u64>,
    comm_ring: Vec<CommEvent>,
    comm_capacity: usize,
    comm_head: usize,
    comm_recorded: u64,
    registry: Registry,
    health: Vec<(&'static str, HealthMonitor)>,
    health_every: usize,
}

impl Recorder {
    fn push(&mut self, rec: SpanRec) {
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    fn push_comm(&mut self, rec: CommEvent) {
        if self.comm_ring.len() < self.comm_capacity {
            self.comm_ring.push(rec);
        } else {
            self.comm_ring[self.comm_head] = rec;
            self.comm_head = (self.comm_head + 1) % self.comm_capacity;
        }
        self.comm_recorded += 1;
    }

    /// Completed spans, oldest first.
    fn chronological(&self) -> Vec<OwnedSpan> {
        let mut out = Vec::with_capacity(self.ring.len());
        let order = self.ring[self.head..].iter().chain(&self.ring[..self.head]);
        for r in order {
            out.push(OwnedSpan {
                name: r.name.to_string(),
                id: r.id,
                t0_us: r.t0_us,
                t1_us: r.t1_us,
                depth: r.depth,
            });
        }
        out
    }

    /// Traced comm events, oldest first.
    fn comm_chronological(&self) -> Vec<CommEvent> {
        [
            &self.comm_ring[self.comm_head..],
            &self.comm_ring[..self.comm_head],
        ]
        .concat()
    }
}

/// Install a recorder on the current thread. `rank` labels the trace
/// track; pass the same `config` (cloned) to every rank of a run.
pub fn init(rank: usize, config: &ObsConfig) {
    let mut flags = 0;
    if config.spans {
        flags |= F_SPANS;
    }
    if config.metrics {
        flags |= F_METRICS;
    }
    if config.health {
        flags |= F_HEALTH;
    }
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank: rank as u64,
            epoch: config.epoch,
            metrics_on: config.metrics,
            ring: Vec::with_capacity(config.span_capacity.max(1)),
            capacity: config.span_capacity.max(1),
            head: 0,
            recorded: 0,
            depth: 0,
            next_span_id: 1,
            open: Vec::with_capacity(64),
            comm_ring: Vec::with_capacity(config.comm_capacity.max(1)),
            comm_capacity: config.comm_capacity.max(1),
            comm_head: 0,
            comm_recorded: 0,
            registry: Registry::new(),
            health: Vec::new(),
            health_every: config.health_every,
        });
    });
    FLAGS.with(|f| f.set(flags));
}

/// Uninstall the current thread's recorder and return everything it
/// captured. Returns `None` when [`init`] was never called.
pub fn finish() -> Option<RankObs> {
    FLAGS.with(|f| f.set(0));
    let rec = RECORDER.with(|r| r.borrow_mut().take())?;
    let mut obs = RankObs {
        rank: rec.rank,
        dropped_spans: rec.recorded - rec.ring.len() as u64,
        spans: rec.chronological(),
        dropped_comm_events: rec.comm_recorded - rec.comm_ring.len() as u64,
        comm_events: rec.comm_chronological(),
        counters: Vec::new(),
        hists: Vec::new(),
        health: rec
            .health
            .iter()
            .map(|(name, hm)| HealthSnapshot::of(name, hm))
            .collect(),
        comm: None,
    };
    obs.absorb_registry(&rec.registry);
    Some(obs)
}

/// True when a recorder is installed with spans or metrics enabled.
#[inline]
pub fn enabled() -> bool {
    FLAGS.with(|f| f.get()) != 0
}

/// True when spans are being recorded on this thread.
#[inline]
pub fn spans_enabled() -> bool {
    FLAGS.with(|f| f.get()) & F_SPANS != 0
}

/// True when metrics are being recorded on this thread.
#[inline]
pub fn metrics_enabled() -> bool {
    FLAGS.with(|f| f.get()) & F_METRICS != 0
}

/// True when online health monitoring is enabled on this thread.
#[inline]
pub fn health_enabled() -> bool {
    FLAGS.with(|f| f.get()) & F_HEALTH != 0
}

/// RAII timing scope returned by [`span`]; the span is recorded when the
/// guard drops.
#[must_use = "a span measures the scope that holds it"]
pub struct Span {
    name: &'static str,
    /// `Some` only when armed (spans enabled at construction time).
    t0: Option<Instant>,
    id: u64,
    depth: u16,
}

/// Open a hierarchical timing span. Disabled path: one thread-local flag
/// read, no clock call, no recorder access.
#[inline]
pub fn span(name: &'static str) -> Span {
    if FLAGS.with(|f| f.get()) & F_SPANS == 0 {
        return Span {
            name,
            t0: None,
            id: 0,
            depth: 0,
        };
    }
    let (id, depth) = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("spans flag set without a recorder");
        let d = rec.depth;
        rec.depth = rec.depth.saturating_add(1);
        let id = rec.next_span_id;
        rec.next_span_id += 1;
        rec.open.push(id);
        (id, d)
    });
    Span {
        name,
        t0: Some(Instant::now()),
        id,
        depth,
    }
}

impl Span {
    /// This span's per-rank id (0 when recording was disabled at open).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(t0) = self.t0 else { return };
        let t1 = Instant::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            rec.depth = rec.depth.saturating_sub(1);
            // Guards are almost always strictly nested (the id sits on
            // top), but manual drop order is legal — remove by value.
            if let Some(pos) = rec.open.iter().rposition(|&id| id == self.id) {
                rec.open.remove(pos);
            }
            let t0_us = t0.duration_since(rec.epoch).as_secs_f64() * 1e6;
            let t1_us = t1.duration_since(rec.epoch).as_secs_f64() * 1e6;
            rec.push(SpanRec {
                name: self.name,
                id: self.id,
                t0_us,
                t1_us,
                depth: self.depth,
            });
            if rec.metrics_on {
                let ns = (t1 - t0).as_nanos().min(u128::from(u64::MAX)) as u64;
                rec.registry.record_named(self.name, ns);
            }
        });
    }
}

/// Id of the innermost currently-open span (0 when none, or when spans
/// are disabled). Comm events are stamped with this to tie message
/// traffic to the span that caused it.
#[inline]
pub fn active_span_id() -> u64 {
    if FLAGS.with(|f| f.get()) & F_SPANS == 0 {
        return 0;
    }
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0, |rec| rec.open.last().copied().unwrap_or(0))
    })
}

/// Microseconds elapsed since this recorder's shared epoch (0.0 when no
/// recorder is installed). Used by the comm [`Tracer`](crate::Tracer) so
/// comm events share the span timeline.
#[inline]
pub fn now_us() -> f64 {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0.0, |rec| rec.epoch.elapsed().as_secs_f64() * 1e6)
    })
}

/// Record one traced comm event into the ring (no-op without spans).
/// Stamps `rec.span_id` with the innermost open span inside the same
/// recorder borrow — the per-message hot path pays one TLS access, not
/// two.
#[inline]
pub(crate) fn comm_event(mut rec: CommEvent) {
    if FLAGS.with(|f| f.get()) & F_SPANS == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(r) = r.borrow_mut().as_mut() {
            rec.span_id = r.open.last().copied().unwrap_or(0);
            r.push_comm(rec);
        }
    });
}

/// Add to a named monotonic counter in this rank's recorder. No-op when
/// metrics are disabled. Hot loops should accumulate locally and call this
/// once per sweep.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if FLAGS.with(|f| f.get()) & F_METRICS == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.registry.add_named(name, n);
        }
    });
}

/// Record a sample into a named histogram in this rank's recorder. No-op
/// when metrics are disabled.
#[inline]
pub fn hist_record(name: &'static str, v: u64) {
    if FLAGS.with(|f| f.get()) & F_METRICS == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.registry.record_named(name, v);
        }
    });
}

/// Stream one observation of a named observable through this rank's
/// online [`HealthMonitor`]. No-op when health monitoring is disabled
/// (a single flag check), so engine measurement loops can call it
/// unconditionally; never draws random numbers or touches messages, so
/// trajectories are bit-identical with health on or off.
#[inline]
pub fn health_record(name: &'static str, value: f64) {
    if FLAGS.with(|f| f.get()) & F_HEALTH == 0 {
        return;
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let every = rec.health_every;
        let rank = rec.rank;
        let hm = match rec.health.iter_mut().find(|(n, _)| *n == name) {
            Some((_, hm)) => hm,
            None => {
                rec.health.push((name, HealthMonitor::new(HEALTH_MIN_BINS)));
                &mut rec
                    .health
                    .last_mut()
                    .expect("just pushed a health monitor")
                    .1
            }
        };
        hm.push(value);
        if every > 0 && hm.count() % every as u64 == 0 {
            eprintln!("[health] rank {rank} {name}: {}", hm.report());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        // All of these must be silent no-ops without init().
        let _s = span("noop");
        counter_add("c", 1);
        hist_record("h", 1);
        health_record("e", 1.0);
        assert_eq!(active_span_id(), 0);
        assert!(finish().is_none());
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        init(3, &ObsConfig::new());
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let obs = finish().unwrap();
        assert_eq!(obs.rank, 3);
        assert_eq!(obs.dropped_spans, 0);
        // Drop order: inner, inner, outer.
        let names: Vec<&str> = obs.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "inner", "outer"]);
        assert_eq!(obs.spans[0].depth, 1);
        assert_eq!(obs.spans[2].depth, 0);
        for s in &obs.spans {
            assert!(s.t1_us >= s.t0_us);
        }
        // The outer span encloses both inners on the time axis.
        assert!(obs.spans[2].t0_us <= obs.spans[0].t0_us);
        assert!(obs.spans[2].t1_us >= obs.spans[1].t1_us);
        // Ids are unique, nonzero, and assigned in open order.
        assert_eq!(obs.spans[2].id, 1); // outer opened first
        assert_eq!(obs.spans[0].id, 2);
        assert_eq!(obs.spans[1].id, 3);
        // Metrics were on: each span fed its duration histogram.
        let inner = obs.hists.iter().find(|h| h.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
    }

    #[test]
    fn active_span_id_tracks_innermost() {
        init(0, &ObsConfig::new());
        assert_eq!(active_span_id(), 0);
        {
            let outer = span("outer");
            assert_eq!(active_span_id(), outer.id());
            {
                let inner = span("inner");
                assert_eq!(active_span_id(), inner.id());
            }
            assert_eq!(active_span_id(), outer.id());
        }
        assert_eq!(active_span_id(), 0);
        finish();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let cfg = ObsConfig {
            span_capacity: 4,
            metrics: false,
            ..ObsConfig::new()
        };
        init(0, &cfg);
        for i in 0..10 {
            let _s = span(NAMES[i % NAMES.len()]);
        }
        let obs = finish().unwrap();
        assert_eq!(obs.spans.len(), 4);
        assert_eq!(obs.dropped_spans, 6);
        // The survivors are the 4 most recent, oldest first.
        let names: Vec<&str> = obs.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, [NAMES[0], NAMES[1], NAMES[2], NAMES[0]]);
        // Chronological order survives the wrap.
        for w in obs.spans.windows(2) {
            assert!(w[0].t0_us <= w[1].t0_us);
        }
    }

    const NAMES: [&str; 3] = ["a", "b", "c"];

    #[test]
    fn metrics_only_config_skips_spans() {
        init(0, &ObsConfig::metrics_only());
        assert!(!spans_enabled());
        assert!(metrics_enabled());
        {
            let _s = span("skipped");
            counter_add("seen", 2);
        }
        let obs = finish().unwrap();
        assert!(obs.spans.is_empty());
        assert_eq!(obs.counter("seen"), 2);
        // Span duration histograms need the span ring; none recorded.
        assert!(obs.hists.is_empty());
    }

    #[test]
    fn health_records_stream_and_snapshot() {
        init(1, &ObsConfig::new().with_health(true));
        assert!(health_enabled());
        for i in 0..256 {
            health_record("energy", ((i / 8) % 7) as f64);
            health_record("mag", 0.5);
        }
        let obs = finish().unwrap();
        assert_eq!(obs.health.len(), 2);
        let e = &obs.health[0];
        assert_eq!(e.name, "energy");
        assert_eq!(e.count, 256);
        assert!(e.tau_int > 1.0, "tau {}", e.tau_int);
        let m = &obs.health[1];
        assert_eq!(m.name, "mag");
        assert_eq!(m.error, 0.0);
    }

    #[test]
    fn health_off_records_nothing() {
        init(0, &ObsConfig::new());
        health_record("energy", 1.0);
        let obs = finish().unwrap();
        assert!(obs.health.is_empty());
    }
}
