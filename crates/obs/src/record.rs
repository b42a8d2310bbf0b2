//! Per-rank observability results and their merge across ranks.
//!
//! [`finish`](crate::finish) produces one [`RankObs`] per rank; under the
//! thread or model back-ends those live on different threads, so
//! [`gather_ranks`] ships them to rank 0 over the same [`Communicator`]
//! the physics ran on (a byte gather — observability reuses the machine
//! rather than smuggling data through host shared memory).

use qmc_comm::{CommStats, Communicator};

use crate::health::HealthMonitor;
use crate::metrics::{Hist, Registry};

/// A completed span, owned (names copied out of the ring's `&'static str`).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSpan {
    /// Span name (the string passed to [`crate::span`]).
    pub name: String,
    /// Per-rank span id (assigned in open order from 1; 0 only in
    /// records predating span ids).
    pub id: u64,
    /// Start, microseconds since the run's shared epoch.
    pub t0_us: f64,
    /// End, microseconds since the run's shared epoch.
    pub t1_us: f64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u16,
}

/// Direction of a traced point-to-point message, from the recording
/// rank's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommDir {
    /// The recording rank sent the message.
    Send,
    /// The recording rank received the message.
    Recv,
}

/// One traced point-to-point message event (recorded by `TracingComm`).
///
/// `seq` counts messages per directed `(self, peer, tag)` channel on the
/// send side and per `(peer, self, tag)` channel on the receive side, so
/// a send and the receive it caused carry the same `(src, dst, tag, seq)`
/// key — that key is how the cross-rank merger pairs them into
/// happens-before edges without any global clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommEvent {
    /// Send or receive.
    pub dir: CommDir,
    /// The other rank.
    pub peer: u64,
    /// Message tag.
    pub tag: u32,
    /// Per-channel message sequence number (from 0).
    pub seq: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Call start, microseconds since the shared epoch.
    pub t0_us: f64,
    /// Call end, microseconds since the shared epoch.
    pub t1_us: f64,
    /// Id of the innermost span open at call time (0 = none).
    pub span_id: u64,
}

/// Exported state of one observable's online [`HealthMonitor`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Observable name (the string passed to [`crate::health_record`]).
    pub name: String,
    /// Samples streamed so far.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Autocorrelation-aware error of the mean (binning plateau).
    pub error: f64,
    /// Integrated autocorrelation time.
    pub tau_int: f64,
    /// Equilibration drift z-score (≥ 3 flags a transient).
    pub drift_z: f64,
}

impl HealthSnapshot {
    /// Snapshot a monitor's current state.
    pub fn of(name: &str, hm: &HealthMonitor) -> Self {
        let b = hm.binning();
        Self {
            name: name.to_string(),
            count: b.count(),
            mean: b.mean(),
            std_dev: b.std_dev(),
            error: b.error(),
            tau_int: b.tau_int(),
            drift_z: hm.drift_z(),
        }
    }
}

/// A histogram flattened for transport/export: only non-empty buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(inclusive bucket lower bound, sample count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    fn from_hist(name: &str, h: &Hist) -> Self {
        Self {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: h.min_or_zero(),
            max: h.max,
            buckets: h.nonzero().collect(),
        }
    }

    fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for &(lo, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&lo, |&(l, _)| l) {
                Ok(i) => self.buckets[i].1 += c,
                Err(i) => self.buckets.insert(i, (lo, c)),
            }
        }
    }
}

/// Communication totals embedded in the metrics artifact — a plain-data
/// mirror of [`CommStats`] that serializes with the rest of [`RankObs`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommSummary {
    /// Point-to-point messages sent.
    pub messages_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub messages_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Largest single payload moved in either direction.
    pub max_message_bytes: u64,
    /// Seconds attributed to communication.
    pub comm_seconds: f64,
    /// Seconds attributed to compute charges.
    pub compute_seconds: f64,
    /// Seconds spent blocked in receives (subset of `comm_seconds`).
    pub recv_wait_seconds: f64,
}

impl From<CommStats> for CommSummary {
    fn from(s: CommStats) -> Self {
        Self {
            messages_sent: s.messages_sent,
            bytes_sent: s.bytes_sent,
            messages_recv: s.messages_recv,
            bytes_recv: s.bytes_recv,
            max_message_bytes: s.max_message_bytes,
            comm_seconds: s.comm_seconds,
            compute_seconds: s.compute_seconds,
            recv_wait_seconds: s.recv_wait_seconds,
        }
    }
}

/// Everything one rank recorded: spans, counters, histograms, comm totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankObs {
    /// Rank that produced this record.
    pub rank: u64,
    /// Spans lost to ring overflow (capacity exceeded).
    pub dropped_spans: u64,
    /// Completed spans, chronological (oldest first).
    pub spans: Vec<OwnedSpan>,
    /// Traced comm events lost to ring overflow.
    pub dropped_comm_events: u64,
    /// Traced comm events, chronological (oldest first).
    pub comm_events: Vec<CommEvent>,
    /// `(name, value)` monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots.
    pub hists: Vec<HistSnapshot>,
    /// Online convergence health, one snapshot per observable.
    pub health: Vec<HealthSnapshot>,
    /// Communication totals, when the run attached them.
    pub comm: Option<CommSummary>,
}

impl RankObs {
    /// Sum-merge a registry's counters and histograms into this record
    /// (used to fold an engine-owned registry into the rank's results).
    pub fn absorb_registry(&mut self, reg: &Registry) {
        for &(name, v) in reg.counters() {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, cur)) => *cur += v,
                None => self.counters.push((name.to_string(), v)),
            }
        }
        for (name, h) in reg.hists() {
            let snap = HistSnapshot::from_hist(name, h);
            match self.hists.iter_mut().find(|s| s.name == *name) {
                Some(cur) => cur.merge(&snap),
                None => self.hists.push(snap),
            }
        }
    }

    /// [`RankObs::absorb_registry`] with every counter and histogram name
    /// prefixed (e.g. `tenant.alice.`). This is how the job server keeps
    /// per-tenant metrics in one record without cross-tenant collisions:
    /// each tenant's engine registry folds in under its own namespace.
    pub fn absorb_registry_prefixed(&mut self, reg: &Registry, prefix: &str) {
        for &(name, v) in reg.counters() {
            let full = format!("{prefix}{name}");
            match self.counters.iter_mut().find(|(n, _)| *n == full) {
                Some((_, cur)) => *cur += v,
                None => self.counters.push((full, v)),
            }
        }
        for (name, h) in reg.hists() {
            let mut snap = HistSnapshot::from_hist(name, h);
            snap.name = format!("{prefix}{name}");
            match self.hists.iter_mut().find(|s| s.name == snap.name) {
                Some(cur) => cur.merge(&snap),
                None => self.hists.push(snap),
            }
        }
    }

    /// Bump a named counter directly (String-keyed, unlike the
    /// `&'static str` engine [`Registry`]) — used for server-side
    /// counters like `serve.jobs_completed` whose names are dynamic.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, cur)) => *cur += v,
            None => self.counters.push((name.to_string(), v)),
        }
    }

    /// Attach communication totals from the rank's communicator.
    pub fn set_comm(&mut self, stats: CommStats) {
        self.comm = Some(stats.into());
    }

    /// Value of a named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Serialize for transport over a [`Communicator`] gather.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u64(&mut b, self.rank);
        put_u64(&mut b, self.dropped_spans);
        put_u64(&mut b, self.spans.len() as u64);
        for s in &self.spans {
            put_str(&mut b, &s.name);
            put_u64(&mut b, s.id);
            put_f64(&mut b, s.t0_us);
            put_f64(&mut b, s.t1_us);
            put_u64(&mut b, s.depth as u64);
        }
        put_u64(&mut b, self.dropped_comm_events);
        put_u64(&mut b, self.comm_events.len() as u64);
        for e in &self.comm_events {
            b.push(match e.dir {
                CommDir::Send => 0,
                CommDir::Recv => 1,
            });
            put_u64(&mut b, e.peer);
            put_u64(&mut b, e.tag as u64);
            put_u64(&mut b, e.seq);
            put_u64(&mut b, e.bytes);
            put_f64(&mut b, e.t0_us);
            put_f64(&mut b, e.t1_us);
            put_u64(&mut b, e.span_id);
        }
        put_u64(&mut b, self.counters.len() as u64);
        for (n, v) in &self.counters {
            put_str(&mut b, n);
            put_u64(&mut b, *v);
        }
        put_u64(&mut b, self.hists.len() as u64);
        for h in &self.hists {
            put_str(&mut b, &h.name);
            put_u64(&mut b, h.count);
            put_u64(&mut b, h.sum);
            put_u64(&mut b, h.min);
            put_u64(&mut b, h.max);
            put_u64(&mut b, h.buckets.len() as u64);
            for &(lo, c) in &h.buckets {
                put_u64(&mut b, lo);
                put_u64(&mut b, c);
            }
        }
        put_u64(&mut b, self.health.len() as u64);
        for h in &self.health {
            put_str(&mut b, &h.name);
            put_u64(&mut b, h.count);
            put_f64(&mut b, h.mean);
            put_f64(&mut b, h.std_dev);
            put_f64(&mut b, h.error);
            put_f64(&mut b, h.tau_int);
            put_f64(&mut b, h.drift_z);
        }
        match self.comm {
            None => b.push(0),
            Some(c) => {
                b.push(1);
                put_u64(&mut b, c.messages_sent);
                put_u64(&mut b, c.bytes_sent);
                put_u64(&mut b, c.messages_recv);
                put_u64(&mut b, c.bytes_recv);
                put_u64(&mut b, c.max_message_bytes);
                put_f64(&mut b, c.comm_seconds);
                put_f64(&mut b, c.compute_seconds);
                put_f64(&mut b, c.recv_wait_seconds);
            }
        }
        b
    }

    /// Inverse of [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut c = Cursor { b: bytes, pos: 0 };
        let rank = c.u64()?;
        let dropped_spans = c.u64()?;
        let nspans = c.u64()? as usize;
        let mut spans = Vec::with_capacity(nspans.min(1 << 20));
        for _ in 0..nspans {
            spans.push(OwnedSpan {
                name: c.str()?,
                id: c.u64()?,
                t0_us: c.f64()?,
                t1_us: c.f64()?,
                depth: c.u64()? as u16,
            });
        }
        let dropped_comm_events = c.u64()?;
        let nev = c.u64()? as usize;
        let mut comm_events = Vec::with_capacity(nev.min(1 << 20));
        for _ in 0..nev {
            let dir = match c.u8()? {
                0 => CommDir::Send,
                1 => CommDir::Recv,
                t => return Err(format!("bad comm event dir {t}")),
            };
            comm_events.push(CommEvent {
                dir,
                peer: c.u64()?,
                tag: c.u64()? as u32,
                seq: c.u64()?,
                bytes: c.u64()?,
                t0_us: c.f64()?,
                t1_us: c.f64()?,
                span_id: c.u64()?,
            });
        }
        let nctr = c.u64()? as usize;
        let mut counters = Vec::with_capacity(nctr.min(1 << 20));
        for _ in 0..nctr {
            counters.push((c.str()?, c.u64()?));
        }
        let nhist = c.u64()? as usize;
        let mut hists = Vec::with_capacity(nhist.min(1 << 20));
        for _ in 0..nhist {
            let name = c.str()?;
            let count = c.u64()?;
            let sum = c.u64()?;
            let min = c.u64()?;
            let max = c.u64()?;
            let nb = c.u64()? as usize;
            let mut buckets = Vec::with_capacity(nb.min(1 << 20));
            for _ in 0..nb {
                buckets.push((c.u64()?, c.u64()?));
            }
            hists.push(HistSnapshot {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            });
        }
        let nhealth = c.u64()? as usize;
        let mut health = Vec::with_capacity(nhealth.min(1 << 20));
        for _ in 0..nhealth {
            health.push(HealthSnapshot {
                name: c.str()?,
                count: c.u64()?,
                mean: c.f64()?,
                std_dev: c.f64()?,
                error: c.f64()?,
                tau_int: c.f64()?,
                drift_z: c.f64()?,
            });
        }
        let comm = match c.u8()? {
            0 => None,
            1 => Some(CommSummary {
                messages_sent: c.u64()?,
                bytes_sent: c.u64()?,
                messages_recv: c.u64()?,
                bytes_recv: c.u64()?,
                max_message_bytes: c.u64()?,
                comm_seconds: c.f64()?,
                compute_seconds: c.f64()?,
                recv_wait_seconds: c.f64()?,
            }),
            t => return Err(format!("bad comm tag {t}")),
        };
        if c.pos != bytes.len() {
            return Err(format!(
                "trailing bytes: consumed {} of {}",
                c.pos,
                bytes.len()
            ));
        }
        Ok(Self {
            rank,
            dropped_spans,
            spans,
            dropped_comm_events,
            comm_events,
            counters,
            hists,
            health,
            comm,
        })
    }
}

/// Gather every rank's record at rank 0 (rank order). Returns `Some` on
/// rank 0, `None` elsewhere — same convention as
/// [`Communicator::gather_bytes`].
pub fn gather_ranks<C: Communicator>(comm: &mut C, mine: &RankObs) -> Option<Vec<RankObs>> {
    let payloads = comm.gather_bytes(0, &mine.to_bytes())?;
    Some(
        payloads
            .iter()
            .map(|b| RankObs::from_bytes(b).expect("malformed RankObs payload in gather"))
            .collect(),
    )
}

// ---------------------------------------------------------------------
// Little-endian wire helpers.
// ---------------------------------------------------------------------

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(b: &mut Vec<u8>, v: f64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u64(b, s.len() as u64);
    b.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        // `n` comes from an untrusted length prefix: compare against what
        // is left, never add to `pos`.
        if n > self.b.len() - self.pos {
            return Err(format!("truncated at byte {} (need {n} more)", self.pos));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take returned 8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("take returned 8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u64()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankObs {
        let mut reg = Registry::new();
        reg.add_named("accepted", 41);
        reg.add_named("proposed", 100);
        reg.record_named("sweep_ns", 1500);
        reg.record_named("sweep_ns", 900);
        let mut obs = RankObs {
            rank: 2,
            dropped_spans: 1,
            spans: vec![OwnedSpan {
                name: "sweep".into(),
                id: 17,
                t0_us: 1.5,
                t1_us: 9.25,
                depth: 0,
            }],
            dropped_comm_events: 3,
            comm_events: vec![
                CommEvent {
                    dir: CommDir::Send,
                    peer: 1,
                    tag: 7,
                    seq: 0,
                    bytes: 128,
                    t0_us: 2.0,
                    t1_us: 2.5,
                    span_id: 17,
                },
                CommEvent {
                    dir: CommDir::Recv,
                    peer: 1,
                    tag: 7,
                    seq: 0,
                    bytes: 128,
                    t0_us: 3.0,
                    t1_us: 4.5,
                    span_id: 17,
                },
            ],
            health: vec![HealthSnapshot {
                name: "energy".into(),
                count: 400,
                mean: -1.25,
                std_dev: 0.5,
                error: 0.05,
                tau_int: 2.0,
                drift_z: 0.4,
            }],
            ..Default::default()
        };
        obs.absorb_registry(&reg);
        obs.set_comm(CommStats {
            messages_sent: 7,
            bytes_sent: 1024,
            comm_seconds: 0.25,
            ..Default::default()
        });
        obs
    }

    #[test]
    fn wire_round_trip_is_lossless() {
        let obs = sample();
        let back = RankObs::from_bytes(&obs.to_bytes()).unwrap();
        assert_eq!(back, obs);
    }

    #[test]
    fn from_bytes_rejects_truncation_and_trailing() {
        let bytes = sample().to_bytes();
        assert!(RankObs::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RankObs::from_bytes(&extra).is_err());
        // A hostile length prefix (first span name, u64::MAX bytes) is an
        // error, not an overflowed bounds check.
        let mut hostile = Vec::new();
        for v in [0u64, 0, 1, u64::MAX] {
            put_u64(&mut hostile, v);
        }
        assert!(RankObs::from_bytes(&hostile).is_err());
    }

    #[test]
    fn absorb_merges_counters_and_hists() {
        let mut obs = sample();
        let mut reg = Registry::new();
        reg.add_named("accepted", 9);
        reg.record_named("sweep_ns", 3);
        obs.absorb_registry(&reg);
        assert_eq!(obs.counter("accepted"), 50);
        let h = obs.hists.iter().find(|h| h.name == "sweep_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 1500);
        // Buckets stay sorted after the merge inserts a new low bucket.
        assert!(h.buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn absorb_prefixed_namespaces_counters_and_hists() {
        let mut obs = RankObs::default();
        let mut alice = Registry::new();
        alice.add_named("accepted", 7);
        alice.record_named("sweep_ns", 100);
        let mut bob = Registry::new();
        bob.add_named("accepted", 3);
        bob.record_named("sweep_ns", 900);

        obs.absorb_registry_prefixed(&alice, "tenant.alice.");
        obs.absorb_registry_prefixed(&bob, "tenant.bob.");

        // Same engine counter name, two tenants: no cross-talk.
        assert_eq!(obs.counter("tenant.alice.accepted"), 7);
        assert_eq!(obs.counter("tenant.bob.accepted"), 3);
        assert_eq!(obs.counter("accepted"), 0);
        let a = obs
            .hists
            .iter()
            .find(|h| h.name == "tenant.alice.sweep_ns")
            .unwrap();
        assert_eq!((a.count, a.max), (1, 100));
        let b = obs
            .hists
            .iter()
            .find(|h| h.name == "tenant.bob.sweep_ns")
            .unwrap();
        assert_eq!((b.count, b.max), (1, 900));

        // Re-absorbing the same tenant sums into the same namespace.
        obs.absorb_registry_prefixed(&alice, "tenant.alice.");
        assert_eq!(obs.counter("tenant.alice.accepted"), 14);
        assert_eq!(obs.counter("tenant.bob.accepted"), 3);
    }

    #[test]
    fn counter_add_accumulates_dynamic_names() {
        let mut obs = RankObs::default();
        obs.counter_add("serve.jobs_completed", 2);
        obs.counter_add("serve.jobs_completed", 3);
        obs.counter_add("serve.requeues", 1);
        assert_eq!(obs.counter("serve.jobs_completed"), 5);
        assert_eq!(obs.counter("serve.requeues"), 1);
    }

    #[test]
    fn gather_collects_rank_order() {
        let results = qmc_comm::run_threads(3, |comm| {
            let mine = RankObs {
                rank: comm.rank() as u64,
                counters: vec![("x".to_string(), comm.rank() as u64 + 1)],
                ..Default::default()
            };
            gather_ranks(comm, &mine)
        });
        let gathered = results[0].as_ref().unwrap();
        assert_eq!(gathered.len(), 3);
        for (r, obs) in gathered.iter().enumerate() {
            assert_eq!(obs.rank, r as u64);
            assert_eq!(obs.counter("x"), r as u64 + 1);
        }
        assert!(results[1].is_none() && results[2].is_none());
    }
}
