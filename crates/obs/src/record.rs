//! Per-rank observability results and their merge across ranks.
//!
//! [`finish`](crate::finish) produces one [`RankObs`] per rank; under the
//! thread or model back-ends those live on different threads, so
//! [`gather_ranks`] ships them to rank 0 over the same [`Communicator`]
//! the physics ran on (a byte gather — observability reuses the machine
//! rather than smuggling data through host shared memory), encoded with
//! the one codec, [`qmc_comm::wire`]; the job server's stats reply
//! carries [`HealthSnapshot::encode`]'s layout too.

use qmc_comm::wire::{Decoder, Encoder, WireError};
pub use qmc_comm::CommDir;
use qmc_comm::{CommStats, Communicator};

use crate::health::HealthMonitor;
use crate::metrics::Registry;

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

/// One traced point-to-point message event (recorded by [`crate::Tracer`]).
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

    /// Bytes of the smallest encoded snapshot (an empty name).
    pub const MIN_WIRE_BYTES: u64 = 56;

    /// Append the snapshot: name, count, then the five statistics.
    pub fn encode(&self, e: &mut Encoder) {
        e.str(&self.name);
        e.u64(self.count);
        e.f64(self.mean);
        e.f64(self.std_dev);
        e.f64(self.error);
        e.f64(self.tau_int);
        e.f64(self.drift_z);
    }

    /// Inverse of [`HealthSnapshot::encode`].
    pub fn decode(d: &mut Decoder) -> Result<Self, WireError> {
        Ok(Self {
            name: d.str()?,
            count: d.u64()?,
            mean: d.f64()?,
            std_dev: d.f64()?,
            error: d.f64()?,
            tau_int: d.f64()?,
            drift_z: d.f64()?,
        })
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
    pub comm: Option<CommStats>,
}

impl RankObs {
    /// Sum-merge a registry's counters and histograms into this record
    /// (used to fold an engine-owned registry into the rank's results).
    pub fn absorb_registry(&mut self, reg: &Registry) {
        self.absorb_registry_prefixed(reg, "");
    }

    /// [`RankObs::absorb_registry`] with every counter and histogram name
    /// prefixed (e.g. `tenant.alice.`). This is how the job server keeps
    /// per-tenant metrics in one record without cross-tenant collisions:
    /// each tenant's engine registry folds in under its own namespace.
    pub fn absorb_registry_prefixed(&mut self, reg: &Registry, prefix: &str) {
        for &(name, v) in reg.counters() {
            self.counter_add(&format!("{prefix}{name}"), v);
        }
        for (name, h) in reg.hists() {
            let snap = HistSnapshot {
                name: format!("{prefix}{name}"),
                count: h.count,
                sum: h.sum,
                min: h.min_or_zero(),
                max: h.max,
                buckets: h.nonzero().collect(),
            };
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
        let mut e = Encoder::new();
        e.u64(self.rank);
        e.u64(self.dropped_spans);
        e.u64(self.spans.len() as u64);
        for s in &self.spans {
            e.str(&s.name);
            e.u64(s.id);
            e.f64(s.t0_us);
            e.f64(s.t1_us);
            e.u64(s.depth.into());
        }
        e.u64(self.dropped_comm_events);
        e.u64(self.comm_events.len() as u64);
        for c in &self.comm_events {
            e.u8(match c.dir {
                CommDir::Send => 0,
                CommDir::Recv => 1,
            });
            for v in [c.peer, c.tag.into(), c.seq, c.bytes] {
                e.u64(v);
            }
            e.f64(c.t0_us);
            e.f64(c.t1_us);
            e.u64(c.span_id);
        }
        e.u64(self.counters.len() as u64);
        for (n, v) in &self.counters {
            e.str(n);
            e.u64(*v);
        }
        e.u64(self.hists.len() as u64);
        for h in &self.hists {
            e.str(&h.name);
            for v in [h.count, h.sum, h.min, h.max, h.buckets.len() as u64] {
                e.u64(v);
            }
            for &(lo, c) in &h.buckets {
                e.u64(lo);
                e.u64(c);
            }
        }
        e.u64(self.health.len() as u64);
        for h in &self.health {
            h.encode(&mut e);
        }
        match self.comm {
            None => e.u8(0),
            Some(c) => {
                e.u8(1);
                for v in [c.messages_sent, c.bytes_sent, c.messages_recv, c.bytes_recv] {
                    e.u64(v);
                }
                e.u64(c.max_message_bytes);
                for v in [c.comm_seconds, c.compute_seconds, c.recv_wait_seconds] {
                    e.f64(v);
                }
            }
        }
        e.into_bytes()
    }

    /// Inverse of [`Self::to_bytes`]. Every count is checked against the
    /// bytes left before anything is reserved, and a value too wide for
    /// its field is [`WireError::Corrupt`], never truncated.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(bytes);
        let obs = Self {
            rank: d.u64()?,
            dropped_spans: d.u64()?,
            spans: list(&mut d, 40, |d| {
                Ok(OwnedSpan {
                    name: d.str()?,
                    id: d.u64()?,
                    t0_us: d.f64()?,
                    t1_us: d.f64()?,
                    depth: narrow(d.u64()?, "span depth")?,
                })
            })?,
            dropped_comm_events: d.u64()?,
            comm_events: list(&mut d, 57, |d| {
                let dir = match d.u8()? {
                    0 => CommDir::Send,
                    1 => CommDir::Recv,
                    t => return Err(WireError::corrupt(format!("bad comm event dir {t}"))),
                };
                Ok(CommEvent {
                    dir,
                    peer: d.u64()?,
                    tag: narrow(d.u64()?, "comm event tag")?,
                    seq: d.u64()?,
                    bytes: d.u64()?,
                    t0_us: d.f64()?,
                    t1_us: d.f64()?,
                    span_id: d.u64()?,
                })
            })?,
            counters: list(&mut d, 16, |d| Ok((d.str()?, d.u64()?)))?,
            hists: list(&mut d, 48, |d| {
                Ok(HistSnapshot {
                    name: d.str()?,
                    count: d.u64()?,
                    sum: d.u64()?,
                    min: d.u64()?,
                    max: d.u64()?,
                    buckets: list(d, 16, |d| Ok((d.u64()?, d.u64()?)))?,
                })
            })?,
            health: list(
                &mut d,
                HealthSnapshot::MIN_WIRE_BYTES,
                HealthSnapshot::decode,
            )?,
            comm: match d.u8()? {
                0 => None,
                1 => Some(CommStats {
                    messages_sent: d.u64()?,
                    bytes_sent: d.u64()?,
                    messages_recv: d.u64()?,
                    bytes_recv: d.u64()?,
                    max_message_bytes: d.u64()?,
                    comm_seconds: d.f64()?,
                    compute_seconds: d.f64()?,
                    recv_wait_seconds: d.f64()?,
                }),
                t => return Err(WireError::corrupt(format!("bad comm tag {t}"))),
            },
        };
        d.expect_empty()?;
        Ok(obs)
    }
}

/// A `u64`-counted list of items, each at least `min_item_bytes` long.
fn list<'a, T>(
    d: &mut Decoder<'a>,
    min_item_bytes: u64,
    mut item: impl FnMut(&mut Decoder<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = d.count(min_item_bytes)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(d)?);
    }
    Ok(out)
}

/// `v` as a narrower field, or [`WireError::Corrupt`] when it does not fit.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, WireError> {
    T::try_from(v).map_err(|_| WireError::corrupt(format!("{what} {v} out of range")))
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
        obs.comm = Some(CommStats {
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

    /// The gather's byte layout: a changed length or CRC-32 of the sample
    /// record is a moved byte, which every rank of a mixed-build world
    /// would decode differently.
    #[test]
    fn sample_bytes_are_pinned() {
        let bytes = sample().to_bytes();
        assert_eq!(
            (bytes.len(), qmc_comm::crc::crc32(&bytes)),
            (486, 0x9B662F0F)
        );
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
        let mut hostile = Encoder::new();
        for v in [0u64, 0, 1, u64::MAX] {
            hostile.u64(v);
        }
        assert!(RankObs::from_bytes(&hostile.into_bytes()).is_err());
    }

    /// A tag or depth wider than its field is refused, not wrapped: a
    /// tag of `1 << 32` would otherwise decode as tag 0.
    #[test]
    fn from_bytes_refuses_a_value_too_wide_for_its_field() {
        let obs = sample();
        let bytes = obs.to_bytes();
        // `bytes` with the u64 at `at` replaced by `v`: the first span's
        // depth sits at byte 61, the first event's tag at byte 94.
        let patched = |at: usize, v: u64| {
            let mut e = Encoder::appending_to(bytes[..at].to_vec());
            e.u64(v);
            e.raw(&bytes[at + 8..]);
            RankObs::from_bytes(&e.into_bytes())
        };
        assert_eq!(patched(61, 0), Ok(obs.clone()));
        assert_eq!(patched(94, 7), Ok(obs));
        assert_eq!(
            patched(61, u16::MAX.into()).unwrap().spans[0].depth,
            u16::MAX
        );
        assert_eq!(
            patched(94, u32::MAX.into()).unwrap().comm_events[0].tag,
            u32::MAX
        );
        assert!(matches!(
            patched(61, 1 << 16),
            Err(WireError::Corrupt { .. })
        ));
        assert!(matches!(
            patched(94, 1 << 32),
            Err(WireError::Corrupt { .. })
        ));
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
