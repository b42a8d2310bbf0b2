//! The job protocol: versioned, schema-tagged messages inside CRC'd
//! frames.
//!
//! Transport framing (magic, length, CRC) is [`qmc_comm::tcp`]; this
//! module is the payload layer, written with the one bounds-checked codec,
//! [`qmc_comm::wire`], that checkpoint files and the rank-record gather
//! use too. A health series travels in [`HealthSnapshot::encode`]'s layout.
//! Every payload starts with the schema string and a one-byte message
//! tag, so a peer speaking a different protocol revision is rejected
//! with a diagnosable error instead of a garbled decode.

use crate::job::{JobObservables, JobSpec};
use qmc_ckpt::CkptError;
use qmc_comm::wire::{Decoder, Encoder};
use qmc_obs::HealthSnapshot;

/// Protocol schema tag carried by every message.
pub const SCHEMA: &str = "qmc-serve/v1";
/// Protocol revision negotiated in `Hello`/`HelloAck`.
pub const PROTO_VERSION: u32 = 1;

/// Every message either side can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: open a session for `tenant`.
    Hello {
        /// Client's protocol revision.
        proto: u32,
        /// Tenant the session bills to.
        tenant: String,
    },
    /// Server → client: session accepted.
    HelloAck {
        /// Server's protocol revision.
        proto: u32,
    },
    /// Client → server: submit a job.
    Submit {
        /// The full job request.
        spec: JobSpec,
    },
    /// Server → client: job admitted with a server-assigned id.
    Accepted {
        /// Server-assigned job id.
        job: u64,
    },
    /// Server → client: job refused (quota, validation, draining…).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// Client → server: stream progress for `job`, starting after
    /// snapshot sequence number `after`.
    Await {
        /// Job id from `Accepted`.
        job: u64,
        /// Last snapshot sequence the client has seen (0 = none).
        after: u64,
    },
    /// Server → client: incremental progress for a running job.
    Snapshot {
        /// Job id.
        job: u64,
        /// Monotonic per-job snapshot sequence number.
        seq: u64,
        /// Sweeps completed so far.
        sweep: u64,
        /// Total sweeps budgeted (therm + measured).
        total: u64,
        /// Running mean energy (NaN until measurement starts).
        mean_energy: f64,
        /// Which attempt produced this snapshot (> 1 after a requeue).
        attempt: u32,
    },
    /// Server → client: final observables for a completed job.
    Result {
        /// Job id.
        job: u64,
        /// The observable series.
        obs: JobObservables,
        /// Attempts consumed (1 = never killed).
        attempts: u32,
    },
    /// Client → server: request the server/tenant counters.
    Stats {
        /// Tenant whose namespace to report ("" = all).
        tenant: String,
    },
    /// Server → client: counters and health series.
    StatsReply {
        /// `(name, value)` counters, sorted by name.
        counters: Vec<(String, u64)>,
        /// Per-tenant health snapshots.
        health: Vec<HealthSnapshot>,
    },
    /// Client → server: drain the server (checkpoint in-flight jobs and
    /// exit cleanly).
    Drain,
    /// Server → client: acknowledges a drain is underway.
    Draining,
    /// Server → client: protocol-level failure (with peer/tenant
    /// context).
    Error {
        /// What went wrong.
        detail: String,
    },
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::Hello { .. } => 1,
            Msg::HelloAck { .. } => 2,
            Msg::Submit { .. } => 3,
            Msg::Accepted { .. } => 4,
            Msg::Rejected { .. } => 5,
            Msg::Await { .. } => 6,
            Msg::Snapshot { .. } => 7,
            Msg::Result { .. } => 8,
            Msg::Stats { .. } => 9,
            Msg::StatsReply { .. } => 10,
            Msg::Drain => 11,
            Msg::Draining => 12,
            Msg::Error { .. } => 13,
        }
    }

    /// Serialize to a frame payload (schema, tag, body).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.str(SCHEMA);
        enc.u8(self.tag());
        match self {
            Msg::Hello { proto, tenant } => {
                enc.u32(*proto);
                enc.str(tenant);
            }
            Msg::HelloAck { proto } => enc.u32(*proto),
            Msg::Submit { spec } => spec.encode(&mut enc),
            Msg::Accepted { job } => enc.u64(*job),
            Msg::Rejected { reason } => enc.str(reason),
            Msg::Await { job, after } => {
                enc.u64(*job);
                enc.u64(*after);
            }
            Msg::Snapshot {
                job,
                seq,
                sweep,
                total,
                mean_energy,
                attempt,
            } => {
                enc.u64(*job);
                enc.u64(*seq);
                enc.u64(*sweep);
                enc.u64(*total);
                enc.f64(*mean_energy);
                enc.u32(*attempt);
            }
            Msg::Result { job, obs, attempts } => {
                enc.u64(*job);
                obs.encode(&mut enc);
                enc.u32(*attempts);
            }
            Msg::Stats { tenant } => enc.str(tenant),
            Msg::StatsReply { counters, health } => {
                enc.u32(counters.len() as u32);
                for (name, v) in counters {
                    enc.str(name);
                    enc.u64(*v);
                }
                enc.u32(health.len() as u32);
                for h in health {
                    h.encode(&mut enc);
                }
            }
            Msg::Drain | Msg::Draining => {}
            Msg::Error { detail } => enc.str(detail),
        }
        enc.into_bytes()
    }

    /// Parse a frame payload. Every failure is a structured
    /// [`CkptError`]; the caller (server/client) adds peer and tenant
    /// context before surfacing it.
    pub fn decode(payload: &[u8]) -> Result<Msg, CkptError> {
        let mut dec = Decoder::new(payload);
        let schema = dec.str()?;
        if schema != SCHEMA {
            return Err(CkptError::BadSchema { found: schema });
        }
        let tag = dec.u8()?;
        let msg = match tag {
            1 => Msg::Hello {
                proto: dec.u32()?,
                tenant: dec.str()?,
            },
            2 => Msg::HelloAck { proto: dec.u32()? },
            3 => Msg::Submit {
                spec: JobSpec::decode(&mut dec)?,
            },
            4 => Msg::Accepted { job: dec.u64()? },
            5 => Msg::Rejected { reason: dec.str()? },
            6 => Msg::Await {
                job: dec.u64()?,
                after: dec.u64()?,
            },
            7 => Msg::Snapshot {
                job: dec.u64()?,
                seq: dec.u64()?,
                sweep: dec.u64()?,
                total: dec.u64()?,
                mean_energy: dec.f64()?,
                attempt: dec.u32()?,
            },
            8 => Msg::Result {
                job: dec.u64()?,
                obs: JobObservables::decode(&mut dec)?,
                attempts: dec.u32()?,
            },
            9 => Msg::Stats { tenant: dec.str()? },
            10 => {
                let nc = dec.count_u32(16)?;
                if nc > 65_536 {
                    return Err(CkptError::corrupt("implausible counter count"));
                }
                let counters = (0..nc)
                    .map(|_| Ok((dec.str()?, dec.u64()?)))
                    .collect::<Result<_, CkptError>>()?;
                let nh = dec.count_u32(HealthSnapshot::MIN_WIRE_BYTES)?;
                if nh > 65_536 {
                    return Err(CkptError::corrupt("implausible health count"));
                }
                let health = (0..nh)
                    .map(|_| HealthSnapshot::decode(&mut dec))
                    .collect::<Result<_, _>>()?;
                Msg::StatsReply { counters, health }
            }
            11 => Msg::Drain,
            12 => Msg::Draining,
            13 => Msg::Error { detail: dec.str()? },
            t => {
                return Err(CkptError::corrupt(format!(
                    "unknown qmc-serve message tag {t}"
                )))
            }
        };
        dec.expect_empty()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn samples() -> Vec<Msg> {
        let spec = JobSpec {
            tenant: "alice".into(),
            name: "job-1".into(),
            kind: JobKind::Tfim {
                lx: 4,
                ly: 1,
                j: 1.0,
                h: 2.0,
                m: 4,
                wolff: 1,
            },
            betas: vec![1.0],
            therm: 4,
            sweeps: 16,
            seed: 7,
            priority: 3,
            ckpt_every: 5,
        };
        vec![
            Msg::Hello {
                proto: PROTO_VERSION,
                tenant: "alice".into(),
            },
            Msg::HelloAck {
                proto: PROTO_VERSION,
            },
            Msg::Submit { spec },
            Msg::Accepted { job: 42 },
            Msg::Rejected {
                reason: "tenant quota exceeded".into(),
            },
            Msg::Await { job: 42, after: 3 },
            Msg::Snapshot {
                job: 42,
                seq: 4,
                sweep: 10,
                total: 20,
                mean_energy: -1.25,
                attempt: 2,
            },
            Msg::Result {
                job: 42,
                obs: JobObservables {
                    energy: vec![vec![-1.0, -1.5]],
                    extra: vec![vec![0.5, 0.25]],
                },
                attempts: 2,
            },
            Msg::Stats {
                tenant: "alice".into(),
            },
            Msg::StatsReply {
                counters: vec![
                    ("serve.jobs_completed".into(), 7),
                    ("tenant.alice.accepted".into(), 41),
                ],
                health: vec![HealthSnapshot {
                    name: "tenant.alice.energy".into(),
                    count: 100,
                    mean: -1.2,
                    std_dev: 0.1,
                    error: 0.01,
                    tau_int: 1.5,
                    drift_z: 0.3,
                }],
            },
            Msg::Drain,
            Msg::Draining,
            Msg::Error {
                detail: "peer 127.0.0.1:9 tenant alice: frame CRC mismatch".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            let back = Msg::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    /// `qmc-serve/v1` byte for byte: the length and CRC-32 of every
    /// sample message, in `samples()` order. A mismatch is a protocol
    /// change a deployed peer would not understand.
    #[test]
    fn every_message_layout_is_pinned() {
        let lens = [38, 25, 133, 29, 50, 37, 65, 89, 34, 177, 21, 21, 78];
        let crcs = [
            0xEF24D8D2, 0x9A2B9E86, 0xC16F16FE, 0xAF5723B8, 0x9776E8C8, 0x272B9656, 0x3076DE85,
            0x8DC23665, 0xD62689CA, 0x45B9A235, 0x8BDC8B64, 0x15B81EC7, 0x07395E46,
        ];
        let pins: Vec<(usize, u32)> = lens.into_iter().zip(crcs).collect();
        let got: Vec<(usize, u32)> = samples()
            .iter()
            .map(|m| (m.encode().len(), qmc_comm::crc::crc32(&m.encode())))
            .collect();
        assert_eq!(got, pins);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut enc = Encoder::new();
        enc.str("qmc-serve/v9");
        enc.u8(1);
        let err = Msg::decode(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, CkptError::BadSchema { .. }), "{err}");
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut enc = Encoder::new();
        enc.str(SCHEMA);
        enc.u8(200);
        assert!(Msg::decode(&enc.into_bytes()).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Msg::Drain.encode();
        bytes.push(0);
        assert!(Msg::decode(&bytes).is_err());
    }

    /// The torn-file idiom from qmc-ckpt, applied to every message: any
    /// truncation point decodes to an error, never a panic or a wrong
    /// message.
    #[test]
    fn truncation_at_every_cut_never_panics() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let res = Msg::decode(&bytes[..cut]);
                assert!(res.is_err(), "{msg:?} truncated at {cut} decoded");
            }
        }
    }

    /// Bit-flip sweep: flipped payloads either fail to decode or decode
    /// to a *different, well-formed* message — never panic. (The CRC at
    /// the frame layer catches flips in transit; this guards the decode
    /// path itself against crafted payloads.)
    #[test]
    fn bit_flips_never_panic() {
        for msg in samples() {
            let bytes = msg.encode();
            for byte in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[byte] ^= 1 << bit;
                    let _ = Msg::decode(&bad); // must not panic
                }
            }
        }
    }
}
