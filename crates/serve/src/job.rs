//! Job specifications and observables: what a tenant submits and what
//! the server streams back.

use qmc_ckpt::CkptError;
use qmc_comm::wire::{Decoder, Encoder};
use qmc_core::pt::WorldlineParams;
use qmc_tfim::TfimModel;

/// What kind of simulation a job runs, with its engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Single-temperature transverse-field Ising on a 2-D lattice,
    /// driven by the serial Metropolis+Wolff engine (one β).
    Tfim {
        /// Lattice extent in x (≥ 4, engine constraint).
        lx: usize,
        /// Lattice extent in y.
        ly: usize,
        /// Ising coupling (finite, > 0).
        j: f64,
        /// Transverse field (finite, > 0).
        h: f64,
        /// Trotter slices.
        m: usize,
        /// Wolff cluster updates per sweep.
        wolff: usize,
    },
    /// Parallel-tempering XXZ world-line ladder: one ThreadWorld rank
    /// per β in the schedule (≥ 2 temperatures).
    PtXxz {
        /// Chain length (even, ≥ 4, engine constraint).
        l: usize,
        /// XY coupling (finite).
        jx: f64,
        /// Z coupling (finite).
        jz: f64,
        /// Trotter slices (≥ 2).
        m: usize,
        /// Replica-exchange cadence in sweeps.
        exchange_every: usize,
    },
}

impl JobKind {
    fn tag(&self) -> u8 {
        match self {
            JobKind::Tfim { .. } => 1,
            JobKind::PtXxz { .. } => 2,
        }
    }

    /// How many worker ranks this kind needs for the given β schedule.
    pub fn ranks(&self, betas: &[f64]) -> usize {
        match self {
            JobKind::Tfim { .. } => 1,
            JobKind::PtXxz { .. } => betas.len(),
        }
    }
}

/// A complete job request: tenant, engine, β schedule, sweep budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Tenant this job bills to; quotas and metrics namespace by it.
    pub tenant: String,
    /// Job name, unique per tenant (also the checkpoint namespace).
    pub name: String,
    /// Engine and parameters.
    pub kind: JobKind,
    /// Inverse-temperature schedule (one β for serial kinds, the full
    /// ladder for parallel tempering).
    pub betas: Vec<f64>,
    /// Thermalization sweeps (unmeasured).
    pub therm: u32,
    /// Measured sweeps.
    pub sweeps: u32,
    /// RNG seed.
    pub seed: u64,
    /// Scheduling priority: higher runs first among queued jobs.
    pub priority: u8,
    /// Checkpoint cadence in sweeps (0 = server default).
    pub ckpt_every: u32,
}

/// Largest admissible β ladder: one ThreadWorld rank (an OS thread) per
/// β for parallel tempering, so this bounds the threads one quota slot
/// can demand. The 1 MiB frame cap alone would still admit ~130k betas.
pub const MAX_BETAS: usize = 64;
/// Largest admissible lattice extent per dimension (serial TFIM) —
/// bounds per-job memory at admission, not just frame size.
pub const MAX_EXTENT: usize = 256;
/// Largest admissible PT chain length.
pub const MAX_CHAIN: usize = 4096;
/// Largest admissible Trotter slice count.
pub const MAX_SLICES: usize = 1024;
/// Largest admissible Wolff-updates-per-sweep multiplier.
pub const MAX_WOLFF: usize = 1024;

impl JobSpec {
    /// Validate the spec against engine constraints *and* per-job
    /// resource caps (a single quota-compliant submission must not be
    /// able to exhaust server threads or memory); returns a
    /// human-readable reason on rejection.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() || self.tenant.len() > 64 {
            return Err("tenant name must be 1..=64 bytes".into());
        }
        // The metrics namespace is `tenant.<name>.` and the checkpoint
        // namespace `<tenant>/<job>`: a separator inside the tenant name
        // would let tenant `a` read `a.b`'s counters through its Stats
        // prefix, and `a/b` + `c` share a directory key with `a` + `b/c`.
        if self.tenant.contains(['.', '/']) {
            return Err("tenant name must not contain '.' or '/'".into());
        }
        if self.name.is_empty() || self.name.len() > 128 {
            return Err("job name must be 1..=128 bytes".into());
        }
        if self.sweeps == 0 {
            return Err("sweep budget must be positive".into());
        }
        if self.betas.len() > MAX_BETAS {
            return Err(format!(
                "beta schedule too long ({} betas, limit {MAX_BETAS})",
                self.betas.len()
            ));
        }
        if self.betas.iter().any(|b| !b.is_finite() || *b <= 0.0) {
            return Err("every beta must be finite and positive".into());
        }
        match &self.kind {
            JobKind::Tfim {
                lx,
                ly,
                j,
                h,
                m,
                wolff,
            } => {
                if self.betas.len() != 1 {
                    return Err("serial TFIM jobs take exactly one beta".into());
                }
                let model = TfimModel {
                    lx: *lx,
                    ly: *ly,
                    j: *j,
                    h: *h,
                    beta: self.betas[0],
                    m: *m,
                };
                model.check().map_err(|e| format!("TFIM {e}"))?;
                if *lx > MAX_EXTENT || *ly > MAX_EXTENT {
                    return Err(format!("TFIM lattice extent limit is {MAX_EXTENT}"));
                }
                if *m > MAX_SLICES {
                    return Err(format!("TFIM Trotter slice limit is {MAX_SLICES}"));
                }
                if *wolff > MAX_WOLFF {
                    return Err(format!("TFIM wolff-per-sweep limit is {MAX_WOLFF}"));
                }
            }
            JobKind::PtXxz {
                l,
                jx,
                jz,
                m,
                exchange_every,
            } => {
                if self.betas.len() < 2 {
                    return Err("parallel tempering needs at least two betas".into());
                }
                if !self.betas.windows(2).all(|w| w[0] < w[1]) {
                    return Err("the beta ladder must be strictly increasing".into());
                }
                if *l > MAX_CHAIN {
                    return Err(format!("PT XXZ chain length limit is {MAX_CHAIN}"));
                }
                if *m > MAX_SLICES {
                    return Err(format!("PT XXZ Trotter slice limit is {MAX_SLICES}"));
                }
                if *exchange_every == 0 {
                    return Err("PT XXZ needs exchange_every >= 1".into());
                }
                for &beta in &self.betas {
                    let (l, jx, jz, m) = (*l, *jx, *jz, *m);
                    let params = WorldlineParams { l, jx, jz, beta, m };
                    params.check().map_err(|e| format!("PT XXZ: {e}"))?;
                }
            }
        }
        Ok(())
    }

    /// Checkpoint namespace for this job (`tenant/name`, sanitized by
    /// the store).
    pub fn namespace(&self) -> String {
        format!("{}/{}", self.tenant, self.name)
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.str(&self.tenant);
        enc.str(&self.name);
        enc.u8(self.kind.tag());
        match &self.kind {
            JobKind::Tfim {
                lx,
                ly,
                j,
                h,
                m,
                wolff,
            } => {
                enc.u64(*lx as u64);
                enc.u64(*ly as u64);
                enc.f64(*j);
                enc.f64(*h);
                enc.u64(*m as u64);
                enc.u64(*wolff as u64);
            }
            JobKind::PtXxz {
                l,
                jx,
                jz,
                m,
                exchange_every,
            } => {
                enc.u64(*l as u64);
                enc.f64(*jx);
                enc.f64(*jz);
                enc.u64(*m as u64);
                enc.u64(*exchange_every as u64);
            }
        }
        enc.f64s(&self.betas);
        enc.u32(self.therm);
        enc.u32(self.sweeps);
        enc.u64(self.seed);
        enc.u8(self.priority);
        enc.u32(self.ckpt_every);
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<JobSpec, CkptError> {
        let tenant = dec.str()?;
        let name = dec.str()?;
        let kind = match dec.u8()? {
            1 => JobKind::Tfim {
                lx: dec.u64()? as usize,
                ly: dec.u64()? as usize,
                j: dec.f64()?,
                h: dec.f64()?,
                m: dec.u64()? as usize,
                wolff: dec.u64()? as usize,
            },
            2 => JobKind::PtXxz {
                l: dec.u64()? as usize,
                jx: dec.f64()?,
                jz: dec.f64()?,
                m: dec.u64()? as usize,
                exchange_every: dec.u64()? as usize,
            },
            t => return Err(CkptError::corrupt(format!("unknown job kind tag {t}"))),
        };
        Ok(JobSpec {
            tenant,
            name,
            kind,
            betas: dec.f64s()?,
            therm: dec.u32()?,
            sweeps: dec.u32()?,
            seed: dec.u64()?,
            priority: dec.u8()?,
            ckpt_every: dec.u32()?,
        })
    }
}

/// The observable series a finished job returns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobObservables {
    /// Per-replica energy series (one inner vec per β; serial kinds have
    /// exactly one).
    pub energy: Vec<Vec<f64>>,
    /// Engine-specific extras: |m| series for serial TFIM, per-pair
    /// swap acceptance rates for parallel tempering.
    pub extra: Vec<Vec<f64>>,
}

impl JobObservables {
    /// Bitwise equality — the fault-tolerance contract is *bit*-identity
    /// of every f64, not approximate agreement.
    pub fn bits_eq(&self, other: &JobObservables) -> bool {
        let key = |o: &JobObservables| -> Vec<Vec<u64>> {
            o.energy
                .iter()
                .chain(o.extra.iter())
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        key(self) == key(other)
    }

    pub(crate) fn encode(&self, enc: &mut Encoder) {
        let put = |enc: &mut Encoder, series: &[Vec<f64>]| {
            enc.u32(series.len() as u32);
            for v in series {
                enc.f64s(v);
            }
        };
        put(enc, &self.energy);
        put(enc, &self.extra);
    }

    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<JobObservables, CkptError> {
        let get = |dec: &mut Decoder<'_>| -> Result<Vec<Vec<f64>>, CkptError> {
            // Each series is at least its 8-byte length prefix.
            let n = dec.count_u32(8)?;
            if n > 4096 {
                return Err(CkptError::corrupt("implausible series count"));
            }
            (0..n).map(|_| Ok(dec.f64s()?)).collect()
        };
        Ok(JobObservables {
            energy: get(dec)?,
            extra: get(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tfim_spec() -> JobSpec {
        JobSpec {
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
        }
    }

    #[test]
    fn spec_round_trips() {
        for spec in [
            tfim_spec(),
            JobSpec {
                tenant: "bob".into(),
                name: "ladder".into(),
                kind: JobKind::PtXxz {
                    l: 8,
                    jx: 1.0,
                    jz: 0.5,
                    m: 8,
                    exchange_every: 2,
                },
                betas: vec![0.5, 1.0, 1.5, 2.0],
                therm: 10,
                sweeps: 20,
                seed: 99,
                priority: 0,
                ckpt_every: 0,
            },
        ] {
            let mut enc = Encoder::new();
            spec.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = JobSpec::decode(&mut dec).unwrap();
            dec.expect_empty().unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = tfim_spec();
        s.betas = vec![1.0, 2.0];
        assert!(s.validate().is_err(), "two betas on a serial job");
        let mut s = tfim_spec();
        s.tenant.clear();
        assert!(s.validate().is_err(), "empty tenant");
        let mut s = tfim_spec();
        s.sweeps = 0;
        assert!(s.validate().is_err(), "zero sweeps");
        let mut s = tfim_spec();
        s.betas = vec![f64::NAN];
        assert!(s.validate().is_err(), "NaN beta");
        assert!(tfim_spec().validate().is_ok());
    }

    #[test]
    fn validation_refuses_separators_in_tenant_names() {
        for tenant in ["a.b", "a/b", ".", "/"] {
            let mut s = tfim_spec();
            s.tenant = tenant.into();
            let err = s.validate().expect_err(tenant);
            assert!(err.contains("tenant name must not contain"), "{err}");
        }
        let mut s = tfim_spec();
        s.name = "scan/beta-2.0".into();
        assert!(s.validate().is_ok(), "job names keep both separators");
    }

    /// Every spec the engines refuse is refused here first: before these
    /// checks each of them was admitted and then panicked its worker
    /// (`TfimModel::validated`, `Worldline::new`).
    #[test]
    fn validation_mirrors_the_engine_checks() {
        let tfim = |j: f64, h: f64| JobSpec {
            kind: JobKind::Tfim {
                lx: 4,
                ly: 1,
                j,
                h,
                m: 4,
                wolff: 1,
            },
            ..tfim_spec()
        };
        let pt = |l: usize, jx: f64, jz: f64, m: usize| JobSpec {
            kind: JobKind::PtXxz {
                l,
                jx,
                jz,
                m,
                exchange_every: 2,
            },
            betas: vec![0.5, 1.0],
            ..tfim_spec()
        };
        let at = |spec, b: &[f64]| JobSpec {
            betas: b.to_vec(),
            ..spec
        };
        assert!(tfim(1.0, 2.0).validate().is_ok());
        assert!(pt(4, 1.0, 1.0, 2).validate().is_ok());
        for (what, spec, says) in [
            ("TFIM h = 0", tfim(1.0, 0.0), "j and h"),
            ("TFIM j = NaN", tfim(f64::NAN, 2.0), "j and h"),
            ("PT l = 3", pt(3, 1.0, 1.0, 8), "even l >= 4"),
            ("PT m = 1", pt(8, 1.0, 1.0, 1), "m >= 2"),
            ("PT jz = NaN", pt(8, 1.0, f64::NAN, 8), "jx and jz"),
            // e^{Δτ·jz/4}·cosh k is finite at β = 0.5 and +∞ at β = 1.
            ("PT jz = 1e4 overflows", pt(8, 1.0, 1e4, 2), "weights"),
            // A subnormal β passes the β checks but β/m rounds to zero.
            ("TFIM β/m = 0", at(tfim(1.0, 2.0), &[5e-324]), "Δτ"),
            ("PT β/m = 0", at(pt(8, 1.0, 1.0, 8), &[5e-324, 1.0]), "Δτ"),
        ] {
            let err = spec.validate().expect_err(what);
            assert!(err.contains(says), "{what}: {err}");
        }
    }

    /// A single quota-compliant submission must not be able to exhaust
    /// worker threads or memory: every resource dimension is capped at
    /// admission, well below what the 1 MiB frame cap alone would admit.
    #[test]
    fn validation_caps_per_job_resources() {
        let pt = |betas: Vec<f64>, l: usize, m: usize| JobSpec {
            tenant: "t".into(),
            name: "big".into(),
            kind: JobKind::PtXxz {
                l,
                jx: 1.0,
                jz: 1.0,
                m,
                exchange_every: 2,
            },
            betas,
            therm: 1,
            sweeps: 1,
            seed: 1,
            priority: 0,
            ckpt_every: 0,
        };
        let ladder = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert!(pt(ladder(MAX_BETAS), 8, 8).validate().is_ok());
        let err = pt(ladder(MAX_BETAS + 1), 8, 8).validate().unwrap_err();
        assert!(err.contains("beta schedule"), "{err}");
        let err = pt(ladder(4), MAX_CHAIN + 1, 8).validate().unwrap_err();
        assert!(err.contains("chain length"), "{err}");
        let err = pt(ladder(4), 8, MAX_SLICES + 2).validate().unwrap_err();
        assert!(err.contains("slice"), "{err}");

        let mut s = tfim_spec();
        if let JobKind::Tfim { lx, .. } = &mut s.kind {
            *lx = MAX_EXTENT + 2;
        }
        assert!(s.validate().unwrap_err().contains("extent"));
        let mut s = tfim_spec();
        if let JobKind::Tfim { m, .. } = &mut s.kind {
            *m = MAX_SLICES + 2;
        }
        assert!(s.validate().unwrap_err().contains("slice"));
        let mut s = tfim_spec();
        if let JobKind::Tfim { wolff, .. } = &mut s.kind {
            *wolff = MAX_WOLFF + 1;
        }
        assert!(s.validate().unwrap_err().contains("wolff"));
    }

    #[test]
    fn observables_round_trip_and_bit_compare() {
        let obs = JobObservables {
            energy: vec![vec![1.5, -2.25], vec![0.0, f64::MIN_POSITIVE]],
            extra: vec![vec![0.25]],
        };
        let mut enc = Encoder::new();
        obs.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = JobObservables::decode(&mut Decoder::new(&bytes)).unwrap();
        assert!(back.bits_eq(&obs));
        let mut tweaked = obs.clone();
        tweaked.energy[0][0] = 1.5 + f64::EPSILON;
        assert!(!tweaked.bits_eq(&obs));
    }
}
