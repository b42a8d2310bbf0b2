//! The `qmc-ckpt/v2` wire format: incremental (delta) checkpoints.
//!
//! A v2 file is either *full* (every section carries its payload, like
//! v1) or a *delta* against a named base generation: sections that did
//! not change since the base are stored as an 8-byte reference — the
//! CRC32 and length of the base's payload — instead of the payload
//! itself. Resolution substitutes the base's bytes and re-verifies the
//! CRC, so a reference can never silently pick up the wrong content.
//!
//! Layout (shared envelope: magic + body + `QEND` + whole-file CRC):
//!
//! ```text
//! str  schema            "qmc-ckpt/v2"
//! u8   kind              0 = full, 1 = delta
//! u64  base_generation   (delta only)
//! u64  n_sections
//! per section:
//!   str name
//!   u8  tag              0 = payload, 1 = base reference
//!   tag 0: bytes payload + u32 crc32(payload)
//!   tag 1: u32 crc32(base payload) + u32 len(base payload)
//! ```
//!
//! v1 files parse through the same entry point ([`RawCkpt::from_bytes`])
//! as base-less payload-only files, so every reader in the crate is
//! automatically forward-compatible with old full checkpoints.

use crate::crc32::crc32;
use crate::file::{envelope_body, image, read_section, CkptFile, Format, Stored, SCHEMA};
use crate::{CkptError, Decoder};

/// Schema identifier for delta-capable checkpoint files.
pub const SCHEMA_V2: &str = "qmc-ckpt/v2";

/// One section of a parsed (unresolved) checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionData {
    /// The section's bytes are stored in this file.
    Payload(Vec<u8>),
    /// The section is unchanged since the base generation; `crc` and
    /// `len` identify the base payload this reference resolves to.
    BaseRef {
        /// CRC32 of the referenced base payload.
        crc: u32,
        /// Length of the referenced base payload in bytes.
        len: u32,
    },
}

/// One section of a delta write plan, produced by
/// [`crate::plan_sections`] and consumed by
/// [`crate::CkptStore::write_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionPlan {
    /// The section changed (or the write is full): store these bytes.
    Payload(Vec<u8>),
    /// The section is unchanged since the last successful snapshot;
    /// store a reference to the base generation's payload.
    Clean,
}

/// A parsed checkpoint file before base resolution: the section list
/// plus the base generation a delta references (`None` for full files,
/// including every v1 file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCkpt {
    /// Base generation this file is a delta against, if any.
    pub base: Option<u64>,
    /// Sections in file order.
    pub sections: Vec<(String, SectionData)>,
}

impl RawCkpt {
    /// Serialize as a v2 file (full when `base` is `None`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections = self
            .sections
            .iter()
            .map(|(name, data)| {
                let stored = match data {
                    SectionData::Payload(p) => Stored::Payload(p, crc32(p)),
                    SectionData::BaseRef { crc, len } => Stored::BaseRef(*crc, *len),
                };
                (name.as_str(), stored)
            })
            .collect::<Vec<_>>();
        image(Format::V2 { base: self.base }, &sections)
    }

    /// Parse and fully validate either schema: v1 files come back as
    /// base-less payload-only section lists, v2 files keep their
    /// references for later [`RawCkpt::resolve`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Decoder::new(envelope_body(bytes)?);
        let schema = dec.str()?;
        let base = if schema == SCHEMA {
            None
        } else if schema != SCHEMA_V2 {
            return Err(CkptError::BadSchema { found: schema });
        } else {
            match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()?),
                k => {
                    return Err(CkptError::corrupt(format!(
                        "invalid checkpoint kind byte {k}"
                    )))
                }
            }
        };
        let n = dec.u64()?;
        let mut sections = Vec::new();
        for _ in 0..n {
            let (name, stored) = read_section(&mut dec, schema == SCHEMA_V2)?;
            let data = match stored {
                Stored::Payload(payload, crc) => {
                    if crc32(payload) != crc {
                        return Err(CkptError::BadCrc { section: name });
                    }
                    SectionData::Payload(payload.to_vec())
                }
                Stored::BaseRef(crc, len) => {
                    if base.is_none() {
                        return Err(CkptError::corrupt(format!(
                            "section {name:?} is a base reference in a full file"
                        )));
                    }
                    SectionData::BaseRef { crc, len }
                }
            };
            sections.push((name, data));
        }
        dec.expect_empty()?;
        Ok(Self { base, sections })
    }

    /// Materialize into a plain [`CkptFile`]: payload sections are kept,
    /// base references are substituted from `base` (the already
    /// materialized base generation) after re-verifying CRC and length.
    pub fn resolve(self, base: Option<&CkptFile>) -> Result<CkptFile, CkptError> {
        let mut out = CkptFile::new();
        for (name, data) in self.sections {
            match data {
                SectionData::Payload(p) => out.add(&name, p),
                SectionData::BaseRef { crc, len } => {
                    let base = base.ok_or_else(|| {
                        CkptError::corrupt(format!(
                            "section {name:?} references a base but none was supplied"
                        ))
                    })?;
                    let payload = base
                        .get(&name)
                        .ok_or_else(|| CkptError::MissingSection { name: name.clone() })?;
                    if payload.len() != len as usize || crc32(payload) != crc {
                        return Err(CkptError::BadCrc { section: name });
                    }
                    out.add(&name, payload.to_vec());
                }
            }
        }
        Ok(out)
    }
}

/// Cheap header peek: the base generation a serialized file references,
/// without validating CRCs (v1 and v2-full files yield `None`, as does
/// anything whose header fails to parse). Used by pruning to discover
/// chain dependencies without materializing whole files.
pub(crate) fn peek_base(bytes: &[u8]) -> Option<u64> {
    let magic = crate::file::MAGIC;
    if bytes.len() < magic.len() || &bytes[..magic.len()] != magic.as_slice() {
        return None;
    }
    let mut dec = Decoder::new(&bytes[magic.len()..]);
    if dec.str().ok()? != SCHEMA_V2 {
        return None;
    }
    if dec.u8().ok()? != 1 {
        return None;
    }
    dec.u64().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_file() -> CkptFile {
        let mut f = CkptFile::new();
        f.add("alpha", vec![1, 2, 3]);
        f.add("beta", (0u8..100).collect());
        f
    }

    fn delta_against_base() -> RawCkpt {
        let base = base_file();
        let beta = base.get("beta").expect("beta present");
        RawCkpt {
            base: Some(7),
            sections: vec![
                ("alpha".into(), SectionData::Payload(vec![9, 9])),
                (
                    "beta".into(),
                    SectionData::BaseRef {
                        crc: crc32(beta),
                        len: beta.len() as u32,
                    },
                ),
            ],
        }
    }

    #[test]
    fn v2_full_round_trips() {
        let raw = RawCkpt {
            base: None,
            sections: vec![
                ("a".into(), SectionData::Payload(vec![1])),
                ("b".into(), SectionData::Payload(vec![])),
            ],
        };
        let bytes = raw.to_bytes();
        let back = RawCkpt::from_bytes(&bytes).expect("parses");
        assert_eq!(back, raw);
        let file = back.resolve(None).expect("no refs to resolve");
        assert_eq!(file.get("a"), Some(&[1u8][..]));
        assert_eq!(file.get("b"), Some(&[][..]));
    }

    #[test]
    fn v2_delta_round_trips_and_resolves() {
        let raw = delta_against_base();
        let back = RawCkpt::from_bytes(&raw.to_bytes()).expect("parses");
        assert_eq!(back.base, Some(7));
        let file = back.resolve(Some(&base_file())).expect("resolves");
        assert_eq!(file.get("alpha"), Some(&[9u8, 9][..]));
        assert_eq!(file.get("beta"), base_file().get("beta"));
    }

    #[test]
    fn v1_files_parse_as_base_less_payloads() {
        let bytes = base_file().to_bytes();
        let raw = RawCkpt::from_bytes(&bytes).expect("v1 parses through v2 reader");
        assert_eq!(raw.base, None);
        assert!(raw
            .sections
            .iter()
            .all(|(_, d)| matches!(d, SectionData::Payload(_))));
        let file = raw.resolve(None).expect("resolves");
        assert_eq!(file.get("alpha"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn resolve_rejects_missing_base_section() {
        let mut raw = delta_against_base();
        raw.sections[1].0 = "gamma".into();
        assert!(matches!(
            raw.resolve(Some(&base_file())),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn resolve_rejects_crc_mismatch_against_base() {
        let mut raw = delta_against_base();
        if let SectionData::BaseRef { crc, .. } = &mut raw.sections[1].1 {
            *crc ^= 1;
        }
        assert!(matches!(
            raw.resolve(Some(&base_file())),
            Err(CkptError::BadCrc { .. })
        ));
    }

    #[test]
    fn resolve_rejects_length_mismatch_against_base() {
        let mut raw = delta_against_base();
        if let SectionData::BaseRef { len, .. } = &mut raw.sections[1].1 {
            *len += 1;
        }
        assert!(matches!(
            raw.resolve(Some(&base_file())),
            Err(CkptError::BadCrc { .. })
        ));
    }

    #[test]
    fn resolve_without_base_rejects_references() {
        let raw = delta_against_base();
        assert!(raw.resolve(None).is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = delta_against_base().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RawCkpt::from_bytes(&bytes[..cut]).is_err(),
                "torn v2 file (cut at {cut}/{}) must not parse",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = delta_against_base().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                RawCkpt::from_bytes(&bad).is_err(),
                "bit flip at byte {i} must not parse"
            );
        }
    }

    #[test]
    fn peek_base_reads_header_only() {
        assert_eq!(peek_base(&delta_against_base().to_bytes()), Some(7));
        let full = RawCkpt {
            base: None,
            sections: vec![],
        };
        assert_eq!(peek_base(&full.to_bytes()), None);
        assert_eq!(peek_base(&base_file().to_bytes()), None, "v1 has no base");
        assert_eq!(peek_base(b"garbage"), None);
    }
}
