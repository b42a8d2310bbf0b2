//! The on-disk container: named, CRC32-guarded sections under a schema
//! header, closed by a trailer that proves the file was written to the
//! end. A torn write (crash mid-`write`) fails either the trailer check
//! or a section CRC and is rejected as a whole — readers then fall back
//! to the previous generation (see [`crate::CkptStore`]).

use crate::crc32::crc32;
use crate::wire::{CkptError, Decoder, Encoder};
use crate::Checkpoint;

/// Schema identifier written into every checkpoint file header.
pub const SCHEMA: &str = "qmc-ckpt/v1";

/// 8-byte file magic.
pub(crate) const MAGIC: &[u8; 8] = b"QMCCKPT\0";
/// 4-byte trailer magic; its presence (plus the file CRC) distinguishes
/// a complete file from a torn one.
pub(crate) const TRAILER: &[u8; 4] = b"QEND";

/// Validate the shared file envelope (magic, trailer presence, whole-file
/// CRC) and return the body between the magic and the trailer — the
/// schema string onward. Shared by the v1 reader here and the v2 reader
/// in [`crate::delta`].
pub(crate) fn envelope_body(bytes: &[u8]) -> Result<&[u8], CkptError> {
    if bytes.len() < MAGIC.len() + TRAILER.len() + 4 {
        return Err(CkptError::Truncated { what: "file" });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let body_end = bytes.len() - TRAILER.len() - 4;
    if &bytes[body_end..body_end + TRAILER.len()] != TRAILER {
        return Err(CkptError::Truncated { what: "trailer" });
    }
    let stored_crc = u32::from_le_bytes(
        bytes[body_end + TRAILER.len()..]
            .try_into()
            .expect("length check above leaves exactly 4 CRC bytes"),
    );
    if crc32(&bytes[..body_end]) != stored_crc {
        return Err(CkptError::BadCrc {
            section: "<file>".to_string(),
        });
    }
    Ok(&bytes[MAGIC.len()..body_end])
}

/// Bytes [`envelope_open`] and [`envelope_close`] add around a body.
pub(crate) const ENVELOPE_LEN: usize = MAGIC.len() + TRAILER.len() + 4;

/// Wire size of a length-prefixed string or byte slice of `len` bytes.
pub(crate) const fn prefixed(len: usize) -> usize {
    8 + len
}

/// Open a file image of `body_len` body bytes in one exactly sized
/// buffer with room around the image: `room[0]` zero bytes in front
/// that are not part of it, and capacity for `room[1]` more after it
/// (the store's slot header and end mark go there, so they and the image
/// reach the file in one write without a second image-sized buffer).
/// The magic is written; the caller encodes the body — the schema
/// string onward — and hands the encoder to [`envelope_close`].
pub(crate) fn envelope_open(room: [usize; 2], body_len: usize) -> Encoder {
    let mut buf = Vec::with_capacity(room[0] + ENVELOPE_LEN + body_len + room[1]);
    buf.resize(room[0], 0);
    buf.extend_from_slice(MAGIC);
    Encoder::appending_to(buf)
}

/// Close an image opened with the same `room`: trailer + CRC of the
/// image so far (the room in front is not summed).
pub(crate) fn envelope_close(enc: Encoder, room: [usize; 2]) -> Vec<u8> {
    let mut out = enc.into_bytes();
    let file_crc = crc32(&out[room[0]..]);
    out.extend_from_slice(TRAILER);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// An in-memory checkpoint file: an ordered list of named sections.
#[derive(Default, Clone)]
pub struct CkptFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl CkptFile {
    /// Fresh file with no sections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a raw section (replaces an existing section of that name).
    pub fn add(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Append a [`Checkpoint`] state as a section.
    pub fn add_state(&mut self, name: &str, state: &impl Checkpoint) {
        self.add(name, crate::save_state(state));
    }

    /// Payload of section `name`, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// Payload of section `name`, or [`CkptError::MissingSection`].
    pub fn require(&self, name: &str) -> Result<&[u8], CkptError> {
        self.get(name).ok_or_else(|| CkptError::MissingSection {
            name: name.to_string(),
        })
    }

    /// Restore a [`Checkpoint`] state from section `name`.
    pub fn restore(&self, name: &str, state: &mut impl Checkpoint) -> Result<(), CkptError> {
        crate::load_state(self.require(name)?, state)
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// `(name, payload)` pairs in file order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.sections
            .iter()
            .map(|(n, p)| (n.as_str(), p.as_slice()))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the file holds no sections.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Serialize: magic, schema, section count, per-section
    /// `(name, payload, crc32(payload))`, then trailer magic + CRC32 of
    /// everything before the trailer.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.image([0, 0]).0
    }

    /// [`CkptFile::to_bytes`] with `room` around it (see
    /// [`envelope_open`]), and the CRC32 of every section in file order:
    /// each payload is summed once, for the image and for whoever indexes
    /// the sections afterwards.
    pub(crate) fn image(&self, room: [usize; 2]) -> (Vec<u8>, Vec<u32>) {
        let body_len = prefixed(SCHEMA.len())
            + 8
            + self
                .sections
                .iter()
                .map(|(name, payload)| prefixed(name.len()) + prefixed(payload.len()) + 4)
                .sum::<usize>();
        let mut enc = envelope_open(room, body_len);
        enc.str(SCHEMA);
        enc.u64(self.sections.len() as u64);
        let mut crcs = Vec::with_capacity(self.sections.len());
        for (name, payload) in &self.sections {
            let crc = crc32(payload);
            enc.str(name);
            enc.bytes(payload);
            enc.u32(crc);
            crcs.push(crc);
        }
        let image = envelope_close(enc, room);
        debug_assert_eq!(image.len(), room[0] + ENVELOPE_LEN + body_len);
        (image, crcs)
    }

    /// Parse and fully validate a serialized file: magic, schema,
    /// trailer presence, whole-file CRC, and every section CRC.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Decoder::new(envelope_body(bytes)?);
        let schema = dec.str()?;
        if schema != SCHEMA {
            return Err(CkptError::BadSchema { found: schema });
        }
        let n = dec.u64()?;
        let mut sections = Vec::new();
        for _ in 0..n {
            let name = dec.str()?;
            let payload = dec.bytes()?.to_vec();
            let crc = dec.u32()?;
            if crc32(&payload) != crc {
                return Err(CkptError::BadCrc { section: name });
            }
            sections.push((name, payload));
        }
        dec.expect_empty()?;
        Ok(Self { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CkptFile {
        let mut f = CkptFile::new();
        f.add("alpha", vec![1, 2, 3]);
        f.add("beta", vec![]);
        f.add("gamma", (0u8..200).collect());
        f
    }

    #[test]
    fn file_round_trips() {
        let f = sample();
        let bytes = f.to_bytes();
        let back = CkptFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("alpha"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.get("beta"), Some(&[][..]));
        assert_eq!(back.get("missing"), None);
        assert!(matches!(
            back.require("missing"),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn add_replaces_existing_section() {
        let mut f = sample();
        f.add("alpha", vec![9]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.get("alpha"), Some(&[9u8][..]));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CkptFile::from_bytes(&bytes[..cut]).is_err(),
                "torn file (cut at {cut}/{}) must not parse",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                CkptFile::from_bytes(&bad).is_err(),
                "bit flip at byte {i} must not parse"
            );
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        // Hand-build a file with a future schema string.
        let mut out = Vec::from(&b"QMCCKPT\0"[..]);
        let mut enc = Encoder::new();
        enc.str("qmc-ckpt/v999");
        enc.u64(0);
        out.extend_from_slice(&enc.into_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(b"QEND");
        out.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            CkptFile::from_bytes(&out),
            Err(CkptError::BadSchema { .. })
        ));
    }
}
