//! The on-disk container: named, CRC32-guarded sections under a schema
//! header, closed by a trailer that proves the file was written to the
//! end. A torn write (crash mid-`write`) fails either the trailer check
//! or a section CRC and is rejected as a whole — readers then fall back
//! to the previous generation (see [`crate::CkptStore`]).

use crate::crc32::{crc32, crc32_combine, crc32_update};
use crate::delta::SCHEMA_V2;
use crate::Checkpoint;
use crate::{CkptError, Decoder, Encoder};

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

/// Wire size of a length-prefixed string or byte slice of `len` bytes.
pub(crate) const fn prefixed(len: usize) -> usize {
    8 + len
}

/// v2 section tag: a payload and its CRC follow.
pub(crate) const TAG_PAYLOAD: u8 = 0;
/// v2 section tag: a reference to the base's payload follows.
pub(crate) const TAG_BASE_REF: u8 = 1;

/// The two image formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Format {
    /// `qmc-ckpt/v1`: untagged sections, every one a payload.
    V1,
    /// `qmc-ckpt/v2`: tagged sections; a delta names its base.
    V2 {
        /// The generation a delta is against (`None`: a full image).
        base: Option<u64>,
    },
}

impl Format {
    /// Whether sections carry a tag byte.
    pub(crate) fn tagged(self) -> bool {
        matches!(self, Format::V2 { .. })
    }

    /// Header bytes after the magic: schema string, a v2 image's kind
    /// byte and base, the section count.
    fn header_len(self) -> usize {
        match self {
            Format::V1 => prefixed(SCHEMA.len()) + 8,
            Format::V2 { base } => prefixed(SCHEMA_V2.len()) + 1 + base.map_or(0, |_| 8) + 8,
        }
    }
}

/// What follows a section's name (and, in v2, its tag).
pub(crate) enum Body<'a> {
    /// The section's bytes and their CRC-32, already summed.
    Payload(&'a [u8], u32),
    /// The section's bytes as the closure writes them in place; their
    /// CRC-32 is summed there, once.
    Written(&'a mut dyn FnMut(&mut Encoder)),
    /// A v2 delta's reference to the base's payload: its CRC-32 and
    /// length.
    BaseRef(u32, u32),
}

/// Append section `name` to an image (or a fragment of one) in `enc`:
/// the length-prefixed name, the tag when `tagged` (v2), then the
/// length-prefixed payload and its CRC-32, or the base reference. `crc`
/// is the CRC-32 of the bytes in front of the section; returned are that
/// of the bytes up to its end, and the CRC-32 and length of the payload
/// the section stands for. The framing bytes are summed here, a payload
/// once — by the caller, or here when written in place — and folded into
/// the running CRC with [`crc32_combine`], not summed again.
///
/// The one place in the crate that writes a section's framing
/// (`scripts/check.sh` fails on a second).
pub(crate) fn frame_section(
    enc: &mut Encoder,
    crc: u32,
    tagged: bool,
    name: &str,
    body: Body<'_>,
) -> (u32, (u32, u32)) {
    let start = enc.written().len();
    enc.str(name);
    if let Body::BaseRef(base_crc, len) = body {
        assert!(
            tagged,
            "section {name:?}: a v1 image has no base references"
        );
        enc.u8(TAG_BASE_REF);
        enc.u32(base_crc);
        enc.u32(len);
        return (crc32_update(crc, &enc.written()[start..]), (base_crc, len));
    }
    if tagged {
        enc.u8(TAG_PAYLOAD);
    }
    let head = enc.written().len() + 8;
    let mut summed = None;
    enc.prefixed(|enc| match body {
        Body::Payload(bytes, sum) => {
            enc.raw(bytes);
            summed = Some(sum);
        }
        Body::Written(write) => write(enc),
        Body::BaseRef(..) => unreachable!("framed above"),
    });
    let payload = &enc.written()[head..];
    let sum = summed.unwrap_or_else(|| crc32(payload));
    let len = payload.len();
    let crc = crc32_combine(
        crc32_update(crc, &enc.written()[start..head]),
        sum,
        len as u64,
    );
    enc.u32(sum);
    (crc32_update(crc, &sum.to_le_bytes()), (sum, len as u32))
}

/// A section as it sits in an image.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stored<'a> {
    /// The payload and the CRC-32 framed with it.
    Payload(&'a [u8], u32),
    /// A reference to the base's payload: its CRC-32 and length.
    BaseRef(u32, u32),
}

impl<'a> Stored<'a> {
    /// The section framed again as it is.
    pub(crate) fn body(self) -> Body<'a> {
        match self {
            Stored::Payload(p, crc) => Body::Payload(p, crc),
            Stored::BaseRef(crc, len) => Body::BaseRef(crc, len),
        }
    }

    /// Bytes [`frame_section`] takes for it under `name`.
    fn wire_len(self, tagged: bool, name: &str) -> usize {
        prefixed(name.len())
            + usize::from(tagged)
            + match self {
                Stored::Payload(p, _) => prefixed(p.len()) + 4,
                Stored::BaseRef(..) => 8,
            }
    }
}

/// Read back one section [`frame_section`] wrote, without checking the
/// payload's CRC (callers that need the bytes check it; rank 0 re-framing
/// another rank's fragment does not read them).
pub(crate) fn read_section<'a>(
    dec: &mut Decoder<'a>,
    tagged: bool,
) -> Result<(String, Stored<'a>), CkptError> {
    let name = dec.str()?;
    let tag = if tagged { dec.u8()? } else { TAG_PAYLOAD };
    let body = match tag {
        TAG_PAYLOAD => {
            let payload = dec.bytes()?;
            Stored::Payload(payload, dec.u32()?)
        }
        TAG_BASE_REF => Stored::BaseRef(dec.u32()?, dec.u32()?),
        t => {
            return Err(CkptError::corrupt(format!(
                "invalid section tag {t} in section {name:?}"
            )))
        }
    };
    Ok((name, body))
}

/// Start an image of `format` holding `n_sections` sections, with room
/// for `capacity` more bytes: the magic and the header. Returns the
/// encoder and the CRC-32 of the image so far.
pub(crate) fn image_head(format: Format, n_sections: usize, capacity: usize) -> (Encoder, u32) {
    let mut enc = Encoder::appending_to(Vec::with_capacity(
        MAGIC.len() + format.header_len() + capacity,
    ));
    enc.raw(MAGIC);
    match format {
        Format::V1 => enc.str(SCHEMA),
        Format::V2 { base } => {
            enc.str(SCHEMA_V2);
            // Kind byte: 0 = full, 1 = delta on the base that follows.
            enc.u8(u8::from(base.is_some()));
            if let Some(g) = base {
                enc.u64(g);
            }
        }
    }
    enc.u64(n_sections as u64);
    let crc = crc32(enc.written());
    (enc, crc)
}

/// The trailer that closes an image whose bytes before it sum to `crc`.
pub(crate) fn image_tail(crc: u32) -> [u8; 8] {
    let mut tail = [0; 8];
    tail[..4].copy_from_slice(TRAILER);
    tail[4..].copy_from_slice(&crc.to_le_bytes());
    tail
}

/// A whole image of `format`: every section framed by [`frame_section`],
/// each payload summed once (by the caller, for its CRC) and never again
/// for the image's.
pub(crate) fn image(format: Format, sections: &[(&str, Stored<'_>)]) -> Vec<u8> {
    let tagged = format.tagged();
    let len: usize = sections
        .iter()
        .map(|&(name, stored)| stored.wire_len(tagged, name))
        .sum();
    let (mut enc, mut crc) = image_head(format, sections.len(), len + TRAILER.len() + 4);
    for &(name, stored) in sections {
        crc = frame_section(&mut enc, crc, tagged, name, stored.body()).0;
    }
    let mut image = enc.into_bytes();
    debug_assert_eq!(crc, crc32(&image), "the CRC summed in parts is the image's");
    image.extend_from_slice(&image_tail(crc));
    image
}

/// Name, CRC-32 and length of each section of a generation, in file
/// order: what a delta's base references are resolved against.
pub(crate) type SectionIndex = Vec<(String, u32, u32)>;

/// Consecutive sections of an image, framed by [`frame_section`] on the
/// rank that owns their bytes: the framed bytes, how many sections they
/// hold, and their CRC-32.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fragment<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) sections: u64,
    pub(crate) crc: u32,
}

impl Fragment<'_> {
    /// The untagged (v1) sections re-framed tagged, for a v2 image, and
    /// their CRC-32. Each payload's CRC is the one framed with it.
    pub(crate) fn tagged_copy(&self) -> Result<(Vec<u8>, u32), CkptError> {
        let mut dec = Decoder::new(self.bytes);
        let mut enc = Encoder::appending_to(Vec::with_capacity(
            self.bytes.len() + self.sections as usize,
        ));
        let mut crc = 0;
        for _ in 0..self.sections {
            let (name, stored) = read_section(&mut dec, false)?;
            crc = frame_section(&mut enc, crc, true, &name, stored.body()).0;
        }
        dec.expect_empty()?;
        Ok((enc.into_bytes(), crc))
    }
}

/// The head and the tail that make `parts`, in order between them, an
/// image of `format`. The parts are not read: the image's CRC-32 is
/// built from theirs.
pub(crate) fn fragments_frame(format: Format, parts: &[Fragment<'_>]) -> (Vec<u8>, [u8; 8]) {
    let n = parts.iter().map(|p| p.sections as usize).sum();
    let (head, head_crc) = image_head(format, n, 0);
    let crc = parts.iter().fold(head_crc, |crc, part| {
        crc32_combine(crc, part.crc, part.bytes.len() as u64)
    });
    debug_assert_eq!(
        crc,
        parts
            .iter()
            .fold(head_crc, |crc, p| crc32_update(crc, p.bytes)),
        "every part's CRC is the CRC of its bytes"
    );
    (head.into_bytes(), image_tail(crc))
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
        let sections = self
            .sections
            .iter()
            .map(|(name, p)| (name.as_str(), Stored::Payload(p, crc32(p))))
            .collect::<Vec<_>>();
        image(Format::V1, &sections)
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
            let (name, stored) = read_section(&mut dec, false)?;
            let Stored::Payload(payload, crc) = stored else {
                unreachable!("an untagged section is a payload")
            };
            if crc32(payload) != crc {
                return Err(CkptError::BadCrc { section: name });
            }
            sections.push((name, payload.to_vec()));
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
