//! Length-prefixed little-endian primitives for the checkpoint wire
//! format. [`Encoder`] is infallible (it grows a `Vec<u8>`); every
//! [`Decoder`] read is bounds-checked and returns [`CkptError`] instead
//! of panicking, because a checkpoint file is external input — it may be
//! torn, truncated, or from a different run entirely.

use crate::Checkpoint;
use std::fmt;

/// Everything that can go wrong reading a checkpoint or setting up a
/// checkpointed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Ran out of bytes while reading `what`.
    Truncated { what: &'static str },
    /// File does not start with the checkpoint magic.
    BadMagic,
    /// File magic matched but the schema string is not ours.
    BadSchema { found: String },
    /// A section's payload does not match its recorded CRC32.
    BadCrc { section: String },
    /// A required section is absent from the file.
    MissingSection { name: String },
    /// A state payload's kind tag does not match the target value.
    KindMismatch { expected: String, found: String },
    /// Structurally invalid content (size mismatch, bad enum tag, …).
    Corrupt { detail: String },
    /// Filesystem error surfaced while reading.
    Io { detail: String },
    /// A checkpoint cadence of zero sweeps ("every 0 sweeps") was asked
    /// for; there is no such schedule.
    ZeroCadence,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { what } => write!(f, "checkpoint truncated while reading {what}"),
            CkptError::BadMagic => write!(f, "not a qmc checkpoint (bad magic)"),
            CkptError::BadSchema { found } => {
                write!(f, "unsupported checkpoint schema {found:?}")
            }
            CkptError::BadCrc { section } => {
                write!(f, "checkpoint section {section:?} failed CRC32")
            }
            CkptError::MissingSection { name } => {
                write!(f, "checkpoint is missing section {name:?}")
            }
            CkptError::KindMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            CkptError::Corrupt { detail } => write!(f, "corrupt checkpoint: {detail}"),
            CkptError::Io { detail } => write!(f, "checkpoint i/o error: {detail}"),
            CkptError::ZeroCadence => write!(f, "checkpoint cadence must be at least 1 sweep"),
        }
    }
}

impl std::error::Error for CkptError {}

impl CkptError {
    /// Shorthand for a [`CkptError::Corrupt`] with a formatted detail.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        CkptError::Corrupt {
            detail: detail.into(),
        }
    }
}

/// Append-only binary writer (little-endian, length-prefixed slices).
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encoder that appends to `buf` (whatever it already holds stays
    /// in front).
    pub(crate) fn appending_to(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Finished byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub(crate) fn written(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append bytes that are already encoded.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` by bit pattern (NaN payloads and signed zeros
    /// survive the round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.reserve(8 + v.len());
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write whatever `body` writes, length-prefixed: the layout of
    /// [`Encoder::bytes`] over a separately encoded body, without the
    /// separate buffer.
    pub(crate) fn prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.buf.reserve(8 + 8 * v.len());
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Write a length-prefixed `i64` slice.
    pub fn i64s(&mut self, v: &[i64]) {
        self.buf.reserve(8 + 8 * v.len());
        self.u64(v.len() as u64);
        for &x in v {
            self.i64(x);
        }
    }

    /// Write a length-prefixed `f64` slice (bit patterns).
    pub fn f64s(&mut self, v: &[f64]) {
        self.buf.reserve(8 + 8 * v.len());
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// Write a length-prefixed `bool` slice, one byte per element.
    pub fn bools(&mut self, v: &[bool]) {
        self.u64(v.len() as u64);
        self.buf.extend(v.iter().map(|&b| b as u8));
    }

    /// Write a nested [`Checkpoint`] state: kind tag + length-prefixed
    /// body, so the reader can verify type and skip on error.
    pub fn state(&mut self, s: &impl Checkpoint) {
        self.str(s.kind());
        self.prefixed(|body| s.save(body));
    }
}

/// Bounds-checked reader over an encoded byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Reader over `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte has been consumed.
    pub fn expect_empty(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?
                .try_into()
                .expect("take returned 4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?
                .try_into()
                .expect("take returned 8 bytes"),
        ))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(
            self.take(8, "i64")?
                .try_into()
                .expect("take returned 8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::corrupt(format!("invalid bool byte {b}"))),
        }
    }

    fn len_prefix(&mut self, what: &'static str) -> Result<usize, CkptError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CkptError::Truncated { what });
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len_prefix("bytes")?;
        self.take(n, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CkptError::corrupt("string is not valid UTF-8"))
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CkptError> {
        let n = self.u64()?;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining() as u64) {
            return Err(CkptError::Truncated { what: "u64 slice" });
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `i64` slice.
    pub fn i64s(&mut self) -> Result<Vec<i64>, CkptError> {
        let n = self.u64()?;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining() as u64) {
            return Err(CkptError::Truncated { what: "i64 slice" });
        }
        (0..n).map(|_| self.i64()).collect()
    }

    /// Read a length-prefixed `f64` slice (bit patterns).
    pub fn f64s(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.u64()?;
        if n.checked_mul(8).is_none_or(|b| b > self.remaining() as u64) {
            return Err(CkptError::Truncated { what: "f64 slice" });
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Read a length-prefixed `bool` slice.
    pub fn bools(&mut self) -> Result<Vec<bool>, CkptError> {
        let n = self.len_prefix("bool slice")?;
        self.take(n, "bool slice")?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(CkptError::corrupt(format!("invalid bool byte {b}"))),
            })
            .collect()
    }

    /// Read a nested state written by [`Encoder::state`]: verifies the
    /// kind tag against `target.kind()`, then hands `target.load` a
    /// sub-decoder that must consume the body exactly.
    pub fn load_state(&mut self, target: &mut impl Checkpoint) -> Result<(), CkptError> {
        let found = self.str()?;
        if found != target.kind() {
            return Err(CkptError::KindMismatch {
                expected: target.kind().to_string(),
                found,
            });
        }
        let body = self.bytes()?;
        let mut sub = Decoder::new(body);
        target.load(&mut sub)?;
        sub.expect_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.f64(-0.0);
        e.bool(true);
        e.bytes(b"abc");
        e.str("résumé");
        e.u64s(&[1, 2, 3]);
        e.i64s(&[-1, 0, 1]);
        e.f64s(&[f64::INFINITY]);
        e.bools(&[true, false]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.str().unwrap(), "résumé");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.i64s().unwrap(), vec![-1, 0, 1]);
        assert_eq!(d.f64s().unwrap(), vec![f64::INFINITY]);
        assert_eq!(d.bools().unwrap(), vec![true, false]);
        d.expect_empty().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.u64s(&[1, 2, 3]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.u64s().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn huge_length_prefix_is_rejected() {
        // A corrupted 8-byte length must not trigger a huge allocation.
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(Decoder::new(&bytes).bytes().is_err());
        assert!(Decoder::new(&bytes).f64s().is_err());
    }
}
