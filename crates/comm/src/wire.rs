//! The one byte codec: little-endian primitives and length-prefixed
//! slices, for checkpoint files, the job protocol and the rank-record
//! gather alike. [`Encoder`] is infallible; every [`Decoder`] read is
//! bounds-checked and returns a [`WireError`] instead of panicking, and
//! no read reserves room for more items than the bytes left could hold,
//! because the bytes are external input (a torn file, another protocol
//! revision, a hostile count). [`f64s_to_bytes`] / [`bytes_to_f64s`] are
//! the unprefixed `f64` payload the collectives and the tempering swap send.

use std::fmt;

/// What can go wrong decoding: the bytes ran out, or they do not hold a
/// value of the shape being read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes while reading `what`.
    Truncated {
        /// The item being read.
        what: &'static str,
    },
    /// Structurally invalid content (bad enum tag, out-of-range value,
    /// trailing bytes, …).
    Corrupt {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "payload truncated while reading {what}"),
            WireError::Corrupt { detail } => write!(f, "corrupt payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Shorthand for a [`WireError::Corrupt`] with a formatted detail.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        WireError::Corrupt {
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
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Finished byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn written(&self) -> &[u8] {
        &self.buf
    }

    /// Append bytes that are already encoded.
    pub fn raw(&mut self, bytes: &[u8]) {
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
    pub fn prefixed(&mut self, body: impl FnOnce(&mut Self)) {
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
}

/// Bounds-checked reader over an encoded byte slice. A clone reads on
/// from the same position without moving the original: a peek.
#[derive(Clone)]
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
    pub fn expect_empty(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `n` items of at least `item_bytes` each fit in what is left.
    /// Checked before anything is reserved, so a hostile count costs an
    /// error, not an allocation.
    fn fits(&self, n: u64, item_bytes: u64, what: &'static str) -> Result<usize, WireError> {
        if n.checked_mul(item_bytes)
            .is_none_or(|b| b > self.remaining() as u64)
        {
            return Err(WireError::Truncated { what });
        }
        Ok(n as usize)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, "u32")?
                .try_into()
                .expect("take returned 4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, "u64")?
                .try_into()
                .expect("take returned 8 bytes"),
        ))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8, "i64")?
                .try_into()
                .expect("take returned 8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a `u64` item count, refusing it as [`WireError::Truncated`]
    /// when that many items of at least `min_item_bytes` (≥ 1) each
    /// cannot fit in the bytes left. A caller may then reserve the count.
    pub fn count(&mut self, min_item_bytes: u64) -> Result<usize, WireError> {
        let n = self.u64()?;
        self.fits(n, min_item_bytes, "count")
    }

    /// [`Decoder::count`] for a count written as a `u32`.
    pub fn count_u32(&mut self, min_item_bytes: u64) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.fits(n.into(), min_item_bytes, "count")
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u64()?;
        let n = self.fits(n, 1, "bytes")?;
        self.take(n, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::corrupt("string is not valid UTF-8"))
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u64()?;
        let n = self.fits(n, 8, "u64 slice")?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a length-prefixed `i64` slice.
    pub fn i64s(&mut self) -> Result<Vec<i64>, WireError> {
        let n = self.u64()?;
        let n = self.fits(n, 8, "i64 slice")?;
        (0..n).map(|_| self.i64()).collect()
    }

    /// Read a length-prefixed `f64` slice (bit patterns).
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u64()?;
        let n = self.fits(n, 8, "f64 slice")?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Read a length-prefixed `bool` slice.
    pub fn bools(&mut self) -> Result<Vec<bool>, WireError> {
        let n = self.u64()?;
        let n = self.fits(n, 1, "bool slice")?;
        self.take(n, "bool slice")?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(WireError::corrupt(format!("invalid bool byte {b}"))),
            })
            .collect()
    }
}

/// Encode a `f64` slice as little-endian bytes, unprefixed.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode unprefixed little-endian bytes into `f64`s (length must be a
/// multiple of 8).
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "byte payload length {} is not a multiple of 8",
        bytes.len()
    );
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
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

    #[test]
    fn a_count_must_fit_in_the_bytes_left() {
        let mut e = Encoder::new();
        e.u64(2);
        e.u32(2);
        e.raw(&[0; 16]);
        let bytes = e.into_bytes();
        // 20 bytes follow the u64 count and 16 the u32 one: two 8-byte
        // items fit after either, two 9- or 16-byte items do not.
        assert_eq!(Decoder::new(&bytes).count(8), Ok(2));
        assert_eq!(Decoder::new(&bytes[8..]).count_u32(8), Ok(2));
        assert!(Decoder::new(&bytes).count(16).is_err());
        assert!(Decoder::new(&bytes[8..]).count_u32(9).is_err());
        // A count whose byte total overflows u64 is refused, not wrapped.
        assert!(Decoder::new(&[0xFF; 8]).count(2).is_err());
    }

    /// Deterministic 64-bit scrambler (SplitMix64 step) so the roundtrip
    /// tests cover many bit patterns without an external property-test
    /// dependency.
    fn scramble(i: u64) -> u64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn f64_roundtrip() {
        // Random-ish patterns plus the special values (NaN, ±∞, ±0,
        // subnormals) whose bit patterns must survive unchanged.
        for len in [0usize, 1, 2, 7, 63] {
            let mut xs: Vec<f64> = (0..len as u64)
                .map(|i| f64::from_bits(scramble(i)))
                .collect();
            xs.extend([
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                f64::MIN_POSITIVE / 2.0,
            ]);
            let back = bytes_to_f64s(&f64s_to_bytes(&xs));
            assert_eq!(back.len(), xs.len());
            for (a, b) in back.iter().zip(&xs) {
                assert!(a.to_bits() == b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_ragged_payload() {
        bytes_to_f64s(&[1, 2, 3]);
    }
}
