//! Payload encoding helpers (little-endian byte layouts).

/// Encode a `f64` slice as little-endian bytes.
pub fn f64s_to_bytes(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into `f64`s (length must be a multiple
/// of 8).
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
