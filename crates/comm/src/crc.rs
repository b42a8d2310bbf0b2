//! Table-driven CRC-32 (IEEE 802.3 polynomial, reflected), the same
//! checksum gzip and zlib use, eight bytes per step (slicing-by-8): table
//! `k` holds the checksum of a byte followed by `k` zero bytes, so the
//! eight look-ups of one step do not depend on one another. The tables
//! are built in a `const fn` so there is no startup cost and no external
//! dependency. (The x86 `crc32` instruction computes the Castagnoli
//! polynomial, not this one.)
//!
//! Lives in `qmc-comm` — the bottom of the workspace dependency graph —
//! because both the checkpoint wire format (`qmc-ckpt`) and the TCP
//! frame transport ([`crate::tcp`]) guard their payloads with it.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte folded into a running (pre-inverted) checksum.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = step(crc, b);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-look-up-per-byte loop `crc32` was before it took eight
    /// bytes per step: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |crc, &b| step(crc, b)) ^ 0xFFFF_FFFF
    }

    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
    }

    /// Every split of a buffer into eight-byte steps and a tail, at every
    /// alignment of its first byte.
    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let data = xorshift_bytes(308);
        for offset in 0..8 {
            for len in 0..300 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_a_mebibyte() {
        let data = xorshift_bytes(1 << 20);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }
}
