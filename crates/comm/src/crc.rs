//! Table-driven CRC-32 (IEEE 802.3 polynomial, reflected), the same
//! checksum gzip and zlib use, sixteen bytes per step (slicing-by-16):
//! table `k` holds the checksum of a byte followed by `k` zero bytes, so
//! the sixteen look-ups of one step do not depend on one another. The
//! tables are built in a `const fn` so there is no startup cost and no
//! external dependency. (The x86 `crc32` instruction computes the
//! Castagnoli polynomial, not this one.)
//!
//! [`crc32_update`] continues a checksum over more bytes and
//! [`crc32_combine`] joins the checksums of two adjacent byte runs
//! without reading either, so a writer that already knows the CRC of a
//! payload never sums it a second time for the CRC of what contains it.
//! The kernel uses the same join on itself: each step waits on the one
//! before, so a run of `TWO_STREAMS` bytes or more is summed as two
//! halves side by side, whose chains overlap, and the halves joined.
//!
//! Lives in `qmc-comm` — the bottom of the workspace dependency graph —
//! because both the checkpoint wire format (`qmc-ckpt`) and the TCP
//! frame transport ([`crate::tcp`]) guard their payloads with it.

/// The reflected polynomial.
const POLY: u32 = 0xEDB8_8320;

// Polynomials modulo the CRC polynomial, as reflected bit strings:
// bit 31 is the coefficient of x⁰, bit 0 that of x³¹.

/// `p · x`: one bit through the shift register.
const fn times_x(p: u32) -> u32 {
    if p & 1 != 0 {
        (p >> 1) ^ POLY
    } else {
        p >> 1
    }
}

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

static TABLES: [[u32; 256]; 16] = build_tables();

/// One byte folded into a running (pre-inverted) checksum.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// The four look-ups of one little-endian word whose bytes sit `k + 3`
/// down to `k` places before the end of a step.
#[inline(always)]
fn word(w: u32, k: usize) -> u32 {
    TABLES[k + 3][(w & 0xFF) as usize]
        ^ TABLES[k + 2][((w >> 8) & 0xFF) as usize]
        ^ TABLES[k + 1][((w >> 16) & 0xFF) as usize]
        ^ TABLES[k][(w >> 24) as usize]
}

/// One sixteen-byte step.
#[inline(always)]
fn step16(crc: u32, s: &[u8]) -> u32 {
    let le = |i: usize| u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
    word(crc ^ le(0), 12) ^ word(le(4), 8) ^ word(le(8), 4) ^ word(le(12), 0)
}

/// `bytes` folded into a running (pre-inverted) checksum, one chain.
fn fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut steps = bytes.chunks_exact(16);
    for s in &mut steps {
        crc = step16(crc, s);
    }
    for &b in steps.remainder() {
        crc = step(crc, b);
    }
    crc
}

/// Runs at least this long are summed as two halves side by side: below
/// it the join costs more than the overlap saves.
const TWO_STREAMS: usize = 256;

/// CRC-32 of `bytes` (IEEE, reflected, init/xorout `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// The CRC-32 of `a ‖ bytes`, given `crc = crc32(a)`:
/// `crc32_update(0, b) == crc32(b)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    if bytes.len() < TWO_STREAMS {
        return !fold(!crc, bytes);
    }
    // `a` is whole steps and no longer than `b`, so the zip takes every
    // step of `a` and the same number of `b`'s.
    let (a, b) = bytes.split_at(bytes.len() / 32 * 16);
    let (mut ca, mut cb) = (!crc, !0);
    for (sa, sb) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
        ca = step16(ca, sa);
        cb = step16(cb, sb);
    }
    let cb = fold(cb, &b[a.len()..]);
    crc32_combine(!ca, !cb, b.len() as u64)
}

/// x⁰.
const ONE: u32 = 1 << 31;

const fn build_times_x4() -> [u32; 16] {
    let mut table = [0u32; 16];
    let mut j = 0;
    while j < 16 {
        table[j] = times_x(times_x(times_x(times_x(j as u32))));
        j += 1;
    }
    table
}

/// `TIMES_X4[j]`: the low nibble `j` (x²⁸ … x³¹) times x⁴.
const TIMES_X4: [u32; 16] = build_times_x4();

/// `a · b`, four bits of `a` at a time, highest degree first.
const fn multmodp(a: u32, b: u32) -> u32 {
    // Bit k of a nibble stands for x^(3 − k) times the nibble's base.
    let b1 = times_x(b);
    let b2 = times_x(b1);
    let by_bit = [times_x(b2), b2, b1, b];
    let mut nibble_times_b = [0u32; 16];
    let mut i = 1;
    while i < 16 {
        nibble_times_b[i] = nibble_times_b[i & (i - 1)] ^ by_bit[i.trailing_zeros() as usize];
        i += 1;
    }
    let mut p = 0;
    let mut t = 0;
    while t < 32 {
        p = (p >> 4) ^ TIMES_X4[(p & 0xF) as usize] ^ nibble_times_b[((a >> t) & 0xF) as usize];
        t += 4;
    }
    p
}

/// `[x^(8j), x^(2048j)]` for `j` in `0..256`: the shift past `j` and
/// past `256 j` zero bytes.
const fn build_shift_tables() -> [[u32; 256]; 2] {
    let mut tables = [[ONE; 256]; 2];
    let x8 = ONE >> 8;
    let mut j = 1;
    while j < 256 {
        tables[0][j] = multmodp(tables[0][j - 1], x8);
        j += 1;
    }
    let x2048 = multmodp(tables[0][255], x8);
    let mut j = 1;
    while j < 256 {
        tables[1][j] = multmodp(tables[1][j - 1], x2048);
        j += 1;
    }
    tables
}

static SHIFT: [[u32; 256]; 2] = build_shift_tables();

/// x^(8 · `len`): the operator that moves a checksum past `len` zero
/// bytes. Two look-ups below 64 KiB, then one squaring per further bit.
fn x8nmodp(len: u64) -> u32 {
    let mut p = multmodp(
        SHIFT[0][(len & 0xFF) as usize],
        SHIFT[1][((len >> 8) & 0xFF) as usize],
    );
    let mut rest = len >> 16;
    if rest != 0 {
        let mut square = multmodp(SHIFT[1][255], SHIFT[1][1]); // x^(8 · 2¹⁶)
        while rest != 0 {
            if rest & 1 != 0 {
                p = multmodp(p, square);
            }
            square = multmodp(square, square);
            rest >>= 1;
        }
    }
    p
}

/// The CRC-32 of `a ‖ b`, given `crc_a = crc32(a)`, `crc_b = crc32(b)`
/// and `len_b = b.len()`, without the bytes: the CRC of `a` moved past
/// `len_b` bytes, plus that of `b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One table look-up per byte, as `crc32` once was: the oracle.
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

    /// Every split of a buffer into sixteen-byte steps and a tail, at
    /// every alignment of its first byte, on either side of
    /// [`TWO_STREAMS`].
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

    /// Update and combine against the CRC of the concatenation, at every
    /// split of a buffer whose length runs through the steps' tails.
    #[test]
    fn update_and_combine_equal_the_crc_of_the_concatenation_at_every_split() {
        let data = xorshift_bytes(300);
        for len in [0, 1, 15, 16, 17, 63, 64, 65, 129, 300] {
            let whole = crc32(&data[..len]);
            for cut in 0..=len {
                let (a, b) = data[..len].split_at(cut);
                let ctx = format!("length {len}, cut {cut}");
                assert_eq!(crc32_update(crc32(a), b), whole, "update, {ctx}");
                let joined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                assert_eq!(joined, whole, "combine, {ctx}");
            }
        }
    }

    /// Lengths past the two shift tables (64 KiB and more), and a
    /// combine of combines.
    #[test]
    fn combine_spans_a_mebibyte_and_three_parts() {
        let data = xorshift_bytes((1 << 20) + (1 << 16) + 37);
        let (a, rest) = data.split_at(5);
        let (b, c) = rest.split_at((1 << 20) + 3);
        let ab = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        let abc = crc32_combine(ab, crc32(c), c.len() as u64);
        assert_eq!(abc, crc32(&data));
        let bc = crc32_combine(crc32(b), crc32(c), c.len() as u64);
        assert_eq!(crc32_combine(crc32(a), bc, rest.len() as u64), abc);
    }
}
