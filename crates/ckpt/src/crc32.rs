//! CRC-32 of the checkpoint wire format: [`qmc_comm::crc`], re-exported.
//! The image writers also continue a checksum ([`crc32_update`]) and join
//! two ([`crc32_combine`]), so a payload's bytes are summed once.

pub use qmc_comm::crc::crc32;
pub(crate) use qmc_comm::crc::{crc32_combine, crc32_update};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_crc_is_the_shared_ieee_crc32() {
        // The on-disk format is pinned to IEEE CRC-32; if the shared
        // implementation ever drifted, every existing checkpoint file
        // would be rejected wholesale.
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
}
