//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes per step.
//!
//! Used as the frame integrity check. Implemented from scratch — the
//! offline crate set has no checksum crate — with the standard reflected
//! algorithm (polynomial `0xEDB88320`, init `0xFFFFFFFF`, final XOR
//! `0xFFFFFFFF`).
//!
//! The kernel is slicing-by-8 (Kounavis & Berry, ISCC 2005). `TABLES[0]`
//! is the classic byte table; `TABLES[k][b]` is the CRC contribution of
//! byte `b` followed by `k` zero bytes. The running CRC is XORed into the
//! first four bytes of each 8-byte block, and the block then folds with
//! eight independent lookups, one per byte, instead of eight dependent
//! ones. The 0–7 byte tail takes the byte-at-a-time step. Every checksum
//! equals the byte-at-a-time one, so the wire bytes do not depend on it.
//!
//! There is no hardware path: SSE4.2's `crc32` instruction computes
//! CRC-32C (Castagnoli), a different polynomial that would change every
//! frame's checksum, and carry-less-multiply folding needs `std::arch`
//! and `unsafe`, which the crate forbids.

/// The slicing tables (8 × 256 entries, 8 KB), built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

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
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][block[4] as usize]
            ^ t[2][block[5] as usize]
            ^ t[1][block[6] as usize]
            ^ t[0][block[7] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slicing kernel replaced, kept as the
    /// reference every length and alignment is checked against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_bytewise_at_every_length_and_offset() {
        // One seeded buffer (xorshift32); every length 0..=64 at every
        // start offset 0..8 covers each tail length and block boundary.
        let mut state = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..72)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"some frame payload";
        let original = crc32(data);
        let mut corrupted = data.to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), original, "missed flip at {byte}:{bit}");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn matches_bytewise(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            }
        }
    }
}
