//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slice-by-8 table-driven.
//!
//! Every chunk of the container format carries a CRC-32 of its encoded bytes
//! and every file carries a whole-file CRC, so a torn write, a truncation or
//! a flipped bit is *detected* at restart rather than silently loaded into
//! the distribution function. CRC-32 is the standard choice for this job
//! (zlib, PNG, Lustre checksums): cheap to compute in the write path and
//! guaranteed to catch all single-bit and all burst errors up to 32 bits.
//!
//! A payload byte is checksummed once, as part of its chunk; the whole-file
//! CRC is folded from the chunk CRCs with [`crc32_combine`], which yields the
//! value a sequential pass over the same bytes would.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables, built at compile time: `TABLES[0]` is the classic
/// byte-indexed table, `TABLES[k][b]` the CRC of byte `b` followed by `k`
/// zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Streaming CRC-32 state.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the running checksum, eight bytes per table round.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
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
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Fold in `len` bytes whose own CRC-32 is `crc`, without touching them.
    pub fn append(&mut self, crc: u32, len: u64) {
        self.state = !crc32_combine(!self.state, crc, len);
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()` (zlib's
/// `crc32_combine`): appending `len_b` zero bytes to `a` is a linear map of
/// its CRC over GF(2), applied here by repeated squaring of the one-zero-bit
/// operator.
pub fn crc32_combine(mut crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
    fn times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0;
        for row in mat {
            if vec & 1 != 0 {
                sum ^= row;
            }
            vec >>= 1;
        }
        sum
    }
    fn square(mat: &[u32; 32]) -> [u32; 32] {
        std::array::from_fn(|n| times(mat, mat[n]))
    }
    if len_b == 0 {
        return crc_a;
    }
    // Operator for one zero bit, squared up to one zero byte.
    let mut op: [u32; 32] = std::array::from_fn(|n| if n == 0 { POLY } else { 1 << (n - 1) });
    for _ in 0..3 {
        op = square(&op);
    }
    while len_b != 0 {
        if len_b & 1 != 0 {
            crc_a = times(&op, crc_a);
        }
        op = square(&op);
        len_b >>= 1;
    }
    crc_a ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the slice-by-8 update replaced.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    fn noise(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        for text in [
            &b"123456789"[..],
            b"",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(crc32(text), !bytewise(!0, text));
        }
        // Every start alignment 0..8, lengths across several 8-byte rounds
        // and up to 4,099, and an `update` split at an arbitrary point.
        let data = noise(4099 + 8, 7);
        for align in 0..8 {
            for len in (0..80).chain([255, 256, 1023, 4096, 4099]) {
                let bytes = &data[align..align + len];
                let want = !bytewise(!0, bytes);
                assert_eq!(crc32(bytes), want, "align {align} len {len}");
                let cut = (len * 5 + align) % (len + 1);
                let mut c = Crc32::new();
                c.update(&bytes[..cut]);
                c.update(&bytes[cut..]);
                assert_eq!(c.finish(), want, "align {align} len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let data = noise(5000, 99);
        for (a, b) in [
            (0, 0),
            (0, 9),
            (9, 0),
            (1, 1),
            (7, 64),
            (300, 4700),
            (4096, 904),
        ] {
            let (left, right) = (&data[..a], &data[a..a + b]);
            let whole = crc32(&data[..a + b]);
            assert_eq!(
                crc32_combine(crc32(left), crc32(right), b as u64),
                whole,
                "{a} + {b}"
            );
            let mut c = Crc32::new();
            c.update(left);
            c.append(crc32(right), b as u64);
            assert_eq!(c.finish(), whole, "append {a} + {b}");
        }
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = vec![0xA5u8; 257];
        let base = crc32(&data);
        for byte in [0usize, 1, 100, 256] {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip byte {byte} bit {bit}");
            }
        }
    }
}
