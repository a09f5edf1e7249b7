//! CRC-32 (IEEE 802.3 polynomial) used to locate corrupted Reed-Solomon
//! devices.
//!
//! Jerasure — the library ARC wraps for Reed-Solomon — is an *erasure* code:
//! it repairs devices whose locations are already known. Soft errors give no
//! such location, so the device codec in this crate stores a CRC-32 per
//! device; devices whose checksum no longer matches are declared erased and
//! handed to the erasure decoder. A 32-bit CRC detects all burst errors up to
//! 32 bits and misses a random corruption with probability 2^-32 per device,
//! which is negligible beside the paper's error rates (§6.4: ~1 error per
//! 1.9 days per 8,500-node machine).

/// Length in bytes of a serialized CRC value.
pub const CRC_LEN: usize = 4;

const POLY: u32 = 0xEDB8_8320; // reflected IEEE polynomial

/// Slice-by-16 lookup tables. `t[0]` is the classic byte-at-a-time table;
/// `t[j][b]` advances the contribution of byte `b` through `j` further zero
/// bytes, so sixteen independent lookups fold a whole 16-byte block into the
/// state at once (Intel's "slicing-by-8" generalized). Values are identical
/// to the byte-at-a-time CRC for every input — only throughput changes.
static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();

fn tables() -> &'static [[u32; 256]; 16] {
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            t[0][i as usize] = c;
        }
        for j in 1..16 {
            for i in 0..256 {
                let prev = t[j - 1][i];
                t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Force-build the CRC tables (called from [`crate::gf256::warm_tables`]).
pub(crate) fn warm_crc_tables() {
    let _ = tables();
}

/// Streaming CRC-32 hasher.
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
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    ///
    /// Slice-by-16 main loop: each iteration folds 16 input bytes with 16
    /// independent table lookups (no loop-carried dependency between them),
    /// which is ~an order of magnitude faster than the byte-at-a-time
    /// recurrence and bit-identical to it.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let mut blocks = data.chunks_exact(16);
        for d in &mut blocks {
            let x = c ^ u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][usize::from(d[4])]
                ^ t[10][usize::from(d[5])]
                ^ t[9][usize::from(d[6])]
                ^ t[8][usize::from(d[7])]
                ^ t[7][usize::from(d[8])]
                ^ t[6][usize::from(d[9])]
                ^ t[5][usize::from(d[10])]
                ^ t[4][usize::from(d[11])]
                ^ t[3][usize::from(d[12])]
                ^ t[2][usize::from(d[13])]
                ^ t[1][usize::from(d[14])]
                ^ t[0][usize::from(d[15])];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// CRC-32 of a slice that is logically extended with `pad` zero bytes.
///
/// The last Reed-Solomon data device is usually shorter than the device size;
/// its checksum is computed over the zero-padded logical device so encode and
/// decode agree without materializing the padding.
pub fn crc32_zero_padded(data: &[u8], pad: usize) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    const ZEROS: [u8; 256] = [0u8; 256];
    let mut remaining = pad;
    while remaining > 0 {
        let n = remaining.min(ZEROS.len());
        h.update(&ZEROS[..n]);
        remaining -= n;
    }
    h.finalize()
}

/// `a · b mod P` over GF(2) in the reflected bit order the CRC uses (bit
/// 31 is the x⁰ coefficient).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut i = 0;
    while i < 32 {
        if a & (1 << (31 - i)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        i += 1;
    }
    p
}

/// `X2N[k]` = x^(2^k) mod P.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// CRC-32 of `A ‖ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()`, without touching the bytes (zlib's
/// `crc32_combine`): shifting A's remainder past B's bytes is a multiply
/// by x^(8·len_b) mod P, assembled from the `X2N` powers. O(log len_b).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    let mut shift = 1u32 << 31; // x⁰
    let mut n = len_b;
    for &x2n in X2N.iter().cycle().skip(3) {
        if n == 0 {
            break;
        }
        if n & 1 != 0 {
            shift = multmodp(x2n, shift);
        }
        n >>= 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_check(data: &[u8], at: usize) {
        let (a, b) = data.split_at(at);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(data), "split at {at}");
    }

    #[test]
    fn combine_matches_concatenation() {
        let data: Vec<u8> = (0..300u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        // Empty halves on either side.
        split_check(&data, 0);
        split_check(&data, data.len());
        assert_eq!(crc32_combine(0, 0, 0), 0);
        // Lengths around the 16-byte slice boundary, on both sides.
        for len in [1usize, 15, 16, 17, 31, 32, 33] {
            split_check(&data[..len + 40], 40);
            split_check(&data[..len + 40], len);
        }
        // Pseudo-random splits of pseudo-random lengths.
        let mut x = 0x2545_F491u32;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let len = x as usize % (data.len() + 1);
            let at = (x >> 9) as usize % (len + 1);
            split_check(&data[..len], at);
        }
    }

    #[test]
    fn x2n_powers_cycle_with_period_32() {
        // `crc32_combine` wraps to X2N[0] once len_b reaches 2^29 bytes;
        // that is sound because x^(2^32) ≡ x mod P.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_with_zeros_matches_zero_padding() {
        let head = b"shard payload";
        let zeros = vec![0u8; 3 << 20];
        for n in [0usize, 1, 15, 16, 17, 255, 256, 4097, 1 << 20, (3 << 20) - 1, 3 << 20] {
            assert_eq!(
                crc32_combine(crc32(head), crc32(&zeros[..n]), n),
                crc32_zero_padded(head, n),
                "n={n}"
            );
        }
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(13) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn zero_padding_matches_explicit_zeros() {
        let data = b"device payload";
        let mut padded = data.to_vec();
        padded.extend(std::iter::repeat_n(0u8, 700));
        assert_eq!(crc32_zero_padded(data, 700), crc32(&padded));
        assert_eq!(crc32_zero_padded(data, 0), crc32(data));
    }

    /// The pre-slicing byte-at-a-time recurrence, kept as the ground truth
    /// the slice-by-16 loop must reproduce bit-for-bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = tables();
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_16_matches_bytewise_reference() {
        let data: Vec<u8> =
            (0..5000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        for len in [0usize, 1, 3, 15, 16, 17, 31, 32, 33, 64, 255, 256, 1000, 4999, 5000] {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "len={len}");
        }
        // Unaligned starts exercise every remainder phase.
        for off in 0..17usize {
            assert_eq!(crc32(&data[off..]), crc32_bytewise(&data[off..]), "off={off}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let base = crc32(&data);
        let mut corrupted = data.clone();
        for bit in [0u64, 1, 8, 4095 * 8 + 7] {
            crate::bits::flip_bit(&mut corrupted, bit);
            assert_ne!(crc32(&corrupted), base, "bit {bit}");
            crate::bits::flip_bit(&mut corrupted, bit);
        }
    }
}
