//! Bit-interleaved SEC-DED: burst tolerance from single-error codes.
//!
//! One of the paper's future-work directions is adding ECC algorithms (§7).
//! Interleaving is the classic way to stretch a single-error-correcting
//! code across bursts: `depth` SEC-DED(72,64) codewords are woven together
//! bit-by-bit so that any contiguous burst of at most `depth` bits lands at
//! most one bit in each codeword — and SEC-DED fixes one bit per codeword.
//!
//! Against ARC's built-ins this sits between SEC-DED (12.5% overhead, no
//! burst tolerance) and Reed-Solomon (burst-proof but slow to encode): it
//! keeps SEC-DED's overhead and syndrome-speed decoding while correcting
//! bursts up to `depth` bits. It is exposed through the extension API
//! rather than the paper-faithful `EccConfig` space.

use crate::bits::{get_bit, set_bit};
use crate::codec::{
    single_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};
use crate::hamming::{layout, BlockWidth};

/// Interleaved SEC-DED over 64-bit codewords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterleavedSecDed {
    /// Number of codewords woven together; a burst of up to `depth` bits is
    /// correctable. Superblocks span `8 × depth` data bytes.
    pub depth: usize,
}

impl InterleavedSecDed {
    /// Create a scheme; `depth` must be in `2..=4096`.
    pub fn new(depth: usize) -> Result<InterleavedSecDed, EccError> {
        if !(2..=4096).contains(&depth) {
            return Err(EccError::InvalidConfig(format!(
                "interleaved secded: depth must be in 2..=4096, got {depth}"
            )));
        }
        Ok(InterleavedSecDed { depth })
    }

    /// Data bytes per superblock.
    fn super_bytes(&self) -> usize {
        8 * self.depth
    }

    /// Gather logical codeword `j` of a (possibly partial) superblock.
    #[inline]
    fn gather(&self, block: &[u8], j: usize) -> u64 {
        let total_bits = block.len() as u64 * 8;
        let mut v = 0u64;
        for p in 0..64u64 {
            let bit = p * self.depth as u64 + j as u64;
            if bit < total_bits && get_bit(block, bit) {
                v |= 1 << p;
            }
        }
        v
    }

    /// Scatter codeword `j` back into the superblock.
    #[inline]
    fn scatter(&self, block: &mut [u8], j: usize, v: u64) {
        let total_bits = block.len() as u64 * 8;
        for p in 0..64u64 {
            let bit = p * self.depth as u64 + j as u64;
            if bit < total_bits {
                set_bit(block, bit, (v >> p) & 1 == 1);
            }
        }
    }

    fn parity_bits_of(v: u64) -> u8 {
        let lay = layout(BlockWidth::W64);
        let ham = lay.parity_of(v);
        let overall = ((v.count_ones() + ham.count_ones()) & 1) as u8;
        (ham as u8 & 0x7F) | (overall << 7)
    }
}

impl EccScheme for InterleavedSecDed {
    fn name(&self) -> &'static str {
        "interleaved-secded"
    }

    fn parity_len(&self, data_len: usize) -> usize {
        // One parity byte (7 Hamming bits + overall) per codeword; `depth`
        // codewords per superblock, including the partial tail superblock.
        let supers = data_len.div_ceil(self.super_bytes());
        supers * self.depth
    }

    fn storage_overhead(&self) -> f64 {
        // Asymptotically one parity byte per 8 data bytes.
        0.125
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        assert_eq!(parity.len(), self.parity_len(data.len()), "parity region size mismatch");
        // The assert above sizes `parity` exactly; `if let` keeps the loop
        // abort-free regardless.
        let mut out = parity.iter_mut();
        for block in data.chunks(self.super_bytes()) {
            for j in 0..self.depth {
                if let Some(slot) = out.next() {
                    *slot = Self::parity_bits_of(self.gather(block, j));
                }
            }
        }
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "interleaved secded parity region {} bytes, expected {expected}",
                    parity.len()
                ),
            });
        }
        let lay = layout(BlockWidth::W64);
        let sb = self.super_bytes();
        let mut report = CorrectionReport::default();
        for (s, block) in data.chunks_mut(sb).enumerate() {
            let block_bits = block.len() as u64 * 8;
            for j in 0..self.depth {
                report.blocks_checked += 1;
                let mut v = self.gather(block, j);
                let stored = parity[s * self.depth + j];
                let stored_ham = (stored & 0x7F) as u32;
                let stored_overall = stored >> 7 == 1;
                let recomputed_ham = lay.parity_of(v);
                let syndrome = recomputed_ham ^ stored_ham;
                let overall_now = ((v.count_ones() + stored_ham.count_ones()) & 1) == 1;
                match (syndrome, overall_now != stored_overall) {
                    (0, false) => {}
                    (0, true) => {
                        parity[s * self.depth + j] ^= 0x80;
                        report.corrected_bits += 1;
                    }
                    (syn, true) => {
                        if syn > lay.n {
                            return Err(EccError::Uncorrectable {
                                scheme: "interleaved-secded",
                                detail: format!(
                                    "impossible syndrome {syn} (superblock {s}, lane {j})"
                                ),
                            });
                        }
                        match lay.pos_to_databit[syn as usize] {
                            Some(bit) => {
                                // The corrected bit must exist in this
                                // (possibly partial) superblock.
                                let raw = bit as u64 * self.depth as u64 + j as u64;
                                if raw >= block_bits {
                                    return Err(EccError::Uncorrectable {
                                        scheme: "interleaved-secded",
                                        detail: format!(
                                            "syndrome points into tail padding (superblock {s}, lane {j})"
                                        ),
                                    });
                                }
                                v ^= 1u64 << bit;
                                self.scatter(block, j, v);
                            }
                            None => {
                                let pbit = syn.trailing_zeros();
                                parity[s * self.depth + j] ^= 1 << pbit;
                            }
                        }
                        report.corrected_bits += 1;
                    }
                    (_, false) => {
                        return Err(EccError::Uncorrectable {
                            scheme: "interleaved-secded",
                            detail: format!("double-bit error in superblock {s}, lane {j}"),
                        });
                    }
                }
            }
        }
        Ok(report)
    }

    fn capability(&self) -> Capability {
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: true, // bursts up to `depth` bits
            correctable_per_mb: single_correct_rate_per_mb(MB / 8.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 89) ^ (i >> 2)) as u8).collect()
    }

    #[test]
    fn validates_depth() {
        assert!(InterleavedSecDed::new(1).is_err());
        assert!(InterleavedSecDed::new(5000).is_err());
        assert!(InterleavedSecDed::new(64).is_ok());
    }

    #[test]
    fn clean_round_trip() {
        for depth in [2usize, 8, 64, 100] {
            let s = InterleavedSecDed::new(depth).unwrap();
            let data = sample(3000);
            let enc = s.encode(&data);
            let (out, report) = s.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data, "depth {depth}");
            assert!(report.is_clean());
        }
    }

    #[test]
    fn overhead_matches_secded_w64() {
        let s = InterleavedSecDed::new(64).unwrap();
        // Asymptotic 12.5%; exact for multiples of the superblock.
        assert_eq!(s.parity_len(8 * 64 * 10), 64 * 10);
        assert!((s.storage_overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn corrects_every_single_bit_flip_in_data() {
        let s = InterleavedSecDed::new(8).unwrap();
        let data = sample(8 * 8 * 3); // three full superblocks
        let enc = s.encode(&data);
        for bit in 0..(data.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, report) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "bit {bit}");
            assert_eq!(report.corrected_bits, 1);
        }
    }

    #[test]
    fn corrects_bursts_up_to_depth_bits() {
        let depth = 32;
        let s = InterleavedSecDed::new(depth).unwrap();
        let data = sample(8 * depth * 4);
        let enc = s.encode(&data);
        // Bursts of exactly `depth` contiguous bits at various offsets,
        // including straddling superblock boundaries.
        for start in [0u64, 13, 777, (8 * depth as u64 * 8) - 16, 2048] {
            let mut bad = enc.clone();
            for b in 0..depth as u64 {
                let bit = start + b;
                if bit < data.len() as u64 * 8 {
                    flip_bit(&mut bad, bit);
                }
            }
            let (out, _) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "burst at {start}");
        }
    }

    #[test]
    fn plain_secded_fails_the_same_burst() {
        // The motivating contrast: an un-interleaved SEC-DED cannot survive
        // a multi-bit burst inside one codeword.
        let s = crate::secded::SecDed::w64();
        let data = sample(512);
        let mut enc = crate::codec::EccScheme::encode(&s, &data);
        for b in 100..116u64 {
            flip_bit(&mut enc, b);
        }
        assert!(crate::codec::EccScheme::decode(&s, &enc, data.len()).is_err());
    }

    #[test]
    fn burst_longer_than_depth_detected() {
        let depth = 8;
        let s = InterleavedSecDed::new(depth).unwrap();
        let data = sample(8 * depth * 2);
        let mut enc = s.encode(&data);
        // 3×depth-bit burst: some lane collects ≥2 flips → double detect.
        for b in 0..(3 * depth as u64) {
            flip_bit(&mut enc, 64 + b);
        }
        match s.decode(&enc, data.len()) {
            Err(_) => {}
            Ok((out, _)) => assert_ne!(out, data, "must not silently claim success"),
        }
    }

    #[test]
    fn ragged_tail_superblock() {
        let s = InterleavedSecDed::new(16).unwrap();
        let data = sample(8 * 16 + 37); // one full + one partial superblock
        let enc = s.encode(&data);
        let (out, _) = s.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        for bit in (0..data.len() as u64 * 8).step_by(7) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, _) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "tail bit {bit}");
        }
    }

    #[test]
    fn parity_region_flips_are_handled() {
        let s = InterleavedSecDed::new(8).unwrap();
        let data = sample(8 * 8 * 2);
        let enc = s.encode(&data);
        for bit in (data.len() as u64 * 8)..(enc.len() as u64 * 8) {
            let mut bad = enc.clone();
            flip_bit(&mut bad, bit);
            let (out, report) = s.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "parity bit {bit}");
            assert_eq!(report.corrected_bits, 1);
        }
    }

    #[test]
    fn works_through_extension_style_dyn_dispatch() {
        let s: std::sync::Arc<dyn EccScheme> =
            std::sync::Arc::new(InterleavedSecDed::new(16).unwrap());
        let data = sample(1000);
        let enc = s.encode(&data);
        let (out, _) = s.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_input() {
        let s = InterleavedSecDed::new(4).unwrap();
        let enc = s.encode(&[]);
        assert!(enc.is_empty());
        assert!(s.decode(&enc, 0).unwrap().0.is_empty());
    }
}
