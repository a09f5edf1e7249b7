//! A DEFLATE-style pipeline: LZ77 + interleaved canonical Huffman streams.
//!
//! This is the repository's "GZip-like" lossless compressor (§2.1 cites GZip
//! as the canonical lossless baseline). The format follows DEFLATE's shape —
//! one literal/length alphabet with extra bits, one distance alphabet with
//! extra bits, tokens interleaved in a single bitstream — without being
//! byte-compatible with RFC 1951.
//!
//! Frame layout:
//! `magic "ADFL" ‖ varint orig_len ‖ litlen table ‖ dist table ‖
//!  varint bitstream_len ‖ bitstream`

use crate::bitio::{read_varint, write_varint, BitReader, BitWriter};
use crate::error::LosslessError;
use crate::huffman::HuffmanCode;
use crate::lz77::{for_each_token, reconstruct, Lz77Config, Token, MAX_MATCH, MIN_MATCH};

const MAGIC: &[u8; 4] = b"ADFL";

/// End-of-block symbol in the literal/length alphabet.
const SYM_EOB: u32 = 256;
/// First length-bucket symbol.
const SYM_LEN_BASE: u32 = 257;

/// Length buckets: (base, extra bits), covering `MIN_MATCH..=MAX_MATCH`.
const LEN_BUCKETS: [(u32, u32); 26] = [
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 6),
];

/// Distance buckets: (base, extra bits), covering `1..=65536`.
const DIST_BUCKETS: [(u32, u32); 32] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
    (32769, 14),
    (49153, 14),
];

const LITLEN_ALPHABET: usize = SYM_LEN_BASE as usize + LEN_BUCKETS.len();
const DIST_ALPHABET: usize = DIST_BUCKETS.len();

/// Find the bucket for `v`: returns (index, extra-bit payload).
fn bucketize(v: u32, buckets: &[(u32, u32)]) -> (u32, u32) {
    debug_assert!(v >= buckets[0].0);
    let idx = match buckets.binary_search_by_key(&v, |b| b.0) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    (idx as u32, v - buckets[idx].0)
}

/// Inverse of [`bucketize`]: base value plus extra bits.
fn unbucketize(idx: u32, extra: u32, buckets: &[(u32, u32)]) -> Result<u32, LosslessError> {
    let (base, bits) = *buckets
        .get(idx as usize)
        .ok_or_else(|| LosslessError::malformed("bucket index out of range"))?;
    if bits < 32 && extra >= (1 << bits) {
        return Err(LosslessError::malformed("extra bits out of range"));
    }
    Ok(base + extra)
}

/// Compress `data` with the DEFLATE-like pipeline.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, &Lz77Config::default())
}

/// Compress with explicit LZ77 tuning.
pub fn compress_with(data: &[u8], cfg: &Lz77Config) -> Vec<u8> {
    // Frequency pass, as tokens arrive. Tokens wait for the emission pass
    // packed in one u32 each: a literal is its byte (below 256), a match is
    // `len << 16 | (dist - 1)` (at least `MIN_MATCH << 16`, as
    // `dist <= WINDOW = 1 << 16`).
    let mut lit_freq = vec![0u64; LITLEN_ALPHABET];
    let mut dist_freq = vec![0u64; DIST_ALPHABET];
    let mut packed = Vec::new();
    for_each_token(data, cfg, |t| match t {
        Token::Literal(b) => {
            lit_freq[b as usize] += 1;
            packed.push(b as u32);
        }
        Token::Match { len, dist } => {
            let (li, _) = bucketize(len, &LEN_BUCKETS);
            lit_freq[(SYM_LEN_BASE + li) as usize] += 1;
            let (di, _) = bucketize(dist, &DIST_BUCKETS);
            dist_freq[di as usize] += 1;
            packed.push((len << 16) | (dist - 1));
        }
    });
    lit_freq[SYM_EOB as usize] += 1;
    let lit_code = HuffmanCode::code_for_frequencies(&lit_freq);
    let dist_code = HuffmanCode::code_for_frequencies(&dist_freq);
    // Emission pass.
    let mut bits = BitWriter::new();
    for &p in &packed {
        if p < 256 {
            lit_code.encode_symbol(p, &mut bits);
            continue;
        }
        let (len, dist) = (p >> 16, (p & 0xFFFF) + 1);
        let (li, lx) = bucketize(len, &LEN_BUCKETS);
        lit_code.encode_symbol(SYM_LEN_BASE + li, &mut bits);
        bits.write_bits(lx as u64, LEN_BUCKETS[li as usize].1);
        let (di, dx) = bucketize(dist, &DIST_BUCKETS);
        dist_code.encode_symbol(di, &mut bits);
        bits.write_bits(dx as u64, DIST_BUCKETS[di as usize].1);
    }
    lit_code.encode_symbol(SYM_EOB, &mut bits);
    let payload = bits.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(MAGIC);
    write_varint(&mut out, data.len() as u64);
    lit_code.serialize(&mut out);
    dist_code.serialize(&mut out);
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Default decode output budget: a corrupted length field may not demand
/// more than this many bytes (callers with tighter limits use
/// [`decompress_with_limit`]).
pub const DEFAULT_MAX_OUTPUT: u64 = 1 << 31;

/// Decompress a frame produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, LosslessError> {
    decompress_with_limit(bytes, DEFAULT_MAX_OUTPUT)
}

/// Decompress with an explicit output-byte budget: a declared length above
/// `max_output` is rejected as [`LosslessError::WorkBudgetExceeded`] before
/// any proportional allocation happens.
pub fn decompress_with_limit(bytes: &[u8], max_output: u64) -> Result<Vec<u8>, LosslessError> {
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return Err(LosslessError::malformed("bad deflate-like magic"));
    }
    let mut pos = 4usize;
    let declared = read_varint(bytes, &mut pos)?;
    if declared > max_output {
        return Err(LosslessError::WorkBudgetExceeded { demanded: declared, budget: max_output });
    }
    let orig_len = declared as usize;
    let lit_code = HuffmanCode::deserialize(bytes, &mut pos)?;
    let dist_code = HuffmanCode::deserialize(bytes, &mut pos)?;
    if lit_code.alphabet_size() != LITLEN_ALPHABET || dist_code.alphabet_size() != DIST_ALPHABET {
        return Err(LosslessError::malformed("unexpected alphabet sizes"));
    }
    let payload_len = read_varint(bytes, &mut pos)? as usize;
    let end = pos
        .checked_add(payload_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| LosslessError::truncated("deflate payload"))?;
    let mut r = BitReader::new(&bytes[pos..end]);
    let lit_dec = lit_code.decoder();
    let dist_dec = dist_code.decoder();
    let mut tokens = Vec::new();
    let mut produced = 0usize;
    loop {
        let sym = lit_dec.decode_symbol(&mut r)?;
        if sym == SYM_EOB {
            break;
        }
        if sym < 256 {
            tokens.push(Token::Literal(sym as u8));
            produced += 1;
        } else {
            let li = sym - SYM_LEN_BASE;
            let lbits = LEN_BUCKETS
                .get(li as usize)
                .ok_or_else(|| LosslessError::malformed("length symbol out of range"))?
                .1;
            let lx = r.read_bits(lbits)? as u32;
            let len = unbucketize(li, lx, &LEN_BUCKETS)?;
            if (len as usize) < MIN_MATCH || (len as usize) > MAX_MATCH {
                return Err(LosslessError::malformed("decoded length out of range"));
            }
            let di = dist_dec.decode_symbol(&mut r)?;
            let dbits = DIST_BUCKETS[di as usize].1;
            let dx = r.read_bits(dbits)? as u32;
            let dist = unbucketize(di, dx, &DIST_BUCKETS)?;
            tokens.push(Token::Match { len, dist });
            produced += len as usize;
        }
        if produced > orig_len.saturating_add(MAX_MATCH) {
            return Err(LosslessError::malformed("stream produces more than declared length"));
        }
    }
    let out = reconstruct(&tokens)?;
    if out.len() != orig_len {
        return Err(LosslessError::malformed(format!(
            "decoded {} bytes, header declared {orig_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        c
    }

    #[test]
    fn buckets_cover_full_ranges() {
        for v in MIN_MATCH as u32..=MAX_MATCH as u32 {
            let (i, x) = bucketize(v, &LEN_BUCKETS);
            assert_eq!(unbucketize(i, x, &LEN_BUCKETS).unwrap(), v);
            assert!(x < (1 << LEN_BUCKETS[i as usize].1).max(1));
        }
        for v in [1u32, 2, 100, 1000, 65535, 65536] {
            let (i, x) = bucketize(v, &DIST_BUCKETS);
            assert_eq!(unbucketize(i, x, &DIST_BUCKETS).unwrap(), v);
        }
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn text_round_trip_and_compression() {
        let data = "lossy compression reduces data size considerably. ".repeat(100).into_bytes();
        let c = round_trip(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
    }

    #[test]
    fn binary_patterns() {
        let mut data = Vec::new();
        for i in 0..10_000u32 {
            data.extend_from_slice(&(i % 300).to_le_bytes());
        }
        round_trip(&data);
    }

    #[test]
    fn incompressible_random_round_trips() {
        let data: Vec<u8> =
            (0..5000u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8).collect();
        round_trip(&data);
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut c = compress(b"hello world hello world");
        c[0] ^= 0xFF;
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let c = compress(&b"abcdefgh".repeat(50));
        for cut in [5usize, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(30);
        let c = compress(&data);
        for i in (0..c.len()).step_by(3) {
            let mut bad = c.clone();
            bad[i] ^= 1 << (i % 8);
            // Either error or wrong bytes — both acceptable, panics are not.
            let _ = decompress(&bad);
        }
    }

    #[test]
    fn declared_length_mismatch_detected() {
        let data = b"mismatch test data mismatch test data".to_vec();
        let mut c = compress(&data);
        // Patch the varint length field (byte 4, values < 128 occupy 1 byte).
        assert!(c[4] as usize == data.len());
        c[4] = c[4].wrapping_add(1);
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn single_byte_and_runs() {
        round_trip(b"x");
        round_trip(&vec![0u8; 100_000]);
        round_trip(&[0xFFu8; 3]);
    }
}
