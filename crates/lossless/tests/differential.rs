//! Differential tests: the word-at-a-time matcher and bit reader against
//! bit-serial and per-position reference implementations kept here as
//! oracles. The oracles are the pre-optimisation code, copied unchanged
//! (apart from naming), so any divergence in tokens, decoded symbols, error
//! variants or cursor positions shows up as a failed equality.

use proptest::prelude::*;

use arc_lossless::bitio::{read_varint, BitReader, BitWriter};
use arc_lossless::huffman::{huffman_decode_block, huffman_encode_block, HuffmanCode};
use arc_lossless::lz77::{tokenize, Lz77Config, Token, MAX_MATCH, MIN_MATCH, WINDOW};
use arc_lossless::LosslessError;

// ---------------------------------------------------------------------------
// LZ77 oracle: the per-position-link, byte-compare tokenizer.

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 15;

/// Greedily tokenize `data` into literals and matches.
fn oracle_tokenize(data: &[u8], cfg: &Lz77Config) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 4 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; n];
    let find = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
        let max_len = (n - i).min(MAX_MATCH);
        if max_len < MIN_MATCH {
            return None;
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = head[hash4(data, i)];
        let mut chain = cfg.max_chain;
        while cand != usize::MAX && chain > 0 {
            if i - cand > WINDOW {
                break;
            }
            // Quick reject on the byte past the current best.
            if best_dist == 0 || data[cand + best_len] == data[i + best_len] {
                let mut l = 0usize;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= cfg.good_enough || l == max_len {
                        break;
                    }
                }
            }
            cand = prev[cand];
            chain -= 1;
        }
        (best_dist > 0).then_some((best_len, best_dist))
    };
    let mut i = 0usize;
    let insert = |head: &mut [usize], prev: &mut [usize], i: usize| {
        if i + MIN_MATCH <= n {
            let h = hash4(data, i);
            prev[i] = head[h];
            head[h] = i;
        }
    };
    while i < n {
        let m = find(&head, &prev, i);
        match m {
            Some((len, dist)) => {
                // Lazy evaluation: prefer a longer match starting one byte on.
                insert(&mut head, &mut prev, i);
                let take = i + 1 >= n
                    || !matches!(find(&head, &prev, i + 1), Some((len2, _)) if len2 > len + 1);
                if take {
                    tokens.push(Token::Match { len: len as u32, dist: dist as u32 });
                    for j in i + 1..i + len {
                        insert(&mut head, &mut prev, j);
                    }
                    i += len;
                } else {
                    tokens.push(Token::Literal(data[i]));
                    i += 1;
                }
            }
            None => {
                insert(&mut head, &mut prev, i);
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
    }
    tokens
}

/// Low-entropy input of up to 300 KiB: symbols from a small alphabet, with
/// runs past `MAX_MATCH` and copies from just inside and just outside the
/// window, so chains run deep and the link ring wraps many times.
fn low_entropy(alphabet: u8, len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let r = next();
        let seg = 1 + (r >> 40) as usize % 2000;
        match r % 8 {
            0 => out.extend(std::iter::repeat_n(b'a' + (r >> 8) as u8 % alphabet, seg)),
            1 | 2 if out.len() > WINDOW + 1 => {
                let dist = WINDOW + 1 - (r >> 16) as usize % 3;
                for _ in 0..seg {
                    out.push(out[out.len() - dist]);
                }
            }
            _ => out.extend((0..seg).map(|_| b'a' + (next() % alphabet as u64) as u8)),
        }
    }
    out.truncate(len);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tokens_match_oracle(
        alphabet in 1u8..=6,
        len in 0usize..=300 * 1024,
        seed in any::<u64>(),
    ) {
        let data = low_entropy(alphabet, len, seed);
        for cfg in [Lz77Config::default(), Lz77Config { max_chain: 1, ..Lz77Config::default() }] {
            prop_assert_eq!(tokenize(&data, &cfg), oracle_tokenize(&data, &cfg));
        }
    }
}

#[test]
fn tokens_match_oracle_on_small_and_window_sized_inputs() {
    for len in [0usize, 1, 4, 5, 9, 300, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 7] {
        for (alphabet, seed) in [(1u8, 3u64), (2, 5), (4, 11)] {
            let data = low_entropy(alphabet, len, seed);
            for cfg in [Lz77Config::default(), Lz77Config { max_chain: 1, good_enough: 8 }] {
                assert_eq!(tokenize(&data, &cfg), oracle_tokenize(&data, &cfg), "len {len}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Huffman oracle: a bit-serial reader and the per-bit canonical decoder.

/// MSB-first bit reader that moves one bit per call.
struct SerialReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl SerialReader<'_> {
    fn read_bit(&mut self) -> Result<bool, LosslessError> {
        if self.pos >= self.bytes.len() as u64 * 8 {
            return Err(LosslessError::truncated("bit stream exhausted"));
        }
        let byte = self.bytes[(self.pos / 8) as usize];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }
}

/// Canonical first-code tables rebuilt from a code's public lengths.
struct SerialDecoder {
    max_len: u32,
    count: Vec<u64>,
    first_code: Vec<u64>,
    first_index: Vec<u64>,
    symbols_by_len: Vec<u32>,
}

impl SerialDecoder {
    fn new(code: &HuffmanCode) -> Self {
        let lengths: Vec<u8> =
            (0..code.alphabet_size() as u32).map(|s| code.length_of(s)).collect();
        let max_len = lengths.iter().copied().max().unwrap_or(0) as u32;
        let mut count = vec![0u64; (max_len + 1) as usize];
        for &l in &lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut symbols_by_len: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        symbols_by_len.sort_by_key(|&s| (lengths[s as usize], s));
        let mut first_code = vec![0u64; (max_len + 2) as usize];
        let mut first_index = vec![0u64; (max_len + 2) as usize];
        let mut code = 0u64;
        let mut index = 0u64;
        for l in 1..=max_len {
            first_code[l as usize] = code;
            first_index[l as usize] = index;
            code = (code + count[l as usize]) << 1;
            index += count[l as usize];
        }
        SerialDecoder { max_len, count, first_code, first_index, symbols_by_len }
    }

    /// Decode one symbol from the reader.
    fn decode_symbol(&self, r: &mut SerialReader<'_>) -> Result<u32, LosslessError> {
        if self.max_len == 0 {
            return Err(LosslessError::malformed("decode from empty huffman code"));
        }
        let mut code = 0u64;
        for l in 1..=self.max_len {
            code = (code << 1) | r.read_bit()? as u64;
            let c = self.count[l as usize];
            if c > 0 && code < self.first_code[l as usize] + c {
                let offset = code - self.first_code[l as usize];
                let idx = self.first_index[l as usize] + offset;
                return Ok(self.symbols_by_len[idx as usize]);
            }
        }
        Err(LosslessError::malformed("invalid huffman codeword"))
    }
}

/// `Ok` value, or just the error variant (messages may differ).
fn outcome(r: Result<u32, LosslessError>) -> Result<u32, std::mem::Discriminant<LosslessError>> {
    r.map_err(|e| std::mem::discriminant(&e))
}

/// Decode `steps` symbols from `payload` with both decoders, continuing past
/// errors the way the zstd-like pipeline's permissive reader does, and
/// require the same outcome and the same cursor after every call.
fn assert_decoders_agree(code: &HuffmanCode, payload: &[u8], steps: usize) {
    let fast = code.decoder();
    let slow = SerialDecoder::new(code);
    let mut r = BitReader::new(payload);
    let mut s = SerialReader { bytes: payload, pos: 0 };
    for step in 0..steps {
        let a = outcome(fast.decode_symbol(&mut r));
        let b = outcome(slow.decode_symbol(&mut s));
        assert_eq!(a, b, "step {step} of {} payload bytes", payload.len());
        assert_eq!(r.bit_pos(), s.pos, "cursor after step {step}");
        if r.remaining() == 0 {
            break;
        }
    }
}

/// Split a `huffman_encode_block` output into its code, count and payload.
fn parse_block(block: &[u8]) -> Option<(HuffmanCode, usize, &[u8])> {
    let mut pos = 0;
    let code = HuffmanCode::deserialize(block, &mut pos).ok()?;
    let n = read_varint(block, &mut pos).ok()? as usize;
    let len = read_varint(block, &mut pos).ok()? as usize;
    let payload = block.get(pos..pos.checked_add(len)?)?;
    Some((code, n, payload))
}

/// Blocks whose codes span short and long lengths, one symbol, and a big
/// alphabet.
fn sample_blocks() -> Vec<Vec<u8>> {
    let skewed: Vec<u32> =
        (0..600u32).map(|i| if i % 9 == 0 { (i * 7) % 40 } else { i % 3 }).collect();
    let uniform: Vec<u32> = (0..400u32).map(|i| (i * 37) % 300).collect();
    let geometric: Vec<u32> = (0..2000u32).map(|i| (i | 1 << 14).trailing_zeros()).collect();
    vec![
        huffman_encode_block(&skewed, 64).unwrap(),
        huffman_encode_block(&uniform, 300).unwrap(),
        huffman_encode_block(&geometric, 16).unwrap(),
        huffman_encode_block(&[5u32; 70], 8).unwrap(),
    ]
}

/// The reference block decode: table, count, payload, then `n` serial
/// symbol decodes stopping at the first error.
fn oracle_decode_block(block: &[u8]) -> Result<Vec<u32>, std::mem::Discriminant<LosslessError>> {
    let d = |e: LosslessError| std::mem::discriminant(&e);
    let mut pos = 0;
    let code = HuffmanCode::deserialize(block, &mut pos).map_err(d)?;
    let n = read_varint(block, &mut pos).map_err(d)? as usize;
    if n > 1 << 31 {
        return Err(d(LosslessError::malformed("")));
    }
    let len = read_varint(block, &mut pos).map_err(d)? as usize;
    let payload = pos
        .checked_add(len)
        .and_then(|end| block.get(pos..end))
        .ok_or_else(|| d(LosslessError::truncated("")))?;
    let dec = SerialDecoder::new(&code);
    let mut r = SerialReader { bytes: payload, pos: 0 };
    (0..n).map(|_| dec.decode_symbol(&mut r).map_err(d)).collect()
}

fn block_outcome(block: &[u8]) -> Result<Vec<u32>, std::mem::Discriminant<LosslessError>> {
    let mut pos = 0;
    huffman_decode_block(block, &mut pos).map_err(|e| std::mem::discriminant(&e))
}

#[test]
fn decoder_matches_serial_oracle_at_every_truncation() {
    for block in sample_blocks() {
        for cut in 0..=block.len() {
            assert_eq!(
                block_outcome(&block[..cut]),
                oracle_decode_block(&block[..cut]),
                "cut {cut}"
            );
        }
        let (code, n, payload) = parse_block(&block).unwrap();
        for cut in 0..=payload.len() {
            assert_decoders_agree(&code, &payload[..cut], n + 4);
        }
    }
}

#[test]
fn decoder_matches_serial_oracle_under_every_bit_flip() {
    for block in sample_blocks() {
        for bit in 0..block.len() * 8 {
            let mut bad = block.clone();
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            assert_eq!(block_outcome(&bad), oracle_decode_block(&bad), "flip {bit}");
            // Flips in the table that still parse give the decoders a
            // different code; walk the payload with it either way.
            if let Some((code, n, payload)) = parse_block(&bad) {
                assert_decoders_agree(&code, payload, n.min(4096) + 4);
            }
        }
    }
}

#[test]
fn decoder_matches_serial_oracle_on_maximum_length_codes() {
    // Lengths 1, 2, …, 47, 48, 48: a complete code whose deepest codewords
    // fill the whole 48-bit peek.
    let mut lengths: Vec<u8> = (1..=48).collect();
    lengths.push(48);
    let code = HuffmanCode::from_lengths(lengths).unwrap();
    let mut w = BitWriter::new();
    let symbols: Vec<u32> = (0..49u32).chain((0..49).rev()).chain([48, 47, 0, 48]).collect();
    for &s in &symbols {
        code.encode_symbol(s, &mut w);
    }
    let payload = w.into_bytes();
    let mut r = BitReader::new(&payload);
    let dec = code.decoder();
    for &s in &symbols {
        assert_eq!(dec.decode_symbol(&mut r).unwrap(), s);
    }
    for cut in 0..=payload.len() {
        assert_decoders_agree(&code, &payload[..cut], symbols.len() + 2);
    }
    for bit in 0..payload.len() * 8 {
        let mut bad = payload.clone();
        bad[bit / 8] ^= 0x80 >> (bit % 8);
        assert_decoders_agree(&code, &bad, symbols.len() + 2);
    }
    // The single-symbol code is incomplete: a 1 bit matches nothing.
    let lone = HuffmanCode::from_lengths(vec![0, 1, 0]).unwrap();
    for bytes in [[0x00u8], [0x80], [0x5A], [0xFF]] {
        assert_decoders_agree(&lone, &bytes, 10);
    }
}

// ---------------------------------------------------------------------------
// zstd-like permissive decoding on flipped streams.

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Folds the outcome of `zstd_like::decompress` under every single-bit flip
/// of three frames into one FNV-1a digest: output bytes for `Ok`, the
/// variant tag for `Err`.
fn zstd_flip_digest() -> (usize, u64) {
    let inputs: [Vec<u8>; 3] = [
        b"soft errors corrupt lossy compressed checkpoints ".repeat(40),
        low_entropy(3, 3000, 77),
        (0..1500u32).flat_map(|i| ((i * i) % 251).to_le_bytes()).collect(),
    ];
    let mut h = 0xcbf29ce484222325u64;
    let mut trials = 0;
    for data in &inputs {
        let frame = arc_lossless::zstd_like::compress(data);
        for bit in 0..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 0x80 >> (bit % 8);
            match arc_lossless::zstd_like::decompress(&bad) {
                Ok(out) => {
                    fnv1a(&mut h, b"ok");
                    fnv1a(&mut h, &(out.len() as u64).to_le_bytes());
                    fnv1a(&mut h, &out);
                }
                Err(LosslessError::Truncated(_)) => fnv1a(&mut h, b"truncated"),
                Err(LosslessError::Malformed(_)) => fnv1a(&mut h, b"malformed"),
                Err(LosslessError::WorkBudgetExceeded { .. }) => fnv1a(&mut h, b"budget"),
            }
            trials += 1;
        }
    }
    (trials, h)
}

/// Captured with the bit-serial decoder; the permissive reader feeds the
/// fault-taxonomy results, so every flipped frame must decode to the same
/// bytes (or fail the same way) as it did then. Never regenerate this.
const ZSTD_FLIP_DIGEST: (usize, u64) = (16224, 0xc417928534526650);

#[test]
fn zstd_like_flipped_frames_decode_as_before() {
    assert_eq!(zstd_flip_digest(), ZSTD_FLIP_DIGEST);
}
