//! LZ77 match finding with hash chains.
//!
//! Both the deflate-like and zstd-like pipelines factor repeated byte ranges
//! through this matcher. It mirrors zlib's design: a multiplicative hash of
//! the 4 bytes at each position (recomputed per position, not rolled)
//! indexes chain heads, chains are walked up to a configurable depth, and
//! greedy matching with a one-step lazy evaluation picks the final tokens.
//!
//! The working set is fixed whatever the input length: `HASH_SIZE` chain
//! heads plus a ring of `WINDOW` chain links, both u32 positions. Tokens go
//! to a callback as they are chosen ([`for_each_token`]), so the pipelines
//! build their own streams without an intermediate token vector.

use crate::error::LosslessError;

/// Minimum match length worth emitting.
pub const MIN_MATCH: usize = 4;
/// Maximum match length a token can carry.
pub const MAX_MATCH: usize = 258;
/// Sliding window (maximum back-reference distance).
pub const WINDOW: usize = 1 << 16;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u32,
        /// Distance back into already-produced output, `1..=WINDOW`.
        dist: u32,
    },
}

/// Tokenizer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct Lz77Config {
    /// Maximum hash-chain links walked per position (compression effort).
    pub max_chain: usize,
    /// Stop searching early once a match at least this long is found.
    pub good_enough: usize,
}

impl Default for Lz77Config {
    fn default() -> Self {
        Lz77Config { max_chain: 64, good_enough: 96 }
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 15;

/// Chain terminator in `head` and `prev`.
const EMPTY: u32 = u32::MAX;

/// Stored positions are u32 offsets from a base; once an offset reaches
/// this the base slides forward (see [`Matcher::rebase`]), so inputs of
/// 4 GiB and more never truncate a position.
const REBASE_AT: usize = 1 << 31;

/// Hash-chain state over one input.
///
/// Ring invariant: the link for position `p` lives in `prev[p % WINDOW]`
/// and is next overwritten when position `p + WINDOW` is inserted. A search
/// at `i` runs only after every position below `i` (and none at or above
/// it) is inserted, and follows a link only from a candidate at most
/// `WINDOW` behind `i`, whose slot `i` has not reached yet. So the ring
/// never hands back an overwritten link, and the chains it walks are the
/// ones an unbounded per-position link array would give.
struct Matcher<'a> {
    data: &'a [u8],
    cfg: Lz77Config,
    /// Most recent position per hash bucket, as an offset from `base`.
    head: Vec<u32>,
    /// Previous position with the same hash, per position modulo `WINDOW`.
    prev: Vec<u32>,
    /// Input position that stored offset 0 stands for; a multiple of
    /// `WINDOW`, so ring slots are the same for offsets and positions.
    base: usize,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], cfg: &Lz77Config) -> Self {
        Matcher {
            data,
            cfg: *cfg,
            head: vec![EMPTY; HASH_SIZE],
            prev: vec![EMPTY; WINDOW],
            base: 0,
        }
    }

    /// Longest match for position `i` (hash `h`) within the window, as
    /// `(len, dist)`.
    #[inline]
    fn longest_match(&self, i: usize, h: usize) -> Option<(usize, usize)> {
        let data = self.data;
        let max_len = (data.len() - i).min(MAX_MATCH);
        let here = (i - self.base) as u32;
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = self.head[h];
        let mut chain = self.cfg.max_chain;
        while cand != EMPTY && chain > 0 {
            let dist = (here - cand) as usize;
            if dist > WINDOW {
                break;
            }
            let c = i - dist;
            // Quick reject on the byte past the current best.
            if best_dist == 0 || data[c + best_len] == data[i + best_len] {
                let l = match_len(&data[c..c + max_len], &data[i..i + max_len]);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l >= self.cfg.good_enough || l == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[cand as usize % WINDOW];
            chain -= 1;
        }
        (best_dist > 0).then_some((best_len, best_dist))
    }

    /// Link position `i` (hash `h`) at the head of its chain.
    #[inline]
    fn link(&mut self, i: usize, h: usize) {
        let here = (i - self.base) as u32;
        self.prev[here as usize % WINDOW] = self.head[h];
        self.head[h] = here;
    }

    /// Slide `base` forward before offsets near `i` outgrow u32. Positions
    /// more than `WINDOW` behind `i` can never be matched again; the ones
    /// that fall below the new base become `EMPTY`, which ends a chain walk
    /// exactly where the distance check would have.
    #[cold]
    fn rebase(&mut self, i: usize) {
        let shift = (i - self.base - WINDOW) / WINDOW * WINDOW;
        let shift32 = shift as u32;
        for slot in self.head.iter_mut().chain(self.prev.iter_mut()) {
            *slot = if *slot == EMPTY || *slot < shift32 { EMPTY } else { *slot - shift32 };
        }
        self.base += shift;
    }

    /// Tokenize the whole input, rebasing whenever an offset reaches
    /// `rebase_at` (at least `2 * WINDOW`).
    fn tokenize_into(mut self, rebase_at: usize, mut emit: impl FnMut(Token)) {
        debug_assert!(rebase_at >= 2 * WINDOW && rebase_at < EMPTY as usize);
        let data = self.data;
        let n = data.len();
        // Positions with a full 4-byte hash are inserted and searched.
        let hashed = |i: usize| (i + MIN_MATCH <= n).then(|| hash4(data, i));
        // `longest_match` at the current position when the lazy step already ran it.
        let mut carried: Option<(usize, usize)> = None;
        let mut i = 0usize;
        while i < n {
            if i - self.base >= rebase_at {
                self.rebase(i);
            }
            let Some(h) = hashed(i) else {
                emit(Token::Literal(data[i]));
                i += 1;
                continue;
            };
            let Some((len, dist)) = carried.take().or_else(|| self.longest_match(i, h)) else {
                self.link(i, h);
                emit(Token::Literal(data[i]));
                i += 1;
                continue;
            };
            // Lazy evaluation: prefer a longer match starting one byte on.
            self.link(i, h);
            let lazy = hashed(i + 1).and_then(|h1| self.longest_match(i + 1, h1));
            if matches!(lazy, Some((len2, _)) if len2 > len + 1) {
                emit(Token::Literal(data[i]));
                carried = lazy;
                i += 1;
                continue;
            }
            emit(Token::Match { len: len as u32, dist: dist as u32 });
            for j in i + 1..i + len {
                if let Some(hj) = hashed(j) {
                    self.link(j, hj);
                }
            }
            i += len;
        }
    }
}

/// Length of the common prefix of `a` and `b`, eight bytes per step.
#[inline]
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let (wa, _) = a.as_chunks::<8>();
    let (wb, _) = b.as_chunks::<8>();
    for (k, (x, y)) in wa.iter().zip(wb).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return 8 * k + (diff.trailing_zeros() / 8) as usize;
        }
    }
    let l = 8 * wa.len().min(wb.len());
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

/// Greedily tokenize `data`, handing each literal and match to `emit` in
/// stream order.
pub fn for_each_token(data: &[u8], cfg: &Lz77Config, emit: impl FnMut(Token)) {
    Matcher::new(data, cfg).tokenize_into(REBASE_AT, emit);
}

/// Collect the tokens of [`for_each_token`].
pub fn tokenize(data: &[u8], cfg: &Lz77Config) -> Vec<Token> {
    let mut tokens = Vec::new();
    for_each_token(data, cfg, |t| tokens.push(t));
    tokens
}

/// Rebuild bytes from tokens. Validates every back-reference; corrupted
/// distances surface as [`LosslessError::Malformed`].
pub fn reconstruct(tokens: &[Token]) -> Result<Vec<u8>, LosslessError> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err(LosslessError::malformed(format!(
                        "back-reference distance {dist} at output length {}",
                        out.len()
                    )));
                }
                if len > MAX_MATCH {
                    return Err(LosslessError::malformed("match length out of range"));
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (RLE idiom): copy byte-wise.
                for j in 0..len {
                    let b = out[start + j];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<Token> {
        let tokens = tokenize(data, &Lz77Config::default());
        assert_eq!(reconstruct(&tokens).unwrap(), data);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repeated_text_compresses_to_matches() {
        let data = b"the quick brown fox jumps over the lazy dog. the quick brown fox!".to_vec();
        let tokens = round_trip(&data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one match"
        );
    }

    #[test]
    fn rle_overlapping_match() {
        let data = vec![7u8; 1000];
        let tokens = round_trip(&data);
        // A long run should collapse to a handful of tokens.
        assert!(tokens.len() < 20, "{} tokens", tokens.len());
    }

    #[test]
    fn incompressible_data_is_all_literals() {
        // Pseudo-random bytes with no 4-byte repeats.
        let data: Vec<u8> =
            (0..2000u64).map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15)) >> 56) as u8).collect();
        let tokens = tokenize(&data, &Lz77Config::default());
        assert_eq!(reconstruct(&tokens).unwrap(), data);
    }

    #[test]
    fn long_periodic_input() {
        let data: Vec<u8> = (0..100_000).map(|i| ((i % 97) as u8).wrapping_mul(3)).collect();
        let tokens = round_trip(&data);
        let matches = tokens.iter().filter(|t| matches!(t, Token::Match { .. })).count();
        assert!(matches > 100);
    }

    #[test]
    fn match_lengths_respect_bounds() {
        let data = vec![0xAAu8; 10_000];
        for t in tokenize(&data, &Lz77Config::default()) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!((1..=WINDOW).contains(&(dist as usize)));
            }
        }
    }

    #[test]
    fn reconstruct_rejects_bad_distance() {
        let tokens = [Token::Literal(1), Token::Match { len: 4, dist: 5 }];
        assert!(reconstruct(&tokens).is_err());
        let tokens = [Token::Match { len: 4, dist: 1 }];
        assert!(reconstruct(&tokens).is_err());
    }

    #[test]
    fn reconstruct_rejects_oversized_length() {
        let tokens = [Token::Literal(1), Token::Match { len: 9999, dist: 1 }];
        assert!(reconstruct(&tokens).is_err());
    }

    #[test]
    fn rebasing_offsets_leaves_tokens_unchanged() {
        // Slide the base every two windows instead of every 2 GiB: the token
        // stream must not notice, on data with far and near repeats.
        let mut data: Vec<u8> = (0..5 * WINDOW as u64)
            .map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15)) >> 61) as u8)
            .collect();
        data.extend_from_within(WINDOW..3 * WINDOW);
        data.extend(std::iter::repeat_n(9u8, 3000));
        for cfg in [Lz77Config::default(), Lz77Config { max_chain: 1, good_enough: 8 }] {
            let mut rebased = Vec::new();
            Matcher::new(&data, &cfg).tokenize_into(2 * WINDOW, |t| rebased.push(t));
            assert_eq!(rebased, tokenize(&data, &cfg));
            assert_eq!(reconstruct(&rebased).unwrap(), data);
        }
    }

    #[test]
    fn match_len_counts_common_prefix() {
        let a: Vec<u8> = (0..40).collect();
        for split in 0..40 {
            let mut b = a.clone();
            b[split] ^= 0x80;
            assert_eq!(match_len(&a, &b), split);
        }
        assert_eq!(match_len(&a, &a), 40);
        assert_eq!(match_len(&a[..5], &a[..5]), 5);
    }

    #[test]
    fn shallow_chain_still_correct() {
        let cfg = Lz77Config { max_chain: 1, good_enough: 8 };
        let data: Vec<u8> = (0..50_000).map(|i| ((i / 3) % 251) as u8).collect();
        let tokens = tokenize(&data, &cfg);
        assert_eq!(reconstruct(&tokens).unwrap(), data);
    }
}
