//! Bit-granular stream I/O for entropy coders.
//!
//! Compression streams (Huffman codes, ZFP bit planes) need MSB-first,
//! variable-width reads and writes. Both sides work a word at a time: the
//! writer shifts fields into a u64 accumulator and flushes whole 32-bit
//! groups, and the reader serves every field from one big-endian 8-byte load
//! at the cursor's byte, so a field costs a shift and a mask, not a loop
//! over its bits. The reader tracks an explicit bit cursor and returns
//! structured errors on exhaustion — a corrupted length field must surface
//! as a decode error (the paper's *Compressor Exception* outcome), never as
//! UB.

use crate::error::LosslessError;

/// MSB-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Flushed bytes.
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `pending` bits are the stream's
    /// tail (bits above them are stale and never read).
    acc: u64,
    /// Number of pending bits in `acc`, always below 32 between calls.
    pending: u32,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value`, most-significant bit first.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "write_bits supports at most 64 bits");
        if n > 32 {
            self.put(value >> 32, n - 32);
            self.put(value, 32);
        } else {
            self.put(value, n);
        }
    }

    /// Append the low `n <= 32` bits of `value`. With fewer than 32 bits
    /// pending the accumulator never holds more than 63 live bits, and a
    /// full 32-bit group is flushed as soon as one forms.
    #[inline]
    fn put(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 32 && self.pending < 32);
        let mask = (1u64 << n) - 1;
        self.acc = (self.acc << n) | (value & mask);
        self.pending += n;
        if self.pending >= 32 {
            self.pending -= 32;
            let group = (self.acc >> self.pending) as u32;
            self.bytes.extend_from_slice(&group.to_be_bytes());
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.put(bit as u64, 1);
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        self.put(0, (8 - self.pending % 8) % 8);
    }

    /// Total bits written.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.pending as u64
    }

    /// Finish, returning the backing bytes (final byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.align_byte();
        let tail = (self.acc << (32 - self.pending)) as u32;
        let whole = (self.pending / 8) as usize;
        self.bytes.extend_from_slice(&tail.to_be_bytes()[..whole]);
        self.bytes
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Widest field [`BitReader::peek`] serves: one 8-byte load holds at
    /// least 57 bits past any bit offset.
    pub const MAX_PEEK: u32 = 57;

    /// Wrap a slice; reading starts at bit 0 of byte 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> u64 {
        self.bytes.len() as u64 * 8 - self.pos
    }

    /// Current cursor position in bits.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// The eight bytes starting at the cursor's byte as a big-endian word,
    /// zero-padded past the end of the stream.
    #[inline]
    fn word(&self) -> u64 {
        let at = (self.pos / 8) as usize;
        let rest = self.bytes.get(at..).unwrap_or_default();
        match rest.first_chunk::<8>() {
            Some(w) => u64::from_be_bytes(*w),
            None => Self::tail_word(rest),
        }
    }

    /// Slow path of [`BitReader::word`] for the last seven bytes.
    #[cold]
    fn tail_word(rest: &[u8]) -> u64 {
        rest.iter().enumerate().fold(0u64, |w, (i, &b)| w | ((b as u64) << (56 - 8 * i)))
    }

    /// The next `n` bits MSB-first in the low bits of the result, without
    /// moving the cursor. Bits past the end of the stream read as zero.
    ///
    /// # Panics
    /// Panics (debug) if `n > MAX_PEEK`.
    #[inline]
    pub fn peek(&self, n: u32) -> u64 {
        debug_assert!(n <= Self::MAX_PEEK);
        (self.word() << (self.pos % 8)).checked_shr(64 - n).unwrap_or(0)
    }

    /// Advance the cursor by `n` bits, stopping at the end of the stream.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        self.pos += (n as u64).min(self.remaining());
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, LosslessError> {
        let byte = self
            .bytes
            .get((self.pos / 8) as usize)
            .ok_or_else(|| LosslessError::truncated("bit stream exhausted"))?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `n` bits MSB-first into the low bits of the result. On error the
    /// cursor does not move.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, LosslessError> {
        assert!(n <= 64);
        if self.remaining() < n as u64 {
            return Err(LosslessError::truncated("bit stream exhausted"));
        }
        if n <= Self::MAX_PEEK {
            let v = self.peek(n);
            self.pos += n as u64;
            return Ok(v);
        }
        let hi = self.peek(n - 32);
        self.pos += (n - 32) as u64;
        let lo = self.peek(32);
        self.pos += 32;
        Ok((hi << 32) | lo)
    }

    /// Skip to the next byte boundary.
    pub fn align_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

/// LEB128-style unsigned varint encoding, used by stream headers.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint, advancing `pos`. Fails on truncation or overlong values.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, LosslessError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos).ok_or_else(|| LosslessError::truncated("varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(LosslessError::malformed("varint too long"));
        }
        if shift == 63 && (b & 0x7E) != 0 {
            return Err(LosslessError::malformed("varint overflows u64"));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag mapping of signed to unsigned integers for varint coding.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] = &[(0b1, 1), (0b0, 1), (0xDEADBEEF, 32), (0x3FF, 10), (0, 7)];
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        let total: u32 = fields.iter().map(|f| f.1).sum();
        assert_eq!(w.bit_len(), total as u64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1010_0000]);
    }

    #[test]
    fn align_byte_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bits(0xFF, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1100_0000, 0xFF]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn reader_errors_on_exhaustion() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80, 0x80], &mut pos).is_err());
        let overlong = [0xFF; 11];
        let mut pos = 0;
        assert!(read_varint(&overlong, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-5i64, -1, 0, 1, 5, i64::MAX, i64::MIN, 123456789, -987654321] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
