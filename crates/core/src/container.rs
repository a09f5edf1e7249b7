//! ARC's self-describing container format.
//!
//! `arc_decode()` receives nothing but a byte array, so the container must
//! carry the ECC configuration, chunk size, and lengths — and those fields
//! must survive the very soft errors ARC exists to protect against. The
//! header is therefore wrapped in a Reed-Solomon codeword with 32 parity
//! symbols (correcting 16 unknown-position byte errors on its own) and
//! stored **twice**; the 2-byte codeword-length prefix is stored three
//! times and majority-voted.
//!
//! Two container versions share the magic and the hardened header:
//!
//! **v1 — monolithic** (version byte `1`): the payload is one
//! chunk-parallel ECC encoding of the user's byte array.
//!
//! ```text
//! ┌─────────────┬───────────────┬───────────────┬─────────────┐
//! │ len ×3 (u16)│ header RS cw  │ header RS cw  │   payload   │
//! └─────────────┴───────────────┴───────────────┴─────────────┘
//! ```
//!
//! **v2 — sharded** (version byte `2`): the payload is split into
//! fixed-size shards, each independently ECC'd and independently
//! decodable, followed by a shard index that is RS-protected and stored
//! **three** times (bytewise majority vote as the last resort). The index
//! is the highest-consequence metadata in the container — losing it means
//! losing random access for every shard — so it gets strictly harder
//! protection than the bulk payload, the same discipline the header
//! already follows.
//!
//! ```text
//! ┌─────────────┬───────────┬───────────┬────────────────┬─────────┬─────────┬─────────┐
//! │ len ×3 (u16)│ header cw │ header cw │ shard payloads │ index ×1│ index ×2│ index ×3│
//! └─────────────┴───────────┴───────────┴────────────────┴─────────┴─────────┴─────────┘
//! ```
//!
//! The header additionally carries a CRC-32 of the *original* data, giving
//! end-to-end detection even for damage an ECC scheme can miss; v2 adds a
//! per-shard CRC-32 to the index so each shard is end-to-end checkable on
//! its own, which is what makes `decode_range` trustworthy without
//! touching the rest of the container.

use std::sync::Arc;

use arc_ecc::crc::{crc32, crc32_combine};
use arc_ecc::{CorrectionReport, EccConfig, EccScheme, ParallelCodec, RsCodeword};

use crate::error::ArcError;
use crate::extension::{resolve_scheme, ExtensionRegistry};
use crate::interface::ArcDecodeReport;

/// Container magic.
pub const MAGIC: &[u8; 4] = b"ARC1";
/// Container format version for monolithic (v1) containers.
pub const VERSION: u8 = 1;
/// Container format version for sharded (v2) containers.
pub const VERSION_SHARDED: u8 = 2;
/// Parity symbols protecting the header codeword.
pub const HEADER_NSYM: usize = 32;
/// Parity symbols protecting each RS codeword of the shard index.
pub const INDEX_NSYM: usize = 32;
/// Default shard size for the sharded encode paths (4 MiB): small enough
/// that a tile read touches a sliver of a large field, large enough that
/// per-shard index overhead stays negligible.
pub const DEFAULT_SHARD_SIZE: usize = 4 << 20;

/// The codec every container path runs: any scheme, built-in or
/// extension, behind an `Arc`.
pub(crate) type SchemeCodec = ParallelCodec<Arc<dyn EccScheme>>;

/// Serialized size of one shard-index entry: offset `u64`, encoded length
/// `u32`, decoded length `u32`, CRC-32 `u32`, scheme slot `u8` (reserved,
/// always 0 — every v2 container currently uses one scheme for all
/// shards).
pub(crate) const INDEX_ENTRY_BYTES: usize = 21;

/// Sharding parameters carried by a v2 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingMeta {
    /// Decoded bytes per shard (every shard but the last holds exactly
    /// this many; the last holds the remainder).
    pub shard_size: usize,
    /// Length in bytes of ONE RS-encoded copy of the shard index; three
    /// copies follow the payload back to back.
    pub index_len: usize,
}

/// Decoded header contents.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerMeta {
    /// Identifier of the scheme that encoded the payload: a built-in
    /// [`EccConfig`] id (`"secded:64"`, `"rs:223:32"`, …) or a custom
    /// extension id (`"x:<name>"`, see `arc_core::extension`).
    pub scheme_id: String,
    /// Chunk size the parallel codec used.
    pub chunk_size: usize,
    /// Original (unencoded) data length in bytes.
    pub data_len: usize,
    /// Encoded payload length in bytes.
    pub payload_len: usize,
    /// CRC-32 of the original data (end-to-end check).
    pub data_crc: u32,
    /// Sharding parameters; `None` for monolithic v1 containers.
    pub sharding: Option<ShardingMeta>,
}

impl ContainerMeta {
    /// Built-in configuration, when the id parses as one.
    pub fn builtin_config(&self) -> Option<EccConfig> {
        EccConfig::parse_id(&self.scheme_id).ok()
    }
}

/// One shard's entry in the v2 index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Byte offset of the shard's encoded region within the payload.
    pub offset: usize,
    /// Encoded (ECC'd) length of the shard in bytes.
    pub encoded_len: usize,
    /// Decoded (original) length of the shard in bytes.
    pub decoded_len: usize,
    /// CRC-32 of the shard's original bytes (per-shard end-to-end check).
    pub crc: u32,
}

/// The recovered v2 shard index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardIndex {
    /// Entries in payload order; offsets are contiguous from 0.
    pub entries: Vec<ShardEntry>,
}

impl ShardIndex {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.entries.len()
    }

    /// Cumulative decoded start offset of every shard (monotone,
    /// `entries.len()` values). Shard `i` holds decoded bytes
    /// `starts[i] .. starts[i] + entries[i].decoded_len`.
    pub fn decoded_starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.entries.len());
        let mut pos = 0usize;
        for e in &self.entries {
            starts.push(pos);
            pos += e.decoded_len;
        }
        starts
    }
}

/// How the shard index was recovered during [`unpack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexRepair {
    /// Index bytes repaired by the RS codewords of the winning copy.
    pub symbols_corrected: usize,
    /// Which of the three copies decoded (0-based); meaningless when
    /// `majority_voted` is set.
    pub copy_used: usize,
    /// True when no single copy decoded and the bytewise majority vote of
    /// all three copies was needed.
    pub majority_voted: bool,
}

fn serialize_header(meta: &ContainerMeta) -> Vec<u8> {
    let id = &meta.scheme_id;
    let mut out = Vec::with_capacity(56 + id.len());
    out.extend_from_slice(MAGIC);
    out.push(if meta.sharding.is_some() { VERSION_SHARDED } else { VERSION });
    out.push(id.len() as u8);
    out.extend_from_slice(id.as_bytes());
    out.extend_from_slice(&(meta.chunk_size as u64).to_le_bytes());
    out.extend_from_slice(&(meta.data_len as u64).to_le_bytes());
    out.extend_from_slice(&(meta.payload_len as u64).to_le_bytes());
    if let Some(sh) = &meta.sharding {
        out.extend_from_slice(&(sh.shard_size as u64).to_le_bytes());
        out.extend_from_slice(&(sh.index_len as u64).to_le_bytes());
    }
    out.extend_from_slice(&meta.data_crc.to_le_bytes());
    out
}

pub(crate) fn parse_header(bytes: &[u8]) -> Result<ContainerMeta, ArcError> {
    let bad = |d: &str| ArcError::Corrupted(format!("header: {d}"));
    // arc-lint: bounded(bytes.len() < 6 short-circuits first in this condition)
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(bad("bad magic"));
    }
    // arc-lint: bounded(bytes.len() >= 6 checked above)
    let version = bytes[4];
    if version != VERSION && version != VERSION_SHARDED {
        return Err(bad("unsupported version"));
    }
    let sharded = version == VERSION_SHARDED;
    // arc-lint: bounded(bytes.len() >= 6 checked above)
    let id_len = bytes[5] as usize;
    let fixed = 6 + id_len + 8 + 8 + 8 + if sharded { 8 + 8 } else { 0 } + 4;
    if bytes.len() < fixed {
        return Err(bad("truncated"));
    }
    // arc-lint: bounded(bytes.len() >= fixed >= 6 + id_len checked above)
    let id = std::str::from_utf8(&bytes[6..6 + id_len]).map_err(|_| bad("config id not UTF-8"))?;
    if id.is_empty() {
        return Err(bad("empty scheme id"));
    }
    // Built-in ids must parse; extension ids ("x:…") are resolved later
    // against the caller's registry.
    if !id.starts_with("x:") {
        EccConfig::parse_id(id).map_err(|e| bad(&format!("config id: {e}")))?;
    }
    let scheme_id = id.to_string();
    let mut pos = 6 + id_len;
    let mut read_u64 = |bytes: &[u8]| -> u64 {
        let v = u64::from_le_bytes(le(bytes, pos));
        pos += 8;
        v
    };
    let chunk_size = read_u64(bytes) as usize;
    let data_len = read_u64(bytes) as usize;
    let payload_len = read_u64(bytes) as usize;
    let sharding = if sharded {
        let shard_size = read_u64(bytes) as usize;
        let index_len = read_u64(bytes) as usize;
        if shard_size == 0 {
            return Err(bad("zero shard size"));
        }
        if index_len == 0 {
            return Err(bad("zero index length"));
        }
        Some(ShardingMeta { shard_size, index_len })
    } else {
        None
    };
    let data_crc = u32::from_le_bytes(le(bytes, pos));
    if chunk_size == 0 {
        return Err(bad("zero chunk size"));
    }
    Ok(ContainerMeta { scheme_id, chunk_size, data_len, payload_len, data_crc, sharding })
}

/// Clamped load of the `N` little-endian bytes at `pos`: bytes past the
/// end read as zero. The parsers' length checks guarantee the range
/// exists; the clamp keeps them total even if that invariant ever breaks.
fn le<const N: usize>(bytes: &[u8], pos: usize) -> [u8; N] {
    let mut b = [0u8; N];
    if let Some(src) = bytes.get(pos..pos + N) {
        b.copy_from_slice(src);
    }
    b
}

/// Size of the container framing for `meta` — the triplicated length
/// prefix plus both header codewords — i.e. the byte offset at which the
/// payload begins. A pure function of the header fields, so callers can
/// allocate `header_len(meta) + meta.payload_len` (plus three index
/// copies for v2) up front and scatter-write the whole container into it.
pub fn header_len(meta: &ContainerMeta) -> usize {
    // serialize_header: magic 4 + version 1 + id-len byte 1 + id + 3×u64
    // + crc 4, plus shard_size/index_len u64s for sharded containers.
    let header = 34 + meta.scheme_id.len() + if meta.sharding.is_some() { 16 } else { 0 };
    6 + 2 * (header + HEADER_NSYM)
}

/// Write the container framing into `out`, which must be exactly
/// [`header_len`] bytes. `out` may hold arbitrary garbage; every byte is
/// overwritten. An over-long scheme id or a mis-sized buffer is an
/// [`ArcError::InvalidRequest`], never a panic.
pub fn write_header(meta: &ContainerMeta, out: &mut [u8]) -> Result<(), ArcError> {
    if meta.scheme_id.len() > 64 {
        return Err(ArcError::InvalidRequest(format!(
            "scheme id of {} bytes exceeds the container header's 64-byte cap",
            meta.scheme_id.len()
        )));
    }
    let header = serialize_header(meta);
    let Ok(rs) = RsCodeword::new(HEADER_NSYM) else {
        return Err(ArcError::InvalidRequest("header RS codeword unavailable".into()));
    };
    if header.len() > rs.max_message_len() {
        return Err(ArcError::InvalidRequest(format!(
            "header of {} bytes exceeds one RS codeword",
            header.len()
        )));
    }
    let codeword = rs.encode(&header);
    if out.len() != 6 + 2 * codeword.len() {
        return Err(ArcError::InvalidRequest(format!(
            "write_header: buffer is {} bytes, framing needs {}",
            out.len(),
            6 + 2 * codeword.len()
        )));
    }
    let len = (codeword.len() as u16).to_le_bytes();
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[0..2].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[2..4].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[4..6].copy_from_slice(&len);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[6..6 + codeword.len()].copy_from_slice(&codeword);
    // arc-lint: bounded(out.len() == 6 + 2 * codeword.len() checked at entry)
    out[6 + codeword.len()..].copy_from_slice(&codeword);
    Ok(())
}

/// Serialize the shard index to its raw (pre-RS) byte form:
/// `count u64 ‖ entries (21 B each) ‖ CRC-32` of everything preceding.
/// Shared with the streaming encoder (`crate::stream`), which assembles
/// the identical index incrementally.
pub(crate) fn serialize_index(entries: &[ShardEntry]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(12 + entries.len() * INDEX_ENTRY_BYTES);
    raw.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        raw.extend_from_slice(&(e.offset as u64).to_le_bytes());
        raw.extend_from_slice(&(e.encoded_len as u32).to_le_bytes());
        raw.extend_from_slice(&(e.decoded_len as u32).to_le_bytes());
        raw.extend_from_slice(&e.crc.to_le_bytes());
        raw.push(0); // scheme slot, reserved
    }
    let crc = crc32(&raw);
    raw.extend_from_slice(&crc.to_le_bytes());
    raw
}

/// RS-protect a raw index: split into maximal messages and encode each as
/// its own codeword. The encoded length is a pure function of the raw
/// length (and vice versa), so no extra framing is needed.
pub(crate) fn rs_index_encode(raw: &[u8]) -> Result<Vec<u8>, ArcError> {
    let (Ok(rs), Some(len)) = (RsCodeword::new(INDEX_NSYM), rs_index_len(raw.len())) else {
        return Err(ArcError::InvalidRequest("index RS codeword unavailable".into()));
    };
    // arc-lint: bounded(encode path; raw is an index this process serialized)
    let mut out = Vec::with_capacity(len);
    for chunk in raw.chunks(rs.max_message_len()) {
        out.extend_from_slice(&rs.encode(chunk));
    }
    Ok(out)
}

/// Length of the RS-protected form of a `raw_len`-byte raw index.
fn rs_index_len(raw_len: usize) -> Option<usize> {
    let msg = RsCodeword::new(INDEX_NSYM).ok()?.max_message_len();
    raw_len.div_ceil(msg).checked_mul(INDEX_NSYM)?.checked_add(raw_len)
}

/// Attempt to RS-decode one copy of the index. Returns the raw bytes and
/// the number of symbols repaired, or `None` when any codeword is beyond
/// repair (the caller falls through to the next copy / the majority vote).
fn rs_index_decode(encoded: &[u8]) -> Option<(Vec<u8>, usize)> {
    let rs = RsCodeword::new(INDEX_NSYM).ok()?;
    let cw = rs.max_message_len() + INDEX_NSYM;
    let tail = encoded.len() % cw;
    if encoded.is_empty() || (tail != 0 && tail <= INDEX_NSYM) {
        return None;
    }
    let mut raw = Vec::with_capacity(encoded.len());
    let mut fixed = 0usize;
    for chunk in encoded.chunks(cw) {
        let (msg, f) = rs.decode(chunk).ok()?;
        raw.extend_from_slice(&msg);
        fixed += f;
    }
    Some((raw, fixed))
}

/// Parse and validate a raw index against the (already RS-verified)
/// header fields. Everything here is pure arithmetic on small integers;
/// all sums use checked arithmetic so hostile values cannot wrap.
fn parse_index(raw: &[u8], meta: &ContainerMeta) -> Result<ShardIndex, ArcError> {
    let bad = |d: &str| ArcError::Corrupted(format!("shard index: {d}"));
    if raw.len() < 12 {
        return Err(bad("shorter than its framing"));
    }
    let count = u64::from_le_bytes(le(raw, 0)) as usize;
    let expect = count
        .checked_mul(INDEX_ENTRY_BYTES)
        .and_then(|n| n.checked_add(12))
        .ok_or_else(|| bad("entry count overflows"))?;
    if raw.len() != expect {
        return Err(bad("length disagrees with entry count"));
    }
    // arc-lint: bounded(raw.len() == count * INDEX_ENTRY_BYTES + 12 >= 12 checked above)
    if u32::from_le_bytes(le(raw, raw.len() - 4)) != crc32(&raw[..raw.len() - 4]) {
        return Err(bad("CRC mismatch"));
    }
    let sharding = meta.sharding.ok_or_else(|| bad("index present on an unsharded container"))?;
    // arc-lint: bounded(count * INDEX_ENTRY_BYTES + 12 == raw.len() checked above)
    let mut entries = Vec::with_capacity(count);
    let mut next_offset = 0usize;
    let mut total_decoded = 0usize;
    for i in 0..count {
        let base = 8 + i * INDEX_ENTRY_BYTES;
        let offset = u64::from_le_bytes(le(raw, base)) as usize;
        let encoded_len = u32::from_le_bytes(le(raw, base + 8)) as usize;
        let decoded_len = u32::from_le_bytes(le(raw, base + 12)) as usize;
        let crc = u32::from_le_bytes(le(raw, base + 16));
        // arc-lint: bounded(base + 20 < raw.len() by the entry-count length equality above)
        if raw[base + 20] != 0 {
            return Err(bad("unknown per-shard scheme slot"));
        }
        if offset != next_offset {
            return Err(bad("shard offsets not contiguous"));
        }
        if decoded_len == 0 || decoded_len > sharding.shard_size {
            return Err(bad("shard decoded length out of range"));
        }
        if encoded_len < decoded_len {
            return Err(bad("shard encoded length below decoded length"));
        }
        next_offset =
            offset.checked_add(encoded_len).ok_or_else(|| bad("shard offsets overflow"))?;
        total_decoded = total_decoded
            .checked_add(decoded_len)
            .ok_or_else(|| bad("decoded lengths overflow"))?;
        entries.push(ShardEntry { offset, encoded_len, decoded_len, crc });
    }
    if next_offset != meta.payload_len {
        return Err(bad("encoded lengths disagree with payload length"));
    }
    if total_decoded != meta.data_len {
        return Err(bad("decoded lengths disagree with data length"));
    }
    Ok(ShardIndex { entries })
}

/// Recover the shard index from `trailer`, its three back-to-back copies:
/// first copy whose RS codewords decode *and* whose contents validate
/// wins; if none does, a bitwise 2-of-3 majority vote across the copies
/// gets one final attempt.
pub(crate) fn recover_index(
    trailer: &[u8],
    meta: &ContainerMeta,
) -> Result<(ShardIndex, IndexRepair), ArcError> {
    let (first, rest) = trailer.split_at(trailer.len() / 3);
    let (second, third) = rest.split_at(first.len());
    for (copy_used, copy) in [first, second, third].iter().enumerate() {
        if let Some((raw, symbols_corrected)) = rs_index_decode(copy) {
            if let Ok(index) = parse_index(&raw, meta) {
                if copy_used > 0 {
                    arc_telemetry::counter_add("core.index.copy_fallback", 1);
                }
                arc_telemetry::counter_add(
                    "core.index.symbols_corrected",
                    symbols_corrected as u64,
                );
                return Ok((
                    index,
                    IndexRepair { symbols_corrected, copy_used, majority_voted: false },
                ));
            }
        }
    }
    // Bitwise triple-modular-redundancy vote: each output bit is the
    // majority of the three copies' bits, which repairs any damage that
    // never hits the same bit in two copies.
    let voted: Vec<u8> = first
        .iter()
        .zip(second)
        .zip(third)
        .map(|((a, b), c)| (a & b) | (a & c) | (b & c))
        .collect();
    if let Some((raw, symbols_corrected)) = rs_index_decode(&voted) {
        if let Ok(index) = parse_index(&raw, meta) {
            arc_telemetry::counter_add("core.index.majority_voted", 1);
            return Ok((
                index,
                IndexRepair { symbols_corrected, copy_used: 0, majority_voted: true },
            ));
        }
    }
    Err(ArcError::Corrupted("shard index unrecoverable in all three copies".into()))
}

/// Assemble a container around an encoded payload.
///
/// Convenience wrapper over [`header_len`] + [`write_header`]; the zero-copy
/// encode paths skip it and scatter-write the payload directly after the
/// reserved header prefix. Produces monolithic (v1) containers only — the
/// sharded path is [`encode_sharded`].
pub fn pack(meta: &ContainerMeta, payload: &[u8]) -> Result<Vec<u8>, ArcError> {
    debug_assert_eq!(meta.payload_len, payload.len());
    let hlen = header_len(meta);
    let mut out = vec![0u8; hlen + payload.len()];
    write_header(meta, &mut out[..hlen])?;
    out[hlen..].copy_from_slice(payload);
    Ok(out)
}

/// Encode `data` into a v2 sharded container: every `shard_size`-byte
/// slice of the input becomes an independently ECC'd, independently
/// decodable shard, described by an RS-protected, triplicated index.
///
/// Allocates the whole container once and scatter-writes header, shard
/// payloads (via [`ParallelCodec::encode_sharded_into`], one pool pass
/// over all shards' chunks), and all three index copies in place.
pub fn encode_sharded<S: EccScheme>(
    data: &[u8],
    codec: &ParallelCodec<S>,
    scheme_id: &str,
    shard_size: usize,
) -> Result<Vec<u8>, ArcError> {
    if shard_size == 0 {
        return Err(ArcError::InvalidRequest("shard size must be >= 1".into()));
    }
    let mut entries = Vec::with_capacity(data.len().div_ceil(shard_size.max(1)));
    let mut payload_len = 0usize;
    let mut data_crc = 0u32;
    for shard in data.chunks(shard_size) {
        let (entry, next) = shard_entry(payload_len, shard.len(), codec.encoded_len(shard.len()))?;
        let crc = crc32(shard);
        data_crc = crc32_combine(data_crc, crc, shard.len());
        entries.push(ShardEntry { crc, ..entry });
        payload_len = next;
    }
    let index = rs_index_encode(&serialize_index(&entries))?;
    let meta = ContainerMeta {
        scheme_id: scheme_id.to_string(),
        chunk_size: codec.chunk_size(),
        data_len: data.len(),
        payload_len,
        data_crc,
        sharding: Some(ShardingMeta { shard_size, index_len: index.len() }),
    };
    let hlen = header_len(&meta);
    let mut out = vec![0u8; hlen + payload_len + 3 * index.len()];
    write_header(&meta, &mut out[..hlen])?;
    codec.encode_sharded_into(data, shard_size, &mut out[hlen..hlen + payload_len])?;
    for copy in out[hlen + payload_len..].chunks_mut(index.len()) {
        copy.copy_from_slice(&index);
    }
    Ok(out)
}

/// The index entry (CRC still 0) for a shard of `decoded_len` bytes encoded
/// to `encoded_len` at payload `offset`, and the next shard's offset.
/// Lengths that overflow the index's u32 fields or the payload's offsets
/// are an [`ArcError::InvalidRequest`].
pub(crate) fn shard_entry(
    offset: usize,
    decoded_len: usize,
    encoded_len: usize,
) -> Result<(ShardEntry, usize), ArcError> {
    if encoded_len > u32::MAX as usize || decoded_len > u32::MAX as usize {
        return Err(ArcError::InvalidRequest(format!(
            "shard of {decoded_len} bytes overflows the index's u32 length fields"
        )));
    }
    let next = offset
        .checked_add(encoded_len)
        .ok_or_else(|| ArcError::InvalidRequest("payload length overflows".into()))?;
    Ok((ShardEntry { offset, encoded_len, decoded_len, crc: 0 }, next))
}

/// Result of unpacking a container.
#[derive(Debug, Clone, PartialEq)]
pub struct Unpacked<'a> {
    /// Parsed header.
    pub meta: ContainerMeta,
    /// The (still ECC-encoded) payload region. For v2 containers this is
    /// exactly the shard payloads — the index copies that follow are
    /// already digested into `index`.
    pub payload: &'a [u8],
    /// Byte offset of the payload region within the container, so in-place
    /// decoders can re-borrow it mutably from the original buffer.
    pub payload_offset: usize,
    /// True when the primary header copy was unusable and the backup copy
    /// saved the day.
    pub used_backup_header: bool,
    /// Header bytes repaired by the RS codeword.
    pub header_symbols_corrected: usize,
    /// The recovered shard index (v2 containers only).
    pub index: Option<ShardIndex>,
    /// How the shard index was recovered (all-zero for v1 containers).
    pub index_repair: IndexRepair,
}

/// Parse and repair a container produced by [`pack`] or [`encode_sharded`].
pub fn unpack(bytes: &[u8]) -> Result<Unpacked<'_>, ArcError> {
    if bytes.len() < 6 {
        return Err(ArcError::Corrupted("container shorter than its length prefix".into()));
    }
    let decoded = header_len_candidates(bytes)
        .into_iter()
        .find_map(|len| Some((6 + 2 * len, decode_header(bytes, len)?)));
    let Some((payload_offset, header)) = decoded else {
        return Err(ArcError::Corrupted("header unrecoverable in both copies".into()));
    };
    // decode_header only succeeds when both codewords are present.
    let region = bytes.get(payload_offset..).unwrap_or_default();
    let meta = header.meta;
    let (payload, index, index_repair) = match meta.sharding {
        None => {
            // Final consistency check against the buffer we have.
            if region.len() != meta.payload_len {
                return Err(ArcError::Corrupted(format!(
                    "payload region {} bytes but header declares {}",
                    region.len(),
                    meta.payload_len
                )));
            }
            (region, None, IndexRepair::default())
        }
        Some(sh) => {
            // v2: the region after the header is payload plus three index
            // copies, and the total must match *exactly* — checked
            // arithmetic so hostile header values (already RS-verified, but
            // belt and braces) cannot wrap, and checked *before* any
            // index-sized allocation so a corrupt length cannot demand
            // memory.
            let expect = sh.index_len.checked_mul(3).and_then(|i| meta.payload_len.checked_add(i));
            if expect != Some(region.len()) {
                return Err(match expect {
                    None => ArcError::Corrupted("header: payload/index lengths overflow".into()),
                    Some(_) => ArcError::Corrupted(format!(
                        "sharded region {} bytes but header declares {} payload + 3×{} index",
                        region.len(),
                        meta.payload_len,
                        sh.index_len
                    )),
                });
            }
            let (payload, trailer) = region.split_at(meta.payload_len);
            let (index, repair) = recover_index(trailer, &meta)?;
            (payload, Some(index), repair)
        }
    };
    Ok(Unpacked {
        meta,
        payload,
        payload_offset,
        used_backup_header: header.used_backup,
        header_symbols_corrected: header.symbols_corrected,
        index,
        index_repair,
    })
}

/// The triplicated length-prefix vote, shared by [`unpack`] and the
/// streaming decoder: the header-codeword lengths worth trying, shortest
/// first. A 2-of-3 winner is the only candidate; with no majority every
/// distinct value gets a chance. Lengths too short to hold a codeword are
/// dropped.
pub(crate) fn header_len_candidates(prefix: &[u8]) -> Vec<usize> {
    let lens = [0, 2, 4].map(|pos| usize::from(u16::from_le_bytes(le(prefix, pos))));
    let voted = if lens[0] == lens[1] || lens[0] == lens[2] {
        lens[0]
    } else if lens[1] == lens[2] {
        lens[1]
    } else {
        0
    };
    let mut candidates = if voted != 0 { vec![voted] } else { lens.to_vec() };
    candidates.retain(|l| *l > HEADER_NSYM);
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// A header recovered from one of its two codeword copies.
pub(crate) struct Header {
    pub(crate) meta: ContainerMeta,
    /// True when the primary copy was unusable and the backup decoded.
    pub(crate) used_backup: bool,
    /// Header bytes repaired by the RS codeword.
    pub(crate) symbols_corrected: usize,
}

/// Decode the two `len`-byte header codewords that follow the 6-byte
/// length prefix at the start of `framing`: primary first, then backup.
/// `None` when `framing` is too short to hold both or neither copy decodes
/// to a valid header.
pub(crate) fn decode_header(framing: &[u8], len: usize) -> Option<Header> {
    let rs = RsCodeword::new(HEADER_NSYM).ok()?;
    let (primary, backup) = framing.get(6..6 + 2 * len)?.split_at(len);
    [(primary, false), (backup, true)].into_iter().find_map(|(copy, used_backup)| {
        let (header_bytes, symbols_corrected) = rs.decode(copy).ok()?;
        let meta = parse_header(&header_bytes).ok()?;
        Some(Header { meta, used_backup, symbols_corrected })
    })
}

/// Resolve `meta`'s scheme, build its codec, and check that the header's
/// payload and index lengths are exactly what the encoder computes from
/// `data_len` (and `shard_size`) under that codec. Every decode surface
/// runs this once, before it reads or buffers anything the header
/// promises, so a corrupt-but-decodable header can neither demand
/// unbounded memory nor drive out-of-contract length arithmetic.
pub(crate) fn open_codec(
    meta: &ContainerMeta,
    threads: usize,
    registry: Option<&ExtensionRegistry>,
) -> Result<SchemeCodec, ArcError> {
    let scheme = resolve_scheme(&meta.scheme_id, registry)?;
    // The original data is a subset of the ECC-encoded payload; bound it
    // before the codec's length arithmetic can see it.
    if meta.data_len > meta.payload_len {
        return Err(ArcError::Corrupted(format!(
            "declared data length {} exceeds payload length {}",
            meta.data_len, meta.payload_len
        )));
    }
    let codec = ParallelCodec::with_chunk_size(scheme, threads, meta.chunk_size)?;
    let Some(sh) = meta.sharding else {
        if codec.encoded_len(meta.data_len) != meta.payload_len {
            return Err(ArcError::Corrupted("payload length disagrees with data length".into()));
        }
        return Ok(codec);
    };
    if codec.sharded_encoded_len(meta.data_len, sh.shard_size) != meta.payload_len {
        return Err(ArcError::Corrupted("payload length disagrees with shard geometry".into()));
    }
    let raw_len = meta.data_len.div_ceil(sh.shard_size).checked_mul(INDEX_ENTRY_BYTES);
    if raw_len.and_then(|n| rs_index_len(n.checked_add(12)?)) != Some(sh.index_len) {
        return Err(ArcError::Corrupted("index length disagrees with shard count".into()));
    }
    Ok(codec)
}

/// The one shard decode: check `e`'s geometry against the codec, repair
/// `region` (exactly the shard's encoded bytes) in place, and, when
/// `check_crc` is set, verify the repaired bytes against `e.crc`. On
/// success `region[..e.decoded_len]` is the shard's original data.
///
/// A v1 payload is one synthetic shard whose CRC is the whole-data CRC.
/// The streaming decoder alone passes `check_crc = false` for v2 shards,
/// whose CRCs only arrive with the trailing index.
pub(crate) fn decode_shard<S: EccScheme>(
    codec: &ParallelCodec<S>,
    region: &mut [u8],
    e: &ShardEntry,
    shard: usize,
    check_crc: bool,
) -> Result<CorrectionReport, ArcError> {
    // The index is CRC+RS protected, so this is defense in depth against
    // a forged entry, not a hot path.
    if e.encoded_len != codec.encoded_len(e.decoded_len) {
        return Err(ArcError::Corrupted(format!(
            "shard {shard}: encoded length {} inconsistent with scheme (expected {})",
            e.encoded_len,
            codec.encoded_len(e.decoded_len)
        )));
    }
    let report = codec.decode_shard_in_place(region, e.decoded_len)?;
    if check_crc && region.get(..e.decoded_len).map(crc32) != Some(e.crc) {
        return Err(ArcError::Ecc(arc_ecc::EccError::Uncorrectable {
            scheme: codec.config().name(),
            detail: format!("shard {shard}: end-to-end CRC mismatch after ECC decode"),
        }));
    }
    Ok(report)
}

/// A container opened for decoding: header and index recovered by
/// [`unpack`], codec built and lengths checked by [`open_codec`]. A v1
/// payload becomes one synthetic shard carrying the whole-data CRC, so the
/// one-shot, in-place and random-access decoders all walk `index` alike.
pub(crate) struct Layout {
    pub(crate) meta: ContainerMeta,
    pub(crate) payload_offset: usize,
    pub(crate) used_backup_header: bool,
    pub(crate) header_symbols_corrected: usize,
    /// How the shard index was recovered; `None` for v1 containers.
    pub(crate) index_repair: Option<IndexRepair>,
    pub(crate) index: ShardIndex,
    pub(crate) codec: SchemeCodec,
}

impl Layout {
    pub(crate) fn open(
        bytes: &[u8],
        threads: usize,
        registry: Option<&ExtensionRegistry>,
    ) -> Result<Layout, ArcError> {
        let Unpacked {
            meta,
            payload_offset,
            used_backup_header,
            header_symbols_corrected,
            index,
            index_repair,
            ..
        } = unpack(bytes)?;
        let codec = open_codec(&meta, threads, registry)?;
        let (index, index_repair) = match index {
            Some(index) => (index, Some(index_repair)),
            None => {
                let (encoded_len, decoded_len) = (meta.payload_len, meta.data_len);
                let whole = ShardEntry { offset: 0, encoded_len, decoded_len, crc: meta.data_crc };
                (ShardIndex { entries: vec![whole] }, None)
            }
        };
        Ok(Layout {
            meta,
            payload_offset,
            used_backup_header,
            header_symbols_corrected,
            index_repair,
            index,
            codec,
        })
    }

    /// The full-decode body: repair every shard with [`decode_shard`],
    /// leave the original data in `buf[..data_len]`, check the whole-data
    /// CRC (folded from the verified shard CRCs, so the data is read once),
    /// and report what was repaired.
    ///
    /// With `src` set to the container's payload region, `buf` is scratch
    /// of `data_len` plus the largest shard's parity, and each shard is
    /// copied in right behind the data decoded so far. With `src` `None`, `buf` *is* the
    /// payload region and each shard's encoded bytes move down in place;
    /// the move is forward-safe because decoded lengths never exceed
    /// encoded ones, and is skipped when nothing precedes the shard (v1).
    pub(crate) fn decode_shards(
        &self,
        buf: &mut [u8],
        src: Option<&[u8]>,
    ) -> Result<ArcDecodeReport, ArcError> {
        let mut correction = CorrectionReport::default();
        let mut data_crc = 0u32;
        let mut pos = 0usize;
        for (i, e) in self.index.entries.iter().enumerate() {
            let from = e.offset..e.offset + e.encoded_len;
            let to = pos..pos + e.encoded_len;
            let staged = match src {
                Some(payload) => payload
                    .get(from)
                    .zip(buf.get_mut(to.clone()))
                    .map(|(s, d)| d.copy_from_slice(s)),
                None if from.start == pos => Some(()),
                None => {
                    (pos <= from.start && from.end <= buf.len()).then(|| buf.copy_within(from, pos))
                }
            };
            let region = staged
                .and_then(|()| buf.get_mut(to))
                .ok_or_else(|| ArcError::Corrupted(format!("shard {i}: region exceeds payload")))?;
            correction.merge(&decode_shard(&self.codec, region, e, i, true)?);
            data_crc = crc32_combine(data_crc, e.crc, e.decoded_len);
            pos += e.decoded_len;
        }
        // v1's single shard already checked the whole-data CRC; a v2 one is
        // folded from the shard CRCs `decode_shard` just verified.
        if self.index_repair.is_some() && data_crc != self.meta.data_crc {
            return Err(ArcError::Ecc(arc_ecc::EccError::Uncorrectable {
                scheme: self.codec.config().name(),
                detail: "end-to-end CRC mismatch after ECC decode".into(),
            }));
        }
        Ok(ArcDecodeReport {
            scheme_id: self.meta.scheme_id.clone(),
            config: self.meta.builtin_config(),
            correction,
            used_backup_header: self.used_backup_header,
            header_symbols_corrected: self.header_symbols_corrected,
            index_repair: self.index_repair,
        })
    }
}

/// Allocate a monolithic v1 container for `data` and write its framing:
/// the one place the v1 layout is assembled. Returns the buffer and the
/// payload offset; the caller fills `out[offset..]` with `codec`'s
/// encoding of `data`, whole or chunk by chunk.
pub(crate) fn frame_monolithic<S: EccScheme>(
    data: &[u8],
    codec: &ParallelCodec<S>,
    scheme_id: &str,
) -> Result<(Vec<u8>, usize), ArcError> {
    let meta = ContainerMeta {
        scheme_id: scheme_id.to_string(),
        chunk_size: codec.chunk_size(),
        data_len: data.len(),
        payload_len: codec.encoded_len(data.len()),
        data_crc: crc32(data),
        sharding: None,
    };
    let hlen = header_len(&meta);
    // arc-lint: bounded(encode path; sized from the caller's own data, not decoded input)
    let mut out = vec![0u8; hlen + meta.payload_len];
    write_header(&meta, out.get_mut(..hlen).unwrap_or_default())?;
    Ok((out, hlen))
}

/// Convenience: the container's end-to-end CRC of original data.
pub fn data_crc(data: &[u8]) -> u32 {
    crc32(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ContainerMeta {
        ContainerMeta {
            scheme_id: EccConfig::secded(true).id(),
            chunk_size: 1 << 20,
            data_len: 123_456,
            payload_len: 64,
            data_crc: 0xDEADBEEF,
            sharding: None,
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let m = meta();
        let payload = vec![7u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let u = unpack(&packed).unwrap();
        assert_eq!(u.meta, m);
        assert_eq!(u.payload, &payload[..]);
        assert!(!u.used_backup_header);
        assert_eq!(u.header_symbols_corrected, 0);
        assert!(u.index.is_none());
    }

    #[test]
    fn header_survives_scattered_corruption() {
        let m = meta();
        let payload = vec![1u8; 64];
        let packed = pack(&m, &payload).unwrap();
        // Corrupt 10 bytes of the primary header codeword.
        let mut bad = packed.clone();
        for i in 0..10 {
            bad[6 + i * 3] ^= 0xFF;
        }
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
        assert!(u.header_symbols_corrected > 0);
    }

    #[test]
    fn destroyed_primary_header_falls_back_to_backup() {
        let m = meta();
        let payload = vec![1u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        let mut bad = packed.clone();
        for b in &mut bad[6..6 + len] {
            *b = 0xAA;
        }
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
        assert!(u.used_backup_header);
    }

    #[test]
    fn corrupted_length_prefix_is_voted_out() {
        let m = meta();
        let payload = vec![9u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let mut bad = packed.clone();
        bad[0] ^= 0xFF; // first copy of the length field
        bad[1] ^= 0x13;
        let u = unpack(&bad).unwrap();
        assert_eq!(u.meta, m);
    }

    #[test]
    fn both_headers_destroyed_is_detected() {
        let m = meta();
        let payload = vec![2u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        let mut bad = packed.clone();
        for b in &mut bad[6..6 + 2 * len] {
            *b = 0x55;
        }
        assert!(matches!(unpack(&bad), Err(ArcError::Corrupted(_))));
    }

    #[test]
    fn payload_length_mismatch_detected() {
        let m = meta();
        let payload = vec![3u8; 64];
        let mut packed = pack(&m, &payload).unwrap();
        packed.truncate(packed.len() - 10);
        assert!(matches!(unpack(&packed), Err(ArcError::Corrupted(_))));
    }

    #[test]
    fn every_single_byte_corruption_of_header_region_recovers_or_detects() {
        let m = meta();
        let payload = vec![4u8; 64];
        let packed = pack(&m, &payload).unwrap();
        let len = u16::from_le_bytes(packed[0..2].try_into().unwrap()) as usize;
        for i in 0..6 + 2 * len {
            let mut bad = packed.clone();
            bad[i] ^= 0x40;
            match unpack(&bad) {
                Ok(u) => assert_eq!(u.meta, m, "byte {i}"),
                Err(e) => panic!("single-byte header damage at {i} unrecoverable: {e}"),
            }
        }
    }

    #[test]
    fn header_len_matches_pack_layout() {
        for config in EccConfig::standard_space() {
            let m = ContainerMeta { scheme_id: config.id(), ..meta() };
            let payload = vec![5u8; 64];
            let packed = pack(&m, &payload).unwrap();
            let hlen = header_len(&m);
            assert_eq!(packed.len(), hlen + payload.len(), "{}", m.scheme_id);
            assert_eq!(&packed[hlen..], &payload[..]);
            let u = unpack(&packed).unwrap();
            assert_eq!(u.payload_offset, hlen);
        }
    }

    #[test]
    fn write_header_overwrites_garbage() {
        let m = meta();
        let payload = vec![8u8; 64];
        let reference = pack(&m, &payload).unwrap();
        let hlen = header_len(&m);
        let mut buf = vec![0xCCu8; hlen];
        write_header(&m, &mut buf).unwrap();
        assert_eq!(&buf[..], &reference[..hlen]);
    }

    #[test]
    fn all_configs_serialize_in_header() {
        for config in EccConfig::standard_space() {
            let m = ContainerMeta { scheme_id: config.id(), ..meta() };
            let payload = vec![0u8; 64];
            let packed = pack(&m, &payload).unwrap();
            let u = unpack(&packed).unwrap();
            assert_eq!(u.meta.builtin_config(), Some(config));
        }
    }

    // ---- v2 sharded containers ----------------------------------------

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 37) ^ (i >> 5)) as u8).collect()
    }

    fn v2_container(data: &[u8], shard_size: usize) -> Vec<u8> {
        let codec = ParallelCodec::with_chunk_size(EccConfig::secded(true), 1, 4 << 10).unwrap();
        encode_sharded(data, &codec, &EccConfig::secded(true).id(), shard_size).unwrap()
    }

    #[test]
    fn sharded_header_round_trips() {
        let m = ContainerMeta {
            sharding: Some(ShardingMeta { shard_size: 4 << 20, index_len: 987 }),
            ..meta()
        };
        let header = serialize_header(&m);
        assert_eq!(header[4], VERSION_SHARDED);
        let parsed = parse_header(&header).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn sharded_unpack_recovers_index() {
        let data = sample(50_000);
        let packed = v2_container(&data, 16 << 10);
        let u = unpack(&packed).unwrap();
        let index = u.index.expect("v2 container has an index");
        assert_eq!(index.shard_count(), data.len().div_ceil(16 << 10));
        assert_eq!(u.payload.len(), u.meta.payload_len);
        assert_eq!(u.index_repair, IndexRepair::default());
        let starts = index.decoded_starts();
        assert_eq!(starts[0], 0);
        assert_eq!(
            starts.last().copied().unwrap() + index.entries.last().unwrap().decoded_len,
            data.len()
        );
        // Per-shard CRCs match the original slices.
        for (e, start) in index.entries.iter().zip(&starts) {
            assert_eq!(e.crc, crc32(&data[*start..*start + e.decoded_len]));
        }
    }

    #[test]
    fn sharded_index_survives_one_destroyed_copy() {
        let data = sample(40_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Destroy the entire first index copy.
        let mut bad = packed.clone();
        for b in &mut bad[istart..istart + sh.index_len] {
            *b = 0xAA;
        }
        let r = unpack(&bad).unwrap();
        assert_eq!(r.index, u.index);
        assert_eq!(r.index_repair.copy_used, 1);
        assert!(!r.index_repair.majority_voted);
    }

    #[test]
    fn sharded_index_majority_vote_rescues_three_damaged_copies() {
        let data = sample(40_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Damage every copy beyond its own RS repair (nsym/2 = 16 bytes
        // per codeword), but at copy-distinct positions so the bitwise
        // vote still sees two clean copies of every byte.
        let mut bad = packed.clone();
        for copy in 0..3 {
            let base = istart + copy * sh.index_len;
            for i in 0..20 {
                bad[base + (copy + 3 * i) % sh.index_len] ^= 0xFF;
            }
        }
        let r = unpack(&bad).unwrap();
        assert_eq!(r.index, u.index);
        assert!(r.index_repair.majority_voted);
    }

    #[test]
    fn sharded_truncation_is_detected_at_every_boundary() {
        let data = sample(10_000);
        let packed = v2_container(&data, 4 << 10);
        for cut in 1..=64 {
            let short = &packed[..packed.len() - cut];
            assert!(unpack(short).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn sharded_empty_data_round_trips() {
        let packed = v2_container(&[], 4 << 10);
        let u = unpack(&packed).unwrap();
        assert_eq!(u.meta.data_len, 0);
        assert_eq!(u.index.unwrap().shard_count(), 0);
    }

    #[test]
    fn sharded_zero_shard_size_rejected() {
        let codec = ParallelCodec::new(EccConfig::secded(true), 1).unwrap();
        assert!(matches!(
            encode_sharded(&[1, 2, 3], &codec, "secded:64", 0),
            Err(ArcError::InvalidRequest(_))
        ));
    }

    #[test]
    fn index_rejects_tampered_entry() {
        let data = sample(30_000);
        let packed = v2_container(&data, 8 << 10);
        let u = unpack(&packed).unwrap();
        let sh = u.meta.sharding.unwrap();
        let istart = u.payload_offset + u.meta.payload_len;
        // Flip the same raw byte in all three copies *and* regenerate
        // nothing — RS + CRC must refuse the forged geometry rather than
        // serve a wrong index.
        let mut bad = packed.clone();
        for copy in 0..3 {
            let base = istart + copy * sh.index_len;
            for b in &mut bad[base..base + 40] {
                *b ^= 0x5A;
            }
        }
        assert!(unpack(&bad).is_err());
    }

    #[test]
    fn v1_and_v2_header_lens_differ_by_sharding_fields() {
        let v1 = meta();
        let v2 = ContainerMeta {
            sharding: Some(ShardingMeta { shard_size: 1 << 20, index_len: 44 }),
            ..meta()
        };
        assert_eq!(header_len(&v2), header_len(&v1) + 32); // 2 copies × 16 bytes
    }
}
