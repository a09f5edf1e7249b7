//! Streaming and batched front-ends over the v2 sharded container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds the bounded-memory
//! service layer (DESIGN.md §14):
//!
//! * [`StreamEncoder`] — accepts data in arbitrary-size pushes and encodes
//!   it in passes of up to `threads` whole shards, one job per shard on
//!   [`run_jobs`], the dispatch every ECC pass uses. A pass finishes before
//!   `push` returns, so peak buffering is `threads` × (shard + encoded
//!   shard) regardless of input size. Emits v2 container bytes to a
//!   [`StreamSink`]. The finished container is **byte-identical** to
//!   [`container::encode_sharded`] with the same configuration: shard
//!   payloads are per-shard [`ParallelCodec::encode_into`] regions (the
//!   invariant `encode_sharded_into` already guarantees), and the header
//!   and triplicated index are produced by the same serializers.
//! * [`StreamDecoder`] — a push-based state machine over the same wire
//!   format: length-prefix vote → RS-protected header → per-shard decode
//!   (emitting plaintext as each shard completes, without waiting for the
//!   trailing index) → index recovery, which is cross-checked against the
//!   geometry actually decoded. Total over hostile bytes: every failure is
//!   an [`ArcError`], never a panic, and buffering is proportional to the
//!   bytes actually pushed, never to a length a corrupt header claims.
//! * [`encode_batch`] / [`decode_batch`] — coalesce many small independent
//!   requests into one flat pool pass so requests below the per-scheme
//!   bytes-per-thread floor still fill all workers in aggregate.

use std::convert::Infallible;

use arc_ecc::crc::{crc32, crc32_combine};
use arc_ecc::parallel::{resolve_threads, run_jobs, DEFAULT_CHUNK_SIZE};
use arc_ecc::{CorrectionReport, EccConfig, ParallelCodec};

use crate::container::{
    self, ContainerMeta, IndexRepair, SchemeCodec, ShardEntry, ShardingMeta, DEFAULT_SHARD_SIZE,
};
use crate::error::ArcError;
use crate::extension::{ExtensionRegistry, Scheme};
use crate::interface::{decode_with_threads, ArcDecodeReport};

/// Positional byte sink for streaming encode output.
///
/// The encoder emits shard payloads as they complete and back-patches the
/// header (whose length fields are only known at [`StreamEncoder::finish`])
/// at offset 0, so the sink must support positional writes rather than
/// append-only ones. Offsets are contiguous in aggregate: every byte of
/// `0..container_len` is written exactly once.
pub trait StreamSink {
    /// Write `bytes` at absolute `offset`, growing the sink if needed.
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError>;
}

impl StreamSink for Vec<u8> {
    fn write_at(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ArcError> {
        let end = offset
            .checked_add(bytes.len())
            .ok_or_else(|| ArcError::InvalidRequest("sink offset overflows".into()))?;
        if self.len() < end {
            // arc-lint: bounded(encoder-side sink; grows only to the extent the encoder writes)
            self.resize(end, 0);
        }
        self[offset..end].copy_from_slice(bytes);
        Ok(())
    }
}

/// Tuning knobs for [`StreamEncoder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Shards encoded in parallel per pass (`0` = all available cores, as
    /// [`arc_ecc::ANY_THREADS`]; `1` = encode each shard on the pushing
    /// thread). Peak buffering is `threads` × (shard + encoded shard).
    pub threads: usize,
    /// Decoded bytes per shard (the v2 random-access granule).
    pub shard_size: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { threads: 1, shard_size: DEFAULT_SHARD_SIZE }
    }
}

/// What a finished streaming encode did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEncodeStats {
    /// Original bytes pushed.
    pub data_len: usize,
    /// Total container bytes written to the sink.
    pub container_len: usize,
    /// Shards emitted.
    pub shards: usize,
    /// Most shards one pass encodes: the resolved thread count (1 = every
    /// shard is encoded on the pushing thread).
    pub workers: usize,
    /// Passes that ran on worker threads. Each blocks `push`/`finish` until
    /// its shards are written — the back-pressure that bounds peak memory.
    /// Always 0 at one thread.
    pub backpressure_waits: u64,
}

/// Incremental v2 container writer with bounded memory.
///
/// ```
/// use arc_core::stream::{StreamEncoder, StreamOptions};
/// use arc_ecc::EccConfig;
///
/// let opts = StreamOptions { shard_size: 4 << 10, ..StreamOptions::default() };
/// let mut enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
/// for piece in [&b"hello "[..], &b"streaming "[..], &b"world"[..]] {
///     enc.push(piece).unwrap();
/// }
/// let (container, stats) = enc.finish().unwrap();
/// assert_eq!(stats.data_len, 21);
/// let (decoded, _) = arc_core::arc_engine_decode(&container, 1).unwrap();
/// assert_eq!(&decoded, b"hello streaming world");
/// ```
pub struct StreamEncoder<S: StreamSink> {
    sink: S,
    scheme_id: String,
    /// Sequential per-shard codec. Runs the scheme behind an `Arc` so
    /// built-ins and extension schemes share one code path.
    codec: SchemeCodec,
    shard_size: usize,
    /// Most shards per pass.
    workers: usize,
    hlen: usize,
    /// Up to `workers` whole shards (or the tail) awaiting a pass.
    staging: Vec<u8>,
    /// One encoded-shard buffer per pass slot, reused across passes.
    outs: Vec<Vec<u8>>,
    /// CRC-32 of every byte encoded so far, folded from the shard CRCs.
    data_crc: u32,
    data_len: usize,
    payload_pos: usize,
    entries: Vec<ShardEntry>,
    backpressure_waits: u64,
}

impl<S: StreamSink> StreamEncoder<S> {
    /// Start a streaming encode into `sink` with `scheme`: a built-in
    /// [`EccConfig`] or a registered extension
    /// ([`ExtensionRegistry::scheme`]). The finished container is
    /// byte-identical to [`crate::arc_engine_encode_sharded`] with the same
    /// scheme and shard size over the concatenated pushes.
    pub fn new(sink: S, scheme: impl Into<Scheme>, opts: StreamOptions) -> Result<Self, ArcError> {
        let scheme = scheme.into();
        if opts.shard_size == 0 {
            return Err(ArcError::InvalidRequest("shard size must be >= 1".into()));
        }
        let workers = resolve_threads(opts.threads);
        if workers.checked_mul(opts.shard_size).is_none() {
            return Err(ArcError::InvalidRequest("threads × shard size overflows".into()));
        }
        let codec = scheme.codec(1, DEFAULT_CHUNK_SIZE)?;
        // The header length is a pure function of the scheme id and the
        // sharded flag, so the payload region can start before any length
        // field is known; `finish` back-patches the real header at 0.
        let meta = ContainerMeta {
            scheme_id: scheme.id().to_string(),
            chunk_size: DEFAULT_CHUNK_SIZE,
            data_len: 0,
            payload_len: 0,
            data_crc: 0,
            sharding: Some(ShardingMeta { shard_size: opts.shard_size, index_len: 1 }),
        };
        let hlen = container::header_len(&meta);
        Ok(StreamEncoder {
            sink,
            scheme_id: meta.scheme_id,
            codec,
            shard_size: opts.shard_size,
            workers,
            hlen,
            staging: Vec::new(),
            outs: Vec::new(),
            data_crc: 0,
            data_len: 0,
            payload_pos: 0,
            entries: Vec::new(),
            backpressure_waits: 0,
        })
    }

    /// Append `bytes` to the stream. Returns once every pass it completes
    /// has been written to the sink.
    ///
    /// Whole shards that are entirely contained in `bytes` take a
    /// zero-copy fast path: with nothing staged, up to `threads` of them
    /// are encoded straight from the caller's buffer, so large pushes skip
    /// the staging memcpy entirely. Output bytes are identical either way.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<(), ArcError> {
        arc_telemetry::counter_add("stream.encode.bytes", bytes.len() as u64);
        // `new` checked this product.
        let pass_len = self.workers * self.shard_size;
        while !bytes.is_empty() {
            if self.staging.is_empty() && bytes.len() >= self.shard_size {
                let whole = bytes.len() / self.shard_size;
                let (pass, rest) = bytes.split_at(whole.min(self.workers) * self.shard_size);
                self.encode_pass(pass)?;
                bytes = rest;
                continue;
            }
            if self.staging.capacity() == 0 {
                // arc-lint: bounded(encoder-side staging; threads × shard size from the caller's options, not decoded input)
                self.staging.reserve_exact(pass_len);
            }
            let take = (pass_len - self.staging.len()).min(bytes.len());
            self.staging.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.staging.len() == pass_len {
                self.flush_staging()?;
            }
        }
        Ok(())
    }

    /// Encode everything staged; `take` + restore keeps the staging
    /// capacity across passes.
    fn flush_staging(&mut self) -> Result<(), ArcError> {
        let staged = std::mem::take(&mut self.staging);
        let result = self.encode_pass(&staged);
        self.staging = staged;
        self.staging.clear();
        result
    }

    /// Encode `data` — at most `workers` shards, only the last of which
    /// may be short — as one job per shard (`encode_into` + the shard CRC)
    /// on [`run_jobs`], then write each shard at its precomputed payload
    /// offset and fold its CRC into the whole-data CRC.
    fn encode_pass(&mut self, data: &[u8]) -> Result<(), ArcError> {
        let first = self.entries.len();
        for shard in data.chunks(self.shard_size) {
            let encoded_len = self.codec.encoded_len(shard.len());
            let (entry, next) = container::shard_entry(self.payload_pos, shard.len(), encoded_len)?;
            self.entries.push(entry);
            self.payload_pos = next;
        }
        let entries = self.entries.get_mut(first..).unwrap_or_default();
        if self.outs.len() < entries.len() {
            self.outs.resize_with(entries.len(), Vec::new);
        }
        let codec = &self.codec;
        let jobs = data.chunks(self.shard_size).zip(entries.iter_mut()).zip(self.outs.iter_mut());
        let Ok(parallel) = run_jobs(
            jobs,
            self.workers,
            |((shard, entry), out)| {
                // arc-lint: bounded(encoded_len computed by the codec from the caller's shard, not decoded input)
                out.resize(entry.encoded_len, 0);
                codec.encode_into(shard, out);
                entry.crc = crc32(shard);
                Ok::<(), Infallible>(())
            },
            |()| {},
        );
        let entries = self.entries.get(first..).unwrap_or_default();
        for ((shard, entry), out) in data.chunks(self.shard_size).zip(entries).zip(&self.outs) {
            self.sink.write_at(self.hlen + entry.offset, out)?;
            self.data_crc = crc32_combine(self.data_crc, entry.crc, shard.len());
        }
        self.data_len += data.len();
        arc_telemetry::counter_add("stream.encode.shards", entries.len() as u64);
        if parallel {
            self.backpressure_waits += 1;
            arc_telemetry::counter_add("stream.encode.backpressure_waits", 1);
        }
        Ok(())
    }

    /// Flush the staged shards, write the triplicated index, back-patch the
    /// header, and return the sink.
    ///
    /// The result is byte-identical to [`container::encode_sharded`] over
    /// the concatenation of every pushed slice.
    pub fn finish(mut self) -> Result<(S, StreamEncodeStats), ArcError> {
        if !self.staging.is_empty() {
            self.flush_staging()?;
        }
        let index = container::rs_index_encode(&container::serialize_index(&self.entries))?;
        let meta = ContainerMeta {
            scheme_id: self.scheme_id.clone(),
            chunk_size: self.codec.chunk_size(),
            data_len: self.data_len,
            payload_len: self.payload_pos,
            data_crc: self.data_crc,
            sharding: Some(ShardingMeta { shard_size: self.shard_size, index_len: index.len() }),
        };
        let hlen = container::header_len(&meta);
        if hlen != self.hlen {
            // Unreachable by construction (the header length depends only
            // on fields fixed at `new`), but never write a torn container.
            return Err(ArcError::InvalidRequest("header length changed mid-stream".into()));
        }
        let istart = self.hlen + self.payload_pos;
        for copy in 0..3 {
            self.sink.write_at(istart + copy * index.len(), &index)?;
        }
        // arc-lint: bounded(hlen is the header length for metadata this encoder built itself)
        let mut header = vec![0u8; hlen];
        container::write_header(&meta, &mut header)?;
        self.sink.write_at(0, &header)?;
        let stats = StreamEncodeStats {
            data_len: self.data_len,
            container_len: istart + 3 * index.len(),
            shards: self.entries.len(),
            workers: self.workers,
            backpressure_waits: self.backpressure_waits,
        };
        Ok((self.sink, stats))
    }
}

/// What a finished streaming decode saw.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDecodeStats {
    /// Identifier of the scheme that protected the data.
    pub scheme_id: String,
    /// Original data length reproduced.
    pub data_len: usize,
    /// Shards decoded (0 for monolithic v1 containers).
    pub shards: usize,
    /// Repairs performed on the payload.
    pub correction: CorrectionReport,
    /// True when the primary header copy was unusable.
    pub used_backup_header: bool,
    /// Header bytes the RS codeword repaired.
    pub header_symbols_corrected: usize,
    /// How the trailing shard index was recovered (v2 only).
    pub index_repair: IndexRepair,
}

enum Phase {
    /// Waiting for the 6-byte triplicated length prefix.
    Prefix,
    /// Buffering header codewords; `candidates` holds plausible lengths,
    /// smallest first.
    Header,
    /// Buffering the current shard's encoded region (a v1 payload is one
    /// synthetic shard).
    Shards,
    /// Buffering the three index copies.
    Trailer,
    /// Container complete; any further byte is an error.
    Done,
}

/// Push-based decoder for v1/v2 containers.
///
/// Decoded plaintext is appended to the `out` vector passed to
/// [`StreamDecoder::push`] as soon as each shard's ECC pass completes —
/// the trailing index is verified *after* emission, so a caller that needs
/// end-to-end certainty must wait for [`StreamDecoder::finish`], which
/// cross-checks the recovered index against the streamed geometry and the
/// header's whole-data CRC. Monolithic v1 containers are decoded as one
/// synthetic shard checked against the whole-data CRC before emission, with
/// O(payload) buffering (their format permits nothing better).
///
/// ```
/// use arc_core::stream::StreamDecoder;
/// use arc_ecc::EccConfig;
///
/// let data = vec![7u8; 10_000];
/// let container =
///     arc_core::arc_engine_encode_sharded(&data, EccConfig::secded(true), 1, 2048).unwrap();
/// let mut dec = StreamDecoder::new();
/// let mut out = Vec::new();
/// for piece in container.chunks(997) {
///     dec.push(piece, &mut out).unwrap();
/// }
/// let stats = dec.finish().unwrap();
/// assert_eq!(out, data);
/// assert_eq!(stats.shards, 5);
/// ```
pub struct StreamDecoder {
    threads: usize,
    /// Extension schemes the header's scheme id may resolve against.
    /// `None` still decodes every built-in container; extension-tagged
    /// headers then fail with a pointer to
    /// [`StreamDecoder::with_registry`].
    registry: Option<ExtensionRegistry>,
    phase: Phase,
    buf: Vec<u8>,
    candidates: Vec<usize>,
    /// The accepted header and the codec it resolved to.
    header: Option<(ContainerMeta, SchemeCodec)>,
    used_backup_header: bool,
    header_symbols_corrected: usize,
    computed: Vec<ShardEntry>,
    decoded_so_far: usize,
    payload_pos: usize,
    /// CRC-32 of the plaintext emitted so far, folded from the shard CRCs.
    data_crc: u32,
    correction: CorrectionReport,
    index_repair: IndexRepair,
    failed: bool,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// Decoder with sequential (1-thread) shard decoding.
    pub fn new() -> Self {
        Self::with_threads(1)
    }

    /// Decoder whose per-shard ECC pass may use up to `threads` workers
    /// (`0` = all available cores).
    pub fn with_threads(threads: usize) -> Self {
        StreamDecoder {
            threads,
            registry: None,
            phase: Phase::Prefix,
            buf: Vec::new(),
            candidates: Vec::new(),
            header: None,
            used_backup_header: false,
            header_symbols_corrected: 0,
            computed: Vec::new(),
            decoded_so_far: 0,
            payload_pos: 0,
            data_crc: 0,
            correction: CorrectionReport::default(),
            index_repair: IndexRepair::default(),
            failed: false,
        }
    }

    /// As [`StreamDecoder::with_threads`], additionally resolving
    /// extension scheme ids (`x:<name>`) against `registry`, so containers
    /// encoded with an [`ExtensionRegistry::scheme`] handle stream-decode
    /// like built-ins.
    pub fn with_registry(threads: usize, registry: ExtensionRegistry) -> Self {
        StreamDecoder { registry: Some(registry), ..Self::with_threads(threads) }
    }

    /// Feed the next piece of the container, appending any newly decoded
    /// plaintext to `out`. Errors are sticky: once a push fails, the
    /// decoder stays failed.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> Result<(), ArcError> {
        if self.failed {
            return Err(ArcError::Corrupted("stream decoder previously failed".into()));
        }
        let result = self.consume(bytes, out);
        self.failed = result.is_err();
        result
    }

    /// Declare the stream complete and return the summary.
    pub fn finish(self) -> Result<StreamDecodeStats, ArcError> {
        if self.failed {
            return Err(ArcError::Corrupted("stream decoder previously failed".into()));
        }
        if !matches!(self.phase, Phase::Done) {
            return Err(ArcError::Corrupted("container truncated: stream ended early".into()));
        }
        let (meta, _) = self
            .header
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its header".into()))?;
        if self.data_crc != meta.data_crc {
            return Err(ArcError::Corrupted("data CRC mismatch after repair".into()));
        }
        Ok(StreamDecodeStats {
            shards: meta.sharding.map_or(0, |_| self.computed.len()),
            scheme_id: meta.scheme_id,
            data_len: meta.data_len,
            correction: self.correction,
            used_backup_header: self.used_backup_header,
            header_symbols_corrected: self.header_symbols_corrected,
            index_repair: self.index_repair,
        })
    }

    fn consume(&mut self, mut bytes: &[u8], out: &mut Vec<u8>) -> Result<(), ArcError> {
        while !bytes.is_empty() {
            let need = match self.phase {
                Phase::Prefix => 6,
                Phase::Header => {
                    let len = self.candidates.first().copied().ok_or_else(|| {
                        ArcError::Corrupted("header unrecoverable in both copies".into())
                    })?;
                    6 + 2 * len
                }
                Phase::Shards => self.cur_shard_geometry()?.1,
                // Only v2 headers lead here; consume buffers exactly this.
                Phase::Trailer => 3 * self.header()?.0.sharding.map_or(0, |sh| sh.index_len),
                Phase::Done => {
                    return Err(ArcError::Corrupted("bytes after container end".into()));
                }
            };
            let take = need.saturating_sub(self.buf.len()).min(bytes.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() < need {
                continue;
            }
            match self.phase {
                Phase::Prefix => {
                    self.candidates = container::header_len_candidates(&self.buf);
                    if self.candidates.is_empty() {
                        return Err(ArcError::Corrupted("no plausible header length".into()));
                    }
                    self.phase = Phase::Header;
                }
                Phase::Header => self.try_header()?,
                Phase::Shards => {
                    let (dlen, elen) = self.cur_shard_geometry()?;
                    self.complete_shard(dlen, elen, out)?;
                }
                Phase::Trailer => self.complete_trailer()?,
                Phase::Done => {
                    return Err(ArcError::Corrupted("bytes after container end".into()));
                }
            }
        }
        Ok(())
    }

    fn header(&self) -> Result<&(ContainerMeta, SchemeCodec), ArcError> {
        self.header
            .as_ref()
            .ok_or_else(|| ArcError::Corrupted("stream decoder lost its header".into()))
    }

    /// Decoded/encoded length of the shard currently being buffered.
    fn cur_shard_geometry(&self) -> Result<(usize, usize), ArcError> {
        let (meta, codec) = self.header()?;
        let remaining = meta.data_len.saturating_sub(self.decoded_so_far);
        let dlen = meta.sharding.map_or(remaining, |sh| remaining.min(sh.shard_size));
        if dlen == 0 {
            return Err(ArcError::Corrupted("shard phase with no data remaining".into()));
        }
        Ok((dlen, codec.encoded_len(dlen)))
    }

    /// The buffer holds both codeword copies for the current length
    /// candidate (shortest first, so a 1-byte drip does O(1) work per byte
    /// between the at-most-three attempts). Failure discards this candidate
    /// and keeps buffering toward the next (longer) one. An accepted
    /// header's lengths are checked against its codec before anything it
    /// promises is buffered.
    fn try_header(&mut self) -> Result<(), ArcError> {
        let len = self
            .candidates
            .first()
            .copied()
            .ok_or_else(|| ArcError::Corrupted("header unrecoverable in both copies".into()))?;
        let Some(header) = container::decode_header(&self.buf, len) else {
            self.candidates.remove(0);
            if self.candidates.is_empty() {
                return Err(ArcError::Corrupted("header unrecoverable in both copies".into()));
            }
            return Ok(());
        };
        let meta = header.meta;
        let codec = container::open_codec(&meta, self.threads, self.registry.as_ref())?;
        self.phase = match (meta.data_len, meta.sharding) {
            (0, Some(_)) => Phase::Trailer,
            (0, None) => Phase::Done,
            _ => Phase::Shards,
        };
        self.used_backup_header = header.used_backup;
        self.header_symbols_corrected = header.symbols_corrected;
        self.header = Some((meta, codec));
        self.buf.clear();
        Ok(())
    }

    fn complete_shard(
        &mut self,
        dlen: usize,
        elen: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), ArcError> {
        let Some((meta, codec)) = &self.header else {
            return Err(ArcError::Corrupted("stream decoder lost its header".into()));
        };
        let (offset, crc) = (self.payload_pos, meta.data_crc);
        let entry = ShardEntry { offset, encoded_len: elen, decoded_len: dlen, crc };
        // A v1 payload is one synthetic shard carrying the whole-data CRC;
        // a v2 shard's CRC only arrives with the trailing index.
        let v1 = meta.sharding.is_none();
        let report =
            container::decode_shard(codec, &mut self.buf, &entry, self.computed.len(), v1)?;
        self.correction.merge(&report);
        let shard = self
            .buf
            .get(..dlen)
            .ok_or_else(|| ArcError::Corrupted("shard buffer mis-sized".into()))?;
        let crc = crc32(shard);
        self.data_crc = crc32_combine(self.data_crc, crc, dlen);
        out.extend_from_slice(shard);
        arc_telemetry::counter_add("stream.decode.shards", 1);
        arc_telemetry::counter_add("stream.decode.bytes", dlen as u64);
        self.computed.push(ShardEntry { crc, ..entry });
        self.payload_pos = self
            .payload_pos
            .checked_add(elen)
            .ok_or_else(|| ArcError::Corrupted("payload offsets overflow".into()))?;
        self.decoded_so_far += dlen;
        self.buf.clear();
        if self.decoded_so_far == meta.data_len {
            self.phase = if meta.sharding.is_some() { Phase::Trailer } else { Phase::Done };
        }
        Ok(())
    }

    /// All three index copies are buffered: recover the index exactly as
    /// the one-shot path does, then require it to equal the geometry and
    /// CRCs of the shards actually streamed — the late end-to-end check
    /// that backs the early plaintext emission.
    fn complete_trailer(&mut self) -> Result<(), ArcError> {
        let (index, repair) = container::recover_index(&self.buf, &self.header()?.0)?;
        if index.entries != self.computed {
            return Err(ArcError::Corrupted(
                "recovered index disagrees with streamed shards".into(),
            ));
        }
        self.index_repair = repair;
        self.buf.clear();
        self.phase = Phase::Done;
        Ok(())
    }
}

/// Encode many independent requests as one flat pool pass.
///
/// Each element of the result is byte-identical to
/// [`crate::arc_engine_encode`] of the corresponding request: the batching
/// changes scheduling, never bytes. Chunk jobs from *all* requests land in
/// one list driven by a single pool, so requests individually below the
/// scheme's bytes-per-thread floor still parallelize in aggregate.
pub fn encode_batch(
    requests: &[&[u8]],
    config: EccConfig,
    threads: usize,
) -> Result<Vec<Vec<u8>>, ArcError> {
    let _span = arc_telemetry::span("stream.encode_batch");
    let codec = ParallelCodec::with_chunk_size(config, threads, DEFAULT_CHUNK_SIZE)?;
    let total: usize = requests.iter().map(|d| d.len()).sum();
    arc_telemetry::counter_add("stream.batch.requests", requests.len() as u64);
    arc_telemetry::counter_add("stream.batch.bytes", total as u64);
    let scheme_id = config.id();
    let mut outs = requests
        .iter()
        .map(|data| container::frame_monolithic(data, &codec, &scheme_id))
        .collect::<Result<Vec<_>, _>>()?;
    // One region per request: the codec flattens their chunk jobs into one
    // pass and applies the bytes-per-thread floor to the batch's
    // *aggregate* size, which is the point of coalescing: many below-floor
    // requests still fill a pool.
    let mut regions: Vec<(&[u8], &mut [u8])> = requests
        .iter()
        .zip(outs.iter_mut())
        .map(|(data, (out, hlen))| (*data, &mut out[*hlen..]))
        .collect();
    codec.encode_regions_into(&mut regions);
    Ok(outs.into_iter().map(|(out, _)| out).collect())
}

/// Per-container outcome of [`decode_batch`]: the decoded bytes and report,
/// or the first error hit while decoding that container.
type DecodeOutcome = Result<(Vec<u8>, ArcDecodeReport), ArcError>;

/// Decode many independent containers as one flat pool pass.
///
/// Order-preserving; each element equals what
/// [`crate::decode_with_threads`] returns for that container. Failures are
/// per-item — one corrupt container never poisons its batch.
pub fn decode_batch(containers: &[&[u8]], threads: usize) -> Vec<DecodeOutcome> {
    let _span = arc_telemetry::span("stream.decode_batch");
    arc_telemetry::counter_add("stream.batch.requests", containers.len() as u64);
    let mut outcomes = Vec::with_capacity(containers.len());
    let Ok(_) = run_jobs(
        containers.iter().copied(),
        resolve_threads(threads).min(containers.len()),
        |bytes| Ok::<_, Infallible>(decode_with_threads(bytes, 1)),
        |outcome| outcomes.push(outcome),
    );
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 37) ^ (i >> 5)) as u8).collect()
    }

    fn one_shot(data: &[u8], shard_size: usize) -> Vec<u8> {
        crate::engine::arc_engine_encode_sharded(data, EccConfig::secded(true), 1, shard_size)
            .expect("one-shot encode")
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = sample(50_000);
        let opts = StreamOptions { shard_size: 8 << 10, ..StreamOptions::default() };
        let mut enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
        for piece in data.chunks(1234) {
            enc.push(piece).unwrap();
        }
        let (got, stats) = enc.finish().unwrap();
        assert_eq!(got, one_shot(&data, 8 << 10));
        assert_eq!(stats.shards, data.len().div_ceil(8 << 10));
        assert_eq!(stats.container_len, got.len());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.backpressure_waits, 0);
    }

    /// Threaded passes, fed through staging (small pushes) and zero-copy
    /// (large pushes), produce the inline bytes.
    #[test]
    fn threaded_passes_match_inline() {
        let data = sample(70_000);
        let base = StreamOptions { shard_size: 4 << 10, ..StreamOptions::default() };
        let reference = one_shot(&data, 4 << 10);
        for threads in [2, 3, 4] {
            for piece in [999, 20_000] {
                let opts = StreamOptions { threads, ..base };
                let mut enc =
                    StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
                for piece in data.chunks(piece) {
                    enc.push(piece).unwrap();
                }
                let (got, stats) = enc.finish().unwrap();
                assert_eq!(got, reference, "threads={threads} piece={piece}");
                assert_eq!(stats.workers, threads);
                assert!(stats.backpressure_waits > 0, "passes should have run on the pool");
            }
        }
    }

    #[test]
    fn empty_input_round_trips() {
        let opts = StreamOptions::default();
        let enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
        let (got, stats) = enc.finish().unwrap();
        assert_eq!(got, one_shot(&[], DEFAULT_SHARD_SIZE));
        assert_eq!(stats.shards, 0);
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&got, &mut out).unwrap();
        assert!(dec.finish().is_ok());
        assert!(out.is_empty());
    }

    #[test]
    fn decoder_streams_v2_in_odd_chunks() {
        let data = sample(40_000);
        let container = one_shot(&data, 4 << 10);
        for chunk in [1usize, 7, 4096, container.len()] {
            let mut dec = StreamDecoder::new();
            let mut out = Vec::new();
            for piece in container.chunks(chunk) {
                dec.push(piece, &mut out).expect("clean push");
            }
            let stats = dec.finish().expect("clean finish");
            assert_eq!(out, data, "chunk={chunk}");
            assert_eq!(stats.shards, data.len().div_ceil(4 << 10));
            assert!(stats.correction.is_clean());
        }
    }

    #[test]
    fn decoder_handles_v1_containers() {
        let data = sample(10_000);
        let container =
            crate::engine::arc_engine_encode(&data, EccConfig::secded(true), 1).unwrap();
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for piece in container.chunks(313) {
            dec.push(piece, &mut out).unwrap();
        }
        let stats = dec.finish().unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.shards, 0);
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing_garbage() {
        let data = sample(9_000);
        let container = one_shot(&data, 2048);
        // Truncated: finish() must refuse.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&container[..container.len() - 5], &mut out).unwrap();
        assert!(dec.finish().is_err());
        // Trailing garbage: the extra byte itself must refuse.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        dec.push(&container, &mut out).unwrap();
        assert!(dec.push(&[0u8], &mut out).is_err());
    }

    #[test]
    fn decoder_errors_are_sticky() {
        // Unanimous length prefix of 40, followed by two 40-byte
        // "codewords" of garbage: both RS decodes fail at the threshold.
        let mut junk = vec![40u8, 0, 40, 0, 40, 0];
        junk.extend(std::iter::repeat_n(0xA5u8, 80));
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        assert!(dec.push(&junk, &mut out).is_err());
        assert!(dec.push(b"more", &mut out).is_err());
        assert!(dec.finish().is_err());
    }

    #[test]
    fn extension_scheme_streams_like_builtins() {
        let r = crate::extension::standard_extensions().unwrap();
        let data = sample(60_000);
        let opts = StreamOptions { shard_size: 16 << 10, ..StreamOptions::default() };
        let scheme = r.scheme("ileave-rs").unwrap();
        let mut enc =
            StreamEncoder::new(Vec::new(), scheme.clone(), opts).expect("registry encoder");
        for piece in data.chunks(1234) {
            enc.push(piece).unwrap();
        }
        let (got, stats) = enc.finish().unwrap();
        let one_shot =
            crate::engine::arc_engine_encode_sharded(&data, scheme.clone(), 1, 16 << 10).unwrap();
        assert_eq!(got, one_shot, "streamed container must match the one-shot bytes");
        assert_eq!(stats.shards, data.len().div_ceil(16 << 10));

        // Threaded passes run the same scheme behind its `Arc` and must
        // produce the same bytes.
        let threaded = StreamOptions { threads: 2, ..opts };
        let mut enc =
            StreamEncoder::new(Vec::new(), scheme, threaded).expect("threaded registry encoder");
        enc.push(&data).unwrap();
        let (got_threaded, _) = enc.finish().unwrap();
        assert_eq!(got_threaded, one_shot);

        // A registry-less decoder refuses the extension header politely…
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        assert!(matches!(dec.push(&got, &mut out), Err(ArcError::InvalidRequest(_))));
        // …and a registry-backed one streams it exactly like a built-in.
        let mut dec = StreamDecoder::with_registry(1, r);
        let mut out = Vec::new();
        for piece in got.chunks(997) {
            dec.push(piece, &mut out).unwrap();
        }
        let stats = dec.finish().unwrap();
        assert_eq!(out, data);
        assert_eq!(stats.scheme_id, "x:ileave-rs");
        assert!(stats.correction.is_clean());
    }

    #[test]
    fn batch_encode_matches_singletons() {
        let reqs: Vec<Vec<u8>> = vec![sample(100), sample(5_000), Vec::new(), sample(77)];
        let refs: Vec<&[u8]> = reqs.iter().map(|r| r.as_slice()).collect();
        let config = EccConfig::secded(true);
        let batch = encode_batch(&refs, config, 2).unwrap();
        for (req, got) in reqs.iter().zip(&batch) {
            let single = crate::engine::arc_engine_encode(req, config, 1).unwrap();
            assert_eq!(got, &single);
        }
        let containers: Vec<&[u8]> = batch.iter().map(|b| b.as_slice()).collect();
        let decoded = decode_batch(&containers, 2);
        for (req, item) in reqs.iter().zip(decoded) {
            let (data, report) = item.unwrap();
            assert_eq!(&data, req);
            assert!(report.correction.is_clean());
        }
    }

    #[test]
    fn batch_decode_isolates_failures() {
        let good =
            crate::engine::arc_engine_encode(&sample(500), EccConfig::secded(true), 1).unwrap();
        let bad = vec![0u8; 64];
        let items: Vec<&[u8]> = vec![&good, &bad, &good];
        let results = decode_batch(&items, 1);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
    }
}
