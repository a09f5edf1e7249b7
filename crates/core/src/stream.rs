//! Streaming and batched front-ends over the v2 sharded container.
//!
//! The engine entry points are one-shot: the whole input (and the whole
//! container) must be resident at once. This module adds the bounded-memory
//! service layer (DESIGN.md §14):
//!
//! * [`StreamEncoder`] — accepts data in arbitrary-size pushes, encodes
//!   full shards on a bounded ring of in-flight jobs (back-pressure when
//!   the ring is full, so peak memory is O(ring × shard) regardless of
//!   input size), and emits v2 container bytes to a [`StreamSink`]. The
//!   finished container is **byte-identical** to
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

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use arc_ecc::crc::{crc32, Crc32};
use arc_ecc::parallel::{resolve_threads, DEFAULT_CHUNK_SIZE};
use arc_ecc::{CorrectionReport, EccConfig, EccScheme, ParallelCodec};
use rayon::prelude::*;

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
    /// Worker threads for shard ECC (`0` = all available cores, as
    /// [`arc_ecc::ANY_THREADS`]; `1` = encode inline on the pushing
    /// thread, no workers spawned).
    pub threads: usize,
    /// Decoded bytes per shard (the v2 random-access granule).
    pub shard_size: usize,
    /// ECC chunk size within a shard; must match the one-shot path's
    /// [`DEFAULT_CHUNK_SIZE`] for byte-identical output.
    pub chunk_size: usize,
    /// Maximum in-flight shard jobs. Peak buffering is O(`ring` ×
    /// encoded-shard); a full ring back-pressures `push`.
    pub ring: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            threads: 1,
            shard_size: DEFAULT_SHARD_SIZE,
            chunk_size: DEFAULT_CHUNK_SIZE,
            ring: 4,
        }
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
    /// Worker threads the ring ran (0 = inline encoding, no workers).
    pub workers: usize,
    /// Ring capacity the encoder ran with.
    pub ring: usize,
    /// Times `push`/`finish` blocked because the ring was full — the
    /// back-pressure events that bound peak memory.
    pub backpressure_waits: u64,
}

/// One shard handed to the ring: the staged plaintext and a pre-sized
/// output buffer. Buffers are allocated by the pushing thread and recycled
/// through the free lists, so worker threads allocate nothing.
struct Job {
    seq: usize,
    data: Vec<u8>,
    out: Vec<u8>,
}

/// A finished shard coming back from the ring.
struct Done {
    seq: usize,
    data: Vec<u8>,
    out: Vec<u8>,
    crc: u32,
}

/// The worker side of the bounded ring: a shared job queue, a completion
/// queue, and the thread handles. Dropping the ring closes the job queue,
/// drains completions, and joins every worker.
struct Ring {
    jobs_tx: Option<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<Done>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Closing the job channel lets idle workers exit; draining the
        // completion channel lets busy ones finish their send.
        self.jobs_tx = None;
        while self.done_rx.recv().is_ok() {}
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    jobs: &Mutex<mpsc::Receiver<Job>>,
    done: &mpsc::Sender<Done>,
    scheme: Arc<dyn EccScheme>,
    chunk_size: usize,
) {
    // One sequential codec per worker: shard-level parallelism comes from
    // the ring, so per-shard encode stays single-threaded and allocation
    // free. Construction was already validated by the encoder's own codec;
    // if it fails here anyway, exiting turns into a clean `ArcError::Io`
    // on the encoder side.
    let Ok(codec) = ParallelCodec::with_chunk_size(scheme, 1, chunk_size) else {
        return;
    };
    loop {
        let job = {
            let rx = match jobs.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            match rx.recv() {
                Ok(j) => j,
                Err(_) => return,
            }
        };
        let Job { seq, data, mut out } = job;
        codec.encode_into(&data, &mut out);
        let crc = crc32(&data);
        if done.send(Done { seq, data, out, crc }).is_err() {
            return;
        }
    }
}

impl Ring {
    fn start(
        scheme: Arc<dyn EccScheme>,
        chunk_size: usize,
        workers: usize,
    ) -> Result<Ring, ArcError> {
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let mut ring = Ring { jobs_tx: Some(jobs_tx), done_rx, handles: Vec::new() };
        for i in 0..workers {
            let rx = Arc::clone(&jobs_rx);
            let tx = done_tx.clone();
            let scheme = Arc::clone(&scheme);
            let handle = thread::Builder::new()
                .name(format!("arc-stream-{i}"))
                .spawn(move || worker_loop(&rx, &tx, scheme, chunk_size))
                .map_err(|e| ArcError::Io(format!("stream worker spawn: {e}")))?;
            ring.handles.push(handle);
        }
        // `done_tx` clones live in the workers; dropping the original here
        // makes `done_rx` disconnect exactly when the last worker exits.
        Ok(ring)
    }
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
    /// Sequential codec for geometry (and inline encode when `workers`
    /// is 0). Runs the scheme behind an `Arc` so built-ins and extension
    /// schemes share one code path.
    codec: SchemeCodec,
    shard_size: usize,
    ring_cap: usize,
    workers: usize,
    hlen: usize,
    staging: Vec<u8>,
    crc: Crc32,
    data_len: usize,
    payload_pos: usize,
    entries: Vec<ShardEntry>,
    next_seq: usize,
    outstanding: usize,
    free_data: Vec<Vec<u8>>,
    free_out: Vec<Vec<u8>>,
    ring: Option<Ring>,
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
        if opts.ring == 0 {
            return Err(ArcError::InvalidRequest("ring capacity must be >= 1".into()));
        }
        let codec = scheme.codec(1, opts.chunk_size)?;
        // The header length is a pure function of the scheme id and the
        // sharded flag, so the payload region can start before any length
        // field is known; `finish` back-patches the real header at 0.
        let meta = ContainerMeta {
            scheme_id: scheme.id().to_string(),
            chunk_size: opts.chunk_size,
            data_len: 0,
            payload_len: 0,
            data_crc: 0,
            sharding: Some(ShardingMeta { shard_size: opts.shard_size, index_len: 1 }),
        };
        let hlen = container::header_len(&meta);
        let workers = resolve_threads(opts.threads);
        let ring = if workers > 1 {
            Some(Ring::start(Arc::clone(&scheme.ecc), opts.chunk_size, workers.min(opts.ring))?)
        } else {
            None
        };
        let workers = ring.as_ref().map(|r| r.handles.len()).unwrap_or(0);
        Ok(StreamEncoder {
            sink,
            scheme_id: meta.scheme_id,
            codec,
            shard_size: opts.shard_size,
            ring_cap: opts.ring,
            workers,
            hlen,
            staging: Vec::with_capacity(opts.shard_size),
            crc: Crc32::new(),
            data_len: 0,
            payload_pos: 0,
            entries: Vec::new(),
            next_seq: 0,
            outstanding: 0,
            free_data: Vec::new(),
            free_out: Vec::new(),
            ring,
            backpressure_waits: 0,
        })
    }

    /// Append `bytes` to the stream. Blocks only when the ring is full
    /// (back-pressure), never on the sink.
    ///
    /// Full shards that are entirely contained in `bytes` take a
    /// zero-copy fast path: with nothing staged, the shard is encoded
    /// (or handed to a worker) straight from the caller's buffer, so
    /// large pushes skip the staging memcpy entirely. Output bytes are
    /// identical either way.
    pub fn push(&mut self, mut bytes: &[u8]) -> Result<(), ArcError> {
        arc_telemetry::counter_add("stream.encode.bytes", bytes.len() as u64);
        while !bytes.is_empty() {
            if self.staging.is_empty() && bytes.len() >= self.shard_size {
                let (shard, rest) = bytes.split_at(self.shard_size);
                self.crc.update(shard);
                self.data_len += shard.len();
                self.submit_slice(shard)?;
                bytes = rest;
                continue;
            }
            let room = self.shard_size - self.staging.len();
            let take = room.min(bytes.len());
            self.staging.extend_from_slice(&bytes[..take]);
            self.crc.update(&bytes[..take]);
            self.data_len += take;
            bytes = &bytes[take..];
            if self.staging.len() == self.shard_size {
                self.submit_shard()?;
            }
        }
        Ok(())
    }

    /// Receive one finished shard, write it at its (pre-computed) payload
    /// offset, and recycle its buffers. Completion order is arbitrary;
    /// output bytes are not, because every write is positional.
    fn reap_one(&mut self) -> Result<(), ArcError> {
        let done = match &self.ring {
            Some(r) => {
                r.done_rx.recv().map_err(|_| ArcError::Io("stream worker terminated".into()))?
            }
            None => return Err(ArcError::Io("stream ring is not running".into())),
        };
        let offset = self
            .entries
            .get(done.seq)
            .map(|e| e.offset)
            .ok_or_else(|| ArcError::Io("stream completion out of range".into()))?;
        self.sink.write_at(self.hlen + offset, &done.out)?;
        if let Some(e) = self.entries.get_mut(done.seq) {
            e.crc = done.crc;
        }
        self.outstanding -= 1;
        if self.free_data.len() <= self.ring_cap {
            self.free_data.push(done.data);
        }
        if self.free_out.len() <= self.ring_cap {
            self.free_out.push(done.out);
        }
        Ok(())
    }

    /// Validate a shard's lengths against the index's u32 fields, assign
    /// its payload offset, and push its (CRC-pending) index entry.
    /// Returns `(offset, encoded_len)`.
    fn reserve_entry(&mut self, decoded_len: usize) -> Result<(usize, usize), ArcError> {
        let encoded_len = self.codec.encoded_len(decoded_len);
        let (entry, next) = container::shard_entry(self.payload_pos, decoded_len, encoded_len)?;
        // The CRC slot is filled when the shard's encode completes.
        self.entries.push(entry);
        arc_telemetry::counter_add("stream.encode.shards", 1);
        Ok((std::mem::replace(&mut self.payload_pos, next), encoded_len))
    }

    /// Back-pressure: reap completed shards until the ring has a free slot.
    fn wait_for_slot(&mut self) -> Result<(), ArcError> {
        while self.outstanding >= self.ring_cap {
            self.backpressure_waits += 1;
            arc_telemetry::counter_add("stream.encode.backpressure_waits", 1);
            self.reap_one()?;
        }
        Ok(())
    }

    /// Hand one prepared `(data, out)` pair to the workers.
    fn send_job(&mut self, data: Vec<u8>, out: Vec<u8>) -> Result<(), ArcError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tx = self
            .ring
            .as_ref()
            .and_then(|r| r.jobs_tx.as_ref())
            .ok_or_else(|| ArcError::Io("stream ring is not running".into()))?;
        tx.send(Job { seq, data, out })
            .map_err(|_| ArcError::Io("stream worker terminated".into()))?;
        self.outstanding += 1;
        Ok(())
    }

    /// Submit the staged (full or tail) shard.
    fn submit_shard(&mut self) -> Result<(), ArcError> {
        if self.ring.is_none() {
            // Inline mode: route through the slice path so the encode
            // reads the staged bytes directly; `take` + restore keeps the
            // staging capacity across shards.
            let staged = std::mem::take(&mut self.staging);
            let result = self.submit_slice(&staged);
            self.staging = staged;
            self.staging.clear();
            return result;
        }
        let (_, encoded_len) = self.reserve_entry(self.staging.len())?;
        self.wait_for_slot()?;
        let mut out = self.free_out.pop().unwrap_or_default();
        // arc-lint: bounded(encoded_len computed by the codec from the caller's shard, not decoded input)
        out.resize(encoded_len, 0);
        let mut data = self.free_data.pop().unwrap_or_default();
        data.clear();
        // Swap, don't copy: the staged buffer becomes the job's and a
        // recycled one becomes the next staging area.
        std::mem::swap(&mut data, &mut self.staging);
        self.send_job(data, out)
    }

    /// Submit one full shard straight from the caller's buffer. Inline
    /// mode encodes from the slice with no staging copy; ring mode copies
    /// it into a recycled job buffer — the one copy a hand-off to another
    /// thread requires, and the same copy the staging path would have made.
    fn submit_slice(&mut self, shard: &[u8]) -> Result<(), ArcError> {
        let (offset, encoded_len) = self.reserve_entry(shard.len())?;
        if self.ring.is_some() {
            self.wait_for_slot()?;
            let mut out = self.free_out.pop().unwrap_or_default();
            // arc-lint: bounded(encoded_len computed by the codec from the caller's slice, not decoded input)
            out.resize(encoded_len, 0);
            let mut data = self.free_data.pop().unwrap_or_default();
            data.clear();
            data.extend_from_slice(shard);
            self.send_job(data, out)
        } else {
            let mut out = self.free_out.pop().unwrap_or_default();
            // arc-lint: bounded(encoded_len computed by the codec from the caller's slice, not decoded input)
            out.resize(encoded_len, 0);
            self.codec.encode_into(shard, &mut out);
            if let Some(e) = self.entries.last_mut() {
                e.crc = crc32(shard);
            }
            self.next_seq += 1;
            self.sink.write_at(self.hlen + offset, &out)?;
            self.free_out.push(out);
            Ok(())
        }
    }

    /// Flush the partial tail shard, drain the ring, write the triplicated
    /// index, back-patch the header, and return the sink.
    ///
    /// The result is byte-identical to [`container::encode_sharded`] over
    /// the concatenation of every pushed slice.
    pub fn finish(mut self) -> Result<(S, StreamEncodeStats), ArcError> {
        if !self.staging.is_empty() {
            self.submit_shard()?;
        }
        while self.outstanding > 0 {
            self.reap_one()?;
        }
        // Join the workers before sealing the container so a worker that
        // died mid-shard can't leave a silently unwritten region.
        self.ring = None;
        let index = container::rs_index_encode(&container::serialize_index(&self.entries))?;
        let meta = ContainerMeta {
            scheme_id: self.scheme_id.clone(),
            chunk_size: self.codec.chunk_size(),
            data_len: self.data_len,
            payload_len: self.payload_pos,
            data_crc: self.crc.finalize(),
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
            ring: self.ring_cap,
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
    out_crc: Crc32,
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
            out_crc: Crc32::new(),
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
        if self.out_crc.finalize() != meta.data_crc {
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
        self.out_crc.update(shard);
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

/// Workers worth dispatching for a batch totalling `total` bytes — the
/// same bytes-per-thread floor [`ParallelCodec::effective_workers`]
/// applies, but over the batch's *aggregate* size, which is the point of
/// coalescing: many below-floor requests still fill a pool.
fn batch_workers(config: &EccConfig, threads: usize, total: usize) -> usize {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return 1;
    }
    let floor = config.min_bytes_per_thread().max(1);
    threads.min(total / floor).max(1)
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
    let codec = ParallelCodec::with_chunk_size(config, 1, DEFAULT_CHUNK_SIZE)?;
    let total: usize = requests.iter().map(|d| d.len()).sum();
    arc_telemetry::counter_add("stream.batch.requests", requests.len() as u64);
    arc_telemetry::counter_add("stream.batch.bytes", total as u64);
    let scheme_id = config.id();
    let mut outs = requests
        .iter()
        .map(|data| container::frame_monolithic(data, &codec, &scheme_id))
        .collect::<Result<Vec<_>, _>>()?;
    // One flat chunk-job list across every request, same shape as
    // `ParallelCodec::encode_sharded_into`'s shard flattening.
    let mut jobs: Vec<(&[u8], &mut [u8], &mut [u8])> = Vec::new();
    for (data, (out, hlen)) in requests.iter().zip(outs.iter_mut()) {
        let region = &mut out[*hlen..];
        let (mut data_rest, mut parity_rest) = region.split_at_mut(data.len());
        for chunk in data.chunks(codec.chunk_size()) {
            let (d, rest) = data_rest.split_at_mut(chunk.len());
            data_rest = rest;
            let (p, rest) = parity_rest.split_at_mut(config.parity_len(chunk.len()));
            parity_rest = rest;
            jobs.push((chunk, d, p));
        }
    }
    let run = |(src, dst, parity): &mut (&[u8], &mut [u8], &mut [u8])| {
        dst.copy_from_slice(src);
        config.encode_parity_into(src, parity);
    };
    run_batch(&mut jobs, batch_workers(&config, threads, total), run);
    Ok(outs.into_iter().map(|(out, _)| out).collect())
}

/// Run `run` over every job on a fresh `workers`-thread pool, or inline
/// when one worker (or one job) suffices or no pool can be built.
fn run_batch<T: Send>(jobs: &mut [T], workers: usize, run: impl Fn(&mut T) + Send + Sync) {
    let pool = (workers > 1 && jobs.len() > 1)
        .then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .thread_name(|i| format!("arc-batch-{i}"))
                .build()
                .ok()
        })
        .flatten();
    match pool {
        Some(pool) => pool.install(|| jobs.par_iter_mut().for_each(run)),
        None => jobs.iter_mut().for_each(run),
    }
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
    let mut jobs: Vec<(&[u8], Option<DecodeOutcome>)> =
        containers.iter().map(|bytes| (*bytes, None)).collect();
    let run = |(bytes, slot): &mut (&[u8], Option<_>)| *slot = Some(decode_with_threads(bytes, 1));
    run_batch(&mut jobs, resolve_threads(threads).min(containers.len()), run);
    jobs.into_iter()
        .map(|(_, s)| s.unwrap_or_else(|| Err(ArcError::Io("batch slot unfilled".into()))))
        .collect()
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
        assert_eq!(stats.workers, 0);
    }

    #[test]
    fn threaded_ring_matches_inline() {
        let data = sample(70_000);
        let base = StreamOptions { shard_size: 4 << 10, ..StreamOptions::default() };
        let reference = one_shot(&data, 4 << 10);
        for (threads, ring) in [(2, 1), (2, 2), (4, 3)] {
            let opts = StreamOptions { threads, ring, ..base };
            let mut enc = StreamEncoder::new(Vec::new(), EccConfig::secded(true), opts).unwrap();
            for piece in data.chunks(999) {
                enc.push(piece).unwrap();
            }
            let (got, stats) = enc.finish().unwrap();
            assert_eq!(got, reference, "threads={threads} ring={ring}");
            assert!(stats.workers >= 1, "ring should have spawned workers");
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

        // The threaded ring runs the same scheme behind its `Arc` and must
        // produce the same bytes.
        let threaded = StreamOptions { threads: 2, ring: 2, ..opts };
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
