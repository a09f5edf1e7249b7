//! Chunk-parallel ECC encoding/decoding with explicit thread counts.
//!
//! The paper parallelizes every ECC method with OpenMP and caps resource use
//! at the thread count given to `arc_init()` (§5.1). This module is the Rust
//! equivalent: input is split into fixed-size chunks, each chunk is encoded
//! or verified independently, and per-chunk correction reports are merged.
//!
//! Encoded layout: `data ‖ parity₀ ‖ parity₁ ‖ …` — chunk parity regions
//! follow the (unmodified) data in order. Because every scheme's parity
//! length is a pure function of the chunk length, offsets are computable on
//! both sides without per-chunk headers, keeping overhead at exactly the
//! scheme's own rate.
//!
//! The data path is zero-copy scatter-write: [`ParallelCodec::encode_into`]
//! carves a caller-provided buffer into disjoint `&mut [u8]` regions (one
//! data chunk and one parity region per chunk) and each job writes its
//! regions in place via [`EccScheme::encode_parity_into`] — no per-chunk
//! allocation and no concatenation pass. [`ParallelCodec::encode`] is a thin
//! wrapper that makes exactly one heap allocation for the whole container.
//! On the read side [`ParallelCodec::decode_in_place`] verifies and repairs
//! the payload where it lies; a clean decode copies nothing.
//!
//! Every ECC pass has one carve and one dispatch. `chunk_regions` is the
//! only place a `data ‖ parity` region is split into per-chunk jobs; the
//! encode side feeds it any number of `(data, out)` region pairs
//! ([`ParallelCodec::encode_regions_into`]: one pair for `encode_into`, one
//! per shard for `encode_sharded_into`, one per request for the batch
//! front-end). [`run_jobs`] is the only place a thread pool is built: it
//! runs a job list inline or on a pool and folds the results in job order.

use std::convert::Infallible;

use rayon::prelude::*;

use crate::codec::{CorrectionReport, EccError, EccScheme};
use crate::config::EccConfig;

/// Default chunk size (1 MiB): large enough to amortize dispatch, small
/// enough that a 26 MB CESM buffer spreads across 26+ threads.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 20;

/// Thread-count sentinel: `0` means "use every available hardware thread".
///
/// Every ARC entry point that takes a `threads: usize` accepts this value;
/// it is resolved exactly once, in [`ParallelCodec::with_chunk_size`], via
/// [`std::thread::available_parallelism`]. Passing an explicit `n >= 1`
/// always means exactly `n` workers.
pub const ANY_THREADS: usize = 0;

/// Resolve a caller-supplied thread count: [`ANY_THREADS`] becomes the
/// machine's available parallelism (or 1 if that cannot be determined).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == ANY_THREADS {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Run `run_job` over every job and hand each `Ok` result to `fold`, in
/// job order. The first `Err` in job order is returned and nothing after it
/// is folded. Returns `Ok(true)` when the jobs ran on a pool.
///
/// With `workers <= 1` the jobs run one by one on the calling thread,
/// straight off the iterator: nothing is allocated and the first `Err`
/// stops the pass. Otherwise the jobs are collected; a single job (or a
/// pool that cannot be built) still runs inline, and more run on a
/// `workers`-thread pool before their results are folded. This is ARC's
/// one thread-pool dispatch point.
pub fn run_jobs<J: Send, R: Send, E: Send>(
    jobs: impl IntoIterator<Item = J>,
    workers: usize,
    run_job: impl Fn(&mut J) -> Result<R, E> + Sync,
    mut fold: impl FnMut(R),
) -> Result<bool, E> {
    let mut inline = |jobs: &mut dyn Iterator<Item = J>| {
        for mut job in jobs {
            fold(run_job(&mut job)?);
        }
        Ok(false)
    };
    if workers <= 1 {
        return inline(&mut jobs.into_iter());
    }
    let mut jobs: Vec<J> = jobs.into_iter().collect();
    let pool = (jobs.len() > 1)
        .then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .thread_name(|i| format!("arc-ecc-{i}"))
                .build()
                .ok()
        })
        .flatten();
    let Some(pool) = pool else {
        return inline(&mut jobs.into_iter());
    };
    let results: Vec<Result<R, E>> = pool.install(|| jobs.par_iter_mut().map(&run_job).collect());
    for result in results {
        fold(result?);
    }
    Ok(true)
}

/// A chunk-parallel codec for one ECC scheme at a fixed thread count.
///
/// Generic over the scheme so both the built-in [`EccConfig`] space and
/// custom schemes registered through ARC's extension API (boxed
/// `Arc<dyn EccScheme>`) get identical chunking and thread semantics.
#[derive(Debug)]
pub struct ParallelCodec<S: EccScheme = EccConfig> {
    config: S,
    chunk_size: usize,
    threads: usize,
}

impl<S: EccScheme> ParallelCodec<S> {
    /// Create a codec running on `threads` worker threads (1 = in-line
    /// sequential execution; [`ANY_THREADS`] = all available hardware
    /// threads).
    pub fn new(config: S, threads: usize) -> Result<ParallelCodec<S>, EccError> {
        Self::with_chunk_size(config, threads, DEFAULT_CHUNK_SIZE)
    }

    /// As [`ParallelCodec::new`] with an explicit chunk size.
    ///
    /// This is the single choke point where [`ANY_THREADS`] is resolved to a
    /// concrete worker count; [`ParallelCodec::threads`] always reports the
    /// resolved value.
    pub fn with_chunk_size(
        config: S,
        threads: usize,
        chunk_size: usize,
    ) -> Result<ParallelCodec<S>, EccError> {
        let threads = resolve_threads(threads);
        if chunk_size == 0 {
            return Err(EccError::InvalidConfig("chunk size must be >= 1".into()));
        }
        // Thread fan-out distribution: one sample per codec construction.
        arc_telemetry::histogram_record("ecc.codec.threads", threads as u64);
        // Build the lazily-initialized GF lookup tables before any worker
        // touches them: keeps the one-time build out of the timed hot loops
        // and out of the per-chunk allocation budget.
        crate::gf256::warm_tables();
        Ok(ParallelCodec { config, chunk_size, threads })
    }

    /// The configuration this codec runs.
    pub fn config(&self) -> &S {
        &self.config
    }

    /// Worker threads in use (always ≥ 1; [`ANY_THREADS`] has been resolved).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk granularity in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Workers actually worth dispatching for `data_len` input bytes.
    ///
    /// The minimum-bytes-per-thread floor ([`EccScheme::min_bytes_per_thread`])
    /// clamps the configured thread count so each worker gets enough work to
    /// amortize thread dispatch; small jobs collapse to 1 and bypass the pool
    /// entirely. This is what fixed the measured 2-thread throughput
    /// *regression* for the fast schemes (see DESIGN.md §13).
    pub fn effective_workers(&self, data_len: usize) -> usize {
        if self.threads <= 1 {
            return 1;
        }
        let floor = self.config.min_bytes_per_thread().max(1);
        self.threads.min(data_len / floor).max(1)
    }

    /// [`ParallelCodec::effective_workers`] for one pass over `data_len`
    /// bytes, recorded as the pass's dispatch width.
    fn pass_workers(&self, data_len: usize) -> usize {
        let workers = self.effective_workers(data_len);
        arc_telemetry::histogram_record("ecc.codec.effective_workers", workers as u64);
        if workers == 1 && self.threads > 1 {
            arc_telemetry::counter_add("ecc.codec.pool_bypassed", 1);
        }
        workers
    }

    /// Total encoded length for `data_len` input bytes.
    pub fn encoded_len(&self, data_len: usize) -> usize {
        data_len + self.total_parity_len(data_len)
    }

    fn total_parity_len(&self, data_len: usize) -> usize {
        let full = data_len / self.chunk_size;
        let tail = data_len % self.chunk_size;
        let mut total = full * self.config.parity_len(self.chunk_size);
        if tail > 0 {
            total += self.config.parity_len(tail);
        }
        total
    }

    /// Split `region`, the `data ‖ parity regions` layout of `data_len`
    /// input bytes, into one `(data chunk, parity region)` pair per chunk,
    /// lazily and in order: the one chunk-to-parity carve of every pass.
    /// `region` must be exactly [`ParallelCodec::encoded_len`] bytes.
    fn chunk_regions<'a>(
        &'a self,
        region: &'a mut [u8],
        data_len: usize,
    ) -> impl Iterator<Item = (&'a mut [u8], &'a mut [u8])> + 'a {
        let (data, mut parity) = region.split_at_mut(data_len);
        data.chunks_mut(self.chunk_size).map(move |chunk| {
            let (p, rest) =
                std::mem::take(&mut parity).split_at_mut(self.config.parity_len(chunk.len()));
            parity = rest;
            (chunk, p)
        })
    }

    /// Scatter-write `data ‖ parity regions` into `out`, which must be
    /// exactly [`ParallelCodec::encoded_len`] bytes. `out` may hold
    /// arbitrary garbage; every byte is overwritten.
    ///
    /// On the sequential path (1 thread) this performs no heap allocation;
    /// with a pool, workers write their disjoint regions concurrently and
    /// only the job list itself is allocated.
    pub fn encode_into(&self, data: &[u8], out: &mut [u8]) {
        let _span = arc_telemetry::span("ecc.encode");
        self.encode_regions_into(&mut [(data, out)]);
    }

    /// Scatter-write every `(data, out)` pair: each `out` becomes `data`'s
    /// own `data ‖ parity regions` layout, exactly as
    /// [`ParallelCodec::encode_into`] writes it. The chunk jobs of all
    /// pairs form one flat list on one dispatch, whose width the
    /// bytes-per-thread floor sets from the pairs' *total* input, so many
    /// small regions still fill the workers in aggregate.
    ///
    /// # Panics
    ///
    /// When an `out` is not exactly [`ParallelCodec::encoded_len`] of its
    /// `data`.
    pub fn encode_regions_into(&self, regions: &mut [(&[u8], &mut [u8])]) {
        let mut data_len = 0;
        let mut chunks = 0;
        for (data, out) in regions.iter() {
            assert_eq!(out.len(), self.encoded_len(data.len()), "output buffer size mismatch");
            data_len += data.len();
            chunks += data.len().div_ceil(self.chunk_size);
        }
        arc_telemetry::counter_add("ecc.encode.bytes", data_len as u64);
        arc_telemetry::counter_add("ecc.encode.chunks_submitted", chunks as u64);
        let jobs = regions.iter_mut().flat_map(|(data, out)| {
            let data: &[u8] = data;
            data.chunks(self.chunk_size).zip(self.chunk_regions(out, data.len()))
        });
        let Ok(_) = run_jobs(
            jobs,
            self.pass_workers(data_len),
            |(src, (dst, parity))| {
                let t = arc_telemetry::Stopwatch::start();
                dst.copy_from_slice(src);
                self.config.encode_parity_into(src, parity);
                arc_telemetry::histogram_record("ecc.encode.chunk_ns", t.elapsed_ns());
                arc_telemetry::counter_add("ecc.encode.chunks_done", 1);
                Ok::<(), Infallible>(())
            },
            |()| {},
        );
    }

    /// Encode `data`, returning `data ‖ parity regions`.
    ///
    /// Makes exactly one heap allocation — the returned container — and
    /// scatter-writes into it via [`ParallelCodec::encode_into`].
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.encoded_len(data.len())];
        self.encode_into(data, &mut out);
        out
    }

    /// Total encoded length when `data_len` input bytes are split into
    /// independently encoded `shard_size`-byte shards: the sum of
    /// [`ParallelCodec::encoded_len`] over every shard. A `shard_size` of
    /// 0 yields 0 (the sharded encode entry points reject it properly).
    pub fn sharded_encoded_len(&self, data_len: usize, shard_size: usize) -> usize {
        if shard_size == 0 {
            return 0;
        }
        let full = data_len / shard_size;
        let tail = data_len % shard_size;
        let mut total = full * self.encoded_len(shard_size);
        if tail > 0 {
            total += self.encoded_len(tail);
        }
        total
    }

    /// Scatter-write the sharded encoding `shard₀ ‖ shard₁ ‖ …` into
    /// `out`, where each shard region is that shard's own
    /// `data ‖ parity regions` layout — i.e. each `shard_size`-byte slice
    /// of `data` is encoded exactly as [`ParallelCodec::encode_into`]
    /// would encode it alone, making every shard independently decodable
    /// via [`ParallelCodec::decode_shard_in_place`].
    ///
    /// `out` must be exactly [`ParallelCodec::sharded_encoded_len`] bytes.
    /// One region per shard goes to [`ParallelCodec::encode_regions_into`],
    /// so chunk jobs are flattened across *all* shards into one pass and
    /// small shards don't serialize the workers.
    pub fn encode_sharded_into(
        &self,
        data: &[u8],
        shard_size: usize,
        out: &mut [u8],
    ) -> Result<(), EccError> {
        let _span = arc_telemetry::span("ecc.encode_sharded");
        if shard_size == 0 {
            return Err(EccError::InvalidConfig("shard size must be >= 1".into()));
        }
        let expected = self.sharded_encoded_len(data.len(), shard_size);
        if out.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "encode_sharded_into: output buffer {} bytes != expected {expected}",
                    out.len()
                ),
            });
        }
        arc_telemetry::counter_add("ecc.encode.shards", data.len().div_ceil(shard_size) as u64);
        let mut out_rest = out;
        let mut regions: Vec<(&[u8], &mut [u8])> = data
            .chunks(shard_size)
            .map(|shard| {
                let (region, rest) =
                    std::mem::take(&mut out_rest).split_at_mut(self.encoded_len(shard.len()));
                out_rest = rest;
                (shard, region)
            })
            .collect();
        self.encode_regions_into(&mut regions);
        Ok(())
    }

    /// Verify and repair ONE shard's encoded region in place.
    ///
    /// `shard` is exactly the region [`ParallelCodec::encode_sharded_into`]
    /// wrote for this shard (`data ‖ parity`), and `decoded_len` its
    /// original length; on success the first `decoded_len` bytes are the
    /// repaired data. This is the random-access primitive: the cost is
    /// proportional to the shard, never the container.
    pub fn decode_shard_in_place(
        &self,
        shard: &mut [u8],
        decoded_len: usize,
    ) -> Result<CorrectionReport, EccError> {
        arc_telemetry::counter_add("ecc.decode.shards", 1);
        self.decode_in_place(shard, decoded_len)
    }

    /// Verify and repair an encoded buffer in place.
    ///
    /// `data_len` is the original input length (persisted by ARC's
    /// container). On success the first `data_len` bytes of `encoded` are
    /// the repaired data; a clean pass leaves the buffer untouched and, on
    /// the sequential path, performs no full-buffer copy and no allocation
    /// for the schemes whose verify paths are allocation-free.
    ///
    /// Returns the first uncorrectable chunk's error in chunk order, at
    /// every thread count. On error the buffer contents are unspecified
    /// (other chunks may already have been repaired).
    pub fn decode_in_place(
        &self,
        encoded: &mut [u8],
        data_len: usize,
    ) -> Result<CorrectionReport, EccError> {
        let _span = arc_telemetry::span("ecc.decode");
        arc_telemetry::counter_add("ecc.decode.bytes", data_len as u64);
        arc_telemetry::counter_add(
            "ecc.decode.chunks_submitted",
            data_len.div_ceil(self.chunk_size) as u64,
        );
        let expected = self.encoded_len(data_len);
        if encoded.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "parallel codec: encoded length {} != expected {expected}",
                    encoded.len()
                ),
            });
        }
        let mut merged = CorrectionReport::default();
        run_jobs(
            self.chunk_regions(encoded, data_len),
            self.pass_workers(data_len),
            |(chunk, parity)| {
                let t = arc_telemetry::Stopwatch::start();
                let r = self.config.verify_and_correct(chunk, parity);
                arc_telemetry::histogram_record("ecc.decode.chunk_ns", t.elapsed_ns());
                arc_telemetry::counter_add("ecc.decode.chunks_done", 1);
                r
            },
            |report| merged.merge(&report),
        )?;
        arc_telemetry::counter_add("ecc.decode.corrected_bits", merged.corrected_bits);
        arc_telemetry::counter_add("ecc.decode.corrected_devices", merged.corrected_devices);
        Ok(merged)
    }

    /// Decode an encoded buffer, verifying and repairing every chunk.
    ///
    /// Borrowing convenience wrapper over
    /// [`ParallelCodec::decode_in_place`]: copies `encoded` once into the
    /// returned buffer, repairs it in place, and truncates to the data.
    /// Returns the repaired data and a merged report, or the first
    /// uncorrectable chunk's error.
    pub fn decode(
        &self,
        encoded: &[u8],
        data_len: usize,
    ) -> Result<(Vec<u8>, CorrectionReport), EccError> {
        let mut buf = encoded.to_vec();
        let report = self.decode_in_place(&mut buf, data_len)?;
        buf.truncate(data_len);
        Ok((buf, report))
    }
}

/// Measured throughput of one encode or decode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputSample {
    /// Input bytes processed.
    pub bytes: usize,
    /// Wall-clock seconds elapsed.
    pub seconds: f64,
}

impl ThroughputSample {
    /// Throughput in MB/s (decimal MB, as the paper reports).
    pub fn mb_per_s(&self) -> f64 {
        if self.seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.bytes as f64 / 1e6 / self.seconds
    }
}

/// Encode while timing; used by ARC's training phase and the Fig 8 harness.
///
/// Times the real single-allocation scatter-write path, so TrainingTable
/// throughput reflects what [`ParallelCodec::encode`] actually does.
pub fn timed_encode<S: EccScheme>(
    codec: &ParallelCodec<S>,
    data: &[u8],
) -> (Vec<u8>, ThroughputSample) {
    let t0 = std::time::Instant::now();
    let out = codec.encode(data);
    let sample = ThroughputSample { bytes: data.len(), seconds: t0.elapsed().as_secs_f64() };
    (out, sample)
}

/// Decode while timing; used by ARC's training phase and the Fig 9 harness.
pub fn timed_decode<S: EccScheme>(
    codec: &ParallelCodec<S>,
    encoded: &[u8],
    data_len: usize,
) -> Result<(Vec<u8>, CorrectionReport, ThroughputSample), EccError> {
    let t0 = std::time::Instant::now();
    let (out, report) = codec.decode(encoded, data_len)?;
    let sample = ThroughputSample { bytes: data_len, seconds: t0.elapsed().as_secs_f64() };
    Ok((out, report, sample))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 31 + i / 7) % 256) as u8).collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        let cfg = EccConfig::hamming(true);
        assert!(ParallelCodec::with_chunk_size(cfg, 1, 0).is_err());
    }

    #[test]
    fn any_threads_resolves_to_available_parallelism() {
        let cfg = EccConfig::hamming(true);
        let codec = ParallelCodec::new(cfg, ANY_THREADS).unwrap();
        assert!(codec.threads() >= 1);
        let expect = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(codec.threads(), expect);
        // And the codec actually works at the resolved count.
        let data = sample(10_000);
        let enc = codec.encode(&data);
        let (out, _) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn encode_into_overwrites_garbage_and_matches_encode() {
        let data = sample(70_000);
        for cfg in
            [EccConfig::parity(4).unwrap(), EccConfig::secded(true), EccConfig::rs(16, 4).unwrap()]
        {
            for threads in [1usize, 4] {
                let codec = ParallelCodec::with_chunk_size(cfg, threads, 16 * 1024).unwrap();
                let reference = codec.encode(&data);
                let mut out = vec![0xA5u8; codec.encoded_len(data.len())];
                codec.encode_into(&data, &mut out);
                assert_eq!(out, reference, "{cfg} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn encode_into_rejects_wrong_buffer_size() {
        let codec = ParallelCodec::new(EccConfig::hamming(false), 1).unwrap();
        let data = sample(100);
        let mut out = vec![0u8; codec.encoded_len(data.len()) - 1];
        codec.encode_into(&data, &mut out);
    }

    #[test]
    fn decode_in_place_repairs_without_moving_data() {
        let cfg = EccConfig::secded(true);
        let codec = ParallelCodec::with_chunk_size(cfg, 2, 8 * 1024).unwrap();
        let data = sample(50_000);
        let mut enc = codec.encode(&data);
        flip_bit(&mut enc, 4242);
        let report = codec.decode_in_place(&mut enc, data.len()).unwrap();
        assert_eq!(report.corrected_bits, 1);
        assert_eq!(&enc[..data.len()], &data[..]);
    }

    #[test]
    fn round_trip_all_schemes_sequential_and_parallel() {
        let configs = [
            EccConfig::parity(8).unwrap(),
            EccConfig::hamming(false),
            EccConfig::hamming(true),
            EccConfig::secded(false),
            EccConfig::secded(true),
            EccConfig::rs(16, 4).unwrap(),
        ];
        let data = sample(300_000);
        for cfg in configs {
            for threads in [1usize, 4] {
                let codec = ParallelCodec::with_chunk_size(cfg, threads, 64 * 1024).unwrap();
                let enc = codec.encode(&data);
                assert_eq!(enc.len(), codec.encoded_len(data.len()));
                let (out, report) = codec.decode(&enc, data.len()).unwrap();
                assert_eq!(out, data, "{cfg} threads={threads}");
                assert!(report.is_clean());
            }
        }
    }

    #[test]
    fn parallel_output_is_identical_to_sequential() {
        let data = sample(500_000);
        for cfg in [EccConfig::secded(true), EccConfig::rs(32, 8).unwrap()] {
            let seq = ParallelCodec::with_chunk_size(cfg, 1, 100_000).unwrap();
            let par = ParallelCodec::with_chunk_size(cfg, 8, 100_000).unwrap();
            assert_eq!(seq.encode(&data), par.encode(&data), "{cfg}");
        }
    }

    const POOL_CHUNK: usize = 256 * 1024;

    /// `cfg` at 4 threads and at 1 over twice its bytes-per-thread floor
    /// plus a tail chunk: the 4-thread codec really runs 2 workers on the
    /// pool, the 1-thread codec runs inline.
    fn pool_and_inline(cfg: EccConfig) -> (ParallelCodec, ParallelCodec, Vec<u8>) {
        let pool = ParallelCodec::with_chunk_size(cfg, 4, POOL_CHUNK).unwrap();
        let inline = ParallelCodec::with_chunk_size(cfg, 1, POOL_CHUNK).unwrap();
        let data = sample(2 * cfg.min_bytes_per_thread() + 12_345);
        assert_eq!(pool.effective_workers(data.len()), 2, "{cfg}: input must clear the floor");
        (pool, inline, data)
    }

    /// Flip one bit in each of the first `devices` RS(16,4) data devices of
    /// `chunk` (for other schemes: in the first `devices` 16ths of it).
    fn break_devices(enc: &mut [u8], chunk: usize, devices: usize) {
        let device = POOL_CHUNK / 16;
        for i in 0..devices {
            flip_bit(enc, ((chunk * POOL_CHUNK + i * device + 100) * 8) as u64);
        }
    }

    #[test]
    fn corrects_one_flip_per_chunk() {
        for cfg in [EccConfig::secded(true), EccConfig::rs(16, 4).unwrap()] {
            let (pool, inline, data) = pool_and_inline(cfg);
            let enc = pool.encode(&data);
            assert_eq!(enc, inline.encode(&data), "{cfg}");
            let mut bad = enc.clone();
            let chunks = data.len().div_ceil(POOL_CHUNK);
            for c in 0..chunks {
                break_devices(&mut bad, c, 1);
            }
            let (out, report) = pool.decode(&bad, data.len()).unwrap();
            assert_eq!(out, data, "{cfg}");
            // SEC-DED repairs the bit, RS the device holding it.
            assert_eq!(report.corrected_bits + report.corrected_devices, chunks as u64, "{cfg}");
            assert_eq!(inline.decode(&bad, data.len()).unwrap(), (out, report), "{cfg}");
        }
    }

    #[test]
    fn uncorrectable_chunk_fails_whole_decode() {
        let (pool, inline, data) = pool_and_inline(EccConfig::rs(16, 4).unwrap());
        let enc = pool.encode(&data);
        // Chunk 2 loses 5 devices and chunk 6 loses 7, both past the m = 4
        // that RS(16,4) can rebuild, so each fails with its own count.
        let mut first = enc.clone();
        break_devices(&mut first, 2, 5);
        let mut second = enc.clone();
        break_devices(&mut second, 6, 7);
        let mut both = first.clone();
        break_devices(&mut both, 6, 7);
        let expected = inline.decode(&first, data.len()).unwrap_err();
        assert!(matches!(expected, EccError::Uncorrectable { .. }));
        assert_ne!(inline.decode(&second, data.len()).unwrap_err(), expected);
        for codec in [&pool, &inline] {
            assert_eq!(codec.decode(&both, data.len()).unwrap_err(), expected);
        }
    }

    #[test]
    fn run_jobs_folds_in_job_order_and_first_err_wins() {
        for workers in [1usize, 2, 4] {
            let double = |j: &mut usize| Ok::<usize, usize>(*j * 2);
            let mut seen = Vec::new();
            let pooled = run_jobs(0..50usize, workers, double, |r| seen.push(r)).unwrap();
            assert_eq!(pooled, workers > 1, "workers={workers}");
            assert_eq!(seen, (0..50).map(|j| j * 2).collect::<Vec<_>>(), "workers={workers}");

            let fail = |j: &mut usize| if *j == 17 || *j == 33 { Err(*j) } else { Ok(*j) };
            let mut seen = Vec::new();
            assert_eq!(run_jobs(0..50usize, workers, fail, |r| seen.push(r)), Err(17));
            assert_eq!(seen, (0..17).collect::<Vec<_>>(), "workers={workers}");

            let one = run_jobs([7usize], workers, double, |_| {});
            assert_eq!(one, Ok(false), "one job runs inline, workers={workers}");
        }
    }

    #[test]
    fn length_mismatch_is_malformed() {
        let cfg = EccConfig::hamming(true);
        let codec = ParallelCodec::new(cfg, 1).unwrap();
        let data = sample(1000);
        let enc = codec.encode(&data);
        assert!(matches!(
            codec.decode(&enc[..enc.len() - 1], data.len()),
            Err(EccError::Malformed { .. })
        ));
    }

    #[test]
    fn rs_chunk_independence_bounds_burst_damage() {
        // A burst confined to one chunk never affects other chunks.
        let cfg = EccConfig::rs(16, 4).unwrap();
        let codec = ParallelCodec::with_chunk_size(cfg, 2, 4096).unwrap();
        let data = sample(16 * 4096);
        let mut enc = codec.encode(&data);
        // Destroy 1/5 of chunk 3's data (within m/k tolerance of that chunk).
        let start = 3 * 4096;
        for b in &mut enc[start..start + 4096 / 5] {
            *b = 0xDD;
        }
        let (out, report) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_devices >= 1);
    }

    #[test]
    fn empty_input_round_trips() {
        let codec = ParallelCodec::new(EccConfig::secded(true), 2).unwrap();
        let enc = codec.encode(&[]);
        assert!(enc.is_empty());
        let (out, _) = codec.decode(&enc, 0).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn tail_chunk_smaller_than_chunk_size() {
        let cfg = EccConfig::hamming(false);
        let codec = ParallelCodec::with_chunk_size(cfg, 3, 999).unwrap();
        let data = sample(999 * 4 + 123);
        let enc = codec.encode(&data);
        let (out, _) = codec.decode(&enc, data.len()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn sharded_encode_matches_per_shard_encode() {
        // Above RS's 1 MiB-per-worker floor, so its 4-thread pass runs on
        // the pool; the lighter schemes' 4 MiB floor keeps theirs inline.
        let data = sample((2 << 20) + 5_000);
        for cfg in
            [EccConfig::parity(4).unwrap(), EccConfig::secded(true), EccConfig::rs(16, 4).unwrap()]
        {
            let shard_size = 24 * 1024;
            let mut inline = Vec::new();
            for threads in [1usize, 4] {
                let codec = ParallelCodec::with_chunk_size(cfg, threads, 8 * 1024).unwrap();
                if cfg.name() == "rs" && threads == 4 {
                    assert_eq!(codec.effective_workers(data.len()), 2);
                }
                let total = codec.sharded_encoded_len(data.len(), shard_size);
                let mut out = vec![0x5Au8; total];
                codec.encode_sharded_into(&data, shard_size, &mut out).unwrap();
                if threads == 1 {
                    inline = out.clone();
                }
                assert_eq!(out, inline, "{cfg}: pool and inline bytes differ");
                // Every shard region equals the standalone encode of its slice.
                let mut pos = 0;
                for shard in data.chunks(shard_size) {
                    let elen = codec.encoded_len(shard.len());
                    assert_eq!(&out[pos..pos + elen], &codec.encode(shard)[..], "{cfg}");
                    pos += elen;
                }
                assert_eq!(pos, total);
            }
        }
    }

    #[test]
    fn decode_shard_in_place_repairs_one_shard() {
        let cfg = EccConfig::secded(true);
        let codec = ParallelCodec::with_chunk_size(cfg, 1, 4 * 1024).unwrap();
        let data = sample(40_000);
        let shard_size = 10_000;
        let mut enc = vec![0u8; codec.sharded_encoded_len(data.len(), shard_size)];
        codec.encode_sharded_into(&data, shard_size, &mut enc).unwrap();
        // Corrupt and repair shard 2 only.
        let elen = codec.encoded_len(shard_size);
        let region = &mut enc[2 * elen..3 * elen];
        flip_bit(region, 999);
        let report = codec.decode_shard_in_place(region, shard_size).unwrap();
        assert_eq!(report.corrected_bits, 1);
        assert_eq!(&region[..shard_size], &data[2 * shard_size..3 * shard_size]);
    }

    #[test]
    fn sharded_encode_rejects_bad_arguments() {
        let codec = ParallelCodec::new(EccConfig::hamming(true), 1).unwrap();
        let data = sample(1000);
        let mut out = vec![0u8; codec.sharded_encoded_len(data.len(), 100)];
        assert!(matches!(
            codec.encode_sharded_into(&data, 0, &mut out),
            Err(EccError::InvalidConfig(_))
        ));
        let mut short = vec![0u8; out.len() - 1];
        assert!(matches!(
            codec.encode_sharded_into(&data, 100, &mut short),
            Err(EccError::Malformed { .. })
        ));
    }

    #[test]
    fn sharded_empty_input_is_empty() {
        let codec = ParallelCodec::new(EccConfig::secded(true), 1).unwrap();
        assert_eq!(codec.sharded_encoded_len(0, 4096), 0);
        let mut out = vec![];
        codec.encode_sharded_into(&[], 4096, &mut out).unwrap();
    }

    #[test]
    fn effective_workers_respects_min_bytes_floor() {
        // RS floor is 1 MiB/worker; light schemes 4 MiB/worker.
        let rs = ParallelCodec::new(EccConfig::rs(16, 4).unwrap(), 4).unwrap();
        assert_eq!(rs.effective_workers(100_000), 1, "small job collapses to in-line");
        assert_eq!(rs.effective_workers(1 << 20), 1, "exactly one floor's worth");
        assert_eq!(rs.effective_workers(2 << 20), 2);
        assert_eq!(rs.effective_workers(100 << 20), 4, "clamped at configured threads");
        let ham = ParallelCodec::new(EccConfig::hamming(true), 2).unwrap();
        assert_eq!(ham.effective_workers(4 << 20), 1);
        assert_eq!(ham.effective_workers(8 << 20), 2);
        // Sequential codecs are unaffected.
        let seq = ParallelCodec::new(EccConfig::hamming(true), 1).unwrap();
        assert_eq!(seq.effective_workers(100 << 20), 1);
    }

    #[test]
    fn pool_path_round_trips_above_the_floor() {
        // Large enough that the pool is genuinely used (3 MiB / 1 MiB floor
        // = 3 workers for RS): the parallel output must match sequential
        // and repairs must still work chunk-locally.
        let cfg = EccConfig::rs(16, 4).unwrap();
        let par = ParallelCodec::with_chunk_size(cfg, 4, 256 * 1024).unwrap();
        assert_eq!(par.effective_workers(3 << 20), 3);
        let seq = ParallelCodec::with_chunk_size(cfg, 1, 256 * 1024).unwrap();
        let data = sample(3 << 20);
        let enc = par.encode(&data);
        assert_eq!(enc, seq.encode(&data));
        let mut bad = enc.clone();
        for b in &mut bad[5000..5000 + 2048] {
            *b = 0xEE;
        }
        let (out, report) = par.decode(&bad, data.len()).unwrap();
        assert_eq!(out, data);
        assert!(report.corrected_devices >= 1);
    }

    #[test]
    fn throughput_sample_math() {
        let s = ThroughputSample { bytes: 2_000_000, seconds: 0.5 };
        assert!((s.mb_per_s() - 4.0).abs() < 1e-9);
        let z = ThroughputSample { bytes: 1, seconds: 0.0 };
        assert!(z.mb_per_s().is_infinite());
    }
}
