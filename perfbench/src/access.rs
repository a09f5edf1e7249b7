//! The access paths both workload families drive over a faulted sharded
//! container: a streaming write, a streaming restore and a tile read. Each
//! checks the bytes it gets back and, when tracing, replays its ECC work
//! alone and credits it to the call's span.

use std::time::Instant;

use arc_core::{ArcReader, StreamDecoder, StreamEncoder, StreamOptions};
use arc_ecc::{EccConfig, ParallelCodec};

use crate::common::{replay_encode, Shards};
use crate::report::{Counts, Ops};
use crate::trace::Tracer;

/// `StreamDecoder` push size: the pieces a restore arrives in.
const RESTORE_PIECE: usize = 64 << 10;

/// A faulted sharded container and how the access calls reach it.
pub struct Access<'a> {
    pub config: EccConfig,
    /// Library threads of every streaming and reader call.
    pub threads: usize,
    pub shard_size: usize,
    pub faulted: &'a [u8],
    pub shards: &'a Shards,
    /// Codec with `threads` threads, for the ECC replays.
    pub codec: &'a ParallelCodec,
}

impl Access<'_> {
    /// Stream `data` through a `StreamEncoder` in `piece`-byte pushes and,
    /// given the one-shot container for the same bytes, compare. Returns the
    /// seconds the streaming calls took.
    pub fn write(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        counts: &mut Counts,
        data: &[u8],
        piece: usize,
        one_shot: Option<&[u8]>,
    ) -> Option<f64> {
        let t = Instant::now();
        let (written, span) = tr.span("stream.encode", || {
            let opts = StreamOptions {
                threads: self.threads,
                shard_size: self.shard_size,
                ..StreamOptions::default()
            };
            let mut enc = StreamEncoder::new(Vec::new(), self.config, opts)?;
            for p in data.chunks(piece) {
                enc.push(p)?;
            }
            enc.finish()
        });
        let elapsed = t.elapsed().as_secs_f64();
        let (sink, stats) = ops.attempt("stream write", written)?;
        if let Some(c) = one_shot {
            ops.check(sink == c, || "streamed container differs from the one-shot one".into());
        }
        counts.stream_shards += stats.shards as u64;
        counts.backpressure_waits += stats.backpressure_waits;
        if let Some((d, _)) = tr.probe(|| replay_encode(self.codec, data, self.shard_size)) {
            tr.credit(span, "ecc.encode", d);
        }
        Some(elapsed)
    }

    /// Restore the faulted container through a `StreamDecoder` and compare
    /// with `expect`. Returns the seconds the streaming calls took.
    pub fn restore(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        counts: &mut Counts,
        expect: &[u8],
    ) -> Option<f64> {
        let t = Instant::now();
        let (restored, span) = tr.span("stream.decode", || {
            let mut dec = StreamDecoder::with_threads(self.threads);
            let mut data = Vec::with_capacity(expect.len());
            for piece in self.faulted.chunks(RESTORE_PIECE) {
                dec.push(piece, &mut data)?;
            }
            dec.finish().map(|stats| (data, stats))
        });
        let elapsed = t.elapsed().as_secs_f64();
        let (data, stats) = ops.attempt("stream restore", restored)?;
        ops.check(data == expect, || "streamed restore differs from the original".into());
        counts.correction(&stats.correction);
        let all = 0..self.shards.len();
        if let Some(((d, _), _)) =
            tr.probe(|| self.shards.replay_decode(self.codec, self.faulted, all))
        {
            tr.credit(span, "ecc.decode", d);
        }
        Some(elapsed)
    }

    /// Read `expect.len()` bytes at `off` through `reader` and compare.
    /// Returns the seconds the read took and whether every shard it
    /// touched came from the reader's cache.
    pub fn read(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        counts: &mut Counts,
        reader: &mut ArcReader<'_>,
        off: usize,
        expect: &[u8],
    ) -> Option<(f64, bool)> {
        let t = Instant::now();
        let (read, span) = tr.span("reader.read", || reader.decode_range(off, expect.len()));
        let elapsed = t.elapsed().as_secs_f64();
        let (bytes, report) = ops.attempt("tile read", read)?;
        ops.check(bytes == expect, || format!("tile at {off} differs"));
        counts.shards_touched += report.shards_touched as u64;
        counts.encoded_bytes_decoded += report.encoded_bytes_decoded as u64;
        counts.bytes_read += bytes.len() as u64;
        counts.correction(&report.correction);
        let missed = report.shards_touched - report.cache_hits;
        if missed > 0 {
            // The report says how many shards missed, not which; when a read
            // spans two shards and one was cached, replay the first of them.
            let first = self.shards.covering(off, expect.len()).start;
            if let Some(((d, _), _)) = tr.probe(|| {
                self.shards.replay_decode(self.codec, self.faulted, first..first + missed)
            }) {
                tr.credit(span, "ecc.decode", d);
            }
        }
        Some((elapsed, missed == 0))
    }
}
