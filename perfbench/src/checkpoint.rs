//! `checkpoint_sz` and `checkpoint_zfp`: a checkpoint of three fields is
//! compressed, protected into sharded containers, hit by correctable bit
//! flips, recovered and decompressed; each protected stream is also
//! written through `StreamEncoder`, restored through `StreamDecoder` and
//! read back cold by 64 KiB tiles through `ArcReader`.
//!
//! A pass runs every (field, mode) item once, the same work every pass.
//! End-to-end throughputs take, per item, its fastest pass; read
//! percentiles are taken per pass, then the median over passes. Both keep
//! the slow stretches of a shared host out of the figures.

use std::time::Instant;

use arc_core::{arc_engine_decode, arc_engine_encode_sharded, ArcReader};
use arc_datasets::Field;
use arc_ecc::{EccConfig, ParallelCodec};
use arc_pressio::{Compressor, CompressorSpec, Dataset};
use arc_sz::{ErrorBound, SzConfig};

use crate::access::Access;
use crate::common::{self, max_abs_err, replay_encode, value_range, Rng, Shards, MIB, TILE};
use crate::report::{Counts, Layers, Metrics, Ops, Outcome, TracedPass};
use crate::stats::{median, per_pass_percentile, Json};
use crate::trace::Tracer;

/// ECC thread budget of the engine's protect and recover calls.
pub const THREADS: usize = 2;
/// Threads of the streaming and reader calls: one, as a client that waits on
/// each call. With two, their time follows how busy the host keeps the
/// second core (stream writes ran at either ~310 or ~470 MiB/s).
pub const ACCESS_THREADS: usize = 1;
const SHARD: usize = 256 << 10;
/// `StreamEncoder` push size: the pieces a stream is written in.
const SEGMENT: usize = 1 << 20;
const READS_PER_ITEM: usize = 256;
/// One shard in FAULT_EVERY is hit by faults.
const FAULT_EVERY: usize = 4;
const MIN_PASSES: usize = 3;
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sz,
    Zfp,
}

struct Item {
    field: usize,
    spec: CompressorSpec,
    /// Absolute error bound the decompressed field must meet, if the mode
    /// promises one.
    bound: Option<f64>,
}

struct Checkpoint {
    family: Family,
    seed: u64,
    fields: Vec<Field>,
    items: Vec<Item>,
    config: EccConfig,
    /// Codecs for the ECC replays of a traced pass: the engine's, and the
    /// streaming and reader calls'.
    codec: ParallelCodec,
    access_codec: ParallelCodec,
}

/// Everything one pass measured.
#[derive(Default)]
struct PassOut {
    /// Seconds per item; `None` where an operation failed.
    protect: Vec<Option<f64>>,
    recover: Vec<Option<f64>>,
    write: Vec<Option<f64>>,
    restore: Vec<Option<f64>>,
    /// Seconds per tile read, split by whether every touched shard was cached.
    hits: Vec<f64>,
    misses: Vec<f64>,
    opens: Vec<f64>,
    counts: Counts,
    /// SZ compress time as split by the traced pass, and un-split.
    sz_split: f64,
    sz_unsplit: f64,
}

impl PassOut {
    fn reads(&self) -> Vec<f64> {
        self.hits.iter().chain(&self.misses).copied().collect()
    }
}

pub fn run(family: Family, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let t = Instant::now();
    let fields = common::generate_fields(seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let items = fields
        .iter()
        .enumerate()
        .flat_map(|(field, f)| {
            let range = value_range(&f.data);
            match family {
                Family::Sz => [
                    Item { field, spec: CompressorSpec::SzAbs(1e-2), bound: Some(1e-2) },
                    Item {
                        field,
                        spec: CompressorSpec::SzAbs(1e-3 * range),
                        bound: Some(1e-3 * range),
                    },
                ],
                Family::Zfp => [
                    Item { field, spec: CompressorSpec::ZfpRate(8.0), bound: None },
                    Item {
                        field,
                        spec: CompressorSpec::ZfpAcc(1e-3 * range),
                        bound: Some(1e-3 * range),
                    },
                ],
            }
        })
        .collect();
    let config = match family {
        Family::Sz => EccConfig::rs(223, 32).expect("RS(223,32) is valid"),
        Family::Zfp => EccConfig::secded(true),
    };
    let mut cp = Checkpoint {
        family,
        seed,
        fields,
        items,
        config,
        codec: common::codec(config, THREADS),
        access_codec: common::codec(config, ACCESS_THREADS),
    };
    let raw: usize = cp.items.iter().map(|it| cp.fields[it.field].byte_len()).sum();
    let mut ops = Ops::default();
    let mut setup = |cp: &mut Checkpoint| {
        let t = Instant::now();
        cp.fields = common::generate_fields(seed);
        setup_s.push(t.elapsed().as_secs_f64());
    };

    if !trace {
        // The other set-ups run between the first passes, so setup_s sees
        // the same host conditions as the passes.
        let mut passes = Vec::new();
        let mut walls = Vec::new();
        let mut peak = 0;
        while passes.len() < MIN_PASSES || walls.iter().sum::<f64>() < seconds {
            if !passes.is_empty() && passes.len() < SETUP_REPS {
                setup(&mut cp);
            }
            crate::alloc::reset_peak();
            let t = Instant::now();
            let p = cp.pass(&mut Tracer::new(false), &mut ops, false);
            walls.push(t.elapsed().as_secs_f64());
            peak = peak.max(crate::alloc::peak_bytes());
            passes.push(p);
        }
        // Per item, the fastest of its passes: interference from the rest of
        // the host only ever adds time.
        let per_item = |f: fn(&PassOut) -> &Vec<Option<f64>>| -> f64 {
            (0..cp.items.len())
                .map(|i| passes.iter().filter_map(|p| f(p)[i]).fold(f64::NAN, f64::min))
                .sum()
        };
        let c = &passes[0].counts;
        let reads: Vec<Vec<f64>> = passes.iter().map(PassOut::reads).collect();
        let read_us = |q| per_pass_percentile(&reads, q).unwrap_or(f64::NAN) * 1e6;
        let mut m = Metrics::default();
        m.put("protect_mib_s", raw as f64 / MIB / per_item(|p| &p.protect), "MiB/s");
        m.put("recover_mib_s", raw as f64 / MIB / per_item(|p| &p.recover), "MiB/s");
        m.put("stored_ratio", c.container_bytes as f64 / raw as f64, "ratio");
        m.put("read_p50_us", read_us(0.50), "us");
        m.put("read_p99_us", read_us(0.99), "us");
        m.put("write_mib_s", c.payload_bytes as f64 / MIB / per_item(|p| &p.write), "MiB/s");
        m.put("restore_mib_s", c.payload_bytes as f64 / MIB / per_item(|p| &p.restore), "MiB/s");
        m.put("peak_heap_mib", peak as f64 / MIB, "MiB");
        m.put("ops_ok_frac", ops.ok_frac(), "frac");
        m.put("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        let samples = Json::obj(vec![
            ("passes", Json::Int(passes.len() as u64)),
            ("items_per_pass", Json::Int(cp.items.len() as u64)),
            ("reads_per_pass", Json::Int(reads[0].len() as u64)),
            ("setups", Json::Int(setup_s.len() as u64)),
        ]);
        return Outcome { ops, metrics: m, samples, threads: threads_json() };
    }

    for _ in 1..SETUP_REPS {
        setup(&mut cp);
    }
    // Untraced and traced passes alternate, each pair in the other order
    // from the last, so drift over the run reaches both sides alike.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut outs = Vec::new();
    let mut tr = Tracer::new(true);
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let t = Instant::now();
            if on {
                let out = cp.pass(&mut tr, &mut ops, traced.is_empty());
                let totals = tr.take();
                traced.push(TracedPass {
                    wall: (t.elapsed() - totals.excluded).as_secs_f64(),
                    totals,
                });
                outs.push(out);
            } else {
                cp.pass(&mut Tracer::new(false), &mut ops, false);
                untraced.push(t.elapsed().as_secs_f64());
            }
        }
    }
    let first = &outs[0];
    let us = |f: fn(&PassOut) -> &Vec<f64>| {
        outs.iter().flat_map(f).map(|x| x * 1e6).collect::<Vec<f64>>()
    };
    let (hit_us, miss_us, open_us) = (us(|o| &o.hits), us(|o| &o.misses), us(|o| &o.opens));
    let layers = Layers {
        passes: &traced,
        untraced_walls: &untraced,
        counts: &first.counts,
        generate_s: median(&setup_s).unwrap_or(f64::NAN),
        open_us: &open_us,
        hit_us: &hit_us,
        miss_us: &miss_us,
        sz_split_gap_frac: if first.sz_unsplit > 0.0 {
            first.sz_split / first.sz_unsplit - 1.0
        } else {
            0.0
        },
    };
    let metrics = layers.metrics();
    let samples = Json::obj(vec![
        ("untraced_passes", Json::Int(untraced.len() as u64)),
        ("traced_passes", Json::Int(traced.len() as u64)),
        ("hit_reads", Json::Int(hit_us.len() as u64)),
        ("miss_reads", Json::Int(miss_us.len() as u64)),
    ]);
    let mut out = Outcome { ops, metrics, samples, threads: threads_json() };
    out.check_attribution(&layers, cp.family == Family::Sz);
    out
}

impl Checkpoint {
    /// Run every item once. With tracing on, layer calls are spans and the
    /// ECC work inside core, stream and reader calls is replayed alone and
    /// credited to them; `probe_split` also times the un-split SZ compress.
    fn pass(&self, tr: &mut Tracer, ops: &mut Ops, probe_split: bool) -> PassOut {
        let mut out = PassOut::default();
        for i in 0..self.items.len() {
            let r = self.item(i, tr, ops, &mut out, probe_split);
            out.protect.push(r.protect);
            out.recover.push(r.recover);
            out.write.push(r.write);
            out.restore.push(r.restore);
        }
        out
    }

    fn item(
        &self,
        i: usize,
        tr: &mut Tracer,
        ops: &mut Ops,
        out: &mut PassOut,
        probe_split: bool,
    ) -> ItemTimes {
        let mut times = ItemTimes::default();
        let item = &self.items[i];
        let f = &self.fields[item.field];
        let ds = Dataset { data: &f.data, dims: &f.dims };
        let comp = item.spec.build();
        let name = item.spec.name();

        // Protect: compress, then sharded ECC encode.
        let t = Instant::now();
        let Some(stream) =
            ops.attempt(&format!("{name} compress"), self.compress(tr, &*comp, item, &ds, out))
        else {
            return times;
        };
        let (container, enc_span) = tr.span("core.encode", || {
            arc_engine_encode_sharded(&stream, self.config, THREADS, SHARD)
        });
        let Some(container) = ops.attempt(&format!("{name} protect"), container) else {
            return times;
        };
        times.protect = Some(t.elapsed().as_secs_f64());
        if let Some((d, _)) = tr.probe(|| replay_encode(&self.codec, &stream, SHARD)) {
            tr.credit(enc_span, "ecc.encode", d);
        }
        out.counts.payload_bytes += stream.len() as u64;
        out.counts.container_bytes += container.len() as u64;

        let Some(shards) = ops.attempt(&format!("{name} index"), Shards::of(&container)) else {
            return times;
        };
        let mut faulted = container.clone();
        shards.inject_faults(
            &mut faulted,
            &mut Rng::new(self.seed, 0xFA17 + i as u64),
            FAULT_EVERY,
        );

        // Recover: one-shot decode of the faulted container, then decompress.
        let t = Instant::now();
        let (decoded, dec_span) = tr.span("core.decode", || arc_engine_decode(&faulted, THREADS));
        if let Some((recovered, report)) = ops.attempt(&format!("{name} recover"), decoded) {
            let field = self.decompress(tr, &*comp, &recovered);
            let elapsed = t.elapsed().as_secs_f64();
            out.counts.correction(&report.correction);
            ops.check(recovered == stream, || {
                format!("{name}: recovered stream differs from the original")
            });
            if let Some(values) = ops.attempt(&format!("{name} decompress"), field) {
                times.recover = Some(elapsed);
                ops.check(values.len() == f.data.len(), || {
                    format!("{name}: decompressed length differs")
                });
                if let Some(bound) = item.bound {
                    let err = max_abs_err(&values, &f.data);
                    ops.check(err <= bound, || {
                        format!("{name}: max error {err} exceeds bound {bound}")
                    });
                }
            }
        }
        if let Some(((d, _), _)) =
            tr.probe(|| shards.replay_decode(&self.codec, &faulted, 0..shards.len()))
        {
            tr.credit(dec_span, "ecc.decode", d);
        }

        // Write the same stream through the streaming encoder, restore the
        // faulted container through the streaming decoder, and read
        // tile-aligned regions back cold: a reader without a cache, so every
        // read decodes the one shard that holds its tile.
        let access = Access {
            config: self.config,
            threads: ACCESS_THREADS,
            shard_size: SHARD,
            faulted: &faulted,
            shards: &shards,
            codec: &self.access_codec,
        };
        times.write = access.write(tr, ops, &mut out.counts, &stream, SEGMENT, Some(&container));
        times.restore = access.restore(tr, ops, &mut out.counts, &stream);
        let t = Instant::now();
        let (reader, _) =
            tr.span("reader.open", || ArcReader::with_cache_capacity(&faulted, ACCESS_THREADS, 0));
        let Some(mut reader) = ops.attempt(&format!("{name} reader open"), reader) else {
            return times;
        };
        out.opens.push(t.elapsed().as_secs_f64());
        let mut rng = Rng::new(self.seed, 0x7EAD + i as u64);
        let len = TILE.min(stream.len());
        for _ in 0..READS_PER_ITEM {
            let off = TILE * rng.below(stream.len() / len);
            let expect = &stream[off..off + len];
            if let Some((s, hit)) = access.read(tr, ops, &mut out.counts, &mut reader, off, expect)
            {
                if hit { &mut out.hits } else { &mut out.misses }.push(s);
            }
        }
        let stats = reader.cache_stats();
        out.counts.cache_hits += stats.hits;
        out.counts.cache_misses += stats.misses;
        out.counts.evictions += stats.evictions;

        if probe_split && self.family == Family::Sz {
            if let Some((r, d)) = tr.probe(|| comp.compress(&ds)) {
                ops.check(r.is_ok(), || format!("{name}: un-split compress failed"));
                out.sz_unsplit += d.as_secs_f64();
            }
        }
        times
    }

    /// Compress one item. A traced SZ pass splits the compressor into its
    /// lossy stage (`final_lossless: false`) and the `arc-lossless` stage
    /// run on that stream, and protects the lossless stage's output.
    fn compress(
        &self,
        tr: &mut Tracer,
        comp: &dyn Compressor,
        item: &Item,
        ds: &Dataset<'_>,
        out: &mut PassOut,
    ) -> Result<Vec<u8>, String> {
        match (self.family, item.spec) {
            (Family::Sz, CompressorSpec::SzAbs(eb)) if tr.on() => {
                let t = Instant::now();
                let cfg = SzConfig {
                    bound: ErrorBound::Abs(eb),
                    final_lossless: false,
                    ..SzConfig::default()
                };
                let (lossy, _) =
                    tr.span("sz.compress", || arc_sz::compress(ds.data, ds.dims, &cfg));
                let lossy = lossy.map_err(|e| e.to_string())?;
                let (packed, _) =
                    tr.span("lossless.compress", || arc_lossless::zstd_like::compress(&lossy));
                out.sz_split += t.elapsed().as_secs_f64();
                out.counts.lossless_in += lossy.len() as u64;
                out.counts.lossless_out += packed.len() as u64;
                Ok(packed)
            }
            (Family::Sz, _) => comp.compress(ds).map_err(|e| e.to_string()),
            (Family::Zfp, _) => {
                tr.span("zfp.compress", || comp.compress(ds)).0.map_err(|e| e.to_string())
            }
        }
    }

    /// Inverse of [`Checkpoint::compress`] on a recovered stream.
    fn decompress(
        &self,
        tr: &mut Tracer,
        comp: &dyn Compressor,
        stream: &[u8],
    ) -> Result<Vec<f32>, String> {
        match self.family {
            Family::Sz if tr.on() => {
                let (lossy, _) =
                    tr.span("lossless.decompress", || arc_lossless::zstd_like::decompress(stream));
                let lossy = lossy.map_err(|e| e.to_string())?;
                let (field, _) = tr.span("sz.decompress", || arc_sz::decompress(&lossy));
                field.map(|d| d.data).map_err(|e| e.to_string())
            }
            Family::Sz => comp.decompress(stream).map(|d| d.data).map_err(|e| e.to_string()),
            Family::Zfp => tr
                .span("zfp.decompress", || comp.decompress(stream))
                .0
                .map(|d| d.data)
                .map_err(|e| e.to_string()),
        }
    }
}

#[derive(Default)]
struct ItemTimes {
    protect: Option<f64>,
    recover: Option<f64>,
    write: Option<f64>,
    restore: Option<f64>,
}

fn threads_json() -> Json {
    Json::obj(vec![
        ("engine", Json::Int(THREADS as u64)),
        ("stream_and_reader", Json::Int(ACCESS_THREADS as u64)),
    ])
}
