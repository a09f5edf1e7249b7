//! `tile_serve`: a closed loop of one client over one RS(223,32)
//! container of ZFP-Rate streams, as an analysis job that waits for each
//! reply. Each pass is a one-shot protect of the payload and a one-shot
//! recover of the faulted container, then the same 2000 seeded operations:
//! ~80% 64 KiB tile reads through one warmed `ArcReader` whose cache holds
//! half the payload, ~15% `StreamEncoder` writes of 1 MiB segments, and ~5%
//! full restores through `StreamDecoder`. The compressors run only in
//! set-up.

use std::time::Instant;

use arc_core::{arc_engine_decode, arc_engine_encode_sharded, container, ArcReader};
use arc_ecc::{EccConfig, ParallelCodec};
use arc_pressio::{CompressorSpec, Dataset};

use crate::access::Access;
use crate::common::{self, replay_encode, Rng, Shards, MIB, TILE};
use crate::report::{Counts, Layers, Metrics, Ops, Outcome, TracedPass};
use crate::stats::{fastest_half, median, per_pass_percentile, Json};
use crate::trace::{Totals, Tracer};

/// Library threads per call: the client waits on each call in turn.
pub const THREADS: usize = 1;
const TARGET_SHARD: usize = 256 << 10;
const SEGMENT: usize = 1 << 20;
const PIECE: usize = 64 << 10;
const OPS_PER_PASS: usize = 2000;
const WARMUP_READS: usize = 256;
/// One shard in FAULT_EVERY is hit by faults.
const FAULT_EVERY: usize = 4;
/// Every n-th write is compared with the one-shot encoder's container.
const CHECK_EVERY_WRITE: usize = 8;
const SETUP_REPS: usize = 3;
const MIN_PASSES: usize = 3;
const OPEN_SAMPLES: usize = 16;

struct Served {
    seed: u64,
    /// Bytes of the fields the payload was compressed from.
    raw: usize,
    config: EccConfig,
    payload: Vec<u8>,
    /// CRC-32 of the clean container, which every one-shot protect must
    /// reproduce.
    container_crc: u32,
    /// The container with its seeded bit flips: what the loop serves.
    faulted: Vec<u8>,
    shards: Shards,
    shard_size: usize,
    cache: usize,
    codec: ParallelCodec,
}

/// Seconds spent by one set-up, of which generating the fields.
struct SetupTimes {
    total: f64,
    generate: f64,
}

fn setup(seed: u64, ops: &mut Ops) -> Option<(Served, SetupTimes)> {
    let config = EccConfig::rs(223, 32).expect("RS(223,32) is valid");
    let t = Instant::now();
    let fields = common::generate_fields(seed);
    let generate = t.elapsed().as_secs_f64();
    let comp = CompressorSpec::ZfpRate(8.0).build();
    let mut streams = Vec::new();
    for f in &fields {
        let stream = comp.compress(&Dataset { data: &f.data, dims: &f.dims });
        streams.push(ops.attempt("zfp-rate compress", stream)?);
    }
    let payload = streams.concat();
    let shard_size = arc_zfp::recommended_shard_size(&streams[0], TARGET_SHARD);
    let container =
        ops.attempt("protect", arc_engine_encode_sharded(&payload, config, THREADS, shard_size))?;
    let shards = ops.attempt("index", Shards::of(&container))?;
    let mut faulted = container.clone();
    shards.inject_faults(&mut faulted, &mut Rng::new(seed, 0xFA17), FAULT_EVERY);
    let times = SetupTimes { total: t.elapsed().as_secs_f64(), generate };

    // Recover the faulted container and decompress every stream in it.
    let (recovered, _) = ops.attempt("recover", arc_engine_decode(&faulted, THREADS))?;
    ops.check(recovered == payload, || "recovered payload differs from the original".into());
    let mut at = 0;
    for (f, s) in fields.iter().zip(&streams) {
        let part = recovered.get(at..at + s.len()).unwrap_or(&[]);
        at += s.len();
        if let Some(d) = ops.attempt("zfp-rate decompress", comp.decompress(part)) {
            ops.check(d.data.len() == f.len(), || {
                format!("{}: decompressed {} values, not {}", f.name, d.data.len(), f.len())
            });
        }
    }
    let container_crc = container::data_crc(&container);
    let cache = payload.len() / 2;
    let codec = common::codec(config, THREADS);
    let raw = fields.iter().map(|f| f.byte_len()).sum();
    let served = Served {
        seed,
        raw,
        config,
        payload,
        container_crc,
        faulted,
        shards,
        shard_size,
        cache,
        codec,
    };
    Some((served, times))
}

/// Everything one pass measured, in seconds.
#[derive(Default)]
struct PassOut {
    protect: Option<f64>,
    recover: Option<f64>,
    hits: Vec<f64>,
    misses: Vec<f64>,
    writes: Vec<f64>,
    restores: Vec<f64>,
    counts: Counts,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut ops = Ops::default();
    let mut setups = Vec::new();
    let Some((mut sv, first)) = setup(seed, &mut ops) else {
        return Outcome {
            ops,
            metrics: Metrics::default(),
            samples: Json::obj(vec![]),
            threads: Json::Int(THREADS as u64),
        };
    };
    setups.push(first);
    let (raw, container_len) = (sv.raw, sv.faulted.len());
    let mut setup_again = |sv: &mut Served, ops: &mut Ops| {
        if let Some((s, t)) = setup(seed, ops) {
            *sv = s;
            setups.push(t);
        }
    };

    if !trace {
        // The other set-ups run between the first passes, so setup_s sees
        // the same host conditions as the passes.
        let mut passes = Vec::new();
        let mut walls = Vec::new();
        let mut peak = 0;
        while passes.len() < MIN_PASSES || walls.iter().sum::<f64>() < seconds {
            if !passes.is_empty() && passes.len() < SETUP_REPS {
                setup_again(&mut sv, &mut ops);
            }
            crate::alloc::reset_peak();
            let (p, wall, _) = sv.pass(&mut Tracer::new(false), &mut ops);
            peak = peak.max(crate::alloc::peak_bytes());
            walls.push(wall);
            passes.push(p);
        }
        // Read percentiles are per pass, then the median over passes; the
        // other figures pool the faster half of the passes, which are the
        // same work: interference from the rest of the host only adds time.
        let kept: Vec<&PassOut> = fastest_half(&walls).into_iter().map(|i| &passes[i]).collect();
        let pool = |f: fn(&PassOut) -> &Vec<f64>| {
            kept.iter().flat_map(|p| f(p)).copied().collect::<Vec<f64>>()
        };
        let reads: Vec<Vec<f64>> =
            passes.iter().map(|p| p.hits.iter().chain(&p.misses).copied().collect()).collect();
        let read_us = |q| per_pass_percentile(&reads, q).unwrap_or(f64::NAN) * 1e6;
        let (writes, restores) = (pool(|p| &p.writes), pool(|p| &p.restores));
        let protects: Vec<f64> = kept.iter().filter_map(|p| p.protect).collect();
        let recovers: Vec<f64> = kept.iter().filter_map(|p| p.recover).collect();
        let payload_mib = sv.payload.len() as f64 / MIB;
        let mut m = Metrics::default();
        m.put("protect_mib_s", payload_mib / median(&protects).unwrap_or(f64::NAN), "MiB/s");
        m.put("recover_mib_s", payload_mib / median(&recovers).unwrap_or(f64::NAN), "MiB/s");
        m.put("stored_ratio", container_len as f64 / raw as f64, "ratio");
        m.put("read_p50_us", read_us(0.50), "us");
        m.put("read_p99_us", read_us(0.99), "us");
        m.put("write_mib_s", SEGMENT as f64 / MIB / median(&writes).unwrap_or(f64::NAN), "MiB/s");
        m.put("restore_mib_s", payload_mib / median(&restores).unwrap_or(f64::NAN), "MiB/s");
        m.put("peak_heap_mib", peak as f64 / MIB, "MiB");
        m.put("ops_ok_frac", ops.ok_frac(), "frac");
        m.put(
            "setup_s",
            median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()).unwrap_or(f64::NAN),
            "s",
        );
        let samples = Json::obj(vec![
            ("passes", Json::Int(passes.len() as u64)),
            ("passes_pooled", Json::Int(kept.len() as u64)),
            ("reads_per_pass", Json::Int(reads[0].len() as u64)),
            ("writes", Json::Int(writes.len() as u64)),
            ("restores", Json::Int(restores.len() as u64)),
            ("setups", Json::Int(setups.len() as u64)),
        ]);
        return Outcome { ops, metrics: m, samples, threads: Json::Int(THREADS as u64) };
    }

    for _ in 1..SETUP_REPS {
        setup_again(&mut sv, &mut ops);
    }
    let mut open_us = Vec::new();
    for _ in 0..OPEN_SAMPLES {
        let t = Instant::now();
        let r = ArcReader::with_cache_capacity(&sv.faulted, THREADS, sv.cache);
        open_us.push(t.elapsed().as_secs_f64() * 1e6);
        ops.attempt("reader open", r);
    }
    // Untraced and traced passes alternate, each pair in the other order
    // from the last, so drift over the run reaches both sides alike.
    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut outs = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            if on {
                let (out, wall, totals) = sv.pass(&mut tr, &mut ops);
                traced.push(TracedPass { wall, totals });
                outs.push(out);
            } else {
                untraced.push(sv.pass(&mut Tracer::new(false), &mut ops).1);
            }
        }
    }
    let generate: Vec<f64> = setups.iter().map(|s| s.generate).collect();
    let us = |f: fn(&PassOut) -> &Vec<f64>| {
        outs.iter().flat_map(f).map(|x| x * 1e6).collect::<Vec<f64>>()
    };
    let (hit_us, miss_us) = (us(|o| &o.hits), us(|o| &o.misses));
    let mut counts = outs[0].counts.clone();
    counts.payload_bytes = sv.payload.len() as u64;
    counts.container_bytes = container_len as u64;
    let layers = Layers {
        passes: &traced,
        untraced_walls: &untraced,
        counts: &counts,
        generate_s: median(&generate).unwrap_or(f64::NAN),
        open_us: &open_us,
        hit_us: &hit_us,
        miss_us: &miss_us,
        sz_split_gap_frac: 0.0,
    };
    let metrics = layers.metrics();
    let samples = Json::obj(vec![
        ("untraced_passes", Json::Int(untraced.len() as u64)),
        ("traced_passes", Json::Int(traced.len() as u64)),
        ("hit_reads", Json::Int(hit_us.len() as u64)),
        ("miss_reads", Json::Int(miss_us.len() as u64)),
        ("opens", Json::Int(open_us.len() as u64)),
    ]);
    let mut out = Outcome { ops, metrics, samples, threads: Json::Int(THREADS as u64) };
    out.check_attribution(&layers, false);
    out
}

impl Served {
    /// A reader with its cache filled by a fixed run of seeded reads.
    fn warm_reader(&self, ops: &mut Ops) -> Option<ArcReader<'_>> {
        let mut reader = ops.attempt(
            "reader open",
            ArcReader::with_cache_capacity(&self.faulted, THREADS, self.cache),
        )?;
        let mut rng = Rng::new(self.seed, 0x3A53);
        for _ in 0..WARMUP_READS {
            let off = rng.below(self.payload.len() - TILE + 1);
            ops.attempt("warm-up read", reader.decode_range(off, TILE));
        }
        Some(reader)
    }

    /// One pass: a fresh reader warmed by a fixed run of reads, then the
    /// same 2000 seeded operations on every pass of a run with this seed.
    /// Returns what it measured, its wall time without the warm-up and
    /// without what `tr` set aside, and the spans `tr` recorded.
    fn pass(&self, tr: &mut Tracer, ops: &mut Ops) -> (PassOut, f64, Totals) {
        let mut out = PassOut::default();
        let mut reader = self.warm_reader(ops);
        let before = reader.as_ref().map(|r| r.cache_stats()).unwrap_or_default();
        let mut rng = Rng::new(self.seed, 0x0905);
        let t = Instant::now();
        self.protect_and_recover(tr, ops, &mut out);
        let access = Access {
            config: self.config,
            threads: THREADS,
            shard_size: self.shard_size,
            faulted: &self.faulted,
            shards: &self.shards,
            codec: &self.codec,
        };
        for _ in 0..OPS_PER_PASS {
            match rng.below(100) {
                0..=79 => {
                    let off = rng.below(self.payload.len() - TILE + 1);
                    let expect = &self.payload[off..off + TILE];
                    let read = reader
                        .as_mut()
                        .and_then(|r| access.read(tr, ops, &mut out.counts, r, off, expect));
                    if let Some((s, hit)) = read {
                        if hit { &mut out.hits } else { &mut out.misses }.push(s);
                    }
                }
                80..=94 => {
                    let off = rng.below(self.payload.len() - SEGMENT + 1);
                    let segment = &self.payload[off..off + SEGMENT];
                    let one_shot = if out.writes.len().is_multiple_of(CHECK_EVERY_WRITE) {
                        let c = tr.aside(|| {
                            arc_engine_encode_sharded(
                                segment,
                                self.config,
                                THREADS,
                                self.shard_size,
                            )
                        });
                        ops.attempt("one-shot protect", c)
                    } else {
                        None
                    };
                    let c = one_shot.as_deref();
                    if let Some(s) = access.write(tr, ops, &mut out.counts, segment, PIECE, c) {
                        out.writes.push(s);
                    }
                }
                _ => {
                    if let Some(s) = access.restore(tr, ops, &mut out.counts, &self.payload) {
                        out.restores.push(s);
                    }
                }
            }
        }
        let wall = t.elapsed();
        let totals = tr.take();
        if let Some(r) = reader {
            let after = r.cache_stats();
            out.counts.cache_hits = after.hits - before.hits;
            out.counts.cache_misses = after.misses - before.misses;
            out.counts.evictions = after.evictions - before.evictions;
        }
        (out, (wall - totals.excluded).as_secs_f64(), totals)
    }

    /// One-shot protect of the payload and one-shot recover of the faulted
    /// container: the whole-object path beside the streaming one.
    fn protect_and_recover(&self, tr: &mut Tracer, ops: &mut Ops, out: &mut PassOut) {
        let t = Instant::now();
        let (protected, span) = tr.span("core.encode", || {
            arc_engine_encode_sharded(&self.payload, self.config, THREADS, self.shard_size)
        });
        let elapsed = t.elapsed().as_secs_f64();
        if let Some(c) = ops.attempt("one-shot protect", protected) {
            out.protect = Some(elapsed);
            ops.check(container::data_crc(&c) == self.container_crc, || {
                "one-shot protect differs from the set-up's container".into()
            });
        }
        if let Some((d, _)) =
            tr.probe(|| replay_encode(&self.codec, &self.payload, self.shard_size))
        {
            tr.credit(span, "ecc.encode", d);
        }
        let t = Instant::now();
        let (recovered, span) =
            tr.span("core.decode", || arc_engine_decode(&self.faulted, THREADS));
        let elapsed = t.elapsed().as_secs_f64();
        if let Some((data, report)) = ops.attempt("one-shot recover", recovered) {
            out.recover = Some(elapsed);
            out.counts.correction(&report.correction);
            ops.check(data == self.payload, || "one-shot recover differs from the payload".into());
        }
        if let Some(((d, _), _)) =
            tr.probe(|| self.shards.replay_decode(&self.codec, &self.faulted, 0..self.shards.len()))
        {
            tr.credit(span, "ecc.decode", d);
        }
    }
}
