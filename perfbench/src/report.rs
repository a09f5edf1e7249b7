//! What a run hands back: operation tallies, correctness failures, layer
//! counters, and the metrics it prints.

use std::fmt::Display;

use arc_ecc::CorrectionReport;

use crate::stats::{median, Json};
use crate::trace::Totals;

/// Operations attempted, operations that returned an error, and outputs
/// that came back wrong. Errors count against `ops_ok_frac`; a wrong output
/// fails the whole run.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Ops {
    /// Count one attempt and unwrap its result, recording an error.
    pub fn attempt<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("{what} failed: {e}");
                self.failed += 1;
                None
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            eprintln!("wrong output: {w}");
            self.wrong.push(w);
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Work counts of one pass, read from the library's own reports.
#[derive(Default, Clone)]
pub struct Counts {
    pub corrected_bits: u64,
    pub corrected_devices: u64,
    pub blocks_checked: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub shards_touched: u64,
    pub encoded_bytes_decoded: u64,
    pub bytes_read: u64,
    pub stream_shards: u64,
    pub backpressure_waits: u64,
    pub lossless_in: u64,
    pub lossless_out: u64,
    pub payload_bytes: u64,
    pub container_bytes: u64,
}

impl Counts {
    pub fn correction(&mut self, r: &CorrectionReport) {
        self.corrected_bits += r.corrected_bits;
        self.corrected_devices += r.corrected_devices;
        self.blocks_checked += r.blocks_checked;
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(*v)),
                            ("unit", Json::Str(u.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// One traced pass: its wall time (probes excluded) and span totals.
pub struct TracedPass {
    pub wall: f64,
    pub totals: Totals,
}

/// The per-layer metrics of a traced run. Times are per pass, the median
/// over traced passes; counts are those of the first traced pass, which is
/// the same work for a given seed on every run.
pub struct Layers<'a> {
    pub passes: &'a [TracedPass],
    pub untraced_walls: &'a [f64],
    pub counts: &'a Counts,
    pub generate_s: f64,
    pub open_us: &'a [f64],
    pub hit_us: &'a [f64],
    pub miss_us: &'a [f64],
    pub sz_split_gap_frac: f64,
}

impl Layers<'_> {
    fn per_pass(&self, f: impl Fn(&TracedPass) -> f64) -> f64 {
        median(&self.passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    fn ms(&self, f: impl Fn(&Totals) -> f64) -> f64 {
        self.per_pass(|p| f(&p.totals) * 1e3)
    }

    pub fn unattributed_frac(&self) -> f64 {
        self.per_pass(|p| (p.wall - p.totals.all_self()) / p.wall)
    }

    pub fn metrics(&self) -> Metrics {
        let c = self.counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced = mean(&self.passes.iter().map(|p| p.wall).collect::<Vec<_>>());
        let mut m = Metrics::default();
        m.put("datasets.generate_s", self.generate_s, "s");
        m.put("sz.compress_ms", self.ms(|t| t.self_time("sz.compress")), "ms");
        m.put("sz.decompress_ms", self.ms(|t| t.self_time("sz.decompress")), "ms");
        m.put("lossless.compress_ms", self.ms(|t| t.self_time("lossless.compress")), "ms");
        m.put("lossless.decompress_ms", self.ms(|t| t.self_time("lossless.decompress")), "ms");
        let saved =
            if c.lossless_in == 0 { 0.0 } else { 1.0 - ratio(c.lossless_out, c.lossless_in) };
        m.put("lossless.bytes_saved_frac", saved, "frac");
        m.put("zfp.compress_ms", self.ms(|t| t.self_time("zfp.compress")), "ms");
        m.put("zfp.decompress_ms", self.ms(|t| t.self_time("zfp.decompress")), "ms");
        m.put("ecc.encode_ms", self.ms(|t| t.self_time("ecc.encode")), "ms");
        m.put("ecc.decode_ms", self.ms(|t| t.self_time("ecc.decode")), "ms");
        m.put("ecc.corrected_bits", c.corrected_bits as f64, "count");
        m.put("ecc.corrected_devices", c.corrected_devices as f64, "count");
        m.put("ecc.blocks_checked", c.blocks_checked as f64, "count");
        m.put("core.encode_ms", self.ms(|t| t.total("core.encode")), "ms");
        m.put("core.decode_ms", self.ms(|t| t.total("core.decode")), "ms");
        m.put("core.container_ms", self.ms(|t| t.layer_self("core")), "ms");
        m.put("core.overhead_bytes_frac", ratio(c.container_bytes, c.payload_bytes) - 1.0, "frac");
        m.put("reader.open_us", median(self.open_us).unwrap_or(0.0), "us");
        m.put("reader.hit_us", median(self.hit_us).unwrap_or(0.0), "us");
        m.put("reader.miss_us", median(self.miss_us).unwrap_or(0.0), "us");
        m.put("reader.self_ms", self.ms(|t| t.layer_self("reader")), "ms");
        m.put("reader.cache_hit_rate", ratio(c.cache_hits, c.cache_hits + c.cache_misses), "frac");
        m.put("reader.evictions", c.evictions as f64, "count");
        m.put("reader.read_amplification", ratio(c.encoded_bytes_decoded, c.bytes_read), "ratio");
        m.put("reader.shards_touched", c.shards_touched as f64, "count");
        m.put("stream.encode_ms", self.ms(|t| t.total("stream.encode")), "ms");
        m.put("stream.decode_ms", self.ms(|t| t.total("stream.decode")), "ms");
        m.put("stream.self_ms", self.ms(|t| t.layer_self("stream")), "ms");
        m.put("stream.backpressure_waits", c.backpressure_waits as f64, "count");
        m.put("stream.shards", c.stream_shards as f64, "count");
        m.put("trace.wall_ms", traced * 1e3, "ms");
        m.put("trace.overhead_frac", traced / mean(self.untraced_walls) - 1.0, "frac");
        m.put("trace.unattributed_frac", self.unattributed_frac(), "frac");
        m.put("trace.sz_split_gap_frac", self.sz_split_gap_frac, "frac");
        m
    }
}

/// Largest share of a traced pass's wall time the layer self times may
/// leave unexplained.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;
/// Largest relative gap between the split SZ compress (lossy stage plus
/// `arc-lossless` stage) and the un-split `arc_sz::compress`.
pub const SZ_SPLIT_BOUND: f64 = 0.25;

/// A finished run.
pub struct Outcome {
    pub ops: Ops,
    pub metrics: Metrics,
    /// Sample counts behind the metrics.
    pub samples: Json,
    /// Library thread budget of the calls.
    pub threads: Json,
}

impl Outcome {
    /// A traced run's layer self times must add up to its wall time, and
    /// the SZ split must account for the un-split compress.
    pub fn check_attribution(&mut self, layers: &Layers, sz: bool) {
        let u = layers.unattributed_frac();
        self.ops.check(u.abs() <= UNATTRIBUTED_BOUND, || {
            format!("layer self times leave {u} of the traced wall unattributed (bound {UNATTRIBUTED_BOUND})")
        });
        let g = layers.sz_split_gap_frac;
        self.ops.check(!sz || g.abs() <= SZ_SPLIT_BOUND, || {
            format!(
                "split SZ compress differs from the un-split one by {g} (bound {SZ_SPLIT_BOUND})"
            )
        });
    }
}
