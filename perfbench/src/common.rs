//! Inputs and helpers shared by the workloads: the seeded generator, the
//! three fields, correctable fault injection, shard geometry for the ECC
//! replays, and run provenance.

use std::ops::Range;
use std::time::{Duration, Instant};

use arc_core::container::{unpack, ShardEntry};
use arc_core::ArcError;
use arc_datasets::Field;
use arc_ecc::{CorrectionReport, EccConfig, ParallelCodec, DEFAULT_CHUNK_SIZE};

pub const MIB: f64 = (1u64 << 20) as f64;

/// Bytes per tile read: the unit an analysis job asks for.
pub const TILE: usize = 64 << 10;

/// Bit flips in each shard chosen for faults.
pub const FLIPS_PER_SHARD: usize = 2;

/// SplitMix64: every input of a run is drawn from one of these, seeded by
/// the run seed and a fixed stream tag, so the same seed gives the same
/// fields, faults, offsets and op mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The checkpoint: NYX 128³, CESM 900×1800 and Isabel 50×250×250
/// (~27 MiB of f32), each from its own seed stream.
pub fn generate_fields(seed: u64) -> Vec<Field> {
    let mut rng = Rng::new(seed, 0xF1E1D);
    vec![
        arc_datasets::nyx_temperature(128, 128, 128, rng.next_u64()),
        arc_datasets::cesm_cldlow(900, 1800, rng.next_u64()),
        arc_datasets::isabel_pressure(50, 250, 250, rng.next_u64()),
    ]
}

pub fn value_range(data: &[f32]) -> f64 {
    let (lo, hi) = data
        .iter()
        .filter(|x| x.is_finite())
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if lo.is_finite() {
        (hi - lo) as f64
    } else {
        0.0
    }
}

/// Largest absolute difference between two equally long fields.
pub fn max_abs_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
}

/// Shard geometry of a sharded container, read once so the fault injector
/// and the ECC replays can address shards directly.
pub struct Shards {
    payload_offset: usize,
    entries: Vec<ShardEntry>,
    starts: Vec<usize>,
}

impl Shards {
    pub fn of(container: &[u8]) -> Result<Shards, ArcError> {
        let u = unpack(container)?;
        let index = u
            .index
            .ok_or_else(|| ArcError::InvalidRequest("expected a sharded container".into()))?;
        Ok(Shards {
            payload_offset: u.payload_offset,
            starts: index.decoded_starts(),
            entries: index.entries,
        })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Indices of the shards that hold decoded bytes `off..off + len`.
    pub fn covering(&self, off: usize, len: usize) -> Range<usize> {
        let first = self.starts.partition_point(|&s| s <= off).saturating_sub(1);
        let last = self.starts.partition_point(|&s| s < off + len);
        first..last.max(first + 1)
    }

    /// Flip bits in the data regions of the container: a seeded choice of
    /// one shard in `every` gets [`FLIPS_PER_SHARD`] flips, each in its own
    /// 64-bit word. One bit per word is within SEC-DED(72,64), and two
    /// corrupted devices per chunk are well within RS(223,32)'s 32. The
    /// fault density is the same for every seed; only the places differ.
    /// Returns the number of bits flipped.
    pub fn inject_faults(&self, container: &mut [u8], rng: &mut Rng, every: usize) -> usize {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut flipped = 0;
        for &s in order.iter().take(self.entries.len().div_ceil(every)) {
            let e = &self.entries[s];
            let words = e.decoded_len / 8;
            let mut hit: Vec<usize> = Vec::new();
            while hit.len() < FLIPS_PER_SHARD.min(words) {
                let w = rng.below(words);
                if hit.contains(&w) {
                    continue;
                }
                hit.push(w);
                let bit = rng.below(64);
                container[self.payload_offset + e.offset + 8 * w + bit / 8] ^= 1 << (bit % 8);
                flipped += 1;
            }
        }
        flipped
    }

    /// Replay the ECC decode of the given shards with `codec` alone. The
    /// shard copy is outside the timing; the returned time is the codec's.
    pub fn replay_decode(
        &self,
        codec: &ParallelCodec,
        container: &[u8],
        which: Range<usize>,
    ) -> (Duration, CorrectionReport) {
        let mut spent = Duration::ZERO;
        let mut report = CorrectionReport::default();
        for e in &self.entries[which] {
            let at = self.payload_offset + e.offset;
            let mut buf = container[at..at + e.encoded_len].to_vec();
            let t = Instant::now();
            let r = codec.decode_shard_in_place(&mut buf, e.decoded_len);
            spent += t.elapsed();
            report.merge(&r.expect("replayed shard decodes as it did in the library call"));
        }
        (spent, report)
    }
}

/// Replay the ECC encode of a sharded protect with `codec` alone.
pub fn replay_encode(codec: &ParallelCodec, data: &[u8], shard: usize) -> Duration {
    let mut out = vec![0u8; codec.sharded_encoded_len(data.len(), shard)];
    let t = Instant::now();
    codec.encode_sharded_into(data, shard, &mut out).expect("replayed encode succeeds");
    t.elapsed()
}

pub fn codec(config: EccConfig, threads: usize) -> ParallelCodec {
    ParallelCodec::with_chunk_size(config, threads, DEFAULT_CHUNK_SIZE).expect("valid ECC config")
}

/// Commit of the checkout the benchmark runs in, read from `.git` in the
/// working directory; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }

    #[test]
    fn injected_faults_are_repaired() {
        let data: Vec<u8> = (0..600_000u32).map(|i| (i * 7 % 251) as u8).collect();
        for config in [EccConfig::rs(223, 32).unwrap(), EccConfig::secded(true)] {
            let mut c = arc_core::arc_engine_encode_sharded(&data, config, 1, 64 << 10).unwrap();
            let shards = Shards::of(&c).unwrap();
            assert_eq!(shards.covering(0, 1), 0..1);
            assert_eq!(shards.covering((64 << 10) - 1, 2), 0..2);
            assert_eq!(shards.len(), 10);
            let flips = shards.inject_faults(&mut c, &mut Rng::new(3, 4), 1);
            assert_eq!(flips, FLIPS_PER_SHARD * shards.len());
            let (out, report) = arc_core::arc_engine_decode(&c, 1).unwrap();
            assert_eq!(out, data);
            assert!(!report.correction.is_clean());
        }
    }
}
