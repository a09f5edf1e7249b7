//! Golden compressed-stream regression tests: the SZ and ZFP encoders must
//! produce byte-for-byte stable output for a fixed input, with the
//! `telemetry` feature on or off. The FNV-1a checksums below were captured
//! with telemetry off; `scripts/check.sh` reruns this file under
//! `--features telemetry` (`ARC_CHECK_TELEMETRY=1`), so a checksum match in
//! both builds proves instrumentation never perturbs the streams.
//!
//! To regenerate after an *intentional* stream-format change, run:
//! `ARC_REGENERATE_GOLDEN=1 cargo test --test golden_streams -- --nocapture`
//! and paste the printed constants.

use arc::sz::{self, ErrorBound, SzConfig};
use arc::zfp::{self, ZfpMode};

/// Deterministic 32×32 smooth field — representative of the paper's
/// climate-style inputs without depending on dataset generators.
fn fixed_field() -> Vec<f32> {
    (0..32 * 32)
        .map(|i| {
            let (r, c) = ((i / 32) as f32, (i % 32) as f32);
            (r * 0.13).sin() * 4.0 + (c * 0.07).cos() * 2.5 + (r * c * 0.002).sin()
        })
        .collect()
}

/// 64-bit FNV-1a over the stream bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn sz_streams() -> Vec<(String, Vec<u8>)> {
    let data = fixed_field();
    [ErrorBound::Abs(1e-3), ErrorBound::PwRel(1e-2), ErrorBound::Psnr(60.0)]
        .into_iter()
        .map(|bound| {
            let cfg = SzConfig { bound, ..SzConfig::default() };
            let stream = sz::compress(&data, &[32, 32], &cfg).unwrap();
            (format!("sz:{bound:?}"), stream)
        })
        .collect()
}

fn zfp_streams() -> Vec<(String, Vec<u8>)> {
    let data = fixed_field();
    [ZfpMode::FixedAccuracy(1e-3), ZfpMode::FixedRate(8.0)]
        .into_iter()
        .map(|mode| {
            let stream = zfp::compress(&data, &[32, 32], mode).unwrap();
            (format!("zfp:{mode:?}"), stream)
        })
        .collect()
}

/// (stream id, byte length, FNV-1a of the bytes).
const GOLDEN_STREAMS: &[(&str, usize, u64)] = &[
    ("sz:Abs(0.001)", 792, 0x1eabe7d84f8c548b),
    ("sz:PwRel(0.01)", 910, 0x23d68a9091323f2f),
    ("sz:Psnr(60.0)", 669, 0xaaaebe29ddaf6e50),
    ("zfp:FixedAccuracy(0.001)", 1219, 0xcd6c15086c9afa4b),
    ("zfp:FixedRate(8.0)", 1043, 0x03fc992854a12509),
];

#[test]
fn compressed_streams_match_golden_checksums() {
    let actual: Vec<(String, Vec<u8>)> = sz_streams().into_iter().chain(zfp_streams()).collect();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes) in &actual {
            println!("    (\"{id}\", {}, {:#018x}),", bytes.len(), fnv1a(bytes));
        }
        return;
    }
    assert_eq!(GOLDEN_STREAMS.len(), actual.len(), "stream list drifted from snapshot");
    for ((gid, glen, gsum), (id, bytes)) in GOLDEN_STREAMS.iter().zip(&actual) {
        assert_eq!(gid, id, "stream order drifted from snapshot");
        assert_eq!(*glen, bytes.len(), "stream length changed for {id}");
        assert_eq!(*gsum, fnv1a(bytes), "stream bytes changed for {id}");
    }
}

/// The snapshotted streams must still round-trip within their bounds.
#[test]
fn golden_streams_still_round_trip() {
    let data = fixed_field();
    for (id, stream) in sz_streams() {
        let decoded = sz::decompress(&stream).unwrap();
        assert_eq!(decoded.dims, vec![32, 32], "{id}");
        assert_eq!(decoded.data.len(), data.len(), "{id}");
    }
    for (id, stream) in zfp_streams() {
        let decoded = zfp::decompress(&stream).unwrap();
        assert_eq!(decoded.dims, vec![32, 32], "{id}");
        assert_eq!(decoded.data.len(), data.len(), "{id}");
    }
}

/// 64³ NYX-like field (1 MiB of f32): large enough that the SZ body behind
/// the zstd-like stage runs far past the 64 KiB LZ77 window, so eviction,
/// ring wrap-around and long hash chains all shape the checksummed bytes.
fn large_field() -> (Vec<f32>, f64) {
    let field = arc::datasets::nyx_temperature(64, 64, 64, 0x5EED_0013);
    let (lo, hi) = field
        .data
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (field.data, (hi - lo) as f64)
}

/// A ≥300 KiB byte buffer built to exercise the LZ77 window edges: runs far
/// longer than `MAX_MATCH`, repeats at distance exactly `WINDOW` (the
/// farthest legal back-reference) and `WINDOW + 1` (just out of reach), and
/// long stretches of a four-letter alphabet whose hash chains run deep.
fn window_edge_buffer() -> Vec<u8> {
    use arc::lossless::lz77::WINDOW;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 24) as u8
    };
    let mut buf: Vec<u8> = Vec::new();
    for round in 0..2 {
        buf.extend((0..WINDOW + 4464).map(|_| noise()));
        for _ in 0..4096 {
            buf.push(buf[buf.len() - WINDOW]);
        }
        buf.extend((0..2000).map(|_| noise()));
        for _ in 0..4096 {
            buf.push(buf[buf.len() - WINDOW - 1]);
        }
        buf.extend(std::iter::repeat_n(0x55 + round as u8, 5000));
        buf.extend((0..50_000).map(|_| b"ACGT"[(noise() & 3) as usize]));
        buf.extend(b"lossy compressed checkpoint ".repeat(700));
    }
    buf
}

fn large_streams() -> Vec<(String, Vec<u8>)> {
    let (data, range) = large_field();
    let dims = [64, 64, 64];
    let mut out = Vec::new();
    for bound in [ErrorBound::Abs(1e-2), ErrorBound::Abs(1e-3 * range)] {
        let cfg = SzConfig { bound, ..SzConfig::default() };
        out.push((format!("sz64:{bound:?}"), sz::compress(&data, &dims, &cfg).unwrap()));
    }
    for mode in [ZfpMode::FixedRate(8.0), ZfpMode::FixedAccuracy(1e-3 * range)] {
        out.push((format!("zfp64:{mode:?}"), zfp::compress(&data, &dims, mode).unwrap()));
    }
    let buf = window_edge_buffer();
    out.push(("zstd_like:window_edges".into(), arc::lossless::zstd_like::compress(&buf)));
    out.push(("deflate:window_edges".into(), arc::lossless::deflate::compress(&buf)));
    out
}

/// (stream id, byte length, FNV-1a of the bytes) for [`large_streams`].
const GOLDEN_LARGE_STREAMS: &[(&str, usize, u64)] = &[
    ("sz64:Abs(0.01)", 938515, 0x5442b264f10b6d0e),
    ("sz64:Abs(316.06121875)", 256355, 0xa845ad1a1879c008),
    ("zfp64:FixedRate(8.0)", 262165, 0xe5ab2ab4c912b862),
    ("zfp64:FixedAccuracy(316.06121875)", 428952, 0x17429e679fd725e6),
    ("zstd_like:window_edges", 196411, 0xccb26ff7d4585c06),
    ("deflate:window_edges", 193675, 0x527bad9a51dc27b4),
];

#[test]
fn large_streams_match_golden_checksums() {
    let actual = large_streams();
    if std::env::var("ARC_REGENERATE_GOLDEN").is_ok() {
        for (id, bytes) in &actual {
            println!("    (\"{id}\", {}, {:#018x}),", bytes.len(), fnv1a(bytes));
        }
        return;
    }
    assert_eq!(GOLDEN_LARGE_STREAMS.len(), actual.len(), "stream list drifted from snapshot");
    for ((gid, glen, gsum), (id, bytes)) in GOLDEN_LARGE_STREAMS.iter().zip(&actual) {
        assert_eq!(gid, id, "stream order drifted from snapshot");
        assert_eq!(*glen, bytes.len(), "stream length changed for {id}");
        assert_eq!(*gsum, fnv1a(bytes), "stream bytes changed for {id}");
    }
}

/// The window-edge buffer really has the shape its checksums are meant to
/// guard, and both raw pipelines still round-trip it.
#[test]
fn window_edge_buffer_round_trips() {
    use arc::lossless::lz77::WINDOW;
    let buf = window_edge_buffer();
    assert!(buf.len() >= 300 * 1024, "{} bytes", buf.len());
    let at = WINDOW + 4464;
    assert_eq!(buf[at..at + 4096], buf[at - WINDOW..at - WINDOW + 4096]);
    let at = at + 4096 + 2000;
    assert_eq!(buf[at..at + 4096], buf[at - WINDOW - 1..at - WINDOW + 4095]);
    let z = arc::lossless::zstd_like::compress(&buf);
    assert_eq!(arc::lossless::zstd_like::decompress(&z).unwrap(), buf);
    let d = arc::lossless::deflate::compress(&buf);
    assert_eq!(arc::lossless::deflate::decompress(&d).unwrap(), buf);
}
