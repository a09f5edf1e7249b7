//! Regression: extension-registry schemes are first-class citizens of the
//! v2 container. For every stock extension family the same data must
//!
//! 1. stream through `StreamEncoder::new` with an `ExtensionRegistry::scheme`
//!    handle into bytes **identical** to the one-shot
//!    `arc_engine_encode_sharded` with the same handle,
//! 2. stream-decode through `StreamDecoder::with_registry`,
//! 3. serve `ArcReader::decode_range` slices through
//!    `open_with_registry`, and
//! 4. full-decode through `decode_with_registry`
//!
//! all reproducing the original bytes. Before the fix, (1)–(3) rejected
//! extension ids outright ("supports built-ins only").

use arc_core::arc_engine_encode_sharded;
use arc_core::extension::{decode_with_registry, standard_extensions};
use arc_core::stream::{StreamDecoder, StreamEncoder, StreamOptions};
use arc_core::ArcReader;

fn sample(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 37) ^ (i >> 7) ^ (i >> 13)) as u8).collect()
}

const SHARD: usize = 32 << 10;

#[test]
fn every_extension_family_streams_and_range_decodes_byte_identically() {
    let registry = standard_extensions().expect("stock registry");
    let data = sample(200_000);
    for name in registry.ids() {
        let scheme = registry.scheme(&name).expect("registered scheme");
        let one_shot = arc_engine_encode_sharded(&data, scheme.clone(), 2, SHARD)
            .expect("one-shot sharded encode");

        // (1) Streaming encode produces the identical container.
        let opts = StreamOptions { shard_size: SHARD, ..StreamOptions::default() };
        let mut enc = StreamEncoder::new(Vec::new(), scheme, opts).expect("stream encoder");
        for piece in data.chunks(4_099) {
            enc.push(piece).expect("push");
        }
        let (streamed, stats) = enc.finish().expect("finish");
        assert_eq!(streamed, one_shot, "{name}: streamed bytes differ from one-shot");
        assert_eq!(stats.shards, data.len().div_ceil(SHARD), "{name}");

        // (2) Streaming decode reproduces the data.
        let mut dec = StreamDecoder::with_registry(1, registry.clone());
        let mut out = Vec::new();
        for piece in streamed.chunks(1_777) {
            dec.push(piece, &mut out).expect("stream decode push");
        }
        let dstats = dec.finish().expect("stream decode finish");
        assert_eq!(out, data, "{name}: stream decode mismatch");
        assert_eq!(dstats.scheme_id, format!("x:{name}"));

        // (3) Random access serves arbitrary ranges.
        let mut reader =
            ArcReader::open_with_registry(&streamed, 1, &registry).expect("reader open");
        assert!(reader.is_sharded(), "{name}");
        for (off, len) in [(0usize, 1usize), (SHARD - 10, 20), (123_456, 45_678), (199_999, 1)] {
            let (slice, _) = reader.decode_range(off, len).expect("range");
            assert_eq!(slice, &data[off..off + len], "{name}: range {off}+{len}");
        }

        // (4) One-shot registry decode agrees too.
        let (full, report) = decode_with_registry(&streamed, 1, &registry).expect("full decode");
        assert_eq!(full, data, "{name}");
        assert!(report.correction.is_clean(), "{name}");
    }
}

/// Flip one seeded bit in every 4 KiB of each shard's *data* bytes (v1: the
/// payload's data prefix, one synthetic shard). One flip per 4 KiB is one
/// per SEC-DED word, per BCH block and per RS codeword, so every scheme in
/// the table corrects all of them.
fn flip_data_bits(container: &mut [u8], seed: u64) -> usize {
    let u = arc_core::container::unpack(container).expect("clean container unpacks");
    let shards: Vec<(usize, usize)> = match &u.index {
        Some(index) => index.entries.iter().map(|e| (e.offset, e.decoded_len)).collect(),
        None => vec![(0, u.meta.data_len)],
    };
    let base = u.payload_offset;
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let mut flips = 0;
    for (offset, decoded_len) in shards {
        for stride in (0..decoded_len).step_by(4096) {
            let byte = stride + next() % (4096.min(decoded_len - stride));
            container[base + offset + byte] ^= 1 << (next() % 8);
            flips += 1;
        }
    }
    flips
}

/// Every decode surface agrees on every container shape: for {v1, v2} ×
/// {two built-ins, two extension families} with the same seeded correctable
/// flips, the one-shot, in-place, registry, full-range reader and streaming
/// (997-byte pushes) decodes return the same bytes and the same
/// `CorrectionReport`. The built-in-only surfaces (`decode_with_threads`,
/// `decode_in_place_with_threads`) have no registry, so on extension rows
/// they must refuse with `InvalidRequest` instead.
#[test]
fn every_decode_surface_agrees_on_bytes_and_report() {
    use arc_core::interface::{decode_in_place_with_threads, decode_with_threads};
    use arc_core::{arc_engine_encode, ArcError, Scheme};
    use arc_ecc::EccConfig;

    let registry = standard_extensions().expect("stock registry");
    let data = sample(100_000);
    let schemes = ["secded:64", "rs:223:32", "x:bch", "x:ileave-rs"];
    for (s, id) in schemes.iter().enumerate() {
        for sharded in [false, true] {
            let label = format!("{id} {}", if sharded { "v2" } else { "v1" });
            let scheme: Scheme = match id.strip_prefix("x:") {
                None => EccConfig::parse_id(id).unwrap().into(),
                Some(name) => registry.scheme(name).unwrap(),
            };
            let mut container = if sharded {
                arc_engine_encode_sharded(&data, scheme, 2, SHARD)
            } else {
                arc_engine_encode(&data, scheme, 2)
            }
            .expect("encode");
            let flips = flip_data_bits(&mut container, 0x9E37_79B9 + s as u64);
            assert!(flips >= 25, "{label}: {flips} flips");

            let (reference, report) =
                decode_with_registry(&container, 2, &registry).expect("registry decode");
            assert_eq!(reference, data, "{label}: registry decode");
            assert!(!report.correction.is_clean(), "{label}: flips went unnoticed");
            assert_eq!(report.index_repair.is_some(), sharded, "{label}");

            let builtin = !id.starts_with("x:");
            let one_shot = decode_with_threads(&container, 2);
            let mut owned = container.clone();
            let in_place = decode_in_place_with_threads(&mut owned, 2);
            if builtin {
                let (bytes, one_shot_report) = one_shot.expect("one-shot decode");
                assert_eq!(bytes, data, "{label}: one-shot bytes");
                assert_eq!(one_shot_report, report, "{label}: one-shot report");
                let (range, in_place_report) = in_place.expect("in-place decode");
                assert_eq!(&owned[range], &data[..], "{label}: in-place bytes");
                assert_eq!(in_place_report, report, "{label}: in-place report");
            } else {
                assert!(matches!(one_shot, Err(ArcError::InvalidRequest(_))), "{label}");
                assert!(matches!(in_place, Err(ArcError::InvalidRequest(_))), "{label}");
            }

            let mut reader =
                ArcReader::open_with_registry(&container, 2, &registry).expect("reader open");
            let (bytes, range_report) = reader.decode_range(0, data.len()).expect("full range");
            assert_eq!(bytes, data, "{label}: reader bytes");
            assert_eq!(range_report.correction, report.correction, "{label}: reader report");

            let mut dec = StreamDecoder::with_registry(2, registry.clone());
            let mut bytes = Vec::new();
            for piece in container.chunks(997) {
                dec.push(piece, &mut bytes).expect("stream push");
            }
            let stats = dec.finish().expect("stream finish");
            assert_eq!(bytes, data, "{label}: stream bytes");
            assert_eq!(stats.correction, report.correction, "{label}: stream report");
        }
    }
}
