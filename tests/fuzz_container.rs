//! Seeded-fuzz corruption tests for the container parser.
//!
//! Valid archives of every generation — v1 through v2.3 from the
//! committed fixtures (no writer emits them any more), v2.4 from the
//! fixture and the live writer under every codec — are mutated: random
//! single/multi byte flips and truncations at random offsets, and fed to
//! the decoder. The trailer (index behind the blobs, length-suffixed)
//! also gets targeted corruptions: truncated trailers, trailer lengths
//! pointing outside the archive, and index extents overrunning the blob
//! region. The invariants:
//!
//! * the decoder must **never panic** (these tests run the mutated input
//!   in-process, so any panic fails the test);
//! * every **truncation** must return `Err` — all sections and chunk
//!   blobs are length-prefixed, so a shorter buffer is always detectable;
//! * a byte **flip** must either return `Err` or decode to a field of the
//!   header's shape (without checksums a flip inside an entropy payload
//!   can decode "successfully" to wrong data, so `Ok` is not itself a
//!   failure — but an `Ok` with inconsistent structure would be);
//! * the inspection functions and the readers share one index parser, so
//!   on every input they **agree** on whether it is an archive and on its
//!   chunk table.
//!
//! Mutations use a fixed xorshift stream, so failures reproduce exactly.
//! A small shape cap guards the one legitimate hazard: a flipped header
//! can describe an enormous (but structurally valid) field, and a fuzz
//! loop should not be at the mercy of such an allocation.

mod frozen_kernels;

use rqm::compress_crate::DecompressError;
use rqm::prelude::*;
use std::io::Cursor;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A mixed field whose adaptive compression genuinely splits codecs
/// across chunks, so the v2.4 fuzz archives cover every blob parser.
fn mixed_field() -> NdArray<f32> {
    rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(16, 10, 10), 8, 30.0)
}

const GOLDEN_V1: &[u8] = include_bytes!("data/golden_v1.rqc");
const GOLDEN_V2: &[u8] = include_bytes!("data/golden_v2.rqc");
const GOLDEN_V21: &[u8] = include_bytes!("data/golden_v21.rqc");
const GOLDEN_V22: &[u8] = include_bytes!("data/golden_v22.rqc");
const GOLDEN_V23: &[u8] = include_bytes!("data/golden_v23.rqc");
const GOLDEN_V24: &[u8] = include_bytes!("data/golden_v24.rqc");

/// The per-chunk plan baked into `golden_v23.rqc`.
const GOLDEN_V23_PLAN: [f64; 4] = [2e-3, 1e-4, 5e-4, 5e-5];

/// The archives under test: generations 1–5 from the committed fixtures,
/// generation 6 from its fixture and from the live writer — fixed sz
/// (interpolation), zfp and rolz, and the three-way adaptive archive with
/// a real codec split.
fn valid_archives() -> Vec<(&'static str, Vec<u8>)> {
    let field = mixed_field();
    let live = |cfg: CompressorConfig| {
        let bytes = compress(&field, &cfg).unwrap().bytes;
        assert_eq!(rqm::compress_crate::peek_header(&bytes).unwrap().version, 6);
        bytes
    };
    let lorenzo = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4));
    vec![
        ("v1", GOLDEN_V1.to_vec()),
        ("v2", GOLDEN_V2.to_vec()),
        ("v2.1", GOLDEN_V21.to_vec()),
        ("v2.2", GOLDEN_V22.to_vec()),
        ("v2.3", GOLDEN_V23.to_vec()),
        ("v2.4", GOLDEN_V24.to_vec()),
        ("live serial", live(lorenzo)),
        (
            "live sz",
            live(
                CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3))
                    .chunked(5),
            ),
        ),
        ("live zfp", live(lorenzo.chunked(4).with_codec(CodecChoice::Zfp))),
        ("live rolz", live(lorenzo.chunked(4).with_codec(CodecChoice::Rolz))),
        ("live auto", planned_v24(&field)),
    ]
}

/// Mutation cases for one archive of [`valid_archives`]. The read-only
/// generations exist only as fixtures, so each fixture gets the full
/// count; the five live archives are variants of the one written
/// generation and get two fifths of it each.
fn cases(name: &str, full: usize) -> usize {
    if name.starts_with("live") {
        full * 2 / 5
    } else {
        full
    }
}

/// The heterogeneous per-chunk plan behind the live planned fuzz archive
/// (16-row field in 4-row chunks).
const LIVE_FUZZ_PLAN: [f64; 4] = [1e-3, 1e-4, 2e-4, 5e-5];

/// A v2.4 archive of `field` through the planned streaming writer with
/// the three-way adaptive codec: the fixture must genuinely mix sz and
/// rolz chunks so fuzzing reaches the ROLZ blob parser in situ.
fn planned_v24(field: &NdArray<f32>) -> Vec<u8> {
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
        .chunked(4)
        .with_codec(CodecChoice::Auto)
        .with_threads(2);
    let mut w = rqm::compress_crate::ArchiveWriter::<f32, Vec<u8>>::create_planned(
        Vec::new(),
        field.shape(),
        &cfg,
        LIVE_FUZZ_PLAN.to_vec(),
    )
    .unwrap();
    w.write_slab(field).unwrap();
    let bytes = w.finalize().unwrap().sink;
    assert_eq!(rqm::compress_crate::peek_header(&bytes).unwrap().version, 6);
    let codecs: Vec<ChunkCodecKind> =
        chunk_table(&bytes).unwrap().entries.iter().map(|e| e.codec).collect();
    assert!(
        codecs.contains(&ChunkCodecKind::Sz) && codecs.contains(&ChunkCodecKind::Rolz),
        "v2.4 fuzz fixture must mix sz and rolz chunks, got {codecs:?}"
    );
    bytes
}

/// Decode a possibly-corrupt buffer, skipping only absurd decompressed
/// sizes a flipped header might demand (a fuzz-loop resource guard, not a
/// decoder requirement).
fn try_decode(bytes: &[u8]) -> Option<Result<NdArray<f32>, String>> {
    const MAX_FUZZ_ELEMS: usize = 1 << 22;
    match rqm::compress_crate::peek_header(bytes) {
        Err(e) => return Some(Err(e.to_string())),
        Ok(h) if h.shape.len() > MAX_FUZZ_ELEMS => return None,
        Ok(_) => {}
    }
    Some(decompress::<f32>(bytes).map_err(|e| e.to_string()))
}

#[test]
fn random_byte_flips_never_panic() {
    let mut rng = Rng(0x5EED_0001);
    for (name, bytes) in &valid_archives() {
        for case in 0..cases(name, 400) {
            let mut mutated = bytes.clone();
            // 1–4 byte flips per case, anywhere in the archive.
            for _ in 0..(1 + rng.below(4)) {
                let pos = rng.below(mutated.len());
                let bit = rng.below(8);
                mutated[pos] ^= 1 << bit;
            }
            if let Some(Ok(decoded)) = try_decode(&mutated) {
                // Undetected corruption must still produce a structurally
                // consistent result.
                if let Ok(h) = rqm::compress_crate::peek_header(&mutated) {
                    assert_eq!(
                        decoded.len(),
                        h.shape.len(),
                        "{name} case {case}: Ok result inconsistent with header"
                    );
                }
            }
        }
    }
}

#[test]
fn random_overwrites_never_panic() {
    // Whole-byte garbage (not just single-bit flips) hits varint
    // continuation bits and tag bytes harder.
    let mut rng = Rng(0x5EED_0002);
    for (name, bytes) in &valid_archives() {
        for _case in 0..cases(name, 300) {
            let mut mutated = bytes.clone();
            let start = rng.below(mutated.len());
            let span = 1 + rng.below(8).min(mutated.len() - start - 1);
            for b in &mut mutated[start..start + span] {
                *b = rng.next() as u8;
            }
            let _ = try_decode(&mutated);
        }
    }
}

#[test]
fn truncations_always_error() {
    let mut rng = Rng(0x5EED_0003);
    for (name, bytes) in &valid_archives() {
        // Every short prefix length is an error; sample densely plus the
        // boundary cases.
        for case in 0..cases(name, 300) {
            let cut = match case {
                0 => 0,
                1 => 1,
                2 => bytes.len() - 1,
                _ => rng.below(bytes.len()),
            };
            if let Some(Ok(_)) = try_decode(&bytes[..cut]) {
                panic!("{name}: truncation to {cut} bytes decoded Ok");
            }
        }
    }
}

#[test]
fn flips_in_header_and_index_error_or_stay_consistent() {
    // Concentrate mutations on the first 64 bytes (header + chunk index),
    // where parsing logic, not entropy decoding, is on trial.
    let mut rng = Rng(0x5EED_0004);
    for (name, bytes) in &valid_archives() {
        let zone = bytes.len().min(64);
        for case in 0..cases(name, 500) {
            let mut mutated = bytes.clone();
            let pos = rng.below(zone);
            mutated[pos] ^= 1 << rng.below(8);
            if let Some(Ok(decoded)) = try_decode(&mutated) {
                if let Ok(h) = rqm::compress_crate::peek_header(&mutated) {
                    assert_eq!(
                        decoded.len(),
                        h.shape.len(),
                        "{name} case {case} at byte {pos}"
                    );
                }
            }
        }
    }
}

#[test]
fn v2_2_trailer_targeted_corruptions() {
    // The v2.2 fixture and a live (v2.4) archive: the trailer locating
    // rules are the same in every trailer generation.
    let live = compress(
        &mixed_field(),
        &CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(4)
            .with_codec(CodecChoice::Zfp),
    )
    .unwrap()
    .bytes;
    trailer_targeted_corruptions(GOLDEN_V22.to_vec());
    trailer_targeted_corruptions(live);
}

fn trailer_targeted_corruptions(bytes: Vec<u8>) {
    let n = bytes.len();

    // Any truncation eating into the trailer/suffix must error: the
    // archive is only complete once the closing magic is in place.
    for cut in 1..40.min(n) {
        assert!(
            try_decode(&bytes[..n - cut]).unwrap().is_err(),
            "trailer truncated by {cut} bytes decoded Ok"
        );
    }

    // Trailer length pointing past EOF / before the header / just off by
    // one: all must error, never panic or mis-slice.
    for evil_len in [u64::MAX, n as u64, n as u64 - 1, 0, 1] {
        let mut m = bytes.clone();
        m[n - 12..n - 4].copy_from_slice(&evil_len.to_le_bytes());
        assert!(
            try_decode(&m).unwrap().is_err(),
            "trailer_len={evil_len} decoded Ok"
        );
    }

    // Every single-bit flip inside the trailer region (index body +
    // length + magic) must error or decode consistently.
    let tlen = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    let tstart = n - 12 - tlen;
    let mut rng = Rng(0x5EED_0022);
    for case in 0..400 {
        let mut m = bytes.clone();
        let pos = tstart + rng.below(n - tstart);
        m[pos] ^= 1 << rng.below(8);
        if let Some(Ok(decoded)) = try_decode(&m) {
            if let Ok(h) = rqm::compress_crate::peek_header(&m) {
                assert_eq!(
                    decoded.len(),
                    h.shape.len(),
                    "case {case} at byte {pos}: Ok result inconsistent with header"
                );
            }
        }
    }

    // Index extents overrunning the blob region: chop one byte out of the
    // blob region while keeping the trailer intact — the chunk lengths no
    // longer tile the header→trailer span.
    let mut m = Vec::with_capacity(n - 1);
    m.extend_from_slice(&bytes[..tstart - 1]);
    m.extend_from_slice(&bytes[tstart..]);
    assert!(try_decode(&m).unwrap().is_err(), "blob region shrunk under the index decoded Ok");
}

#[test]
fn v2_3_per_chunk_eb_targeted_corruptions() {
    // The per-chunk bounds live as raw f64s in the trailer index; every
    // way of poisoning them — NaN/inf bit patterns, sign flips, zeroing,
    // truncating an index row — must produce a DecompressError, never a
    // panic and never a "successful" decode under a garbage bound. Same
    // entry layout in the v2.3 fixture and in live (v2.4) archives.
    per_chunk_eb_targeted_corruptions(GOLDEN_V23.to_vec(), &GOLDEN_V23_PLAN);
    per_chunk_eb_targeted_corruptions(planned_v24(&mixed_field()), &LIVE_FUZZ_PLAN);
}

fn per_chunk_eb_targeted_corruptions(bytes: Vec<u8>, plan: &[f64; 4]) {
    let n = bytes.len();
    let tlen = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    let tstart = n - 12 - tlen;
    let trailer = &bytes[tstart..n - 12];

    // Locate each planned bound inside the trailer by its exact f64 LE
    // byte pattern (the plan values are fixture constants).
    let eb_offsets: Vec<usize> = plan
        .iter()
        .map(|eb| {
            let pat = eb.to_le_bytes();
            let at = trailer
                .windows(8)
                .position(|w| w == pat)
                .unwrap_or_else(|| panic!("bound {eb} not found in trailer"));
            tstart + at
        })
        .collect();

    for (&off, &eb) in eb_offsets.iter().zip(plan) {
        for evil in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -eb,
            f64::from_bits(u64::MAX), // all-ones: a quiet-NaN pattern
            f64::from_bits(1),        // subnormal ≈ 5e-324: positive but pathological
        ] {
            let mut m = bytes.clone();
            m[off..off + 8].copy_from_slice(&evil.to_le_bytes());
            let r = try_decode(&m).expect("header stays parseable");
            if evil.is_finite() && evil > 0.0 {
                // A subnormal bound is structurally valid; decoding may
                // succeed or fail, but it must stay consistent and must
                // not panic (the round-trip under the real bound is
                // obviously gone — that is the flip-inside-payload case).
                let _ = r;
            } else {
                assert!(
                    r.is_err(),
                    "eb at {off} set to {evil}: decoded Ok under a garbage bound"
                );
            }
        }
    }

    // Truncated index row: drop the last entry's 8-byte bound from the
    // trailer body (fixing trailer_len so the suffix still parses) — the
    // index body no longer fills the trailer exactly.
    let mut m = Vec::with_capacity(n - 8);
    m.extend_from_slice(&bytes[..n - 12 - 8]);
    m.extend_from_slice(&((tlen - 8) as u64).to_le_bytes());
    m.extend_from_slice(b"RQIX");
    assert!(
        try_decode(&m).unwrap().is_err(),
        "index row truncated by one bound decoded Ok"
    );

    // A bound-carrying header over a v2.2-sized (bound-less) trailer:
    // every entry's parse must fail or mis-tile, never silently default
    // the bounds.
    let mut m = bytes.clone();
    // Shrink trailer_len by the 4 bounds (32 bytes) without rewriting the
    // body: the remaining body cannot parse into 4 complete entries.
    m[n - 12..n - 4].copy_from_slice(&((tlen - 32) as u64).to_le_bytes());
    assert!(try_decode(&m).unwrap().is_err());

    // The streaming reader agrees with the in-memory one on all of it.
    let good = rqm::compress_crate::ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
    assert!(good.read_all::<f32>().is_ok());
    let mut m = bytes.clone();
    m[eb_offsets[0]..eb_offsets[0] + 8].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(rqm::compress_crate::ArchiveReader::open(Cursor::new(&m[..])).is_err());
}

#[test]
fn archive_reader_never_panics_on_mutations() {
    // The streaming reader (seek/read paths, lazy index) gets the same
    // hostile inputs as the in-memory one — at 1 and 4 decode threads,
    // so corruption surfacing inside a decode worker propagates as a
    // typed error through the pool, never as a panic, abort, or hang.
    let mut rng = Rng(0x5EED_0023);
    for (name, bytes) in &valid_archives() {
        for case in 0..cases(name, 200) {
            let mut m = bytes.clone();
            let pos = rng.below(m.len());
            m[pos] ^= 1 << rng.below(8);
            if let Ok(h) = rqm::compress_crate::peek_header(&m) {
                if h.shape.len() > 1 << 22 {
                    continue; // same allocation guard as try_decode
                }
            }
            // threads=1 decodes inline on the caller, threads=4 runs the
            // one worker pool: each worker fetches its own blobs under the
            // source lock, and corrupt blobs hit its window of 8 chunks
            // mid-backpressure.
            let threads = if case % 2 == 0 { 1 } else { 4 };
            if let Ok(r) = rqm::compress_crate::ArchiveReader::open(Cursor::new(&m[..])) {
                let r = r.with_threads_exact(threads);
                let _ = r.read_all::<f32>();
                let _ = r.read_rows::<f32>(0..1);
                let _ = r.decompress_to_writer::<f32, _>(&mut std::io::sink());
            }
        }
        for case in 0..cases(name, 100) {
            let cut = rng.below(bytes.len());
            let threads = if case % 2 == 0 { 1 } else { 4 };
            if let Ok(r) = rqm::compress_crate::ArchiveReader::open(Cursor::new(&bytes[..cut]))
            {
                let r = r.with_threads_exact(threads);
                assert!(
                    r.read_all::<f32>().is_err(),
                    "truncation to {cut} bytes read_all Ok at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn parallel_decode_corruptions_error_at_every_thread_count() {
    // The targeted trailer corruptions — truncated trailer, index
    // extents overrunning the blob region, poisoned per-chunk bounds —
    // through the multi-threaded streaming decode paths. Every case must
    // produce a typed `DecompressError` at 1 and 4 threads: no panic, no
    // abort, no hang, and identical accept/reject decisions across
    // thread counts.
    let try_streaming = |bytes: &[u8], threads: usize| -> Result<(), String> {
        let r = rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes))
            .map_err(|e| e.to_string())?;
        let r = r.with_threads_exact(threads);
        r.decompress_to_writer::<f32, _>(&mut std::io::sink())
            .map(|_| ())
            .map_err(|e| e.to_string())?;
        Ok(())
    };

    for (name, bytes) in [
        ("v2.2", GOLDEN_V22.to_vec()),
        ("v2.3", GOLDEN_V23.to_vec()),
        ("v2.4", planned_v24(&mixed_field())),
    ] {
        let n = bytes.len();
        let tlen = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
        let tstart = n - 12 - tlen;
        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        // Trailer truncations.
        for cut in [1usize, 5, 12, 13, tlen + 12] {
            cases.push((format!("{name} truncated by {cut}"), bytes[..n - cut].to_vec()));
        }
        // Trailer length pointing outside the archive.
        for evil_len in [u64::MAX, n as u64, 0] {
            let mut m = bytes.clone();
            m[n - 12..n - 4].copy_from_slice(&evil_len.to_le_bytes());
            cases.push((format!("{name} trailer_len={evil_len}"), m));
        }
        // Blob region shrunk under the index (extents overrun).
        let mut m = Vec::with_capacity(n - 1);
        m.extend_from_slice(&bytes[..tstart - 1]);
        m.extend_from_slice(&bytes[tstart..]);
        cases.push((format!("{name} blob region shrunk"), m));
        if name != "v2.2" {
            // Poisoned per-chunk bound (NaN bit pattern in the index;
            // v2.3 and v2.4 both carry per-chunk bounds, and both plans
            // give chunk 1 the bound 1e-4).
            let pat = 1e-4f64.to_le_bytes();
            let at = bytes[tstart..n - 12]
                .windows(8)
                .position(|w| w == pat)
                .expect("plan bound in trailer")
                + tstart;
            let mut m = bytes.clone();
            m[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
            cases.push((format!("{name} NaN per-chunk eb"), m));
        }
        // 1 = inline on the caller, 4 = the worker pool.
        for (case, mutated) in cases {
            for threads in [1usize, 4] {
                assert!(
                    try_streaming(&mutated, threads).is_err(),
                    "{case}: decoded Ok at {threads} threads"
                );
            }
        }
        // Payload corruption deep inside a blob: surfaces from a decode
        // *worker* (not the index parse) and must come back as an error
        // or a consistent decode, identically at 1 and 4 threads.
        let mut rng = Rng(0x5EED_0024);
        for _ in 0..60 {
            let mut m = bytes.clone();
            let blob_zone = tstart.saturating_sub(40).max(40);
            let pos = 40 + rng.below(blob_zone - 40);
            for b in &mut m[pos..(pos + 4).min(tstart)] {
                *b = rng.next() as u8;
            }
            let serial = try_streaming(&m, 1);
            let parallel = try_streaming(&m, 4);
            assert_eq!(serial, parallel, "{name} at byte {pos}: results differ across threads");
        }
    }
}

#[test]
fn rolz_blob_mutations_error_identically_at_thread_counts() {
    // Mutation and truncation loops aimed squarely at the ROLZ chunk
    // blobs of a v2.4 archive: every hostile input must come back as a
    // typed `DecompressError` or a consistent decode — never a panic —
    // and the accept/reject decision must be identical at 1 and 4 decode
    // threads and on the in-memory reader.
    let bytes = planned_v24(&mixed_field());
    let table = chunk_table(&bytes).unwrap();
    let rolz_entries: Vec<_> = table
        .entries
        .iter()
        .filter(|e| e.codec == ChunkCodecKind::Rolz)
        .collect();
    assert!(!rolz_entries.is_empty());
    let try_streaming = |bytes: &[u8], threads: usize| -> bool {
        match rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes)) {
            Err(_) => false,
            Ok(r) => r
                .with_threads_exact(threads)
                .decompress_to_writer::<f32, _>(&mut std::io::sink())
                .is_ok(),
        }
    };
    let mut rng = Rng(0x5EED_0B03);
    for entry in &rolz_entries {
        // Byte flips and whole-byte garbage anywhere inside the blob: the
        // varint preamble, the token Huffman codebook, the token payload,
        // the length bytes and the raw-literal section all get hit.
        for case in 0..120 {
            let mut m = bytes.clone();
            let pos = entry.offset + rng.below(entry.len);
            if case % 2 == 0 {
                m[pos] ^= 1 << rng.below(8);
            } else {
                let span = (1 + rng.below(6)).min(entry.offset + entry.len - pos);
                for b in &mut m[pos..pos + span] {
                    *b = rng.next() as u8;
                }
            }
            let serial = try_streaming(&m, 1);
            let parallel = try_streaming(&m, 4);
            assert_eq!(
                serial, parallel,
                "rolz blob at {} byte {pos}: accept/reject differs across thread counts",
                entry.offset
            );
            if let Some(r) = try_decode(&m) {
                assert_eq!(r.is_ok(), serial, "in-memory vs streaming disagree at byte {pos}");
            }
        }
        // Every truncation of the archive that cuts inside this blob must
        // be rejected (the trailer is gone, so the container is short).
        for _ in 0..40 {
            let cut = entry.offset + rng.below(entry.len);
            if let Some(Ok(_)) = try_decode(&bytes[..cut]) {
                panic!("truncation inside rolz blob at {cut} decoded Ok");
            }
            assert!(
                !try_streaming(&bytes[..cut], 1) && !try_streaming(&bytes[..cut], 4),
                "streaming decode of truncation at {cut} succeeded"
            );
        }
    }
}

/// `chunk_count`, `chunk_table` and `ArchiveReader::open` on one input:
/// all reject it, or all accept it with the same chunk table.
fn assert_parsers_agree(what: &str, bytes: &[u8]) {
    let opened = rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes));
    match (chunk_count(bytes), opened) {
        (Ok(n), Ok(reader)) => {
            assert_eq!(reader.n_chunks(), n, "{what}: chunk counts differ");
            let table = chunk_table(bytes).expect("chunk_count accepted it");
            assert_eq!(&table.entries[..], reader.entries(), "{what}: chunk tables differ");
            assert_eq!(table.chunk_rows, reader.chunk_rows(), "{what}");
        }
        (Err(_), Err(_)) => assert!(chunk_table(bytes).is_err(), "{what}: chunk_table alone Ok"),
        (count, opened) => panic!(
            "{what}: chunk_count {:?} but ArchiveReader::open {:?}",
            count,
            opened.map(|r| r.n_chunks())
        ),
    }
}

#[test]
fn inspection_and_readers_agree_on_every_mutation() {
    // For every mutated or truncated archive of every generation:
    // `chunk_count(bytes)` is `Ok(n)` ⇔ `ArchiveReader::open` is `Ok` with
    // `n_chunks() == n`, and then the chunk tables are equal.
    let mut rng = Rng(0x5EED_0025);
    for (name, bytes) in &valid_archives() {
        assert_parsers_agree(name, bytes);
        // Flips concentrated where the header and an inline index live,
        // and where a trailer lives; then anywhere.
        let n = bytes.len();
        for case in 0..300 {
            let mut m = bytes.clone();
            let pos = match case % 3 {
                0 => rng.below(n.min(64)),
                1 => n - 1 - rng.below(n.min(64)),
                _ => rng.below(n),
            };
            if case % 2 == 0 {
                m[pos] ^= 1 << rng.below(8);
            } else {
                m[pos] = rng.next() as u8;
            }
            assert_parsers_agree(&format!("{name} case {case} byte {pos}"), &m);
        }
        for _ in 0..100 {
            let cut = rng.below(n);
            assert_parsers_agree(&format!("{name} cut {cut}"), &bytes[..cut]);
        }
    }
}

#[test]
fn chunk_count_beyond_axis_0_is_the_same_corruption_everywhere() {
    // The v2 fixture (16 rows in 4 chunks) with its inline index claiming
    // 17 chunks — one more than axis 0 has rows. `chunk_count` used to
    // read just the two leading varints and answer `Ok(17)` while every
    // decoder rejected the archive.
    // The index follows the 23-byte header (9 fixed bytes, three 1-byte
    // dims, the f64 bound, a 3-byte radius varint): chunk_rows, n_chunks,
    // then the first entry's rows.
    let index_at = 23;
    assert_eq!(&GOLDEN_V2[index_at..index_at + 3], &[4, 4, 4]);
    let mut evil = GOLDEN_V2.to_vec();
    evil[index_at + 1] = 17;
    let bad_count = |e: DecompressError| {
        assert!(matches!(e, DecompressError::Corrupt("bad chunk count")), "got {e:?}")
    };
    bad_count(chunk_count(&evil).unwrap_err());
    bad_count(chunk_table(&evil).unwrap_err());
    bad_count(decompress::<f32>(&evil).unwrap_err());
    bad_count(decompress_chunk::<f32>(&evil, 0).unwrap_err());
    bad_count(rqm::compress_crate::ArchiveReader::open(Cursor::new(&evil[..])).err().unwrap());
    bad_count(ConcurrentReader::open(Cursor::new(&evil[..])).err().unwrap());
}

// ---------------------------------------------------------------------------
// RQCAT catalog-index corruption
// ---------------------------------------------------------------------------

/// A small two-dataset catalog (f32 cadence-2 + f64 cadence-1).
fn valid_catalog() -> Vec<u8> {
    use rqm::catalog::CatalogWriter;
    let steps: Vec<NdArray<f32>> = (0..4)
        .map(|t| {
            NdArray::from_fn(Shape::d2(12, 10), |ix| {
                ((ix[0] * 3 + ix[1]) as f32 * 0.17 + t as f32 * 0.05).sin()
            })
        })
        .collect();
    let steps64: Vec<NdArray<f64>> = steps
        .iter()
        .map(|s| {
            NdArray::from_vec(s.shape(), s.as_slice().iter().map(|&v| v as f64).collect())
        })
        .collect();
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(5);
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("a", &cfg, 2, &steps).unwrap();
    w.write_dataset("b", &cfg, 1, &steps64[..2]).unwrap();
    w.finalize().unwrap().sink
}

/// Open a possibly-corrupt catalog and decode every step of every
/// dataset; returns `Err` on the first typed failure. Any panic fails
/// the calling test.
fn try_catalog(bytes: &[u8]) -> Result<(), String> {
    use rqm::catalog::CatalogReader;
    let r = CatalogReader::open(std::io::Cursor::new(bytes)).map_err(|e| e.to_string())?;
    let plan: Vec<(String, u8, usize)> = r
        .datasets()
        .iter()
        .map(|d| (d.name.clone(), d.scalar_tag, d.n_steps()))
        .collect();
    for (name, tag, n) in plan {
        for t in 0..n {
            match tag {
                0x04 => drop(r.read_step::<f32>(&name, t).map_err(|e| e.to_string())?),
                _ => drop(r.read_step::<f64>(&name, t).map_err(|e| e.to_string())?),
            }
        }
    }
    Ok(())
}

#[test]
fn catalog_byte_flips_never_panic() {
    let bytes = valid_catalog();
    let mut rng = Rng(0x5EED_0C01);
    for _case in 0..400 {
        let mut m = bytes.clone();
        for _ in 0..(1 + rng.below(4)) {
            let pos = rng.below(m.len());
            m[pos] ^= 1 << rng.below(8);
        }
        // Typed error or a (possibly wrong) decode — never a panic.
        let _ = try_catalog(&m);
    }
}

/// One `read_step` on `r`: the little-endian bytes of the step, or the
/// error text.
fn catalog_read(
    r: &rqm::catalog::CatalogReader<Cursor<&[u8]>>,
    name: &str,
    tag: u8,
    t: usize,
) -> Result<Vec<u8>, String> {
    use rqm::grid::Scalar;
    fn le_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        values.iter().for_each(|&v| v.write_le(&mut out));
        out
    }
    match tag {
        0x04 => r.read_step::<f32>(name, t).map(|f| le_bytes(f.as_slice())),
        _ => r.read_step::<f64>(name, t).map(|f| le_bytes(f.as_slice())),
    }
    .map_err(|e| e.to_string())
}

#[test]
fn catalog_reads_on_one_reader_match_fresh_reads() {
    // A reader resumes a step from the one it last reconstructed. On a
    // mutated catalog, a sequence of reads on one reader — random steps and
    // forward runs — must give, op for op, what each read gives on a
    // reader opened for it alone: the same bytes or the same error.
    use rqm::catalog::CatalogReader;
    let bytes = valid_catalog();
    let mut rng = Rng(0x5EED_0C04);
    for case in 0..300 {
        let mut m = bytes.clone();
        for _ in 0..(1 + rng.below(3)) {
            let pos = rng.below(m.len());
            m[pos] ^= 1 << rng.below(8);
        }
        let Ok(r) = CatalogReader::open(Cursor::new(&m[..])) else { continue };
        let plan: Vec<(String, u8, usize)> = r
            .datasets()
            .iter()
            .map(|d| (d.name.clone(), d.scalar_tag, d.n_steps()))
            .collect();
        if plan.iter().any(|&(_, _, n)| n == 0) || plan.is_empty() {
            continue;
        }
        let (mut d, mut t) = (0, 0);
        for op in 0..12 {
            // Half the reads go on to the next step of the last dataset.
            if op == 0 || rng.below(2) == 0 || t + 1 >= plan[d].2 {
                d = rng.below(plan.len());
                t = rng.below(plan[d].2);
            } else {
                t += 1;
            }
            let (name, tag, _) = &plan[d];
            let fresh = CatalogReader::open(Cursor::new(&m[..])).unwrap();
            assert!(
                catalog_read(&r, name, *tag, t) == catalog_read(&fresh, name, *tag, t),
                "case {case} op {op}: {name} step {t} differs from a fresh read"
            );
        }
    }
}

#[test]
fn catalog_truncations_always_error() {
    let bytes = valid_catalog();
    let mut rng = Rng(0x5EED_0C02);
    for case in 0..300 {
        let cut = match case {
            0 => 0,
            1 => 5,      // magic only, no version byte
            2 => 6,      // preamble only
            3 => bytes.len() - 1,
            _ => rng.below(bytes.len()),
        };
        assert!(
            try_catalog(&bytes[..cut]).is_err(),
            "catalog truncated to {cut} bytes decoded Ok"
        );
    }
}

#[test]
fn catalog_trailer_targeted_corruptions() {
    let bytes = valid_catalog();
    let n = bytes.len();
    let tlen = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    let tstart = n - 12 - tlen;

    // Body length pointing past EOF / overlapping the preamble / off by
    // one: every value must produce a typed error, never a mis-slice.
    for evil_len in [u64::MAX, n as u64, (n - 12) as u64, tlen as u64 + 1, 0, 1] {
        let mut m = bytes.clone();
        m[n - 12..n - 4].copy_from_slice(&evil_len.to_le_bytes());
        assert!(try_catalog(&m).is_err(), "trailer_len={evil_len} decoded Ok");
    }

    // A wrong closing magic must be rejected outright.
    let mut m = bytes.clone();
    m[n - 4..].copy_from_slice(b"XQCX");
    assert!(try_catalog(&m).is_err(), "bad trailer magic decoded Ok");

    // Every single-bit flip inside the trailer region must error or
    // decode without panicking (step offsets/lens are range-checked
    // against the data region at parse time).
    let mut rng = Rng(0x5EED_0C03);
    for _case in 0..500 {
        let mut m = bytes.clone();
        let pos = tstart + rng.below(n - tstart);
        m[pos] ^= 1 << rng.below(8);
        let _ = try_catalog(&m);
    }

    // Shrink the segment region under an intact index: the recorded step
    // extents dangle past the data end and must be rejected at parse.
    let mut m = Vec::with_capacity(n - 1);
    m.extend_from_slice(&bytes[..tstart - 1]);
    m.extend_from_slice(&bytes[tstart..]);
    // (the suffix still says tlen, which is true — only data moved)
    assert!(try_catalog(&m).is_err(), "segment region shrunk under the index decoded Ok");
}

#[test]
fn catalog_dangling_keyframe_refs_error() {
    use rqm::catalog::CatalogReader;
    let bytes = valid_catalog();
    let n = bytes.len();
    let tlen = u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize;
    let tstart = n - 12 - tlen;

    // Dataset "a" (cadence 2, 4 steps) has keyframe flags [1,0,1,0]. The
    // per-step flag byte is the first byte of each step record; find the
    // first step's record by scanning for a flags byte of 1 followed by a
    // plausible varint offset — instead of hand-decoding, flip *every*
    // trailer byte equal to 0x01 one at a time and require that whenever
    // the index still parses, dataset "a" step 0 is still flagged as a
    // keyframe (the parser must reject any index whose first step is a
    // delta with no keyframe to hang off).
    let mut any_rejected = false;
    for pos in tstart..n - 12 {
        if bytes[pos] != 0x01 {
            continue;
        }
        let mut m = bytes.clone();
        m[pos] = 0x00;
        match CatalogReader::open(std::io::Cursor::new(&m[..])) {
            Err(_) => any_rejected = true,
            Ok(r) => {
                for d in r.datasets() {
                    assert!(
                        d.steps[0].keyframe,
                        "byte {pos}: parser accepted an index whose first step dangles"
                    );
                }
            }
        }
    }
    assert!(
        any_rejected,
        "no flag byte mutation was rejected — the keyframe-anchor check never fired"
    );
}

// ---------------------------------------------------------------------------
// Entropy-layer targeted corruption (the table-driven codec kernels)
// ---------------------------------------------------------------------------

#[test]
fn huffman_codebook_targeted_corruptions() {
    use frozen_kernels::CanonicalCode;
    use rqm::encoding::huffman::{HuffmanCodec, HuffmanError};
    use rqm::encoding::varint::put_uvarint;

    // A serialized codebook of the shape real streams produce.
    let mut hist = vec![0u64; 300];
    let mut rng = Rng(0x5EED_0B01);
    for _ in 0..4096 {
        hist[rng.below(300)] += 1;
    }
    let codec = HuffmanCodec::from_counts(&hist).unwrap();
    let book = codec.serialize_codebook();

    // Every truncation of the codebook must be a typed error.
    for cut in 0..book.len() {
        assert!(
            HuffmanCodec::deserialize_codebook(&book[..cut]).is_err(),
            "codebook truncated to {cut} bytes parsed Ok"
        );
    }

    // Hand-built hostile length tables.
    let serialize_lengths = |lengths: &[u64]| -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, lengths.len() as u64);
        for &l in lengths {
            put_uvarint(&mut out, l);
            if l == 0 {
                put_uvarint(&mut out, 1); // run of one zero
            }
        }
        out
    };

    // Over-long code length (> MAX_CODE_LEN).
    for evil in [33u64, 64, 255, u64::MAX] {
        let bytes = serialize_lengths(&[2, evil, 2]);
        assert_eq!(
            HuffmanCodec::deserialize_codebook(&bytes).unwrap_err(),
            HuffmanError::Corrupt("code length too large"),
            "length {evil}"
        );
    }

    // Oversubscribed length sets: canonical code assignment would overflow
    // and the flat table's slot ranges would collide / index past the end.
    for evil in [vec![1u64, 1, 1], vec![1, 1, 2], vec![1, 2, 2, 2], vec![11u64; 2100]] {
        let bytes = serialize_lengths(&evil);
        assert_eq!(
            HuffmanCodec::deserialize_codebook(&bytes).unwrap_err(),
            HuffmanError::Corrupt("oversubscribed codebook"),
            "lengths {evil:?}"
        );
    }

    // A maximum-depth book (lengths 1..=32, Kraft-complete): parses, and
    // the flat-table decoder with its long-code fallback agrees with the
    // frozen bit-at-a-time decoder on every payload — valid, truncated, or
    // garbage.
    let mut deep: Vec<u64> = (1..=31).collect();
    deep.extend([32u64, 32]);
    let deep_bytes = serialize_lengths(&deep);
    let (deep_codec, _) = HuffmanCodec::deserialize_codebook(&deep_bytes).expect("max-depth book");
    let deep_frozen = CanonicalCode::of(&deep_codec);
    let symbols: Vec<u32> = (0..deep.len() as u32).rev().collect();
    let payload = deep_codec.encode(&symbols).unwrap();
    assert_eq!(deep_codec.decode(&payload, symbols.len()).unwrap(), symbols);
    for cut in 0..payload.len() {
        assert_eq!(
            deep_codec.decode(&payload[..cut], symbols.len()).is_ok(),
            deep_frozen.decode(&payload[..cut], symbols.len()).is_some(),
            "max-depth payload cut {cut}"
        );
    }
    for case in 0..200 {
        let garbage: Vec<u8> = (0..rng.below(24)).map(|_| rng.next() as u8).collect();
        let n = 1 + rng.below(16);
        assert_eq!(deep_codec.decode(&garbage, n).ok(), deep_frozen.decode(&garbage, n), "case {case}");
    }

    // Undersubscribed book with a reachable unassigned prefix: lengths
    // [2, 2, 2] leave prefix 0b11 unmapped; an all-ones payload must be a
    // typed error on both decoders, never a bogus symbol.
    let under = serialize_lengths(&[2u64, 2, 2]);
    let (under_codec, _) = HuffmanCodec::deserialize_codebook(&under).expect("undersubscribed");
    assert!(under_codec.decode(&[0xFF, 0xFF], 1).is_err());
    assert!(CanonicalCode::of(&under_codec).decode(&[0xFF, 0xFF], 1).is_none());
}

/// Peak resident set of this process so far, in bytes (`VmHWM`).
fn peak_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<usize>().ok())
        .expect("VmHWM line");
    kb * 1024
}

/// The resource oracle for a hostile length field: a typed error or success
/// (`run` asserts which), inside 50 ms (the fastest of three tries, so that a
/// descheduled test thread is not a failure) and 16 MB of peak-memory growth.
fn bounded(what: &str, run: &dyn Fn() -> bool) {
    let before = peak_rss_bytes();
    let fastest = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(run());
            t.elapsed()
        })
        .min()
        .unwrap();
    let grown = peak_rss_bytes().saturating_sub(before);
    assert!(fastest.as_millis() < 50, "{what}: took {fastest:?}");
    assert!(grown < 16 << 20, "{what}: peak memory grew by {grown} bytes");
}

#[test]
fn hostile_codebook_costs_its_bytes_not_its_alphabet() {
    use rqm::compress_crate::{ChunkCodec, LosslessStage, RolzChunkCodec, SzChunkCodec};
    use rqm::encoding::huffman::HuffmanCodec;
    use rqm::encoding::varint::{get_uvarint, put_uvarint};

    // Twelve and fourteen bytes that declare 2^28 symbols: a code at each
    // end of the alphabet, and two codes 2^28 - 2 apart with nothing after
    // the second. A codec that materializes the alphabet (or the span
    // between its first and last symbol) pays gigabytes and seconds here.
    let book = |parts: &[u64]| {
        let mut out = Vec::new();
        for &p in parts {
            put_uvarint(&mut out, p);
        }
        out
    };
    let hostile = [
        ("whole alphabet", book(&[1 << 28, 1, 0, (1 << 28) - 2, 1])),
        ("wide span", book(&[1 << 28, 1, 0, (1 << 28) - 3, 1, 0, 1])),
    ];

    for (name, bytes) in &hostile {
        bounded(&format!("deserialize, {name}"), &|| {
            HuffmanCodec::deserialize_codebook(bytes).is_ok()
        });
    }

    // The same books inside a chunk blob, in place of the real one: the SZ
    // and ROLZ decoders refuse an alphabet their header cannot have.
    let shape = Shape::d2(16, 16);
    let data: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.3).sin()).collect();
    let q = rqm::quant::LinearQuantizer::new(1e-3, 1 << 15);
    let sz_codec = SzChunkCodec::new(PredictorKind::Lorenzo, q, LosslessStage::None);
    let rolz_codec = RolzChunkCodec::new(PredictorKind::Lorenzo, q);
    let sz = ChunkCodec::<f32>::encode(&sz_codec, &data, shape).unwrap().0;
    let rolz = ChunkCodec::<f32>::encode(&rolz_codec, &data, shape).unwrap().0;
    let with_book = |blob: &[u8], book: &[u8]| {
        // Flag byte, then the codebook as a length-prefixed section.
        let mut pos = 1;
        let len = get_uvarint(blob, &mut pos).unwrap() as usize;
        let mut out = vec![blob[0]];
        put_uvarint(&mut out, book.len() as u64);
        out.extend_from_slice(book);
        out.extend_from_slice(&blob[pos + len..]);
        out
    };
    let codecs: [(&str, &dyn ChunkCodec<f32>, Vec<u8>); 2] =
        [("sz", &sz_codec, sz), ("rolz", &rolz_codec, rolz)];
    for (name, bytes) in &hostile {
        for (codec_name, codec, blob) in &codecs {
            let blob = with_book(blob, bytes);
            bounded(&format!("{codec_name} chunk, {name}"), &|| {
                let mut out = vec![0f32; shape.len()];
                let r = codec.decode(&blob, shape, &mut out);
                assert!(matches!(r, Err(DecompressError::Corrupt(_))), "{name}: {r:?}");
                r.is_ok()
            });
        }
    }
}

#[test]
fn hostile_rqzf_header_costs_its_bytes_not_its_shape() {
    use rq_zfp::{zfp_decompress_into, ZfpError};
    use rqm::encoding::varint::put_uvarint;

    // A standalone RQZF stream names its own shape, and its header is
    // parsed before that shape is compared with the caller's: 25 bytes can
    // claim 2^60 values, and 2^16 × 2^16 f32 values are 16 GiB. Every
    // block costs at least one payload bit, so a one-byte payload cannot
    // hold either: the header is refused as corrupt, in the oracle's time
    // and memory, whatever slice the caller offers.
    let stream = |dims: &[u64]| {
        let mut out = b"RQZF".to_vec();
        out.push(0x04); // f32
        out.push(dims.len() as u8);
        for &d in dims {
            put_uvarint(&mut out, d);
        }
        out.extend_from_slice(&1e-3f64.to_le_bytes());
        put_uvarint(&mut out, 1);
        out.push(0x00);
        out
    };
    // Decode into a caller slice of `dims`, pre-filled with NaN so that a
    // decoder that skipped an element would show.
    let decode = |bytes: &[u8], dims: &[usize]| {
        let shape = Shape::new(dims);
        let mut out = vec![f32::NAN; shape.len()];
        zfp_decompress_into(bytes, shape, &mut out).map(|()| out)
    };
    let cube = stream(&[1 << 20; 3]);
    assert_eq!(cube.len(), 25);
    for (name, bytes) in [("2^20 cubed", cube), ("2^16 squared", stream(&[1 << 16; 2]))] {
        bounded(&format!("zfp_decompress_into, {name}"), &|| {
            let r = decode(&bytes, &[8, 16]);
            assert!(matches!(r, Err(ZfpError::Corrupt(_))), "{name}: {:?}", r.map(|f| f.len()));
            r.is_ok()
        });
    }
    // The largest shape a one-byte payload can hold still decodes: eight
    // empty blocks.
    let fits = decode(&stream(&[8, 16]), &[8, 16]).expect("8 blocks, 8 payload bits");
    assert!(fits.iter().all(|&v| v == 0.0));
    assert!(decode(&stream(&[8, 17]), &[8, 17]).is_err(), "10 blocks, 8 payload bits");
}

#[test]
fn rle_runs_at_refill_boundary_decode_identically() {
    use frozen_kernels::rle_decompress_bounded_ref;
    use rqm::encoding::rle::rle_decompress_bounded;
    use rqm::encoding::varint::put_uvarint;

    // Craft RLE streams whose runs end at every offset mod 8 — the
    // word-at-a-time scanner's load boundary — and whose declared run
    // lengths land exactly on, one below, and one past the output cap.
    for lead in 0..16usize {
        for run in [1u64, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            for cap_delta in [-1i64, 0, 1] {
                let mut stream: Vec<u8> = (1..=lead as u8).collect();
                stream.push(0xF7); // ESCAPE
                put_uvarint(&mut stream, run);
                stream.extend_from_slice(&[2, 3, 4]);
                let cap = (lead as i64 + run as i64 + 3 + cap_delta).max(0) as usize;
                let fast = rle_decompress_bounded(&stream, 0, cap);
                let reference = rle_decompress_bounded_ref(&stream, 0, cap);
                assert_eq!(
                    fast, reference,
                    "lead {lead} run {run} cap {cap}: fast and reference disagree"
                );
                // And every truncation of the stream.
                for cut in 0..stream.len() {
                    assert_eq!(
                        rle_decompress_bounded(&stream[..cut], 0, cap),
                        rle_decompress_bounded_ref(&stream[..cut], 0, cap),
                        "lead {lead} run {run} cap {cap} cut {cut}"
                    );
                }
            }
        }
    }
}

#[test]
fn symbol_count_exceeding_payload_is_rejected_before_allocation() {
    use rqm::compress_crate::{ChunkCodec, DecompressError, LosslessStage, SzChunkCodec};

    // Regression for the decode_stream guard: a blob whose payload holds
    // far fewer bits than the declared element count demands must be
    // rejected up front (every Huffman code is >= 1 bit), for both the raw
    // and the lossless-wrapped payload — the multi-symbol-per-refill decode
    // loop must never be entered with a symbol budget the payload cannot
    // cover.
    let small = Shape::d2(4, 4);
    let data: Vec<f32> = (0..small.len()).map(|i| (i as f32 * 0.3).sin()).collect();
    let q = rqm::quant::LinearQuantizer::new(1e-3, 1 << 15);
    for lossless in [LosslessStage::None, LosslessStage::RleLzss] {
        let codec = SzChunkCodec::new(PredictorKind::Lorenzo, q, lossless);
        let blob = ChunkCodec::<f32>::encode(&codec, &data, small).unwrap().0;
        // Same blob, reinterpreted as a 64×64 chunk: 4096 symbols against
        // a payload of a few dozen bits.
        let big = Shape::d2(64, 64);
        let mut out = vec![0f32; big.len()];
        let err = ChunkCodec::<f32>::decode(&codec, &blob, big, &mut out)
            .expect_err("oversized symbol count decoded Ok");
        assert!(
            matches!(
                err,
                DecompressError::Corrupt("symbol count exceeds payload")
                    | DecompressError::Corrupt("lossless stage")
            ),
            "unexpected error: {err:?}"
        );
    }
}

#[test]
fn entropy_region_corruptions_agree_across_thread_counts() {
    // Byte flips aimed at each chunk blob's first bytes — the flags byte,
    // the codebook length varint, and the codebook body, i.e. exactly the
    // input of the flat-table construction — must produce identical
    // accept/reject decisions at 1 and 4 decode threads, and never panic.
    let field = mixed_field();
    let bytes = compress(
        &field,
        &CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(4),
    )
    .unwrap()
    .bytes;
    let table = chunk_table(&bytes).unwrap();
    let try_streaming = |bytes: &[u8], threads: usize| -> bool {
        match rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes)) {
            Err(_) => false,
            Ok(r) => r
                .with_threads_exact(threads)
                .decompress_to_writer::<f32, _>(&mut std::io::sink())
                .is_ok(),
        }
    };
    let mut rng = Rng(0x5EED_0B02);
    for entry in &table.entries {
        // The first 24 bytes of the blob cover the flags byte and the
        // codebook section header + start of the zero-RLE'd lengths.
        let zone = entry.len.min(24);
        for _ in 0..40 {
            let mut m = bytes.clone();
            let pos = entry.offset + rng.below(zone);
            m[pos] ^= 1 << rng.below(8);
            let serial = try_streaming(&m, 1);
            let parallel = try_streaming(&m, 4);
            assert_eq!(
                serial, parallel,
                "blob at {} byte {pos}: accept/reject differs across thread counts",
                entry.offset
            );
            // The in-memory reader agrees with the streaming one.
            if let Some(r) = try_decode(&m) {
                assert_eq!(r.is_ok(), serial, "in-memory vs streaming disagree at byte {pos}");
            }
        }
    }
}

#[test]
fn truncated_then_extended_garbage_errors() {
    // A truncated archive padded back to length with garbage: the section
    // lengths parse but the content is junk — must error or decode
    // consistently, never panic.
    let mut rng = Rng(0x5EED_0005);
    for (_name, bytes) in &valid_archives() {
        for _case in 0..100 {
            let cut = 9 + rng.below(bytes.len() - 9);
            let mut mutated = bytes[..cut].to_vec();
            while mutated.len() < bytes.len() {
                mutated.push(rng.next() as u8);
            }
            let _ = try_decode(&mutated);
        }
    }
}
