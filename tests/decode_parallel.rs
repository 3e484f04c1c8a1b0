//! Differential and concurrency tests for the parallel decode engine.
//!
//! The engine's contract is that thread count, chunk count against the
//! ordered window, delivery mode and the kind of source (stream, mapped
//! file, bytes in memory) are implementation details: every decode
//! path — `read_all`, `read_rows`, `decompress_to_writer` on
//! `ArchiveReader`, the one-shot
//! `decompress`/`decompress_chunk`, and every request on a shared
//! `ConcurrentReader` — must produce results byte-identical to the
//! single-threaded serial decode, for every container generation
//! {v1, v2, v2.1, v2.2, v2.3} from the committed fixtures (f32 and f64)
//! and v2.4 from the live writer × {sz, zfp, rolz, auto, planned} ×
//! thread count {1, 2, 3, 8} × random row ranges.
//!
//! The stress test hammers one `ConcurrentReader` from 8 threads with
//! randomized overlapping `read_rows`/`read_chunk` requests, checks
//! every result against a precomputed serial decode, and verifies that
//! the aggregate `ReadStats` equal the sum of the per-request stats.

use rqm::compress_crate::{ChunkSource, DecompressError};
use rqm::grid::Scalar;
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

/// A field whose smooth half favors sz and whose turbulent half pushes
/// `auto` to zfp, so adaptive archives genuinely mix codecs.
fn mixed_field(shape: Shape) -> NdArray<f32> {
    rqm::datagen::fields::mixed_smooth_turbulent(shape, shape.dim(0) / 2, 30.0)
}

/// Stream `field` through a writer session, optionally planned.
fn streamed(field: &NdArray<f32>, cfg: &CompressorConfig, plan: Option<Vec<f64>>) -> Vec<u8> {
    let mut w = match plan {
        Some(p) => {
            ArchiveWriter::<f32, Vec<u8>>::create_planned(Vec::new(), field.shape(), cfg, p)
                .unwrap()
        }
        None => ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), field.shape(), cfg).unwrap(),
    };
    w.write_slab(field).unwrap();
    w.finalize().unwrap().sink
}

/// Every archive the decode engine must handle, with its expected header
/// version byte: generations 1–5 from the committed fixtures (no writer
/// emits them any more; the catalog fixture's segments are v2.2 archives
/// too), generation 6 from the fixture and from the live writer under
/// every codec policy, one-shot and streamed, with and without a plan.
fn archive_matrix(field: &NdArray<f32>) -> Vec<(String, u8, Vec<u8>)> {
    let fixtures: [(&str, u8, &[u8]); 6] = [
        ("golden v1", 1, include_bytes!("data/golden_v1.rqc")),
        ("golden v2", 2, include_bytes!("data/golden_v2.rqc")),
        ("golden v2.1", 3, include_bytes!("data/golden_v21.rqc")),
        ("golden v2.2", 4, include_bytes!("data/golden_v22.rqc")),
        ("golden v2.3", 5, include_bytes!("data/golden_v23.rqc")),
        ("golden v2.4", 6, include_bytes!("data/golden_v24.rqc")),
    ];
    let mut out: Vec<(String, u8, Vec<u8>)> =
        fixtures.iter().map(|&(name, v, bytes)| (name.into(), v, bytes.to_vec())).collect();
    let cat = include_bytes!("data/golden_cat1.rqc");
    let mut cat = CatalogReader::open(Cursor::new(&cat[..])).unwrap();
    for t in 0..5 {
        out.push((format!("golden cat1 wave[{t}]"), 4, cat.read_segment("wave", t).unwrap()));
    }

    let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
    let chunked = base.chunked(5);
    let plan: Vec<f64> =
        (0..field.shape().dim(0).div_ceil(5)).map(|i| 1e-3 * (1.0 + i as f64)).collect();
    out.push(("live serial/sz".into(), 6, compress(field, &base).unwrap().bytes));
    for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
        let cfg = chunked.with_codec(codec);
        let name = format!("{codec:?}").to_lowercase();
        out.push((format!("live {name}"), 6, compress(field, &cfg).unwrap().bytes));
        out.push((format!("live {name}-planned"), 6, streamed(field, &cfg, Some(plan.clone()))));
    }
    out
}

/// The committed f64 archives of the read-only generations (recipe and
/// bound checks in `tests/conformance.rs`), with their version bytes.
fn f64_fixtures() -> [(&'static str, u8, &'static [u8]); 6] {
    [
        ("golden f64 v1", 1, include_bytes!("data/golden_f64_v1.rqc")),
        ("golden f64 v1 pwrel", 1, include_bytes!("data/golden_f64_v1_pwrel.rqc")),
        ("golden f64 v2", 2, include_bytes!("data/golden_f64_v2.rqc")),
        ("golden f64 v2.1", 3, include_bytes!("data/golden_f64_v21.rqc")),
        ("golden f64 v2.2", 4, include_bytes!("data/golden_f64_v22.rqc")),
        ("golden f64 v2.3", 5, include_bytes!("data/golden_f64_v23.rqc")),
    ]
}

/// Little-endian bytes of decoded values, as `decompress_to_writer` emits.
fn le_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    values.iter().for_each(|v| v.write_le(&mut out));
    out
}

/// Every pooled decode path of one archive equals its serial decode.
fn assert_parallel_matches_serial<T: Scalar>(name: &str, version: u8, bytes: &[u8], rng: &mut Rng) {
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, version, "{name}: wrong container generation");
    let d0 = header.shape.dim(0);
    let row_elems = header.shape.len() / d0;
    // The serial reference: single-threaded streaming read_all.
    let mut serial = ArchiveReader::open(Cursor::new(bytes)).unwrap();
    let reference = serial.read_all::<T>().unwrap();
    assert!(
        reference.as_slice() == decompress::<T>(bytes).unwrap().as_slice(),
        "{name}: serial streaming decode diverges from the in-memory decoder"
    );
    for threads in [1usize, 2, 3, 8] {
        let mut r = ArchiveReader::open(Cursor::new(bytes)).unwrap().with_threads_exact(threads);
        // Whole-field decode.
        let all = r.read_all::<T>().unwrap();
        assert!(all.as_slice() == reference.as_slice(), "{name} threads={threads}: read_all");
        // Random row ranges, including chunk-interior and boundary
        // straddling ones.
        for _ in 0..12 {
            let start = rng.below(d0);
            let end = start + 1 + rng.below(d0 - start);
            let part = r.read_rows::<T>(start..end).unwrap();
            assert!(
                part.as_slice() == &reference.as_slice()[start * row_elems..end * row_elems],
                "{name} threads={threads}: read_rows {start}..{end}"
            );
        }
        // Ordered streaming delivery into a writer.
        let mut r = ArchiveReader::open(Cursor::new(bytes)).unwrap().with_threads_exact(threads);
        let mut sink = Vec::new();
        let values = r.decompress_to_writer::<T, _>(&mut sink).unwrap();
        assert_eq!(values as usize, reference.len(), "{name} threads={threads}");
        assert_eq!(
            sink,
            le_bytes(reference.as_slice()),
            "{name} threads={threads}: decompress_to_writer"
        );
    }
}

#[test]
fn parallel_decode_matches_serial_across_generations() {
    let field = mixed_field(Shape::d3(23, 8, 6));
    let mut rng = Rng(0xDEC0_DE01);
    for (name, version, bytes) in archive_matrix(&field) {
        assert_parallel_matches_serial::<f32>(&name, version, &bytes, &mut rng);
    }
    for (name, version, bytes) in f64_fixtures() {
        assert_parallel_matches_serial::<f64>(name, version, bytes, &mut rng);
    }
}

#[test]
fn every_source_kind_decodes_identically_with_equal_stats() {
    // One engine, every kind of source: the same bytes held in memory
    // (`decompress`, `decompress_chunk`), behind a seekable stream
    // (`open(Cursor)`) and in a mapped file (`open_path`), read by the
    // session reader at 1, 2 and 8 (oversubscribed) worker threads, by the
    // shared reader over both, and chunk by chunk through `ChunkSource`,
    // must give bit-identical values and count the same decoded chunks,
    // blob bytes and reorder copies — one fetch, one set of counters.
    let field = mixed_field(Shape::d3(23, 8, 6));
    let dir = std::env::temp_dir().join("rqm_decode_parallel_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("src_{}.rqc", std::process::id()));
    for (name, _version, bytes) in archive_matrix(&field) {
        assert_source_kinds_agree::<f32>(&name, &bytes, &path);
    }
    for (name, _version, bytes) in f64_fixtures() {
        assert_source_kinds_agree::<f64>(name, bytes, &path);
    }
    std::fs::remove_file(&path).ok();
}

/// One archive through every kind of source (see the test above); `path`
/// is scratch space for the mapped copy.
fn assert_source_kinds_agree<T: Scalar>(name: &str, bytes: &[u8], path: &std::path::Path) {
    let reference = decompress::<T>(bytes).unwrap();
    let n_chunks = chunk_count(bytes).unwrap();
    let row_elems = reference.len() / reference.shape().dim(0);
    for chunk in 0..n_chunks {
        let (start_row, slab) = decompress_chunk::<T>(bytes, chunk).unwrap();
        let lo = start_row * row_elems;
        assert!(
            slab.as_slice() == &reference.as_slice()[lo..lo + slab.len()],
            "{name}: decompress_chunk {chunk}"
        );
    }
    std::fs::write(path, bytes).unwrap();
    // The kinds without a thread count: one `read_all` request on a shared
    // reader over the stream and over the map, and every chunk fetched
    // whole through the chunk source.
    let shared_stream = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
    let shared_mapped = ConcurrentReader::open_path(path).unwrap();
    let source = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
    let mut fetched = Vec::with_capacity(reference.len());
    for chunk in 0..n_chunks {
        fetched.extend_from_slice(&ChunkSource::<T>::fetch_chunk(&source, chunk).unwrap());
    }
    let fetched = NdArray::from_vec(reference.shape(), fetched);
    let mut kinds = vec![
        ("shared stream".into(), shared_stream.read_all::<T>().unwrap(), shared_stream.stats()),
        ("shared mapped".into(), shared_mapped.read_all::<T>().unwrap(), shared_mapped.stats()),
        ("chunk source".to_string(), fetched, source.stats()),
    ];
    for threads in [1usize, 2, 8] {
        assert!(
            decompress_with_threads::<T>(bytes, threads).unwrap().as_slice()
                == reference.as_slice(),
            "{name} threads={threads}: decompress_with_threads"
        );
        let mut stream =
            ArchiveReader::open(Cursor::new(bytes)).unwrap().with_threads_exact(threads);
        let mut mapped = ArchiveReader::open_path(path).unwrap().with_threads_exact(threads);
        let all = stream.read_all::<T>().unwrap();
        kinds.push((format!("stream threads={threads}"), all, stream.stats()));
        let all = mapped.read_all::<T>().unwrap();
        kinds.push((format!("mapped threads={threads}"), all, mapped.stats()));
    }
    let want = kinds[0].2;
    assert_eq!(want.chunks_decoded, n_chunks as u64, "{name}");
    assert_eq!(want.reorder_copies, 0, "{name}");
    for (kind, all, stats) in &kinds {
        assert!(all.as_slice() == reference.as_slice(), "{name} {kind}");
        assert_eq!(*stats, want, "{name} {kind}");
    }

    // A session's counters carry over into its shared form exactly.
    let d0 = reference.shape().dim(0);
    let mut session = ArchiveReader::open(Cursor::new(bytes)).unwrap().with_threads_exact(2);
    session.read_rows::<T>(d0 / 2..d0).unwrap();
    let before = session.stats();
    let shared = session.into_concurrent();
    assert_eq!(shared.stats(), before, "{name}: into_concurrent");
    shared.read_all::<T>().unwrap();
    let after = shared.stats();
    assert_eq!(after.chunks_decoded, before.chunks_decoded + want.chunks_decoded, "{name}");
    assert_eq!(after.blob_bytes_read, before.blob_bytes_read + want.blob_bytes_read, "{name}");
    assert_eq!(after.reorder_copies, before.reorder_copies, "{name}");
}

#[test]
fn more_chunks_than_the_window_preserve_order() {
    // The ordered window is 2 × threads chunks, so one-row chunks of a
    // 32-row field put 32 chunks against a window of 16 at 8 workers:
    // the credit loop has to stall dispatch, every in-flight chunk has a
    // worker racing on it and completions arrive maximally out of order.
    // The in-order delivery guarantee must hold regardless.
    let field = mixed_field(Shape::d3(32, 6, 5));
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
        .chunked(1)
        .with_codec(CodecChoice::Auto);
    let bytes = streamed(&field, &cfg, None);
    let mut serial = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
    let reference = serial.read_all::<f32>().unwrap();
    let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads_exact(8);
    let mut sink = Vec::new();
    r.decompress_to_writer::<f32, _>(&mut sink).unwrap();
    let expect: Vec<u8> = reference.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(sink, expect);
    assert_eq!(r.stats().chunks_decoded, 32);
}

#[test]
fn parallel_reader_stats_count_every_chunk_once() {
    let field = mixed_field(Shape::d2(24, 10));
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(6);
    let bytes = streamed(&field, &cfg, None);
    let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads_exact(4);
    assert_eq!(r.stats().chunks_total, 4);
    r.read_all::<f32>().unwrap();
    assert_eq!(r.stats().chunks_decoded, 4);
    // Rows 7..11 live inside chunk 1: exactly one more decode.
    r.read_rows::<f32>(7..11).unwrap();
    assert_eq!(r.stats().chunks_decoded, 5);
}

#[test]
fn concurrent_reader_stress() {
    // 8 threads hammer one shared handle with overlapping randomized
    // requests; every result is checked against the precomputed serial
    // decode and the aggregate stats must equal the per-request sums.
    let field = mixed_field(Shape::d3(40, 8, 5));
    let row_elems = 8 * 5;
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
        .chunked(4)
        .with_codec(CodecChoice::Auto);
    let bytes = streamed(&field, &cfg, None);
    let reference = decompress::<f32>(&bytes).unwrap();
    let reader = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
    let n_chunks = reader.n_chunks();
    let chunk_rows = reader.chunk_rows();
    let d0 = field.shape().dim(0);

    let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = reader.clone();
            let reference = &reference;
            handles.push(scope.spawn(move || {
                let mut rng = Rng(0xC0C0 + t);
                let mut decoded = 0u64;
                let mut blob_bytes = 0u64;
                for _ in 0..150 {
                    if rng.below(2) == 0 {
                        let start = rng.below(d0);
                        let end = start + 1 + rng.below(d0 - start);
                        let (part, stats) =
                            r.read_rows_with_stats::<f32>(start..end).unwrap();
                        assert_eq!(
                            part.as_slice(),
                            &reference.as_slice()[start * row_elems..end * row_elems],
                            "thread {t}: rows {start}..{end}"
                        );
                        // The request touched exactly the intersecting
                        // chunks.
                        let expect_chunks =
                            (end.div_ceil(chunk_rows) - start / chunk_rows) as u64;
                        assert_eq!(stats.chunks_decoded, expect_chunks);
                        decoded += stats.chunks_decoded;
                        blob_bytes += stats.blob_bytes_read;
                    } else {
                        let chunk = rng.below(n_chunks);
                        let (start_row, slab, stats) = r.read_chunk::<f32>(chunk).unwrap();
                        assert_eq!(start_row, chunk * chunk_rows);
                        let lo = start_row * row_elems;
                        assert_eq!(
                            slab.as_slice(),
                            &reference.as_slice()[lo..lo + slab.len()],
                            "thread {t}: chunk {chunk}"
                        );
                        assert_eq!(stats.chunks_decoded, 1);
                        decoded += 1;
                        blob_bytes += stats.blob_bytes_read;
                    }
                }
                (decoded, blob_bytes)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total_decoded: u64 = per_thread.iter().map(|&(d, _)| d).sum();
    let total_blob: u64 = per_thread.iter().map(|&(_, b)| b).sum();
    let agg = reader.stats();
    assert_eq!(agg.chunks_decoded, total_decoded, "aggregate chunk-decode count");
    assert_eq!(agg.blob_bytes_read, total_blob, "aggregate blob bytes");
    assert_eq!(agg.chunks_total, n_chunks);
    assert!(total_decoded > 0);
}

#[test]
fn concurrent_reader_handles_all_generations_and_errors() {
    let field = mixed_field(Shape::d2(20, 12));
    for (name, _version, bytes) in archive_matrix(&field) {
        let reference = decompress::<f32>(&bytes).unwrap();
        let r = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
        let all = r.read_all::<f32>().unwrap();
        assert_eq!(all.as_slice(), reference.as_slice(), "{name}: read_all");
        let d0 = r.header().shape.dim(0);
        let row_elems = reference.len() / d0;
        let part = r.read_rows::<f32>(3..d0 - 1).unwrap();
        assert_eq!(
            part.as_slice(),
            &reference.as_slice()[3 * row_elems..(d0 - 1) * row_elems],
            "{name}"
        );
        // Typed errors, matching the session reader.
        assert!(matches!(
            r.read_rows::<f32>(0..d0 + 1),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            r.read_chunk::<f32>(r.n_chunks()),
            Err(DecompressError::ChunkOutOfRange { .. })
        ));
        assert!(matches!(
            r.read_all::<f64>(),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }
}

#[test]
fn into_concurrent_carries_layout_and_stats() {
    let field = mixed_field(Shape::d2(18, 6));
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(6);
    let bytes = streamed(&field, &cfg, None);
    let mut r = ArchiveReader::open(Cursor::new(bytes)).unwrap();
    let reference = r.read_all::<f32>().unwrap();
    let decoded_before = r.stats().chunks_decoded;
    let shared = r.into_concurrent();
    assert_eq!(shared.stats().chunks_decoded, decoded_before);
    assert_eq!(shared.n_chunks(), 3);
    let again = shared.read_all::<f32>().unwrap();
    assert_eq!(again.as_slice(), reference.as_slice());
    assert_eq!(shared.stats().chunks_decoded, decoded_before + 3);
}
