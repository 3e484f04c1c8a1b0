//! Differential coverage for a long-lived reader's decode paths.
//!
//! The decode engine has one fetch stage and no prefetch thread, and each
//! read allocates its own buffers, so no decoder ever sees a stale one.
//! Nothing a reader did before may be observable in the decoded bytes: a
//! long-lived reader that has served many overlapping requests must keep
//! producing output byte-identical to a fresh reader, across container
//! generations {v1, v2.2, v2.3} (committed fixtures; f64 ones for
//! v1–v2.3) and v2.4 (live writer, adaptive codecs, planned and not) ×
//! threads {1, 2, 8} ×
//! random row ranges, and a file-backed reader (`open_path`) must agree
//! with the in-memory cursor reader everywhere.

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

/// The generations the pooled paths must cover: v1 (single stream),
/// v2.2 (trailer index) and v2.3 (per-chunk bounds) from the committed
/// fixtures, v2.4 from the live writer with adaptive codecs.
fn generations(field: &NdArray<f32>) -> Vec<(String, Vec<u8>)> {
    let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
    let chunked = base.chunked(5).with_codec(CodecChoice::Auto);
    let n_chunks = field.shape().dim(0).div_ceil(5);
    let plan: Vec<f64> = (0..n_chunks).map(|i| 1e-3 * (1.0 + i as f64)).collect();
    vec![
        ("v1".into(), include_bytes!("data/golden_v1.rqc").to_vec()),
        ("v2.2".into(), include_bytes!("data/golden_v22.rqc").to_vec()),
        ("v2.3".into(), include_bytes!("data/golden_v23.rqc").to_vec()),
        ("v2.4".into(), streamed(field, &chunked, None)),
        ("v2.4 planned".into(), streamed(field, &chunked, Some(plan))),
    ]
}

/// The committed f64 archives of the read-only generations (recipe and
/// bound checks in `tests/conformance.rs`).
fn f64_fixtures() -> [(&'static str, &'static [u8]); 6] {
    [
        ("f64 v1", include_bytes!("data/golden_f64_v1.rqc")),
        ("f64 v1 pwrel", include_bytes!("data/golden_f64_v1_pwrel.rqc")),
        ("f64 v2", include_bytes!("data/golden_f64_v2.rqc")),
        ("f64 v2.1", include_bytes!("data/golden_f64_v21.rqc")),
        ("f64 v2.2", include_bytes!("data/golden_f64_v22.rqc")),
        ("f64 v2.3", include_bytes!("data/golden_f64_v23.rqc")),
    ]
}

#[test]
fn saturated_pools_stay_byte_identical() {
    // One reader serves many requests; from the second request on, its
    // blob pool (and the engines' scratch slabs) hand back dirty
    // recycled buffers. Every answer must match a fresh serial decode.
    let field = mixed_field(Shape::d3(23, 8, 6));
    let mut rng = Rng(0x900D_BEEF);
    for (name, bytes) in generations(&field) {
        assert_saturated_pools_identical::<f32>(&name, &bytes, &mut rng);
    }
    for (name, bytes) in f64_fixtures() {
        assert_saturated_pools_identical::<f64>(name, bytes, &mut rng);
    }
}

fn assert_saturated_pools_identical<T: Scalar>(name: &str, bytes: &[u8], rng: &mut Rng) {
    let reference = decompress::<T>(bytes).unwrap();
    let d0 = reference.shape().dim(0);
    let row_elems = reference.len() / d0;
    for threads in [1usize, 2, 8] {
        let r = ArchiveReader::open(Cursor::new(bytes)).unwrap().with_threads_exact(threads);
        for round in 0..15 {
            let start = rng.below(d0);
            let end = start + 1 + rng.below(d0 - start);
            let part = r.read_rows::<T>(start..end).unwrap();
            assert!(
                part.as_slice() == &reference.as_slice()[start * row_elems..end * row_elems],
                "{name} threads={threads} round={round}: rows {start}..{end}"
            );
        }
        for round in 0..3 {
            let all = r.read_all::<T>().unwrap();
            assert!(
                all.as_slice() == reference.as_slice(),
                "{name} threads={threads} round={round}: read_all"
            );
        }
    }
}

#[test]
fn mapped_file_reader_matches_in_memory() {
    // A file-backed reader (pooled seek+read fetches under the source
    // lock) must agree with the in-memory cursor reader on every path and
    // thread count. The test keeps the name it had when `open_path`
    // memory-mapped the file.
    let field = mixed_field(Shape::d3(23, 8, 6));
    let dir = std::env::temp_dir().join("rqm_pooled_decode");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("file_{}.rqm", std::process::id()));
    let mut rng = Rng(0x3A77_ED01);
    for (name, bytes) in generations(&field) {
        assert_file_matches_in_memory::<f32>(&name, &bytes, &path, &mut rng);
    }
    for (name, bytes) in f64_fixtures() {
        assert_file_matches_in_memory::<f64>(name, bytes, &path, &mut rng);
    }
    std::fs::remove_file(&path).ok();
}

fn assert_file_matches_in_memory<T: Scalar>(
    name: &str,
    bytes: &[u8],
    path: &std::path::Path,
    rng: &mut Rng,
) {
    std::fs::write(path, bytes).unwrap();
    let reference = decompress::<T>(bytes).unwrap();
    let d0 = reference.shape().dim(0);
    let row_elems = reference.len() / d0;
    for threads in [1usize, 2, 8] {
        let r = ArchiveReader::open_path(path).unwrap().with_threads_exact(threads);
        assert!(
            r.read_all::<T>().unwrap().as_slice() == reference.as_slice(),
            "{name} threads={threads}: file read_all"
        );
        for _ in 0..8 {
            let start = rng.below(d0);
            let end = start + 1 + rng.below(d0 - start);
            let part = r.read_rows::<T>(start..end).unwrap();
            assert!(
                part.as_slice() == &reference.as_slice()[start * row_elems..end * row_elems],
                "{name} threads={threads}: file rows {start}..{end}"
            );
        }
        let mut sink = Vec::new();
        let r = ArchiveReader::open_path(path).unwrap().with_threads_exact(threads);
        r.decompress_to_writer::<T, _>(&mut sink).unwrap();
        let mut expect = Vec::new();
        reference.as_slice().iter().for_each(|v| v.write_le(&mut expect));
        assert_eq!(sink, expect, "{name} threads={threads}: file writer");
    }
    // Shared reader over the file: same bytes.
    let cr = ConcurrentReader::open_path(path).unwrap();
    for _ in 0..6 {
        let start = rng.below(d0);
        let end = start + 1 + rng.below(d0 - start);
        let part = cr.read_rows::<T>(start..end).unwrap();
        assert!(
            part.as_slice() == &reference.as_slice()[start * row_elems..end * row_elems],
            "{name}: concurrent file rows {start}..{end}"
        );
    }
}

#[test]
fn aligned_reads_never_reorder_copy() {
    // Chunk-aligned ranges decode straight into the destination; the
    // `reorder_copies` counter proves no hidden scratch+memcpy runs.
    let field = mixed_field(Shape::d3(20, 8, 6));
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(5);
    let bytes = streamed(&field, &cfg, None);
    for threads in [1usize, 2, 8] {
        let r = ArchiveReader::open(Cursor::new(&bytes[..]))
            .unwrap()
            .with_threads_exact(threads);
        r.read_all::<f32>().unwrap();
        r.read_rows::<f32>(0..5).unwrap();
        r.read_rows::<f32>(5..20).unwrap();
        assert_eq!(
            r.stats().reorder_copies,
            0,
            "threads={threads}: aligned reads must decode in place"
        );
        // 3..7 crops chunk 0 and chunk 1 mid-chunk: exactly 2 copies.
        r.read_rows::<f32>(3..7).unwrap();
        assert_eq!(r.stats().reorder_copies, 2, "threads={threads}");
    }
    let cr = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
    let (_, stats) = cr.read_rows_with_stats::<f32>(5..15).unwrap();
    assert_eq!(stats.reorder_copies, 0, "aligned concurrent read");
    let (_, stats) = cr.read_rows_with_stats::<f32>(4..15).unwrap();
    assert_eq!(stats.reorder_copies, 1, "one cropped boundary chunk");
    assert_eq!(cr.stats().reorder_copies, 1);
}
