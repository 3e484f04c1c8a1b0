//! Round-trip conformance for `RQCAT` temporal catalogs.
//!
//! The catalog's contract: every time step of every dataset decodes to
//! within the dataset's absolute error bound — keyframes *and* delta
//! steps, at every cadence — and a keyframe segment is byte-identical
//! to an independent single-field archive of the same step under the
//! same pinned configuration. Swept over scalar types {f32, f64} ×
//! step counts {1, 4, 9} × keyframe cadences {1, 3}, with the RTM
//! wavefield sequence as the time series. What the delta chain is *for*
//! is asserted once, at a size where it shows: residual coding must buy
//! at least 1.3× over independent steps at the same bound.

use rqm::catalog::{CatalogError, CatalogReader, CatalogWriter, DatasetReader};
use rqm::compress_crate::{assemble_rows, ArchiveWriter, ChunkSource, DecompressError};
use rqm::grid::Scalar;
use rqm::prelude::*;
use std::io::Cursor;

const DIMS: [usize; 3] = [12, 10, 8];
const EB32: f64 = 1e-3;
const EB64: f64 = 1e-5;

/// The RTM pressure wavefield sequence (f32) and a derived f64 twin.
fn sequences(n: usize) -> (Vec<NdArray<f32>>, Vec<NdArray<f64>>) {
    let steps32 = rqm::datagen::rtm_steps(0xC0FFEE, n, DIMS);
    let steps64 = steps32
        .iter()
        .map(|s| {
            NdArray::from_vec(
                s.shape(),
                s.as_slice().iter().map(|&v| v as f64 * 1.5 + 0.25).collect(),
            )
        })
        .collect();
    (steps32, steps64)
}

fn max_abs_err<T: rqm::grid::Scalar>(a: &[T], b: &[T]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

#[test]
fn every_step_of_every_config_meets_its_bound() {
    for n_steps in [1usize, 4, 9] {
        let (steps32, steps64) = sequences(n_steps);
        for keyframe_every in [1usize, 3] {
            let cfg32 =
                CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32))
                    .chunked(4);
            let cfg64 = CompressorConfig::new(
                PredictorKind::Interpolation,
                ErrorBoundMode::Abs(EB64),
            );
            let mut w = CatalogWriter::create(Vec::new()).unwrap();
            w.write_dataset("pressure", &cfg32, keyframe_every, &steps32).unwrap();
            w.write_dataset("energy", &cfg64, keyframe_every, &steps64).unwrap();
            let bytes = w.finalize().unwrap().sink;

            let r = CatalogReader::open(Cursor::new(bytes)).unwrap();
            assert_eq!(r.datasets().len(), 2);
            for t in 0..n_steps {
                let what = format!("steps={n_steps} k={keyframe_every} t={t}");
                let p = r.read_step::<f32>("pressure", t).unwrap();
                let err = max_abs_err(p.as_slice(), steps32[t].as_slice());
                assert!(err <= EB32 * (1.0 + 1e-9), "{what}: pressure err {err:.3e}");
                let e = r.read_step::<f64>("energy", t).unwrap();
                let err = max_abs_err(e.as_slice(), steps64[t].as_slice());
                assert!(err <= EB64 * (1.0 + 1e-9), "{what}: energy err {err:.3e}");
            }
        }
    }
}

#[test]
fn keyframe_segments_equal_independent_archives() {
    // A keyframe is a plain archive of its step under the pinned config
    // — bit-for-bit. So catalog storage costs nothing over independent
    // archives for cadence 1, and the delta win asserted below is purely
    // the predictor's doing.
    let (steps32, _) = sequences(4);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg, 3, &steps32).unwrap();
    let bytes = w.finalize().unwrap().sink;

    let r = CatalogReader::open(Cursor::new(bytes)).unwrap();
    let pinned = cfg.chunked(rqm::compress_crate::resolved_chunk_rows(
        &cfg,
        steps32[0].shape(),
    ));
    for t in [0usize, 3] {
        let seg = r.read_segment("pressure", t).unwrap();
        let mut iw =
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), steps32[t].shape(), &pinned)
                .unwrap();
        iw.write_slab(&steps32[t]).unwrap();
        let independent = iw.finalize().unwrap().sink;
        assert_eq!(seg, independent, "keyframe t={t} differs from an independent archive");
    }
}

#[test]
fn temporal_delta_is_1_3x_smaller_than_independent_steps() {
    // 32 steps of the 32³ RTM sequence under one absolute bound, packed
    // with every step a keyframe (independent archives) and with a
    // keyframe every 4th step. Measured: 92 878 B vs 68 592 B, win 1.354.
    let eb = 1e-4;
    let steps = rqm::datagen::rtm_steps(0xBEC4, 32, [32, 32, 32]);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
    let pack = |keyframe_every: usize| {
        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        w.write_dataset("wave", &cfg, keyframe_every, &steps).unwrap();
        w.finalize().unwrap().sink
    };
    let (independent, delta) = (pack(1), pack(4));

    // Same bound on both sides, so the byte counts compare at matched
    // quality.
    for bytes in [&independent, &delta] {
        let r = CatalogReader::open(Cursor::new(&bytes[..])).unwrap();
        for (t, truth) in steps.iter().enumerate() {
            let got = r.read_step::<f32>("wave", t).unwrap();
            let err = max_abs_err(got.as_slice(), truth.as_slice());
            assert!(err <= eb, "step {t}: err {err:.3e} > {eb:.0e}");
        }
    }
    let win = independent.len() as f64 / delta.len() as f64;
    assert!(
        win >= 1.3,
        "temporal-delta catalog ({} B) is only {win:.3}x smaller than independent steps ({} B)",
        delta.len(),
        independent.len()
    );
}

#[test]
fn dataset_reader_matches_catalog_reader_exactly() {
    // The concurrent flattened view and the sequential keyframe walk
    // must reconstruct identical bytes — this identity is what makes the
    // served READ_STEP_ROWS path trustworthy.
    let (steps32, _) = sequences(5);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32))
        .chunked(4);
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg, 2, &steps32).unwrap();
    let bytes = w.finalize().unwrap().sink;

    let dir = std::env::temp_dir().join(format!("rqm_cat_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seq.rqc");
    std::fs::write(&path, &bytes).unwrap();

    let seq = CatalogReader::open(Cursor::new(bytes)).unwrap();
    let file_cat = CatalogReader::open_path(&path).unwrap();
    let conc = DatasetReader::<f32>::open(&file_cat, "pressure").unwrap();
    assert_eq!(conc.n_steps(), 5);
    let row_elems = DIMS[1] * DIMS[2];
    for t in 0..5 {
        let want = seq.read_step::<f32>("pressure", t).unwrap();
        let got = rqm::compress_crate::assemble_rows(
            &conc,
            t * conc.step_rows()..(t + 1) * conc.step_rows(),
        )
        .unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "step {t} diverges");
        assert_eq!(got.as_slice().len(), DIMS[0] * row_elems);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The little-endian bytes of `values`: what "byte for byte" compares.
fn le_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    values.iter().for_each(|&v| v.write_le(&mut out));
    out
}

/// A catalog held in memory.
type MemCatalog = CatalogReader<Cursor<Vec<u8>>>;

/// Every step of `name` read through a [`DatasetReader`] built on `cat`
/// equals `read_step` byte for byte, and so does every chunk it fetches;
/// a chunk past the flat table is out of range.
fn flat_view_matches_read_step<T: Scalar>(cat: &mut MemCatalog, name: &str, what: &str) {
    let ds = DatasetReader::<T, _>::open(cat, name).unwrap();
    let (rows, per_step) = (ds.step_rows(), ds.chunks_per_step());
    for t in 0..ds.n_steps() {
        let want = cat.read_step::<T>(name, t).unwrap();
        let row_elems = want.len() / rows;
        let got = assemble_rows(&ds, t * rows..(t + 1) * rows).unwrap();
        assert_eq!(le_bytes(got.as_slice()), le_bytes(want.as_slice()), "{what} {name} t={t}");
        for idx in t * per_step..(t + 1) * per_step {
            let e = ds.entries()[idx];
            let local = e.start_row - t * rows;
            let slice = &want.as_slice()[local * row_elems..(local + e.rows) * row_elems];
            let chunk = ds.fetch_chunk(idx).unwrap();
            assert_eq!(le_bytes(&chunk), le_bytes(slice), "{what} {name} chunk {idx}");
        }
    }
    let n = ds.entries().len();
    assert!(
        matches!(
            ds.fetch_chunk(n),
            Err(DecompressError::ChunkOutOfRange { requested, available })
                if requested == n && available == n
        ),
        "{what} {name}: chunk {n} of {n}"
    );
}

#[test]
fn dataset_reader_over_memory_matches_read_step() {
    // A DatasetReader needs no file: built on a catalog held in memory, it
    // reads through windows of the same source as `read_step`, and the
    // catalog reader stays usable beside it.
    let (steps32, steps64) = sequences(5);
    for keyframe_every in [1usize, 3] {
        for chunked in [true, false] {
            let what = format!("k={keyframe_every} chunked={chunked}");
            let cfg = |predictor, eb| {
                let cfg = CompressorConfig::new(predictor, ErrorBoundMode::Abs(eb));
                if chunked {
                    cfg.chunked(4)
                } else {
                    cfg
                }
            };
            let mut w = CatalogWriter::create(Vec::new()).unwrap();
            let cfg32 = cfg(PredictorKind::Lorenzo, EB32);
            w.write_dataset("pressure", &cfg32, keyframe_every, &steps32).unwrap();
            let cfg64 = cfg(PredictorKind::Interpolation, EB64);
            w.write_dataset("energy", &cfg64, keyframe_every, &steps64).unwrap();
            let mut cat = CatalogReader::open(Cursor::new(w.finalize().unwrap().sink)).unwrap();

            flat_view_matches_read_step::<f32>(&mut cat, "pressure", &what);
            flat_view_matches_read_step::<f64>(&mut cat, "energy", &what);
            assert!(
                matches!(
                    DatasetReader::<f64, _>::open(&cat, "pressure"),
                    Err(CatalogError::ScalarMismatch { expected: 0x04, found: 0x08 })
                ),
                "{what}: f64 view of an f32 dataset"
            );
        }
    }
}

/// Descriptors of this process open on `path` (`/proc/self/fd` links;
/// other tests of the binary open files of their own concurrently, so
/// only links to the catalog count).
#[cfg(target_os = "linux")]
fn fds_open_on(path: &std::path::Path) -> usize {
    let path = path.canonicalize().unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| *target == path)
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn dataset_reader_holds_one_descriptor_whatever_the_step_count() {
    // A 64-step dataset: the reader's descriptors must not grow with the
    // steps (one handle per step made `rqm serve` fail with EMFILE on
    // long catalogs), and every step still reads as the sequential walk.
    let steps = rqm::datagen::rtm_steps(0xFD64, 64, [8, 8, 8]);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("wave", &cfg, 8, &steps).unwrap();
    let bytes = w.finalize().unwrap().sink;
    let dir = std::env::temp_dir().join(format!("rqm_cat_fd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("long.rqc");
    std::fs::write(&path, &bytes).unwrap();

    let before = fds_open_on(&path);
    let file_cat = CatalogReader::open_path(&path).unwrap();
    let conc = DatasetReader::<f32>::open(&file_cat, "wave").unwrap();
    let grown = fds_open_on(&path) - before;
    assert!(grown <= 2, "a 64-step DatasetReader holds {grown} descriptors on its catalog");

    let seq = CatalogReader::open(Cursor::new(bytes)).unwrap();
    for t in 0..64 {
        let want = seq.read_step::<f32>("wave", t).unwrap();
        let rows = t * conc.step_rows()..(t + 1) * conc.step_rows();
        let got = rqm::compress_crate::assemble_rows(&conc, rows).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "step {t} diverges");
    }
    drop(conc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_step_rejects_a_segment_whose_dims_differ_from_the_index() {
    // Datasets of 16×8 and 8×16 have segments of the same length. With
    // their step-0 entries swapped in the index, each step decodes a
    // segment of the other layout: that is a corrupt catalog, and both
    // readers must say so in the same words.
    let field = |rows, cols| {
        NdArray::from_fn(Shape::d2(rows, cols), |ix| (ix[0] * 31 + ix[1]) as f32 * 0.01)
    };
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("a", &cfg, 1, &[field(16, 8)]).unwrap();
    w.write_dataset("b", &cfg, 1, &[field(8, 16)]).unwrap();
    let cat = CatalogReader::open(Cursor::new(with_step_swapped(w, 0))).unwrap();
    for name in ["a", "b"] {
        assert_one_corruption::<f32>(&cat, name, 0, "segment shape differs from the index");
    }
}

#[test]
fn read_step_rejects_a_segment_whose_scalar_tag_differs_from_the_index() {
    // An f32 and an f64 dataset of one shape, their step-0 entries
    // swapped: each step decodes a segment of the other scalar type.
    let shape = Shape::d2(16, 8);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("a", &cfg, 1, &[NdArray::from_fn(shape, |ix| ix[0] as f32 * 0.5)]).unwrap();
    w.write_dataset("b", &cfg, 1, &[NdArray::from_fn(shape, |ix| ix[1] as f64 * 0.5)]).unwrap();
    let cat = CatalogReader::open(Cursor::new(with_step_swapped(w, 0))).unwrap();
    assert_one_corruption::<f32>(&cat, "a", 0, "segment scalar tag differs from the index");
    assert_one_corruption::<f64>(&cat, "b", 0, "segment scalar tag differs from the index");
}

#[test]
fn dataset_reader_rejects_a_later_segment_whose_scalar_tag_differs_from_the_index() {
    // As above, with the step-1 entries swapped: step 0 of each dataset is
    // sound, so only a check of every step at open refuses the dataset.
    let shape = Shape::d2(16, 8);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32));
    let a: Vec<NdArray<f32>> =
        (0..3).map(|t| NdArray::from_fn(shape, |ix| (ix[0] + t) as f32 * 0.5)).collect();
    let b: Vec<NdArray<f64>> =
        (0..3).map(|t| NdArray::from_fn(shape, |ix| (ix[1] + t) as f64 * 0.5)).collect();
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("a", &cfg, 1, &a).unwrap();
    w.write_dataset("b", &cfg, 1, &b).unwrap();
    let cat = CatalogReader::open(Cursor::new(with_step_swapped(w, 1))).unwrap();
    assert_one_corruption::<f32>(&cat, "a", 1, "segment scalar tag differs from the index");
    assert_one_corruption::<f64>(&cat, "b", 1, "segment scalar tag differs from the index");
    assert_eq!(cat.read_step::<f32>("a", 0).unwrap().as_slice(), a[0].as_slice());
}

/// The catalog `w` writes, with the `step` entries of its first two
/// datasets swapped in a re-encoded index.
fn with_step_swapped(w: CatalogWriter<Vec<u8>>, step: usize) -> Vec<u8> {
    let fin = w.finalize().unwrap();
    let suffix = fin.sink.len() - 12;
    let body_len = u64::from_le_bytes(fin.sink[suffix..suffix + 8].try_into().unwrap());
    let data_end = suffix - body_len as usize;

    let mut index = fin.index.clone();
    let (a, b) = (index.datasets[0].steps[step], index.datasets[1].steps[step]);
    index.datasets[0].steps[step] = b;
    index.datasets[1].steps[step] = a;
    let body = rqm::catalog::format::encode_trailer(&index);
    let mut bytes = fin.sink[..data_end].to_vec();
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(rqm::catalog::format::TRAILER_MAGIC);
    bytes
}

/// Both readers refuse dataset `name` as the same corrupt catalog:
/// `DatasetReader` at open, `read_step` at step `t`.
fn assert_one_corruption<T: Scalar>(
    cat: &CatalogReader<Cursor<Vec<u8>>>,
    name: &str,
    t: usize,
    what: &str,
) {
    let flat = DatasetReader::<T, _>::open(cat, name).err().map(|e| e.to_string());
    let step = cat.read_step::<T>(name, t).err().map(|e| e.to_string());
    let expected = format!("corrupt catalog: {what}");
    assert_eq!(flat.as_deref(), Some(expected.as_str()), "{name}: DatasetReader::open");
    assert_eq!(step, flat, "{name}: read_step");
}

/// Deterministic xorshift64* stream for read orders.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) % n as u64) as usize
    }

    /// `ops` in a seeded (Fisher–Yates) order.
    fn shuffled<T>(&mut self, mut ops: Vec<T>) -> Vec<T> {
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.below(i + 1));
        }
        ops
    }
}

/// One read: a dataset of [`three_dataset_catalog`] and a step.
type Op = (&'static str, usize);

/// The datasets of [`three_dataset_catalog`].
const NAMES: [&str; 3] = ["pressure", "velocity", "energy"];

/// A catalog of `n` steps of `pressure` and `velocity` (f32) and `energy`
/// (f64), each with a keyframe every `keyframe_every` steps. Two datasets
/// share a scalar type, so a step kept for one of them would also fit the
/// other.
fn three_dataset_catalog(n: usize, keyframe_every: usize) -> Vec<u8> {
    let (steps32, steps64) = sequences(n);
    let velocity: Vec<NdArray<f32>> = steps32
        .iter()
        .map(|s| NdArray::from_vec(s.shape(), s.as_slice().iter().map(|&v| 0.5 * v - 1.0).collect()))
        .collect();
    let cfg32 = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB32)).chunked(4);
    let cfg64 = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(EB64));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg32, keyframe_every, &steps32).unwrap();
    w.write_dataset("velocity", &cfg32, keyframe_every, &velocity).unwrap();
    w.write_dataset("energy", &cfg64, keyframe_every, &steps64).unwrap();
    w.finalize().unwrap().sink
}

/// The little-endian bytes of one read on `cat`, or its error text.
fn read_op<R: std::io::Read + std::io::Seek + Send>(
    cat: &CatalogReader<R>,
    (name, t): Op,
) -> Result<Vec<u8>, String> {
    let values = match name {
        "energy" => cat.read_step::<f64>(name, t).map(|f| le_bytes(f.as_slice())),
        _ => cat.read_step::<f32>(name, t).map(|f| le_bytes(f.as_slice())),
    };
    values.map_err(|e| e.to_string())
}

/// The same read on a reader of its own, opened for it alone.
fn fresh_read(bytes: &[u8], op: Op) -> Result<Vec<u8>, String> {
    read_op(&CatalogReader::open(Cursor::new(bytes)).unwrap(), op)
}

/// Run `order` on the one reader `cat` and require every result to equal
/// the fresh read of its op in `fresh`.
fn reads_match_fresh<R: std::io::Read + std::io::Seek + Send>(
    cat: &CatalogReader<R>,
    order: &[Op],
    fresh: &dyn Fn(Op) -> Result<Vec<u8>, String>,
    what: &str,
) {
    for (i, &op) in order.iter().enumerate() {
        assert!(read_op(cat, op) == fresh(op), "{what}: read {i} of {order:?} ({op:?}) differs");
    }
}

#[test]
fn read_order_does_not_change_a_step() {
    // `read_step` resumes from the step the reader last reconstructed; in
    // no order of reads — interleaved datasets, forward, backward, shuffled
    // with repeats, or from two threads sharing the reader — may a step
    // differ from a read of it on a fresh reader, at cadence 1 (nothing to
    // resume) and 3.
    let n = 7;
    for keyframe_every in [1usize, 3] {
        let bytes = three_dataset_catalog(n, keyframe_every);
        let ops: Vec<Op> = NAMES
            .into_iter()
            .flat_map(|name| (0..n).map(move |t| (name, t)))
            .collect();
        let want: std::collections::HashMap<Op, Vec<u8>> =
            ops.iter().map(|&op| (op, fresh_read(&bytes, op).unwrap())).collect();
        let fresh = |op: Op| Ok(want[&op].clone());

        let interleaved: Vec<Op> = (0..n).flat_map(|t| NAMES.map(|name| (name, t))).collect();
        let backward: Vec<Op> = ops.iter().rev().copied().collect();
        let mut rng = Rng(0x0DE5_EED5 + keyframe_every as u64);
        let twice: Vec<Op> = ops.iter().chain(&ops).copied().collect();
        let shuffled = rng.shuffled(twice);
        for (label, order) in [
            ("interleaved", &interleaved),
            ("forward", &ops),
            ("backward", &backward),
            ("shuffled", &shuffled),
        ] {
            let cat = CatalogReader::open(Cursor::new(&bytes[..])).unwrap();
            reads_match_fresh(&cat, order, &fresh, &format!("k={keyframe_every} {label}"));
        }

        let cat = CatalogReader::open(Cursor::new(&bytes[..])).unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for order in [&interleaved, &shuffled] {
                let (cat, fresh, start) = (&cat, &fresh, &start);
                s.spawn(move || {
                    start.wait();
                    reads_match_fresh(cat, order, fresh, "two threads")
                });
            }
        });
    }
}

/// A source that counts the bytes it serves.
struct Counting {
    inner: Cursor<Vec<u8>>,
    served: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl std::io::Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.served.fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
        Ok(n)
    }
}

impl std::io::Seek for Counting {
    fn seek(&mut self, pos: std::io::SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[test]
fn a_forward_read_decodes_each_segment_once() {
    // Reading every step in order must read from the source exactly what
    // one decode of each segment reads: each delta chain is walked once,
    // not again from its keyframe for every step.
    let n = 9;
    let bytes = three_dataset_catalog(n, 4);
    let open = || {
        let served = std::sync::Arc::default();
        let src = Counting { inner: Cursor::new(bytes.clone()), served: std::sync::Arc::clone(&served) };
        (CatalogReader::open(src).unwrap(), served)
    };
    let count = |served: &std::sync::atomic::AtomicU64| served.load(std::sync::atomic::Ordering::Relaxed);
    for name in NAMES {
        let (segments, served) = open();
        let mut once = 0;
        for t in 0..n {
            let before = count(&served);
            let archive = segments.open_step(name, t).unwrap();
            match name {
                "energy" => drop(archive.read_all::<f64>().unwrap()),
                _ => drop(archive.read_all::<f32>().unwrap()),
            }
            once += count(&served) - before;
        }

        let (cat, served) = open();
        let before = count(&served);
        for t in 0..n {
            read_op(&cat, (name, t)).unwrap();
        }
        assert_eq!(count(&served) - before, once, "{name}: bytes read walking forward");
    }
}

#[test]
fn a_failed_read_leaves_nothing_to_resume_from() {
    // Step 2 of the first keyframe group (steps 0–3) has a broken segment.
    // In any read order, steps 2 and 3 must fail, and every other step —
    // the first read after a failure included — must equal a fresh read.
    let n = 8;
    let mut bytes = three_dataset_catalog(n, 4);
    let index = CatalogReader::open(Cursor::new(&bytes[..])).unwrap().index().clone();
    let broken = index.datasets[0].steps[2];
    assert!(!broken.keyframe);
    bytes[broken.offset as usize..][..4].copy_from_slice(b"XXXX");

    let steps: Vec<Op> = (0..n).map(|t| ("pressure", t)).collect();
    let fresh = |op: Op| fresh_read(&bytes, op);
    for &op in &steps {
        assert_eq!(fresh(op).is_err(), (2..4).contains(&op.1), "fresh read of {op:?}");
    }
    let forward_twice: Vec<Op> = steps.iter().chain(&steps).copied().collect();
    let backward: Vec<Op> = steps.iter().rev().copied().collect();
    let around: Vec<Op> = [1, 2, 1, 2, 3, 0, 1, 3, 2, 1].map(|t| ("pressure", t)).to_vec();
    let mut orders = vec![forward_twice.clone(), backward, around];
    let mut rng = Rng(0x00FA_11ED);
    orders.extend((0..6).map(|_| rng.shuffled(forward_twice.clone())));
    for (i, order) in orders.iter().enumerate() {
        let cat = CatalogReader::open(Cursor::new(&bytes[..])).unwrap();
        reads_match_fresh(&cat, order, &fresh, &format!("order {i}"));
    }
}

/// [`catalog_bytes_are_pinned`]: FNV-1a of every catalog it writes, folded
/// in write order.
const CATALOG_BYTES_PIN: u64 = 0x6179_808b_1e5a_16cd;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `steps` with escapes planted in steps 1 and 3 (a delta and a keyframe
/// step at cadence 3): values far past the quantizer's radius, ±inf, NaN
/// and −0.0.
fn with_escapes<T: Scalar>(steps: &[NdArray<T>]) -> Vec<NdArray<T>> {
    let specials =
        [1e4, -3e4, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 2e4, -0.0].map(T::from_f64);
    let mut out = steps.to_vec();
    for t in [1, 3] {
        let mut v = out[t].as_slice().to_vec();
        let n = v.len();
        for (k, &s) in specials.iter().enumerate() {
            v[(k * 113 + t * 7) % n] = s;
        }
        out[t] = NdArray::from_vec(out[t].shape(), v);
    }
    out
}

#[test]
fn catalog_bytes_are_pinned() {
    // Every codec path the catalog writer takes, at both scalar widths,
    // two keyframe cadences and two thread counts: a change to how the
    // writer advances its reconstruction must move no byte of any catalog.
    let (steps32, steps64) = sequences(5);
    let (esc32, esc64) = (with_escapes(&steps32), with_escapes(&steps64));
    let configs = [
        ("lorenzo", PredictorKind::Lorenzo, CodecChoice::Sz),
        ("lorenzo2", PredictorKind::Lorenzo2, CodecChoice::Sz),
        ("interpolation", PredictorKind::Interpolation, CodecChoice::Sz),
        ("regression", PredictorKind::Regression, CodecChoice::Sz),
        ("zfp", PredictorKind::Lorenzo, CodecChoice::Zfp),
        ("rolz", PredictorKind::Lorenzo, CodecChoice::Rolz),
        ("auto", PredictorKind::Lorenzo, CodecChoice::Auto),
    ];
    let mut all = 0xcbf2_9ce4_8422_2325u64;
    let mut cases = Vec::new();
    for keyframe_every in [1usize, 3] {
        for threads in [1usize, 2] {
            let mut w = CatalogWriter::create(Vec::new()).unwrap();
            for (name, predictor, codec) in configs {
                let cfg = |eb| {
                    CompressorConfig::new(predictor, ErrorBoundMode::Abs(eb))
                        .chunked(4)
                        .with_codec(codec)
                        .with_threads(threads)
                };
                w.write_dataset(&format!("{name}32"), &cfg(EB32), keyframe_every, &steps32)
                    .unwrap();
                w.write_dataset(&format!("{name}64"), &cfg(EB64), keyframe_every, &steps64)
                    .unwrap();
                if codec != CodecChoice::Sz {
                    continue;
                }
                w.write_dataset(&format!("{name}32_escapes"), &cfg(EB32), keyframe_every, &esc32)
                    .unwrap();
                w.write_dataset(&format!("{name}64_escapes"), &cfg(EB64), keyframe_every, &esc64)
                    .unwrap();
            }
            let bytes = w.finalize().unwrap().sink;
            let digest = fnv1a(0xcbf2_9ce4_8422_2325, &bytes);
            all = fnv1a(all, &digest.to_le_bytes());
            cases.push(format!("  {digest:#018x} cadence {keyframe_every}, {threads} thread(s)"));
        }
    }
    assert_eq!(
        all,
        CATALOG_BYTES_PIN,
        "catalog digest {all:#018x}, pinned {CATALOG_BYTES_PIN:#018x}; per catalog:\n{}",
        cases.join("\n")
    );
}
