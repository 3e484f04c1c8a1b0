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
    let conc = DatasetReader::<f32>::open_path(&path, "pressure").unwrap();
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
    let conc = DatasetReader::<f32>::open_path(&path, "wave").unwrap();
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
