//! Temporal multi-field archive catalogs (`RQCAT` containers).
//!
//! A simulation is not one field: it is N named fields, each a sequence
//! of time steps, and consecutive steps are *far* more alike than the
//! spatial stencils inside one step can express. This crate adds both
//! missing axes to the archive layer:
//!
//! * **Catalog container** — one `RQCAT` file packs every
//!   `(dataset, step)` as an embedded, byte-for-byte ordinary
//!   single-field archive, behind a trailer index (see [`mod@format`]).
//!   [`CatalogWriter`] streams segments out as they are encoded;
//!   [`CatalogReader`] opens its source once, parses only the index, and
//!   reads every segment through a [`SubRange`] window of that one
//!   source — any segment comes back as a plain `ArchiveReader` over its
//!   window.
//! * **Time-delta coding** — step `t` stores residuals against the
//!   *reconstructed* step `t-1`
//!   ([`rq_predict::PredictorKind::TemporalDelta`]), with a keyframe
//!   every `K` steps, so random access costs at most one keyframe plus
//!   `K-1` residual decodes and the per-step absolute error bound holds
//!   without accumulation (the writer mirrors the decoder — its mirror is
//!   the encoder's own reconstruction of each segment, not a second
//!   decode; delta segments carry a small bound headroom,
//!   [`DELTA_EB_HEADROOM`]). A
//!   [`CatalogReader`] resumes from the step it last reconstructed, so a
//!   forward read costs one residual decode.
//!
//! [`DatasetReader`] flattens a dataset into one time-major
//! [`rq_compress::ChunkSource`] for concurrent serving — the layout
//! behind `rq-serve`'s `LIST_DATASETS` / `READ_STEP_ROWS` opcodes. It
//! is built from a [`CatalogReader`]'s parsed index
//! ([`DatasetReader::open`]) and reads through windows of the same
//! source, so every dataset of a catalog shares one open file.

#![forbid(unsafe_code)]

mod dataset;
mod delta;
mod error;
pub mod format;
mod reader;
mod subrange;
mod writer;

pub use dataset::DatasetReader;
pub use error::CatalogError;
pub use format::{
    is_catalog_magic, CatalogIndex, CodecSummary, DatasetEntry, StepEntry, CATALOG_MAGIC,
    CATALOG_VERSION,
};
pub use reader::CatalogReader;
pub use subrange::SubRange;
pub use writer::{CatalogWriter, DatasetWriter, FinishedCatalog, DELTA_EB_HEADROOM};

#[cfg(test)]
mod tests {
    use super::*;
    use rq_compress::{assemble_rows, ChunkSource, CompressorConfig};
    use rq_grid::{NdArray, Shape};
    use rq_predict::PredictorKind;
    use rq_quant::ErrorBoundMode;
    use std::io::Cursor;

    fn wavy_steps(n: usize, shape: Shape, drift: f32) -> Vec<NdArray<f32>> {
        (0..n)
            .map(|t| {
                NdArray::from_fn(shape, |ix| {
                    let x = ix[0] as f32 * 0.21 + t as f32 * drift;
                    let y = ix.get(1).copied().unwrap_or(0) as f32 * 0.13;
                    (x + y).sin() * 3.0 + x.cos()
                })
            })
            .collect()
    }

    fn cfg(eb: f64) -> CompressorConfig {
        CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb)).chunked(7)
    }

    #[test]
    fn roundtrip_two_datasets_within_bound() {
        let steps = wavy_steps(6, Shape::d2(20, 24), 0.05);
        let steps64: Vec<NdArray<f64>> = steps
            .iter()
            .map(|s| {
                NdArray::from_vec(
                    s.shape(),
                    s.as_slice().iter().map(|&v| v as f64).collect(),
                )
            })
            .collect();

        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        w.write_dataset("a", &cfg(1e-3), 3, &steps).unwrap();
        w.write_dataset("b", &cfg(1e-4), 1, &steps64).unwrap();
        let fin = w.finalize().unwrap();
        assert_eq!(fin.bytes_written as usize, fin.sink.len());

        let r = CatalogReader::open(Cursor::new(fin.sink)).unwrap();
        assert_eq!(r.datasets().len(), 2);
        for t in 0..6 {
            let dec = r.read_step::<f32>("a", t).unwrap();
            for (a, b) in dec.as_slice().iter().zip(steps[t].as_slice()) {
                assert!((a - b).abs() <= 1e-3, "step {t}: {a} vs {b}");
            }
            let dec = r.read_step::<f64>("b", t).unwrap();
            for (a, b) in dec.as_slice().iter().zip(steps64[t].as_slice()) {
                assert!((a - b).abs() <= 1e-4, "step {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn keyframe_flags_follow_the_cadence() {
        let steps = wavy_steps(7, Shape::d1(200), 0.1);
        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        w.write_dataset("x", &cfg(1e-3), 3, &steps).unwrap();
        let fin = w.finalize().unwrap();
        let flags: Vec<bool> =
            fin.index.datasets[0].steps.iter().map(|s| s.keyframe).collect();
        assert_eq!(flags, [true, false, false, true, false, false, true]);
    }

    #[test]
    fn typed_errors_for_lookups() {
        let steps = wavy_steps(2, Shape::d1(64), 0.1);
        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        w.write_dataset("x", &cfg(1e-3), 2, &steps).unwrap();
        let bytes = w.finalize().unwrap().sink;
        let r = CatalogReader::open(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            r.read_step::<f32>("y", 0),
            Err(CatalogError::DatasetNotFound(_))
        ));
        assert!(matches!(
            r.read_step::<f32>("x", 2),
            Err(CatalogError::StepOutOfRange { step: 2, n_steps: 2 })
        ));
        assert!(matches!(
            r.read_step::<f64>("x", 0),
            Err(CatalogError::ScalarMismatch { expected: 0x04, found: 0x08 })
        ));
    }

    #[test]
    fn writer_rejects_bad_configs() {
        let steps = wavy_steps(2, Shape::d1(64), 0.1);
        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        assert!(matches!(
            w.write_dataset("x", &cfg(1e-3), 0, &steps),
            Err(CatalogError::InvalidConfig(_))
        ));
        let rel = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::ValueRangeRelative(1e-3),
        );
        assert!(matches!(
            w.write_dataset("x", &rel, 1, &steps),
            Err(CatalogError::InvalidConfig(_))
        ));
        w.write_dataset("x", &cfg(1e-3), 1, &steps).unwrap();
        assert!(matches!(
            w.write_dataset("x", &cfg(1e-3), 1, &steps),
            Err(CatalogError::InvalidConfig(_))
        ));
    }

    #[test]
    fn open_step_exposes_a_plain_archive() {
        let steps = wavy_steps(4, Shape::d2(16, 16), 0.05);
        let mut w = CatalogWriter::create(Vec::new()).unwrap();
        w.write_dataset("x", &cfg(1e-3), 2, &steps).unwrap();
        let bytes = w.finalize().unwrap().sink;
        let r = CatalogReader::open(Cursor::new(bytes)).unwrap();
        // Keyframe step: the segment decodes to the field directly.
        let ar = r.open_step("x", 2).unwrap();
        assert_eq!(ar.header().shape.dims(), &[16, 16]);
        let dec = ar.read_all::<f32>().unwrap();
        for (a, b) in dec.as_slice().iter().zip(steps[2].as_slice()) {
            assert!((a - b).abs() <= 1e-3);
        }
        // Delta step: a residual stream under the TemporalDelta tag.
        let ar = r.open_step("x", 3).unwrap();
        assert_eq!(ar.header().predictor, PredictorKind::TemporalDelta);
    }

    #[test]
    fn dataset_reader_matches_sequential_decode() {
        let dir = std::env::temp_dir().join(format!("rqcat-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.rqc");
        let steps = wavy_steps(5, Shape::d2(20, 12), 0.07);
        let mut w = CatalogWriter::create(std::fs::File::create(&path).unwrap()).unwrap();
        w.write_dataset("x", &cfg(1e-3), 2, &steps).unwrap();
        w.finalize().unwrap();

        let cat = CatalogReader::open_path(&path).unwrap();
        let ds = DatasetReader::<f32>::open(&cat, "x").unwrap();
        assert_eq!(ds.n_steps(), 5);
        assert_eq!(ds.step_rows(), 20);
        for t in 0..5 {
            let want = cat.read_step::<f32>("x", t).unwrap();
            let rows = t * ds.step_rows()..(t + 1) * ds.step_rows();
            let got = assemble_rows(&ds, rows).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "step {t} differs");
        }
        // Single chunks decode too (the serve path).
        let arc = ds.fetch_chunk(ds.chunks_per_step() * 4).unwrap();
        assert_eq!(&arc[..], &cat.read_step::<f32>("x", 4).unwrap().as_slice()[..arc.len()]);
        std::fs::remove_file(&path).ok();
    }
}
