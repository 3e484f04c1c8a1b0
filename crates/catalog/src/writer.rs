//! Streaming catalog writer.

use crate::delta::{add_residual, residual};
use crate::error::CatalogError;
use crate::format::{
    encode_trailer, CatalogIndex, CodecSummary, DatasetEntry, StepEntry, CATALOG_MAGIC,
    CATALOG_VERSION, TRAILER_MAGIC,
};
use rq_compress::{compress_mirrored, resolved_chunk_rows, ChunkCodecKind, CompressorConfig};
use rq_grid::{NdArray, Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::ErrorBoundMode;
use std::io::Write;

/// Delta segments are coded under `eb × HEADROOM` so the two extra
/// `f64 → T` roundings of residual coding (residual formation and
/// reconstruction) cannot push a step past the user's bound.
pub const DELTA_EB_HEADROOM: f64 = 0.999;

/// Incremental `RQCAT` writer over any [`Write`] sink.
///
/// The magic is written on [`CatalogWriter::create`]; each dataset's
/// segments are appended as they are encoded (one compressed segment in
/// memory at a time — the catalog itself is never buffered); the index
/// trailer lands on [`CatalogWriter::finalize`].
///
/// ```
/// use rq_catalog::{CatalogReader, CatalogWriter};
/// use rq_compress::CompressorConfig;
/// use rq_grid::{NdArray, Shape};
/// use rq_predict::PredictorKind;
/// use rq_quant::ErrorBoundMode;
///
/// let steps: Vec<NdArray<f32>> = (0..4)
///     .map(|t| {
///         NdArray::from_fn(Shape::d2(16, 16), |ix| {
///             ((ix[0] + ix[1]) as f32 * 0.2 + t as f32 * 0.05).sin()
///         })
///     })
///     .collect();
/// let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
/// let mut w = CatalogWriter::create(Vec::new()).unwrap();
/// w.write_dataset("wave", &cfg, 2, &steps).unwrap();
/// let bytes = w.finalize().unwrap().sink;
///
/// let mut r = CatalogReader::open(std::io::Cursor::new(bytes)).unwrap();
/// let step2 = r.read_step::<f32>("wave", 2).unwrap();
/// for (a, b) in step2.as_slice().iter().zip(steps[2].as_slice()) {
///     assert!((a - b).abs() <= 1e-3);
/// }
/// ```
pub struct CatalogWriter<W: Write> {
    sink: W,
    /// Absolute offset of the next byte to be written.
    pos: u64,
    index: CatalogIndex,
}

/// The result of [`CatalogWriter::finalize`].
pub struct FinishedCatalog<W> {
    /// The sink, flushed, positioned after the trailer.
    pub sink: W,
    /// The index that was written.
    pub index: CatalogIndex,
    /// Total catalog bytes (preamble + segments + trailer).
    pub bytes_written: u64,
}

impl<W: Write> CatalogWriter<W> {
    /// Start a catalog: writes the 6-byte preamble immediately.
    pub fn create(mut sink: W) -> Result<Self, CatalogError> {
        sink.write_all(CATALOG_MAGIC)?;
        sink.write_all(&[CATALOG_VERSION])?;
        Ok(CatalogWriter { sink, pos: 6, index: CatalogIndex::default() })
    }

    /// Begin a dataset of `shape`-shaped steps, compressed under `cfg`
    /// with a keyframe every `keyframe_every` steps (1 = every step
    /// self-contained).
    ///
    /// `cfg.bound` must be [`ErrorBoundMode::Abs`]: relative bounds would
    /// resolve differently per step (and residual fields have a different
    /// value range than the data), silently changing the guarantee.
    /// Keyframes use `cfg.predictor` as given, except
    /// [`PredictorKind::TemporalDelta`], which only makes sense for
    /// residual streams and is normalized to Lorenzo.
    pub fn begin_dataset<T: Scalar>(
        &mut self,
        name: &str,
        cfg: &CompressorConfig,
        keyframe_every: usize,
        shape: Shape,
    ) -> Result<DatasetWriter<'_, W, T>, CatalogError> {
        if name.is_empty() {
            return Err(CatalogError::InvalidConfig("dataset name must not be empty"));
        }
        if name.len() > 4096 {
            return Err(CatalogError::InvalidConfig("dataset name longer than 4096 bytes"));
        }
        if self.index.find(name).is_some() {
            return Err(CatalogError::InvalidConfig("duplicate dataset name"));
        }
        if keyframe_every == 0 {
            return Err(CatalogError::InvalidConfig("keyframe cadence must be at least 1"));
        }
        let eb = match cfg.bound {
            ErrorBoundMode::Abs(eb) if eb.is_finite() && eb > 0.0 => eb,
            ErrorBoundMode::Abs(_) => {
                return Err(CatalogError::InvalidConfig(
                    "absolute bound must be finite and positive",
                ))
            }
            _ => {
                return Err(CatalogError::InvalidConfig(
                    "catalog datasets require an absolute error bound",
                ))
            }
        };

        // Pin the chunk partition once: every step of the dataset uses the
        // same axis-0 slabs, so chunk c of step t aligns with chunk c of
        // step t-1 and the delta recursion works chunk-by-chunk.
        let chunk_rows = resolved_chunk_rows(cfg, shape);
        let mut key_cfg = cfg.chunked(chunk_rows);
        if key_cfg.predictor == PredictorKind::TemporalDelta {
            key_cfg.predictor = PredictorKind::Lorenzo;
        }
        let mut delta_cfg =
            key_cfg.with_bound(ErrorBoundMode::Abs(eb * DELTA_EB_HEADROOM));
        delta_cfg.predictor = PredictorKind::TemporalDelta;

        Ok(DatasetWriter {
            cat: self,
            entry: DatasetEntry {
                name: name.to_string(),
                scalar_tag: T::TAG,
                shape,
                keyframe_every,
                steps: Vec::new(),
            },
            key_cfg,
            delta_cfg,
            user_eb: eb,
            recon: Vec::new(),
            t: 0,
        })
    }

    /// Convenience: write a whole dataset from an in-memory step slice.
    pub fn write_dataset<T: Scalar>(
        &mut self,
        name: &str,
        cfg: &CompressorConfig,
        keyframe_every: usize,
        steps: &[NdArray<T>],
    ) -> Result<(), CatalogError> {
        let first = steps
            .first()
            .ok_or(CatalogError::InvalidConfig("dataset needs at least one step"))?;
        let mut dw = self.begin_dataset::<T>(name, cfg, keyframe_every, first.shape())?;
        for step in steps {
            dw.write_step(step)?;
        }
        dw.finish()
    }

    /// Datasets finished so far.
    pub fn datasets(&self) -> &[DatasetEntry] {
        &self.index.datasets
    }

    /// Bytes written so far (preamble + finished segments).
    pub fn bytes_written(&self) -> u64 {
        self.pos
    }

    /// Write the index trailer and flush.
    pub fn finalize(mut self) -> Result<FinishedCatalog<W>, CatalogError> {
        let body = encode_trailer(&self.index);
        self.sink.write_all(&body)?;
        self.sink.write_all(&(body.len() as u64).to_le_bytes())?;
        self.sink.write_all(TRAILER_MAGIC)?;
        self.sink.flush()?;
        Ok(FinishedCatalog {
            sink: self.sink,
            index: self.index,
            bytes_written: self.pos + body.len() as u64 + 12,
        })
    }
}

/// In-progress dataset of a [`CatalogWriter`]: feed steps in time order,
/// then [`DatasetWriter::finish`].
///
/// Dropping without `finish` leaves already-written segments as dead
/// bytes in the file (they are simply absent from the index) — harmless,
/// but wasted space.
pub struct DatasetWriter<'a, W: Write, T: Scalar> {
    cat: &'a mut CatalogWriter<W>,
    entry: DatasetEntry,
    key_cfg: CompressorConfig,
    delta_cfg: CompressorConfig,
    user_eb: f64,
    /// Decoder-mirror reconstruction of the last step: exactly what any
    /// reader will hold after decoding it, so residuals are formed
    /// against the receiver's state, not the encoder's lossless input.
    /// It is the encoder's own reconstruction of each segment
    /// ([`compress_mirrored`]), not a second pass over the bytes.
    recon: Vec<T>,
    t: usize,
}

impl<W: Write, T: Scalar> DatasetWriter<'_, W, T> {
    /// Encode and append one time step: one encode, and no decode — the
    /// decoder mirror advances by the encoder's own reconstruction of the
    /// segment.
    pub fn write_step(&mut self, field: &NdArray<T>) -> Result<(), CatalogError> {
        if field.shape().dims() != self.entry.shape.dims() {
            return Err(CatalogError::InvalidConfig(
                "time step shape differs from the dataset shape",
            ));
        }
        let is_key = self.t.is_multiple_of(self.entry.keyframe_every);

        // Encode to memory first: the segment's length goes into the index,
        // and the encoder hands back the values a reader will decode from
        // exactly these bytes.
        let (cfg, to_encode);
        if is_key {
            cfg = &self.key_cfg;
            to_encode = None;
        } else {
            cfg = &self.delta_cfg;
            to_encode = Some(NdArray::from_vec(
                self.entry.shape,
                residual(field.as_slice(), &self.recon),
            ));
        }
        let (out, report, mirror) = compress_mirrored(to_encode.as_ref().unwrap_or(field), cfg)?;
        let bytes = out.bytes;

        // Decoder mirror: advance the reconstruction the way a reader
        // will, from the encoder's reconstruction of the segment.
        if is_key {
            self.recon = mirror.into_vec();
        } else {
            add_residual(&mut self.recon, mirror.as_slice());
        }

        self.cat.sink.write_all(&bytes)?;
        self.entry.steps.push(StepEntry {
            keyframe: is_key,
            offset: self.cat.pos,
            len: bytes.len() as u64,
            codec: summarize_codecs(&report.chunk_codecs),
            eb: self.user_eb,
        });
        self.cat.pos += bytes.len() as u64;
        self.t += 1;
        Ok(())
    }

    /// Steps written so far.
    pub fn n_steps(&self) -> usize {
        self.t
    }

    /// Commit the dataset to the catalog index.
    pub fn finish(self) -> Result<(), CatalogError> {
        if self.t == 0 {
            return Err(CatalogError::InvalidConfig("dataset needs at least one step"));
        }
        self.cat.index.datasets.push(self.entry);
        Ok(())
    }
}

/// A segment's chunk codecs as the index summarizes them: ZFP is the
/// transform path, every other codec (SZ, ROLZ) a prediction path.
fn summarize_codecs(codecs: &[ChunkCodecKind]) -> CodecSummary {
    let any_zfp = codecs.contains(&ChunkCodecKind::Zfp);
    let any_prediction = codecs.iter().any(|&c| c != ChunkCodecKind::Zfp);
    match (any_prediction, any_zfp) {
        (true, true) => CodecSummary::Mixed,
        (false, true) => CodecSummary::Zfp,
        _ => CodecSummary::Sz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ChunkCodecKind::{Rolz, Sz, Zfp};

    #[test]
    fn rolz_counts_as_a_prediction_path() {
        let cases: [(&[ChunkCodecKind], CodecSummary); 7] = [
            (&[Sz], CodecSummary::Sz),
            (&[Rolz], CodecSummary::Sz),
            (&[Sz, Rolz], CodecSummary::Sz),
            (&[Zfp], CodecSummary::Zfp),
            (&[Sz, Zfp], CodecSummary::Mixed),
            (&[Rolz, Zfp], CodecSummary::Mixed),
            (&[Sz, Rolz, Zfp], CodecSummary::Mixed),
        ];
        for (codecs, want) in cases {
            assert_eq!(summarize_codecs(codecs), want, "{codecs:?}");
        }
    }
}
