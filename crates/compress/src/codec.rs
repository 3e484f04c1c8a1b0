//! The per-chunk codec abstraction.
//!
//! The container lets every axis-0 slab be compressed by a different
//! backend. This module unifies the backends behind one trait (the third,
//! [`crate::RolzChunkCodec`], lives in [`crate::rolz`]):
//!
//! * [`SzChunkCodec`] — the SZ prediction path assembled from
//!   `rq-predict` + `rq-quant` + `rq-encoding` (the chunk kernel of
//!   [`crate::pipeline`], serialized as a chunk blob);
//! * [`ZfpChunkCodec`] — the `rq-zfp` transform path (block transform +
//!   embedded bitplane coder, serialized as a self-describing `RQZF`
//!   stream).
//!
//! Both honor the same resolved absolute error bound, which is what makes
//! them interchangeable per chunk: whichever backend the scheduler picks,
//! `max|x − x′| ≤ eb` holds for the slab.

use crate::config::LosslessStage;
use crate::container::{
    read_chunk_blob, write_chunk_blob, ChunkCodecKind, CompressError, DecompressError,
};
use crate::pipeline::{decode_stream, encode_stream, KernelPath, Transform};
use rq_grid::{Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// Counts of the symbols `first .. first + counts.len()`; every symbol
/// outside that window has count 0. A chunk's quantization codes cluster
/// around the zero code, so the window is some hundred bins wide where the
/// alphabet has 65 537.
#[derive(Clone, Debug, Default)]
pub struct SymbolWindow {
    /// Symbol of `counts[0]`.
    pub first: u32,
    /// Counts of consecutive symbols (zeros at either end are allowed).
    pub counts: Vec<u64>,
}

impl SymbolWindow {
    /// Count one occurrence of `symbol`, widening the window to it if need
    /// be.
    #[inline]
    pub(crate) fn bump(&mut self, symbol: u32) {
        match self.counts.get_mut(symbol.wrapping_sub(self.first) as usize) {
            Some(count) => *count += 1,
            None => self.widen_and_bump(symbol),
        }
    }

    /// The window at least doubles on the side that was short, so widening
    /// costs O(final width) over a chunk.
    #[cold]
    fn widen_and_bump(&mut self, symbol: u32) {
        let width = self.counts.len() as u32;
        if width == 0 {
            self.first = symbol;
        }
        if symbol < self.first {
            let first = symbol.min(self.first.saturating_sub(width));
            self.counts.splice(0..0, std::iter::repeat_n(0, (self.first - first) as usize));
            self.first = first;
        } else {
            let end = (symbol - self.first + 1).max(width.saturating_mul(2));
            self.counts.resize(end as usize, 0);
        }
        self.counts[(symbol - self.first) as usize] += 1;
    }

    /// `(symbol, count)` of the symbols that occurred, ascending.
    pub fn present(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (self.first..).zip(&self.counts).filter(|&(_, &c)| c > 0).map(|(s, &c)| (s, c))
    }
}

/// Per-chunk encoding statistics, aggregated into the
/// [`crate::CompressionReport`].
///
/// The SZ path fills every field; the ZFP path has no symbol stream, so
/// its stats are all zero (its cost shows up only in the blob length).
#[derive(Clone, Debug, Default)]
pub struct ChunkStats {
    /// Counts of the quantized symbols (empty for ZFP chunks). Escapes are
    /// not in it: they are `n_escapes`.
    pub histogram: SymbolWindow,
    /// Number of quantization symbols emitted.
    pub n_symbols: usize,
    /// Number of escape (verbatim) values among the symbols.
    pub n_escapes: usize,
    /// Number of interpolation anchors stored verbatim.
    pub n_anchors: usize,
    /// Payload bytes before the optional lossless stage.
    pub huffman_bytes: usize,
    /// Payload bytes after the optional lossless stage.
    pub encoded_bytes: usize,
    /// Serialized codebook bytes.
    pub codebook_bytes: usize,
    /// Side-channel bytes (regression coefficients).
    pub side_bytes: usize,
}

/// One error-bounded chunk codec: encodes an axis-0 slab to a
/// self-contained blob and decodes it back into a caller-provided slice.
///
/// Implementations must be pure functions of `(data, shape)` plus their
/// own configuration — the chunk-parallel pipeline relies on that to keep
/// container bytes independent of the worker-thread count.
pub trait ChunkCodec<T: Scalar>: Sync {
    /// The container tag recorded for blobs this codec produces.
    fn kind(&self) -> ChunkCodecKind;

    /// Encode one slab (`data.len() == shape.len()`).
    fn encode(&self, data: &[T], shape: Shape) -> Result<(Vec<u8>, ChunkStats), CompressError>;

    /// Decode one blob into `out` (`out.len() == shape.len()`).
    fn decode(&self, blob: &[u8], shape: Shape, out: &mut [T])
        -> Result<(), DecompressError>;
}

/// The SZ prediction path as a [`ChunkCodec`].
#[derive(Clone, Copy, Debug)]
pub struct SzChunkCodec {
    /// Predictor family for the causal traversal.
    pub predictor: PredictorKind,
    /// Quantizer (absolute bound + radius).
    pub quantizer: LinearQuantizer,
    /// Value-domain transform (identity, or log for point-wise relative
    /// bounds).
    pub(crate) transform: Transform,
    /// Optional lossless stage configuration.
    pub lossless: LosslessStage,
    /// Which kernel implementations to run (production is always
    /// [`KernelPath::Fast`]; the reference path is the oracle of the
    /// differential tests).
    pub(crate) path: KernelPath,
}

impl SzChunkCodec {
    /// Codec for a resolved absolute bound with the identity transform.
    pub fn new(predictor: PredictorKind, quantizer: LinearQuantizer, lossless: LosslessStage) -> Self {
        SzChunkCodec {
            predictor,
            quantizer,
            transform: Transform::Identity,
            lossless,
            path: KernelPath::Fast,
        }
    }

    /// Same, with an explicit transform (crate-internal: the transform
    /// enum is not public API).
    pub(crate) fn with_transform(mut self, transform: Transform) -> Self {
        self.transform = transform;
        self
    }

    /// Same, forcing a kernel path (crate-internal: used by the
    /// `kernels` test surface; the container bytes are identical
    /// either way, which is exactly what the differential tests assert).
    pub(crate) fn with_kernel_path(mut self, path: KernelPath) -> Self {
        self.path = path;
        self
    }
}

impl<T: Scalar> ChunkCodec<T> for SzChunkCodec {
    fn kind(&self) -> ChunkCodecKind {
        ChunkCodecKind::Sz
    }

    fn encode(&self, data: &[T], shape: Shape) -> Result<(Vec<u8>, ChunkStats), CompressError> {
        let stream = encode_stream(
            data,
            shape,
            self.predictor,
            self.quantizer,
            self.transform,
            self.lossless,
            self.path,
        )?;
        let blob = write_chunk_blob::<T>(
            stream.lossless_applied,
            &stream.codebook,
            &stream.payload,
            &stream.verbatim,
            &stream.side,
        );
        let stats = ChunkStats {
            n_symbols: stream.n_symbols,
            n_escapes: stream.n_escapes,
            n_anchors: stream.n_anchors,
            huffman_bytes: stream.huffman_bytes,
            encoded_bytes: stream.payload.len(),
            codebook_bytes: stream.codebook.len(),
            side_bytes: stream.side.len(),
            histogram: stream.histogram,
        };
        Ok((blob, stats))
    }

    fn decode(
        &self,
        blob: &[u8],
        shape: Shape,
        out: &mut [T],
    ) -> Result<(), DecompressError> {
        let (lossless, body) = read_chunk_blob::<T>(blob)?;
        decode_stream(
            &body,
            lossless,
            shape,
            self.predictor,
            self.quantizer,
            self.transform,
            self.path,
            out,
        )
    }
}

/// The ZFP transform path as a [`ChunkCodec`].
///
/// Only valid for identity-transform (absolute / value-range-relative)
/// bounds: the bitplane coder has no escape mechanism for the log-domain
/// trick that realizes point-wise relative bounds.
#[derive(Clone, Copy, Debug)]
pub struct ZfpChunkCodec {
    /// Absolute error bound the bitplane truncation guarantees.
    pub tolerance: f64,
}

impl ZfpChunkCodec {
    /// Codec for a resolved absolute bound.
    pub fn new(tolerance: f64) -> Self {
        ZfpChunkCodec { tolerance }
    }
}

impl<T: Scalar> ChunkCodec<T> for ZfpChunkCodec {
    fn kind(&self) -> ChunkCodecKind {
        ChunkCodecKind::Zfp
    }

    fn encode(&self, data: &[T], shape: Shape) -> Result<(Vec<u8>, ChunkStats), CompressError> {
        // The tolerance was validated upstream by resolve_bound, so any
        // failure here is a codec problem, not a bound problem.
        let blob = rq_zfp::zfp_compress_slice(data, shape, self.tolerance)
            .map_err(|e| CompressError::Unsupported(format!("zfp chunk encoding: {e}")))?;
        Ok((blob, ChunkStats::default()))
    }

    fn decode(
        &self,
        blob: &[u8],
        shape: Shape,
        out: &mut [T],
    ) -> Result<(), DecompressError> {
        rq_zfp::zfp_decompress_into(blob, shape, out).map_err(|e| match e {
            rq_zfp::ZfpError::ScalarMismatch => {
                DecompressError::Corrupt("zfp chunk scalar tag")
            }
            rq_zfp::ZfpError::Corrupt(what) => DecompressError::Corrupt(what),
            rq_zfp::ZfpError::BadTolerance(_) => DecompressError::Corrupt("zfp tolerance"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_quant::DEFAULT_RADIUS;

    fn slab() -> (Vec<f32>, Shape) {
        let shape = Shape::d2(12, 20);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(((ix[0] as f32) * 0.4).sin() * 3.0 + (ix[1] as f32) * 0.05);
        }
        (data, shape)
    }

    fn roundtrip_codec(codec: &dyn ChunkCodec<f32>, eb: f64) {
        let (data, shape) = slab();
        let (blob, _stats) = codec.encode(&data, shape).unwrap();
        let mut out = vec![0f32; shape.len()];
        codec.decode(&blob, shape, &mut out).unwrap();
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                "element {i}: |{a} - {b}| > {eb}"
            );
        }
    }

    #[test]
    fn symbol_window_counts_like_a_dense_histogram() {
        let mut st = 0x05EE_D0FC_0DE5_u64;
        for spread in [1u64, 3, 100, 70_000] {
            let mut window = SymbolWindow::default();
            let mut dense = vec![0u64; 70_000];
            for _ in 0..5_000 {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                // Mostly near the centre, now and then anywhere.
                let symbol = if st.is_multiple_of(50) {
                    (st >> 8) % spread
                } else {
                    (32_768 + (st >> 8) % spread.min(40)).min(spread - 1)
                } as u32;
                window.bump(symbol);
                dense[symbol as usize] += 1;
            }
            let expected: Vec<(u32, u64)> = (0..)
                .zip(&dense)
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (s, c))
                .collect();
            assert_eq!(window.present().collect::<Vec<_>>(), expected, "spread {spread}");
            assert!(window.counts.len() <= 2 * spread as usize + 2);
        }
    }

    #[test]
    fn sz_codec_roundtrips_within_bound() {
        let eb = 1e-3;
        let codec = SzChunkCodec::new(
            PredictorKind::Lorenzo,
            LinearQuantizer::new(eb, DEFAULT_RADIUS),
            LosslessStage::RleLzss,
        );
        roundtrip_codec(&codec, eb);
    }

    #[test]
    fn zfp_codec_roundtrips_within_bound() {
        let eb = 1e-3;
        roundtrip_codec(&ZfpChunkCodec::new(eb), eb);
    }

    #[test]
    fn codecs_reject_each_others_blobs() {
        let (data, shape) = slab();
        let eb = 1e-3;
        let sz = SzChunkCodec::new(
            PredictorKind::Lorenzo,
            LinearQuantizer::new(eb, DEFAULT_RADIUS),
            LosslessStage::RleLzss,
        );
        let zfp = ZfpChunkCodec::new(eb);
        let (sz_blob, _) = ChunkCodec::<f32>::encode(&sz, &data, shape).unwrap();
        let (zfp_blob, _) = ChunkCodec::<f32>::encode(&zfp, &data, shape).unwrap();
        let mut out = vec![0f32; shape.len()];
        assert!(ChunkCodec::<f32>::decode(&sz, &zfp_blob, shape, &mut out).is_err());
        assert!(ChunkCodec::<f32>::decode(&zfp, &sz_blob, shape, &mut out).is_err());
    }

    #[test]
    fn zfp_codec_checks_shape() {
        let (data, shape) = slab();
        let zfp = ZfpChunkCodec::new(1e-3);
        let (blob, _) = ChunkCodec::<f32>::encode(&zfp, &data, shape).unwrap();
        let wrong = Shape::d2(20, 12);
        let mut out = vec![0f32; wrong.len()];
        assert!(matches!(
            ChunkCodec::<f32>::decode(&zfp, &blob, wrong, &mut out),
            Err(DecompressError::Corrupt("shape mismatch"))
        ));
    }
}
