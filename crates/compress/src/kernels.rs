//! Test access to the chunk kernels.
//!
//! Hidden from the public docs on purpose: this surface exists so
//! `tests/kernel_differential.rs` can drive the fast and reference
//! kernel paths against each other at the chunk-blob level, without
//! widening the real API. The container format is identical on both
//! paths — that identity is the whole point.

use crate::codec::{ChunkCodec, SzChunkCodec};
use crate::config::LosslessStage;
use crate::container::{CompressError, DecompressError};
pub use crate::pipeline::KernelPath;
use crate::pipeline::Transform;
use rq_grid::{Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// Encode one slab to an SZ chunk blob on the chosen kernel path.
///
/// Identical inputs must produce byte-identical blobs on both paths.
pub fn encode_chunk<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    lossless: LosslessStage,
    path: KernelPath,
) -> Result<Vec<u8>, CompressError> {
    let codec = SzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius), lossless)
        .with_kernel_path(path);
    Ok(codec.encode(data, shape)?.0)
}

/// Decode an SZ chunk blob produced by [`encode_chunk`] on the chosen
/// kernel path. Both paths must reconstruct bit-identical values and
/// accept/reject exactly the same blobs.
pub fn decode_chunk<T: Scalar>(
    blob: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
    out: &mut [T],
) -> Result<(), DecompressError> {
    let codec = SzChunkCodec::new(
        predictor,
        LinearQuantizer::new(eb, radius),
        LosslessStage::RleLzss, // per-blob flag byte is authoritative
    )
    .with_kernel_path(path);
    codec.decode(blob, shape, out)
}

/// The codec of a point-wise relative bound `ratio`: values quantized as
/// `ln(v)` under `ln(1 + ratio)`, non-positive ones escaped.
fn pointwise_codec(
    predictor: PredictorKind,
    ratio: f64,
    radius: u32,
    path: KernelPath,
) -> SzChunkCodec {
    let eb = rq_quant::ErrorBoundMode::PointwiseRelative(ratio).absolute(0.0);
    SzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius), LosslessStage::RleLzss)
        .with_transform(Transform::Log { ratio })
        .with_kernel_path(path)
}

/// [`encode_chunk`] under a point-wise relative bound (the log transform).
pub fn encode_chunk_pointwise<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    ratio: f64,
    radius: u32,
    path: KernelPath,
) -> Result<Vec<u8>, CompressError> {
    Ok(pointwise_codec(predictor, ratio, radius, path).encode(data, shape)?.0)
}

/// [`decode_chunk`] of a blob of [`encode_chunk_pointwise`].
pub fn decode_chunk_pointwise<T: Scalar>(
    blob: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    ratio: f64,
    radius: u32,
    path: KernelPath,
    out: &mut [T],
) -> Result<(), DecompressError> {
    pointwise_codec(predictor, ratio, radius, path).decode(blob, shape, out)
}

/// Encode one slab to a ROLZ chunk blob on the chosen kernel path.
///
/// Identical inputs must produce byte-identical blobs on both paths (the
/// paths differ in match extension — SWAR vs byte loop — and in the
/// Huffman coder, all proven output-equal).
pub fn encode_chunk_rolz<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
) -> Result<Vec<u8>, CompressError> {
    let codec = crate::rolz::RolzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius))
        .with_kernel_path(path);
    Ok(codec.encode(data, shape)?.0)
}

/// Decode a ROLZ chunk blob produced by [`encode_chunk_rolz`] on the
/// chosen kernel path. Both paths must reconstruct bit-identical values
/// and accept/reject exactly the same blobs.
pub fn decode_chunk_rolz<T: Scalar>(
    blob: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
    path: KernelPath,
    out: &mut [T],
) -> Result<(), DecompressError> {
    let codec = crate::rolz::RolzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius))
        .with_kernel_path(path);
    codec.decode(blob, shape, out)
}

/// Run one Lorenzo traversal with the caller's visit closure — exposes
/// the predictor hot loop alone (the fast row-specialized walk vs the
/// generic stencil walk) to the differential tests.
pub fn traverse_lorenzo(
    shape: Shape,
    order: usize,
    path: KernelPath,
    visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    crate::pipeline::traverse_lorenzo(shape, order, path, visit)
}
