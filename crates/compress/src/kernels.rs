//! Test access to what the public API does not reach of the chunk kernel.
//!
//! Hidden from the public docs on purpose: `tests/kernel_differential.rs`
//! drives the SZ and ROLZ codecs through [`crate::ChunkCodec`], and needs
//! only two more things — an SZ codec under a point-wise relative bound
//! (the log transform is crate-internal) and the Lorenzo traversal alone.

use crate::codec::SzChunkCodec;
use crate::config::LosslessStage;
use crate::container::DecompressError;
use crate::pipeline::Transform;
use rq_grid::Shape;
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// The SZ codec of a point-wise relative bound `ratio`: values quantized as
/// `ln(v)` under `ln(1 + ratio)`, non-positive ones escaped.
pub fn pointwise_codec(predictor: PredictorKind, ratio: f64, radius: u32) -> SzChunkCodec {
    let eb = rq_quant::ErrorBoundMode::PointwiseRelative(ratio).absolute(0.0);
    SzChunkCodec::new(predictor, LinearQuantizer::new(eb, radius), LosslessStage::RleLzss)
        .with_transform(Transform::Log { ratio })
}

/// Run one Lorenzo traversal with the caller's visit closure: the
/// predictor hot loop alone.
pub fn traverse_lorenzo(
    shape: Shape,
    order: usize,
    visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    crate::pipeline::traverse_lorenzo(shape, order, visit)
}
