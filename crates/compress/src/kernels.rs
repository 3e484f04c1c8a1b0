//! Test access to what the public API does not reach of the chunk kernel.
//!
//! Hidden from the public docs on purpose: `tests/kernel_differential.rs`
//! drives the SZ and ROLZ codecs through [`crate::ChunkCodec`], and needs
//! only a few more things — an SZ codec under a point-wise relative bound
//! (the log transform is crate-internal), the Lorenzo traversal alone, and
//! the ROLZ token pass with the code byte stream it runs over.

use crate::codec::SzChunkCodec;
use crate::config::LosslessStage;
use crate::container::DecompressError;
use crate::pipeline::{quantize_stream, Transform};
use rq_grid::{Scalar, Shape};
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

/// The code byte stream a ROLZ chunk encodes: `data` quantized along
/// `predictor`'s traversal, each symbol a zigzag varint around the zero code.
pub fn rolz_code_bytes<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
) -> Vec<u8> {
    let q = quantize_stream(data, shape, predictor, quantizer, Transform::Identity, None);
    crate::rolz::symbols_to_bytes(&q.symbols, quantizer.zero_symbol())
}

/// The ROLZ token pass over a code byte stream, before Huffman coding:
/// `(tokens, lens, raws, histogram)`.
pub fn rolz_tokens(bytes: &[u8]) -> (Vec<u32>, Vec<u8>, Vec<u8>, Vec<u64>) {
    let t = crate::rolz::rolz_compress(bytes);
    (t.tokens, t.lens, t.raws, t.histogram)
}
