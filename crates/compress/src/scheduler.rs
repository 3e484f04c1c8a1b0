//! Ratio-driven per-chunk codec selection.
//!
//! The paper's thesis is that a cheap sampled model can predict the
//! compression ratio *before* compressing, precisely so the system can
//! choose the best configuration. This module turns that from a passive
//! report into the compressor's control loop: for every axis-0 slab the
//! scheduler estimates, from small samples, what the SZ prediction path,
//! the ZFP transform path and the ROLZ residual path would each spend,
//! and hands the slab to the cheapest codec.
//!
//! Three estimators, all deterministic (container bytes must be a pure
//! function of field and configuration, so no RNG is allowed here):
//!
//! * **SZ** — [`rq_predict::sample_prediction_errors`] draws a strided
//!   sample of original-value prediction errors from the slab, and
//!   [`rq_predict::PredictionSample::estimate`] — the one Eq. 1 estimator,
//!   the same function the ratio-quality model reports as its Huffman-only
//!   rate; its corrections are described there, not here — prices it. This
//!   is where SZ's weakness is visible ahead of time: errors beyond the
//!   quantizer's code range escape to verbatim scalars, so rough
//!   high-amplitude data at tight bounds costs ≈ 32 bits/value. The price
//!   has no lossless-stage term (that model, Eq. 4–7, lives above this
//!   crate), so on near-constant slabs it sits on Huffman's 1-bit floor and
//!   the measured probes below win them.
//! * **ZFP** — the transform path has no comparably simple closed form,
//!   so the scheduler compresses small probe blocks of the slab *for
//!   real* and measures bits/value: the origin corner, the slab center
//!   and the far corner, averaged (corner-only probing judged a slab by
//!   its edges and missed interior regimes) — or the whole slab when it
//!   fits the budget.
//! * **ROLZ** — the dictionary stage's gain depends on repeat structure
//!   the entropy model cannot see, so the same probe blocks are pushed
//!   through [`RolzChunkCodec`] for real and measured.
//!
//! The two measured probes are one function (`probe`) over a
//! [`ChunkCodec`]. When it encodes the whole slab and its codec wins, that
//! encoding — blob and [`ChunkStats`] — is handed to the writer as the
//! chunk, so a slab under the probe budget is never encoded twice by its
//! winner. The three estimates together cost ≈ 1 ms per chunk
//! (`compress.scheduler_us_per_chunk` on the benchmark's `archive_auto`
//! workload, medians of three traced runs on a 2-vCPU Xeon 2.1 GHz: 1 182 µs
//! before the ROLZ match finder skipped candidates that cannot win, 961 µs
//! after) and ≈ 0.21 of the encode wall (`compress.scheduler_share` 0.246 →
//! 0.206), most of it the ROLZ probes: cheap next to encoding the chunk, in
//! the spirit of the paper's 1 % sampling pass, but not free.
//!
//! The decision rule is [`pick_codec`]: the finite minimum of the three
//! estimates, ties preferring SZ then ZFP then ROLZ, and SZ when every
//! estimate is non-finite. Non-finite estimates lose *explicitly* — the
//! historical rule compared `zfp_bits < sz_bits`, which silently picked
//! SZ whenever the SZ estimate was NaN.

use crate::codec::{ChunkCodec, ChunkStats, ZfpChunkCodec};
use crate::container::ChunkCodecKind;
use crate::rolz::RolzChunkCodec;
use rq_grid::{Scalar, Shape, MAX_DIMS};
use rq_predict::{sample_prediction_errors, PredictorKind};
use rq_quant::LinearQuantizer;

/// Sample budget for the SZ prediction-error estimate, per chunk.
const SZ_SAMPLE_POINTS: usize = 2048;

/// Element budget for one codec's probe of a chunk. Slabs at or under
/// the budget are probed whole; larger slabs are probed by
/// [`PROBE_BLOCKS`] blocks sharing the budget.
const ZFP_SAMPLE_ELEMS: usize = 4096;

/// Probe blocks cut from an over-budget slab: origin corner, center, far
/// corner.
const PROBE_BLOCKS: usize = 3;

/// One chunk's scheduling outcome.
#[derive(Clone, Copy, Debug)]
pub struct CodecDecision {
    /// The chosen codec.
    pub codec: ChunkCodecKind,
    /// The model's Huffman-only rate (`Estimate::bit_rate_huffman`) of a
    /// 2 048-point strided sample of the slab: no lossless-stage term, so on
    /// near-constant slabs it sits on the 1-bit floor while the shipped SZ
    /// stream (RLE + LZSS over Huffman) does not — measured against real
    /// ZFP and ROLZ probes.
    pub sz_bits: f64,
    /// Measured ZFP bits/value of the slab's probe blocks.
    pub zfp_bits: f64,
    /// Measured ROLZ bits/value of the slab's probe blocks.
    pub rolz_bits: f64,
}

/// Estimate all three codecs on a slab and pick the cheapest.
///
/// `data`/`shape` describe one axis-0 slab; `abs_eb` is the resolved
/// absolute bound (identity transform — the caller must not invoke the
/// scheduler for log-transform configs, where the estimates are not
/// calibrated).
pub fn choose_codec<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    abs_eb: f64,
    radius: u32,
) -> CodecDecision {
    choose_codec_with_blob(data, shape, predictor, abs_eb, radius).0
}

/// [`choose_codec`], additionally handing back the winner's encoding when
/// its probe already compressed the *whole* slab (small chunks) — blob and
/// statistics exactly as [`ChunkCodec::encode`] of that codec returns them,
/// because that is the call the probe made — so the pipeline does not encode
/// the slab a second time. `None` when SZ wins (its price is an estimate, not
/// an encoding) or the slab was probed by blocks.
pub(crate) fn choose_codec_with_blob<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    abs_eb: f64,
    radius: u32,
) -> (CodecDecision, Option<(Vec<u8>, ChunkStats)>) {
    let sz_bits = estimate_sz_bits(data, shape, predictor, abs_eb, radius);
    // The codecs the writer itself uses under the identity transform — the
    // only one the scheduler runs under.
    let (zfp_bits, zfp_ready) = probe(data, shape, &ZfpChunkCodec::new(abs_eb));
    let rolz = RolzChunkCodec::new(predictor, LinearQuantizer::new(abs_eb, radius));
    let (rolz_bits, rolz_ready) = probe(data, shape, &rolz);
    let codec = pick_codec(sz_bits, zfp_bits, rolz_bits);
    let ready = match codec {
        ChunkCodecKind::Sz => None,
        ChunkCodecKind::Zfp => zfp_ready,
        ChunkCodecKind::Rolz => rolz_ready,
    };
    (CodecDecision { codec, sz_bits, zfp_bits, rolz_bits }, ready)
}

/// Three-way `min(estimated bits)`, safe against non-finite estimates: a
/// NaN or infinite estimate can never win (it marks a failed or
/// inapplicable probe), ties keep the earlier codec in (SZ, ZFP, ROLZ)
/// order, and SZ — the configured predictor path — is the fallback when
/// every estimate is non-finite.
pub fn pick_codec(sz_bits: f64, zfp_bits: f64, rolz_bits: f64) -> ChunkCodecKind {
    let mut best = ChunkCodecKind::Sz;
    let mut best_bits = f64::INFINITY;
    for (codec, bits) in [
        (ChunkCodecKind::Sz, sz_bits),
        (ChunkCodecKind::Zfp, zfp_bits),
        (ChunkCodecKind::Rolz, rolz_bits),
    ] {
        if bits.is_finite() && bits < best_bits {
            best = codec;
            best_bits = bits;
        }
    }
    best
}

/// The one Eq. 1 estimate ([`rq_predict::PredictionSample::estimate`]) of
/// the SZ path's Huffman-only bits/value on a slab.
pub fn estimate_sz_bits<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    abs_eb: f64,
    radius: u32,
) -> f64 {
    // The sampler predicts from original values (exactly like the model's
    // §III-C pass) and promotes scalars to f64 only at the sampled
    // stencil accesses, so cost is O(sample), not O(slab).
    let sample = sample_prediction_errors(data, shape, predictor, SZ_SAMPLE_POINTS);
    sample.estimate(abs_eb, radius, T::BITS).bits_per_value
}

/// Encode a slab's probe block(s) with `codec` for real and measure
/// bits/value: the whole slab when it fits the budget — the probe then IS
/// the slab's final encoding and is returned for reuse — otherwise the
/// origin / center / far blocks, averaged. A failed encode prices the codec
/// at infinity (an invalid tolerance cannot reach here, `resolve_bound`
/// validated it): it is never picked.
fn probe<T: Scalar>(
    data: &[T],
    shape: Shape,
    codec: &impl ChunkCodec<T>,
) -> (f64, Option<(Vec<u8>, ChunkStats)>) {
    let bits_of = |blob: &[u8], shape: Shape| blob.len() as f64 * 8.0 / shape.len() as f64;
    let Some(caps) = block_probe_caps(shape) else {
        return match codec.encode(data, shape) {
            Ok(encoded) => (bits_of(&encoded.0, shape), Some(encoded)),
            Err(_) => (f64::INFINITY, None),
        };
    };
    let probe_shape = caps_shape(shape, &caps);
    let mut total_bits = 0.0f64;
    for origin in probe_origins(shape, &caps) {
        let block = copy_block(data, shape, &origin, &caps);
        match codec.encode(&block, probe_shape) {
            Ok((blob, _)) => total_bits += bits_of(&blob, probe_shape),
            Err(_) => return (f64::INFINITY, None),
        }
    }
    (total_bits / PROBE_BLOCKS as f64, None)
}

/// The block extents a probe of `shape` uses, or `None` when the whole
/// slab fits the probe budget (probe it whole). Each of the
/// [`PROBE_BLOCKS`] blocks gets an equal share of [`ZFP_SAMPLE_ELEMS`].
fn block_probe_caps(shape: Shape) -> Option<[usize; MAX_DIMS]> {
    probe_caps(shape, ZFP_SAMPLE_ELEMS)?;
    // The slab exceeds the full budget, so cutting to a third of it must
    // succeed too; fall back to whole-slab probing if it somehow cannot
    // (every axis already at the minimum block side).
    probe_caps(shape, ZFP_SAMPLE_ELEMS / PROBE_BLOCKS)
}

/// `caps` as a [`Shape`] with `shape`'s dimensionality.
fn caps_shape(shape: Shape, caps: &[usize; MAX_DIMS]) -> Shape {
    let nd = shape.ndim();
    let mut dims = [0usize; MAX_DIMS];
    dims[..nd].copy_from_slice(&caps[..nd]);
    Shape::new(&dims[..nd])
}

/// Origins of the three probe blocks: origin corner, slab center
/// (`(dim - cap) / 2` per axis) and far corner. Deterministic, so the
/// scheduler's decision stays a pure function of the slab.
fn probe_origins(shape: Shape, caps: &[usize; MAX_DIMS]) -> [[usize; MAX_DIMS]; PROBE_BLOCKS] {
    let nd = shape.ndim();
    let mut center = [0usize; MAX_DIMS];
    let mut far = [0usize; MAX_DIMS];
    for a in 0..nd {
        far[a] = shape.dim(a) - caps[a];
        center[a] = far[a] / 2;
    }
    [[0usize; MAX_DIMS], center, far]
}

/// Per-axis extents of a probe block holding at most ~`budget` elements.
/// Extents are halved largest-first (never below the ZFP block side of 4)
/// so the probe keeps the slab's dimensionality and local structure.
/// Returns `None` when the whole slab already fits the budget.
fn probe_caps(shape: Shape, budget: usize) -> Option<[usize; MAX_DIMS]> {
    let nd = shape.ndim();
    let mut caps = [0usize; MAX_DIMS];
    caps[..nd].copy_from_slice(shape.dims());
    loop {
        let len: usize = caps[..nd].iter().product();
        if len <= budget {
            break;
        }
        let Some(axis) = (0..nd).filter(|&a| caps[a] > 4).max_by_key(|&a| caps[a]) else {
            break;
        };
        caps[axis] = (caps[axis] / 2).max(4);
    }
    if caps[..nd] == shape.dims()[..nd] {
        None
    } else {
        Some(caps)
    }
}

/// Copy the rectangular block at `origin` with extents `caps` out of a
/// row-major slab.
fn copy_block<T: Scalar>(
    data: &[T],
    shape: Shape,
    origin: &[usize; MAX_DIMS],
    caps: &[usize; MAX_DIMS],
) -> Vec<T> {
    let nd = shape.ndim();
    let strides = shape.strides();
    let len: usize = caps[..nd].iter().product();
    let mut out = Vec::with_capacity(len);
    let mut idx = [0usize; MAX_DIMS];
    loop {
        let mut lin = 0usize;
        for a in 0..nd {
            lin += (origin[a] + idx[a]) * strides[a];
        }
        // Innermost axis is contiguous: copy a whole run at once.
        out.extend_from_slice(&data[lin..lin + caps[nd - 1]]);
        let mut axis = nd - 1;
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < caps[axis] {
                break;
            }
            idx[axis] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_predict::PredictionSample;
    use rq_quant::DEFAULT_RADIUS;

    fn smooth(shape: Shape) -> Vec<f32> {
        let mut out = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            out.push((((ix[0] as f64) * 0.1).sin() * 2.0 + (ix[1] as f64) * 0.01) as f32);
        }
        out
    }

    fn rough(shape: Shape, amp: f32) -> Vec<f32> {
        let mut s = 0xDEAD_BEEFu64;
        (0..shape.len())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) as f32 * amp
            })
            .collect()
    }

    #[test]
    fn smooth_slab_prefers_prediction_path() {
        let shape = Shape::d2(32, 48);
        let d = choose_codec(&smooth(shape), shape, PredictorKind::Lorenzo, 1e-3, DEFAULT_RADIUS);
        // SZ and ROLZ share the prediction front end; either may win on
        // smooth data, but the transform path must not.
        assert_ne!(d.codec, ChunkCodecKind::Zfp, "sz {} zfp {} rolz {}", d.sz_bits, d.zfp_bits, d.rolz_bits);
        assert!(d.sz_bits < 8.0);
    }

    #[test]
    fn escaping_slab_prefers_zfp() {
        // Noise amplitude far beyond the quantizer range at this bound:
        // nearly every SZ/ROLZ symbol escapes (~32 bits/value), while the
        // bitplane coder stays near log2(range / eb).
        let shape = Shape::d2(32, 48);
        let data = rough(shape, 50.0);
        let d = choose_codec(&data, shape, PredictorKind::Lorenzo, 1e-4, 256);
        assert_eq!(d.codec, ChunkCodecKind::Zfp, "sz {} zfp {} rolz {}", d.sz_bits, d.zfp_bits, d.rolz_bits);
        assert!(d.sz_bits > 30.0, "sz estimate should be near verbatim cost");
        assert!(d.rolz_bits > d.zfp_bits, "escaping data must not flatter rolz");
    }

    #[test]
    fn repetitive_slab_prefers_rolz() {
        // A strict period-8 texture: prediction residuals repeat exactly,
        // which the dictionary stage folds into matches while the order-0
        // entropy model (the SZ estimate) cannot.
        let shape = Shape::d2(48, 64);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(((ix[0] + 3 * ix[1]) % 8) as f32 * 0.37);
        }
        let d = choose_codec(&data, shape, PredictorKind::Lorenzo, 1e-4, DEFAULT_RADIUS);
        assert_eq!(d.codec, ChunkCodecKind::Rolz, "sz {} zfp {} rolz {}", d.sz_bits, d.zfp_bits, d.rolz_bits);
    }

    #[test]
    fn decisions_are_deterministic() {
        let shape = Shape::d3(16, 12, 10);
        let data = rough(shape, 3.0);
        let a = choose_codec(&data, shape, PredictorKind::Interpolation, 1e-3, DEFAULT_RADIUS);
        let b = choose_codec(&data, shape, PredictorKind::Interpolation, 1e-3, DEFAULT_RADIUS);
        assert_eq!(a.codec, b.codec);
        assert_eq!(a.sz_bits, b.sz_bits);
        assert_eq!(a.zfp_bits, b.zfp_bits);
        assert_eq!(a.rolz_bits, b.rolz_bits);
    }

    #[test]
    fn non_finite_estimates_lose_explicitly() {
        use ChunkCodecKind::*;
        // The historical rule `zfp_bits < sz_bits` evaluated false when
        // the SZ estimate was NaN and silently picked SZ; a non-finite
        // estimate must lose to any finite one.
        assert_eq!(pick_codec(f64::NAN, 1.0, f64::INFINITY), Zfp);
        assert_eq!(pick_codec(f64::NAN, 10.0, 2.0), Rolz);
        assert_eq!(pick_codec(f64::INFINITY, f64::NAN, 2.0), Rolz);
        assert_eq!(pick_codec(5.0, f64::NAN, f64::NAN), Sz);
        // All-non-finite falls back to the configured predictor path.
        assert_eq!(pick_codec(f64::NAN, f64::INFINITY, f64::NAN), Sz);
        // Ties keep the earlier codec in (sz, zfp, rolz) order.
        assert_eq!(pick_codec(7.0, 7.0, 7.0), Sz);
        assert_eq!(pick_codec(8.0, 7.0, 7.0), Zfp);
        assert_eq!(pick_codec(8.0, 7.5, 7.5), Zfp);
    }

    #[test]
    fn degenerate_sample_estimate_is_non_finite_and_loses() {
        // A hand-built empty sample leaves `estimate` nothing but its
        // overheads, where NaN side-channel bookkeeping poisons the result —
        // the decision seam must shrug it off rather than pick SZ.
        let sample = PredictionSample {
            errors: Vec::new(),
            predictor: PredictorKind::Regression,
            ndim: 2,
            n_elements: 0,
            verbatim_fraction: 0.0,
            side_bits_per_element: f64::NAN,
            sparse_count: 0,
        };
        let sz_bits = sample.estimate(1e-3, DEFAULT_RADIUS, 32).bits_per_value;
        assert!(sz_bits.is_nan());
        assert_eq!(pick_codec(sz_bits, 4.0, 6.0), ChunkCodecKind::Zfp);
    }

    #[test]
    fn all_nan_slab_decides_deterministically() {
        let shape = Shape::d2(20, 30);
        let data = vec![f32::NAN; shape.len()];
        let a = choose_codec(&data, shape, PredictorKind::Lorenzo, 1e-3, DEFAULT_RADIUS);
        let b = choose_codec(&data, shape, PredictorKind::Lorenzo, 1e-3, DEFAULT_RADIUS);
        assert_eq!(a.codec, b.codec, "non-finite data must not destabilize the pick");
    }

    #[test]
    fn probe_caps_budget_and_block_copy() {
        let shape = Shape::d3(64, 64, 64);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let caps = probe_caps(shape, 4096).expect("large slab must be cut");
        assert!(caps[..3].iter().product::<usize>() <= 4096);
        // Origin-corner copy preserves row-major order.
        let probe = copy_block(&data, shape, &[0; MAX_DIMS], &caps);
        assert_eq!(probe[0], 0.0);
        assert_eq!(probe[1], 1.0);
        // Far-corner copy starts at the opposite corner's origin.
        let mut far = [0usize; MAX_DIMS];
        for a in 0..3 {
            far[a] = shape.dim(a) - caps[a];
        }
        let probe = copy_block(&data, shape, &far, &caps);
        let strides = shape.strides();
        let lin0 = far[0] * strides[0] + far[1] * strides[1] + far[2];
        assert_eq!(probe[0], lin0 as f32);
        // Small slabs are taken whole (no copy, reusable stream).
        assert!(probe_caps(Shape::d2(8, 8), 4096).is_none());
    }

    #[test]
    fn probe_origins_include_the_center() {
        let shape = Shape::d2(96, 96);
        let caps = block_probe_caps(shape).expect("slab exceeds the probe budget");
        let [origin, center, far] = probe_origins(shape, &caps);
        assert_eq!(origin, [0; MAX_DIMS]);
        for a in 0..2 {
            assert_eq!(far[a], shape.dim(a) - caps[a]);
            assert_eq!(center[a], far[a] / 2);
            assert!(center[a] > 0 && center[a] < far[a], "center block must be interior");
        }
    }

    #[test]
    fn center_probe_flips_corner_blind_decision() {
        // Noise confined to two column bands covering both corner probe
        // blocks, smooth interior covering the center block. A
        // corner-only ZFP probe (the pre-center rule) prices the whole
        // slab like its noisy edges, loses to the SZ estimate, and hands
        // the slab to SZ — even though the smooth interior makes ZFP the
        // cheapest codec overall. The center block reveals it and the
        // decision flips.
        let shape = Shape::d2(96, 96);
        let caps = block_probe_caps(shape).expect("slab exceeds the probe budget");
        let [origin, center, far] = probe_origins(shape, &caps);
        // Smooth interior band wide enough to hold the center block with
        // margin; everything outside it is high-amplitude noise.
        let (smooth_lo, smooth_hi) = (30usize, 66usize);
        assert!(smooth_lo <= center[1] && center[1] + caps[1] <= smooth_hi);
        assert!(origin[1] + caps[1] <= smooth_lo && far[1] >= smooth_hi);
        let noise = rough(shape, 60.0);
        let sm = smooth(shape);
        let data: Vec<f32> = (0..shape.len())
            .map(|i| {
                let c = i % shape.dim(1);
                if (smooth_lo..smooth_hi).contains(&c) { sm[i] } else { noise[i] }
            })
            .collect();
        let d = choose_codec(&data, shape, PredictorKind::Lorenzo, 1e-4, 256);
        assert_eq!(
            d.codec,
            ChunkCodecKind::Zfp,
            "sz {} zfp {} rolz {}",
            d.sz_bits,
            d.zfp_bits,
            d.rolz_bits
        );
        // Reconstruct the corner-blind estimate: both corner blocks,
        // averaged — it overshoots the SZ estimate, i.e. the old rule
        // would have rejected ZFP for this slab.
        let probe_shape = caps_shape(shape, &caps);
        let mut corner_bits = 0.0;
        for o in [origin, far] {
            let probe = copy_block(&data, shape, &o, &caps);
            let bytes = rq_zfp::zfp_compress_slice(&probe, probe_shape, 1e-4).unwrap();
            corner_bits += bytes.len() as f64 * 8.0 / probe_shape.len() as f64;
        }
        corner_bits /= 2.0;
        assert!(
            corner_bits > d.sz_bits,
            "corner-blind zfp {} must lose to sz {}",
            corner_bits,
            d.sz_bits
        );
        assert!(d.zfp_bits < corner_bits, "center block must lower the zfp estimate");
    }

    #[test]
    fn whole_slab_probe_returns_reusable_blob() {
        // Chunks at or under the probe budget: the scheduler's zfp probe
        // IS the final encoding; it must be handed back for reuse and
        // match a direct compression exactly.
        let shape = Shape::d2(16, 16);
        let data = rough(shape, 50.0);
        let (d, blob) = choose_codec_with_blob(&data, shape, PredictorKind::Lorenzo, 1e-4, 256);
        assert_eq!(d.codec, ChunkCodecKind::Zfp);
        let (blob, _) = blob.expect("whole-slab probe must be reusable");
        assert_eq!(blob, rq_zfp::zfp_compress_slice(&data, shape, 1e-4).unwrap());
    }
}
