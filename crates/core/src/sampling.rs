//! Predictor-aware prediction-error sampling (paper §III-C).
//!
//! The model's only data-dependent input is a sampled distribution of
//! prediction errors. Crucially, sampling predicts from **original** values
//! (§III-C4) — unlike actual compression, which predicts from reconstructed
//! values — which is what makes a *single* sampling pass reusable across
//! every candidate error bound. The residual discrepancy is corrected later
//! by the histogram bin-transfer of Eq. 9.
//!
//! Each predictor gets the sampling strategy the paper prescribes:
//!
//! * **Lorenzo** — uniform random points, stencil applied to originals;
//! * **Interpolation** — level-aware sampling: coarse levels have
//!   exponentially fewer points (2⁻ⁿ per level, §III-C2) and are sampled
//!   exhaustively, the fine levels at the residual budget; every sample
//!   carries an inverse-probability weight so the weighted histogram is
//!   unbiased;
//! * **Regression** — whole blocks are sampled (the fit needs the full
//!   block), residuals against the block's own least-squares plane.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rq_grid::{BlockIter, NdArray, Scalar, Shape};
use rq_predict::interp::{level_sizes, passes};
use rq_predict::lorenzo::LorenzoStencil;
use rq_predict::regression::{fit_block_with, BlockCoeffs, REGRESSION_BLOCK_SIDE};
use rq_predict::PredictorKind;

/// A weighted sample of prediction errors.
#[derive(Clone, Debug)]
pub struct ErrorSample {
    /// Sampled prediction errors (original-value predictions).
    pub errors: Vec<f64>,
    /// Inverse-probability weight of each sample (1.0 when sampling was
    /// uniform). The weighted histogram estimates the full-field histogram.
    pub weights: Vec<f64>,
    /// Predictor the sample was drawn for.
    pub predictor: PredictorKind,
    /// Number of elements in the sampled field.
    pub n_elements: usize,
    /// Fraction of elements the traversal stores verbatim regardless of
    /// error bound (interpolation anchors).
    pub verbatim_fraction: f64,
    /// Side-channel bits per element (regression coefficients).
    pub side_bits_per_element: f64,
    /// Reconstruction-feedback noise coefficient κ: during actual
    /// compression each Lorenzo neighbor carries quantization noise of
    /// order the error bound, so real prediction errors are the sampled
    /// (original-value) errors plus ≈ κ·eb of extra dispersion. This
    /// extends the paper's Eq. 9 correction layer to the p0 → 1 regime
    /// where the bin-transfer alone vanishes (see DESIGN.md §5). Zero for
    /// predictors without feedback (regression) or with empirically
    /// negligible feedback (interpolation).
    pub feedback_kappa: f64,
    /// Quality-side cascade gain `g` for the multi-level feedback of the
    /// interpolation predictor: the effective central-bin variance is the
    /// sampled one inflated by `1/(1 − g·p0_dense)` — every centrally-
    /// quantized point passes its parents' reconstruction error straight
    /// through, so the level cascade amplifies until a non-central code
    /// resets the residual (the `p0` factor). Calibrated g ≈ 0.85 against
    /// measured reconstruction-error variances on wavefield and noise
    /// fields; zero where `feedback_kappa` already injects the dispersion
    /// (Lorenzo) or no feedback exists (regression).
    pub quality_kappa: f64,
    /// Fraction of sampled points in exactly-zero (quiescent) regions:
    /// value and prediction error both exactly 0. The paper's §III-C notes
    /// that for sparse scientific data these zeros must be removed from
    /// the prediction-error distribution; they are excluded from `errors`
    /// and modelled separately (contiguous zero runs are nearly free under
    /// RLE, unlike the independent-code assumption of Eq. 7).
    pub sparse_fraction: f64,
}

impl ErrorSample {
    /// Build from a deterministic strided sample
    /// ([`rq_predict::sample_prediction_errors`]), filling in the same
    /// calibrated feedback coefficients [`sample_errors`] would assign.
    ///
    /// This is the quality-targeted compression path: the streaming
    /// pre-pass samples each axis-0 chunk with the RNG-free predictor-layer
    /// sampler (per-chunk plans must be pure functions of field and
    /// configuration), then promotes the sample into a full ratio-quality
    /// model via [`crate::RqModel::from_sample`]. Quiescent exact-zero
    /// points are moved out of the error list into `sparse_fraction`,
    /// mirroring the §III-C sparse treatment of the randomized sampler.
    pub fn from_prediction_sample(ps: &rq_predict::PredictionSample) -> ErrorSample {
        let n_sampled = ps.errors.len();
        // The strided sampler keeps sparse zeros inline and only counts
        // them; drop that many exact zeros from the modelled distribution.
        let mut to_drop = ps.sparse_count;
        let errors: Vec<f64> = ps
            .errors
            .iter()
            .copied()
            .filter(|&e| {
                if e == 0.0 && to_drop > 0 {
                    to_drop -= 1;
                    false
                } else {
                    true
                }
            })
            .collect();
        let sparse_fraction =
            if n_sampled > 0 { ps.sparse_count as f64 / n_sampled as f64 } else { 0.0 };
        let (feedback_kappa, quality_kappa) = match ps.predictor {
            PredictorKind::Lorenzo | PredictorKind::TemporalDelta => {
                (lorenzo_feedback_kappa(ps.ndim, 1), 0.0)
            }
            PredictorKind::Lorenzo2 => (lorenzo_feedback_kappa(ps.ndim, 2), 0.0),
            PredictorKind::Interpolation => (0.0, INTERP_QUALITY_KAPPA),
            PredictorKind::Regression => (0.0, 0.0),
        };
        let weights = vec![1.0; errors.len()];
        ErrorSample {
            errors,
            weights,
            predictor: ps.predictor,
            n_elements: ps.n_elements,
            verbatim_fraction: ps.verbatim_fraction,
            side_bits_per_element: ps.side_bits_per_element,
            feedback_kappa,
            quality_kappa,
            sparse_fraction,
        }
    }

    /// Number of drawn samples.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Weighted standard deviation of the sampled errors.
    pub fn weighted_std(&self) -> f64 {
        let wsum: f64 = self.weights.iter().sum();
        if wsum == 0.0 {
            return 0.0;
        }
        let mean: f64 =
            self.errors.iter().zip(&self.weights).map(|(e, w)| e * w).sum::<f64>() / wsum;
        let var: f64 = self
            .errors
            .iter()
            .zip(&self.weights)
            .map(|(e, w)| w * (e - mean).powi(2))
            .sum::<f64>()
            / wsum;
        var.sqrt()
    }

    /// The signal scale the feedback noise of §III-C4 saturates at:
    /// [`Self::weighted_std`] for a predictor with feedback, and 0 (never
    /// read) without. Two passes over the sample, so a model takes it once.
    pub(crate) fn feedback_std(&self) -> f64 {
        if self.feedback_kappa > 0.0 {
            self.weighted_std()
        } else {
            0.0
        }
    }
}

/// Quality-side cascade gain of the interpolation predictor's multi-level
/// feedback (see [`ErrorSample::quality_kappa`]); calibrated against
/// measured reconstruction-error variances.
const INTERP_QUALITY_KAPPA: f64 = 0.85;

/// Calibrated against measured Lorenzo histograms: the feedback noise of
/// a `t`-tap stencil behaves like κ·eb with κ ≈ 0.577·t^¼ (uniform
/// single-neighbor noise is eb/√3, correlations damp the multi-tap sum
/// far below the independent √t growth).
fn lorenzo_feedback_kappa(ndim: usize, order: usize) -> f64 {
    0.577 * (LorenzoStencil::new(ndim, order).tap_count() as f64).powf(0.25)
}

/// Draw a prediction-error sample at `rate` (e.g. 0.01 for the paper's 1 %).
///
/// Values are promoted to `f64` only where a kept sample's stencil reads
/// them, so the cost beyond the per-point draw of the interpolation
/// sampler is proportional to the sample, not to the field.
///
/// # Panics
/// Panics if `rate` is not in `(0, 1]`.
pub fn sample_errors<T: Scalar>(
    field: &NdArray<T>,
    predictor: PredictorKind,
    rate: f64,
    seed: u64,
) -> ErrorSample {
    assert!(rate > 0.0 && rate <= 1.0, "sampling rate {rate} outside (0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let (data, shape) = (field.as_slice(), field.shape());
    match predictor {
        PredictorKind::Lorenzo | PredictorKind::TemporalDelta => {
            sample_lorenzo(data, shape, 1, rate, &mut rng)
        }
        PredictorKind::Lorenzo2 => sample_lorenzo(data, shape, 2, rate, &mut rng),
        PredictorKind::Interpolation => sample_interp(data, shape, rate, &mut rng),
        PredictorKind::Regression => sample_regression(data, shape, rate, &mut rng),
    }
}

fn sample_lorenzo<T: Scalar>(
    data: &[T],
    shape: Shape,
    order: usize,
    rate: f64,
    rng: &mut StdRng,
) -> ErrorSample {
    let stencil = LorenzoStencil::new(shape.ndim(), order);
    let n = shape.len();
    let target = ((n as f64 * rate).round() as usize).clamp(1, n);
    let get = |lin: usize| data[lin].to_f64();
    let mut errors = Vec::with_capacity(target);
    let mut sparse = 0usize;
    for _ in 0..target {
        let lin = rng.gen_range(0..n);
        let idx = shape.unoffset(lin);
        let value = get(lin);
        let err = value - stencil.predict_with(shape, &idx[..shape.ndim()], get);
        if err == 0.0 && value == 0.0 {
            sparse += 1;
        } else {
            errors.push(err);
        }
    }
    let sparse_fraction = sparse as f64 / target as f64;
    let weights = vec![1.0; errors.len()];
    let kappa = lorenzo_feedback_kappa(shape.ndim(), order);
    ErrorSample {
        errors,
        weights,
        predictor: if order == 1 { PredictorKind::Lorenzo } else { PredictorKind::Lorenzo2 },
        n_elements: n,
        verbatim_fraction: 0.0,
        side_bits_per_element: 0.0,
        feedback_kappa: kappa,
        quality_kappa: 0.0,
        sparse_fraction,
    }
}

fn sample_interp<T: Scalar>(data: &[T], shape: Shape, rate: f64, rng: &mut StdRng) -> ErrorSample {
    let n = shape.len();
    let budget = ((n as f64 * rate).round() as usize).max(16);
    let levels = level_sizes(shape);
    let table = passes(shape);
    let get = |lin: usize| data[lin].to_f64();

    let mut errors = Vec::with_capacity(budget + levels.len() * 4);
    let mut weights = Vec::with_capacity(budget + levels.len() * 4);
    let mut sparse_w = 0.0f64;
    let mut total_w = 0.0f64;
    // Allocate budget: coarse levels exhaustively (they are 2^-n smaller per
    // level), finest level gets whatever budget remains.
    let mut remaining = budget as f64;
    let mut remaining_points: f64 = levels.iter().map(|&(_, c)| c as f64).sum();
    for &(stride, count) in &levels {
        let count = count as f64;
        // Proportional share, but never below full coverage of tiny levels.
        let share = (remaining * count / remaining_points).max(1.0);
        let p = (share / count).min(1.0);
        remaining = (remaining - p * count).max(0.0);
        remaining_points -= count;
        // One draw per target, in traversal order (the sample is a function
        // of the seed through that order); a stencil only for the kept ones.
        for pass in table.iter().filter(|pass| pass.stride == stride) {
            for j in 0..pass.len() {
                if p >= 1.0 || rng.gen::<f64>() < p {
                    let t = pass.target(j);
                    let value = get(t.target);
                    let err = value - t.predict_with(get);
                    total_w += 1.0 / p;
                    if err == 0.0 && value == 0.0 {
                        sparse_w += 1.0 / p;
                    } else {
                        errors.push(err);
                        weights.push(1.0 / p);
                    }
                }
            }
        }
    }
    let sparse_fraction = if total_w > 0.0 { sparse_w / total_w } else { 0.0 };
    let n_anchors = rq_predict::interp::anchors(shape).len();
    ErrorSample {
        errors,
        weights,
        predictor: PredictorKind::Interpolation,
        n_elements: n,
        verbatim_fraction: n_anchors as f64 / n as f64,
        side_bits_per_element: 0.0,
        feedback_kappa: 0.0,
        quality_kappa: INTERP_QUALITY_KAPPA,
        sparse_fraction,
    }
}

fn sample_regression<T: Scalar>(
    data: &[T],
    shape: Shape,
    rate: f64,
    rng: &mut StdRng,
) -> ErrorSample {
    let blocks: Vec<_> = BlockIter::new(shape, REGRESSION_BLOCK_SIDE).collect();
    let n_blocks = blocks.len();
    let target_blocks = ((n_blocks as f64 * rate).round() as usize).clamp(1, n_blocks);
    let get = |lin: usize| data[lin].to_f64();
    let mut errors = Vec::with_capacity(target_blocks * 216);
    let mut sparse = 0usize;
    let mut n_sampled = 0usize;
    let strides = shape.strides();
    let nd = shape.ndim();
    for _ in 0..target_blocks {
        let block = &blocks[rng.gen_range(0..n_blocks)];
        let coeffs = fit_block_with(shape, block, get);
        // Residuals over the block.
        let mut local = [0usize; rq_grid::MAX_DIMS];
        loop {
            let mut lin = 0usize;
            for a in 0..nd {
                lin += (block.origin[a] + local[a]) * strides[a];
            }
            let value = get(lin);
            let err = value - coeffs.predict(&local[..nd]);
            if err == 0.0 && value == 0.0 {
                sparse += 1;
            } else {
                errors.push(err);
            }
            n_sampled += 1;
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < block.size[axis] {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
    }
    let weights = vec![1.0; errors.len()];
    let side_bits = BlockCoeffs::byte_len(nd) as f64 * 8.0;
    let block_elems = REGRESSION_BLOCK_SIDE.pow(nd as u32) as f64;
    ErrorSample {
        errors,
        weights,
        predictor: PredictorKind::Regression,
        n_elements: shape.len(),
        verbatim_fraction: 0.0,
        side_bits_per_element: side_bits / block_elems,
        feedback_kappa: 0.0,
        quality_kappa: 0.0,
        sparse_fraction: if n_sampled > 0 { sparse as f64 / n_sampled as f64 } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> NdArray<f64> {
        NdArray::from_fn(shape, |ix| {
            ix.iter().enumerate().map(|(a, &c)| ((c as f64) * 0.2 * (a + 1) as f64).sin()).sum()
        })
    }

    #[test]
    fn sample_size_tracks_rate() {
        let f = smooth(Shape::d2(100, 100));
        for rate in [0.01, 0.05, 0.2] {
            let s = sample_errors(&f, PredictorKind::Lorenzo, rate, 1);
            let expect = (10_000.0 * rate) as usize;
            assert!(
                (s.len() as i64 - expect as i64).unsigned_abs() as usize <= expect / 5 + 8,
                "rate {rate}: {} vs {expect}",
                s.len()
            );
        }
    }

    #[test]
    fn smooth_field_errors_small() {
        let f = smooth(Shape::d2(64, 64));
        for kind in PredictorKind::all() {
            let s = sample_errors(&f, kind, 0.05, 7);
            assert!(!s.is_empty());
            let sd = s.weighted_std();
            // Field range ~4; smooth field predicts well for every family.
            assert!(sd < 0.5, "{kind:?} sd {sd}");
        }
    }

    #[test]
    fn sampled_std_matches_full_std_lorenzo() {
        // The Fig. 4 criterion: sampled error std vs exhaustive std.
        let mut state = 9u64;
        let f = NdArray::<f64>::from_fn(Shape::d2(128, 128), |ix| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (ix[0] as f64 * 0.1).sin() * 3.0 + noise * 0.2
        });
        let full = sample_errors(&f, PredictorKind::Lorenzo, 1.0, 3);
        let sampled = sample_errors(&f, PredictorKind::Lorenzo, 0.01, 3);
        let (a, b) = (full.weighted_std(), sampled.weighted_std());
        assert!((a - b).abs() / a < 0.15, "full {a} sampled {b}");
    }

    #[test]
    fn interp_weights_are_inverse_probabilities() {
        let f = smooth(Shape::d3(32, 32, 32));
        let s = sample_errors(&f, PredictorKind::Interpolation, 0.01, 5);
        // Total weighted mass ≈ number of non-anchor points.
        let mass: f64 = s.weights.iter().sum();
        let non_anchor = 32 * 32 * 32 - rq_predict::interp::anchors(f.shape()).len();
        let rel = (mass - non_anchor as f64).abs() / non_anchor as f64;
        assert!(rel < 0.25, "mass {mass} vs {non_anchor}");
        assert!(s.verbatim_fraction > 0.0);
    }

    #[test]
    fn regression_reports_side_channel_cost() {
        let f = smooth(Shape::d3(18, 18, 18));
        let s = sample_errors(&f, PredictorKind::Regression, 0.5, 2);
        // 4 f32 coefficients per 6³ block = 128 bits / 216 elements.
        assert!((s.side_bits_per_element - 128.0 / 216.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let f = smooth(Shape::d2(50, 50));
        let a = sample_errors(&f, PredictorKind::Lorenzo, 0.1, 9);
        let b = sample_errors(&f, PredictorKind::Lorenzo, 0.1, 9);
        assert_eq!(a.errors, b.errors);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let f = smooth(Shape::d1(100));
        let _ = sample_errors(&f, PredictorKind::Lorenzo, 0.0, 1);
    }
}
