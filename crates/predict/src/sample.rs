//! The one §III-C sampling pass — deterministic, strided, addressed by
//! index — and the one Eq. 1 estimate of what it samples.
//!
//! The paper's model has one data-dependent input: a cheap sample of
//! original-value prediction errors, which answers *every* error bound.
//! Three consumers read it, and all of them read it here: the
//! ratio-quality model (`rq-core`: `RqModel::build` at a sampling rate,
//! `RqModel::build_strided` per chunk for every `--target-*` plan) and the
//! adaptive codec scheduler in `rq-compress`, which sits below `rq-core`
//! in the crate graph and must be bit-deterministic (container bytes are
//! required to be a pure function of field and configuration, independent
//! of thread count).
//!
//! * [`sample_prediction_errors`] — a uniform odd stride over each
//!   predictor's own traversal: raster points (Lorenzo), the
//!   level-by-level stencil plan (interpolation), whole blocks
//!   (regression), from the first visit on. A kept visit is reached by
//!   its index in the traversal, without touching the points between, so
//!   the cost is O(sample), and there is one sample per (field, predictor,
//!   target). A stride over the interpolation plan samples every level in
//!   proportion to its size (§III-C2: each level is 2⁻ⁿ of the next);
//! * [`PredictionSample::estimate`] — quantize the sample at a bound, take
//!   the Eq. 1 rate of that histogram ([`crate::histogram`]), add the
//!   overheads: the number that steers the scheduler *is* the model's
//!   Huffman-only rate, so an audit of one, or a fix to one, is of both.
//!
//! Predicting from **original** values (not reconstructions) is what makes
//! one sample reusable across error bounds; the histogram's correction
//! layer (§III-C4) stands in for the difference.

use crate::histogram::{huffman_bit_rates, EstimatedHistogram};
use crate::interp::{passes, Pass};
use crate::lorenzo::LorenzoStencil;
use crate::regression::{fit_block_with, BlockCoeffs, REGRESSION_BLOCK_SIDE};
use crate::PredictorKind;
use rq_grid::{BlockIter, Scalar, Shape};

/// A deterministic sample of prediction errors for one field (or slab).
#[derive(Clone, Debug)]
pub struct PredictionSample {
    /// Sampled prediction errors (value − original-value prediction).
    pub errors: Vec<f64>,
    /// Predictor the errors were sampled for.
    pub predictor: PredictorKind,
    /// Dimensionality of the sampled field (stencil geometry).
    pub ndim: usize,
    /// Number of elements in the sampled field.
    pub n_elements: usize,
    /// Fraction of elements stored verbatim at any error bound
    /// (interpolation anchors; 0 for the other families).
    pub verbatim_fraction: f64,
    /// Side-channel bits per element (regression coefficients; 0 for the
    /// other families).
    pub side_bits_per_element: f64,
    /// How many of `errors` came from quiescent exactly-zero regions
    /// (value 0 and error 0). They stay inline — `errors` is every visit —
    /// and [`Self::dense_errors`] skips them.
    pub sparse_count: usize,
}

/// The sampled estimate for one error bound: Eq. 1 on the estimated
/// histogram with every correction, and what the model builds on it.
#[derive(Clone, Copy, Debug)]
pub struct SampledEstimate {
    /// Huffman-only bits per value: every symbol at its Eq. 1 rate, plus
    /// `overhead_bits`.
    pub bits_per_value: f64,
    /// The part of `bits_per_value` that is not symbol payload: verbatim
    /// scalars (anchors, escapes), codebook and side channel.
    pub overhead_bits: f64,
    /// Eq. 1 rate of the dense (non-sparse) symbols alone, bits per symbol.
    pub huffman_bits_dense: f64,
    /// Share of the field's values that fall out of the quantizer's code
    /// range and escape to verbatim storage.
    pub escape_fraction: f64,
    /// Zero-code (perfect prediction) share of the dense symbols, after the
    /// Eq. 9 transfer.
    pub p0_dense: f64,
    /// Variance of the errors in the central bin — the `σ(B[0])` of Eq. 11.
    pub central_bin_variance: f64,
}

impl PredictionSample {
    /// Record one sampled point: its value and what the predictor says.
    fn push(&mut self, value: f64, prediction: f64) {
        let err = value - prediction;
        if value == 0.0 && err == 0.0 {
            self.sparse_count += 1;
        }
        self.errors.push(err);
    }

    /// Share of the sampled points in quiescent exactly-zero regions. The
    /// paper's §III-C notes that for sparse scientific data these zeros
    /// must be removed from the prediction-error distribution; they are
    /// modelled separately (contiguous zero runs are nearly free under RLE,
    /// unlike the independent-code assumption of Eq. 7).
    pub fn sparse_fraction(&self) -> f64 {
        match self.errors.len() {
            0 => 0.0,
            n => self.sparse_count as f64 / n as f64,
        }
    }

    /// The modelled distribution: `errors` without its first
    /// `sparse_count` exact zeros (first come, first dropped — a zero is a
    /// zero, but the order decides which errors the feedback noise of
    /// [`crate::histogram`] meets).
    pub fn dense_errors(&self) -> impl Iterator<Item = f64> + '_ {
        let mut to_drop = self.sparse_count;
        self.errors.iter().copied().filter(move |&e| {
            let dropped = e == 0.0 && to_drop > 0;
            to_drop -= dropped as usize;
            !dropped
        })
    }

    /// Standard deviation of the modelled errors ([`Self::dense_errors`]).
    pub fn std(&self) -> f64 {
        let n = self.errors.len().saturating_sub(self.sparse_count) as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean: f64 = self.dense_errors().sum::<f64>() / n;
        let var: f64 = self.dense_errors().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
        var.sqrt()
    }

    /// The signal scale the feedback noise of §III-C4 saturates at:
    /// [`Self::std`] for a predictor with feedback, and 0 (never read)
    /// without. Two passes over the sample, so a model takes it once.
    pub fn feedback_std(&self) -> f64 {
        if self.predictor.feedback_kappa(self.ndim) > 0.0 {
            self.std()
        } else {
            0.0
        }
    }

    /// The one Eq. 1 estimate: the Huffman-only bit-rate of the prediction
    /// path at absolute bound `eb` with quantizer `radius`, for a scalar of
    /// `scalar_bits` bits — the corrected histogram and rates of
    /// [`crate::histogram`], and around them `scalar_bits` for every escaped
    /// or verbatim value, the serialized codebook (≈ 1 byte per occupied
    /// bin) and the regression side channel. The scheduler compares codecs
    /// with `bits_per_value`; `rq-core`'s `RqModel::estimate` reports the
    /// same number as `bit_rate_huffman` and adds the lossless stage
    /// (Eq. 4–7) and the quality model from the rest.
    pub fn estimate(&self, eb: f64, radius: u32, scalar_bits: u32) -> SampledEstimate {
        self.estimate_with_std(eb, radius, scalar_bits, self.feedback_std())
    }

    /// [`Self::estimate`] given [`Self::feedback_std`], which a model takes
    /// once and not per error bound.
    pub fn estimate_with_std(
        &self,
        eb: f64,
        radius: u32,
        scalar_bits: u32,
        feedback_std: f64,
    ) -> SampledEstimate {
        // The histogram covers the *dense* (non-sparse) symbols; quiescent
        // exact-zero regions leave it (§III-C) and come back as a share of
        // zero codes in the combined rate.
        let hist = EstimatedHistogram::build_with_std(self, eb, radius, feedback_std);
        let sf = self.sparse_fraction();
        let (mut b_dense, mut b_comb) = huffman_bit_rates(&hist, sf);
        let symbol_frac = 1.0 - self.verbatim_fraction;
        let mut occupied = hist.occupied_bins() as f64;
        if let Some((rate, bins)) = hist.saturation(radius, symbol_frac * self.n_elements as f64) {
            b_dense = b_dense.max(rate);
            b_comb = b_comb.max((1.0 - sf) * rate);
            occupied = occupied.max(bins);
        }
        let escape_fraction = symbol_frac * (1.0 - sf) * hist.escape_fraction();
        let verbatim_bits = (self.verbatim_fraction + escape_fraction) * scalar_bits as f64;
        let codebook_bits = occupied * 8.0 / self.n_elements.max(1) as f64;
        let overhead_bits = verbatim_bits + self.side_bits_per_element + codebook_bits;
        SampledEstimate {
            bits_per_value: symbol_frac * b_comb + overhead_bits,
            overhead_bits,
            huffman_bits_dense: b_dense,
            escape_fraction,
            p0_dense: hist.p0(),
            central_bin_variance: hist.central_bin_variance,
        }
    }
}

/// Draw a deterministic strided sample of up to `target_samples`
/// prediction errors from `data` (row-major, laid out as `shape`),
/// predicting from original values (§III-C4).
///
/// The stride is chosen so roughly `target_samples` points are visited;
/// passing `target_samples >= shape.len()` samples exhaustively. The
/// result depends only on `(data, shape, predictor, target_samples)` —
/// no RNG — so callers that must produce reproducible bytes can use it.
///
/// Generic over [`Scalar`]: values are promoted to `f64` only at the
/// sampled stencil accesses, and every kept visit is reached by its index
/// in the traversal, so the cost is proportional to the sample, not the
/// field.
///
/// # Panics
/// Panics if `data.len() != shape.len()` or `target_samples == 0`.
pub fn sample_prediction_errors<T: Scalar>(
    data: &[T],
    shape: Shape,
    predictor: PredictorKind,
    target_samples: usize,
) -> PredictionSample {
    assert_eq!(data.len(), shape.len(), "data length must match shape");
    assert!(target_samples > 0, "target_samples must be positive");
    let get = |lin: usize| data[lin].to_f64();
    let (n, nd) = (shape.len(), shape.ndim());
    let mut sample = PredictionSample {
        errors: Vec::with_capacity(n.min(target_samples.saturating_mul(2))),
        predictor,
        ndim: nd,
        n_elements: n,
        verbatim_fraction: 0.0,
        side_bits_per_element: 0.0,
        sparse_count: 0,
    };
    match predictor {
        PredictorKind::Lorenzo | PredictorKind::TemporalDelta | PredictorKind::Lorenzo2 => {
            // TemporalDelta traverses its (residual) field with the order-1
            // Lorenzo stencil, so the same sampler applies, under that name.
            let order = if predictor == PredictorKind::Lorenzo2 { 2 } else { 1 };
            if order == 1 {
                sample.predictor = PredictorKind::Lorenzo;
            }
            let stencil = LorenzoStencil::new(nd, order);
            for lin in (0..n).step_by(odd_stride(n, target_samples)) {
                let idx = shape.unoffset(lin);
                sample.push(get(lin), stencil.predict_with(shape, &idx[..nd], get));
            }
        }
        PredictorKind::Interpolation => {
            // The traversal as a table: each pass hands out the visits the
            // stride keeps of it, and only those get a stencil.
            let table = passes(shape);
            let targets: usize = table.iter().map(Pass::len).sum();
            sample.verbatim_fraction = (n - targets) as f64 / n as f64;
            // `first`: the next kept visit, counted from the start of `pass`.
            let stride = odd_stride(targets, target_samples);
            let mut first = 0;
            for pass in &table {
                for t in pass.targets(first, stride) {
                    sample.push(get(t.target), t.predict_with(get));
                }
                let kept = pass.len().saturating_sub(first).div_ceil(stride);
                first = first + kept * stride - pass.len();
            }
        }
        PredictorKind::Regression => {
            // Whole blocks (the fit needs them), residuals against each
            // block's own stored plane.
            let block_elems = REGRESSION_BLOCK_SIDE.pow(nd as u32);
            sample.side_bits_per_element =
                BlockCoeffs::byte_len(nd) as f64 * 8.0 / block_elems as f64;
            let blocks = BlockIter::new(shape, REGRESSION_BLOCK_SIDE);
            let target_blocks = target_samples.div_ceil(block_elems);
            let stride = odd_stride(blocks.block_count(), target_blocks);
            let strides = shape.strides();
            for block in blocks.step_by(stride) {
                let coeffs = fit_block_with(shape, &block, get);
                for local in Shape::new(block.size_slice()).indices() {
                    let lin: usize =
                        (0..nd).map(|a| (block.origin[a] + local[a]) * strides[a]).sum();
                    sample.push(get(lin), coeffs.predict(&local[..nd]));
                }
            }
        }
    }
    sample
}

/// The stride that keeps about `target` visits of a traversal `population`
/// long, counting from the first. It is odd — coprime with power-of-two
/// extents — so a raster walk cannot alias onto a few columns of the grid
/// (an even stride over a 2^k-wide row would sample the same column
/// positions forever; the stencil enumeration rasters within each level,
/// the block one over block columns).
fn odd_stride(population: usize, target: usize) -> usize {
    (population / target).max(1) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> Vec<f64> {
        let mut out = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            let v: f64 = ix[..shape.ndim()]
                .iter()
                .enumerate()
                .map(|(a, &c)| ((c as f64) * 0.2 * (a + 1) as f64).sin())
                .sum();
            out.push(v);
        }
        out
    }

    fn noisy(n: usize, amp: f64) -> Vec<f64> {
        let mut s = 0x1234_5678u64;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * amp
            })
            .collect()
    }

    #[test]
    fn deterministic_and_sized() {
        let shape = Shape::d2(64, 64);
        let data = smooth(shape);
        for kind in PredictorKind::all() {
            let a = sample_prediction_errors(&data, shape, kind, 400);
            let b = sample_prediction_errors(&data, shape, kind, 400);
            assert_eq!(a.errors, b.errors, "{kind:?} must be deterministic");
            // The odd stride rounds the sample up or down by a stride's
            // worth; regression rounds up to whole blocks on top.
            assert!((300..=500).contains(&a.errors.len()), "{kind:?}: {}", a.errors.len());
        }
        // The sample tracks its target, point predictors and block ones.
        for target in [41, 205, 819] {
            for kind in [PredictorKind::Lorenzo, PredictorKind::Interpolation] {
                let got = sample_prediction_errors(&data, shape, kind, target).errors.len();
                assert!(got.abs_diff(target) <= target / 4 + 8, "{kind:?} {target}: {got}");
            }
        }
    }

    #[test]
    fn the_stride_keeps_every_kth_visit_of_the_traversal() {
        // Visits 0, stride, 2·stride, … of what the exhaustive sample lists:
        // points, stencil targets (the kept index carries from pass to
        // pass), or blocks (extents in multiples of 6: every block is whole).
        for shape in [Shape::d1(498), Shape::d2(96, 78), Shape::d3(12, 18, 24)] {
            let data = smooth(shape);
            for kind in PredictorKind::all() {
                let all = sample_prediction_errors(&data, shape, kind, usize::MAX);
                let unit = match kind {
                    PredictorKind::Regression => REGRESSION_BLOCK_SIDE.pow(shape.ndim() as u32),
                    _ => 1,
                };
                let target = shape.len() / 20;
                let stride = odd_stride(all.errors.len() / unit, target.div_ceil(unit));
                assert!(stride > 1, "{kind:?}: the test needs a real stride");
                let want: Vec<f64> =
                    all.errors.chunks(unit).step_by(stride).flatten().copied().collect();
                let got = sample_prediction_errors(&data, shape, kind, target);
                assert_eq!(got.errors, want, "{kind:?} on {:?}", shape.dims());
            }
        }
    }

    #[test]
    fn quiescent_zeros_are_counted_inline() {
        // Value 0 predicted as 0: counted in `sparse_count`, kept in `errors`.
        let shape = Shape::d2(40, 50);
        let mut data = smooth(shape);
        data[..20 * 50].fill(0.0);
        for kind in [PredictorKind::Lorenzo, PredictorKind::Interpolation] {
            let s = sample_prediction_errors(&data, shape, kind, shape.len());
            let zeros = s.errors.iter().filter(|&&e| e == 0.0).count();
            assert!((701..=zeros).contains(&s.sparse_count), "{kind:?}: {}", s.sparse_count);
        }
        let lifted: Vec<f64> = smooth(shape).iter().map(|v| v + 5.0).collect();
        let none = sample_prediction_errors(&lifted, shape, PredictorKind::Lorenzo, 500);
        assert_eq!(none.sparse_count, 0);
        assert_eq!(none.sparse_fraction(), 0.0);
        assert!(none.dense_errors().eq(none.errors.iter().copied()));
    }

    #[test]
    fn sparse_zeros_leave_the_modelled_errors_and_become_a_fraction() {
        // A quiescent first half: its exact zeros are counted, not modelled.
        let shape = Shape::d2(40, 50);
        let data: Vec<f64> = shape
            .indices()
            .map(|ix| if ix[0] < 20 { 0.0 } else { (ix[1] as f64 * 0.3).sin() + 2.0 })
            .collect();
        for kind in [PredictorKind::Lorenzo, PredictorKind::Interpolation] {
            let s = sample_prediction_errors(&data, shape, kind, shape.len());
            assert!(s.sparse_count > 0, "{kind:?}");
            assert_eq!(s.dense_errors().count() + s.sparse_count, s.errors.len(), "{kind:?}");
            assert_eq!(s.sparse_fraction(), s.sparse_count as f64 / s.errors.len() as f64);
            assert!((0.3..0.6).contains(&s.sparse_fraction()), "{kind:?}: {}", s.sparse_fraction());
            // What is left keeps its order, and the first zeros are the ones to go.
            let kept: Vec<f64> = s.dense_errors().collect();
            let mut dropped = 0;
            let want = s.errors.iter().copied().filter(|&e| {
                let drop = e == 0.0 && dropped < s.sparse_count;
                dropped += drop as usize;
                !drop
            });
            assert!(kept.iter().copied().eq(want), "{kind:?}");
        }
    }

    #[test]
    fn smooth_field_errors_small() {
        let shape = Shape::d2(64, 64);
        let data = smooth(shape);
        for kind in PredictorKind::all() {
            let s = sample_prediction_errors(&data, shape, kind, shape.len() / 20);
            assert!(!s.errors.is_empty());
            // Field range ~4; smooth field predicts well for every family.
            assert!(s.std() < 0.5, "{kind:?} sd {}", s.std());
        }
    }

    #[test]
    fn sampled_std_matches_full_std_lorenzo() {
        // The Fig. 4 criterion: sampled error std vs exhaustive std.
        let shape = Shape::d2(128, 128);
        let noise = noisy(shape.len(), 0.2);
        let data: Vec<f64> = shape
            .indices()
            .zip(&noise)
            .map(|(ix, n)| (ix[0] as f64 * 0.1).sin() * 3.0 + n)
            .collect();
        let full = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, shape.len());
        let sampled =
            sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, shape.len() / 100);
        assert_eq!(full.errors.len(), shape.len());
        let (a, b) = (full.std(), sampled.std());
        assert!((a - b).abs() / a < 0.15, "full {a} sampled {b}");
    }

    #[test]
    fn exhaustive_when_target_exceeds_len() {
        let shape = Shape::d1(100);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 10_000);
        assert_eq!(s.errors.len(), 100);
    }

    #[test]
    fn smooth_field_estimates_few_bits() {
        let shape = Shape::d2(64, 64);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 1000);
        let est = s.estimate(1e-2, 1 << 15, 32);
        assert!(est.bits_per_value < 8.0, "bits {}", est.bits_per_value);
        assert_eq!(est.escape_fraction, 0.0);
        assert!(est.p0_dense > 0.1);
    }

    #[test]
    fn out_of_range_errors_counted_as_escapes() {
        // Noise amplitude far beyond the quantizer range at a tiny bound
        // and radius: everything escapes, so the estimate approaches the
        // verbatim cost.
        let shape = Shape::d1(4096);
        let data = noisy(4096, 100.0);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 1024);
        let est = s.estimate(1e-6, 256, 32);
        assert!(est.escape_fraction > 0.9, "escape {}", est.escape_fraction);
        assert!(est.bits_per_value > 30.0, "bits {}", est.bits_per_value);
    }

    #[test]
    fn estimate_monotone_in_eb() {
        let shape = Shape::d2(64, 64);
        let mut data = smooth(shape);
        let noise = noisy(data.len(), 0.1);
        for (d, n) in data.iter_mut().zip(&noise) {
            *d += n;
        }
        let s = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 2000);
        let mut prev = f64::INFINITY;
        for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
            let est = s.estimate(eb, 1 << 15, 32);
            assert!(
                est.bits_per_value <= prev + 1e-9,
                "eb {eb}: {} > {prev}",
                est.bits_per_value
            );
            prev = est.bits_per_value;
        }
    }

    #[test]
    fn interpolation_reports_anchor_fraction() {
        let shape = Shape::d3(16, 16, 16);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Interpolation, 500);
        assert!(s.verbatim_fraction > 0.0);
        assert!(s.verbatim_fraction < 0.2);
        // Anchors are stored verbatim, never predicted: the exhaustive
        // sample is every other point, and the fraction is theirs exactly.
        for shape in [shape, Shape::d3(32, 32, 32), Shape::d2(17, 9), Shape::d1(1)] {
            let data = smooth(shape);
            let kind = PredictorKind::Interpolation;
            let all = sample_prediction_errors(&data, shape, kind, usize::MAX);
            let n_anchors = crate::interp::anchors(shape).len();
            assert_eq!(all.errors.len(), shape.len() - n_anchors, "{:?}", shape.dims());
            assert_eq!(all.verbatim_fraction, n_anchors as f64 / shape.len() as f64);
        }
    }

    #[test]
    fn regression_samples_whole_blocks_and_reports_side_bits() {
        let shape = Shape::d2(60, 60);
        let data = smooth(shape);
        let s = sample_prediction_errors(&data, shape, PredictorKind::Regression, 500);
        assert!(s.side_bits_per_element > 0.0);
        // 60 = 10 × 6: no clipped block, so the sample is a whole number of
        // 6 × 6 blocks, about as many as cover the target.
        assert_eq!(s.errors.len() % 36, 0);
        assert!((500..=500 + 2 * 36).contains(&s.errors.len()), "{}", s.errors.len());
        // 4 f32 coefficients per 6³ block = 128 bits / 216 elements.
        let cube = Shape::d3(18, 18, 18);
        let s = sample_prediction_errors(&smooth(cube), cube, PredictorKind::Regression, 2000);
        assert!((s.side_bits_per_element - 128.0 / 216.0).abs() < 1e-12);
        assert_eq!(s.errors.len() % 216, 0);
    }

    #[test]
    #[should_panic]
    fn zero_target_rejected() {
        let shape = Shape::d1(10);
        let data = smooth(shape);
        let _ = sample_prediction_errors(&data, shape, PredictorKind::Lorenzo, 0);
    }
}
