//! The top-level ratio-quality model facade.
//!
//! The ratio side starts from the one Eq. 1 estimate
//! ([`rq_predict::PredictionSample::estimate`], which the codec scheduler
//! reads too): this module adds only what is the *model's* — the lossless
//! stage (Eq. 4–7, [`crate::ratio`]), the quality model (Eq. 10–15,
//! [`crate::quality`]) and the inversions, each a bisection over the
//! estimates.

use crate::quality;
use crate::ratio::rle_ratio;
use rq_grid::stats::finite_range_and_moments;
use rq_grid::{NdArray, Scalar};
use rq_predict::histogram::{central_variance, transfer_fraction};
use rq_predict::{PredictionSample, PredictorKind};
use rq_quant::DEFAULT_RADIUS;
use std::time::{Duration, Instant};

/// Residual cost (bits/symbol) of quiescent exact-zero regions after the
/// lossless stage: contiguous zero runs collapse to sporadic run tokens.
/// Calibrated against the RLE coder on wavefield snapshots.
const SPARSE_RESIDUAL_BITS: f64 = 0.05;

/// Step cap of the two bisections over `ln eb`. Both stop earlier, at their
/// fixed point: a step that moves neither end of the bracket will be
/// repeated unchanged by every step after it (the model is a pure
/// function), so leaving there returns what the full count would. The
/// ≈ 48-wide log bracket gets there in ≈ 55 halvings of an `f64`.
const MAX_BISECTION_STEPS: usize = 100;

/// Everything the model predicts for one error bound — the full
/// ratio-quality picture of the paper, obtained without compressing.
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// The absolute error bound the estimate is for.
    pub eb: f64,
    /// Predicted zero-code probability.
    pub p0: f64,
    /// Predicted fraction of unpredictable (escape) values.
    pub escape_fraction: f64,
    /// Predicted bit-rate with Huffman coding only (bits/value, including
    /// codebook, verbatim and side-channel overheads) — Fig. 5 "Huffman".
    pub bit_rate_huffman: f64,
    /// Predicted overall bit-rate with the optional lossless stage —
    /// Fig. 5 "overall".
    pub bit_rate: f64,
    /// Predicted overall compression ratio.
    pub ratio: f64,
    /// Error variance under the uniform assumption (Eq. 10).
    pub sigma2_uniform: f64,
    /// Refined error variance (Eq. 11).
    pub sigma2: f64,
    /// Predicted PSNR from the refined variance (Eq. 12).
    pub psnr: f64,
    /// Predicted PSNR from the uniform variance (the dashed line of
    /// Fig. 6).
    pub psnr_uniform: f64,
    /// Predicted global SSIM (Eq. 15).
    pub ssim: f64,
}

/// A built ratio-quality model for one (field, predictor) pair.
///
/// Construction performs the single sampling pass (§III-C); every
/// subsequent [`RqModel::estimate`] call is a pure computation on the
/// sample and costs tens of microseconds — this asymmetry is the entire
/// point of the paper (Fig. 9).
///
/// What each step costs, measured in a loop on a noisy 96³ `f32` RTM
/// snapshot (3.5 MB, 1 % sample ≈ 8 900 errors; 2-vCPU Xeon 2.1 GHz; between
/// compressions, with cold caches, the repository benchmark reads 3.5 ms,
/// 80 µs and 0.9 ms for the first three):
///
/// * [`Self::build`]: one statistics pass over the field, a stencil per
///   kept sample (each reached by its index in the traversal) and one sort
///   of the sample — ≈ 2 ms, an eighth of compressing the field on one
///   thread;
/// * [`Self::estimate`]: O(sample) to quantize it plus O(bins) — ≈ 45 µs
///   (≈ 115 µs for Lorenzo, whose feedback noise is drawn per error);
/// * [`Self::error_bound_for_psnr`]: ≈ 55 bisection steps — O(log sample)
///   each for predictors without feedback noise (interpolation,
///   regression), but for the dozen nearest the target, which take one
///   `estimate` as every step does with it (Lorenzo) — ≈ 0.7 ms / ≈ 7 ms;
/// * memory: the sample (1 `f64` per error) plus 3 `f64` per error of
///   sorted magnitudes and prefix sums.
#[derive(Clone, Debug)]
pub struct RqModel {
    sample: PredictionSample,
    sorted: SortedErrors,
    feedback_std: f64,
    radius: u32,
    scalar_bits: u32,
    value_range: f64,
    data_variance: f64,
    build_time: Duration,
}

/// The finite modelled errors of a sample ([`PredictionSample::dense_errors`])
/// by ascending magnitude, with running sums
/// of `e` and `e²` in that order: `cum_*[i]` covers `abs[..=i]`.
///
/// A code `round(e / 2eb)` never decreases in magnitude as `|e|` grows, so
/// "every error with `|code| ≤ k`" is a prefix of this order, found by
/// binary search with the quantizer's own arithmetic as the predicate.
#[derive(Clone, Debug)]
struct SortedErrors {
    abs: Vec<f64>,
    cum_e: Vec<f64>,
    cum_e2: Vec<f64>,
}

impl SortedErrors {
    fn of(sample: &PredictionSample) -> Self {
        let finite = sample.dense_errors().filter(|e| e.is_finite());
        let mut order: Vec<(f64, f64)> = finite.map(|e| (e.abs(), e)).collect();
        // Stable, so equal magnitudes stay in sample order.
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = order.len();
        let mut sorted = SortedErrors {
            abs: Vec::with_capacity(n),
            cum_e: Vec::with_capacity(n),
            cum_e2: Vec::with_capacity(n),
        };
        let (mut e_sum, mut e2_sum) = (0.0, 0.0);
        for (abs, e) in order {
            e_sum += e;
            e2_sum += e * e;
            sorted.abs.push(abs);
            sorted.cum_e.push(e_sum);
            sorted.cum_e2.push(e2_sum);
        }
        sorted
    }

    /// How many errors quantize to `|code| ≤ k` at bin width `2·eb`.
    fn count_within(&self, bin_width: f64, k: f64) -> usize {
        self.abs.partition_point(|&a| (a / bin_width).round() <= k)
    }
}

/// A running sum over the first `count` sorted errors.
fn prefix(cum: &[f64], count: usize) -> f64 {
    count.checked_sub(1).map_or(0.0, |last| cum[last])
}

/// Margin (dB) around the target inside which [`RqModel::error_bound_for_psnr`]
/// asks [`RqModel::estimate`] instead of trusting its prefix-sum probe.
///
/// The probe adds the same terms as the histogram in another order, so the
/// two PSNRs differ in their last bits — by at most 6·10⁻¹⁴ dB on every
/// field tried (`psnr_probe_tracks_estimate` holds them to 10⁻¹² dB). A
/// bisection step whose probe is farther than this from the target
/// therefore branches as the histogram would have; the few steps that are
/// closer ask the histogram itself, and the bound comes out the same to
/// the last bit as when every step did.
const PSNR_PROBE_GUARD_DB: f64 = 1e-11;

impl RqModel {
    /// Sample `field` for `predictor` at `rate` (paper default 0.01) and
    /// build the model: [`Self::build_strided`] at `round(rate · n)`
    /// samples. The sampler is deterministic and has no RNG, so `_seed` is
    /// unused; the argument stays because callers pass one.
    ///
    /// # Panics
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn build<T: Scalar>(
        field: &NdArray<T>,
        predictor: PredictorKind,
        rate: f64,
        _seed: u64,
    ) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "sampling rate {rate} outside (0, 1]");
        let target = ((field.len() as f64 * rate).round() as usize).max(1);
        Self::build_strided(field.as_slice(), field.shape(), predictor, target)
    }

    /// Deterministic model build: what the model keeps of the field itself
    /// — range and variance of its finite values, from one pass (the range
    /// must be global, so it is the exact one: an O(n) scan, ≈ 0.4 ms/MB
    /// against 5–10 ms/MB for compression) — then the strided
    /// prediction-error sample ([`rq_predict::sample_prediction_errors`]).
    /// Taking both statistics over the finite values keeps a stray ±∞ or
    /// NaN out of every bound the model can return; taking them first
    /// leaves the field in cache for the sampler's scattered stencil reads.
    /// The result depends only on `(data, shape, predictor, target_samples)`
    /// — per-chunk plans (and therefore container bytes) must be
    /// reproducible.
    pub fn build_strided<T: Scalar>(
        data: &[T],
        shape: rq_grid::Shape,
        predictor: PredictorKind,
        target_samples: usize,
    ) -> Self {
        let start = Instant::now();
        let (value_range, moments) = finite_range_and_moments(data);
        let sample = rq_predict::sample_prediction_errors(data, shape, predictor, target_samples);
        let mut model = Self::from_sample(sample, T::BITS, value_range, moments.variance());
        model.build_time = start.elapsed();
        model
    }

    /// Build from an existing error sample (for custom sampling setups).
    pub fn from_sample(
        sample: PredictionSample,
        scalar_bits: u32,
        value_range: f64,
        data_variance: f64,
    ) -> Self {
        RqModel {
            sorted: SortedErrors::of(&sample),
            feedback_std: sample.feedback_std(),
            sample,
            radius: DEFAULT_RADIUS,
            scalar_bits,
            value_range,
            data_variance,
            build_time: Duration::ZERO,
        }
    }

    /// Time spent building (sampling + field statistics).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The predictor this model was sampled for.
    pub fn predictor(&self) -> PredictorKind {
        self.sample.predictor
    }

    /// The underlying error sample.
    pub fn sample(&self) -> &PredictionSample {
        &self.sample
    }

    /// Value range of the modelled field.
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Variance of the modelled field.
    pub fn data_variance(&self) -> f64 {
        self.data_variance
    }

    /// Predict ratio and quality for an absolute error bound (the core
    /// operation, Fig. 2).
    pub fn estimate(&self, eb: f64) -> Estimate {
        // The one Eq. 1 estimate, shared with the codec scheduler: the
        // Huffman-only rate and everything the histogram says. What this
        // crate adds is the lossless stage and the quality model.
        let s = self.sample.estimate_with_std(eb, self.radius, self.scalar_bits, self.feedback_std);
        let sf = self.sample.sparse_fraction();
        let (p0_dense, b_dense) = (s.p0_dense, s.huffman_bits_dense);
        let p0 = sf + (1.0 - sf) * p0_dense;
        let symbol_frac = 1.0 - self.sample.verbatim_fraction;
        // With the lossless stage: dense symbols follow the Eq. 4 RLE model;
        // sparse zeros come in contiguous runs and are nearly free.
        let rle = rle_ratio(p0_dense, b_dense.max(1e-9));
        let dense_overall = b_dense / rle;
        let payload_overall =
            symbol_frac * ((1.0 - sf) * dense_overall + sf * SPARSE_RESIDUAL_BITS);
        let bit_rate = payload_overall + s.overhead_bits;
        let ratio = self.scalar_bits as f64 / bit_rate.max(1e-12);

        let sigma2_uniform = quality::sigma2_uniform(eb);
        let sigma2 = self.sigma2(eb, p0_dense, s.central_bin_variance);
        let c3 = (0.03 * self.value_range).powi(2);
        Estimate {
            eb,
            p0,
            escape_fraction: s.escape_fraction,
            bit_rate_huffman: s.bits_per_value,
            bit_rate,
            ratio,
            sigma2_uniform,
            sigma2,
            psnr: quality::psnr_model(self.value_range, sigma2),
            psnr_uniform: quality::psnr_model(self.value_range, sigma2_uniform),
            ssim: quality::ssim_model(self.data_variance, c3, sigma2),
        }
    }

    /// Eq. 11 for the whole field from the dense histogram's zero-bin share
    /// and central-bin variance.
    fn sigma2(&self, eb: f64, p0_dense: f64, central_bin_variance: f64) -> f64 {
        // Cascade inflation of the central-bin variance (multi-level
        // interpolation feedback; see PredictorKind::quality_kappa), capped
        // at the uniform in-bin variance.
        let g = self.sample.predictor.quality_kappa();
        let central = if g > 0.0 {
            let gain = 1.0 / (1.0 - g * p0_dense).max(0.05);
            (central_bin_variance * gain).min(eb * eb / 3.0)
        } else {
            central_bin_variance
        };
        // Sparse points reconstruct exactly: scale the dense variance.
        (1.0 - self.sample.sparse_fraction()) * quality::sigma2_refined(eb, p0_dense, central)
    }

    /// [`Self::estimate`]'s `psnr` in O(log sample), for predictors whose
    /// histogram is the quantized sample itself (`None` with feedback
    /// noise, which perturbs every error anew at every bound).
    ///
    /// Eq. 11–12 need four things of the histogram: the zero bin's mass and
    /// moments, the in-radius mass, and — for the Eq. 9 transfer into and
    /// out of the zero bin — the mass of codes ±1. Each is a count or a
    /// prefix sum of the sorted errors.
    fn psnr_probe(&self, eb: f64) -> Option<f64> {
        if self.sample.predictor.feedback_kappa(self.sample.ndim) > 0.0 {
            return None;
        }
        let s = &self.sorted;
        let bin_width = 2.0 * eb;
        let zero = s.count_within(bin_width, 0.0);
        let one = s.count_within(bin_width, 1.0);
        let total = s.count_within(bin_width, self.radius as f64) as f64;
        let zero_mass = zero as f64;
        let mut p0 = if total == 0.0 { 0.0 } else { zero_mass / total };
        if let Some(frac) = transfer_fraction(self.sample.predictor.bin_transfer_c2(), total, p0) {
            let beside = one as f64 - zero_mass;
            p0 = (zero_mass + beside * frac / 2.0 - zero_mass * frac) / total;
        }
        let central =
            central_variance(zero_mass, prefix(&s.cum_e, zero), prefix(&s.cum_e2, zero));
        Some(quality::psnr_model(self.value_range, self.sigma2(eb, p0, central)))
    }

    /// Quantile of |prediction error|: the error bound at which the zero
    /// bin captures probability `p` (the anchor-point machinery of
    /// §III-B1). Always a valid bound: never below `f64::MIN_POSITIVE`.
    pub fn error_quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} outside [0,1]");
        let abs = &self.sorted.abs;
        if abs.is_empty() {
            // No finite error to rank: the smallest bound there is, so that
            // what comes back is always a bound.
            return f64::MIN_POSITIVE;
        }
        // The first error with at least p of them all at or under it.
        let rank = ((p * abs.len() as f64).ceil() as usize).clamp(1, abs.len());
        abs[rank - 1].max(f64::MIN_POSITIVE)
    }

    fn eb_search_range(&self) -> (f64, f64) {
        let scale = self
            .error_quantile(0.9)
            .max(self.value_range * 1e-12)
            .max(f64::MIN_POSITIVE);
        (scale * 1e-9, (self.value_range.max(scale)) * 10.0)
    }

    /// Error bound achieving a target overall bit-rate (fix-rate mode).
    ///
    /// Monotone bisection over the model — still a pure computation on the
    /// one-time sample, never a recompression.
    pub fn error_bound_for_bit_rate(&self, target_bit_rate: f64) -> f64 {
        let (mut lo, mut hi) = self.eb_search_range();
        // bit_rate decreases as eb grows.
        for _ in 0..MAX_BISECTION_STEPS {
            let mid = (lo.ln() + hi.ln()).mul_add(0.5, 0.0).exp();
            let end = if self.estimate(mid).bit_rate > target_bit_rate { &mut lo } else { &mut hi };
            if *end == mid {
                break;
            }
            *end = mid;
        }
        (lo.ln() * 0.5 + hi.ln() * 0.5).exp()
    }

    /// Error bound achieving a target overall compression ratio.
    pub fn error_bound_for_ratio(&self, target_ratio: f64) -> f64 {
        assert!(target_ratio > 0.0, "ratio must be positive");
        self.error_bound_for_bit_rate(self.scalar_bits as f64 / target_ratio)
    }

    /// Error bound achieving a target PSNR (quality floor).
    pub fn error_bound_for_psnr(&self, target_db: f64) -> f64 {
        let (mut lo, mut hi) = self.eb_search_range();
        // psnr decreases as eb grows.
        for _ in 0..MAX_BISECTION_STEPS {
            let mid = ((lo.ln() + hi.ln()) * 0.5).exp();
            let psnr = match self.psnr_probe(mid) {
                Some(psnr) if (psnr - target_db).abs() > PSNR_PROBE_GUARD_DB => psnr,
                _ => self.estimate(mid).psnr,
            };
            let end = if psnr > target_db { &mut lo } else { &mut hi };
            if *end == mid {
                break;
            }
            *end = mid;
        }
        ((lo.ln() + hi.ln()) * 0.5).exp()
    }

    /// Estimated rate-distortion curve over a grid of error bounds —
    /// the Fig. 10 series.
    pub fn rate_distortion_curve(&self, ebs: &[f64]) -> Vec<Estimate> {
        ebs.iter().map(|&e| self.estimate(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::Shape;

    /// A field with genuine fine-scale randomness so rate varies with eb.
    fn noisy_field() -> NdArray<f32> {
        let mut state = 0xABCDu64;
        NdArray::from_fn(Shape::d2(128, 128), |ix| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            ((ix[0] as f64 * 0.07).sin() * 5.0 + (ix[1] as f64 * 0.05).cos() * 3.0 + noise * 0.3)
                as f32
        })
    }

    #[test]
    fn estimates_are_monotone_in_eb() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 1);
        let es: Vec<Estimate> =
            [1e-4, 1e-3, 1e-2, 1e-1].iter().map(|&e| m.estimate(e)).collect();
        for w in es.windows(2) {
            assert!(w[1].bit_rate <= w[0].bit_rate + 1e-9, "bit rate must fall");
            assert!(w[1].p0 >= w[0].p0 - 1e-9, "p0 must rise");
            assert!(w[1].psnr <= w[0].psnr + 1e-9, "psnr must fall");
            assert!(w[1].ssim <= w[0].ssim + 1e-9, "ssim must fall");
        }
    }

    #[test]
    fn bit_rate_inversion_roundtrip() {
        let f = noisy_field();
        // Lorenzo: reconstruction feedback floors its rate near ~1.4 bits,
        // so test it above that; interpolation reaches far lower rates.
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 2);
        for target in [2.0, 4.0, 8.0] {
            let eb = m.error_bound_for_bit_rate(target);
            let got = m.estimate(eb).bit_rate;
            assert!((got - target).abs() < 0.25, "target {target} got {got} (eb {eb})");
        }
        let mi = RqModel::build(&f, PredictorKind::Interpolation, 0.1, 2);
        for target in [0.5, 1.0, 4.0] {
            let eb = mi.error_bound_for_bit_rate(target);
            let got = mi.estimate(eb).bit_rate;
            assert!((got - target).abs() < 0.3, "interp target {target} got {got} (eb {eb})");
        }
    }

    #[test]
    fn psnr_inversion_roundtrip() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Interpolation, 0.1, 4);
        for target in [40.0, 60.0, 80.0] {
            let eb = m.error_bound_for_psnr(target);
            let got = m.estimate(eb).psnr;
            assert!((got - target).abs() < 1.0, "target {target} got {got}");
        }
    }

    #[test]
    fn ratio_inversion_consistent_with_bit_rate() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 5);
        let eb = m.error_bound_for_ratio(16.0); // 2 bits/value for f32
        let est = m.estimate(eb);
        assert!((est.ratio - 16.0).abs() / 16.0 < 0.2, "ratio {}", est.ratio);
    }

    #[test]
    fn error_quantile_monotone() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.2, 6);
        let q25 = m.error_quantile(0.25);
        let q50 = m.error_quantile(0.5);
        let q95 = m.error_quantile(0.95);
        assert!(q25 <= q50 && q50 <= q95);
        assert!(q95 > 0.0);
    }

    #[test]
    fn refined_sigma_within_physical_limits() {
        // The refined variance (Eq. 11) can exceed the uniform eb²/3 when
        // central-bin errors pile near the bin edges, but never eb² (the
        // maximum variance of any distribution supported on [-eb, eb]).
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.1, 7);
        for eb in [1e-3, 1e-2, 1e-1, 1.0] {
            let e = m.estimate(eb);
            assert!(e.sigma2 <= eb * eb * (1.0 + 1e-9), "eb {eb}: sigma2 {}", e.sigma2);
            assert!(e.sigma2 > 0.0);
        }
        // At very large bounds p0 → 1 and the refined variance collapses to
        // the (small) central-bin variance, far below uniform.
        let big = m.estimate(10.0);
        assert!(big.sigma2 < big.sigma2_uniform, "refined must win at high eb");
    }

    #[test]
    fn build_is_the_strided_build_at_the_rate() {
        let f = noisy_field();
        let kinds =
            [PredictorKind::Lorenzo, PredictorKind::Interpolation, PredictorKind::Regression];
        for kind in kinds {
            // 128² at 10 %: `build_strided` at 1 638 samples, to the last
            // bit and whatever the seed — there is no RNG anywhere.
            let strided = RqModel::build_strided(f.as_slice(), f.shape(), kind, 1638);
            assert_eq!(strided.value_range(), f.value_range());
            for seed in [0, 42, 20220509] {
                let built = RqModel::build(&f, kind, 0.1, seed);
                assert_eq!(built.sample().errors, strided.sample().errors, "{kind:?}/{seed}");
                for eb in [1e-4, 1e-3, 1e-2, 1e-1, 1.0] {
                    let (x, y) = (built.estimate(eb), strided.estimate(eb));
                    let bits = |e: &Estimate| {
                        [
                            e.eb, e.p0, e.escape_fraction, e.bit_rate_huffman, e.bit_rate, e.ratio,
                            e.sigma2_uniform, e.sigma2, e.psnr, e.psnr_uniform, e.ssim,
                        ]
                        .map(f64::to_bits)
                    };
                    assert_eq!(bits(&x), bits(&y), "{kind:?}/{seed} at {eb:e}");
                }
            }
        }
    }

    #[test]
    fn build_rejects_a_rate_outside_the_unit_interval() {
        let f = noisy_field();
        for rate in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let built =
                std::panic::catch_unwind(|| RqModel::build(&f, PredictorKind::Lorenzo, rate, 1));
            assert!(built.is_err(), "rate {rate} must be refused");
        }
        // The smallest rate still keeps one sample.
        assert_eq!(RqModel::build(&f, PredictorKind::Lorenzo, 1e-9, 1).sample().errors.len(), 1);
    }

    #[test]
    fn build_time_recorded() {
        let f = noisy_field();
        let m = RqModel::build(&f, PredictorKind::Lorenzo, 0.05, 8);
        assert!(m.build_time() > Duration::ZERO);
    }

    #[test]
    fn degenerate_and_non_finite_fields_give_finite_bounds() {
        // One +∞ used to make the value range, the search bracket and then
        // the probed bound infinite ("invalid error bound inf"); a NaN made
        // the variance, hence every SSIM, NaN.
        let mut plus_inf = noisy_field();
        plus_inf.as_mut_slice()[5000] = f32::INFINITY;
        let mut minus_inf = noisy_field();
        minus_inf.as_mut_slice()[77] = f32::NEG_INFINITY;
        let mut nan_row = noisy_field();
        nan_row.as_mut_slice()[128 * 9..128 * 10].fill(f32::NAN);
        let flat = |shape: Shape, v: f32| NdArray::from_fn(shape, |_| v);
        let fields = [
            ("+inf", plus_inf),
            ("-inf", minus_inf),
            ("NaN row", nan_row),
            ("all zero", flat(Shape::d2(40, 40), 0.0)),
            ("constant", flat(Shape::d2(40, 40), 2.5)),
            ("one element", flat(Shape::d1(1), 1.0)),
            ("two elements", NdArray::from_vec(Shape::d1(2), vec![1.0, -3.0])),
        ];
        let clean = RqModel::build(&noisy_field(), PredictorKind::Lorenzo, 0.1, 1);
        for (name, f) in &fields {
            for kind in
                [PredictorKind::Lorenzo, PredictorKind::Interpolation, PredictorKind::Regression]
            {
                let what = format!("{name}/{kind:?}");
                let m = RqModel::build(f, kind, 0.1, 1);
                assert!(m.value_range().is_finite(), "{what}: range {}", m.value_range());
                assert!(m.data_variance().is_finite(), "{what}: variance");
                let bounds = [
                    m.error_bound_for_psnr(60.0),
                    m.error_bound_for_bit_rate(2.0),
                    m.error_quantile(0.5),
                ];
                for eb in bounds {
                    assert!(eb.is_finite() && eb > 0.0, "{what}: bound {eb}");
                    let e = m.estimate(eb);
                    assert!(e.ssim.is_finite(), "{what}: ssim {} at {eb:e}", e.ssim);
                    assert!(e.bit_rate.is_finite() && !e.psnr.is_nan(), "{what}: {e:?}");
                }
            }
            // The strided constructor shares the statistics pass.
            let m = RqModel::build_strided(f.as_slice(), f.shape(), PredictorKind::Lorenzo, 512);
            assert!(m.error_bound_for_psnr(60.0).is_finite(), "{name}/strided");
        }
        // A stray infinity does not move what the model keeps of the rest.
        let m = RqModel::build(&fields[0].1, PredictorKind::Lorenzo, 0.1, 1);
        assert_eq!(m.value_range(), clean.value_range());
        assert!((m.data_variance() - clean.data_variance()).abs() < 1e-3 * clean.data_variance());
    }

    #[test]
    fn psnr_probe_tracks_estimate() {
        // Twelve decades of bounds around the data's own scale, three samples,
        // with and without a quiescent region: the
        // prefix-sum PSNR is the histogram's to far inside
        // PSNR_PROBE_GUARD_DB.
        let mut quiet = noisy_field();
        for v in &mut quiet.as_mut_slice()[..128 * 40] {
            *v = 0.0;
        }
        let mut worst = 0.0f64;
        for f in [noisy_field(), quiet] {
            let models = [
                RqModel::build(&f, PredictorKind::Interpolation, 0.2, 12),
                RqModel::build(&f, PredictorKind::Regression, 0.2, 13),
                RqModel::build_strided(f.as_slice(), f.shape(), PredictorKind::Interpolation, 4096),
            ];
            for m in &models {
                for step in 0..=120 {
                    let eb = m.value_range() * 10f64.powf(-10.0 + step as f64 * 0.1);
                    let (probe, full) = (m.psnr_probe(eb).unwrap(), m.estimate(eb).psnr);
                    let gap = if probe == full { 0.0 } else { (probe - full).abs() };
                    assert!(gap <= 1e-12, "eb {eb:e}: probe {probe} vs estimate {full}");
                    worst = worst.max(gap);
                }
            }
        }
        assert!(worst < PSNR_PROBE_GUARD_DB / 10.0, "worst gap {worst:e} dB");
        println!("worst probe gap {worst:e} dB");
        let lorenzo = RqModel::build(&noisy_field(), PredictorKind::Lorenzo, 0.1, 14);
        assert!(lorenzo.psnr_probe(1e-3).is_none(), "feedback noise has no prefix form");
    }
}
