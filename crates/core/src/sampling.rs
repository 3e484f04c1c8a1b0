//! The model's view of the one prediction-error sample (paper §III-C).
//!
//! The model's only data-dependent input is a sampled distribution of
//! prediction errors. Crucially, sampling predicts from **original** values
//! (§III-C4) — unlike actual compression, which predicts from reconstructed
//! values — which is what makes a *single* sampling pass reusable across
//! every candidate error bound. The residual discrepancy is corrected later
//! by the histogram bin-transfer of Eq. 9.
//!
//! There is one sampler, [`rq_predict::sample_prediction_errors`]: a
//! uniform odd stride over each predictor's own traversal (raster points
//! for Lorenzo, the level-by-level stencil plan for interpolation, whole
//! blocks for regression), every kept visit addressed by its index. The
//! scheduler, every `--target-*` plan and [`crate::RqModel::build`] read
//! it; this module turns what it returns into an [`ErrorSample`] — sparse
//! zeros split off, the calibrated feedback coefficients filled in.
//!
//! A stride over the interpolation traversal samples every level in
//! proportion to its size (§III-C2: each level is 2⁻ⁿ of the next). The
//! level-aware alternative this crate used to carry — coarse levels
//! exhaustively, inverse-probability weighting — was dropped for it. What
//! that costs: the few coarse-level targets, whose errors are the largest,
//! are reached by luck, so the sample's own std is farther from the
//! field's (Table II's sampling column reads 0.183 %, 0.135 % before). What
//! it does not cost: on the repository benchmark the two samplers differ by
//! at most 0.0020 in ratio accuracy and 0.0004 in PSNR accuracy, in both
//! directions, and plan the same bounds to the last bit (CHANGES.md, PR 21).

use rq_predict::lorenzo::LorenzoStencil;
use rq_predict::PredictorKind;

/// A sample of prediction errors, every one standing for as many points
/// of the field as any other.
#[derive(Clone, Debug)]
pub struct ErrorSample {
    /// Sampled prediction errors (original-value predictions).
    pub errors: Vec<f64>,
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
    /// Build from the strided sample
    /// ([`rq_predict::sample_prediction_errors`]), filling in the
    /// calibrated feedback coefficients of its predictor.
    ///
    /// Quiescent exact-zero points are moved out of the error list into
    /// `sparse_fraction` (the §III-C sparse treatment); the result goes
    /// into a full ratio-quality model via [`crate::RqModel::from_sample`].
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
        ErrorSample {
            errors,
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

    /// Standard deviation of the sampled errors.
    pub fn std(&self) -> f64 {
        let n = self.errors.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean: f64 = self.errors.iter().sum::<f64>() / n;
        let var: f64 = self.errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
        var.sqrt()
    }

    /// The signal scale the feedback noise of §III-C4 saturates at:
    /// [`Self::std`] for a predictor with feedback, and 0 (never
    /// read) without. Two passes over the sample, so a model takes it once.
    pub(crate) fn feedback_std(&self) -> f64 {
        if self.feedback_kappa > 0.0 {
            self.std()
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

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::{NdArray, Shape};
    use rq_predict::sample_prediction_errors;

    fn sample_of(f: &NdArray<f64>, kind: PredictorKind, target: usize) -> ErrorSample {
        let ps = sample_prediction_errors(f.as_slice(), f.shape(), kind, target);
        ErrorSample::from_prediction_sample(&ps)
    }

    #[test]
    fn smooth_field_errors_small() {
        let shape = Shape::d2(64, 64);
        let f = NdArray::<f64>::from_fn(shape, |ix| {
            ix.iter().enumerate().map(|(a, &c)| ((c as f64) * 0.2 * (a + 1) as f64).sin()).sum()
        });
        for kind in PredictorKind::all() {
            let s = sample_of(&f, kind, shape.len() / 20);
            assert!(!s.is_empty());
            let sd = s.std();
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
        let full = sample_of(&f, PredictorKind::Lorenzo, f.len());
        let sampled = sample_of(&f, PredictorKind::Lorenzo, f.len() / 100);
        assert_eq!(full.len(), f.len());
        let (a, b) = (full.std(), sampled.std());
        assert!((a - b).abs() / a < 0.15, "full {a} sampled {b}");
    }

    #[test]
    fn sparse_zeros_leave_the_errors_and_become_a_fraction() {
        // A quiescent first half: its exact zeros are counted, not modelled.
        let f = NdArray::<f64>::from_fn(Shape::d2(40, 50), |ix| {
            if ix[0] < 20 {
                0.0
            } else {
                (ix[1] as f64 * 0.3).sin() + 2.0
            }
        });
        for kind in [PredictorKind::Lorenzo, PredictorKind::Interpolation] {
            let ps = sample_prediction_errors(f.as_slice(), f.shape(), kind, f.len());
            let s = ErrorSample::from_prediction_sample(&ps);
            assert!(ps.sparse_count > 0, "{kind:?}");
            assert_eq!(s.len() + ps.sparse_count, ps.errors.len(), "{kind:?}");
            let want = ps.sparse_count as f64 / ps.errors.len() as f64;
            assert_eq!(s.sparse_fraction, want, "{kind:?}");
            assert!((0.3..0.6).contains(&s.sparse_fraction), "{kind:?}: {}", s.sparse_fraction);
        }
    }
}
