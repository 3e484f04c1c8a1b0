//! Predictors for prediction-based lossy compression (paper §II-B, §III-C).
//!
//! Three predictor families, matching the three the paper models for SZ3:
//!
//! * [`lorenzo`] — the Lorenzo predictor (order 1 and 2), a finite-difference
//!   extrapolation from the already-visited corner neighborhood,
//! * [`interp`] — the dynamic multi-level spline interpolation predictor of
//!   Zhao et al. (ICDE'21), enumerated as a deterministic *stencil plan* so
//!   the compressor, decompressor and the analytical model all walk the
//!   identical traversal,
//! * [`regression`] — the block-wise linear regression predictor of
//!   Liang et al. (SZ2), fitting a hyperplane per 6^d block.
//!
//! All predictions operate on an `f64` working buffer; the compressor
//! promotes `f32` fields on entry (cost: one extra buffer, benefit: one
//! code path whose arithmetic matches the model's derivations exactly).
//!
//! ## Paper-section map
//!
//! | Module         | Paper section | Implements                           |
//! |----------------|---------------|--------------------------------------|
//! | [`lorenzo`]    | §II-B, §III-C1 | order-1/2 Lorenzo stencils (and their sampling variant) |
//! | [`interp`]     | §II-B, §III-C1 | the SZ3 multi-level interpolation traversal |
//! | [`regression`] | §II-B, §III-C1 | SZ2 block-wise linear regression with coefficient side channel |
//! | [`sample`]     | §III-C        | the one strided error sampler and the one Eq. 1 estimate of its sample (model, planner, scheduler) |
//! | [`histogram`]  | §III-B Eq. 1, §III-C2–C4 | the estimated quantization-code histogram with its corrections, and the Huffman rate of it |
//!
//! In the chunk-parallel pipeline every chunk starts a fresh traversal, so
//! each predictor's causal history never crosses an axis-0 slab boundary.

#![forbid(unsafe_code)]

pub mod histogram;
pub mod interp;
pub mod lorenzo;
pub mod regression;
pub mod sample;

pub use sample::{sample_prediction_errors, PredictionSample, SampledEstimate};

/// Which predictor a pipeline uses. Serialized into container headers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Order-1 Lorenzo.
    Lorenzo,
    /// Order-2 Lorenzo.
    Lorenzo2,
    /// Multi-level cubic/linear interpolation.
    Interpolation,
    /// Block-wise linear regression.
    Regression,
    /// Time-delta coding: the stream holds residuals against the
    /// *reconstructed* previous time step (computed by the catalog
    /// layer), traversed spatially with the order-1 Lorenzo stencil.
    ///
    /// Within a single field this predictor behaves exactly like
    /// [`PredictorKind::Lorenzo`]; the tag exists so an archive segment
    /// self-describes that its values are temporal residuals, not the
    /// field itself. Only meaningful inside a catalog container.
    TemporalDelta,
}

impl PredictorKind {
    /// Stable one-byte tag for container headers.
    pub fn tag(self) -> u8 {
        match self {
            PredictorKind::Lorenzo => 0,
            PredictorKind::Lorenzo2 => 1,
            PredictorKind::Interpolation => 2,
            PredictorKind::Regression => 3,
            PredictorKind::TemporalDelta => 4,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => PredictorKind::Lorenzo,
            1 => PredictorKind::Lorenzo2,
            2 => PredictorKind::Interpolation,
            3 => PredictorKind::Regression,
            4 => PredictorKind::TemporalDelta,
            _ => return None,
        })
    }

    /// Human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Lorenzo => "lorenzo",
            PredictorKind::Lorenzo2 => "lorenzo2",
            PredictorKind::Interpolation => "interpolation",
            PredictorKind::Regression => "regression",
            PredictorKind::TemporalDelta => "temporal-delta",
        }
    }

    /// All predictor kinds, in tag order.
    pub fn all() -> [PredictorKind; 5] {
        [
            PredictorKind::Lorenzo,
            PredictorKind::Lorenzo2,
            PredictorKind::Interpolation,
            PredictorKind::Regression,
            PredictorKind::TemporalDelta,
        ]
    }

    /// The `C2` bin-transfer constant of the paper's Eq. 9 (§III-C4):
    /// 0.2 for Lorenzo, 0.1 for interpolation, 0 otherwise (regression
    /// predicts from original values so no correction is needed).
    pub fn bin_transfer_c2(self) -> f64 {
        match self {
            // TemporalDelta runs the Lorenzo stencil over the residual
            // field, so its bin-transfer behavior matches Lorenzo's.
            PredictorKind::Lorenzo | PredictorKind::Lorenzo2 | PredictorKind::TemporalDelta => 0.2,
            PredictorKind::Interpolation => 0.1,
            PredictorKind::Regression => 0.0,
        }
    }

    /// Reconstruction-feedback noise coefficient κ on a field of `ndim`
    /// dimensions: during actual compression each Lorenzo neighbor carries
    /// quantization noise of order the error bound, so real prediction
    /// errors are the sampled (original-value) errors plus ≈ κ·eb of extra
    /// dispersion. This extends the Eq. 9 correction layer to the p0 → 1
    /// regime where the bin transfer alone vanishes. Calibrated against
    /// measured Lorenzo histograms: the noise of a `t`-tap stencil behaves
    /// like κ·eb with κ ≈ 0.577·t^¼ (uniform single-neighbor noise is
    /// eb/√3, correlations damp the multi-tap sum far below the independent
    /// √t growth). Zero for predictors without feedback (regression) or
    /// with empirically negligible feedback (interpolation).
    pub fn feedback_kappa(self, ndim: usize) -> f64 {
        let order = match self {
            PredictorKind::Lorenzo | PredictorKind::TemporalDelta => 1,
            PredictorKind::Lorenzo2 => 2,
            PredictorKind::Interpolation | PredictorKind::Regression => return 0.0,
        };
        0.577 * (lorenzo::LorenzoStencil::new(ndim, order).tap_count() as f64).powf(0.25)
    }

    /// Quality-side cascade gain `g` of the interpolation predictor's
    /// multi-level feedback: the effective central-bin variance is the
    /// sampled one inflated by `1/(1 − g·p0_dense)` — every centrally-
    /// quantized point passes its parents' reconstruction error straight
    /// through, so the level cascade amplifies until a non-central code
    /// resets the residual (the `p0` factor). Calibrated g ≈ 0.85 against
    /// measured reconstruction-error variances on wavefield and noise
    /// fields; zero where [`Self::feedback_kappa`] already injects the
    /// dispersion (Lorenzo) or no feedback exists (regression).
    pub fn quality_kappa(self) -> f64 {
        match self {
            PredictorKind::Interpolation => 0.85,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for k in PredictorKind::all() {
            assert_eq!(PredictorKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PredictorKind::from_tag(9), None);
    }

    #[test]
    fn names_distinct() {
        let names: std::collections::HashSet<_> =
            PredictorKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn c2_constants_match_paper() {
        assert_eq!(PredictorKind::Lorenzo.bin_transfer_c2(), 0.2);
        assert_eq!(PredictorKind::Interpolation.bin_transfer_c2(), 0.1);
    }
}
