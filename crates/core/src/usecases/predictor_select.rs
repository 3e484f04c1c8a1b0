//! Use-case 1 (§IV-A): adaptive best-predictor selection.
//!
//! One model per candidate predictor is built from a single sampling pass
//! each; the selector then compares *estimated* rate-distortion curves and
//! picks the best-fit predictor for any error bound, target bit-rate or
//! target quality — replacing the trial-and-error pre-compression of
//! existing predictor-selection schemes (21.8× cheaper in the paper's
//! Fig. 10 experiment).

use crate::model::{Estimate, RqModel};
use rq_grid::{NdArray, Scalar};
use rq_predict::PredictorKind;

/// Rate-distortion based predictor selector.
#[derive(Debug)]
pub struct PredictorSelector {
    models: Vec<RqModel>,
}

impl PredictorSelector {
    /// Build one model per candidate predictor.
    pub fn build<T: Scalar>(
        field: &NdArray<T>,
        candidates: &[PredictorKind],
        rate: f64,
        seed: u64,
    ) -> Self {
        assert!(!candidates.is_empty(), "need at least one candidate");
        let models = candidates.iter().map(|&k| RqModel::build(field, k, rate, seed)).collect();
        PredictorSelector { models }
    }

    /// The candidate models.
    pub fn models(&self) -> &[RqModel] {
        &self.models
    }

    /// Estimated RD curve (one [`Estimate`] per error bound) per candidate.
    pub fn rate_distortion_curves(&self, ebs: &[f64]) -> Vec<(PredictorKind, Vec<Estimate>)> {
        self.models
            .iter()
            .map(|m| (m.predictor(), m.rate_distortion_curve(ebs)))
            .collect()
    }

    /// Best predictor for a fixed error bound: highest estimated ratio
    /// (quality is equal by construction — same bound).
    pub fn best_for_error_bound(&self, eb: f64) -> (PredictorKind, Estimate) {
        self.models
            .iter()
            .map(|m| (m.predictor(), m.estimate(eb)))
            .max_by(|a, b| a.1.ratio.total_cmp(&b.1.ratio))
            .expect("non-empty candidates")
    }

    /// Best predictor for a target bit-rate: highest estimated PSNR at the
    /// bound that meets the rate.
    pub fn best_for_bit_rate(&self, bit_rate: f64) -> (PredictorKind, f64, Estimate) {
        self.models
            .iter()
            .map(|m| {
                let eb = m.error_bound_for_bit_rate(bit_rate);
                (m.predictor(), eb, m.estimate(eb))
            })
            .max_by(|a, b| a.2.psnr.total_cmp(&b.2.psnr))
            .expect("non-empty candidates")
    }

    /// Scan a bit-rate grid and report where the winning predictor changes:
    /// `(bit_rate, winner)` transitions — the crossover the paper finds at
    /// ≈1.89 bits on RTM (Fig. 10).
    pub fn crossovers(&self, bit_rates: &[f64]) -> Vec<(f64, PredictorKind)> {
        let mut out = Vec::new();
        let mut prev: Option<PredictorKind> = None;
        for &b in bit_rates {
            let (winner, _, _) = self.best_for_bit_rate(b);
            if prev != Some(winner) {
                out.push((b, winner));
                prev = Some(winner);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::Shape;

    fn field() -> NdArray<f32> {
        let mut state = 77u64;
        NdArray::from_fn(Shape::d2(96, 96), |ix| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            ((ix[0] as f64 * 0.2).sin() * 2.0 + ix[1] as f64 * 0.01 + noise * 0.1) as f32
        })
    }

    fn selector() -> PredictorSelector {
        PredictorSelector::build(
            &field(),
            &[PredictorKind::Lorenzo, PredictorKind::Interpolation],
            0.1,
            11,
        )
    }

    #[test]
    fn curves_have_requested_grid() {
        let s = selector();
        let ebs = [1e-3, 1e-2, 1e-1];
        let curves = s.rate_distortion_curves(&ebs);
        assert_eq!(curves.len(), 2);
        for (_, c) in &curves {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn best_for_eb_returns_max_ratio() {
        let s = selector();
        let (_, best) = s.best_for_error_bound(1e-2);
        for m in s.models() {
            assert!(best.ratio >= m.estimate(1e-2).ratio - 1e-12);
        }
    }

    #[test]
    fn best_for_bit_rate_meets_rate() {
        let s = selector();
        let (_, eb, est) = s.best_for_bit_rate(2.0);
        assert!(eb > 0.0);
        assert!((est.bit_rate - 2.0).abs() < 0.5, "bit rate {}", est.bit_rate);
    }

    #[test]
    fn crossovers_start_with_first_winner() {
        let s = selector();
        let grid: Vec<f64> = (1..=12).map(|i| i as f64 * 0.5).collect();
        let xs = s.crossovers(&grid);
        assert!(!xs.is_empty());
        assert_eq!(xs[0].0, 0.5);
    }
}
