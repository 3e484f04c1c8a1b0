//! Use-case 2 (§IV-B): memory compression with a target footprint.
//!
//! The model picks the error bounds whose *estimated* size is a safety
//! margin below the assigned space (the paper targets 80 % of the budget);
//! [`super::TargetSession`] compresses once under them and only in the
//! rare overflow case re-plans with a proportionally lowered target and
//! recompresses — the second-round strategy of §IV-B.

use crate::model::RqModel;
use crate::usecases::insitu::{allocate, validate_inputs, Limit, PartitionPlan, PlanError};

/// Share of a byte budget the plan leaves unspent, so estimate error
/// cannot overflow the ceiling (the paper's §IV-B rule: aim at 80 %).
const BUDGET_MARGIN: f64 = 0.2;

/// Optimize per-partition error bounds so the *estimated* total size fits
/// 80 % of `budget_bytes` while minimizing the aggregate (size-weighted)
/// error variance — the §IV-B fixed-footprint use-case generalized to one
/// bound per partition, the dual of [`super::insitu::optimize_partitions`].
///
/// * `models` — one [`RqModel`] per partition (chunk);
/// * `sizes` — element count per partition;
/// * `value_range` — range of the combined data (for the reported PSNR);
/// * `grid_points` — candidate bounds per partition (log-spaced).
///
/// Returns [`PlanError::BudgetTooSmall`] when even the loosest candidate
/// bounds exceed the margin-adjusted budget.
pub fn plan_budget(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
    budget_bytes: usize,
    grid_points: usize,
) -> Result<PartitionPlan, PlanError> {
    validate_inputs(models, sizes, value_range, grid_points)?;
    if budget_bytes == 0 {
        return Err(PlanError::InvalidTarget("zero byte budget".into()));
    }
    let total: f64 = sizes.iter().map(|&s| s as f64).sum();
    // The budget as an aggregate bits/value target.
    let target_bits = budget_bytes as f64 * 8.0 * (1.0 - BUDGET_MARGIN) / total;
    let ends = |m: &RqModel| {
        // Tightest rung: the 5 % error quantile (any tighter and the rate
        // model saturates toward verbatim cost anyway); loosest: where the
        // model's rate becomes negligible.
        let lo = m.error_quantile(0.05).max(value_range * 1e-12).max(f64::MIN_POSITIVE);
        (lo, m.error_bound_for_bit_rate(0.05).max(lo * 4.0))
    };
    let limit = Limit::Bits(target_bits);
    allocate(models, sizes, value_range, grid_points, None, limit, ends).map_err(|min_bits| {
        PlanError::BudgetTooSmall {
            budget_bytes,
            min_bytes: (min_bits * total / 8.0 / (1.0 - BUDGET_MARGIN)).ceil() as usize,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::{NdArray, Shape};
    use rq_predict::PredictorKind;

    #[test]
    fn budget_plan_fits_and_prefers_quiet_partitions() {
        // Four partitions of increasing noise (as in the insitu tests):
        // the plan must fit the margin-adjusted budget estimate and give
        // the noisy partitions the looser bounds.
        let mut parts = Vec::new();
        let mut state = 0xBEEFu64;
        for p in 0..4 {
            let amp = 0.02 * 4f64.powi(p);
            parts.push(NdArray::<f32>::from_fn(Shape::d2(64, 64), |ix| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                ((ix[0] as f64 * 0.1).sin() * 3.0 + noise * amp) as f32
            }));
        }
        let range = parts.iter().map(|f| f.value_range()).fold(0.0f64, f64::max);
        let models: Vec<RqModel> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| RqModel::build(p, PredictorKind::Lorenzo, 0.1, 40 + i as u64))
            .collect();
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let n_total: usize = sizes.iter().sum();
        // 3 bits/value aggregate.
        let budget = n_total * 3 / 8;
        let plan = plan_budget(&models, &sizes, range, budget, 32).unwrap();
        let est_bytes = plan.est_bit_rate * n_total as f64 / 8.0;
        assert!(
            est_bytes <= budget as f64 * 0.85,
            "est {est_bytes:.0} B vs budget {budget} B"
        );
        // Utilization: the plan should not waste the budget either.
        assert!(est_bytes >= budget as f64 * 0.25, "est {est_bytes:.0} B");
        assert!(
            plan.ebs[3] >= plan.ebs[0],
            "noisy partition must not get a tighter bound: {:?}",
            plan.ebs
        );
        // And the dual direction: an absurdly small budget is a typed
        // error, not a silent overflow.
        assert!(matches!(
            plan_budget(&models, &sizes, range, 16, 32),
            Err(PlanError::BudgetTooSmall { .. })
        ));
        assert!(matches!(
            plan_budget(&models, &sizes, range, 0, 32),
            Err(PlanError::InvalidTarget(_))
        ));
    }
}
