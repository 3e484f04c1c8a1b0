//! Use-case 3 (§IV-C): in-situ per-partition error-bound optimization.
//!
//! A dataset analyzed as a whole (e.g. the stacked RTM image built from
//! many timestep snapshots) is compressed partition by partition. Because
//! partitions differ in content, one global error bound wastes bits: quiet
//! partitions could take much larger bounds at no aggregate-quality cost.
//!
//! With one model per partition the allocation becomes a classic
//! rate-distortion problem: minimize total bits subject to an aggregate
//! error-variance budget (equivalently, a PSNR floor on the combined
//! analysis). We solve it greedily on per-partition error-bound grids —
//! each step takes the move with the best Δbits/Δvariance trade — which is
//! the discrete water-filling the paper's "fine-grained tuning" performs.
//! Trial-and-error cannot do this at all: the configuration space is
//! exponential in the number of partitions (§IV-C).

use crate::model::RqModel;

/// Why a per-partition plan could not be produced.
///
/// Historically the planner asserted on malformed inputs and silently
/// fell back to its tightest grid rungs when the quality floor was
/// unreachable — inside a compression pipeline both must surface as
/// errors (`rqm` maps them to `CompressError::InvalidConfig`), never as a
/// panic or a quietly-missed target.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// No partitions were given.
    NoPartitions,
    /// `models` and `sizes` have different lengths.
    MismatchedInputs {
        /// Number of models given.
        models: usize,
        /// Number of sizes given.
        sizes: usize,
    },
    /// Fewer than two candidate grid points per partition.
    GridTooSmall(usize),
    /// The target or the data statistics make planning meaningless
    /// (non-finite target, zero value range, …).
    InvalidTarget(String),
    /// The PSNR floor is unreachable even at the tightest candidate
    /// bounds of every partition.
    UnreachableTarget {
        /// The requested aggregate PSNR floor (dB).
        target_psnr: f64,
        /// The best aggregate PSNR the candidate grids can deliver (dB).
        achievable_psnr: f64,
    },
    /// The byte budget is below the smallest achievable archive
    /// (size-targeted planning only).
    BudgetTooSmall {
        /// The requested ceiling in bytes.
        budget_bytes: usize,
        /// The estimated minimum achievable size in bytes.
        min_bytes: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoPartitions => write!(f, "need at least one partition"),
            PlanError::MismatchedInputs { models, sizes } => {
                write!(f, "{models} models but {sizes} partition sizes")
            }
            PlanError::GridTooSmall(n) => {
                write!(f, "need at least 2 grid points per partition, got {n}")
            }
            PlanError::InvalidTarget(m) => write!(f, "invalid planning target: {m}"),
            PlanError::UnreachableTarget { target_psnr, achievable_psnr } => write!(
                f,
                "PSNR floor {target_psnr:.2} dB is unreachable: the tightest candidate \
                 bounds deliver only {achievable_psnr:.2} dB"
            ),
            PlanError::BudgetTooSmall { budget_bytes, min_bytes } => write!(
                f,
                "size budget {budget_bytes} B is below the estimated minimum archive size \
                 {min_bytes} B"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The optimized per-partition assignment.
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    /// Chosen error bound per partition.
    pub ebs: Vec<f64>,
    /// Estimated overall bit-rate (size-weighted mean).
    pub est_bit_rate: f64,
    /// Estimated aggregate error variance (size-weighted mean).
    pub est_sigma2: f64,
    /// Estimated aggregate PSNR against `value_range` of the combined data.
    pub est_psnr: f64,
}

/// Optimize per-partition error bounds to meet `target_psnr` on the
/// aggregate (size-weighted) error variance while minimizing total bits.
///
/// * `models` — one [`RqModel`] per partition;
/// * `sizes` — element count per partition;
/// * `value_range` — range of the combined data (for the PSNR definition);
/// * `grid_points` — number of candidate bounds per partition (log-spaced).
///
/// Returns a typed [`PlanError`] on malformed inputs and when the floor
/// is unreachable even at every partition's tightest candidate bound.
pub fn optimize_partitions(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
    target_psnr: f64,
    grid_points: usize,
) -> Result<PartitionPlan, PlanError> {
    optimize_partitions_corrected(models, sizes, value_range, target_psnr, grid_points, None)
}

/// Per-partition measured-feedback corrections for
/// [`optimize_partitions_corrected`]: multiplicative factors that anchor
/// each partition's modeled rate-distortion curve to one real
/// compression pass (`measured / modeled`, both at the previous round's
/// bound for that partition).
#[derive(Clone, Debug)]
pub struct PlanCorrection {
    /// Per-partition factor on the modeled error variance.
    pub sigma_scale: Vec<f64>,
    /// Per-partition factor on the modeled bit-rate.
    pub bits_scale: Vec<f64>,
}

impl PlanCorrection {
    /// Build the correction from one measured round: per-partition mean
    /// squared error and compressed bits/value, both observed at the
    /// round's bounds `ebs`. Ratios are clamped to a sane band so a
    /// degenerate measurement (e.g. an exactly-zero chunk) cannot blow up
    /// the next round's optimization. The single definition shared by the
    /// CLI and the model-accuracy suite.
    ///
    /// # Panics
    /// Panics if the slice lengths disagree.
    pub fn from_measured(
        models: &[RqModel],
        ebs: &[f64],
        measured_sigma2: &[f64],
        measured_bits: &[f64],
    ) -> PlanCorrection {
        assert!(
            models.len() == ebs.len()
                && models.len() == measured_sigma2.len()
                && models.len() == measured_bits.len(),
            "per-partition inputs must align"
        );
        let mut sigma_scale = Vec::with_capacity(models.len());
        let mut bits_scale = Vec::with_capacity(models.len());
        for (((m, &eb), &ms), &mb) in
            models.iter().zip(ebs).zip(measured_sigma2).zip(measured_bits)
        {
            let est = m.estimate(eb);
            sigma_scale.push((ms / est.sigma2.max(1e-300)).clamp(1e-3, 1e3));
            bits_scale.push((mb / est.bit_rate.max(1e-300)).clamp(1e-3, 1e3));
        }
        PlanCorrection { sigma_scale, bits_scale }
    }
}

/// [`optimize_partitions`] with an optional per-partition
/// [`PlanCorrection`] from a previous measured round.
///
/// This is the quality-targeted pipeline's second-round hook: after one
/// compression pass, each chunk's measured error variance and compressed
/// size are available; the ratios to the model's predictions (at the
/// round-1 bounds) correct both the aggregate bias and — more
/// importantly — the *allocation*: a chunk whose variance or rate the
/// model misestimates would otherwise be traded against the others on
/// phantom terms forever.
pub fn optimize_partitions_corrected(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
    target_psnr: f64,
    grid_points: usize,
    correction: Option<&PlanCorrection>,
) -> Result<PartitionPlan, PlanError> {
    validate_inputs(models, sizes, grid_points)?;
    if !target_psnr.is_finite() {
        return Err(PlanError::InvalidTarget(format!("target PSNR {target_psnr}")));
    }
    if !(value_range.is_finite() && value_range > 0.0) {
        return Err(PlanError::InvalidTarget(format!("value range {value_range}")));
    }
    if let Some(c) = correction {
        for scale in [&c.sigma_scale, &c.bits_scale] {
            if scale.len() != models.len() {
                return Err(PlanError::MismatchedInputs {
                    models: models.len(),
                    sizes: scale.len(),
                });
            }
            if let Some(&bad) = scale.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
                return Err(PlanError::InvalidTarget(format!("correction scale {bad}")));
            }
        }
    }
    let scale_of = |i: usize| correction.map_or(1.0, |c| c.sigma_scale[i]);
    let bits_of_part = |i: usize| correction.map_or(1.0, |c| c.bits_scale[i]);
    let target_sigma2 = crate::quality::sigma2_for_psnr(value_range, target_psnr);
    let total: f64 = sizes.iter().map(|&s| s as f64).sum();

    // Candidate ladders per partition: log-spaced bounds from "tiny" to
    // "half the quality budget spent on this partition alone".
    #[derive(Clone, Copy)]
    struct Point {
        eb: f64,
        bits: f64,
        sigma2: f64,
    }
    let ladders: Vec<Vec<Point>> = models
        .iter()
        .enumerate()
        .map(|(pi, m)| {
            // Tightest rung: well below the quality budget even if this
            // partition behaved uniformly (eb²/3 ≈ target/30).
            let lo = (m.error_quantile(0.05))
                .min((target_sigma2 * 0.1).sqrt())
                .max(value_range * 1e-12)
                .max(f64::MIN_POSITIVE);
            // Loosest rung: where the *model's* variance (which accounts
            // for code concentration and sparsity) reaches 3x the whole
            // budget — not the uniform-distribution bound, which can be
            // far too conservative.
            let psnr_floor = crate::quality::psnr_model(value_range, target_sigma2 * 3.0);
            let hi = m.error_bound_for_psnr(psnr_floor).max(lo * 4.0);
            (0..grid_points)
                .map(|i| {
                    let t = i as f64 / (grid_points - 1) as f64;
                    let eb = (lo.ln() + t * (hi.ln() - lo.ln())).exp();
                    let est = m.estimate(eb);
                    Point {
                        eb,
                        bits: est.bit_rate * bits_of_part(pi),
                        sigma2: est.sigma2 * scale_of(pi),
                    }
                })
                .collect()
        })
        .collect();

    // Lagrangian rung selection: for a multiplier λ each partition
    // independently minimizes `bits + λ·σ²` over its ladder; bisecting λ
    // finds the cheapest allocation within the variance budget. This is
    // robust to the non-convex bits(σ²) curves the RLE and feedback models
    // produce (a pure greedy walk gets trapped on them).
    let weight: Vec<f64> = sizes.iter().map(|&s| s as f64 / total).collect();
    let pick = |lambda: f64| -> Vec<usize> {
        ladders
            .iter()
            .map(|ladder| {
                let mut best = 0usize;
                let mut best_cost = f64::INFINITY;
                for (j, p) in ladder.iter().enumerate() {
                    let cost = p.bits + lambda * p.sigma2;
                    if cost < best_cost {
                        best_cost = cost;
                        best = j;
                    }
                }
                best
            })
            .collect()
    };
    let agg_of = |level: &[usize]| -> f64 {
        level.iter().zip(&ladders).zip(&weight).map(|((&l, lad), w)| lad[l].sigma2 * w).sum()
    };
    // λ → ∞ forces the tightest rungs; λ = 0 the loosest.
    let (mut lam_lo, mut lam_hi) = (1e-18f64, 1e18f64);
    for _ in 0..80 {
        let mid = (lam_lo.ln() + lam_hi.ln()).mul_add(0.5, 0.0).exp();
        if agg_of(&pick(mid)) > target_sigma2 {
            lam_lo = mid; // too lossy: raise the penalty
        } else {
            lam_hi = mid;
        }
    }
    let mut level = pick(lam_hi);
    if agg_of(&level) > target_sigma2 {
        // Fall back to the tightest rungs if even λ_hi is insufficient —
        // and if those still miss the floor, the target is unreachable on
        // this grid: a typed error, not a silently lossier plan (the old
        // behavior) or a panic downstream.
        level = vec![0; models.len()];
        let best = agg_of(&level);
        if best > target_sigma2 {
            return Err(PlanError::UnreachableTarget {
                target_psnr,
                achievable_psnr: crate::quality::psnr_model(value_range, best),
            });
        }
    }
    let mut agg_sigma2 = agg_of(&level);

    // Polish: the discrete rungs leave budget slack; spend it by bisecting
    // each partition's bound continuously toward its next rung.
    let mut ebs: Vec<f64> = level.iter().zip(&ladders).map(|(&l, lad)| lad[l].eb).collect();
    let mut sigmas: Vec<f64> =
        level.iter().zip(&ladders).map(|(&l, lad)| lad[l].sigma2).collect();
    for _round in 0..2 {
        for (i, m) in models.iter().enumerate() {
            let next = ladders[i].get(level[i] + 1);
            let hi_eb = next.map_or(ebs[i] * 2.0, |p| p.eb);
            let budget_left = target_sigma2 - agg_sigma2;
            if budget_left <= 0.0 {
                break;
            }
            // Largest eb in [cur, hi] whose variance increase fits.
            let (mut lo_e, mut hi_e) = (ebs[i], hi_eb);
            for _ in 0..24 {
                let mid = ((lo_e.ln() + hi_e.ln()) * 0.5).exp();
                let s2 = m.estimate(mid).sigma2 * scale_of(i);
                if (s2 - sigmas[i]).max(0.0) * weight[i] <= budget_left {
                    lo_e = mid;
                } else {
                    hi_e = mid;
                }
            }
            let s2 = m.estimate(lo_e).sigma2 * scale_of(i);
            agg_sigma2 += (s2 - sigmas[i]).max(0.0) * weight[i];
            ebs[i] = lo_e;
            sigmas[i] = s2;
        }
    }

    let est_bit_rate: f64 = models
        .iter()
        .enumerate()
        .zip(&ebs)
        .zip(&weight)
        .map(|(((i, m), &eb), w)| m.estimate(eb).bit_rate * bits_of_part(i) * w)
        .sum();
    let est_sigma2: f64 = sigmas.iter().zip(&weight).map(|(s, w)| s * w).sum();
    Ok(PartitionPlan {
        ebs,
        est_bit_rate,
        est_sigma2,
        est_psnr: crate::quality::psnr_model(value_range, est_sigma2),
    })
}

/// Shared input validation for the partition planners.
pub(crate) fn validate_inputs(
    models: &[RqModel],
    sizes: &[usize],
    grid_points: usize,
) -> Result<(), PlanError> {
    if models.is_empty() {
        return Err(PlanError::NoPartitions);
    }
    if models.len() != sizes.len() {
        return Err(PlanError::MismatchedInputs { models: models.len(), sizes: sizes.len() });
    }
    if grid_points < 2 {
        return Err(PlanError::GridTooSmall(grid_points));
    }
    Ok(())
}

/// Baseline for comparison: the single global error bound meeting the same
/// aggregate target (what the traditional offline approach delivers).
pub fn uniform_eb_for_target(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
    target_psnr: f64,
) -> (f64, PartitionPlan) {
    assert!(!models.is_empty());
    let target_sigma2 = crate::quality::sigma2_for_psnr(value_range, target_psnr);
    let total: f64 = sizes.iter().map(|&s| s as f64).sum();
    let weight: Vec<f64> = sizes.iter().map(|&s| s as f64 / total).collect();

    let agg = |eb: f64| -> (f64, f64) {
        let mut s2 = 0.0;
        let mut bits = 0.0;
        for (m, w) in models.iter().zip(&weight) {
            let e = m.estimate(eb);
            s2 += e.sigma2 * w;
            bits += e.bit_rate * w;
        }
        (s2, bits)
    };
    let (mut lo, mut hi) = (value_range * 1e-12, value_range);
    for _ in 0..80 {
        let mid = ((lo.ln() + hi.ln()) * 0.5).exp();
        if agg(mid).0 < target_sigma2 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let eb = lo;
    let (s2, bits) = agg(eb);
    (
        eb,
        PartitionPlan {
            ebs: vec![eb; models.len()],
            est_bit_rate: bits,
            est_sigma2: s2,
            est_psnr: crate::quality::psnr_model(value_range, s2),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::{NdArray, Shape};
    use rq_predict::PredictorKind;

    /// Partitions with very different noise levels — exactly the setting
    /// where per-partition tuning wins.
    fn partitions() -> (Vec<NdArray<f32>>, f64) {
        let mut out = Vec::new();
        let mut state = 0xF00Du64;
        for part in 0..4 {
            let amp = 0.02 * 4f64.powi(part); // 0.02 .. 1.28
            out.push(NdArray::<f32>::from_fn(Shape::d2(64, 64), |ix| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                ((ix[0] as f64 * 0.1).sin() * 3.0 + noise * amp) as f32
            }));
        }
        let range = out
            .iter()
            .map(|f| f.value_range())
            .fold(0.0f64, f64::max);
        (out, range)
    }

    fn models(parts: &[NdArray<f32>]) -> Vec<RqModel> {
        parts
            .iter()
            .enumerate()
            .map(|(i, p)| RqModel::build(p, PredictorKind::Lorenzo, 0.1, 100 + i as u64))
            .collect()
    }

    #[test]
    fn plan_meets_quality_target() {
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let plan = optimize_partitions(&ms, &sizes, range, 60.0, 24).unwrap();
        assert!(plan.est_psnr >= 60.0 - 0.5, "psnr {}", plan.est_psnr);
        assert_eq!(plan.ebs.len(), 4);
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(
            optimize_partitions(&[], &[], range, 60.0, 24).unwrap_err(),
            PlanError::NoPartitions
        );
        assert!(matches!(
            optimize_partitions(&ms, &sizes[..2], range, 60.0, 24),
            Err(PlanError::MismatchedInputs { models: 4, sizes: 2 })
        ));
        assert_eq!(
            optimize_partitions(&ms, &sizes, range, 60.0, 1).unwrap_err(),
            PlanError::GridTooSmall(1)
        );
        assert!(matches!(
            optimize_partitions(&ms, &sizes, range, f64::NAN, 24),
            Err(PlanError::InvalidTarget(_))
        ));
        assert!(matches!(
            optimize_partitions(&ms, &sizes, 0.0, 60.0, 24),
            Err(PlanError::InvalidTarget(_))
        ));
    }

    #[test]
    fn unreachable_floor_is_a_typed_error() {
        // An (effectively) infinite-quality floor: no grid point of any
        // partition can get there, which previously fell back to a
        // silently lossier plan.
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let err = optimize_partitions(&ms, &sizes, range, 100_000.0, 8).unwrap_err();
        match err {
            PlanError::UnreachableTarget { target_psnr, achievable_psnr } => {
                assert_eq!(target_psnr, 100_000.0);
                assert!(achievable_psnr.is_finite());
                assert!(achievable_psnr < 100_000.0);
            }
            other => panic!("expected UnreachableTarget, got {other:?}"),
        }
    }

    #[test]
    fn beats_uniform_bound_on_heterogeneous_partitions() {
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let plan = optimize_partitions(&ms, &sizes, range, 60.0, 32).unwrap();
        let (_, uniform) = uniform_eb_for_target(&ms, &sizes, range, 60.0);
        // Same quality target, fewer (or equal) estimated bits. The paper
        // reports +13% ratio; heterogeneous noise should show a clear gap.
        assert!(
            plan.est_bit_rate <= uniform.est_bit_rate * 1.01,
            "optimized {} vs uniform {}",
            plan.est_bit_rate,
            uniform.est_bit_rate
        );
    }

    #[test]
    fn noisy_partitions_get_larger_bounds() {
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let plan = optimize_partitions(&ms, &sizes, range, 55.0, 32).unwrap();
        // Partition 3 (noisiest) should not get a *tighter* bound than
        // partition 0 (quietest).
        assert!(
            plan.ebs[3] >= plan.ebs[0] * 0.5,
            "ebs {:?} — noisy partition starved",
            plan.ebs
        );
    }

    #[test]
    fn uniform_baseline_hits_target() {
        let (parts, range) = partitions();
        let ms = models(&parts);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let (eb, plan) = uniform_eb_for_target(&ms, &sizes, range, 58.0);
        assert!(eb > 0.0);
        assert!((plan.est_psnr - 58.0).abs() < 1.0, "psnr {}", plan.est_psnr);
    }
}
