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
//! analysis). We solve it on per-partition error-bound grids with one
//! Lagrangian allocator (`allocate`, which also serves the byte-ceiling
//! dual, [`super::plan_budget`]) — the discrete water-filling the paper's
//! "fine-grained tuning" performs. Trial-and-error cannot do this at all:
//! the configuration space is exponential in the number of partitions
//! (§IV-C).

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
    /// the next round's optimization. [`super::TargetSession::run`] builds
    /// one from every attempt it has to follow up.
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
    validate_inputs(models, sizes, value_range, grid_points)?;
    if !target_psnr.is_finite() {
        return Err(PlanError::InvalidTarget(format!("target PSNR {target_psnr}")));
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
    let target_sigma2 = crate::quality::sigma2_for_psnr(value_range, target_psnr);
    // Loosest rung: where the *model's* variance (which accounts for code
    // concentration and sparsity) reaches 3x the whole budget — not the
    // uniform-distribution bound, which can be far too conservative.
    let psnr_floor = crate::quality::psnr_model(value_range, target_sigma2 * 3.0);
    let ends = |m: &RqModel| {
        // Tightest rung: well below the quality budget even if this
        // partition behaved uniformly (eb²/3 ≈ target/30).
        let lo = (m.error_quantile(0.05))
            .min((target_sigma2 * 0.1).sqrt())
            .max(value_range * 1e-12)
            .max(f64::MIN_POSITIVE);
        (lo, m.error_bound_for_psnr(psnr_floor).max(lo * 4.0))
    };
    let limit = Limit::Sigma2(target_sigma2);
    allocate(models, sizes, value_range, grid_points, correction, limit, ends).map_err(|least| {
        let achievable_psnr = crate::quality::psnr_model(value_range, least);
        PlanError::UnreachableTarget { target_psnr, achievable_psnr }
    })
}

/// The aggregate an allocation keeps under a ceiling (the value); the
/// other one is what it minimises.
#[derive(Clone, Copy)]
pub(super) enum Limit {
    /// Σ wᵢ·σ²ᵢ, minimising bits: a PSNR floor.
    Sigma2(f64),
    /// Σ wᵢ·bitsᵢ, minimising σ²: a byte ceiling.
    Bits(f64),
}

/// The one rate-distortion allocator behind both planners: minimise the
/// size-weighted *cost* subject to Σ wᵢ·*load*ᵢ ≤ `limit`, (cost, load)
/// being (bits, σ²) under a variance limit and (σ², bits) under a bit
/// limit. `ends` gives a partition's ladder ends (tightest, loosest
/// bound); the inputs are validated already. `Err` is the least aggregate
/// load the ladders reach, when even that exceeds the limit.
pub(super) fn allocate(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
    grid_points: usize,
    correction: Option<&PlanCorrection>,
    limit: Limit,
    ends: impl Fn(&RqModel) -> (f64, f64),
) -> Result<PartitionPlan, f64> {
    let (target, by_sigma2) = match limit {
        Limit::Sigma2(t) => (t, true),
        Limit::Bits(t) => (t, false),
    };
    // (cost, load) of partition `i` at bound `eb`, corrections applied.
    let cost_load = |i: usize, eb: f64| -> (f64, f64) {
        let est = models[i].estimate(eb);
        let bits = est.bit_rate * correction.map_or(1.0, |c| c.bits_scale[i]);
        let sigma2 = est.sigma2 * correction.map_or(1.0, |c| c.sigma_scale[i]);
        if by_sigma2 { (bits, sigma2) } else { (sigma2, bits) }
    };
    let total: f64 = sizes.iter().map(|&s| s as f64).sum();
    let weight: Vec<f64> = sizes.iter().map(|&s| s as f64 / total).collect();

    // Candidate ladders per partition: log-spaced bounds between the ends.
    struct Point {
        eb: f64,
        cost: f64,
        load: f64,
    }
    let ladder = |(i, m): (usize, &RqModel)| -> Vec<Point> {
        let (lo, hi) = ends(m);
        let rung = |j: usize| {
            let t = j as f64 / (grid_points - 1) as f64;
            let eb = (lo.ln() + t * (hi.ln() - lo.ln())).exp();
            let (cost, load) = cost_load(i, eb);
            Point { eb, cost, load }
        };
        (0..grid_points).map(rung).collect()
    };
    let ladders: Vec<Vec<Point>> = models.iter().enumerate().map(ladder).collect();

    // Lagrangian rung selection: for a multiplier λ each partition
    // independently minimizes `cost + λ·load` over its ladder; bisecting λ
    // finds the cheapest allocation within the limit. This is robust to
    // the non-convex bits(σ²) curves the RLE and feedback models produce
    // (a pure greedy walk gets trapped on them).
    let argmin = |ladder: &Vec<Point>, lambda: f64| -> usize {
        let (mut best, mut best_cost) = (0usize, f64::INFINITY);
        for (j, p) in ladder.iter().enumerate() {
            let cost = p.cost + lambda * p.load;
            if cost < best_cost {
                (best, best_cost) = (j, cost);
            }
        }
        best
    };
    let pick = |lambda: f64| -> Vec<usize> { ladders.iter().map(|l| argmin(l, lambda)).collect() };
    let agg_of = |level: &[usize]| -> f64 {
        level.iter().zip(&ladders).zip(&weight).map(|((&l, lad), w)| lad[l].load * w).sum()
    };
    // λ → ∞ forces the least-load rungs; λ = 0 the cheapest.
    let (mut lam_lo, mut lam_hi) = (1e-18f64, 1e18f64);
    for _ in 0..80 {
        let mid = ((lam_lo.ln() + lam_hi.ln()) * 0.5).exp();
        if agg_of(&pick(mid)) > target {
            lam_lo = mid; // over the limit: raise the penalty
        } else {
            lam_hi = mid;
        }
    }
    let mut level = pick(lam_hi);
    if agg_of(&level) > target {
        // Even λ_hi is insufficient: fall back to the least-load rungs
        // (tightest under a variance limit, loosest under a bit limit). If
        // those still exceed it the target is unreachable on this grid —
        // the caller's typed error, not a silently worse plan.
        level = vec![if by_sigma2 { 0 } else { grid_points - 1 }; models.len()];
        let least = agg_of(&level);
        if least > target {
            return Err(least);
        }
    }

    // Polish: the discrete rungs leave slack under the limit; spend it by
    // bisecting each partition's bound continuously toward its next rung
    // on the load-heavier side (looser for σ², tighter for bits).
    let mut agg = agg_of(&level);
    let mut ebs: Vec<f64> = level.iter().zip(&ladders).map(|(&l, lad)| lad[l].eb).collect();
    let mut loads: Vec<f64> = level.iter().zip(&ladders).map(|(&l, lad)| lad[l].load).collect();
    for _round in 0..2 {
        for i in 0..models.len() {
            let left = target - agg;
            if left <= 0.0 {
                break;
            }
            let (next, beyond) = if by_sigma2 {
                (ladders[i].get(level[i] + 1), 2.0)
            } else {
                (level[i].checked_sub(1).map(|l| &ladders[i][l]), 0.5)
            };
            // The bound farthest from the current one whose load increase
            // still fits what is left.
            let (mut near, mut far) = (ebs[i], next.map_or(ebs[i] * beyond, |p| p.eb));
            for _ in 0..24 {
                let mid = ((near.ln() + far.ln()) * 0.5).exp();
                if (cost_load(i, mid).1 - loads[i]).max(0.0) * weight[i] <= left {
                    near = mid;
                } else {
                    far = mid;
                }
            }
            let load = cost_load(i, near).1;
            agg += (load - loads[i]).max(0.0) * weight[i];
            (ebs[i], loads[i]) = (near, load);
        }
    }

    let est_cost: f64 =
        ebs.iter().zip(&weight).enumerate().map(|(i, (&eb, w))| cost_load(i, eb).0 * w).sum();
    let est_load: f64 = loads.iter().zip(&weight).map(|(l, w)| l * w).sum();
    let (est_bit_rate, est_sigma2) =
        if by_sigma2 { (est_cost, est_load) } else { (est_load, est_cost) };
    let est_psnr = crate::quality::psnr_model(value_range, est_sigma2);
    Ok(PartitionPlan { ebs, est_bit_rate, est_sigma2, est_psnr })
}

/// Shared input validation for the partition planners.
pub(crate) fn validate_inputs(
    models: &[RqModel],
    sizes: &[usize],
    value_range: f64,
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
    if !(value_range.is_finite() && value_range > 0.0) {
        return Err(PlanError::InvalidTarget(format!("value range {value_range}")));
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
