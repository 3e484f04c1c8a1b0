//! Summary statistics the harness reports: medians, the tail-percentile
//! rule, and the paper's Eq. 20 accuracy statistic.

/// Median of `values` (mean of the two middle values for an even count).
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The first quartile of `values`: the element a quarter of the way up the
/// sorted list. NaN for an empty slice.
pub fn first_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The tail of a latency distribution, by the rule "the highest percentile
/// that still has at least ten samples beyond it".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is (50, 90, 99, 99.9 or 99.99).
    pub percentile: f64,
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// Percentiles in parts per 10 000, so ranks are exact integer arithmetic.
const LADDER: [usize; 5] = [5000, 9000, 9900, 9990, 9999];

/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, (n * p).div_ceil(10_000)))
        // `rank` samples are at or below the percentile; the rest lie beyond it.
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(p, rank)| Tail {
            percentile: p as f64 / 100.0,
            value: v[rank - 1],
            samples: n,
        })
}

/// The paper's accuracy statistic (Eq. 20) over (measured, estimated)
/// pairs, as an error rate in `[0, 1)`: `E = 1 − (1 + STD(R/R' − 1))⁻¹`.
/// It measures the spread of the ratio, not its bias; accuracy is `1 − E`.
pub fn eq20_error(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|&&(_, est)| est.abs() > 1e-300)
        .map(|&(measured, est)| measured / est - 1.0)
        .collect();
    if ratios.is_empty() {
        return if pairs.is_empty() { 0.0 } else { 1.0 };
    }
    let n = ratios.len() as f64;
    let mean = ratios.iter().sum::<f64>() / n;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n;
    1.0 - 1.0 / (1.0 + var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn first_quartile_is_a_quarter_of_the_way_up() {
        assert_eq!(first_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(first_quartile(&[9.0]), 9.0);
        assert!(first_quartile(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: 10 at or below the median leave only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(
            tail(&ramp(20)),
            Some(Tail {
                percentile: 50.0,
                value: 10.0,
                samples: 20
            })
        );
        // 100 samples: p90 leaves exactly 10 beyond, p99 would leave 1.
        assert_eq!(
            tail(&ramp(100)),
            Some(Tail {
                percentile: 90.0,
                value: 90.0,
                samples: 100
            })
        );
        assert_eq!(tail(&ramp(999)).unwrap().percentile, 90.0);
        assert_eq!(
            tail(&ramp(1000)),
            Some(Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000
            })
        );
        assert_eq!(tail(&ramp(10_000)).unwrap().percentile, 99.9);
        assert_eq!(tail(&ramp(100_000)).unwrap().percentile, 99.99);
    }

    // The three properties `rq-bench` pins for its copy of the statistic.
    #[test]
    fn eq20_zero_for_perfect_estimates() {
        assert!(eq20_error(&[(1.0, 1.0), (2.0, 2.0), (5.0, 5.0)]) < 1e-12);
    }

    #[test]
    fn eq20_zero_for_consistent_bias() {
        assert!(eq20_error(&[(1.1, 1.0), (2.2, 2.0), (5.5, 5.0)]) < 1e-12);
    }

    #[test]
    fn eq20_grows_with_scatter() {
        let tight = [(1.0, 1.02), (1.0, 0.98)];
        let loose = [(1.0, 1.5), (1.0, 0.6)];
        assert!(eq20_error(&loose) > eq20_error(&tight));
    }
}
