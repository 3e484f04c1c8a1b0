//! Single-pass statistics shared by the compressor and the analytical model.
//!
//! Everything here is computed in `f64` regardless of the input scalar type;
//! the model's accuracy evaluation (Eq. 20 of the paper) is sensitive to
//! accumulated rounding at the 10⁻⁴ level, which `f32` accumulation would
//! destroy on gigabyte-scale fields.

use crate::scalar::Scalar;

/// Mean and (population) variance accumulated in a single numerically
/// stable Welford pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Moments {
    /// Sample count.
    pub n: u64,
    /// Mean.
    pub mean: f64,
    /// Sum of squared deviations from the running mean.
    m2: f64,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Population variance (0 for fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge two accumulators (parallel reduction).
    pub fn merge(&self, other: &Moments) -> Moments {
        if self.n == 0 {
            return *other;
        }
        if other.n == 0 {
            return *self;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        Moments { n, mean, m2 }
    }

    /// Accumulate a whole slice.
    pub fn from_slice<T: Scalar>(xs: &[T]) -> Moments {
        let mut m = Moments::new();
        for &x in xs {
            m.push(x.to_f64());
        }
        m
    }
}

/// Value range (`max − min`) and moments of the **finite** values of `xs`,
/// from one pass over it — what the ratio-quality model keeps of a field
/// beside its error sample.
///
/// NaN and ±∞ are skipped by both: one infinity in a field must not make
/// its range infinite nor its variance NaN (`NdArray::value_range` skips
/// only NaN; on a field without infinities the two ranges are equal
/// exactly). The range is 0 and the moments empty when nothing is finite.
///
/// The pass works in blocks of 1 024 values that stay in L1: a block's
/// mean, then its squared deviations from that mean (two sweeps, four
/// independent accumulators each, so the compiler can vectorize them
/// without reordering any sum), folded into the running moments with
/// [`Moments::merge`] — one division per block instead of Welford's one
/// per value. The result is deterministic; it differs from
/// [`Moments::from_slice`] in the last few ulps.
pub fn finite_range_and_moments<T: Scalar>(xs: &[T]) -> (f64, Moments) {
    const BLOCK: usize = 1024;
    const LANES: usize = 4;
    let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    let mut all = Moments::new();
    for block in xs.chunks(BLOCK) {
        // A block as whole groups of LANES values plus one NaN-padded group
        // for its tail: the padding is skipped like any non-finite value.
        let (whole, tail) = block.split_at(block.len() - block.len() % LANES);
        let mut padded = [T::from_f64(f64::NAN); LANES];
        padded[..tail.len()].copy_from_slice(tail);
        let groups = || whole.chunks_exact(LANES).chain(std::iter::once(&padded[..]));

        let (mut sum, mut count) = ([0.0f64; LANES], [0u64; LANES]);
        for group in groups() {
            for lane in 0..LANES {
                let x = group[lane].to_f64();
                let finite = x.is_finite();
                sum[lane] += if finite { x } else { 0.0 };
                count[lane] += finite as u64;
                let below = if finite { x } else { f64::INFINITY };
                let above = if finite { x } else { f64::NEG_INFINITY };
                lo[lane] = if below < lo[lane] { below } else { lo[lane] };
                hi[lane] = if above > hi[lane] { above } else { hi[lane] };
            }
        }
        let n: u64 = count.iter().sum();
        if n == 0 {
            continue;
        }
        let mean = sum.iter().sum::<f64>() / n as f64;
        let mut m2 = [0.0f64; LANES];
        for group in groups() {
            for lane in 0..LANES {
                let x = group[lane].to_f64();
                let d = if x.is_finite() { x - mean } else { 0.0 };
                m2[lane] += d * d;
            }
        }
        all = all.merge(&Moments { n, mean, m2: m2.iter().sum() });
    }
    let lo = lo.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = hi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (if lo <= hi { hi - lo } else { 0.0 }, all)
}

/// Population covariance between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn covariance<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "covariance needs equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let ma = Moments::from_slice(a).mean;
    let mb = Moments::from_slice(b).mean;
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += (x.to_f64() - ma) * (y.to_f64() - mb);
    }
    acc / a.len() as f64
}

/// A fixed-width histogram over `f64` samples, used to approximate
/// prediction-error and quantization-code distributions.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    /// Samples falling outside `[lo, lo + width*bins)`.
    pub outliers: u64,
}

impl Histogram {
    /// A histogram of `bins` equal-width cells covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "invalid range [{lo}, {hi})");
        Histogram { lo, width: (hi - lo) / bins as f64, counts: vec![0; bins], outliers: 0 }
    }

    /// Insert a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        let rel = (x - self.lo) / self.width;
        if rel < 0.0 || !rel.is_finite() {
            self.outliers += 1;
            return;
        }
        let b = rel as usize;
        if b < self.counts.len() {
            self.counts[b] += 1;
        } else {
            self.outliers += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// Normalized frequencies (empty if no samples).
    pub fn frequencies(&self) -> Vec<f64> {
        let t = self.total();
        if t == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / t as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let m = {
            let mut m = Moments::new();
            xs.iter().for_each(|&x| m.push(x));
            m
        };
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((m.mean - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut all = Moments::new();
        xs.iter().for_each(|&x| all.push(x));
        let (a, b) = xs.split_at(123);
        let mut ma = Moments::new();
        a.iter().for_each(|&x| ma.push(x));
        let mut mb = Moments::new();
        b.iter().for_each(|&x| mb.push(x));
        let merged = ma.merge(&mb);
        assert_eq!(merged.n, all.n);
        assert!((merged.mean - all.mean).abs() < 1e-12);
        assert!((merged.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty() {
        let mut m = Moments::new();
        m.push(2.0);
        let e = Moments::new();
        assert_eq!(e.merge(&m).n, 1);
        assert_eq!(m.merge(&e).n, 1);
    }

    #[test]
    fn fused_pass_matches_the_separate_passes() {
        // Lengths around the lane and block sizes, with a far-off mean.
        for n in [1usize, 2, 3, 4, 5, 1023, 1024, 1025, 5000] {
            let xs: Vec<f32> = (0..n).map(|i| 1e3 + ((i * i) as f32 * 0.37).sin() * 3.0).collect();
            let (range, m) = finite_range_and_moments(&xs);
            let (lo, hi) = xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x as f64), hi.max(x as f64))
            });
            assert_eq!(range, hi - lo, "n {n}: the range is exact");
            let want = Moments::from_slice(&xs);
            assert_eq!(m.n, want.n);
            assert!((m.mean - want.mean).abs() <= 1e-12 * want.mean.abs(), "n {n}");
            let tol = 1e-9 * want.variance();
            assert!((m.variance() - want.variance()).abs() <= tol, "n {n}");
        }
    }

    #[test]
    fn fused_pass_skips_everything_that_is_not_finite() {
        let mut xs: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).cos()).collect();
        let (range, clean) = finite_range_and_moments(&xs);
        for (at, bad) in [(0, f64::INFINITY), (1500, f64::NEG_INFINITY), (2999, f64::NAN)] {
            xs.insert(at, bad);
        }
        let (dirty_range, dirty) = finite_range_and_moments(&xs);
        assert_eq!(dirty_range, range);
        assert_eq!(dirty.n, clean.n);
        assert!((dirty.variance() - clean.variance()).abs() < 1e-12);
        assert!(dirty.variance().is_finite());

        let (range, m) = finite_range_and_moments(&[f32::NAN, f32::INFINITY]);
        assert_eq!((range, m.n, m.variance()), (0.0, 0, 0.0));
        let (range, m) = finite_range_and_moments::<f32>(&[]);
        assert_eq!((range, m.n), (0.0, 0));
        let (range, m) = finite_range_and_moments(&[-2.5f64]);
        assert_eq!((range, m.n, m.mean, m.variance()), (0.0, 1, -2.5, 0.0));
    }

    #[test]
    fn covariance_of_identical_is_variance() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let v = Moments::from_slice(&xs).variance();
        assert!((covariance(&xs, &xs) - v).abs() < 1e-9);
    }

    #[test]
    fn covariance_of_anticorrelated_is_negative() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| -(i as f64)).collect();
        assert!(covariance(&a, &b) < 0.0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.99, -0.1, 10.0, f64::NAN] {
            h.push(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.outliers, 3);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_frequencies_sum_to_one() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        for i in 0..100 {
            h.push(-1.0 + 2.0 * (i as f64 + 0.5) / 100.0);
        }
        let f: f64 = h.frequencies().iter().sum();
        assert!((f - 1.0).abs() < 1e-12);
    }
}
