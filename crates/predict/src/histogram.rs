//! The estimated quantization-code histogram (paper §III-C4) and Eq. 1 on
//! it: the body of the one estimator, [`PredictionSample::estimate`].
//!
//! Given the sampled prediction errors and a candidate error bound, the
//! model quantizes the *samples* (bin width `2·eb`) to estimate the
//! quantization-code histogram the compressor would produce, corrected for:
//!
//! * **the sparse split** (§III-C) — quiescent exact zeros leave the
//!   modelled distribution and come back as a share of zero codes;
//! * **feedback** — the samples were predicted from original values, the
//!   compressor predicts from reconstructed ones: each error is perturbed
//!   by ≈ κ·eb ([`crate::PredictorKind::feedback_kappa`], measured), and
//!   once the zero bin exceeds θ₂ = 80 % a fraction `C₂·(1−p₀)` of every
//!   bin leaks to its two neighbors (the paper's Eq. 9);
//! * **the 1-bit floor** — [`huffman_bit_rates`] is Eq. 1: the Shannon
//!   entropy of the code distribution, with the most frequent code's length
//!   clamped to the bit a prefix code must spend on it;
//! * **saturation** (measured, on `archive_auto`'s rough chunks) — a sample
//!   spread over as many bins as it has points understates entropy and
//!   codebook alike: [`EstimatedHistogram::saturation`].

use crate::sample::PredictionSample;
use std::borrow::Cow;

/// Bin-transfer activation threshold θ₂ of Eq. 9.
pub const BIN_TRANSFER_THRESHOLD: f64 = 0.8;

/// The share `C₂·(1−p₀)` of every bin that Eq. 9 moves to its two
/// neighbors, or `None` where the transfer does not apply (no `C₂`, an
/// empty histogram, a zero bin under θ₂).
pub fn transfer_fraction(c2: f64, total: f64, p0: f64) -> Option<f64> {
    if c2 == 0.0 || total == 0.0 || p0 < BIN_TRANSFER_THRESHOLD {
        return None;
    }
    let frac = c2 * (1.0 - p0);
    (frac > 0.0).then_some(frac)
}

/// `σ²(B[0])` of Eq. 11 from the central bin's count `w` and sums `Σe` and
/// `Σe²`. The model applies the cascade inflation
/// ([`crate::PredictorKind::quality_kappa`]) on top.
pub fn central_variance(w: f64, we: f64, we2: f64) -> f64 {
    if w > 0.0 {
        let mean = we / w;
        (we2 / w - mean * mean).max(0.0)
    } else {
        0.0
    }
}

/// A (sparse) estimated quantization-code histogram.
#[derive(Clone, Debug)]
pub struct EstimatedHistogram {
    /// Mass (sample count) per quantization code with any, ascending by code.
    bins: Vec<(i32, f64)>,
    /// Total in-range mass.
    total: f64,
    /// Mass quantized beyond the code radius (escape path).
    pub escape_mass: f64,
    /// Variance of the errors that landed in the central bin —
    /// the `σ(B[0])` of Eq. 11.
    pub central_bin_variance: f64,
}

impl EstimatedHistogram {
    /// Quantize the sample's modelled errors
    /// ([`PredictionSample::dense_errors`]: quiescent exact zeros leave the
    /// distribution, §III-C) at `eb` with the given code radius and apply
    /// the correction layer of §III-C4: the Eq. 9 bin transfer plus the
    /// reconstruction-feedback noise `κ·eb` (see
    /// [`crate::PredictorKind::feedback_kappa`]) that emulates predicting
    /// from reconstructed instead of original values.
    pub fn build(sample: &PredictionSample, eb: f64, radius: u32) -> Self {
        Self::build_with_std(sample, eb, radius, sample.feedback_std())
    }

    /// [`Self::build`] given [`PredictionSample::feedback_std`], which a
    /// model takes once and not per error bound.
    pub fn build_with_std(
        sample: &PredictionSample,
        eb: f64,
        radius: u32,
        feedback_std: f64,
    ) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "invalid error bound {eb}");
        let bin_width = 2.0 * eb;
        // Three plain loops — perturb, quantize, sum — instead of one that
        // does it all: without the fused loop's data-dependent branches
        // each runs at twice the speed of its share of it.
        let errors = &*modelled_errors(sample, eb, feedback_std);

        // Codes first: one per sample, in sample order, and the span of the
        // ones inside the radius.
        let mut codes: Vec<i32> = Vec::with_capacity(errors.len());
        let (mut lo, mut hi) = (i32::MAX, ESCAPED);
        for &err in errors {
            let code = quantization_code(err / bin_width, radius);
            codes.push(code);
            (lo, hi) = (lo.min(if code == ESCAPED { i32::MAX } else { code }), hi.max(code));
        }

        // Then the counts and sums, each in sample order: escapes, the zero
        // bin's count and moments, and the per-code masses — counted into a
        // flat table when the codes are about as dense as the sample, which
        // they are at every bound near a target (`sorted_masses` takes the
        // rest: a bound so small that the few codes still inside the radius
        // are scattered across it). A term that does not belong to a sum is
        // added to it as 0, or to a spare slot of the table: that changes
        // no sum, and unlike a branch on a coin-flip code it cannot be
        // mispredicted.
        let span = if lo <= hi { (hi as i64 - lo as i64) as usize + 1 } else { 0 };
        let counted = span <= 2 * codes.len() + FLAT_SLACK;
        let spare = if counted { span } else { 0 };
        let mut flat = vec![0.0f64; spare + 1];
        let (mut escaped, mut zeros) = (0usize, 0usize);
        let (mut central_sum, mut central_sq) = (0.0, 0.0);
        for (&err, &code) in errors.iter().zip(&codes) {
            escaped += (code == ESCAPED) as usize;
            zeros += (code == 0) as usize;
            let err0 = keep_if(code == 0, err);
            central_sum += err0;
            central_sq += err0 * err0;
            let slot = (code as i64 - lo as i64) as usize;
            flat[if counted && code != ESCAPED { slot } else { spare }] += 1.0;
        }
        let bins = if counted {
            (lo..=hi).zip(flat).filter(|&(_, m)| m > 0.0).collect()
        } else {
            sorted_masses(&codes)
        };
        let mut h = EstimatedHistogram {
            bins,
            total: (codes.len() - escaped) as f64,
            escape_mass: escaped as f64,
            central_bin_variance: central_variance(zeros as f64, central_sum, central_sq),
        };
        h.apply_bin_transfer(sample.predictor.bin_transfer_c2());
        h
    }

    /// Eq. 9: when `p0 ≥ θ₂`, transfer `C₂·(1−p₀)` of each bin's mass
    /// evenly to its two neighbors.
    fn apply_bin_transfer(&mut self, c2: f64) {
        let Some(frac) = transfer_fraction(c2, self.total, self.p0()) else {
            return;
        };
        let old = std::mem::take(&mut self.bins);
        // Mass of `code`, which lies within two codes — so within two
        // places — of `old[i]`.
        let mass = |i: usize, code: i32| -> Option<f64> {
            old[i.saturating_sub(2)..(i + 3).min(old.len())]
                .iter()
                .find(|bin| bin.0 == code)
                .map(|bin| bin.1)
        };
        let mut next = i32::MIN;
        for (i, &(code, _)) in old.iter().enumerate() {
            for c in [code - 1, code, code + 1] {
                if c < next {
                    continue;
                }
                next = c + 1;
                // What bin `c` holds, then what its lower neighbor sends
                // up, what it gives away, what its upper neighbor sends
                // down — in that order, as a per-source pass would add them.
                let own = mass(i, c);
                let mut m = own.unwrap_or(0.0);
                if let Some(below) = mass(i, c - 1) {
                    m += below * frac / 2.0;
                }
                if let Some(own) = own {
                    m -= own * frac;
                }
                if let Some(above) = mass(i, c + 1) {
                    m += above * frac / 2.0;
                }
                if m > 1e-12 {
                    self.bins.push((c, m));
                }
            }
        }
    }

    /// Fraction of (in-range) mass in the zero bin — the model's `p0`.
    pub fn p0(&self) -> f64 {
        match self.bins.binary_search_by_key(&0, |bin| bin.0) {
            Ok(i) if self.total > 0.0 => self.bins[i].1 / self.total,
            _ => 0.0,
        }
    }

    /// Fraction of all sampled mass that escapes the code range.
    pub fn escape_fraction(&self) -> f64 {
        let all = self.total + self.escape_mass;
        if all == 0.0 {
            0.0
        } else {
            self.escape_mass / all
        }
    }

    /// Normalized (probability) view of the code bins.
    pub fn probabilities(&self) -> impl Iterator<Item = (i32, f64)> + '_ {
        let t = self.total.max(f64::MIN_POSITIVE);
        self.bins.iter().map(move |&(c, m)| (c, m / t))
    }

    /// Number of occupied bins.
    pub fn occupied_bins(&self) -> usize {
        self.bins.len()
    }

    /// The saturation regime and its two corrections: `None` outside it,
    /// else the rate (bits per symbol) Eq. 1 may not fall under and the
    /// bins the whole slab of `slab_symbols` symbols occupies.
    ///
    /// A plug-in entropy computed from `N` samples can never exceed
    /// `log2(N)`. When the codes spread over about as many bins as there
    /// are samples (more than 64, and a quarter of the in-range mass), the
    /// per-symbol cost is recovered from the bins' code variance instead — a
    /// Gaussian is the max-entropy distribution for a given variance —
    /// capped by the uniform cost over the observed code spread and over
    /// the alphabet plus the escape symbol; and the slab occupies about
    /// `min(spread, slab symbols)` bins, not just the ones the sample hit.
    /// This is what prices rough chunks out of the SZ path (`archive_auto`'s
    /// ZFP share); tuning it is ROADMAP item 3's.
    pub fn saturation(&self, radius: u32, slab_symbols: f64) -> Option<(f64, f64)> {
        let occupied = self.bins.len();
        if !(occupied > 64 && occupied as f64 >= 0.25 * self.total) {
            return None;
        }
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for &(code, mass) in &self.bins {
            sum += mass * code as f64;
            sum_sq += mass * code as f64 * code as f64;
        }
        let mean = sum / self.total;
        // +1/12: the variance floor of integer discretization.
        let var = (sum_sq / self.total - mean * mean).max(0.0) + 1.0 / 12.0;
        let (lo, hi) = (self.bins[0].0 as f64, self.bins[occupied - 1].0 as f64);
        let spread = (hi - lo + 1.0).max(2.0);
        let h_gauss = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * var).log2();
        let alphabet = 2.0 * radius as f64 + 1.0;
        Some((h_gauss.min(spread.log2()).min((alphabet + 1.0).log2()), spread.min(slab_symbols)))
    }

    /// Shannon entropy of the code distribution in bits.
    pub fn entropy(&self) -> f64 {
        self.probabilities()
            .filter(|&(_, p)| p > 0.0)
            .map(|(_, p)| -p * p.log2())
            .sum()
    }
}

/// The sample's modelled errors as the compressor would see them at `eb`:
/// each finite one plus reconstruction-feedback noise `κ·eb` (see
/// [`crate::PredictorKind::feedback_kappa`]). The sparse zeros are skipped
/// before the noise is drawn, so they take none of the stream; a sample
/// with neither is borrowed as it is.
fn modelled_errors(sample: &PredictionSample, eb: f64, feedback_std: f64) -> Cow<'_, [f64]> {
    let errors = match sample.sparse_count {
        0 => Cow::Borrowed(&sample.errors[..]),
        _ => Cow::Owned(sample.dense_errors().collect()),
    };
    let kappa = sample.predictor.feedback_kappa(sample.ndim);
    if kappa <= 0.0 {
        return errors;
    }
    // The feedback scale grows with eb but saturates at a few signal
    // scales: once the bin dwarfs the data's own variation, reconstruction
    // drift is governed by the signal, not the bound.
    let fb_scale = (kappa * eb).min(8.0 * feedback_std.max(f64::MIN_POSITIVE));
    // Deterministic ≈N(0,1) stream (Irwin–Hall sum of four uniforms,
    // standardized).
    let mut fb_state = 0x9E37_79B9_7F4A_7C15u64;
    let mut fb_noise = move || -> f64 {
        let mut acc = 0.0;
        for _ in 0..4 {
            fb_state ^= fb_state << 13;
            fb_state ^= fb_state >> 7;
            fb_state ^= fb_state << 17;
            acc += (fb_state >> 11) as f64 / (1u64 << 53) as f64;
        }
        // Sum of 4 uniforms: mean 2, std √(1/3).
        (acc - 2.0) / (1.0f64 / 3.0).sqrt()
    };
    // Feedback noise at a point originates from its neighbors'
    // reconstruction errors. In code-0-dominated neighborhoods the
    // residual a neighbor passes on is its own (small) prediction
    // error, not ±eb, so the dispersion saturates *per point* at a
    // few times the point's own error magnitude — the local error
    // scale's cheapest proxy. Without this, quiet sub-threshold
    // chunks are smeared across bins and the model overestimates
    // both their rate and their variance by an order of magnitude
    // (visible in per-chunk quality-targeted planning).
    let perturb = |&err: &f64| -> f64 {
        if err.is_finite() {
            err + fb_scale.min(8.0 * err.abs()) * fb_noise()
        } else {
            err // escapes as it is, and draws no noise
        }
    };
    Cow::Owned(errors.iter().map(perturb).collect())
}

/// What [`quantization_code`] says of a sample beyond the radius. No code a
/// quantizer can produce (its radius fits an `i32`).
const ESCAPED: i32 = i32::MIN;

/// `x.round()` as a code — `x` being an error in bin widths — or
/// [`ESCAPED`] where `|x.round()| > radius` or `x` is not a number.
///
/// [`f64::round`] (halves away from zero) is a call into libm, and this is
/// the model's innermost loop, so the same function is taken from a
/// truncating cast: `|x.round()| ≤ r` exactly when `|x| < r + 0.5`, and
/// `x.round()` is `x` plus the largest `f64` under one half, toward its own
/// sign, truncated (the whole half would carry 0.49999999999999994 up to
/// 1). A radius past `i32::MAX`, which no quantizer has, saturates its
/// codes as the cast to `i32` always did, one code short of `ESCAPED`.
#[inline]
fn quantization_code(x: f64, radius: u32) -> i32 {
    const UNDER_HALF: f64 = 0.499_999_999_999_999_94;
    let inside = x.abs() < radius as f64 + 0.5; // false for NaN too
    if !inside {
        return ESCAPED;
    }
    // |x| < 2^32 + 1: the sum is far inside an i64.
    let code = (x + UNDER_HALF.copysign(x)) as i64;
    code.clamp(ESCAPED as i64 + 1, i32::MAX as i64) as i32
}

/// Code spans up to this much wider than the sample are still counted
/// into a flat table (a few KiB of it).
const FLAT_SLACK: usize = 1024;

/// `x` if `keep`, else +0.0 — by masking its bits, so that no compiler
/// turns it back into a branch.
#[inline(always)]
fn keep_if(keep: bool, x: f64) -> f64 {
    f64::from_bits(x.to_bits() & (keep as u64).wrapping_neg())
}

/// Per-code masses of the samples that did not escape, ascending by code;
/// codes without mass are left out. What the flat table of
/// [`EstimatedHistogram::build`] counts, for codes too scattered to count.
fn sorted_masses(codes: &[i32]) -> Vec<(i32, f64)> {
    let mut coded: Vec<i32> = codes.iter().copied().filter(|&c| c != ESCAPED).collect();
    coded.sort_unstable();
    let mut bins: Vec<(i32, f64)> = Vec::new();
    for code in coded {
        match bins.last_mut() {
            Some((last, m)) if *last == code => *m += 1.0,
            _ => bins.push((code, 1.0)),
        }
    }
    bins
}

/// Eq. 1 from one walk of the bins: the Huffman bit-rate of the histogram's
/// own (dense) code distribution, and that of the combined one in which a
/// `sparse_fraction` of all symbols are additional zero codes (the
/// quiescent regions removed from the histogram per §III-C). Without a
/// sparse fraction the second is the first; both are 0 for an empty
/// histogram.
///
/// Either rate is the entropy of its distribution with the most probable
/// symbol's length clamped to the 1 bit a prefix code must spend on it.
pub fn huffman_bit_rates(hist: &EstimatedHistogram, sparse_fraction: f64) -> (f64, f64) {
    let sf = sparse_fraction.clamp(0.0, 1.0);
    let keep = 1.0 - sf;
    // The combined distribution: every bin scaled by `keep`, bin 0 gaining
    // the sparse mass. Its walk has to know the most probable symbol
    // before it starts; that takes a scan, but no logarithm.
    let (mut zero_q, mut best_q) = (sf, 0.0f64);
    if sf > 0.0 {
        for (code, p) in hist.probabilities() {
            if code == 0 {
                zero_q += p * keep;
            } else if p > 0.0 {
                best_q = best_q.max(p * keep);
            }
        }
        best_q = best_q.max(zero_q);
    }
    let mut clamped = false;
    let mut combined_term = |q: f64| -> f64 {
        if q <= 0.0 {
            return 0.0;
        }
        let len = if q == best_q && !clamped {
            clamped = true;
            (-q.log2()).max(1.0)
        } else {
            -q.log2()
        };
        q * len
    };

    let mut best_p = 0.0f64;
    let mut entropy_rest = 0.0f64;
    let mut combined = 0.0f64;
    for (code, p) in hist.probabilities() {
        if p <= 0.0 {
            continue;
        }
        if p > best_p {
            if best_p > 0.0 {
                entropy_rest += -best_p * best_p.log2();
            }
            best_p = p;
        } else {
            entropy_rest += -p * p.log2();
        }
        if sf > 0.0 && code != 0 {
            combined += combined_term(p * keep);
        }
    }
    // The most frequent code cannot be shorter than 1 bit.
    let dense =
        if best_p == 0.0 { 0.0 } else { entropy_rest + best_p * (-best_p.log2()).max(1.0) };
    if sf == 0.0 {
        return (dense, dense);
    }
    // The zero symbol comes last in the combined sum.
    (dense, combined + combined_term(zero_q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorKind;

    /// A hand-made sample. Interpolation where a test wants the Eq. 9
    /// transfer alone: it has a `C₂` and no feedback noise.
    fn sample_of(errors: Vec<f64>, predictor: PredictorKind) -> PredictionSample {
        PredictionSample {
            errors,
            predictor,
            ndim: 1,
            n_elements: 1000,
            verbatim_fraction: 0.0,
            side_bits_per_element: 0.0,
            sparse_count: 0,
        }
    }

    #[test]
    fn quantizes_to_expected_bins() {
        let s = sample_of(vec![0.0, 0.4, 0.6, -0.6, 2.1, -50.0], PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 0.5, 10);
        // bin width 1.0: codes 0, 0, 1, -1, 2, escape(-50).
        let codes: Vec<i32> = h.probabilities().map(|(code, _)| code).collect();
        assert!((h.p0() - 2.0 / 5.0).abs() < 1e-12);
        assert_eq!(codes, [-1, 0, 1, 2]);
        assert!((h.escape_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn p0_grows_with_eb() {
        let errors: Vec<f64> = (0..1000).map(|i| ((i as f64) * 0.377).sin()).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let p_small = EstimatedHistogram::build(&s, 0.01, 1 << 15).p0();
        let p_big = EstimatedHistogram::build(&s, 1.0, 1 << 15).p0();
        assert!(p_small < p_big);
        assert!((p_big - 1.0).abs() < 1e-12, "eb 1.0 covers sin range");
    }

    #[test]
    fn bin_transfer_only_above_threshold() {
        // 85% zeros: interpolation triggers the Eq. 9 correction.
        let mut errors = vec![0.0; 850];
        errors.extend(vec![1.0; 150]);
        let s = sample_of(errors.clone(), PredictorKind::Interpolation);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        // Without transfer p0 would be exactly 0.85; with C2=0.1 mass moved
        // out of the zero bin.
        assert!(h.p0() < 0.85, "p0 {} should shrink", h.p0());
        // Regression (C2 = 0) must not move anything.
        let s2 = sample_of(errors, PredictorKind::Regression);
        let h2 = EstimatedHistogram::build(&s2, 0.4, 1 << 15);
        assert!((h2.p0() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn below_threshold_no_transfer() {
        let mut errors = vec![0.0; 700];
        errors.extend((0..300).map(|i| 1.0 + (i % 5) as f64));
        let s = sample_of(errors, PredictorKind::Interpolation);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        assert!((h.p0() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mass_conserved_by_transfer() {
        let mut errors = vec![0.0; 9500];
        errors.extend(vec![0.9; 500]);
        let s = sample_of(errors, PredictorKind::Interpolation);
        let h = EstimatedHistogram::build(&s, 0.4, 1 << 15);
        let total: f64 = h.probabilities().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn central_bin_variance_reflects_concentration() {
        // Tight errors: central variance << eb²/3.
        let errors: Vec<f64> = (0..1000).map(|i| (i as f64 / 1000.0 - 0.5) * 0.02).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let eb = 0.5;
        let h = EstimatedHistogram::build(&s, eb, 1 << 15);
        assert!(h.central_bin_variance < eb * eb / 3.0 / 100.0);
    }

    #[test]
    fn entropy_of_uniform_codes() {
        let errors: Vec<f64> = (0..4096).map(|i| (i % 16) as f64 - 7.5).collect();
        let s = sample_of(errors, PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 0.5, 1 << 15);
        assert!((h.entropy() - 4.0).abs() < 0.01, "entropy {}", h.entropy());
    }

    #[test]
    fn scattered_codes_are_binned_like_dense_ones() {
        // A handful of codes spread over the whole radius is sorted into
        // bins, a dense run counted into the flat table; either way a
        // bin's mass is how many samples carry its code.
        let scattered = [-30_000.0, 7.0, 1e9, 0.0, 29_999.0, 7.0, -30_000.0];
        let dense = [2.0, -1.0, 0.0, f64::NAN, 0.0, 2.0, 1.0];
        for (codes, want) in [(scattered, [-30_000, 0, 7, 29_999]), (dense, [-1, 0, 1, 2])] {
            // Bin width 1: an error is its own code.
            let errors: Vec<f64> = (0..40).map(|i| codes[i % 7]).collect();
            let s = sample_of(errors.clone(), PredictorKind::Regression);
            let h = EstimatedHistogram::build(&s, 0.5, 1 << 15);
            assert_eq!(h.bins.iter().map(|b| b.0).collect::<Vec<_>>(), want);
            for &(code, mass) in &h.bins {
                let count = errors.iter().filter(|&&e| e == code as f64).count();
                assert_eq!(mass, count as f64, "code {code}");
            }
            assert_eq!(h.total, h.bins.iter().map(|b| b.1).sum::<f64>());
        }
        let outside = sample_of(vec![1e9, f64::NAN], PredictorKind::Lorenzo);
        let none = EstimatedHistogram::build(&outside, 0.5, 10);
        assert!(none.bins.is_empty() && none.p0() == 0.0 && none.escape_fraction() == 1.0);
    }

    #[test]
    fn quantization_code_is_round_half_away() {
        let by_round = |x: f64, radius: u32| -> i32 {
            let code = x.round();
            if code.abs() <= radius as f64 {
                (code as i32).max(ESCAPED + 1)
            } else {
                ESCAPED
            }
        };
        let radii = [10, 1 << 15, i32::MAX as u32, u32::MAX];
        let under_half = f64::from_bits(0.5f64.to_bits() - 1);
        let mut xs = vec![0.0, -0.0, under_half, 1e-320, 1e300, f64::NAN, f64::INFINITY];
        // Every half up to 2 000, every radius and its halves, each with
        // its two neighbors among the doubles.
        let halves = (0..2000).map(|i| i as f64 + 0.5);
        let edges = radii.iter().flat_map(|&r| [-1.0, -0.5, 0.0, 0.5, 1.0].map(|d| r as f64 + d));
        for x in halves.chain(edges) {
            xs.extend([-1i64, 0, 1].map(|ulps| f64::from_bits((x.to_bits() as i64 + ulps) as u64)));
        }
        // And a pseudo-random spread: fractions, exact halves, raw bit patterns.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..300_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            xs.push(match i % 3 {
                0 => ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e5,
                1 => ((state % 200_001) as f64 - 100_000.0) * 0.5,
                _ => f64::from_bits(state),
            });
        }
        for x in xs {
            for radius in radii {
                for x in [x, -x] {
                    let (got, want) = (quantization_code(x, radius), by_round(x, radius));
                    assert_eq!(got, want, "x {x:e} ({:#x}), radius {radius}", x.to_bits());
                }
            }
        }
    }

    #[test]
    fn masking_keeps_or_zeroes_exactly() {
        for x in [1.5, -2.25e-300, f64::NAN, f64::INFINITY, -0.0] {
            assert_eq!(keep_if(true, x).to_bits(), x.to_bits());
            assert_eq!(keep_if(false, x).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn bit_rate_matches_entropy_for_flat_histograms() {
        // 16 equi-probable codes => exactly 4 bits.
        let errors: Vec<f64> = (0..1600).map(|i| (i % 16) as f64 - 7.5).collect();
        let h = EstimatedHistogram::build(&sample_of(errors, PredictorKind::Regression), 0.5, 1 << 15);
        assert!((huffman_bit_rates(&h, 0.0).0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dominant_code_clamped_to_one_bit() {
        // 99.9% zeros: entropy says 0.011 bits/symbol for the zero code but
        // Huffman must spend ≥ 1 bit on it.
        let mut errors = vec![0.0; 9990];
        errors.extend((0..10).map(|i| 2.0 + i as f64));
        let h = EstimatedHistogram::build(&sample_of(errors, PredictorKind::Regression), 0.5, 1 << 15);
        let (dense, combined) = huffman_bit_rates(&h, 0.0);
        assert!(dense >= 0.999, "bit rate {dense} must be ≥ ~1");
        assert_eq!(dense, combined);
        // And in the combined distribution, where sparse zeros dominate.
        assert!(huffman_bit_rates(&h, 0.5).1 >= 0.999);
    }

    #[test]
    fn empty_histogram_zero_rate() {
        let h = EstimatedHistogram::build(&sample_of(vec![], PredictorKind::Regression), 0.5, 1 << 15);
        assert_eq!(huffman_bit_rates(&h, 0.0), (0.0, 0.0));
    }

    #[test]
    fn sparse_zeros_leave_the_histogram_and_draw_no_noise() {
        // The first `sparse_count` exact zeros are not modelled: with them
        // counted, the histogram is that of the sample without them — also
        // under Lorenzo's feedback noise, whose stream they do not advance.
        let dense: Vec<f64> = (1..=600).map(|i| ((i as f64) * 0.377).sin()).collect();
        for kind in [PredictorKind::Regression, PredictorKind::Lorenzo] {
            let mut inline = vec![0.0; 5];
            inline.extend(dense.iter().flat_map(|&e| [e, 0.0]));
            let mut with_zeros = sample_of(inline, kind);
            with_zeros.sparse_count = 400;
            let mut without: Vec<f64> = dense[..395].to_vec();
            without.extend(dense[395..].iter().flat_map(|&e| [e, 0.0]));
            let a = EstimatedHistogram::build(&with_zeros, 0.05, 1 << 15);
            let b = EstimatedHistogram::build(&sample_of(without, kind), 0.05, 1 << 15);
            assert_eq!(a.bins, b.bins, "{kind:?}");
            assert_eq!(a.central_bin_variance, b.central_bin_variance, "{kind:?}");
        }
    }

    #[test]
    fn nan_errors_escape() {
        let s = sample_of(vec![f64::NAN, 0.0, f64::INFINITY], PredictorKind::Regression);
        let h = EstimatedHistogram::build(&s, 1.0, 10);
        assert!((h.escape_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }
}
