//! Encoder-efficiency models (paper §III-B).
//!
//! * [`huffman_bit_rate`] — Eq. 1: the Huffman payload bit-rate is the
//!   Shannon entropy of the code histogram, with the most frequent code's
//!   length clamped to the 1-bit minimum a prefix code can assign.
//! * [`rle_ratio`] — Eq. 4: the optional lossless stage is modelled as
//!   run-length coding of the dominant zero code; `C₁` is the (calibrated)
//!   cost in bits of one run token.

use crate::histogram::EstimatedHistogram;

/// Calibrated run-token cost `C₁` in bits (varint run length ≈ 2 bytes on
/// average in our RLE format, see `rq-encoding::rle`).
pub const RLE_TOKEN_BITS: f64 = 16.0;

/// Eq. 1: estimated Huffman bit-rate (bits per quantized symbol).
///
/// Returns 0 for an empty histogram.
pub fn huffman_bit_rate(hist: &EstimatedHistogram) -> f64 {
    huffman_bit_rates(hist, 0.0).0
}

/// Eq. 1 extended for sparse data: the combined Huffman bit-rate when a
/// `sparse_fraction` of symbols are additional zero codes (the quiescent
/// regions removed from the histogram per §III-C).
pub fn huffman_bit_rate_sparse(hist: &EstimatedHistogram, sparse_fraction: f64) -> f64 {
    huffman_bit_rates(hist, sparse_fraction).1
}

/// [`huffman_bit_rate`] and [`huffman_bit_rate_sparse`] from one walk of
/// the bins; without a sparse fraction the second is the first.
///
/// Either rate is the entropy of its distribution with the most probable
/// symbol's length clamped to the 1 bit a prefix code must spend on it.
pub(crate) fn huffman_bit_rates(hist: &EstimatedHistogram, sparse_fraction: f64) -> (f64, f64) {
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

/// Eq. 4: compression ratio of zero-RLE over the Huffman payload.
///
/// `p0` is the zero-code probability; `huffman_bits` the per-symbol payload
/// bit-rate (Eq. 1), used to convert the *count* share `p0` into the
/// *footprint* share `P0 = p0·l0/B` with `l0 = 1` bit for the dominant
/// code. Returns 1.0 (no gain) whenever the model predicts expansion.
pub fn rle_ratio(p0: f64, huffman_bits: f64) -> f64 {
    if p0 <= 0.0 || huffman_bits <= 0.0 {
        return 1.0;
    }
    // Footprint share of zero-code bits in the Huffman stream. p0 is
    // capped at 99%: reconstruction feedback keeps ~1% of real codes
    // non-zero even when the sampled histogram says otherwise, and Eq. 4
    // is hypersensitive to (1-p0) in that regime (measured lossless gains
    // saturate near 5x where the unclamped model would predict 90x).
    let cap_p0 = p0.min(0.99);
    let big_p0 = (cap_p0 * 1.0 / huffman_bits).min(1.0);
    // E0 = C1/(n0·l0) with n0 = 1/(1-p0): Eq. 5–7.
    let e0 = RLE_TOKEN_BITS * (1.0 - cap_p0);
    let r = 1.0 / (e0 * big_p0 + (1.0 - big_p0));
    r.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::ErrorSample;
    use rq_predict::PredictorKind;

    fn hist_from(errors: Vec<f64>, eb: f64) -> EstimatedHistogram {
        let s = ErrorSample {
            errors,
            predictor: PredictorKind::Regression,
            n_elements: 1000,
            verbatim_fraction: 0.0,
            side_bits_per_element: 0.0,
            feedback_kappa: 0.0,
            quality_kappa: 0.0,
            sparse_fraction: 0.0,
        };
        EstimatedHistogram::build(&s, eb, 1 << 15)
    }

    #[test]
    fn bit_rate_matches_entropy_for_flat_histograms() {
        // 16 equi-probable codes => exactly 4 bits.
        let errors: Vec<f64> = (0..1600).map(|i| (i % 16) as f64 - 7.5).collect();
        let h = hist_from(errors, 0.5);
        assert!((huffman_bit_rate(&h) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dominant_code_clamped_to_one_bit() {
        // 99.9% zeros: entropy says 0.011 bits/symbol for the zero code but
        // Huffman must spend ≥ 1 bit on it.
        let mut errors = vec![0.0; 9990];
        errors.extend((0..10).map(|i| 2.0 + i as f64));
        let h = hist_from(errors, 0.5);
        let b = huffman_bit_rate(&h);
        assert!(b >= 0.999, "bit rate {b} must be ≥ ~1");
    }

    #[test]
    fn empty_histogram_zero_rate() {
        let h = hist_from(vec![], 0.5);
        assert_eq!(huffman_bit_rate(&h), 0.0);
    }

    #[test]
    fn rle_gains_only_when_zeros_dominate() {
        // Low p0: no gain (clamped to 1).
        assert_eq!(rle_ratio(0.3, 4.0), 1.0);
        // Very high p0 at ~1 bit/symbol: strong gain (saturating at the
        // 99% feedback clamp, ~6x with C1 = 16).
        let high = rle_ratio(0.999, 1.0);
        assert!(high > 4.0, "ratio {high}");
        // Monotone in p0 below the clamp, flat above it.
        assert!(rle_ratio(0.98, 1.0) > rle_ratio(0.9, 1.0));
        assert!((high - rle_ratio(0.99, 1.0)).abs() < 1e-9);
    }

    #[test]
    fn rle_never_expands() {
        for p0 in [0.0, 0.2, 0.5, 0.9, 0.9999] {
            for b in [0.5, 1.0, 4.0, 16.0] {
                assert!(rle_ratio(p0, b) >= 1.0);
            }
        }
    }
}
