//! The lossless-stage model (paper §III-B, Eq. 4–7).
//!
//! [`rle_ratio`] — Eq. 4: the optional lossless stage is modelled as
//! run-length coding of the dominant zero code; `C₁` is the (calibrated)
//! cost in bits of one run token. The Huffman rate it divides is Eq. 1 of
//! the estimated histogram, [`rq_predict::histogram::huffman_bit_rates`].

/// Calibrated run-token cost `C₁` in bits (varint run length ≈ 2 bytes on
/// average in our RLE format, see `rq-encoding::rle`).
pub const RLE_TOKEN_BITS: f64 = 16.0;

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
