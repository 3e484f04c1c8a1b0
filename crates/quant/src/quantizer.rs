//! The linear-scaling quantizer itself.

/// Default code radius: codes live in `[-radius, radius]`, giving the
/// 2¹⁶ + 1 quantization bins SZ uses by default.
pub const DEFAULT_RADIUS: u32 = 1 << 15;

/// `f64::round` (round half away from zero) as straight-line integer bit
/// manipulation.
///
/// Bit-identical to the builtin for every input — including negative
/// zeros, exact `.5` ties, values past 2⁵², and infinities — which the
/// `round_ties_away_matches_std` test pins across seeded random and
/// adversarial values. The point of the duplicate: `f64::round` lowers to
/// a libm call on x86-64 (there is no ties-away rounding mode in SSE), and
/// that call is the single biggest cost in the quantization hot loop.
///
/// Deliberately branch-free below the `exp >= 52` guard: which side of
/// `|x| < 1` a prediction error lands on is data-dependent noise in the
/// hot loop, so the small/large cases are merged with arithmetic masks
/// instead of branches the predictor would keep missing.
#[inline]
fn round_ties_away(x: f64) -> f64 {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i64 - 1023;
    if exp >= 52 {
        // Already integral (or inf/NaN, both round to themselves). The
        // only branch: prediction errors this large are escape-rare.
        return x;
    }
    // |x| < 1 rounds to ±0, or to ±1 exactly when |x| >= 0.5 (exp == -1).
    let sign = bits & 0x8000_0000_0000_0000;
    let one_if_half = 0x3FF0_0000_0000_0000 & ((exp == -1) as u64).wrapping_neg();
    let small = sign | one_if_half;
    // |x| >= 1: add half an ulp-at-the-integer-scale to the magnitude
    // (the carry ripples into the exponent exactly when rounding crosses
    // a power of two), then truncate the fraction. When the fraction is
    // already zero the added half bit lands inside the cleared mask, so
    // integral values pass through unchanged without a separate test.
    let sh = exp.max(0) as u32;
    let frac = 0x000F_FFFF_FFFF_FFFF_u64 >> sh;
    let large = (bits + (0x0008_0000_0000_0000 >> sh)) & !frac;
    let small_mask = (exp >> 63) as u64; // all ones iff exp < 0
    f64::from_bits((small & small_mask) | (large & !small_mask))
}

/// 1.5 × 2⁵². Doubles in `[2⁵², 2⁵³)` are the integers, so adding this to an
/// `|x| < 2⁵¹` rounds `x` to an integer (ties to even) and leaves that
/// integer, in two's complement, in the low bits of the sum's mantissa.
const ONE_AND_A_HALF_2_52: f64 = 6_755_399_441_055_744.0;

/// [`round_ties_away`] for `|x| < 2⁵¹`, as arithmetic a loop can be
/// vectorized over: no early return and no per-value shift count.
///
/// Adding and subtracting [`ONE_AND_A_HALF_2_52`] rounds to the nearest
/// integer, ties to even; stepping that back to the truncation and testing
/// the exact remainder against one half turns it into ties away from zero,
/// which also gets the largest value below 0.5 right. At and beyond 2⁵¹ —
/// and for infinities and NaN — the result is not `round`'s, but it is no
/// smaller than 2⁵¹ − 1 in magnitude or not a number: past every code
/// radius, which is all [`LinearQuantizer::quantize_line`] needs of it.
#[inline(always)]
fn round_ties_away_small(x: f64) -> f64 {
    let magnitude = x.abs();
    let to_even = ((x + ONE_AND_A_HALF_2_52) - ONE_AND_A_HALF_2_52).abs();
    let truncated = if to_even > magnitude { to_even - 1.0 } else { to_even };
    let rounded = if magnitude - truncated >= 0.5 { truncated + 1.0 } else { truncated };
    rounded.copysign(x)
}

/// Linear-scaling quantizer with bin width `2 × eb` (paper §II-B).
///
/// Symbols for the entropy coder are the shifted codes
/// `(code + radius) as u32`, so the zero code (perfect prediction) maps to
/// symbol `radius` and the alphabet size is `2 * radius + 1`.
#[derive(Clone, Copy, Debug)]
pub struct LinearQuantizer {
    eb: f64,
    /// Cached bin width `2 × eb`. Exact (doubling never rounds), so
    /// quantize/reconstruct results are bit-identical to computing
    /// `2.0 * eb` at every call — it just keeps one multiply out of the
    /// per-point hot loop.
    two_eb: f64,
    radius: u32,
}

impl LinearQuantizer {
    /// Create a quantizer for absolute error bound `eb`.
    ///
    /// # Panics
    /// Panics if `eb` is not strictly positive and finite, or `radius == 0`.
    pub fn new(eb: f64, radius: u32) -> Self {
        assert!(eb.is_finite() && eb > 0.0, "invalid error bound {eb}");
        assert!(radius > 0, "radius must be positive");
        // `code_to_symbol` computes `code + radius as i32`, so radii past
        // i32::MAX were never representable; pinning the bound here also
        // guarantees the f64→i32 cast in `quantize_value` is exact.
        assert!(radius <= i32::MAX as u32, "radius must fit in i32");
        LinearQuantizer { eb, two_eb: 2.0 * eb, radius }
    }

    /// The absolute error bound.
    pub fn error_bound(&self) -> f64 {
        self.eb
    }

    /// The code radius.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of distinct symbols (`2 * radius + 1`).
    pub fn alphabet_size(&self) -> usize {
        2 * self.radius as usize + 1
    }

    /// Quantize a prediction error to a code, or `None` if out of range
    /// (the caller must then store the value verbatim).
    #[inline]
    pub fn quantize(&self, prediction_error: f64) -> Option<i32> {
        if !prediction_error.is_finite() {
            return None;
        }
        let code = round_ties_away(prediction_error / self.two_eb);
        if code.abs() > self.radius as f64 {
            None
        } else {
            Some(code as i32)
        }
    }

    /// Reconstruction offset of a code: `code × 2eb`.
    ///
    /// (`code as f64 * 2.0` is exact, so multiplying by the cached
    /// `two_eb` rounds the same real product once — identical to the
    /// original `code as f64 * 2.0 * self.eb` evaluation.)
    #[inline]
    pub fn reconstruct(&self, code: i32) -> f64 {
        code as f64 * self.two_eb
    }

    /// Quantize against an original value and return the reconstructed
    /// value along with the code; `None` when unpredictable.
    ///
    /// Guarantees `|original - reconstructed| <= eb * (1 + 1e-9)` (the tiny
    /// slack absorbs one floating-point rounding).
    #[inline]
    pub fn quantize_value(&self, original: f64, predicted: f64) -> Option<(i32, f64)> {
        let err = original - predicted;
        if !err.is_finite() {
            // Must be caught before rounding: a NaN code compares false
            // against the radius and would otherwise be accepted.
            return None;
        }
        let code = round_ties_away(err / self.two_eb);
        if code.abs() > self.radius as f64 {
            return None;
        }
        // `code` is integral with |code| <= radius <= i32::MAX, so the i32
        // cast below is exact and `code as i32 as f64 == code` bit for bit.
        // Reconstructing from the f64 directly keeps the f64→i32→f64
        // roundtrip (two cross-domain converts) off the serial dependency
        // chain that feeds the next point's prediction.
        let recon = predicted + code * self.two_eb;
        // Guard against cancellation on extreme magnitudes: if the bound is
        // violated after rounding, treat as unpredictable.
        if (original - recon).abs() > self.eb * (1.0 + 1e-9) {
            return None;
        }
        Some((code as i32, recon))
    }

    /// [`Self::quantize_value`] over a whole line, for a caller that stores
    /// reconstructions through a narrower type: point `i` quantizes
    /// `original[i]` against `predicted[i]`, `stored` is that round trip
    /// (`|r| T::from_f64(r).to_f64()`), and the point is accepted when
    /// `quantize_value` accepts it **and** the stored reconstruction is
    /// within the bound too. Writes each point's symbol
    /// ([`Self::code_to_symbol`]) and stored reconstruction, and returns
    /// whether every point was accepted; if not, the outputs mean nothing
    /// and the caller quantizes the line point by point.
    ///
    /// The loop has no branch and no call, so it vectorizes; every accepted
    /// point gets exactly `quantize_value`'s code and reconstruction
    /// (`round_ties_away_small` is `round_ties_away` wherever the code can
    /// be inside the radius). The acceptance tests are written so that a
    /// NaN anywhere fails them, which is `quantize_value`'s finiteness
    /// check: a non-finite error makes a non-finite or out-of-radius code.
    #[inline]
    pub fn quantize_line(
        &self,
        original: &[f64],
        predicted: &[f64],
        stored: impl Fn(f64) -> f64,
        symbols: &mut [u32],
        recon: &mut [f64],
    ) -> bool {
        let n = original.len();
        assert!(predicted.len() == n && symbols.len() == n && recon.len() == n);
        let radius = self.radius as f64;
        let tolerance = self.eb * (1.0 + 1e-9);
        let mut clean = true;
        for i in 0..n {
            let code = round_ties_away_small((original[i] - predicted[i]) / self.two_eb);
            let exact = predicted[i] + code * self.two_eb;
            recon[i] = stored(exact);
            // `code_to_symbol(code as i32)` of an accepted code: `code + radius`
            // is an integer in `0..=2 * radius`, which the magic sum holds in
            // its low 32 bits. (`as i32` saturates and tests for NaN, and
            // cost a twelfth of the encode traversal here.)
            symbols[i] = ((code + radius) + ONE_AND_A_HALF_2_52).to_bits() as u32;
            clean &= (code.abs() <= radius)
                & ((original[i] - exact).abs() <= tolerance)
                & ((original[i] - recon[i]).abs() <= tolerance);
        }
        clean
    }

    /// Shift a code into the entropy-coder symbol space.
    #[inline]
    pub fn code_to_symbol(&self, code: i32) -> u32 {
        (code + self.radius as i32) as u32
    }

    /// Inverse of [`Self::code_to_symbol`].
    #[inline]
    pub fn symbol_to_code(&self, symbol: u32) -> i32 {
        symbol as i32 - self.radius as i32
    }

    /// Symbol of the zero code (perfect prediction) — the `p0` bin of the
    /// paper's model.
    pub fn zero_symbol(&self) -> u32 {
        self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inlined ties-away rounder must match `f64::round` bit for bit:
    /// adversarial edge values plus a broad seeded sweep over magnitudes.
    #[test]
    fn round_ties_away_matches_std() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,  // largest f64 below 0.5
            -0.49999999999999994, // (naive trunc(x + 0.5) gets these wrong)
            0.5000000000000001,
            4503599627370495.5,  // last half-integer before 2^52
            -4503599627370495.5,
            4503599627370496.0,  // 2^52: everything beyond is integral
            9007199254740992.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
            -1e-308,
        ];
        for &x in &edges {
            assert_eq!(
                round_ties_away(x).to_bits(),
                x.round().to_bits(),
                "edge value {x:e}"
            );
        }
        assert!(round_ties_away(f64::NAN).is_nan());
        let mut s = 0xD1B5_4A32_D192_ED03u64;
        for i in 0..200_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Sweep exponents so small, near-integer, and huge magnitudes
            // all appear; also exercise exact half-integers.
            let exp = (s % 64) as i32 - 16;
            let x = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2f64.powi(exp);
            assert_eq!(round_ties_away(x).to_bits(), x.round().to_bits(), "random {x:e}");
            let h = (i as f64) + 0.5;
            assert_eq!(round_ties_away(h).to_bits(), h.round().to_bits());
            assert_eq!(round_ties_away(-h).to_bits(), (-h).round().to_bits());
        }
    }

    /// The vectorizable rounder is `round_ties_away` below 2⁵¹ — on the
    /// same edge list and sweep — and past every radius from there on.
    #[test]
    fn round_ties_away_small_matches_below_2_51_and_overshoots_beyond() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            2147483647.5, // i32::MAX + 0.5
            -2147483648.5,
            2251799813685247.5, // last half-integer before 2^51
            -2251799813685247.5,
            2251799813685247.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            -1e-308,
        ];
        for &x in &edges {
            assert_eq!(
                round_ties_away_small(x).to_bits(),
                round_ties_away(x).to_bits(),
                "edge value {x:e}"
            );
        }
        let beyond = [
            2251799813685248.0, // 2^51
            -2251799813685248.0,
            4503599627370495.5,
            -4503599627370495.5,
            4503599627370496.0,
            9007199254740992.0,
            1e308,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &x in &beyond {
            let r = round_ties_away_small(x).abs();
            assert!(r.is_nan() || r >= 2251799813685247.0, "{x:e} rounded to {r:e}");
        }
        let mut s = 0xD1B5_4A32_D192_ED03u64;
        for i in 0..200_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let exp = (s % 64) as i32 - 16;
            let x = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2f64.powi(exp);
            if x.abs() < 2251799813685248.0 {
                assert_eq!(
                    round_ties_away_small(x).to_bits(),
                    round_ties_away(x).to_bits(),
                    "random {x:e}"
                );
            }
            let h = (i as f64) + 0.5;
            assert_eq!(round_ties_away_small(h).to_bits(), round_ties_away(h).to_bits());
            assert_eq!(round_ties_away_small(-h).to_bits(), round_ties_away(-h).to_bits());
        }
    }

    /// A clean line is `quantize_value` point for point (code, stored
    /// reconstruction); a line `quantize_value` or the storage check would
    /// refuse anywhere is reported dirty.
    #[test]
    fn quantize_line_is_quantize_value_or_dirty() {
        let through_f32 = |r: f64| r as f32 as f64;
        let mut s = 0x5DEE_CE66_D1CE_5BB5u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut clean_lines, mut dirty_lines) = (0, 0);
        for case in 0..4_000 {
            let n = 1 + case % 37;
            let eb = 10f64.powf(-6.0 + 6.0 * unit());
            let q = LinearQuantizer::new(eb, if case % 5 == 0 { 4 } else { DEFAULT_RADIUS });
            let original: Vec<f64> =
                (0..n).map(|_| through_f32(-1e3 + 2e3 * unit())).collect();
            let mut predicted: Vec<f64> =
                original.iter().map(|&o| o + (unit() - 0.5) * 40.0 * eb).collect();
            let mut original = original;
            match case % 11 {
                0 => original[n / 2] = f64::NAN,
                1 => original[n - 1] = f64::INFINITY,
                2 => predicted[0] = f64::NEG_INFINITY,
                3 => predicted[n / 3] = f64::NAN,
                4 => original[0] = 3e38, // f32-representable, far past the radius
                _ => {}
            }
            let mut symbols = vec![0u32; n];
            let mut recon = vec![0f64; n];
            let clean = q.quantize_line(&original, &predicted, through_f32, &mut symbols, &mut recon);
            let pointwise: Vec<Option<(i32, f64)>> = original
                .iter()
                .zip(&predicted)
                .map(|(&o, &p)| {
                    q.quantize_value(o, p)
                        .map(|(code, r)| (code, through_f32(r)))
                        .filter(|&(_, kept)| (o - kept).abs() <= eb * (1.0 + 1e-9))
                })
                .collect();
            assert_eq!(clean, pointwise.iter().all(Option::is_some), "case {case}");
            if clean {
                clean_lines += 1;
                for (i, p) in pointwise.iter().enumerate() {
                    let (code, kept) = p.unwrap();
                    assert_eq!(symbols[i], q.code_to_symbol(code), "case {case} point {i}");
                    assert_eq!(recon[i].to_bits(), kept.to_bits(), "case {case} point {i}");
                }
            } else {
                dirty_lines += 1;
            }
        }
        assert!(clean_lines > 500 && dirty_lines > 500, "{clean_lines} clean, {dirty_lines} dirty");
    }

    /// The pre-rework quantize kernel, frozen: the arithmetic of
    /// [`LinearQuantizer::quantize`] rounding through the libm `f64::round`
    /// call and re-deriving the bin width per call.
    fn frozen_quantize(q: &LinearQuantizer, prediction_error: f64) -> Option<i32> {
        if !prediction_error.is_finite() {
            return None;
        }
        let code = (prediction_error / (2.0 * q.eb)).round();
        if code.abs() > q.radius as f64 {
            None
        } else {
            Some(code as i32)
        }
    }

    /// The pre-rework [`LinearQuantizer::quantize_value`], frozen, on
    /// [`frozen_quantize`].
    fn frozen_quantize_value(q: &LinearQuantizer, original: f64, predicted: f64) -> Option<(i32, f64)> {
        let code = frozen_quantize(q, original - predicted)?;
        let recon = predicted + code as f64 * 2.0 * q.eb;
        if (original - recon).abs() > q.eb * (1.0 + 1e-9) {
            return None;
        }
        Some((code, recon))
    }

    /// The quantize kernel and its frozen pre-rework twin must agree
    /// exactly — same accept/reject, same codes, bit-identical
    /// reconstructions.
    #[test]
    fn quantize_matches_reference_kernel() {
        let mut s = 0x5DEE_CE66_D1CE_5BB5u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..100_000 {
            let orig = -1e5 + 2e5 * unit();
            let pred = orig + (-1e2 + 2e2 * unit());
            let eb = 10f64.powf(-7.0 + 10.0 * unit());
            let q = LinearQuantizer::new(eb, DEFAULT_RADIUS);
            assert_eq!(q.quantize(orig - pred), frozen_quantize(&q, orig - pred));
            let fast = q.quantize_value(orig, pred);
            let refr = frozen_quantize_value(&q, orig, pred);
            match (fast, refr) {
                (None, None) => {}
                (Some((cf, rf)), Some((cr, rr))) => {
                    assert_eq!(cf, cr);
                    assert_eq!(rf.to_bits(), rr.to_bits());
                }
                other => panic!("fast/reference quantize diverged: {other:?}"),
            }
        }
        let q = LinearQuantizer::new(0.5, 4);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5.0, -5.0] {
            assert_eq!(q.quantize(bad), frozen_quantize(&q, bad));
        }
    }

    #[test]
    fn zero_error_is_zero_code() {
        let q = LinearQuantizer::new(0.5, 10);
        assert_eq!(q.quantize(0.0), Some(0));
        assert_eq!(q.quantize(0.49), Some(0));
        assert_eq!(q.quantize(0.51), Some(1));
        assert_eq!(q.quantize(-0.51), Some(-1));
    }

    #[test]
    fn out_of_range_is_none() {
        let q = LinearQuantizer::new(0.5, 4);
        assert_eq!(q.quantize(4.0), Some(4));
        assert_eq!(q.quantize(4.6), None);
        assert_eq!(q.quantize(f64::INFINITY), None);
        assert_eq!(q.quantize(f64::NAN), None);
    }

    #[test]
    fn reconstruction_bound_holds() {
        let q = LinearQuantizer::new(1e-3, DEFAULT_RADIUS);
        for i in -1000..1000 {
            let orig = i as f64 * 0.01;
            let pred = orig + (i as f64 * 0.37).sin() * 0.02;
            if let Some((_, recon)) = q.quantize_value(orig, pred) {
                assert!((orig - recon).abs() <= 1e-3 * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn symbol_mapping_roundtrip() {
        let q = LinearQuantizer::new(1.0, 100);
        for code in -100..=100 {
            let s = q.code_to_symbol(code);
            assert!(s < q.alphabet_size() as u32);
            assert_eq!(q.symbol_to_code(s), code);
        }
        assert_eq!(q.zero_symbol(), 100);
    }

    #[test]
    fn bin_width_is_twice_eb() {
        // Values separated by exactly 2eb land in adjacent codes.
        let q = LinearQuantizer::new(0.25, 1000);
        let c0 = q.quantize(0.1).unwrap();
        let c1 = q.quantize(0.1 + 0.5).unwrap();
        assert_eq!(c1 - c0, 1);
    }

    /// Seeded fuzz loop (formerly proptest): the reconstruction bound and
    /// code-radius invariant over random (orig, pred, eb) triples.
    #[test]
    fn prop_error_bound_invariant() {
        let mut s = 0x0E4B_014Fu64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..512 {
            let orig = -1e6 + 2e6 * unit();
            let pred_offset = -1e3 + 2e3 * unit();
            let eb = 10f64.powf(-6.0 + 9.0 * unit());
            let q = LinearQuantizer::new(eb, DEFAULT_RADIUS);
            let pred = orig + pred_offset;
            if let Some((code, recon)) = q.quantize_value(orig, pred) {
                assert!((orig - recon).abs() <= eb * (1.0 + 1e-9));
                assert!(code.unsigned_abs() <= q.radius());
            }
        }
    }

    /// Seeded fuzz loop (formerly proptest): quantize → reconstruct stays
    /// within half a bin of the raw prediction error.
    #[test]
    fn prop_quantize_reconstruct_within_half_bin() {
        let mut s = 0x0A1F_BEE5u64;
        let mut unit = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..512 {
            let err = -1e4 + 2e4 * unit();
            let eb = 10f64.powf(-4.0 + 6.0 * unit());
            let q = LinearQuantizer::new(eb, DEFAULT_RADIUS);
            if let Some(code) = q.quantize(err) {
                assert!((q.reconstruct(code) - err).abs() <= eb * (1.0 + 1e-9));
            }
        }
    }
}
