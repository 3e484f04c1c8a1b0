//! Post-hoc analysis quality models (paper §III-D).
//!
//! All quality estimates flow from a single quantity: the variance of the
//! compression-error distribution. The paper provides two versions —
//! uniform (Eq. 10) and the refined mixture (Eq. 11) that splits out the
//! concentrated central quantization bin, which dominates under high error
//! bounds — and propagates it through each analysis metric.

/// Eq. 10: error variance assuming a uniform error distribution on
/// `[-eb, eb]`.
pub fn sigma2_uniform(eb: f64) -> f64 {
    eb * eb / 3.0
}

/// Eq. 11: refined error variance — a mixture of the uniform non-central
/// bins and the concentrated central bin.
///
/// * `p0` — probability of the central (zero) quantization bin,
/// * `central_bin_variance` — variance of prediction errors inside it
///   (`σ(B[0])`, measured from the sampled errors).
pub fn sigma2_refined(eb: f64, p0: f64, central_bin_variance: f64) -> f64 {
    (1.0 - p0) * sigma2_uniform(eb) + p0 * central_bin_variance
}

/// Eq. 12: predicted PSNR in dB from the value range and error variance.
///
/// Returns `f64::INFINITY` when `sigma2` is zero.
pub fn psnr_model(value_range: f64, sigma2: f64) -> f64 {
    if sigma2 <= 0.0 {
        return f64::INFINITY;
    }
    20.0 * value_range.log10() - 10.0 * sigma2.log10()
}

/// Inverse of Eq. 12: the error variance implied by a target PSNR.
pub fn sigma2_for_psnr(value_range: f64, psnr_db: f64) -> f64 {
    let range2 = value_range * value_range;
    range2 / 10f64.powf(psnr_db / 10.0)
}

/// Eq. 15: predicted (global) SSIM from the data variance, the SSIM
/// variance stabilizer `c3 = (0.03·range)²` and the error variance.
///
/// A constant field reconstructed without error (all three terms zero) is
/// identical to itself: SSIM 1, not 0/0.
pub fn ssim_model(data_variance: f64, c3: f64, sigma2: f64) -> f64 {
    let structure = 2.0 * data_variance + c3;
    if structure + sigma2 == 0.0 {
        return 1.0;
    }
    structure / (structure + sigma2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_variance() {
        assert!((sigma2_uniform(3.0) - 3.0).abs() < 1e-12);
        assert_eq!(sigma2_uniform(0.0), 0.0);
    }

    #[test]
    fn refined_interpolates_between_concentrated_and_uniform() {
        let eb = 1.0;
        // p0 = 0: pure uniform.
        assert!((sigma2_refined(eb, 0.0, 0.0) - sigma2_uniform(eb)).abs() < 1e-12);
        // p0 = 1 with tiny central variance: tiny overall.
        assert!(sigma2_refined(eb, 1.0, 1e-6) < 1e-5);
        // Refined ≤ uniform when the central bin is concentrated.
        assert!(sigma2_refined(eb, 0.7, 0.01) < sigma2_uniform(eb));
    }

    #[test]
    fn psnr_roundtrip() {
        let range = 123.0;
        for target in [30.0, 56.0, 90.0] {
            let s2 = sigma2_for_psnr(range, target);
            assert!((psnr_model(range, s2) - target).abs() < 1e-9);
        }
    }

    #[test]
    fn psnr_6db_per_halving() {
        // Halving the error std adds ~6.02 dB.
        let a = psnr_model(1.0, 0.01);
        let b = psnr_model(1.0, 0.0025);
        assert!((b - a - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn ssim_limits() {
        assert!((ssim_model(1.0, 0.01, 0.0) - 1.0).abs() < 1e-12);
        assert!(ssim_model(1.0, 0.01, 1e9) < 1e-6);
        // Monotone decreasing in error variance.
        assert!(ssim_model(1.0, 0.01, 0.1) > ssim_model(1.0, 0.01, 0.2));
        // A constant field: exact reconstruction is perfect, any error is not.
        assert_eq!(ssim_model(0.0, 0.0, 0.0), 1.0);
        assert_eq!(ssim_model(0.0, 0.0, 1e-9), 0.0);
    }
}
