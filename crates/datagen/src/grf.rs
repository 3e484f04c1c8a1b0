//! Gaussian random fields with power-law spectra.
//!
//! Cosmology and turbulence fields (Nyx, Miranda) are well approximated by
//! Gaussian random fields with `P(k) ∝ k^{−slope}` — the property that
//! determines how predictable they are for a given compressor. Fields are
//! synthesized by filtering white noise in Fourier space with our own FFT:
//! white noise → FFT → multiply by `k^{−slope/2}` → IFFT → real part, which
//! keeps the output exactly real and the target spectrum exact up to the
//! noise realization.

use crate::rng::{fill_normal, Rng};
use rq_analysis::fft::{fft3_in_place, fft_in_place, ifft_in_place, Complex};
use rq_grid::{NdArray, Shape};

fn ifft3_in_place(data: &mut [Complex], dims: [usize; 3]) {
    // Inverse = conjugate → forward → conjugate, /N.
    for c in data.iter_mut() {
        c.im = -c.im;
    }
    fft3_in_place(data, dims);
    let n = data.len() as f64;
    for c in data.iter_mut() {
        c.re /= n;
        c.im = -c.im / n;
    }
}

fn folded_k(i: usize, n: usize) -> f64 {
    if i <= n / 2 {
        i as f64
    } else {
        i as f64 - n as f64
    }
}

/// Generate a 3D Gaussian random field with spectrum `P(k) ∝ k^{−slope}`,
/// zero mean, unit variance. Extents must be powers of two.
pub fn grf_3d(dims: [usize; 3], slope: f64, rng: &mut Rng) -> NdArray<f64> {
    let n = dims[0] * dims[1] * dims[2];
    let mut noise = vec![0.0f64; n];
    fill_normal(rng, &mut noise);
    let mut buf: Vec<Complex> = noise.iter().map(|&v| Complex::new(v, 0.0)).collect();
    fft3_in_place(&mut buf, dims);
    for i0 in 0..dims[0] {
        for i1 in 0..dims[1] {
            for i2 in 0..dims[2] {
                let k0 = folded_k(i0, dims[0]);
                let k1 = folded_k(i1, dims[1]);
                let k2 = folded_k(i2, dims[2]);
                let k = (k0 * k0 + k1 * k1 + k2 * k2).sqrt();
                let idx = (i0 * dims[1] + i1) * dims[2] + i2;
                let g = if k == 0.0 { 0.0 } else { k.powf(-slope / 2.0) };
                buf[idx].re *= g;
                buf[idx].im *= g;
            }
        }
    }
    ifft3_in_place(&mut buf, dims);
    let mut out: Vec<f64> = buf.iter().map(|c| c.re).collect();
    normalize(&mut out);
    NdArray::from_vec(Shape::d3(dims[0], dims[1], dims[2]), out)
}

/// 1D power-law Gaussian process of length `n` (power of two).
pub fn grf_1d(n: usize, slope: f64, rng: &mut Rng) -> NdArray<f64> {
    let mut noise = vec![0.0f64; n];
    fill_normal(rng, &mut noise);
    let mut buf: Vec<Complex> = noise.iter().map(|&v| Complex::new(v, 0.0)).collect();
    fft_in_place(&mut buf);
    for (i, c) in buf.iter_mut().enumerate() {
        let k = folded_k(i, n).abs();
        let g = if k == 0.0 { 0.0 } else { k.powf(-slope / 2.0) };
        c.re *= g;
        c.im *= g;
    }
    ifft_in_place(&mut buf);
    let mut out: Vec<f64> = buf.iter().map(|c| c.re).collect();
    normalize(&mut out);
    NdArray::from_vec(Shape::d1(n), out)
}

/// 2D power-law field, built as a cube of depth 1 for simplicity.
pub fn grf_2d(dims: [usize; 2], slope: f64, rng: &mut Rng) -> NdArray<f64> {
    // Use the 3D path with a thin axis; spectra along the thin axis are
    // trivial so the 2D spectrum dominates.
    let cube = grf_3d([1, dims[0], dims[1]], slope, rng);
    NdArray::from_vec(Shape::d2(dims[0], dims[1]), cube.into_vec())
}

fn normalize(out: &mut [f64]) {
    let n = out.len() as f64;
    let mean = out.iter().sum::<f64>() / n;
    let var = out.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let sd = var.sqrt().max(1e-30);
    for v in out.iter_mut() {
        *v = (*v - mean) / sd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rq_analysis::spectrum::power_spectrum_3d;
    use rq_grid::stats::Moments;

    #[test]
    fn unit_variance_zero_mean() {
        let mut rng = seeded(5);
        let f = grf_3d([16, 16, 16], 2.0, &mut rng);
        let m = Moments::from_slice(f.as_slice());
        assert!(m.mean.abs() < 1e-9);
        assert!((m.variance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spectrum_slope_approximately_honored() {
        let mut rng = seeded(17);
        let f = grf_3d([32, 32, 32], 2.0, &mut rng);
        let f32field = NdArray::from_vec(f.shape(), f.as_slice().to_vec());
        let spec = power_spectrum_3d(&f32field);
        // Fit log-log slope over mid-range k.
        let pts: Vec<(f64, f64)> = spec
            .iter()
            .filter(|b| b.k >= 2.0 && b.k <= 12.0 && b.power > 0.0)
            .map(|b| (b.k.ln(), b.power.ln()))
            .collect();
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let slope = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
            / pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
        assert!((slope + 2.0).abs() < 0.5, "fitted slope {slope}, want ≈ -2");
    }

    #[test]
    fn steeper_slope_is_smoother() {
        // Mean |first difference| decreases with slope.
        let mut rng = seeded(23);
        let rough = grf_1d(4096, 0.5, &mut rng);
        let smooth = grf_1d(4096, 3.0, &mut rng);
        let tv = |f: &NdArray<f64>| {
            f.as_slice().windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>()
        };
        assert!(tv(&smooth) < tv(&rough));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = grf_2d([16, 16], 1.5, &mut seeded(3));
        let b = grf_2d([16, 16], 1.5, &mut seeded(3));
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
