//! Per-dataset field generators (synthetic stand-ins, DESIGN.md §4).
//!
//! Every generator is deterministic given its built-in seed, so measured
//! numbers are exactly reproducible. Extents are scaled
//! down from Table I to laptop-friendly sizes while keeping the
//! dimensionality and statistical character.

use crate::grf::{grf_2d, grf_3d};
use crate::rng::{normal, seeded};
use crate::rtm::RtmSimulator;
use rand::Rng;
use rq_grid::{NdArray, Shape};

fn to_f32(a: NdArray<f64>) -> NdArray<f32> {
    let shape = a.shape();
    NdArray::from_vec(shape, a.into_vec().into_iter().map(|v| v as f32).collect())
}

/// Crop a field generated at power-of-two extents down to `dims`.
fn crop3(a: &NdArray<f64>, dims: [usize; 3]) -> NdArray<f64> {
    a.extract_block(&[0, 0, 0], &dims)
}

/// CESM-like `TS` (surface temperature, 2D): latitudinal gradient plus
/// weather-scale perturbations.
pub fn cesm_ts() -> NdArray<f32> {
    let (nlat, nlon) = (256, 512);
    let mut rng = seeded(0xCE50);
    let weather = grf_2d([nlat, nlon], 2.5, &mut rng);
    to_f32(NdArray::from_fn(Shape::d2(nlat, nlon), |ix| {
        let lat = (ix[0] as f64 / nlat as f64 - 0.5) * std::f64::consts::PI;
        285.0 + 25.0 * lat.cos() - 40.0 * lat.sin().powi(2) + 4.0 * weather.get(&ix[..2])
    }))
}

/// CESM-like `TROP_Z` (tropopause height, 2D): smooth, large dynamic range.
pub fn cesm_trop_z() -> NdArray<f32> {
    let (nlat, nlon) = (256, 512);
    let mut rng = seeded(0xCE51);
    let pert = grf_2d([nlat, nlon], 3.0, &mut rng);
    to_f32(NdArray::from_fn(Shape::d2(nlat, nlon), |ix| {
        let lat = (ix[0] as f64 / nlat as f64 - 0.5) * std::f64::consts::PI;
        8_000.0 + 8_500.0 * lat.cos().powi(2) + 350.0 * pert.get(&ix[..2])
    }))
}

/// Hurricane-like `U` (zonal wind, 3D): a vertical-axis vortex plus
/// turbulent perturbations.
pub fn hurricane_u() -> NdArray<f32> {
    let dims = [32, 128, 128];
    let mut rng = seeded(0x4055);
    let turb = grf_3d([32, 128, 128], 5.0 / 3.0, &mut rng);
    to_f32(NdArray::from_fn(Shape::d3(dims[0], dims[1], dims[2]), |ix| {
        let (z, y, x) = (ix[0] as f64, ix[1] as f64 - 64.0, ix[2] as f64 - 64.0);
        let r = (x * x + y * y).sqrt().max(1.0);
        // Rankine-like vortex: solid-body core, 1/r tail, decaying with z.
        let v_t = 45.0 * (r / 20.0).min(20.0 / r) * (-z / 40.0).exp();
        let u = -v_t * y / r;
        u + 3.0 * turb.get(&ix[..3])
    }))
}

/// Hurricane-like `TC` (cloud temperature, 3D): vertical lapse rate with a
/// warm core.
pub fn hurricane_tc() -> NdArray<f32> {
    let dims = [32, 128, 128];
    let mut rng = seeded(0x4056);
    let turb = grf_3d([32, 128, 128], 2.0, &mut rng);
    to_f32(NdArray::from_fn(Shape::d3(dims[0], dims[1], dims[2]), |ix| {
        let (z, y, x) = (ix[0] as f64, ix[1] as f64 - 64.0, ix[2] as f64 - 64.0);
        let r2 = x * x + y * y;
        let warm_core = 8.0 * (-r2 / 800.0).exp() * (-((z - 12.0) / 10.0).powi(2)).exp();
        25.0 - 2.2 * z + warm_core + 0.8 * turb.get(&ix[..3])
    }))
}

/// Nyx-like dark-matter density (3D): log-normal transform of a power-law
/// Gaussian random field — heavy-tailed, hard to compress at low bounds.
pub fn nyx_dark_matter() -> NdArray<f32> {
    let mut rng = seeded(0x9A11);
    let delta = grf_3d([64, 64, 64], 2.5, &mut rng);
    to_f32(NdArray::from_fn(delta.shape(), |ix| (1.8 * delta.get(&ix[..3])).exp() * 80.0))
}

/// Nyx-like baryon temperature (3D): log-normal around 10⁴ K.
pub fn nyx_temperature() -> NdArray<f32> {
    let mut rng = seeded(0x9A12);
    let delta = grf_3d([64, 64, 64], 2.8, &mut rng);
    to_f32(NdArray::from_fn(delta.shape(), |ix| {
        1.0e4 * (0.9 * delta.get(&ix[..3])).exp()
    }))
}

/// Nyx-like z-velocity (3D): large-scale coherent flows, ±10⁷ range.
pub fn nyx_velocity_z() -> NdArray<f32> {
    let mut rng = seeded(0x9A13);
    let v = grf_3d([64, 64, 64], 2.2, &mut rng);
    to_f32(NdArray::from_fn(v.shape(), |ix| 2.0e6 * v.get(&ix[..3])))
}

/// HACC-like particle position `xx` (1D): particles clustered in halos
/// inside a 256 Mpc box, in storage order — locally coherent with jumps.
pub fn hacc_xx() -> NdArray<f32> {
    let n = 1 << 21;
    let mut rng = seeded(0x4ACC);
    let mut out = Vec::with_capacity(n);
    let box_size = 256.0;
    while out.len() < n {
        // One halo: center uniform in the box, ~Plummer-ish radial jitter.
        let center: f64 = rng.gen::<f64>() * box_size;
        let members = 64 + (rng.gen::<f64>() * 960.0) as usize;
        let scale = 0.1 + rng.gen::<f64>() * 2.0;
        for _ in 0..members.min(n - out.len()) {
            let r = normal(&mut rng) * scale;
            out.push(((center + r).rem_euclid(box_size)) as f32);
        }
    }
    NdArray::from_vec(Shape::d1(n), out)
}

/// HACC-like particle velocity `vx` (1D): nearly iid Maxwellian components
/// with halo-scale correlation — the least compressible field in Table I.
pub fn hacc_vx() -> NdArray<f32> {
    let n = 1 << 21;
    let mut rng = seeded(0x4ACD);
    let mut out = Vec::with_capacity(n);
    let mut bulk = 0.0f64;
    for i in 0..n {
        if i % 512 == 0 {
            bulk = normal(&mut rng) * 300.0; // per-halo bulk flow
        }
        out.push((bulk + normal(&mut rng) * 250.0) as f32);
    }
    NdArray::from_vec(Shape::d1(n), out)
}

/// Brown (1D): exact Brownian motion, the paper's synthetic benchmark.
pub fn brown_pressure() -> NdArray<f32> {
    let n = 1 << 20;
    let mut rng = seeded(0xB077);
    let mut acc = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        acc += normal(&mut rng);
        out.push(acc as f32);
    }
    NdArray::from_vec(Shape::d1(n), out)
}

/// Miranda-like `vx` (3D): Kolmogorov-spectrum turbulence with mild
/// intermittency shaping.
pub fn miranda_vx() -> NdArray<f32> {
    let mut rng = seeded(0x317A);
    let v = grf_3d([64, 128, 128], 5.0 / 3.0, &mut rng);
    let cropped = crop3(&v, [64, 96, 96]);
    to_f32(NdArray::from_fn(cropped.shape(), |ix| {
        let x = cropped.get(&ix[..3]);
        1.2 * x + 0.15 * x * x * x.signum()
    }))
}

/// QMCPACK-like `einspline` orbital (3D, 69×69×115): sum of oscillating
/// Gaussian lobes, exactly the paper's odd extents.
pub fn qmcpack_einspline() -> NdArray<f32> {
    let dims = [69usize, 69, 115];
    let mut rng = seeded(0x03C4);
    // Random orbital centers and wave-vectors.
    let lobes: Vec<([f64; 3], f64, [f64; 3])> = (0..24)
        .map(|_| {
            let c = [
                rng.gen::<f64>() * dims[0] as f64,
                rng.gen::<f64>() * dims[1] as f64,
                rng.gen::<f64>() * dims[2] as f64,
            ];
            let width = 6.0 + rng.gen::<f64>() * 10.0;
            let kvec = [normal(&mut rng) * 0.4, normal(&mut rng) * 0.4, normal(&mut rng) * 0.4];
            (c, width, kvec)
        })
        .collect();
    to_f32(NdArray::from_fn(Shape::d3(dims[0], dims[1], dims[2]), |ix| {
        let p = [ix[0] as f64, ix[1] as f64, ix[2] as f64];
        lobes
            .iter()
            .map(|(c, w, k)| {
                let r2: f64 = (0..3).map(|a| (p[a] - c[a]).powi(2)).sum();
                let phase: f64 = (0..3).map(|a| k[a] * p[a]).sum();
                (-r2 / (2.0 * w * w)).exp() * phase.cos()
            })
            .sum::<f64>()
    }))
}

/// SCALE-LETKF-like `PRES` (3D, 98×120×120): barometric decay with height
/// plus synoptic perturbations.
pub fn scale_pres() -> NdArray<f32> {
    let mut rng = seeded(0x5CA1);
    let pert = grf_3d([128, 128, 128], 2.5, &mut rng);
    let pert = crop3(&pert, [98, 120, 120]);
    to_f32(NdArray::from_fn(pert.shape(), |ix| {
        let z = ix[0] as f64;
        101_325.0 * (-z / 35.0).exp() + 300.0 * pert.get(&ix[..3])
    }))
}

/// EXAFEL-like `raw` (4D, events × panels × rows × cols): detector
/// background, shot noise and sparse Bragg-like peaks.
pub fn exafel_raw() -> NdArray<f32> {
    let dims = [8usize, 16, 64, 128];
    let mut rng = seeded(0xE8FE);
    let n = dims.iter().product::<usize>();
    let mut out = vec![0f32; n];
    for v in out.iter_mut() {
        // Pedestal + Gaussian readout noise.
        *v = (120.0 + normal(&mut rng) * 6.0) as f32;
    }
    // Sparse bright peaks, a few per panel.
    let shape = Shape::d4(dims[0], dims[1], dims[2], dims[3]);
    for ev in 0..dims[0] {
        for panel in 0..dims[1] {
            for _ in 0..6 {
                let r = rng.gen::<f64>() * (dims[2] - 3) as f64;
                let c = rng.gen::<f64>() * (dims[3] - 3) as f64;
                let amp = 2000.0 + rng.gen::<f64>() * 12_000.0;
                for dr in 0..3usize {
                    for dc in 0..3usize {
                        let idx =
                            shape.offset(&[ev, panel, r as usize + dr, c as usize + dc]);
                        let fall =
                            (-(((dr as f64 - 1.0).powi(2) + (dc as f64 - 1.0).powi(2)) / 0.8))
                                .exp();
                        out[idx] += (amp * fall) as f32;
                    }
                }
            }
        }
    }
    NdArray::from_vec(shape, out)
}

/// RTM-like wavefield snapshot at the given solver step (shared simulator
/// recommended for multiple snapshots; this is the one-shot form).
pub fn rtm_snapshot(step: usize) -> NdArray<f32> {
    RtmSimulator::new([64, 64, 64]).snapshot_at(step)
}

/// Mixed-regime field for adaptive-codec tests and benches: axis-0 rows
/// `0..smooth_rows` are a low-amplitude smooth wave (the prediction
/// path's home turf), the remaining rows are avalanche hash noise of
/// peak-to-peak amplitude `amp` — prediction errors there blow past the
/// quantizer's escape radius at tight bounds, which is the transform
/// path's regime. Deterministic, RNG-free (safe for byte-stability
/// tests).
pub fn mixed_smooth_turbulent(shape: Shape, smooth_rows: usize, amp: f64) -> NdArray<f32> {
    NdArray::from_fn(shape, |ix| {
        if ix[0] < smooth_rows {
            let smooth: f64 = ix
                .iter()
                .enumerate()
                .map(|(a, &c)| ((c as f64) * 0.2 / (a + 1) as f64).sin() / (a + 1) as f64)
                .sum();
            smooth as f32
        } else {
            // FNV-style fold of the index, then the murmur3 finalizer for
            // proper avalanche (locally linear hashes are invisible to
            // Lorenzo and would defeat the point of the turbulent half).
            let mut h = ix
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |acc, &c| {
                    acc.wrapping_mul(0x1000_0000_01b3).wrapping_add(c as u64 + 1)
                });
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            (((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * amp) as f32
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::stats::Moments;

    #[test]
    fn cesm_ts_is_earthlike() {
        let f = cesm_ts();
        assert_eq!(f.shape().dims(), &[256, 512]);
        let (lo, hi) = f.min_max();
        assert!(lo > 150.0 && hi < 350.0, "range [{lo}, {hi}]");
    }

    #[test]
    fn nyx_dark_matter_heavy_tailed() {
        let f = nyx_dark_matter();
        let m = Moments::from_slice(f.as_slice());
        let (lo, hi) = f.min_max();
        assert!(lo > 0.0, "density must be positive");
        // Log-normal: max far above the mean.
        assert!(hi > 10.0 * m.mean, "hi {hi} mean {}", m.mean);
    }

    #[test]
    fn hacc_fields_have_expected_sizes() {
        assert_eq!(hacc_xx().len(), 1 << 21);
        assert_eq!(hacc_vx().len(), 1 << 21);
        let (lo, hi) = hacc_xx().min_max();
        assert!(lo >= 0.0 && hi <= 256.0);
    }

    #[test]
    fn brown_is_brownian() {
        let f = brown_pressure();
        // Increment variance ≈ 1.
        let incs: Vec<f64> = f
            .as_slice()
            .windows(2)
            .take(100_000)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        let m = Moments::from_slice(&incs);
        assert!((m.variance() - 1.0).abs() < 0.05, "inc var {}", m.variance());
    }

    #[test]
    fn qmcpack_has_paper_extents() {
        assert_eq!(qmcpack_einspline().shape().dims(), &[69, 69, 115]);
    }

    #[test]
    fn scale_pres_decays_with_height() {
        let f = scale_pres();
        assert_eq!(f.shape().dims(), &[98, 120, 120]);
        let top = f.get(&[90, 60, 60]);
        let bottom = f.get(&[2, 60, 60]);
        assert!(bottom > 5.0 * top, "bottom {bottom} top {top}");
    }

    #[test]
    fn exafel_peaks_are_sparse_and_bright() {
        let f = exafel_raw();
        assert_eq!(f.shape().ndim(), 4);
        let bright = f.as_slice().iter().filter(|&&v| v > 1000.0).count();
        let frac = bright as f64 / f.len() as f64;
        assert!(frac > 0.0 && frac < 0.02, "bright fraction {frac}");
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(cesm_ts().as_slice(), cesm_ts().as_slice());
        assert_eq!(nyx_velocity_z().as_slice(), nyx_velocity_z().as_slice());
    }

    #[test]
    fn mixed_field_halves_have_distinct_regimes() {
        let shape = Shape::d3(16, 12, 12);
        let f = mixed_smooth_turbulent(shape, 8, 40.0);
        assert_eq!(f.as_slice(), mixed_smooth_turbulent(shape, 8, 40.0).as_slice());
        let half = 8 * 12 * 12;
        let spread = |s: &[f32]| {
            let (lo, hi) = s
                .iter()
                .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (hi - lo) as f64
        };
        let smooth = spread(&f.as_slice()[..half]);
        let rough = spread(&f.as_slice()[half..]);
        assert!(smooth < 4.0, "smooth spread {smooth}");
        assert!(rough > 30.0, "rough spread {rough}");
    }
}
