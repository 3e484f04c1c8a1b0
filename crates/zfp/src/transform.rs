//! The reversible integer lifting transform on 4-element vectors.
//!
//! This is zfp's non-orthogonal decorrelating transform (a lifted
//! approximation of a 4-point DCT-II). Like libzfp's, the `>>1` steps drop
//! low bits, so forward+inverse round-trips to within a few integer ULPs
//! rather than exactly; at the codec's fixed-point precision (Q = 40 bits
//! below the block exponent) that residue is ~2⁻³⁸ of the value range and
//! is absorbed by the error-bound margin.
//!
//! Both transforms work in place on the caller's `4^ndim`-element slice. The
//! lines of a cube along one axis are `stride`-separated 4-tuples inside
//! consecutive `4 · stride`-element groups, and are walked as exactly that —
//! no per-element division, no list of axes.

use crate::block::{BLOCK_MAX, BLOCK_SIDE};

/// Forward lift of one 4-vector (in place).
#[inline]
pub fn fwd_lift(v: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    // zfp's forward lifting sequence.
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    *v = [x, y, z, w];
}

/// Inverse lift of one 4-vector (in place); inverse of [`fwd_lift`] up to
/// the low bits the `>>1` steps drop (as in libzfp).
#[inline]
pub fn inv_lift(v: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    *v = [x, y, z, w];
}

/// Apply the forward lift along every axis of a 4^d block (row-major,
/// `4usize.pow(ndim)` elements), in place.
pub fn fwd_transform(block: &mut [i64], ndim: usize) {
    for axis in 0..ndim {
        lift_axis(block, axis_stride(ndim, axis), fwd_lift);
    }
}

/// Apply the inverse lift along every axis, in place. The per-axis lifts
/// commute only approximately, so the axes are undone in reverse order.
pub fn inv_transform(block: &mut [i64], ndim: usize) {
    for axis in (0..ndim).rev() {
        lift_axis(block, axis_stride(ndim, axis), inv_lift);
    }
}

/// Row-major stride of `axis` in a 4^ndim cube (last axis fastest).
fn axis_stride(ndim: usize, axis: usize) -> usize {
    BLOCK_SIDE.pow((ndim - 1 - axis) as u32)
}

/// Lift every 4-element line of the cube that runs along the axis of
/// stride `stride`: the cube is a sequence of `4 * stride`-element groups,
/// and each group holds `stride` lines whose elements sit `stride` apart.
#[inline]
fn lift_axis(block: &mut [i64], stride: usize, lift: impl Fn(&mut [i64; 4])) {
    for group in block.chunks_exact_mut(BLOCK_SIDE * stride) {
        for i in 0..stride {
            let mut v = [group[i], group[i + stride], group[i + 2 * stride], group[i + 3 * stride]];
            lift(&mut v);
            group[i] = v[0];
            group[i + stride] = v[1];
            group[i + 2 * stride] = v[2];
            group[i + 3 * stride] = v[3];
        }
    }
}

/// Total-sequency coefficient ordering: coefficients sorted by the sum of
/// their per-axis indices (low frequencies first), ties broken row-major.
/// The first `4usize.pow(ndim)` entries are the permutation `perm` such
/// that `reordered[i] = block[perm[i]]`; the rest are unused.
pub fn sequency_order(ndim: usize) -> [u8; BLOCK_MAX] {
    let n = BLOCK_SIDE.pow(ndim as u32);
    let mut perm = [0u8; BLOCK_MAX];
    let mut filled = 0;
    for total in 0..=3 * ndim {
        for lin in 0..n {
            // A linear index's base-4 digits are its per-axis indices.
            let digit_sum: usize = (0..ndim).map(|a| (lin >> (2 * a)) & 3).sum();
            if digit_sum == total {
                perm[filled] = lin as u8;
                filled += 1;
            }
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lift_roundtrip_within_lsb_slack() {
        // The >>1 steps drop low bits (exactly as in libzfp); round-trips
        // agree to within a few integer ULPs.
        for seed in 0..500i64 {
            let mut v = [
                seed * 977 % 4001 - 2000,
                seed * 1009 % 377 - 188,
                -seed * 31 % 9999,
                seed,
            ];
            let orig = v;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for k in 0..4 {
                assert!((v[k] - orig[k]).abs() <= 2, "seed {seed}: {v:?} vs {orig:?}");
            }
        }
    }

    #[test]
    fn lift_large_magnitudes_relative_slack() {
        let mut v = [1i64 << 40, -(1 << 40), (1 << 39) + 7, -3];
        let orig = v;
        fwd_lift(&mut v);
        inv_lift(&mut v);
        for k in 0..4 {
            assert!((v[k] - orig[k]).abs() <= 2, "{v:?} vs {orig:?}");
        }
    }

    #[test]
    fn transform_roundtrip_2d_3d_bounded_residue() {
        for ndim in 1..=3usize {
            let n = 4usize.pow(ndim as u32);
            let mut block: Vec<i64> =
                (0..n as i64).map(|i| (i * i * 37) % 100_000 - 50_000).collect();
            let orig = block.clone();
            fwd_transform(&mut block, ndim);
            assert_ne!(block, orig, "transform must do something");
            inv_transform(&mut block, ndim);
            for (a, b) in block.iter().zip(&orig) {
                assert!((a - b).abs() <= 8, "ndim {ndim}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn constant_block_compacts_to_dc() {
        let mut block = vec![128i64; 16];
        fwd_transform(&mut block, 2);
        // All energy in the DC coefficient, up to lift rounding residue.
        let nonzero_big = block.iter().filter(|&&c| c.abs() > 2).count();
        assert_eq!(nonzero_big, 1, "constant block must compact: {block:?}");
    }

    #[test]
    fn linear_ramp_compacts_to_few_coeffs() {
        // A linear field needs only DC + first-order coefficients.
        let mut block: Vec<i64> = (0..64)
            .map(|lin| {
                let (i, j, k) = (lin / 16, (lin / 4) % 4, lin % 4);
                (i as i64) * 300 + (j as i64) * 40 + (k as i64) * 5
            })
            .collect();
        fwd_transform(&mut block, 3);
        let big = block.iter().filter(|&&c| c.abs() > 16).count();
        assert!(big <= 8, "linear block should compact, got {big} large coeffs");
    }

    #[test]
    fn sequency_order_is_permutation() {
        for ndim in 1..=4usize {
            let p = sequency_order(ndim);
            let n = 4usize.pow(ndim as u32);
            let mut seen = vec![false; n];
            for &i in &p[..n] {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
            // DC first.
            assert_eq!(p[0], 0);
            // Total sequency never decreases; row-major inside a total.
            let total = |lin: u8| (0..ndim).map(|a| (lin as usize >> (2 * a)) & 3).sum::<usize>();
            for pair in p[..n].windows(2) {
                assert!((total(pair[0]), pair[0]) < (total(pair[1]), pair[1]), "ndim {ndim}");
            }
        }
    }

    #[test]
    fn lines_cover_all_elements() {
        for ndim in 1..=4usize {
            let n = 4usize.pow(ndim as u32);
            for axis in 0..ndim {
                // Number every visit and mark the line's lanes in order:
                // each element is visited once, as lane `index along axis`.
                let mut block = vec![0i64; n];
                lift_axis(&mut block, axis_stride(ndim, axis), |v| {
                    for (lane, x) in v.iter_mut().enumerate() {
                        *x += 1 + lane as i64;
                    }
                });
                for (lin, &x) in block.iter().enumerate() {
                    let along = (lin / axis_stride(ndim, axis)) % 4;
                    assert_eq!(x, 1 + along as i64, "ndim {ndim} axis {axis} element {lin}");
                }
            }
        }
    }
}
