//! Block extraction / block-floating-point conversion.
//!
//! Each 4^d block shares one exponent: values are scaled by `2^(Q − e)`
//! where `e` is the block's maximum exponent and `Q` the fixed-point
//! precision, then rounded to integers. Edge blocks are padded by
//! replicating the last layer (as libzfp does), which keeps the transform
//! smooth across the pad.
//!
//! Scratch in, scratch out: every function here fills a slice the caller
//! owns (`4^ndim` elements, the front of one [`BLOCK_MAX`]-element array the
//! codec keeps for the whole call) and allocates nothing. A block is gathered
//! and scattered one 4-run along the slab's last axis at a time; the run's
//! offset on the outer axes is a sum of per-axis lane offsets computed once
//! per block, not an index computation per element.

use rq_grid::{Scalar, Shape, MAX_DIMS};

/// Fixed-point fractional precision (bits below the block's max exponent).
pub const Q_BITS: i32 = 40;

/// Side length of a codec block.
pub const BLOCK_SIDE: usize = 4;

/// Values in the largest block (`BLOCK_SIDE` to the power [`MAX_DIMS`]):
/// the length of the per-call scratch arrays a block of any dimensionality
/// fits in.
pub const BLOCK_MAX: usize = BLOCK_SIDE.pow(MAX_DIMS as u32);

/// Extract the block at `origin` (block-aligned) into `out` (row-major,
/// `4^ndim` values), replicate-padding past the boundary.
///
/// Operates on a raw row-major slice so callers can encode sub-slabs of a
/// larger buffer (the chunk-parallel pipeline) without copying.
pub fn extract_padded<T: Scalar>(data: &[T], shape: Shape, origin: &[usize], out: &mut [f64]) {
    let nd = shape.ndim();
    debug_assert_eq!(out.len(), BLOCK_SIDE.pow(nd as u32));
    let strides = shape.strides();
    // Clamp = replicate padding, once per axis and lane.
    let mut offsets = [[0usize; BLOCK_SIDE]; MAX_DIMS];
    for a in 0..nd {
        for (lane, o) in offsets[a].iter_mut().enumerate() {
            *o = (origin[a] + lane).min(shape.dim(a) - 1) * strides[a];
        }
    }
    let last = offsets[nd - 1];
    let contiguous = origin[nd - 1] + BLOCK_SIDE <= shape.dim(nd - 1);
    // One 4-run along the last axis per step; the run's number, in base 4,
    // is its lanes on the outer axes (axis `nd - 2` lowest).
    for (line, run) in out.chunks_exact_mut(BLOCK_SIDE).enumerate() {
        let mut base = 0;
        let mut rem = line;
        for a in (0..nd - 1).rev() {
            base += offsets[a][rem % BLOCK_SIDE];
            rem /= BLOCK_SIDE;
        }
        if contiguous {
            let src = &data[base + last[0]..base + last[0] + BLOCK_SIDE];
            for (o, v) in run.iter_mut().zip(src) {
                *o = v.to_f64();
            }
        } else {
            for (o, &l) in run.iter_mut().zip(&last) {
                *o = data[base + l].to_f64();
            }
        }
    }
}

/// Write a decoded block (row-major, `4^ndim` values) back, ignoring padded
/// lanes.
pub fn store_block<T: Scalar>(data: &mut [T], shape: Shape, origin: &[usize], values: &[f64]) {
    let nd = shape.ndim();
    debug_assert_eq!(values.len(), BLOCK_SIDE.pow(nd as u32));
    let strides = shape.strides();
    // Lanes of the block that lie inside the slab, per axis.
    let mut extent = [0usize; MAX_DIMS];
    for a in 0..nd {
        extent[a] = (shape.dim(a) - origin[a]).min(BLOCK_SIDE);
    }
    for (line, run) in values.chunks_exact(BLOCK_SIDE).enumerate() {
        let mut start = origin[nd - 1];
        let mut rem = line;
        let mut inside = true;
        for a in (0..nd - 1).rev() {
            let lane = rem % BLOCK_SIDE;
            rem /= BLOCK_SIDE;
            inside &= lane < extent[a];
            start += (origin[a] + lane) * strides[a];
        }
        if inside {
            for (d, &v) in data[start..start + extent[nd - 1]].iter_mut().zip(run) {
                *d = T::from_f64(v);
            }
        }
    }
}

/// Shared-exponent fixed-point encoding of a block into `ints`
/// (`ints.len() == values.len()`).
///
/// Returns `e_max` with `ints[i] = round(v[i] · 2^(Q − e_max))`; an
/// all-zero/non-finite block returns `e_max = i32::MIN` and zeros.
pub fn to_fixed_point(values: &[f64], ints: &mut [i64]) -> i32 {
    let mut e_max = i32::MIN;
    for &v in values {
        if v != 0.0 && v.is_finite() {
            let (_, e) = frexp(v.abs());
            e_max = e_max.max(e);
        }
    }
    if e_max == i32::MIN {
        ints.fill(0);
        return e_max;
    }
    let scale = exp2i(Q_BITS - e_max);
    for (i, &v) in ints.iter_mut().zip(values) {
        *i = if v.is_finite() { (v * scale).round() as i64 } else { 0 };
    }
    e_max
}

/// Inverse of [`to_fixed_point`], into `values`
/// (`values.len() == ints.len()`).
pub fn from_fixed_point(e_max: i32, ints: &[i64], values: &mut [f64]) {
    if e_max == i32::MIN {
        values.fill(0.0);
        return;
    }
    let scale = exp2i(e_max - Q_BITS);
    for (v, &i) in values.iter_mut().zip(ints) {
        *v = i as f64 * scale;
    }
}

/// `2^k` as f64 for |k| within f64 range.
fn exp2i(k: i32) -> f64 {
    f64::from_bits((((1023 + k.clamp(-1022, 1023)) as u64) << 52).max(1))
}

/// Binary exponent of a positive finite f64 (`v = m·2^e`, `m ∈ [0.5, 1)`).
fn frexp(v: f64) -> (f64, i32) {
    let bits = v.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // Subnormal: normalize by multiplying up.
        let scaled = v * exp2i(64);
        let (m, e) = frexp(scaled);
        return (m, e - 64);
    }
    let e = raw_exp - 1022;
    let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
    (m, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::Shape;

    #[test]
    fn frexp_basics() {
        assert_eq!(frexp(1.0), (0.5, 1));
        assert_eq!(frexp(0.5), (0.5, 0));
        assert_eq!(frexp(3.0), (0.75, 2));
        let (m, e) = frexp(1e-300);
        assert!((m * exp2i(e) - 1e-300).abs() < 1e-310);
    }

    #[test]
    fn fixed_point_roundtrip_within_half_ulp() {
        let vals = [1.0, -0.5, 0.25, 3.999, 0.0, -2.5e-3, 1.75];
        let (mut ints, mut back) = ([0i64; 7], [0f64; 7]);
        let e = to_fixed_point(&vals, &mut ints);
        from_fixed_point(e, &ints, &mut back);
        let tol = exp2i(e - Q_BITS);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn all_zero_block() {
        // Dirty scratch in, zeros out: the codec reuses one scratch per call.
        let (mut ints, mut back) = ([7i64; 16], [7f64; 16]);
        let e = to_fixed_point(&[0.0; 16], &mut ints);
        assert_eq!(e, i32::MIN);
        assert!(ints.iter().all(|&i| i == 0));
        from_fixed_point(e, &ints, &mut back);
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extract_and_store_roundtrip_with_padding() {
        // 5x6 field: edge blocks need padding.
        let shape = Shape::d2(5, 6);
        let field = rq_grid::NdArray::<f32>::from_fn(shape, |ix| (ix[0] * 10 + ix[1]) as f32);
        let mut out = vec![0f32; shape.len()];
        for b0 in (0..5).step_by(4) {
            for b1 in (0..6).step_by(4) {
                let mut vals = [f64::NAN; 16];
                extract_padded(field.as_slice(), shape, &[b0, b1], &mut vals);
                assert!(vals.iter().all(|v| v.is_finite()), "every lane is written");
                store_block(&mut out, shape, &[b0, b1], &vals);
            }
        }
        assert_eq!(&out[..], field.as_slice());
    }

    #[test]
    fn padding_replicates_edge() {
        let data = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        let mut vals = [0f64; 4];
        extract_padded(&data, Shape::d1(5), &[4], &mut vals);
        assert_eq!(vals, [4.0, 4.0, 4.0, 4.0]);
    }
}
