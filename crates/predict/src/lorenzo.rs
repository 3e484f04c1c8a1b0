//! The Lorenzo predictor (Ibarria et al. \[41\]).
//!
//! The order-`k` Lorenzo predictor in `d` dimensions extrapolates a point
//! from its corner neighborhood via the operator identity
//!
//! ```text
//!   P = 1 − Π_i (1 − B_i)^k
//! ```
//!
//! where `B_i` is the backshift along dimension `i`. Expanding the product
//! gives the familiar stencils: order 1 in 2D is
//! `f(i−1,j) + f(i,j−1) − f(i−1,j−1)`; order 1 in 3D is the 7-point
//! inclusion–exclusion stencil (hence the "±7 bins" remark in the paper's
//! §III-C4); order 2 in 1D is `2f(i−1) − f(i−2)`.
//!
//! Out-of-bounds neighbors contribute 0, matching SZ's behaviour on the
//! leading boundary layers.

use rq_grid::{Shape, MAX_DIMS};

/// Maximum supported Lorenzo order.
pub const MAX_ORDER: usize = 2;

/// A precomputed Lorenzo stencil: neighbor offsets (per dimension) and
/// weights, independent of position.
#[derive(Clone, Debug)]
pub struct LorenzoStencil {
    ndim: usize,
    /// (offset vector, weight) pairs; offsets are non-negative backshifts.
    taps: Vec<([usize; MAX_DIMS], f64)>,
}

impl LorenzoStencil {
    /// Build the stencil for `ndim` dimensions and `order` ∈ {1, 2}.
    ///
    /// # Panics
    /// Panics if `order` is 0 or exceeds [`MAX_ORDER`], or `ndim` exceeds
    /// [`MAX_DIMS`].
    pub fn new(ndim: usize, order: usize) -> Self {
        assert!((1..=MAX_ORDER).contains(&order), "unsupported order {order}");
        assert!((1..=MAX_DIMS).contains(&ndim), "unsupported ndim {ndim}");
        // Binomial coefficients of (1 - B)^k: coeff[o] = C(k,o) * (-1)^o.
        let binom: &[f64] = match order {
            1 => &[1.0, -1.0],
            2 => &[1.0, -2.0, 1.0],
            _ => unreachable!(),
        };
        let mut taps = Vec::new();
        // Enumerate all offset vectors in {0..=order}^ndim except all-zero.
        let mut offsets = [0usize; MAX_DIMS];
        loop {
            let nonzero = offsets[..ndim].iter().any(|&o| o != 0);
            if nonzero {
                let mut w = 1.0;
                for &o in &offsets[..ndim] {
                    w *= binom[o];
                }
                // P = 1 - Π(1-B)^k  =>  tap weight is the negated product
                // coefficient.
                taps.push((offsets, -w));
            }
            // Odometer over {0..=order}^ndim.
            let mut axis = 0;
            loop {
                if axis == ndim {
                    return LorenzoStencil { ndim, taps };
                }
                offsets[axis] += 1;
                if offsets[axis] <= order {
                    break;
                }
                offsets[axis] = 0;
                axis += 1;
            }
        }
    }

    /// Number of taps (7 for 3D order 1, 3 for 2D order 1, …).
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Predict the value at `idx` from `buf` (row-major with `shape`).
    /// Neighbors falling outside the array contribute 0.
    #[inline]
    pub fn predict(&self, buf: &[f64], shape: Shape, idx: &[usize]) -> f64 {
        self.predict_with(shape, idx, |lin| buf[lin])
    }

    /// [`Self::predict`] with an arbitrary value accessor, so callers can
    /// predict from non-`f64` buffers (e.g. strided sampling of an `f32`
    /// slab) without materializing a converted copy — only the stencil's
    /// own taps are read.
    #[inline]
    pub fn predict_with(
        &self,
        shape: Shape,
        idx: &[usize],
        get: impl Fn(usize) -> f64,
    ) -> f64 {
        debug_assert_eq!(idx.len(), self.ndim);
        let strides = shape.strides();
        let mut acc = 0.0;
        'taps: for &(off, w) in &self.taps {
            let mut lin = 0usize;
            for a in 0..self.ndim {
                let Some(coord) = idx[a].checked_sub(off[a]) else {
                    continue 'taps;
                };
                lin += coord * strides[a];
            }
            acc += w * get(lin);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::NdArray;

    #[test]
    fn tap_counts() {
        assert_eq!(LorenzoStencil::new(1, 1).tap_count(), 1);
        assert_eq!(LorenzoStencil::new(2, 1).tap_count(), 3);
        assert_eq!(LorenzoStencil::new(3, 1).tap_count(), 7);
        assert_eq!(LorenzoStencil::new(4, 1).tap_count(), 15);
        assert_eq!(LorenzoStencil::new(1, 2).tap_count(), 2);
        assert_eq!(LorenzoStencil::new(3, 2).tap_count(), 26);
    }

    #[test]
    fn order1_1d_is_previous_value() {
        let buf = [3.0, 5.0, 7.0];
        let s = LorenzoStencil::new(1, 1);
        assert_eq!(s.predict(&buf, Shape::d1(3), &[2]), 5.0);
        // Boundary: previous value out of range => 0.
        assert_eq!(s.predict(&buf, Shape::d1(3), &[0]), 0.0);
    }

    #[test]
    fn order2_1d_is_linear_extrapolation() {
        let buf = [1.0, 3.0, 0.0];
        let s = LorenzoStencil::new(1, 2);
        // 2*f(i-1) - f(i-2) = 6 - 1 = 5.
        assert_eq!(s.predict(&buf, Shape::d1(3), &[2]), 5.0);
    }

    #[test]
    fn order1_2d_stencil() {
        // f = [[1,2],[3,x]]; prediction for x = 3 + 2 - 1 = 4.
        let buf = [1.0, 2.0, 3.0, 0.0];
        let s = LorenzoStencil::new(2, 1);
        assert_eq!(s.predict(&buf, Shape::d2(2, 2), &[1, 1]), 4.0);
    }

    /// Order-1 Lorenzo is exact when the full mixed difference vanishes —
    /// i.e. on any polynomial without the x·y·z term. This is the defining
    /// property of the predictor.
    #[test]
    fn order1_exact_on_multilinear() {
        let shape = Shape::d3(5, 5, 5);
        let f = |ix: &[usize]| {
            let (x, y, z) = (ix[0] as f64, ix[1] as f64, ix[2] as f64);
            2.0 + 3.0 * x - y + 0.5 * z + 0.25 * x * y - x * z + 0.125 * y * z
        };
        let a = NdArray::<f64>::from_fn(shape, f);
        let s = LorenzoStencil::new(3, 1);
        for ix in shape.indices() {
            if ix[..3].contains(&0) {
                continue;
            }
            let p = s.predict(a.as_slice(), shape, &ix[..3]);
            assert!((p - f(&ix[..3])).abs() < 1e-9, "at {:?}", &ix[..3]);
        }
    }

    /// Order-2 Lorenzo reproduces any (per-axis) quadratic exactly.
    #[test]
    fn order2_exact_on_quadratic() {
        let shape = Shape::d2(8, 8);
        let f = |ix: &[usize]| {
            let (x, y) = (ix[0] as f64, ix[1] as f64);
            1.0 + x + 2.0 * y + 0.5 * x * x - 0.25 * y * y + 0.75 * x * y
        };
        let a = NdArray::<f64>::from_fn(shape, f);
        let s = LorenzoStencil::new(2, 2);
        for ix in shape.indices() {
            if ix[..2].iter().any(|&c| c < 2) {
                continue;
            }
            let p = s.predict(a.as_slice(), shape, &ix[..2]);
            assert!((p - f(&ix[..2])).abs() < 1e-9, "at {:?}", &ix[..2]);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        // Constant fields must be predicted exactly (interior).
        for ndim in 1..=4 {
            for order in 1..=2 {
                let s = LorenzoStencil::new(ndim, order);
                let total: f64 = s.taps.iter().map(|&(_, w)| w).sum();
                assert!((total - 1.0).abs() < 1e-12, "ndim {ndim} order {order}");
            }
        }
    }
}
