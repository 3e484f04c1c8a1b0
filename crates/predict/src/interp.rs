//! Multi-level interpolation predictor (Zhao et al., ICDE'21 \[36\]).
//!
//! The field is refined level by level. At each level with stride `s` the
//! lattice of known points has spacing `2s`; one pass per dimension
//! predicts the points whose coordinate along that dimension is an odd
//! multiple of `s`, from their neighbors at `±s` (and `±3s` for the cubic
//! stencil) along the same line. After the `s = 1` level every point has
//! been visited exactly once.
//!
//! The traversal has one definition, the pass table ([`passes`]): one
//! [`Pass`] per (level, axis), each a lattice of targets in row-major
//! order. The passes in order, and the targets `0..len()` of each in order,
//! are the causal order the container format is defined by. Two consumers
//! read it:
//!
//! * the sampler ([`crate::sample_prediction_errors`]) asks a pass for its
//!   `j`-th target directly ([`Pass::targets`]), so keeping 1 % of the
//!   targets costs 1 % of the stencils — and reaches every level in
//!   proportion to its size (paper §III-C2: "the sampling data in the
//!   current level is 2⁻ⁿ of the previous level");
//! * the chunk kernel takes a pass a *line* at a time ([`Pass::lines`]):
//!   the targets that share every coordinate but the last axis. Every
//!   stencil source of a pass was finished by an earlier pass, so a whole
//!   line can be predicted before any of it is reconstructed
//!   ([`Pass::predict_line`]), and off the interpolation axis one stencil
//!   kind serves the whole line.

use rq_grid::{Shape, MAX_DIMS};

/// How a target point is predicted from its along-axis neighbors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StencilKind {
    /// Cubic: neighbors at −3s, −s, +s, +3s with weights (−1, 9, 9, −1)/16.
    Cubic([usize; 4]),
    /// Linear: neighbors at −s, +s with weights (1/2, 1/2).
    Linear([usize; 2]),
    /// Copy the single in-range neighbor at −s.
    CopyLeft(usize),
}

/// One interpolation target: where, from what, at which level.
#[derive(Clone, Copy, Debug)]
pub struct InterpTarget {
    /// Linear (row-major) index of the predicted point.
    pub target: usize,
    /// Stencil (linear indices of source points).
    pub kind: StencilKind,
    /// Level stride `s` (power of two, 1 = finest level).
    pub stride: usize,
    /// Axis along which this point is interpolated.
    pub axis: usize,
}

impl InterpTarget {
    /// Evaluate the prediction against `buf`.
    #[inline]
    pub fn predict(&self, buf: &[f64]) -> f64 {
        self.predict_with(|lin| buf[lin])
    }

    /// [`Self::predict`] with an arbitrary value accessor (see
    /// [`crate::lorenzo::LorenzoStencil::predict_with`]).
    #[inline]
    pub fn predict_with(&self, get: impl Fn(usize) -> f64) -> f64 {
        match self.kind {
            StencilKind::Cubic([a, b, c, d]) => {
                (-get(a) + 9.0 * get(b) + 9.0 * get(c) - get(d)) / 16.0
            }
            StencilKind::Linear([a, b]) => 0.5 * (get(a) + get(b)),
            StencilKind::CopyLeft(a) => get(a),
        }
    }
}

/// The anchor stride: the smallest power of two ≥ every dimension extent.
/// Anchor points (all coordinates multiples of this) are stored verbatim.
pub fn anchor_stride(shape: Shape) -> usize {
    let max_extent = shape.dims().iter().copied().max().unwrap_or(1);
    max_extent.next_power_of_two().max(2)
}

/// Linear indices of the anchor points, in row-major order.
pub fn anchors(shape: Shape) -> Vec<usize> {
    let a = anchor_stride(shape);
    let nd = shape.ndim();
    let mut out = Vec::new();
    let mut idx = [0usize; MAX_DIMS];
    collect_lattice(shape, &mut idx, 0, a, nd, &mut out);
    out
}

fn collect_lattice(
    shape: Shape,
    idx: &mut [usize; MAX_DIMS],
    axis: usize,
    step: usize,
    nd: usize,
    out: &mut Vec<usize>,
) {
    if axis == nd {
        out.push(shape.offset(&idx[..nd]));
        return;
    }
    let mut c = 0;
    while c < shape.dim(axis) {
        idx[axis] = c;
        collect_lattice(shape, idx, axis + 1, step, nd, out);
        c += step;
    }
}

/// The stencil of the target at linear index `lin` whose coordinate along
/// `axis` (extent `extent`, `stride_lin` elements per step) is `t`, an odd
/// multiple of the level stride `s`.
#[inline(always)]
fn stencil_at(
    lin: usize,
    t: usize,
    extent: usize,
    stride_lin: usize,
    s: usize,
    axis: usize,
) -> InterpTarget {
    // Neighbors along `axis` at ±s and ±3s (in elements of that axis).
    let left1 = lin - s * stride_lin; // t >= s always holds
    let kind = if t + s < extent {
        let right1 = lin + s * stride_lin;
        if t >= 3 * s && t + 3 * s < extent {
            StencilKind::Cubic([lin - 3 * s * stride_lin, left1, right1, lin + 3 * s * stride_lin])
        } else {
            StencilKind::Linear([left1, right1])
        }
    } else {
        StencilKind::CopyLeft(left1)
    };
    InterpTarget { target: lin, kind, stride: s, axis }
}

/// One (level, axis) pass of the traversal as a table: how many targets it
/// has, which one is the `j`-th without walking the ones before it, and
/// which lines they fall into.
///
/// The traversal visits the passes of [`passes`] in order and, within a
/// pass, the targets `0..len()` in order; a consumer that needs only some
/// of the targets (the model keeps ~1 % of them) pays for those and for
/// nothing else.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Level stride `s` (power of two, 1 = finest level).
    pub stride: usize,
    /// Axis along which this pass interpolates.
    pub axis: usize,
    /// Per dimension: first coordinate, coordinate step, coordinate count.
    lattice: [(usize, usize, usize); MAX_DIMS],
    strides: [usize; MAX_DIMS],
    extent: usize,
    ndim: usize,
    len: usize,
}

impl Pass {
    fn new(shape: Shape, s: usize, axis: usize) -> Self {
        let nd = shape.ndim();
        let mut lattice = [(0, 1, 1); MAX_DIMS];
        let mut len = 1usize;
        for (d, slot) in lattice.iter_mut().enumerate().take(nd) {
            // Spacing of the pass's targets: odd multiples of s along
            // `axis`, s before it (already refined this level), 2s after
            // it (not yet refined).
            let (first, step) = match d.cmp(&axis) {
                std::cmp::Ordering::Less => (0, s),
                std::cmp::Ordering::Equal => (s, 2 * s),
                std::cmp::Ordering::Greater => (0, 2 * s),
            };
            let count = shape.dim(d).saturating_sub(first).div_ceil(step);
            *slot = (first, step, count);
            len *= count;
        }
        Pass {
            stride: s,
            axis,
            lattice,
            strides: shape.strides(),
            extent: shape.dim(axis),
            ndim: nd,
            len,
        }
    }

    /// Number of targets in this pass.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pass has no target (extent ≤ stride along its axis).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `j`-th target of the pass, in traversal (row-major) order: `j`
    /// is read as a mixed-radix number over the pass's lattice.
    ///
    /// # Panics
    /// Panics if `j >= self.len()`.
    #[inline]
    pub fn target(&self, j: usize) -> InterpTarget {
        assert!(j < self.len, "target {j} of a pass of {}", self.len);
        PassTargets::at(self, j, 1).current()
    }

    /// Targets `first`, `first + step`, `first + 2·step`, … of the pass, in
    /// order, while they are inside it. `first` is split into its
    /// mixed-radix digits once; every later target is reached by adding
    /// `step` to them with carry, which at `step` 1 is an increment.
    pub fn targets(&self, first: usize, step: usize) -> impl Iterator<Item = InterpTarget> + '_ {
        assert!(step > 0, "a step of 0 never leaves its target");
        PassTargets::at(self, first, step)
    }

    /// The lines of the pass, in order: concatenated, their targets are
    /// `targets(0, 1)`.
    pub fn lines(&self) -> impl Iterator<Item = Line> + '_ {
        let (_, step, len) = self.lattice[self.ndim - 1];
        // Every `len`-th target starts a line; an empty pass has none.
        self.targets(0, len.max(1)).map(move |head| Line {
            first: head.target,
            step,
            len,
            coord: head.target / self.strides[self.axis] % self.extent,
        })
    }

    /// The `k`-th target of `line`, a line of this pass.
    #[inline]
    pub fn line_target(&self, line: Line, k: usize) -> InterpTarget {
        debug_assert!(k < line.len);
        let along = if self.axis + 1 == self.ndim { k * line.step } else { 0 };
        stencil_at(
            line.first + k * line.step,
            line.coord + along,
            self.extent,
            self.strides[self.axis],
            self.stride,
            self.axis,
        )
    }

    /// Predict every target of `line` from `buf` into `out`
    /// (`out.len() == line.len`): [`InterpTarget::predict`] of each, in
    /// order, without building each stencil. No target of a pass is a
    /// source of the pass, so `buf` need not hold the line itself yet.
    ///
    /// Off the interpolation axis the whole line shares one stencil kind
    /// and its sources are the line itself shifted by `±s`, `±3s` along the
    /// axis; along it, every target but the first and the last two is
    /// cubic. Either way the body of the line is one loop over strided
    /// slices.
    pub fn predict_line(&self, line: Line, buf: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), line.len, "one prediction per target of the line");
        let mut body = 0..line.len;
        if self.axis + 1 == self.ndim {
            let is_cubic = |k| matches!(self.line_target(line, k).kind, StencilKind::Cubic(_));
            body.start = line.len.min(1);
            while body.end > body.start && !is_cubic(body.end - 1) {
                body.end -= 1;
            }
        }
        for k in (0..body.start).chain(body.end..line.len) {
            out[k] = self.line_target(line, k).predict(buf);
        }
        if body.is_empty() {
            return;
        }
        // Source `from` of the body's first target, and the same source of
        // every later one.
        let span = (body.len() - 1) * line.step + 1;
        let along = |from: usize| buf[from..from + span].iter().step_by(line.step);
        let out = &mut out[body.clone()];
        match self.line_target(line, body.start).kind {
            StencilKind::Cubic([a, b, c, d]) => {
                let sources = along(a).zip(along(b)).zip(along(c)).zip(along(d));
                for (o, (((a, b), c), d)) in out.iter_mut().zip(sources) {
                    *o = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
                }
            }
            StencilKind::Linear([a, b]) => {
                for (o, (a, b)) in out.iter_mut().zip(along(a).zip(along(b))) {
                    *o = 0.5 * (a + b);
                }
            }
            StencilKind::CopyLeft(a) => {
                for (o, a) in out.iter_mut().zip(along(a)) {
                    *o = *a;
                }
            }
        }
    }
}

/// The targets of one [`Pass`] that share every coordinate but the last
/// axis: `first`, `first + step`, … (`len` of them), in traversal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line {
    /// Linear index of the first target.
    pub first: usize,
    /// Linear distance from one target to the next (the pass's coordinate
    /// step along the last axis).
    pub step: usize,
    /// Number of targets.
    pub len: usize,
    /// Coordinate of the first target along the pass's axis (of every
    /// target, unless that is the last axis).
    pub coord: usize,
}

impl Line {
    /// Linear indices of the targets, in order.
    pub fn targets(&self) -> impl Iterator<Item = usize> {
        (self.first..).step_by(self.step).take(self.len)
    }
}

/// Iterator of [`Pass::targets`].
struct PassTargets<'a> {
    pass: &'a Pass,
    /// Index in the pass of the target `digits` spell, `≥ len` once done.
    j: usize,
    step: usize,
    digits: [usize; MAX_DIMS],
}

impl<'a> PassTargets<'a> {
    fn at(pass: &'a Pass, first: usize, step: usize) -> Self {
        let mut digits = [0usize; MAX_DIMS];
        let mut rest = first;
        for d in (0..pass.ndim).rev() {
            let count = pass.lattice[d].2.max(1);
            digits[d] = rest % count;
            rest /= count;
        }
        PassTargets { pass, j: first, step, digits }
    }

    /// The target `digits` spell.
    #[inline]
    fn current(&self) -> InterpTarget {
        let pass = self.pass;
        let mut lin = 0usize;
        for d in 0..pass.ndim {
            let (first, step, _) = pass.lattice[d];
            lin += (first + self.digits[d] * step) * pass.strides[d];
        }
        let (first, step, _) = pass.lattice[pass.axis];
        let t = first + self.digits[pass.axis] * step;
        stencil_at(lin, t, pass.extent, pass.strides[pass.axis], pass.stride, pass.axis)
    }
}

impl Iterator for PassTargets<'_> {
    type Item = InterpTarget;

    #[inline]
    fn next(&mut self) -> Option<InterpTarget> {
        if self.j >= self.pass.len {
            return None;
        }
        let target = self.current();
        self.j += self.step;
        let mut carry = self.step;
        for d in (0..self.pass.ndim).rev() {
            let (sum, count) = (self.digits[d] + carry, self.pass.lattice[d].2);
            if sum < count {
                self.digits[d] = sum;
                break;
            }
            self.digits[d] = sum % count;
            carry = sum / count;
        }
        Some(target)
    }
}

/// The passes of the traversal, in its order: levels from coarsest
/// (`stride = anchor_stride / 2`) to finest (`stride = 1`), one pass per
/// axis within a level (axis 0 first). Every non-anchor point is a target
/// of exactly one pass, and every stencil source is either an anchor or a
/// target of an earlier pass.
pub fn passes(shape: Shape) -> Vec<Pass> {
    let mut out = Vec::new();
    let mut s = anchor_stride(shape) / 2;
    while s >= 1 {
        out.extend((0..shape.ndim()).map(|axis| Pass::new(shape, s, axis)));
        s /= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::NdArray;

    #[test]
    fn anchor_stride_is_pow2_covering() {
        assert_eq!(anchor_stride(Shape::d1(512)), 512);
        assert_eq!(anchor_stride(Shape::d1(513)), 1024);
        assert_eq!(anchor_stride(Shape::d3(100, 500, 20)), 512);
        assert_eq!(anchor_stride(Shape::d1(1)), 2);
    }

    #[test]
    fn every_point_visited_exactly_once() {
        for shape in [Shape::d1(37), Shape::d2(16, 16), Shape::d2(17, 9), Shape::d3(13, 8, 21)] {
            let mut seen = vec![0u32; shape.len()];
            for &a in &anchors(shape) {
                seen[a] += 1;
            }
            for pass in passes(shape) {
                for t in pass.targets(0, 1) {
                    seen[t.target] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "shape {:?}: min {:?} max {:?}",
                shape.dims(),
                seen.iter().min(),
                seen.iter().max()
            );
        }
    }

    #[test]
    fn causality_sources_precede_targets() {
        // Every stencil source must already be known (anchor or earlier
        // target) when its target is visited.
        let shape = Shape::d3(9, 14, 6);
        let mut known = vec![false; shape.len()];
        for &a in &anchors(shape) {
            known[a] = true;
        }
        for pass in passes(shape) {
            for t in pass.targets(0, 1) {
                let sources: Vec<usize> = match t.kind {
                    StencilKind::Cubic(s) => s.to_vec(),
                    StencilKind::Linear(s) => s.to_vec(),
                    StencilKind::CopyLeft(s) => vec![s],
                };
                for src in sources {
                    assert!(known[src], "target {} uses unknown source {}", t.target, src);
                }
                assert!(!known[t.target], "target {} visited twice", t.target);
                known[t.target] = true;
            }
        }
        assert!(known.iter().all(|&k| k));
    }

    #[test]
    fn linear_field_predicted_exactly() {
        // On a linear ramp both cubic and linear stencils are exact, so all
        // prediction errors are 0 (except copy-left boundaries).
        let shape = Shape::d2(16, 16);
        let a = NdArray::<f64>::from_fn(shape, |ix| ix[0] as f64 + 2.0 * ix[1] as f64);
        for pass in passes(shape) {
            for t in pass.targets(0, 1) {
                if matches!(t.kind, StencilKind::CopyLeft(_)) {
                    continue;
                }
                let p = t.predict(a.as_slice());
                let actual = a.as_slice()[t.target];
                assert!((p - actual).abs() < 1e-9, "target {} {:?}", t.target, t.kind);
            }
        }
    }

    #[test]
    fn cubic_exact_on_cubic_polynomial() {
        // Cubic interpolation reproduces cubics along the axis exactly.
        let shape = Shape::d1(64);
        let f = |x: f64| 0.5 * x * x * x - 2.0 * x * x + x - 3.0;
        let a = NdArray::<f64>::from_fn(shape, |ix| f(ix[0] as f64));
        for pass in passes(shape) {
            for t in pass.targets(0, 1) {
                if let StencilKind::Cubic(_) = t.kind {
                    let p = t.predict(a.as_slice());
                    assert!(
                        (p - a.as_slice()[t.target]).abs() < 1e-6,
                        "target {} stride {}",
                        t.target,
                        t.stride
                    );
                }
            }
        }
    }

    /// Shapes with extents 1, 2, 3, 5, 17 and 96 in every position a
    /// dimension can take, 1-D to 4-D.
    fn table_shapes() -> Vec<Shape> {
        let mut shapes: Vec<Shape> = [1, 2, 3, 5, 17, 96].iter().map(|&n| Shape::d1(n)).collect();
        shapes.extend([
            Shape::d2(1, 1),
            Shape::d2(2, 17),
            Shape::d2(17, 2),
            Shape::d2(96, 5),
            Shape::d2(3, 96),
            Shape::d3(1, 5, 1),
            Shape::d3(2, 3, 5),
            Shape::d3(17, 1, 96),
            Shape::d3(5, 17, 3),
            Shape::d3(96, 2, 2),
            Shape::d4(1, 2, 3, 5),
            Shape::d4(5, 3, 2, 1),
            Shape::d4(3, 17, 1, 5),
            Shape::d4(2, 2, 17, 3),
        ]);
        shapes
    }

    #[test]
    fn pass_table_is_the_traversal_target_for_target() {
        for shape in table_shapes() {
            let mut walked = Vec::new();
            for pass in passes(shape) {
                walked.extend(pass.targets(0, 1));
            }
            let mut next = 0usize;
            for pass in passes(shape) {
                for j in 0..pass.len() {
                    let (t, w) = (pass.target(j), walked[next]);
                    assert_eq!(
                        (t.target, t.kind, t.stride, t.axis),
                        (w.target, w.kind, w.stride, w.axis),
                        "shape {:?}, pass (stride {}, axis {}), target {j}",
                        shape.dims(),
                        pass.stride,
                        pass.axis
                    );
                    assert_eq!((t.stride, t.axis), (pass.stride, pass.axis));
                    next += 1;
                }
            }
            assert_eq!(next, walked.len(), "shape {:?}: the table is short", shape.dims());
        }
    }

    /// The lines of every pass, concatenated, are the traversal — targets,
    /// stencils and all — and a line predicted whole is each of its
    /// targets predicted alone, bit for bit.
    #[test]
    fn lines_concatenate_to_the_traversal_and_predict_like_their_targets() {
        let id = |t: InterpTarget| (t.target, t.kind, t.stride, t.axis);
        let mut shapes = table_shapes();
        shapes.extend([Shape::d3(8, 96, 96), Shape::d3(7, 33, 65)]);
        for shape in shapes {
            // Nothing smooth: a wrong source or weight must show.
            let buf: Vec<f64> = (0..shape.len())
                .map(|i| ((i as f64) * 0.7310585).sin() * (1.0 + (i % 13) as f64))
                .collect();
            let mut walked = Vec::new();
            for pass in passes(shape) {
                walked.extend(pass.targets(0, 1).map(id));
            }
            let mut lined = Vec::new();
            for pass in passes(shape) {
                let before = lined.len();
                for line in pass.lines() {
                    assert!(line.len > 0, "{:?}: an empty line", shape.dims());
                    let mut predicted = vec![f64::NAN; line.len];
                    pass.predict_line(line, &buf, &mut predicted);
                    for (k, lin) in line.targets().enumerate() {
                        let t = pass.line_target(line, k);
                        assert_eq!(t.target, lin);
                        assert_eq!(
                            predicted[k].to_bits(),
                            t.predict(&buf).to_bits(),
                            "{:?}, pass (stride {}, axis {}), target {lin}",
                            shape.dims(),
                            pass.stride,
                            pass.axis
                        );
                        lined.push(id(t));
                    }
                }
                assert_eq!(lined.len() - before, pass.len());
            }
            assert_eq!(lined, walked, "shape {:?}", shape.dims());
        }
    }

    #[test]
    fn stepping_through_a_pass_with_carry_lands_on_the_indexed_targets() {
        let id = |t: InterpTarget| (t.target, t.kind, t.stride, t.axis);
        for shape in table_shapes() {
            for pass in passes(shape) {
                for (first, step) in [(0, 1), (0, 2), (1, 3), (5, 7), (2, 99), (4, 10_000)] {
                    let stepped: Vec<_> = pass.targets(first, step).map(id).collect();
                    let indexed: Vec<_> =
                        (first..pass.len()).step_by(step).map(|j| id(pass.target(j))).collect();
                    assert_eq!(stepped, indexed, "{:?}, from {first} by {step}", shape.dims());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "of a pass of")]
    fn pass_target_out_of_range_panics() {
        let pass = passes(Shape::d1(5))[0];
        let _ = pass.target(pass.len());
    }

    #[test]
    fn degenerate_single_point() {
        let shape = Shape::d1(1);
        assert_eq!(anchors(shape), vec![0]);
        let mut n = 0;
        for pass in passes(shape) {
            for _ in pass.targets(0, 1) {
                n += 1;
            }
        }
        assert_eq!(n, 0);
    }
}
