//! Dimension and stride bookkeeping for dense row-major arrays.

/// Maximum number of dimensions supported across the workspace.
///
/// The paper's datasets are 1D (HACC, Brown), 2D (CESM), 3D (Nyx, RTM, …)
/// and 4D (EXAFEL), so four is sufficient.
pub const MAX_DIMS: usize = 4;

/// A row-major shape of up to [`MAX_DIMS`] dimensions.
///
/// Stored inline (no allocation) because shapes are copied around hot loops
/// of the predictors. Unused trailing dimensions are 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_DIMS],
    ndim: usize,
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl Shape {
    /// Create a shape from a slice of dimension extents.
    ///
    /// # Panics
    /// Panics if `dims` is empty, longer than [`MAX_DIMS`], or contains a
    /// zero extent.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "shape must have 1..={MAX_DIMS} dims, got {}",
            dims.len()
        );
        assert!(dims.iter().all(|&d| d > 0), "zero-extent dim in {dims:?}");
        let mut d = [1usize; MAX_DIMS];
        d[..dims.len()].copy_from_slice(dims);
        Shape { dims: d, ndim: dims.len() }
    }

    /// 1-dimensional shape.
    pub fn d1(n: usize) -> Self {
        Shape::new(&[n])
    }

    /// 2-dimensional shape (rows, cols).
    pub fn d2(n0: usize, n1: usize) -> Self {
        Shape::new(&[n0, n1])
    }

    /// 3-dimensional shape.
    pub fn d3(n0: usize, n1: usize, n2: usize) -> Self {
        Shape::new(&[n0, n1, n2])
    }

    /// 4-dimensional shape.
    pub fn d4(n0: usize, n1: usize, n2: usize, n3: usize) -> Self {
        Shape::new(&[n0, n1, n2, n3])
    }

    /// The same shape with its axis-0 extent replaced by `rows`: the
    /// shape of an axis-0 slab of `rows` rows.
    ///
    /// # Panics
    /// Panics if `rows` is zero.
    pub fn with_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "zero-row slab of {self:?}");
        self.dims[0] = rows;
        self
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// The dimension extents as a slice of length [`Self::ndim`].
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.ndim]
    }

    /// Extent of dimension `axis` (1 for unused trailing axes).
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims[..self.ndim].iter().product()
    }

    /// Whether the shape holds zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides (in elements) for each dimension.
    pub fn strides(&self) -> [usize; MAX_DIMS] {
        let mut s = [1usize; MAX_DIMS];
        for i in (0..self.ndim.saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.dims[i + 1];
        }
        s
    }

    /// Linear offset of a multi-index. Indices beyond `ndim` are ignored.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim);
        let s = self.strides();
        let mut off = 0;
        for (i, &ix) in idx.iter().enumerate() {
            debug_assert!(ix < self.dims[i], "index {ix} out of bounds {:?}", self.dims());
            off += ix * s[i];
        }
        off
    }

    /// Multi-index of a linear offset (inverse of [`Self::offset`]).
    pub fn unoffset(&self, mut linear: usize) -> [usize; MAX_DIMS] {
        let s = self.strides();
        let mut idx = [0usize; MAX_DIMS];
        for i in 0..self.ndim {
            idx[i] = linear / s[i];
            linear %= s[i];
        }
        idx
    }

    /// Iterate over all multi-indices in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter { shape: *self, next: Some([0; MAX_DIMS]) }
    }
}

/// Row-major iterator over the multi-indices of a [`Shape`].
pub struct IndexIter {
    shape: Shape,
    next: Option<[usize; MAX_DIMS]>,
}

impl Iterator for IndexIter {
    type Item = [usize; MAX_DIMS];

    fn next(&mut self) -> Option<Self::Item> {
        let cur = self.next?;
        // Advance like an odometer, last axis fastest.
        let mut nxt = cur;
        let mut axis = self.shape.ndim;
        loop {
            if axis == 0 {
                self.next = None;
                break;
            }
            axis -= 1;
            nxt[axis] += 1;
            if nxt[axis] < self.shape.dims[axis] {
                self.next = Some(nxt);
                break;
            }
            nxt[axis] = 0;
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::d3(4, 5, 6);
        assert_eq!(&s.strides()[..3], &[30, 6, 1]);
        assert_eq!(s.len(), 120);
    }

    #[test]
    fn with_rows_replaces_axis_0_only() {
        assert_eq!(Shape::d3(4, 5, 6).with_rows(2), Shape::d3(2, 5, 6));
        assert_eq!(Shape::d1(9).with_rows(3), Shape::d1(3));
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::d3(3, 4, 5);
        for idx in s.indices() {
            let off = s.offset(&idx[..3]);
            assert_eq!(s.unoffset(off), idx);
        }
    }

    #[test]
    fn indices_cover_all_in_order() {
        let s = Shape::d2(2, 3);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0][..2], [0, 0]);
        assert_eq!(all[1][..2], [0, 1]);
        assert_eq!(all[3][..2], [1, 0]);
        assert_eq!(all[5][..2], [1, 2]);
    }

    #[test]
    fn one_dim() {
        let s = Shape::d1(7);
        assert_eq!(s.ndim(), 1);
        assert_eq!(s.len(), 7);
        assert_eq!(s.offset(&[3]), 3);
    }

    #[test]
    fn four_dim() {
        let s = Shape::d4(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(&s.strides()[..4], &[60, 20, 5, 1]);
        assert_eq!(s.offset(&[1, 2, 3, 4]), 60 + 40 + 15 + 4);
    }

    #[test]
    #[should_panic]
    fn zero_extent_rejected() {
        let _ = Shape::new(&[3, 0]);
    }

    #[test]
    #[should_panic]
    fn too_many_dims_rejected() {
        let _ = Shape::new(&[1, 2, 3, 4, 5]);
    }
}
