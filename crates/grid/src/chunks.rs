//! Axis-0 slab chunking for parallel compression.
//!
//! A *chunk* is a contiguous run of rows along the slowest-varying axis.
//! Because the workspace's arrays are row-major, an axis-0 slab is a
//! contiguous slice of the element buffer — chunking therefore needs no
//! copies: each chunk is `(element offset, element count)` plus its own
//! [`Shape`] whose axis-0 extent is the slab's row count.
//!
//! The chunk-parallel compressor treats each slab as an independent field:
//! predictor stencils (Lorenzo / interpolation / regression) reset at slab
//! boundaries so chunks can be compressed and decompressed concurrently and
//! addressed individually (random access).

use crate::shape::Shape;

/// One axis-0 slab of a partitioned field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Position of this chunk in the partition (0-based).
    pub index: usize,
    /// First axis-0 row covered by the chunk.
    pub start_row: usize,
    /// Number of axis-0 rows in the chunk (the last chunk may be short).
    pub rows: usize,
    /// Shape of the slab viewed as a standalone field
    /// (`[rows, dims[1..]]`).
    pub shape: Shape,
    /// Element offset of the slab in the parent's row-major buffer.
    pub offset: usize,
    /// Element count of the slab (`shape.len()`).
    pub len: usize,
}

/// Partition `shape` into axis-0 slabs of `chunk_rows` rows each (the last
/// slab takes the remainder). `chunk_rows` is clamped to the axis-0 extent,
/// so the result always has at least one chunk.
///
/// # Panics
/// Panics if `chunk_rows == 0`.
pub fn slab_chunks(shape: Shape, chunk_rows: usize) -> Vec<ChunkSpec> {
    assert!(chunk_rows > 0, "chunk_rows must be positive");
    let d0 = shape.dim(0);
    let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    let mut out = Vec::with_capacity(d0.div_ceil(chunk_rows));
    let mut start_row = 0;
    while start_row < d0 {
        let rows = chunk_rows.min(d0 - start_row);
        out.push(ChunkSpec {
            index: out.len(),
            start_row,
            rows,
            shape: shape.with_rows(rows),
            offset: start_row * row_elems,
            len: rows * row_elems,
        });
        start_row += rows;
    }
    out
}

/// Number of axis-0 rows per chunk that yields roughly `target_chunks`
/// chunks while keeping every chunk at least `min_elems` elements (so
/// per-chunk codebook/section overhead stays amortized). Always in
/// `1..=dim(0)`.
pub fn auto_chunk_rows(shape: Shape, target_chunks: usize, min_elems: usize) -> usize {
    let d0 = shape.dim(0);
    let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    let by_count = d0.div_ceil(target_chunks.max(1));
    let by_size = min_elems.div_ceil(row_elems);
    by_count.max(by_size).clamp(1, d0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_partition_3d() {
        let chunks = slab_chunks(Shape::d3(8, 5, 7), 2);
        assert_eq!(chunks.len(), 4);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.start_row, i * 2);
            assert_eq!(c.rows, 2);
            assert_eq!(c.shape.dims(), &[2, 5, 7]);
            assert_eq!(c.offset, i * 2 * 35);
            assert_eq!(c.len, 70);
        }
    }

    #[test]
    fn remainder_chunk_is_short() {
        let chunks = slab_chunks(Shape::d2(10, 3), 4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].rows, 2);
        assert_eq!(chunks[2].shape.dims(), &[2, 3]);
        assert_eq!(chunks[2].offset, 24);
        assert_eq!(chunks[2].len, 6);
    }

    #[test]
    fn chunks_tile_the_buffer_exactly() {
        let shape = Shape::d3(13, 4, 6);
        for rows in [1, 2, 3, 5, 13, 100] {
            let chunks = slab_chunks(shape, rows);
            let mut expect = 0;
            for c in &chunks {
                assert_eq!(c.offset, expect, "rows={rows}");
                assert_eq!(c.len, c.shape.len());
                expect += c.len;
            }
            assert_eq!(expect, shape.len(), "rows={rows}");
        }
    }

    #[test]
    fn oversized_chunk_rows_gives_single_chunk() {
        let chunks = slab_chunks(Shape::d1(5), 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].rows, 5);
        assert_eq!(chunks[0].len, 5);
    }

    #[test]
    fn one_dimensional_slabs() {
        let chunks = slab_chunks(Shape::d1(10), 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3].rows, 1);
        assert_eq!(chunks[1].offset, 3);
    }

    #[test]
    fn auto_rows_targets_chunk_count() {
        // Large field: the count target dominates.
        let rows = auto_chunk_rows(Shape::d3(256, 256, 256), 16, 1 << 15);
        assert_eq!(rows, 16);
        // Small field: the min-size floor dominates.
        let rows = auto_chunk_rows(Shape::d2(64, 8), 16, 1 << 15);
        assert_eq!(rows, 64);
        // Never exceeds the axis extent, never zero.
        assert_eq!(auto_chunk_rows(Shape::d1(3), 16, 1), 1);
        assert_eq!(auto_chunk_rows(Shape::d1(3), 1, 1 << 20), 3);
    }

    #[test]
    #[should_panic]
    fn zero_rows_rejected() {
        let _ = slab_chunks(Shape::d1(4), 0);
    }
}
