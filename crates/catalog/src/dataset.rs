//! Concurrent, chunk-addressable view of one catalog dataset.

use crate::delta::walk_chain;
use crate::error::CatalogError;
use crate::format::DatasetEntry;
use crate::reader::{check_segment, CatalogReader};
use crate::subrange::SubRange;
use rq_compress::{ArchiveReader, ChunkEntry, ChunkSource, DecompressError, Header};
use rq_grid::Scalar;
use std::fs::File;
use std::io::{Read, Seek};
use std::sync::Arc;

/// A whole dataset exposed as one flattened, time-major [`ChunkSource`]:
/// global chunk `step × chunks_per_step + c` is spatial chunk `c` of the
/// *reconstructed* step `step`.
///
/// Built by [`DatasetReader::open`] from a [`CatalogReader`]'s parsed
/// index: every step gets its own [`ArchiveReader`] over a
/// [`SubRange`] window of the catalog's one source, so any number of
/// datasets and steps read through one open descriptor; each step keeps
/// its own cursor, and only the seek+read of a fetch takes the source's
/// lock. [`ChunkSource::fetch_chunk`] is self-contained: it decodes the
/// nearest keyframe's chunk and applies
/// the delta chain (at most `keyframe_every - 1` residual decodes),
/// which makes the source safe to wrap in
/// [`rq_serve`](../rq_serve/index.html)-style decoded-chunk caches — a
/// cache hit on `(step, c)` never needs another cache entry to exist.
///
/// Reconstruction uses the same element-wise rule as
/// [`CatalogReader::read_step`], so both paths produce byte-identical
/// values.
pub struct DatasetReader<T: Scalar, R: Read + Seek = File> {
    entry: DatasetEntry,
    /// Synthesized header: the per-step header with axis 0 stretched to
    /// `n_steps × step_rows` (the flattened time-major extent).
    header: Header,
    /// Flattened chunk table: start rows in flattened coordinates, byte
    /// offsets catalog-absolute.
    entries: Vec<ChunkEntry>,
    /// One reader per step; all share step 0's chunk partition.
    steps: Vec<ArchiveReader<SubRange<R>>>,
    _scalar: std::marker::PhantomData<fn() -> T>,
}

impl<T: Scalar, R: Read + Seek> DatasetReader<T, R> {
    /// Open dataset `name` of `cat` from its parsed index, reading
    /// through windows of `cat`'s source (which the reader keeps open).
    pub fn open(cat: &CatalogReader<R>, name: &str) -> Result<Self, CatalogError> {
        let entry = cat.dataset(name)?.clone();
        if entry.scalar_tag != T::TAG {
            return Err(CatalogError::ScalarMismatch {
                expected: entry.scalar_tag,
                found: T::TAG,
            });
        }
        let steps = entry
            .steps
            .iter()
            .map(|s| ArchiveReader::open(cat.window(s)))
            .collect::<Result<Vec<_>, _>>()?;

        let step_rows = entry.shape.dim(0);
        let first = &steps[0];
        // Every segment, not only step 0's: a later one of another scalar
        // type or shape is refused here in `read_step`'s words, not at
        // fetch time in a decoder's.
        for r in &steps {
            check_segment::<T>(r.header(), entry.shape)?;
            if r.n_chunks() != first.n_chunks()
                || r.entries()
                    .iter()
                    .zip(first.entries())
                    .any(|(a, b)| a.start_row != b.start_row || a.rows != b.rows)
            {
                return Err(CatalogError::Corrupt("step chunk partitions differ"));
            }
        }

        let flat_rows = step_rows
            .checked_mul(entry.steps.len())
            .ok_or(CatalogError::Corrupt("flattened extent overflows"))?;
        let mut header = first.header().clone();
        header.shape = entry.shape.with_rows(flat_rows);

        let mut entries = Vec::with_capacity(first.n_chunks() * entry.steps.len());
        for (t, (r, s)) in steps.iter().zip(&entry.steps).enumerate() {
            for e in r.entries() {
                entries.push(ChunkEntry {
                    start_row: t * step_rows + e.start_row,
                    offset: s.offset as usize + e.offset,
                    ..*e
                });
            }
        }

        Ok(DatasetReader {
            entry,
            header,
            entries,
            steps,
            _scalar: std::marker::PhantomData,
        })
    }

    /// The catalog index entry this reader serves.
    pub fn entry(&self) -> &DatasetEntry {
        &self.entry
    }

    /// Time steps in the dataset.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Axis-0 rows of one step.
    pub fn step_rows(&self) -> usize {
        self.entry.shape.dim(0)
    }

    /// Spatial chunks per step.
    pub fn chunks_per_step(&self) -> usize {
        self.steps[0].n_chunks()
    }

    /// Decode counters aggregated across every step's reader.
    pub fn stats(&self) -> rq_compress::ReadStats {
        let mut agg = rq_compress::ReadStats::default();
        for r in &self.steps {
            let s = r.stats();
            agg.chunks_total += s.chunks_total;
            agg.chunks_decoded += s.chunks_decoded;
            agg.blob_bytes_read += s.blob_bytes_read;
            agg.reorder_copies += s.reorder_copies;
        }
        agg
    }
}

impl<T: Scalar, R: Read + Seek + Send> ChunkSource<T> for DatasetReader<T, R> {
    fn header(&self) -> &Header {
        &self.header
    }

    fn chunk_rows(&self) -> usize {
        self.steps[0].chunk_rows()
    }

    fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[T]>, DecompressError> {
        if idx >= self.entries.len() {
            return Err(DecompressError::ChunkOutOfRange {
                requested: idx,
                available: self.entries.len(),
            });
        }
        let (step, c) = (idx / self.chunks_per_step(), idx % self.chunks_per_step());
        let kf = self
            .entry
            .keyframe_before(step)
            .ok_or(DecompressError::Corrupt("no keyframe at or before the step"))?;
        let chunk_of = |t: usize| -> Result<Vec<T>, DecompressError> {
            Ok(self.steps[t].read_chunk::<T>(c)?.1.into_vec())
        };
        let mut cur = chunk_of(kf)?;
        walk_chain(&mut cur, kf, step, chunk_of)?;
        Ok(cur.into())
    }
}
