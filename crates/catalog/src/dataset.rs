//! Concurrent, chunk-addressable view of one catalog dataset.

use crate::delta::add_residual;
use crate::error::CatalogError;
use crate::format::DatasetEntry;
use crate::reader::CatalogReader;
use crate::subrange::SubRange;
use rq_compress::{ChunkEntry, ChunkSource, ConcurrentReader, DecompressError, Header};
use rq_grid::{Scalar, Shape};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A whole dataset exposed as one flattened, time-major [`ChunkSource`]:
/// global chunk `step × chunks_per_step + c` is spatial chunk `c` of the
/// *reconstructed* step `step`.
///
/// Every step gets its own [`ConcurrentReader`] over a [`SubRange`] of
/// one file handle the whole dataset shares, so a reader holds one open
/// descriptor however many steps the catalog has; each step keeps its
/// own cursor, and only the seek+read of a fetch takes the shared lock.
/// [`ChunkSource::fetch_chunk`] is self-contained: it decodes the
/// nearest keyframe's chunk and applies
/// the delta chain (at most `keyframe_every - 1` residual decodes),
/// which makes the source safe to wrap in
/// [`rq_serve`](../rq_serve/index.html)-style decoded-chunk caches — a
/// cache hit on `(step, c)` never needs another cache entry to exist.
///
/// Reconstruction uses the same element-wise rule as
/// [`CatalogReader::read_step`], so both paths produce byte-identical
/// values.
pub struct DatasetReader<T: Scalar> {
    entry: DatasetEntry,
    /// Synthesized header: the per-step header with axis 0 stretched to
    /// `n_steps × step_rows` (the flattened time-major extent).
    header: Header,
    /// Flattened chunk table: start rows in flattened coordinates, byte
    /// offsets catalog-absolute.
    entries: Vec<ChunkEntry>,
    chunk_rows: usize,
    chunks_per_step: usize,
    step_rows: usize,
    /// Nearest keyframe at or before each step.
    keyframes: Vec<usize>,
    steps: Vec<ConcurrentReader<SubRange<SharedFile>>>,
    _scalar: std::marker::PhantomData<fn() -> T>,
}

impl<T: Scalar> DatasetReader<T> {
    /// Open dataset `name` of the catalog at `path`.
    pub fn open_path(path: impl AsRef<Path>, name: &str) -> Result<Self, CatalogError> {
        let path = path.as_ref();
        let cat = CatalogReader::open_path(path)?;
        let entry = cat.dataset(name)?.clone();
        drop(cat);
        if entry.scalar_tag != T::TAG {
            return Err(CatalogError::ScalarMismatch {
                expected: entry.scalar_tag,
                found: T::TAG,
            });
        }

        let file = Arc::new(Mutex::new(File::open(path)?));
        let mut steps = Vec::with_capacity(entry.steps.len());
        for s in &entry.steps {
            let handle = SharedFile { file: Arc::clone(&file), pos: 0 };
            steps.push(ConcurrentReader::open(SubRange::new(handle, s.offset, s.len)?)?);
        }

        let step_rows = entry.shape.dim(0);
        let first = &steps[0];
        if first.header().scalar_tag != T::TAG {
            return Err(CatalogError::Corrupt("segment scalar tag differs from the index"));
        }
        if first.header().shape.dims() != entry.shape.dims() {
            return Err(CatalogError::Corrupt("segment shape differs from the index"));
        }
        let chunk_rows = first.chunk_rows();
        let chunks_per_step = first.n_chunks();
        for r in &steps {
            if r.n_chunks() != chunks_per_step
                || r.header().shape.dims() != entry.shape.dims()
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

        let mut entries = Vec::with_capacity(chunks_per_step * entry.steps.len());
        for (t, (r, s)) in steps.iter().zip(&entry.steps).enumerate() {
            for e in r.entries() {
                entries.push(ChunkEntry {
                    start_row: t * step_rows + e.start_row,
                    offset: s.offset as usize + e.offset,
                    ..*e
                });
            }
        }

        let mut keyframes = Vec::with_capacity(entry.steps.len());
        let mut last_kf = 0;
        for (t, s) in entry.steps.iter().enumerate() {
            if s.keyframe {
                last_kf = t;
            }
            keyframes.push(last_kf);
        }

        Ok(DatasetReader {
            entry,
            header,
            entries,
            chunk_rows,
            chunks_per_step,
            step_rows,
            keyframes,
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
        self.step_rows
    }

    /// Spatial chunks per step.
    pub fn chunks_per_step(&self) -> usize {
        self.chunks_per_step
    }

    /// The per-step field shape.
    pub fn step_shape(&self) -> Shape {
        self.entry.shape
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

impl<T: Scalar> ChunkSource<T> for DatasetReader<T> {
    fn header(&self) -> &Header {
        &self.header
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
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
        let step = idx / self.chunks_per_step;
        let c = idx % self.chunks_per_step;
        let kf = self.keyframes[step];
        let (_, key, _) = self.steps[kf].read_chunk::<T>(c)?;
        let mut cur = key.into_vec();
        for t in kf + 1..=step {
            let (_, resid, _) = self.steps[t].read_chunk::<T>(c)?;
            cur = add_residual(&cur, resid.as_slice());
        }
        Ok(cur.into())
    }
}

/// One open file shared by every step of a [`DatasetReader`], read
/// through a cursor of its own: a read seeks the file to this handle's
/// position and reads, both under the shared lock.
struct SharedFile {
    file: Arc<Mutex<File>>,
    pos: u64,
}

impl SharedFile {
    /// A poisoned lock is taken as is: every use seeks before it reads,
    /// so a file position left behind by a panic is never relied on.
    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Read for SharedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = {
            let mut file = self.lock();
            file.seek(SeekFrom::Start(self.pos))?;
            file.read(buf)?
        };
        self.pos += n as u64;
        Ok(n)
    }
}

impl Seek for SharedFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.pos = match pos {
            SeekFrom::Start(at) => at,
            relative => {
                let mut file = self.lock();
                file.seek(SeekFrom::Start(self.pos))?;
                file.seek(relative)?
            }
        };
        Ok(self.pos)
    }
}
