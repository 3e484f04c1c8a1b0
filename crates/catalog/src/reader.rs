//! Sequential catalog reader.

use crate::delta::walk_chain;
use crate::error::CatalogError;
use crate::format::{
    parse_trailer, CatalogIndex, DatasetEntry, StepEntry, CATALOG_MAGIC, CATALOG_VERSION,
    PREAMBLE_LEN, TRAILER_MAGIC, TRAILER_SUFFIX_LEN,
};
use crate::subrange::SubRange;
use rq_compress::{ArchiveReader, Header};
use rq_grid::{NdArray, Scalar, Shape};
use std::any::Any;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A segment whose header disagrees with its dataset's index entry is a
/// corrupt catalog, whichever reader opens it, in one wording.
pub(crate) fn check_segment<T: Scalar>(header: &Header, shape: Shape) -> Result<(), CatalogError> {
    if header.scalar_tag != T::TAG {
        return Err(CatalogError::Corrupt("segment scalar tag differs from the index"));
    }
    if header.shape.dims() != shape.dims() {
        return Err(CatalogError::Corrupt("segment shape differs from the index"));
    }
    Ok(())
}

/// Lazy-index reader over any `Read + Seek` source.
///
/// Opening parses only the trailer index; segment bytes are touched when
/// a step is actually read. Any `(dataset, step)` segment can be opened
/// as a perfectly ordinary single-field archive via
/// [`CatalogReader::open_step`] — a catalog is archives all the way down.
///
/// The source is opened once and shared: every segment is read through a
/// [`SubRange`] window of it — [`Self::read_step`], [`Self::open_step`],
/// and every [`DatasetReader`](crate::DatasetReader) built from this
/// reader, which keeps the source open after the reader is dropped.
///
/// The reader also keeps the last step [`Self::read_step`] reconstructed,
/// one step at a time and only while the step after it is a delta step,
/// so reading a dataset forward walks each delta chain once.
pub struct CatalogReader<R: Read + Seek> {
    src: Arc<Mutex<R>>,
    index: CatalogIndex,
    last: Mutex<Option<LastStep>>,
}

/// The step [`CatalogReader::read_step`] last reconstructed: a forward
/// read in the same keyframe group starts from it.
struct LastStep {
    /// Position of the dataset in the index.
    dataset: usize,
    step: usize,
    /// The step's values, a `Vec<T>` of the dataset's scalar type.
    values: Box<dyn Any + Send>,
}

impl CatalogReader<File> {
    /// Open a catalog file.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, CatalogError> {
        Self::open(File::open(path)?)
    }
}

impl<R: Read + Seek> CatalogReader<R> {
    /// Validate the preamble, locate and parse the trailer index.
    pub fn open(mut src: R) -> Result<Self, CatalogError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        if file_len < (PREAMBLE_LEN + TRAILER_SUFFIX_LEN) as u64 {
            return Err(CatalogError::Corrupt("file too short for a catalog"));
        }

        src.seek(SeekFrom::Start(0))?;
        let mut preamble = [0u8; PREAMBLE_LEN];
        src.read_exact(&mut preamble)?;
        if &preamble[..5] != CATALOG_MAGIC {
            return Err(CatalogError::Corrupt("bad catalog magic"));
        }
        if preamble[5] != CATALOG_VERSION {
            return Err(CatalogError::UnsupportedVersion(preamble[5]));
        }

        src.seek(SeekFrom::Start(file_len - TRAILER_SUFFIX_LEN as u64))?;
        let mut suffix = [0u8; TRAILER_SUFFIX_LEN];
        src.read_exact(&mut suffix)?;
        if &suffix[8..] != TRAILER_MAGIC {
            return Err(CatalogError::Corrupt("bad trailer magic"));
        }
        let body_len = u64::from_le_bytes(suffix[..8].try_into().unwrap());
        let max_body = file_len - (PREAMBLE_LEN + TRAILER_SUFFIX_LEN) as u64;
        if body_len > max_body {
            return Err(CatalogError::Corrupt("trailer length exceeds the file"));
        }
        let data_end = file_len - TRAILER_SUFFIX_LEN as u64 - body_len;

        src.seek(SeekFrom::Start(data_end))?;
        let mut body = vec![0u8; body_len as usize];
        src.read_exact(&mut body)?;
        let index = parse_trailer(&body, data_end)?;
        Ok(CatalogReader { src: Arc::new(Mutex::new(src)), index, last: Mutex::new(None) })
    }

    /// The parsed catalog index.
    pub fn index(&self) -> &CatalogIndex {
        &self.index
    }

    /// Datasets in write order.
    pub fn datasets(&self) -> &[DatasetEntry] {
        &self.index.datasets
    }

    /// Look up a dataset by name.
    pub fn dataset(&self, name: &str) -> Result<&DatasetEntry, CatalogError> {
        Ok(&self.index.datasets[self.dataset_pos(name)?])
    }

    fn dataset_pos(&self, name: &str) -> Result<usize, CatalogError> {
        self.index.find(name).ok_or_else(|| CatalogError::DatasetNotFound(name.to_string()))
    }

    fn step_entry(&self, name: &str, step: usize) -> Result<StepEntry, CatalogError> {
        let d = self.dataset(name)?;
        d.steps
            .get(step)
            .copied()
            .ok_or(CatalogError::StepOutOfRange { step, n_steps: d.steps.len() })
    }

    /// The window of the shared source that holds a step's segment.
    pub(crate) fn window(&self, s: &StepEntry) -> SubRange<R> {
        SubRange::new(Arc::clone(&self.src), s.offset, s.len)
    }

    /// Raw bytes of one step's embedded archive segment.
    pub fn read_segment(&self, name: &str, step: usize) -> Result<Vec<u8>, CatalogError> {
        let s = self.step_entry(name, step)?;
        let mut bytes = vec![0u8; s.len as usize];
        self.window(&s).read_exact(&mut bytes)?;
        Ok(bytes)
    }

    /// Open one step's segment as a normal single-field archive.
    ///
    /// For delta steps the archive holds the *residual* stream, not the
    /// field; use [`CatalogReader::read_step`] for reconstructed values.
    pub fn open_step(
        &self,
        name: &str,
        step: usize,
    ) -> Result<ArchiveReader<SubRange<R>>, CatalogError> {
        let s = self.step_entry(name, step)?;
        Ok(ArchiveReader::open(self.window(&s))?)
    }

    /// Decode the reconstructed field of `(dataset, step)`.
    ///
    /// A delta step is its keyframe plus the chain of residuals after it,
    /// each decoded by an [`ArchiveReader`] over the segment's window on
    /// one thread per CPU. The walk starts from the step this reader last
    /// reconstructed when that step is in the same keyframe group at or
    /// before `step`, and from the keyframe otherwise: random access costs
    /// at most one keyframe plus `keyframe_every - 1` residual decodes, and
    /// a forward read costs one residual. The result is kept (one step per
    /// reader) only while step `step + 1` exists and is a delta step; a
    /// failed read keeps nothing.
    pub fn read_step<T: Scalar>(&self, name: &str, step: usize) -> Result<NdArray<T>, CatalogError>
    where
        R: Send,
    {
        let pos = self.dataset_pos(name)?;
        let d = &self.index.datasets[pos];
        if step >= d.steps.len() {
            return Err(CatalogError::StepOutOfRange { step, n_steps: d.steps.len() });
        }
        if d.scalar_tag != T::TAG {
            return Err(CatalogError::ScalarMismatch { expected: d.scalar_tag, found: T::TAG });
        }
        let shape = d.shape;
        let kf = d
            .keyframe_before(step)
            .ok_or(CatalogError::Corrupt("no keyframe at or before the step"))?;

        let segment = |t: usize| -> Result<Vec<T>, CatalogError> {
            let reader = ArchiveReader::open(self.window(&d.steps[t]))?.with_threads(0);
            check_segment::<T>(reader.header(), shape)?;
            Ok(reader.read_all()?.into_vec())
        };
        // Taken out under the lock, so the decode below runs outside it.
        let resumed = self.last().take_if(|l| l.dataset == pos && (kf..=step).contains(&l.step));
        let resumed = resumed.and_then(|l| Some((l.step, *l.values.downcast::<Vec<T>>().ok()?)));
        let (from, mut recon) = match resumed {
            Some(start) => start,
            None => (kf, segment(kf)?),
        };
        walk_chain(&mut recon, from, step, segment)?;
        if d.steps.get(step + 1).is_some_and(|next| !next.keyframe) {
            let values = Box::new(recon.clone());
            *self.last() = Some(LastStep { dataset: pos, step, values });
        }
        Ok(NdArray::from_vec(shape, recon))
    }

    /// The kept step. Every update replaces the whole value, so a lock
    /// poisoned by a panicking reader still holds a valid one.
    fn last(&self) -> MutexGuard<'_, Option<LastStep>> {
        self.last.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
