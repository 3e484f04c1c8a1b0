//! The `RQCAT` container layout: index model and trailer codec.
//!
//! ```text
//! +--------+---------+----------------------------+----------------+
//! | RQCAT  | version | segment … segment          | trailer        |
//! | 5 B    | u8 (=1) | complete RQMC archives     | body ‖ suffix  |
//! +--------+---------+----------------------------+----------------+
//! ```
//!
//! Segments are byte-for-byte ordinary single-field archives (any RQMC
//! generation), appended back to back in write order. The trailer body is
//! the catalog index; the 12-byte suffix is `u64 LE body_len` + `RQCX`,
//! so a reader finds the index from the end of the file without touching
//! the segments.
//!
//! Trailer body (all integers LEB128 varints, floats `f64` LE):
//!
//! ```text
//! n_datasets
//! per dataset:
//!   name_len, name (UTF-8)
//!   scalar_tag  u8   (0x04 = f32, 0x08 = f64)
//!   ndim        u8, then ndim × dim
//!   keyframe_every
//!   n_steps
//!   per step:
//!     flags     u8   (bit 0 = keyframe; rest reserved, must be 0)
//!     offset         (absolute byte offset of the segment)
//!     len            (segment byte length)
//!     codec     u8   (0 = SZ / ROLZ only, 1 = ZFP only, 2 = mixed)
//!     eb        f64  (the user's absolute bound for this step)
//! ```

use crate::error::CatalogError;
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_grid::{Shape, MAX_DIMS};

/// Leading magic of a catalog container.
pub const CATALOG_MAGIC: &[u8; 5] = b"RQCAT";

/// Catalog generation written by this build.
pub const CATALOG_VERSION: u8 = 1;

/// Magic closing the trailer suffix.
pub const TRAILER_MAGIC: &[u8; 4] = b"RQCX";

/// Bytes of the trailer suffix: `u64 LE body_len` + [`TRAILER_MAGIC`].
pub const TRAILER_SUFFIX_LEN: usize = 12;

/// Bytes of the file preamble: [`CATALOG_MAGIC`] + version byte.
pub const PREAMBLE_LEN: usize = 6;

/// Whether `prefix` starts like a catalog container (any version).
///
/// Needs at least [`PREAMBLE_LEN`] bytes to say yes; used by the CLI and
/// the serve daemon to sniff file kinds.
pub fn is_catalog_magic(prefix: &[u8]) -> bool {
    prefix.len() >= PREAMBLE_LEN && &prefix[..5] == CATALOG_MAGIC
}

/// Coarse per-step codec summary stored in the index (the authoritative
/// per-chunk tags live inside the segment itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecSummary {
    /// Every chunk took a prediction path (SZ or ROLZ).
    Sz,
    /// Every chunk took the ZFP transform path.
    Zfp,
    /// Both a prediction path and the ZFP transform path appear in the
    /// segment.
    Mixed,
}

impl CodecSummary {
    /// Byte tag stored in the trailer.
    pub fn tag(self) -> u8 {
        match self {
            CodecSummary::Sz => 0,
            CodecSummary::Zfp => 1,
            CodecSummary::Mixed => 2,
        }
    }

    /// Decode a trailer tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CodecSummary::Sz),
            1 => Some(CodecSummary::Zfp),
            2 => Some(CodecSummary::Mixed),
            _ => None,
        }
    }

    /// Human-readable name (`sz` / `zfp` / `mixed`).
    pub fn name(self) -> &'static str {
        match self {
            CodecSummary::Sz => "sz",
            CodecSummary::Zfp => "zfp",
            CodecSummary::Mixed => "mixed",
        }
    }
}

/// One time step of a dataset: where its segment lives and how it was
/// coded.
#[derive(Clone, Copy, Debug)]
pub struct StepEntry {
    /// Keyframe (self-contained) vs delta (residual against the
    /// reconstructed previous step).
    pub keyframe: bool,
    /// Absolute byte offset of the embedded archive segment.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// Coarse codec summary of the segment's chunks.
    pub codec: CodecSummary,
    /// The user's absolute error bound for this step (delta segments are
    /// internally coded slightly tighter; this records the guarantee).
    pub eb: f64,
}

/// One named dataset: a sequence of equally-shaped time steps.
#[derive(Clone, Debug)]
pub struct DatasetEntry {
    /// Unique dataset name.
    pub name: String,
    /// Scalar tag of every step (0x04 = f32, 0x08 = f64).
    pub scalar_tag: u8,
    /// Per-step field shape.
    pub shape: Shape,
    /// Keyframe cadence the writer used (1 = every step self-contained).
    pub keyframe_every: usize,
    /// The steps, in time order.
    pub steps: Vec<StepEntry>,
}

impl DatasetEntry {
    /// Number of time steps.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Index of the nearest keyframe at or before `step`.
    ///
    /// Parse-time validation guarantees step 0 is a keyframe, so this
    /// only returns `None` for out-of-range steps.
    pub fn keyframe_before(&self, step: usize) -> Option<usize> {
        self.steps.get(..=step)?.iter().rposition(|s| s.keyframe)
    }
}

/// The parsed catalog index: every dataset with its step table.
#[derive(Clone, Debug, Default)]
pub struct CatalogIndex {
    /// Datasets in write order.
    pub datasets: Vec<DatasetEntry>,
}

impl CatalogIndex {
    /// Position of the dataset named `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.datasets.iter().position(|d| d.name == name)
    }

    /// Total steps across all datasets.
    pub fn total_steps(&self) -> usize {
        self.datasets.iter().map(|d| d.steps.len()).sum()
    }
}

/// Serialize the trailer body (without the 12-byte suffix).
pub fn encode_trailer(index: &CatalogIndex) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * index.datasets.len() + 24 * index.total_steps());
    put_uvarint(&mut out, index.datasets.len() as u64);
    for d in &index.datasets {
        put_uvarint(&mut out, d.name.len() as u64);
        out.extend_from_slice(d.name.as_bytes());
        out.push(d.scalar_tag);
        out.push(d.shape.ndim() as u8);
        for &dim in d.shape.dims() {
            put_uvarint(&mut out, dim as u64);
        }
        put_uvarint(&mut out, d.keyframe_every as u64);
        put_uvarint(&mut out, d.steps.len() as u64);
        for s in &d.steps {
            out.push(s.keyframe as u8);
            put_uvarint(&mut out, s.offset);
            put_uvarint(&mut out, s.len);
            out.push(s.codec.tag());
            out.extend_from_slice(&s.eb.to_le_bytes());
        }
    }
    out
}

/// Names too long to be plausible (sanity cap against corrupt varints).
const MAX_NAME_LEN: u64 = 4096;

fn varint(body: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, CatalogError> {
    get_uvarint(body, pos).ok_or(CatalogError::Corrupt(what))
}

fn byte(body: &[u8], pos: &mut usize, what: &'static str) -> Result<u8, CatalogError> {
    let b = *body.get(*pos).ok_or(CatalogError::Corrupt(what))?;
    *pos += 1;
    Ok(b)
}

/// Parse and validate a trailer body.
///
/// `data_end` is the absolute offset where the segment region ends (the
/// trailer's own start); every step's `[offset, offset + len)` must fall
/// inside `[PREAMBLE_LEN, data_end)`. Violations surface as
/// [`CatalogError::Corrupt`] — never a panic, never wrapping arithmetic.
pub fn parse_trailer(body: &[u8], data_end: u64) -> Result<CatalogIndex, CatalogError> {
    let mut pos = 0usize;
    let n_datasets = varint(body, &mut pos, "truncated dataset count")?;
    let mut datasets = Vec::new();
    for _ in 0..n_datasets {
        let name_len = varint(body, &mut pos, "truncated dataset name length")?;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(CatalogError::Corrupt("dataset name length out of range"));
        }
        let name_end = pos
            .checked_add(name_len as usize)
            .filter(|&e| e <= body.len())
            .ok_or(CatalogError::Corrupt("dataset name runs past the trailer"))?;
        let name = std::str::from_utf8(&body[pos..name_end])
            .map_err(|_| CatalogError::Corrupt("dataset name is not UTF-8"))?
            .to_string();
        pos = name_end;
        if datasets.iter().any(|d: &DatasetEntry| d.name == name) {
            return Err(CatalogError::Corrupt("duplicate dataset name"));
        }

        let scalar_tag = byte(body, &mut pos, "truncated scalar tag")?;
        if scalar_tag != 0x04 && scalar_tag != 0x08 {
            return Err(CatalogError::Corrupt("unknown scalar tag"));
        }

        let ndim = byte(body, &mut pos, "truncated rank")? as usize;
        if ndim == 0 || ndim > MAX_DIMS {
            return Err(CatalogError::Corrupt("rank out of range"));
        }
        let mut dims = [0usize; MAX_DIMS];
        let mut elems = 1usize;
        for d in dims.iter_mut().take(ndim) {
            let dim = varint(body, &mut pos, "truncated dimension")?;
            if dim == 0 || dim > usize::MAX as u64 {
                return Err(CatalogError::Corrupt("dimension out of range"));
            }
            *d = dim as usize;
            elems = elems
                .checked_mul(*d)
                .ok_or(CatalogError::Corrupt("shape element count overflows"))?;
        }
        let shape = Shape::new(&dims[..ndim]);

        let keyframe_every = varint(body, &mut pos, "truncated keyframe cadence")?;
        if keyframe_every == 0 || keyframe_every > usize::MAX as u64 {
            return Err(CatalogError::Corrupt("keyframe cadence out of range"));
        }

        let n_steps = varint(body, &mut pos, "truncated step count")?;
        if n_steps == 0 {
            return Err(CatalogError::Corrupt("dataset has zero steps"));
        }
        let mut steps = Vec::new();
        for t in 0..n_steps {
            let flags = byte(body, &mut pos, "truncated step flags")?;
            if flags & !1 != 0 {
                return Err(CatalogError::Corrupt("reserved step flag bits set"));
            }
            let keyframe = flags & 1 != 0;
            if t == 0 && !keyframe {
                return Err(CatalogError::Corrupt(
                    "first step is a delta with no keyframe to stand on",
                ));
            }
            let offset = varint(body, &mut pos, "truncated step offset")?;
            let len = varint(body, &mut pos, "truncated step length")?;
            if len == 0 {
                return Err(CatalogError::Corrupt("zero-length step segment"));
            }
            let end = offset
                .checked_add(len)
                .ok_or(CatalogError::Corrupt("step segment range overflows"))?;
            if offset < PREAMBLE_LEN as u64 || end > data_end {
                return Err(CatalogError::Corrupt("step segment outside the data region"));
            }
            let codec = CodecSummary::from_tag(byte(body, &mut pos, "truncated codec summary")?)
                .ok_or(CatalogError::Corrupt("unknown codec summary tag"))?;
            let eb_end = pos
                .checked_add(8)
                .filter(|&e| e <= body.len())
                .ok_or(CatalogError::Corrupt("truncated step error bound"))?;
            let eb = f64::from_le_bytes(body[pos..eb_end].try_into().unwrap());
            pos = eb_end;
            if !(eb.is_finite() && eb > 0.0) {
                return Err(CatalogError::Corrupt("step error bound not finite positive"));
            }
            steps.push(StepEntry { keyframe, offset, len, codec, eb });
        }

        datasets.push(DatasetEntry {
            name,
            scalar_tag,
            shape,
            keyframe_every: keyframe_every as usize,
            steps,
        });
    }
    if pos != body.len() {
        return Err(CatalogError::Corrupt("trailing bytes after the catalog index"));
    }
    Ok(CatalogIndex { datasets })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> CatalogIndex {
        CatalogIndex {
            datasets: vec![
                DatasetEntry {
                    name: "pressure".into(),
                    scalar_tag: 0x04,
                    shape: Shape::d3(8, 16, 16),
                    keyframe_every: 4,
                    steps: vec![
                        StepEntry {
                            keyframe: true,
                            offset: 6,
                            len: 100,
                            codec: CodecSummary::Sz,
                            eb: 1e-3,
                        },
                        StepEntry {
                            keyframe: false,
                            offset: 106,
                            len: 60,
                            codec: CodecSummary::Mixed,
                            eb: 1e-3,
                        },
                    ],
                },
                DatasetEntry {
                    name: "vx".into(),
                    scalar_tag: 0x08,
                    shape: Shape::d1(1000),
                    keyframe_every: 1,
                    steps: vec![StepEntry {
                        keyframe: true,
                        offset: 166,
                        len: 500,
                        codec: CodecSummary::Zfp,
                        eb: 0.5,
                    }],
                },
            ],
        }
    }

    #[test]
    fn trailer_roundtrips() {
        let index = sample_index();
        let body = encode_trailer(&index);
        let back = parse_trailer(&body, 666).unwrap();
        assert_eq!(back.datasets.len(), 2);
        let d = &back.datasets[0];
        assert_eq!(d.name, "pressure");
        assert_eq!(d.scalar_tag, 0x04);
        assert_eq!(d.shape.dims(), &[8, 16, 16]);
        assert_eq!(d.keyframe_every, 4);
        assert_eq!(d.steps.len(), 2);
        assert!(d.steps[0].keyframe && !d.steps[1].keyframe);
        assert_eq!(d.steps[1].offset, 106);
        assert_eq!(d.steps[1].codec, CodecSummary::Mixed);
        assert_eq!(back.datasets[1].steps[0].eb, 0.5);
    }

    #[test]
    fn segment_past_data_end_is_corrupt() {
        let body = encode_trailer(&sample_index());
        // data_end cuts into the second dataset's segment.
        let err = parse_trailer(&body, 400).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt(_)), "{err}");
    }

    #[test]
    fn first_step_must_be_keyframe() {
        let mut index = sample_index();
        index.datasets[0].steps[0].keyframe = false;
        let body = encode_trailer(&index);
        let err = parse_trailer(&body, 666).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt(_)), "{err}");
    }

    #[test]
    fn keyframe_before_walks_back() {
        let index = sample_index();
        let d = &index.datasets[0];
        assert_eq!(d.keyframe_before(0), Some(0));
        assert_eq!(d.keyframe_before(1), Some(0));
        assert_eq!(d.keyframe_before(2), None);
    }

    #[test]
    fn truncations_are_typed_errors() {
        let body = encode_trailer(&sample_index());
        for cut in 0..body.len() {
            match parse_trailer(&body[..cut], 666) {
                Err(CatalogError::Corrupt(_)) => {}
                Ok(_) => panic!("truncation at {cut} parsed"),
                Err(e) => panic!("unexpected error at {cut}: {e}"),
            }
        }
    }
}
