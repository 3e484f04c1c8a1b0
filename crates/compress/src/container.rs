//! The on-disk container: one written generation, six read.
//!
//! | version byte | name | index | per-chunk codec tag | per-chunk bound | status |
//! |---|---|---|---|---|---|
//! | 1 | v1   | none (one stream)  | no  | no  | read only — `tests/data/golden_v1.rqc` |
//! | 2 | v2   | inline, pre-blobs  | no  | no  | read only — `golden_v2.rqc` |
//! | 3 | v2.1 | inline, pre-blobs  | yes | no  | read only — `golden_v21.rqc` |
//! | 4 | v2.2 | trailer            | yes | no  | read only — `golden_v22.rqc` |
//! | 5 | v2.3 | trailer            | yes | yes | read only — `golden_v23.rqc` |
//! | 6 | v2.4 | trailer            | yes | yes | **written** by every writer — `golden_v24.rqc` |
//!
//! Every generation starts with the same header prefix (integers are
//! little-endian or LEB128 varints):
//!
//! ```text
//! magic    "RQMC" (4 bytes)
//! version  u8   (1..=6, the table above)
//! scalar   u8   (Scalar::TAG)
//! pred     u8   (PredictorKind::tag)
//! flags    u8   bit0 = lossless stage configured, bit1 = log transform
//! ndim     u8
//! dims     varint × ndim
//! eb       f64  absolute error bound (v2.3+: the max of the chunk bounds)
//! radius   varint
//! ```
//!
//! A **v2.4 archive** continues with the chunk blobs back to back and
//! ends with the chunk index, so a writer never buffers the archive:
//!
//! ```text
//! blobs        n_chunks × chunk blob
//! trailer      chunk_rows varint
//!              n_chunks   varint
//!              (rows varint, byte_len varint, codec u8, eb f64 LE) × n_chunks
//! trailer_len  u64 LE — byte length of the trailer above
//! magic        "RQIX" (4 bytes)
//! ```
//!
//! Chunks are axis-0 slabs in row order; blob offsets accumulate forward
//! from the end of the header, so any chunk decodes without touching the
//! others. The per-chunk `eb` is authoritative for decoding that chunk;
//! the codec tag ([`ChunkCodecKind`]) says which backend produced the
//! blob. An SZ or ROLZ blob is `chunk_flags u8 | codebook | payload |
//! verbatim | side` (bit0 of the flags = lossless stage kept for this
//! chunk); a ZFP blob is a self-describing `RQZF` stream.
//!
//! The read-only generations differ only in where the index sits and
//! which columns it has (a missing tag means SZ, a missing bound means
//! the header's; tag `2` outside v2.4 is corruption); a v1 archive is one
//! whole-field chunk whose blob has no flag byte. `read_archive_layout`
//! is the one parser of all six: every reader sees the same
//! header + located chunk entries. `docs/FORMAT.md` is the byte-level
//! specification.

use crate::config::LosslessStage;
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_grid::{Scalar, Shape, MAX_DIMS};
use rq_predict::PredictorKind;

pub(crate) const MAGIC: &[u8; 4] = b"RQMC";
/// Single-stream container (read only).
const VERSION_V1: u8 = 1;
/// Inline chunk index, untagged (read only).
const VERSION_V2: u8 = 2;
/// Inline chunk index with per-chunk codec tags, "v2.1" (read only).
const VERSION_V2_1: u8 = 3;
/// Trailer chunk index without the bound column, "v2.2" (read only).
const VERSION_V2_2: u8 = 4;
/// Trailer chunk index with per-chunk bounds, "v2.3" (read only).
const VERSION_V2_3: u8 = 5;
/// v2.3 layout with the ROLZ codec tag allowed, "v2.4": the generation
/// every writer emits.
pub(crate) const VERSION_V2_4: u8 = 6;
/// Magic closing a trailer (the last four bytes of the archive).
pub(crate) const TRAILER_MAGIC: &[u8; 4] = b"RQIX";
/// Fixed bytes after a trailer body: u64 LE trailer length + magic.
pub(crate) const TRAILER_SUFFIX_LEN: usize = 8 + 4;
pub(crate) const FLAG_LOSSLESS: u8 = 0b01;
pub(crate) const FLAG_LOG: u8 = 0b10;

/// Errors produced while compressing.
#[derive(Debug)]
pub enum CompressError {
    /// The resolved error bound was invalid (e.g. relative bound on a
    /// constant field).
    InvalidBound(String),
    /// The configuration combines features that cannot work together
    /// (e.g. the zfp codec with a point-wise relative bound).
    Unsupported(String),
    /// The configuration itself is malformed (e.g. zero chunk rows
    /// constructed without the builder, or a slab that does not tile the
    /// declared shape).
    InvalidConfig(String),
    /// Entropy-coding failure (internal invariant violation).
    Encoding(rq_encoding::HuffmanError),
    /// The output stream failed (streaming writer only).
    Io(std::io::Error),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::InvalidBound(m) => write!(f, "invalid error bound: {m}"),
            CompressError::Unsupported(m) => write!(f, "unsupported configuration: {m}"),
            CompressError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            CompressError::Encoding(e) => write!(f, "encoding failed: {e}"),
            CompressError::Io(e) => write!(f, "output stream failed: {e}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<rq_encoding::HuffmanError> for CompressError {
    fn from(e: rq_encoding::HuffmanError) -> Self {
        CompressError::Encoding(e)
    }
}

impl From<std::io::Error> for CompressError {
    fn from(e: std::io::Error) -> Self {
        CompressError::Io(e)
    }
}

/// Errors produced while decompressing.
#[derive(Debug)]
pub enum DecompressError {
    /// The buffer does not start with the container magic or a known
    /// version.
    NotAContainer,
    /// Scalar type mismatch between the container and the requested type.
    ScalarMismatch { expected: u8, found: u8 },
    /// Structural corruption.
    Corrupt(&'static str),
    /// A chunk index outside the container's chunk table.
    ChunkOutOfRange { requested: usize, available: usize },
    /// A row range outside the field's axis-0 extent.
    RowsOutOfRange { requested_end: usize, rows: usize },
    /// Huffman decode failure.
    Encoding(rq_encoding::HuffmanError),
    /// The input stream failed (streaming reader only).
    Io(std::io::Error),
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::NotAContainer => write!(f, "not an RQMC container"),
            DecompressError::ScalarMismatch { expected, found } => {
                write!(f, "scalar tag mismatch: expected {expected:#x}, found {found:#x}")
            }
            DecompressError::Corrupt(what) => write!(f, "corrupt container: {what}"),
            DecompressError::ChunkOutOfRange { requested, available } => {
                write!(f, "chunk {requested} out of range (container has {available})")
            }
            DecompressError::RowsOutOfRange { requested_end, rows } => {
                write!(f, "row range ends at {requested_end} but the field has {rows} rows")
            }
            DecompressError::Encoding(e) => write!(f, "huffman decode failed: {e}"),
            DecompressError::Io(e) => write!(f, "input stream failed: {e}"),
        }
    }
}

impl std::error::Error for DecompressError {}

impl From<std::io::Error> for DecompressError {
    fn from(e: std::io::Error) -> Self {
        DecompressError::Io(e)
    }
}

impl From<rq_encoding::HuffmanError> for DecompressError {
    fn from(e: rq_encoding::HuffmanError) -> Self {
        DecompressError::Encoding(e)
    }
}

/// Parsed container header (common to every generation).
#[derive(Debug, Clone)]
pub struct Header {
    /// Container version byte (1..=6; see [`generation_name`]).
    pub version: u8,
    /// Scalar tag of the stored field.
    pub scalar_tag: u8,
    /// Predictor the stream was produced with.
    pub predictor: PredictorKind,
    /// Whether the lossless stage was enabled (v1: applied); from v2 on
    /// each SZ blob's own flag byte decides for its chunk.
    pub lossless: LosslessStage,
    /// Whether data was log-transformed (point-wise relative mode).
    pub log_transform: bool,
    /// Field shape.
    pub shape: Shape,
    /// Absolute error bound used by the quantizer.
    pub abs_eb: f64,
    /// Quantizer radius.
    pub radius: u32,
}

impl Header {
    /// Whether the archive body is one flagless whole-field stream (v1)
    /// rather than chunk blobs.
    pub(crate) fn single_stream(&self) -> bool {
        self.version == VERSION_V1
    }
}

/// Which codec produced one chunk's blob (the per-chunk tag of the chunk
/// index; every chunk of a v1/v2 container is implicitly [`Self::Sz`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChunkCodecKind {
    /// The SZ prediction path: predictor + linear-scaling quantizer +
    /// Huffman (+ optional lossless stage).
    Sz,
    /// The ZFP transform path: block transform + embedded bitplane coder
    /// (the blob is a self-describing `RQZF` stream).
    Zfp,
    /// The ROLZ residual path: the SZ quantization-code stream re-coded
    /// through reduced-offset LZ + symbol ranking + static Huffman.
    /// Only valid inside v2.4 containers.
    Rolz,
}

impl ChunkCodecKind {
    /// Stable one-byte tag stored in chunk-index entries.
    pub fn tag(self) -> u8 {
        match self {
            ChunkCodecKind::Sz => 0,
            ChunkCodecKind::Zfp => 1,
            ChunkCodecKind::Rolz => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ChunkCodecKind::Sz,
            1 => ChunkCodecKind::Zfp,
            2 => ChunkCodecKind::Rolz,
            _ => return None,
        })
    }

    /// Short name used by `rqm info` and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ChunkCodecKind::Sz => "sz",
            ChunkCodecKind::Zfp => "zfp",
            ChunkCodecKind::Rolz => "rolz",
        }
    }
}

/// Serialize the shared header prefix.
pub(crate) fn write_header_prefix(out: &mut Vec<u8>, header: &Header, scalar_tag: u8) {
    out.extend_from_slice(MAGIC);
    out.push(header.version);
    out.push(scalar_tag);
    out.push(header.predictor.tag());
    let mut flags = 0u8;
    if header.lossless == LosslessStage::RleLzss {
        flags |= FLAG_LOSSLESS;
    }
    if header.log_transform {
        flags |= FLAG_LOG;
    }
    out.push(flags);
    out.push(header.shape.ndim() as u8);
    for &d in header.shape.dims() {
        put_uvarint(out, d as u64);
    }
    out.extend_from_slice(&header.abs_eb.to_le_bytes());
    put_uvarint(out, header.radius as u64);
}

/// Parse the shared header prefix; returns the header and the position of
/// the first byte after it. Does not check the scalar tag.
pub(crate) fn read_header_prefix(bytes: &[u8]) -> Result<(Header, usize), DecompressError> {
    if bytes.len() < 9 || &bytes[..4] != MAGIC || !(VERSION_V1..=VERSION_V2_4).contains(&bytes[4])
    {
        return Err(DecompressError::NotAContainer);
    }
    let version = bytes[4];
    let scalar_tag = bytes[5];
    let predictor = PredictorKind::from_tag(bytes[6])
        .ok_or(DecompressError::Corrupt("unknown predictor tag"))?;
    let flags = bytes[7];
    let ndim = bytes[8] as usize;
    if ndim == 0 || ndim > MAX_DIMS {
        return Err(DecompressError::Corrupt("bad ndim"));
    }
    let mut pos = 9;
    let mut dims = [0usize; MAX_DIMS];
    let mut n_elements = 1usize;
    for d in dims.iter_mut().take(ndim) {
        *d = get_uvarint(bytes, &mut pos).ok_or(DecompressError::Corrupt("dims"))? as usize;
        if *d == 0 || *d > (1 << 32) {
            return Err(DecompressError::Corrupt("bad dim extent"));
        }
        // Corrupt varints can encode extents whose *product* overflows
        // usize even though each extent passes the per-dim bound; that
        // would panic inside Shape::len instead of returning an error.
        n_elements = n_elements
            .checked_mul(*d)
            .ok_or(DecompressError::Corrupt("element count overflow"))?;
    }
    let shape = Shape::new(&dims[..ndim]);
    if pos + 8 > bytes.len() {
        return Err(DecompressError::Corrupt("eb"));
    }
    let abs_eb = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    if !(abs_eb.is_finite() && abs_eb > 0.0) {
        return Err(DecompressError::Corrupt("non-positive eb"));
    }
    let radius = get_uvarint(bytes, &mut pos).ok_or(DecompressError::Corrupt("radius"))?;
    if radius == 0 {
        return Err(DecompressError::Corrupt("zero radius"));
    }
    // Quantization codes are `i32`: no writer can have used a larger
    // radius, and the quantizer refuses (panics on) one.
    if radius > i32::MAX as u64 {
        return Err(DecompressError::Corrupt("radius out of range"));
    }
    let radius = radius as u32;
    let lossless =
        if flags & FLAG_LOSSLESS != 0 { LosslessStage::RleLzss } else { LosslessStage::None };
    Ok((
        Header {
            version,
            scalar_tag,
            predictor,
            lossless,
            log_transform: flags & FLAG_LOG != 0,
            shape,
            abs_eb,
            radius,
        },
        pos,
    ))
}

/// Append one varint-length-prefixed byte section.
fn write_byte_section(out: &mut Vec<u8>, section: &[u8]) {
    put_uvarint(out, section.len() as u64);
    out.extend_from_slice(section);
}

/// Read one varint-length-prefixed byte section.
fn read_byte_section(bytes: &[u8], pos: &mut usize) -> Result<Vec<u8>, DecompressError> {
    let len = get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("section len"))? as usize;
    // Checked: a corrupt varint can decode to a length that overflows the
    // addition, not just one that overruns the buffer.
    let end = pos
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or(DecompressError::Corrupt("section overruns buffer"))?;
    let s = bytes[*pos..end].to_vec();
    *pos = end;
    Ok(s)
}

/// The four data sections of one compressed stream (a whole v1 container
/// body, or one v2 chunk).
pub(crate) struct SectionsBody<T> {
    pub codebook: Vec<u8>,
    pub payload: Vec<u8>,
    pub verbatim: Vec<T>,
    pub side: Vec<u8>,
}

/// Serialize the four sections: `codebook | payload | verbatim | side`.
fn write_sections_body<T: Scalar>(
    out: &mut Vec<u8>,
    codebook: &[u8],
    payload: &[u8],
    verbatim: &[T],
    side: &[u8],
) {
    write_byte_section(out, codebook);
    write_byte_section(out, payload);
    put_uvarint(out, verbatim.len() as u64);
    for &v in verbatim {
        v.write_le(out);
    }
    write_byte_section(out, side);
}

/// Parse the four sections written by [`write_sections_body`].
pub(crate) fn read_sections_body<T: Scalar>(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<SectionsBody<T>, DecompressError> {
    let codebook = read_byte_section(bytes, pos)?;
    let payload = read_byte_section(bytes, pos)?;
    let n_verbatim =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("verbatim count"))? as usize;
    if n_verbatim
        .checked_mul(T::BYTES)
        .and_then(|b| b.checked_add(*pos))
        .is_none_or(|end| end > bytes.len())
    {
        return Err(DecompressError::Corrupt("verbatim overruns buffer"));
    }
    let mut verbatim = Vec::with_capacity(n_verbatim);
    for _ in 0..n_verbatim {
        verbatim.push(T::read_le(&bytes[*pos..]));
        *pos += T::BYTES;
    }
    let side = read_byte_section(bytes, pos)?;
    Ok(SectionsBody { codebook, payload, verbatim, side })
}

// ---------------------------------------------------------------------------
// Chunk blobs and the chunk index
// ---------------------------------------------------------------------------

/// Per-chunk flag: the optional lossless stage was applied to this chunk's
/// payload.
pub(crate) const CHUNK_FLAG_LOSSLESS: u8 = 0b01;

/// One entry of a chunk index, with its blob located in the container.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkEntry {
    /// First axis-0 row of the slab.
    pub start_row: usize,
    /// Axis-0 rows in the slab.
    pub rows: usize,
    /// Byte offset of the chunk blob within the container.
    pub offset: usize,
    /// Byte length of the chunk blob.
    pub len: usize,
    /// Codec that produced the blob (always [`ChunkCodecKind::Sz`] for
    /// v1/v2 containers).
    pub codec: ChunkCodecKind,
    /// Absolute error bound this chunk was quantized with (authoritative
    /// for decoding it). Read from the index entry from v2.3 on; equal to
    /// the header's `abs_eb` in every generation before.
    pub eb: f64,
}

/// Serialize one chunk's streams as a self-contained blob.
pub(crate) fn write_chunk_blob<T: Scalar>(
    lossless_applied: LosslessStage,
    codebook: &[u8],
    payload: &[u8],
    verbatim: &[T],
    side: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        payload.len() + codebook.len() + verbatim.len() * T::BYTES + side.len() + 16,
    );
    out.push(if lossless_applied == LosslessStage::RleLzss { CHUNK_FLAG_LOSSLESS } else { 0 });
    write_sections_body(&mut out, codebook, payload, verbatim, side);
    out
}

/// Parse a chunk blob written by [`write_chunk_blob`].
pub(crate) fn read_chunk_blob<T: Scalar>(
    blob: &[u8],
) -> Result<(LosslessStage, SectionsBody<T>), DecompressError> {
    if blob.is_empty() {
        return Err(DecompressError::Corrupt("empty chunk blob"));
    }
    let lossless = if blob[0] & CHUNK_FLAG_LOSSLESS != 0 {
        LosslessStage::RleLzss
    } else {
        LosslessStage::None
    };
    let mut pos = 1;
    let body = read_sections_body::<T>(blob, &mut pos)?;
    if pos != blob.len() {
        return Err(DecompressError::Corrupt("trailing bytes in chunk blob"));
    }
    Ok((lossless, body))
}

/// Raw `(rows, byte_len, codec, per-chunk eb)` entries of a chunk index,
/// before validation against the header. The bound is `None` for every
/// generation before v2.3 (those chunks inherit the header bound).
type RawIndexEntries = Vec<(usize, usize, ChunkCodecKind, Option<f64>)>;

/// Parse `chunk_rows`, `n_chunks` and the raw `(rows, len, codec, eb)`
/// entries of a chunk index out of `bytes` starting at `*pos` — the
/// inline v2/v2.1 index and the v2.2–v2.4 trailer alike. `with_eb`
/// selects the v2.3+ entry layout (an f64 bound after the codec tag);
/// non-finite or non-positive bounds are corruption. `rolz_allowed` gates
/// codec tag 2 (legal from v2.4 on only).
fn parse_index_body(
    bytes: &[u8],
    pos: &mut usize,
    tagged: bool,
    with_eb: bool,
    rolz_allowed: bool,
    max_chunks: usize,
) -> Result<(usize, RawIndexEntries), DecompressError> {
    let chunk_rows =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk rows"))? as usize;
    if chunk_rows == 0 {
        return Err(DecompressError::Corrupt("zero chunk rows"));
    }
    let n_chunks =
        get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk count"))? as usize;
    if n_chunks == 0 || n_chunks > max_chunks {
        return Err(DecompressError::Corrupt("bad chunk count"));
    }
    // Capacity only up to what the buffer could physically hold (≥ 2
    // bytes per entry): a crafted count must not drive a huge upfront
    // allocation — the parse loop below fails on truncation regardless.
    let mut raw =
        Vec::with_capacity(n_chunks.min(bytes.len().saturating_sub(*pos) / 2));
    for _ in 0..n_chunks {
        let rows =
            get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk index"))? as usize;
        let len =
            get_uvarint(bytes, pos).ok_or(DecompressError::Corrupt("chunk index"))? as usize;
        let codec = if tagged {
            let tag = *bytes.get(*pos).ok_or(DecompressError::Corrupt("chunk codec tag"))?;
            *pos += 1;
            let codec = ChunkCodecKind::from_tag(tag)
                .ok_or(DecompressError::Corrupt("unknown chunk codec tag"))?;
            if codec == ChunkCodecKind::Rolz && !rolz_allowed {
                return Err(DecompressError::Corrupt("rolz codec tag in pre-v2.4 container"));
            }
            codec
        } else {
            ChunkCodecKind::Sz
        };
        let eb = if with_eb {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(DecompressError::Corrupt("truncated per-chunk error bound"))?;
            let eb = f64::from_le_bytes(bytes[*pos..end].try_into().unwrap());
            *pos = end;
            if !(eb.is_finite() && eb > 0.0) {
                return Err(DecompressError::Corrupt("bad per-chunk error bound"));
            }
            Some(eb)
        } else {
            None
        };
        raw.push((rows, len, codec, eb));
    }
    Ok((chunk_rows, raw))
}

/// Validate raw index entries against the header and the byte region the
/// blobs live in (`offset..region_end`), producing located entries.
fn entries_from_raw(
    header: &Header,
    mut offset: usize,
    raw: RawIndexEntries,
    region_end: usize,
) -> Result<Vec<ChunkEntry>, DecompressError> {
    let mut entries = Vec::with_capacity(raw.len());
    let mut start_row = 0usize;
    for (rows, len, codec, eb) in raw {
        // Corrupt varints can hold anything: every entry must fit inside
        // what remains of axis 0 (checked subtraction — an unchecked
        // running sum would overflow before the tiling check below).
        if rows == 0 || rows > header.shape.dim(0) - start_row {
            return Err(DecompressError::Corrupt("chunk rows do not tile axis 0"));
        }
        let end = offset.checked_add(len).ok_or(DecompressError::Corrupt("chunk index"))?;
        if end > region_end {
            return Err(DecompressError::Corrupt("chunk overruns buffer"));
        }
        entries.push(ChunkEntry {
            start_row,
            rows,
            offset,
            len,
            codec,
            eb: eb.unwrap_or(header.abs_eb),
        });
        start_row += rows;
        offset = end;
    }
    if start_row != header.shape.dim(0) {
        return Err(DecompressError::Corrupt("chunk rows do not tile axis 0"));
    }
    Ok(entries)
}

/// Serialize a trailer (index body + length suffix + magic) for the
/// given `(rows, codec, blob_len, eb)` entries in slab order.
pub(crate) fn write_trailer(
    out: &mut Vec<u8>,
    chunk_rows: usize,
    chunks: &[(usize, ChunkCodecKind, usize, f64)],
) {
    let body_start = out.len();
    put_uvarint(out, chunk_rows as u64);
    put_uvarint(out, chunks.len() as u64);
    for &(rows, codec, len, eb) in chunks {
        put_uvarint(out, rows as u64);
        put_uvarint(out, len as u64);
        out.push(codec.tag());
        out.extend_from_slice(&eb.to_le_bytes());
    }
    let body_len = (out.len() - body_start) as u64;
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
}

/// Parse only the header of a container (cheap inspection).
pub fn peek_header(bytes: &[u8]) -> Result<Header, DecompressError> {
    read_header_prefix(bytes).map(|(h, _)| h)
}

/// Human name of a container generation, from its version byte ("2.1"
/// for byte 3, …). Unknown bytes — which the parsers reject anyway —
/// report as "unknown".
pub fn generation_name(version: u8) -> &'static str {
    match version {
        VERSION_V1 => "1",
        VERSION_V2 => "2",
        VERSION_V2_1 => "2.1",
        VERSION_V2_2 => "2.2",
        VERSION_V2_3 => "2.3",
        VERSION_V2_4 => "2.4",
        _ => "unknown",
    }
}

/// A container's chunk partition, for inspection tools.
#[derive(Clone, Debug)]
pub struct ChunkTable {
    /// Nominal axis-0 rows per chunk (v1: the whole axis).
    pub chunk_rows: usize,
    /// One entry per independently-decodable chunk, in slab order. For a
    /// v1 container this is a single whole-field entry whose `len` spans
    /// the container body.
    pub entries: Vec<ChunkEntry>,
}

/// Number of independently-decodable chunks in a container (1 for v1),
/// validated exactly as [`crate::ArchiveReader::open`] validates it.
pub fn chunk_count(bytes: &[u8]) -> Result<usize, DecompressError> {
    chunk_table(bytes).map(|t| t.entries.len())
}

/// Read a container's chunk partition (any generation, any scalar type)
/// without decoding any payload.
pub fn chunk_table(bytes: &[u8]) -> Result<ChunkTable, DecompressError> {
    let layout = read_archive_layout(&mut std::io::Cursor::new(bytes))?;
    Ok(ChunkTable { chunk_rows: layout.chunk_rows, entries: layout.entries })
}

/// Seek to `at` and read exactly `len` bytes.
pub(crate) fn read_span<R: std::io::Read + std::io::Seek>(
    src: &mut R,
    at: u64,
    len: usize,
) -> Result<Vec<u8>, DecompressError> {
    let mut buf = vec![0u8; len];
    read_span_into(src, at, &mut buf)?;
    Ok(buf)
}

/// [`read_span`] into a caller-provided buffer: seek to `at` and fill `buf`
/// exactly, with no allocation (the reader allocates the buffer before it
/// takes its source lock).
pub(crate) fn read_span_into<R: std::io::Read + std::io::Seek>(
    src: &mut R,
    at: u64,
    buf: &mut [u8],
) -> Result<(), DecompressError> {
    src.seek(std::io::SeekFrom::Start(at))?;
    src.read_exact(buf)?;
    Ok(())
}

/// Upper bound on the serialized header prefix: fixed bytes + 4 dims of
/// ≤ 10 varint bytes + the f64 bound + the radius varint, with slack.
const HEADER_READ_BYTES: usize = 96;

/// The parsed structural layout of an archive: the header plus every
/// chunk's location, with no payload read.
pub(crate) struct ArchiveLayout {
    pub header: Header,
    pub chunk_rows: usize,
    pub entries: Vec<ChunkEntry>,
}

/// Parse the header and chunk index of any container generation from a
/// seekable source, reading only the header bytes and the index (inline
/// for v2/v2.1, trailer from v2.2 on). The **only** index parser: every
/// reader — streaming, concurrent, in-memory — and every inspection
/// function goes through it, so they cannot disagree on what is valid.
pub(crate) fn read_archive_layout<R: std::io::Read + std::io::Seek>(
    src: &mut R,
) -> Result<ArchiveLayout, DecompressError> {
    let total_len = src.seek(std::io::SeekFrom::End(0))?;
    let head = read_span(src, 0, HEADER_READ_BYTES.min(total_len as usize))?;
    let (header, header_end) = read_header_prefix(&head)?;
    let d0 = header.shape.dim(0);
    let (chunk_rows, entries) = match header.version {
        VERSION_V1 => (
            d0,
            vec![ChunkEntry {
                start_row: 0,
                rows: d0,
                offset: header_end,
                len: (total_len as usize)
                    .checked_sub(header_end)
                    .ok_or(DecompressError::Corrupt("container shorter than header"))?,
                codec: ChunkCodecKind::Sz,
                eb: header.abs_eb,
            }],
        ),
        // Trailer index: the last 12 bytes locate it, the index body must
        // fill it exactly, and the blob extents must tile the region
        // between header and trailer exactly.
        VERSION_V2_2 | VERSION_V2_3 | VERSION_V2_4 => {
            let suffix_at = total_len
                .checked_sub(TRAILER_SUFFIX_LEN as u64)
                .filter(|&s| s >= header_end as u64)
                .ok_or(DecompressError::Corrupt("truncated v2.2 trailer"))?;
            let suffix = read_span(src, suffix_at, TRAILER_SUFFIX_LEN)?;
            if &suffix[8..] != TRAILER_MAGIC {
                return Err(DecompressError::Corrupt("missing v2.2 trailer magic"));
            }
            let trailer_len = u64::from_le_bytes(suffix[..8].try_into().unwrap());
            let trailer_start = suffix_at
                .checked_sub(trailer_len)
                .filter(|&s| s >= header_end as u64)
                .ok_or(DecompressError::Corrupt("v2.2 trailer length overruns archive"))?
                as usize;
            let trailer = read_span(src, trailer_start as u64, trailer_len as usize)?;
            let mut tpos = 0usize;
            let with_eb = header.version != VERSION_V2_2;
            let rolz_allowed = header.version == VERSION_V2_4;
            let (chunk_rows, raw) =
                parse_index_body(&trailer, &mut tpos, true, with_eb, rolz_allowed, d0)?;
            if tpos != trailer.len() {
                return Err(DecompressError::Corrupt("trailing bytes in v2.2 trailer"));
            }
            let entries = entries_from_raw(&header, header_end, raw, trailer_start)?;
            // A gap means the index lengths disagree with what was written.
            if entries.last().map(|e| e.offset + e.len) != Some(trailer_start) {
                return Err(DecompressError::Corrupt("v2.2 blobs do not reach the trailer"));
            }
            (chunk_rows, entries)
        }
        // v2 / v2.1: the index sits between header and blobs. Its byte
        // length is only known after parsing, so size the read from the
        // chunk count: first the two leading varints, then at most 21
        // bytes per entry.
        _ => {
            let tagged = header.version != VERSION_V2;
            let after = (total_len as usize).saturating_sub(header_end);
            let lead = read_span(src, header_end as u64, after.min(20))?;
            let mut p = 0usize;
            let _chunk_rows =
                get_uvarint(&lead, &mut p).ok_or(DecompressError::Corrupt("chunk rows"))?;
            let n =
                get_uvarint(&lead, &mut p).ok_or(DecompressError::Corrupt("chunk count"))? as usize;
            if n == 0 || n > d0 {
                return Err(DecompressError::Corrupt("bad chunk count"));
            }
            let index_max = 20 + n * 21;
            let buf = read_span(src, header_end as u64, after.min(index_max))?;
            let mut p = 0usize;
            let (chunk_rows, raw) = parse_index_body(&buf, &mut p, tagged, false, false, d0)?;
            let entries = entries_from_raw(&header, header_end + p, raw, total_len as usize)?;
            (chunk_rows, entries)
        }
    };
    Ok(ArchiveLayout { header, chunk_rows, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodecChoice, CompressorConfig};
    use rq_grid::NdArray;
    use rq_quant::ErrorBoundMode;

    // One committed archive per read-only generation (and the written
    // one): no current writer can produce bytes 1–5.
    const GOLDEN_V1: &[u8] = include_bytes!("../../../tests/data/golden_v1.rqc");
    const GOLDEN_V2: &[u8] = include_bytes!("../../../tests/data/golden_v2.rqc");
    const GOLDEN_V21: &[u8] = include_bytes!("../../../tests/data/golden_v21.rqc");
    const GOLDEN_V22: &[u8] = include_bytes!("../../../tests/data/golden_v22.rqc");
    const GOLDEN_V23: &[u8] = include_bytes!("../../../tests/data/golden_v23.rqc");
    const GOLDEN_V24: &[u8] = include_bytes!("../../../tests/data/golden_v24.rqc");

    fn sample_header(version: u8) -> Header {
        Header {
            version,
            scalar_tag: <f32 as Scalar>::TAG,
            predictor: PredictorKind::Lorenzo,
            lossless: LosslessStage::RleLzss,
            log_transform: false,
            shape: Shape::d3(10, 20, 30),
            abs_eb: 1e-4,
            radius: 1 << 15,
        }
    }

    /// A 10-row, 3-chunk archive from the live writer (generation v2.4).
    fn live_archive(codec: CodecChoice) -> Vec<u8> {
        let field = NdArray::<f32>::from_fn(Shape::d2(10, 8), |ix| {
            (ix[0] as f32 * 0.4).sin() + ix[1] as f32 * 0.05
        });
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(4)
            .with_codec(codec);
        crate::pipeline::compress(&field, &cfg).unwrap().bytes
    }

    /// Hand-assemble a container with an **inline** index (v2 untagged,
    /// v2.1 tagged) from raw varint values — the only way to get index
    /// contents no writer ever produced.
    fn inline_index_container(
        header: &Header,
        chunk_rows: u64,
        n_chunks: u64,
        entries: &[(u64, u64, Option<u8>)], // (rows, blob len, codec tag)
        blobs: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        write_header_prefix(&mut out, header, header.scalar_tag);
        put_uvarint(&mut out, chunk_rows);
        put_uvarint(&mut out, n_chunks);
        for &(rows, len, tag) in entries {
            put_uvarint(&mut out, rows);
            put_uvarint(&mut out, len);
            out.extend(tag);
        }
        out.extend_from_slice(blobs);
        out
    }

    fn corrupt(bytes: &[u8]) -> &'static str {
        match chunk_table(bytes) {
            Err(DecompressError::Corrupt(what)) => what,
            other => panic!("expected corruption, got {:?}", other.map(|t| t.entries)),
        }
    }

    #[test]
    fn header_prefix_roundtrip() {
        let h = sample_header(VERSION_V2_4);
        let mut bytes = Vec::new();
        write_header_prefix(&mut bytes, &h, h.scalar_tag);
        let (p, end) = read_header_prefix(&bytes).unwrap();
        assert_eq!(end, bytes.len());
        assert_eq!(p.version, VERSION_V2_4);
        assert_eq!(p.shape.dims(), h.shape.dims());
        assert_eq!(p.predictor, h.predictor);
        assert_eq!(p.lossless, h.lossless);
        assert_eq!(p.abs_eb, h.abs_eb);
        assert_eq!(p.radius, h.radius);
        assert_eq!(peek_header(&bytes).unwrap().shape.dims(), h.shape.dims());
        // A radius the quantizer cannot represent is corruption at parse
        // time (it used to reach `LinearQuantizer::new` and panic there).
        for evil in [1u64 << 31, (1 << 32) + 5, u64::MAX] {
            let mut m = bytes[..bytes.len() - 3].to_vec(); // 1 << 15 is a 3-byte varint
            put_uvarint(&mut m, evil);
            assert!(matches!(
                peek_header(&m),
                Err(DecompressError::Corrupt("radius out of range"))
            ));
        }
    }

    #[test]
    fn bad_magic_and_unknown_versions_rejected() {
        assert!(matches!(chunk_table(b"NOPE....."), Err(DecompressError::NotAContainer)));
        assert!(matches!(chunk_table(&[]), Err(DecompressError::NotAContainer)));
        assert!(matches!(peek_header(b"RQMC\x07xxxxxx"), Err(DecompressError::NotAContainer)));
        assert!(matches!(peek_header(b"RQMC\x00xxxxxx"), Err(DecompressError::NotAContainer)));
        for (byte, name) in [(1, "1"), (2, "2"), (3, "2.1"), (4, "2.2"), (5, "2.3"), (6, "2.4")] {
            assert_eq!(generation_name(byte), name);
        }
        assert_eq!(generation_name(7), "unknown");
    }

    #[test]
    fn chunk_blob_roundtrip() {
        let blob =
            write_chunk_blob::<f32>(LosslessStage::RleLzss, &[1, 2, 3], &[9, 8, 7, 6], &[1.5, -2.5], &[0xAB]);
        let (ll, body) = read_chunk_blob::<f32>(&blob).unwrap();
        assert_eq!(ll, LosslessStage::RleLzss);
        assert_eq!(body.codebook, vec![1, 2, 3]);
        assert_eq!(body.payload, vec![9, 8, 7, 6]);
        assert_eq!(body.verbatim, vec![1.5f32, -2.5]);
        assert_eq!(body.side, vec![0xAB]);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[3], &[4], &[], &[9]);
        assert_eq!(read_chunk_blob::<f32>(&blob).unwrap().0, LosslessStage::None);
        // Structure is checked: empty, truncated, and over-long blobs.
        assert!(read_chunk_blob::<f32>(&[]).is_err());
        assert!(read_chunk_blob::<f32>(&blob[..blob.len() - 1]).is_err());
        let mut long = blob.clone();
        long.push(0);
        assert!(matches!(
            read_chunk_blob::<f32>(&long),
            Err(DecompressError::Corrupt("trailing bytes in chunk blob"))
        ));
    }

    #[test]
    fn truncated_and_overflowing_sections_rejected() {
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[1, 2, 3], &[9; 100], &[], &[]);
        assert!(matches!(
            read_chunk_blob::<f32>(&blob[..blob.len() - 50]),
            Err(DecompressError::Corrupt(_))
        ));
        // A section-length varint decoding to ~u64::MAX must not overflow
        // the bounds arithmetic (it used to panic on `pos + len`): replace
        // the codebook length (value 3, right after the flag byte) with the
        // 10-byte LEB128 encoding of u64::MAX.
        assert_eq!(blob[1], 3);
        let mut evil = vec![blob[0]];
        evil.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        evil.extend(&blob[2..]);
        assert!(matches!(read_chunk_blob::<f32>(&evil), Err(DecompressError::Corrupt(_))));
    }

    #[test]
    fn codec_kind_tag_roundtrip() {
        for k in [ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Rolz] {
            assert_eq!(ChunkCodecKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(ChunkCodecKind::from_tag(3), None);
    }

    #[test]
    fn every_generation_parses_to_one_layout() {
        use ChunkCodecKind::{Rolz, Sz, Zfp};
        // (fixture, version byte, chunk_rows, codec tags, per-chunk bounds
        // if the index carries them).
        type Case = (&'static [u8], u8, usize, &'static [ChunkCodecKind], Option<&'static [f64]>);
        let cases: [Case; 6] = [
            (GOLDEN_V1, 1, 8, &[Sz], None),
            (GOLDEN_V2, 2, 4, &[Sz, Sz, Sz, Sz], None),
            (GOLDEN_V21, 3, 4, &[Sz, Zfp, Zfp], None),
            (GOLDEN_V22, 4, 4, &[Sz, Sz, Sz, Sz], None),
            (GOLDEN_V23, 5, 4, &[Sz, Sz, Sz, Zfp], Some(&[2e-3, 1e-4, 5e-4, 5e-5])),
            (GOLDEN_V24, 6, 4, &[Sz, Sz, Rolz, Rolz], Some(&[1e-3, 5e-5, 2e-4, 1e-4])),
        ];
        for (bytes, version, chunk_rows, codecs, ebs) in cases {
            let (header, header_end) = read_header_prefix(bytes).unwrap();
            assert_eq!(header.version, version);
            let table = chunk_table(bytes).unwrap();
            assert_eq!(table.chunk_rows, chunk_rows, "v{version}");
            assert_eq!(chunk_count(bytes).unwrap(), codecs.len(), "v{version}");
            let tags: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
            assert_eq!(tags, codecs, "v{version}");
            // Entries tile axis 0 and the blob region back to back.
            let mut row = 0;
            for (i, e) in table.entries.iter().enumerate() {
                assert_eq!(e.start_row, row, "v{version}");
                row += e.rows;
                let want = ebs.map_or(header.abs_eb, |p| p[i]);
                assert_eq!(e.eb, want, "v{version} chunk {i}");
                if i > 0 {
                    let prev = table.entries[i - 1];
                    assert_eq!(e.offset, prev.offset + prev.len, "v{version}");
                }
            }
            assert_eq!(row, header.shape.dim(0), "v{version}");
            // An inline index sits between header and blobs; a trailer
            // index (and v1's none) leaves the blobs right after the header.
            let first = table.entries[0].offset;
            if matches!(version, 2 | 3) {
                assert!(first > header_end, "v{version}");
            } else {
                assert_eq!(first, header_end, "v{version}");
            }
            let trailered = version >= 4;
            assert_eq!(&bytes[bytes.len() - 4..] == TRAILER_MAGIC, trailered, "v{version}");
        }
    }

    #[test]
    fn every_live_codec_writes_generation_v2_4() {
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            let bytes = live_archive(codec);
            let (header, header_end) = read_header_prefix(&bytes).unwrap();
            assert_eq!(header.version, VERSION_V2_4, "{codec:?}");
            assert_eq!(&bytes[bytes.len() - 4..], TRAILER_MAGIC);
            let table = chunk_table(&bytes).unwrap();
            assert_eq!(table.chunk_rows, 4);
            assert_eq!(table.entries.len(), 3);
            assert_eq!(table.entries[0].offset, header_end);
            // Fixed-bound archives carry the header bound in every entry.
            assert!(table.entries.iter().all(|e| e.eb == header.abs_eb));
        }
    }

    #[test]
    fn trailer_roundtrip_with_tags_and_bounds() {
        let mut h = sample_header(VERSION_V2_4);
        h.shape = Shape::d2(10, 4);
        let sz_blob = write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2, 2], &[0.5], &[]);
        let rolz_blob = vec![5u8, 5, 5, 5, 5]; // opaque to the index layer
        let mut bytes = Vec::new();
        write_header_prefix(&mut bytes, &h, h.scalar_tag);
        let header_end = bytes.len();
        bytes.extend_from_slice(&sz_blob);
        bytes.extend_from_slice(&rolz_blob);
        write_trailer(
            &mut bytes,
            6,
            &[
                (6, ChunkCodecKind::Sz, sz_blob.len(), 1e-4),
                (4, ChunkCodecKind::Rolz, rolz_blob.len(), 3e-5),
            ],
        );
        let table = chunk_table(&bytes).unwrap();
        assert_eq!(table.chunk_rows, 6);
        assert_eq!(table.entries.len(), 2);
        assert_eq!(table.entries[0].offset, header_end);
        assert_eq!((table.entries[0].codec, table.entries[0].eb), (ChunkCodecKind::Sz, 1e-4));
        assert_eq!((table.entries[1].codec, table.entries[1].eb), (ChunkCodecKind::Rolz, 3e-5));
        assert_eq!(table.entries[1].start_row, 6);
        let e = table.entries[1];
        assert_eq!(&bytes[e.offset..e.offset + e.len], &rolz_blob[..]);
    }

    #[test]
    fn unknown_and_premature_codec_tags_rejected() {
        // Inline v2.1 index: the byte just before the first blob is the
        // last entry's codec tag.
        let tag_at = chunk_table(GOLDEN_V21).unwrap().entries[0].offset - 1;
        let mut evil = GOLDEN_V21.to_vec();
        evil[tag_at] = 0x7F;
        assert_eq!(corrupt(&evil), "unknown chunk codec tag");
        // The rolz tag is known, but the generation predates the codec.
        evil[tag_at] = ChunkCodecKind::Rolz.tag();
        assert_eq!(corrupt(&evil), "rolz codec tag in pre-v2.4 container");
        // Same for a v2.3 trailer entry (tag, then the 8-byte bound, then
        // the 12-byte suffix) — and a v2.4 archive that really holds rolz
        // chunks turns corrupt when relabelled v2.3.
        let mut evil = GOLDEN_V23.to_vec();
        let tag_at = evil.len() - TRAILER_SUFFIX_LEN - 8 - 1;
        evil[tag_at] = ChunkCodecKind::Rolz.tag();
        assert_eq!(corrupt(&evil), "rolz codec tag in pre-v2.4 container");
        let mut relabelled = live_archive(CodecChoice::Rolz);
        assert!(chunk_table(&relabelled).is_ok());
        relabelled[4] = VERSION_V2_3;
        assert_eq!(corrupt(&relabelled), "rolz codec tag in pre-v2.4 container");
    }

    #[test]
    fn inline_index_bad_tiling_rejected() {
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(10, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let len = blob.len() as u64;
        let two = [blob.clone(), blob].concat();
        // Rows sum to 8 ≠ 10.
        let bytes = inline_index_container(&h, 6, 2, &[(6, len, None), (2, len, None)], &two);
        assert_eq!(corrupt(&bytes), "chunk rows do not tile axis 0");
        // Two rows varints of 2^63 and 2^63+8: an unchecked running sum
        // would overflow in debug and wrap to exactly dim(0) in release,
        // smuggling a 2^63-row slab past the tiling check.
        h.shape = Shape::d2(8, 4);
        let bytes = inline_index_container(
            &h,
            8,
            2,
            &[(1 << 63, len, None), ((1 << 63) + 8, len, None)],
            &two,
        );
        assert_eq!(corrupt(&bytes), "chunk rows do not tile axis 0");
        // The same checks guard a real archive: shrink the v2 fixture's
        // first chunk from 4 rows to 3.
        let (_, header_end) = read_header_prefix(GOLDEN_V2).unwrap();
        let mut evil = GOLDEN_V2.to_vec();
        assert_eq!(&evil[header_end..header_end + 3], &[4, 4, 4]); // chunk_rows, n_chunks, rows[0]
        evil[header_end + 2] = 3;
        assert_eq!(corrupt(&evil), "chunk rows do not tile axis 0");
    }

    #[test]
    fn chunk_count_beyond_axis_0_rejected_by_every_entry_point() {
        // An index claiming more chunks than axis-0 rows can never tile
        // (every chunk holds ≥ 1 row). `chunk_count` used to skip this.
        let mut h = sample_header(VERSION_V2);
        h.shape = Shape::d2(3, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        let len = blob.len() as u64;
        let blobs = [blob.clone(), blob.clone(), blob.clone(), blob].concat();
        let bytes = inline_index_container(&h, 1, 4, &[(1, len, None); 4], &blobs);
        assert_eq!(corrupt(&bytes), "bad chunk count");
        assert!(matches!(chunk_count(&bytes), Err(DecompressError::Corrupt("bad chunk count"))));
        assert!(matches!(
            crate::ArchiveReader::open(std::io::Cursor::new(&bytes[..])).map(|r| r.n_chunks()),
            Err(DecompressError::Corrupt("bad chunk count"))
        ));
        assert!(matches!(
            crate::decompress::<f32>(&bytes),
            Err(DecompressError::Corrupt("bad chunk count"))
        ));
    }

    #[test]
    fn truncated_blob_region_rejected() {
        for bytes in [GOLDEN_V2, GOLDEN_V21] {
            assert!(matches!(
                chunk_table(&bytes[..bytes.len() - 2]),
                Err(DecompressError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn truncated_trailer_rejected() {
        let live = live_archive(CodecChoice::Sz);
        for bytes in [GOLDEN_V22, GOLDEN_V23, GOLDEN_V24, &live[..]] {
            for cut in 1..TRAILER_SUFFIX_LEN + 3 {
                assert!(
                    chunk_table(&bytes[..bytes.len() - cut]).is_err(),
                    "cut {cut} bytes off the trailer must fail"
                );
            }
        }
    }

    #[test]
    fn bad_trailer_length_rejected() {
        let live = live_archive(CodecChoice::Sz);
        for good in [GOLDEN_V22, &live[..]] {
            // Trailer length pointing past the start of the archive.
            let mut evil = good.to_vec();
            let at = evil.len() - TRAILER_SUFFIX_LEN;
            evil[at..at + 8].copy_from_slice(&(u64::MAX).to_le_bytes());
            assert_eq!(corrupt(&evil), "v2.2 trailer length overruns archive");
            // Wrong closing magic.
            let mut evil = good.to_vec();
            let n = evil.len();
            evil[n - 1] ^= 0xff;
            assert_eq!(corrupt(&evil), "missing v2.2 trailer magic");
            // Trailer length one byte short: the index body no longer
            // parses cleanly or the blobs no longer reach the trailer.
            let mut evil = good.to_vec();
            let tlen = u64::from_le_bytes(evil[at..at + 8].try_into().unwrap());
            evil[at..at + 8].copy_from_slice(&(tlen - 1).to_le_bytes());
            assert!(chunk_table(&evil).is_err());
        }
    }

    #[test]
    fn overrunning_blob_length_rejected() {
        // An index length that would put a blob on top of the trailer.
        let mut h = sample_header(VERSION_V2_4);
        h.shape = Shape::d2(10, 4);
        let blob = write_chunk_blob::<f32>(LosslessStage::None, &[1], &[2], &[], &[]);
        let short = write_chunk_blob::<f32>(LosslessStage::None, &[], &[], &[], &[]);
        // Claim the first blob is longer than it is: entries overlap the
        // second blob and the total no longer reaches the trailer cleanly.
        let mut out = Vec::new();
        write_header_prefix(&mut out, &h, h.scalar_tag);
        out.extend_from_slice(&blob);
        out.extend_from_slice(&short);
        write_trailer(
            &mut out,
            6,
            &[
                (6, ChunkCodecKind::Sz, blob.len() + short.len() + 50, h.abs_eb),
                (4, ChunkCodecKind::Sz, short.len(), h.abs_eb),
            ],
        );
        assert!(chunk_table(&out).is_err());
    }

    #[test]
    fn bad_per_chunk_bounds_rejected() {
        let live = live_archive(CodecChoice::Sz);
        for good in [GOLDEN_V23, GOLDEN_V24, &live[..]] {
            // The last entry's bound is the last trailer field before the
            // 12-byte suffix.
            let eb_at = good.len() - TRAILER_SUFFIX_LEN - 8;
            for evil in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-4] {
                let mut m = good.to_vec();
                m[eb_at..eb_at + 8].copy_from_slice(&evil.to_le_bytes());
                assert_eq!(corrupt(&m), "bad per-chunk error bound", "eb {evil}");
            }
        }
        // A trailer of v2.2-sized entries (no bound column) under a v2.3
        // version byte must be corruption, not a silent fallback.
        let mut relabelled = GOLDEN_V22.to_vec();
        relabelled[4] = VERSION_V2_3;
        assert!(chunk_table(&relabelled).is_err());
    }
}
