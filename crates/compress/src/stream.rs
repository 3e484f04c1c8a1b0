//! The archive engine: one writer and one reader over `std::io` streams.
//!
//! Every archive in the workspace — one-shot, streaming, planned, catalog
//! segment, CLI — is produced by [`ArchiveWriter`] and decoded by
//! [`ArchiveReader`]; the one-shot [`crate::compress`] /
//! [`crate::decompress`] are these sessions over an in-memory sink and
//! source.
//!
//! * [`ArchiveWriter`] accepts axis-0 slabs incrementally, runs the
//!   per-chunk codec scheduler (including [`CodecChoice::Auto`]) on each
//!   slab as it arrives using the worker pool, and writes container
//!   **v2.4** — chunk blobs first, chunk index in a trailer — so nothing
//!   but the small index and at most a chunk's worth of carry-over rows
//!   is ever buffered. The sink only needs [`Write`]; archives can stream
//!   into a pipe.
//! * [`ArchiveReader`] parses the header and chunk index lazily from any
//!   [`Read`]` + `[`Seek`] source (all six container generations) and
//!   decodes on demand: [`ArchiveReader::read_all`],
//!   [`ArchiveReader::read_chunk`], and [`ArchiveReader::read_rows`],
//!   which touches only the chunks intersecting the requested row range
//!   (verifiable through [`ArchiveReader::stats`]). With
//!   [`ArchiveReader::with_threads`] decoding fans out to a worker pool,
//!   and [`ArchiveReader::decompress_rows`] /
//!   [`ArchiveReader::decompress_to_writer`] stream the field out in row
//!   order without ever holding it resident. Every read takes `&self` and
//!   a clone shares the open archive, so one reader serves overlapping
//!   requests from many threads, each with its own [`ReadStats`].
//!
//! The reader is one decode engine: one open-archive state behind an
//! [`Arc`], one fetch (a seek+read under the source lock into a buffer of
//! the read's own, for a file, a stream and an archive in memory alike), one
//! row planner and one set of counters. Each read allocates its own buffers,
//! so no decoder ever sees a stale one. Writer and reader share one worker
//! pool: `threads` workers claim chunks in order as they free up and fetch
//! their own blobs, at most `2 × threads` chunks ahead of the caller, who
//! takes the results in row order. At one thread all runs inline on the
//! caller.
//!
//! Encoding a chunk is a pure function of its data, shape and bound, so
//! archive bytes depend neither on the worker-thread count nor on how
//! rows were batched into `write_slab` calls.
//!
//! ```
//! use rq_compress::{ArchiveReader, ArchiveWriter, CompressorConfig};
//! use rq_grid::{NdArray, Shape};
//! use rq_predict::PredictorKind;
//! use rq_quant::ErrorBoundMode;
//!
//! let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
//!     .chunked(8);
//! // Write four 8-row slabs of a 32×16 field into an in-memory sink
//! // (any `Write` works the same way — a `File`, a socket, a pipe).
//! let mut writer = ArchiveWriter::<f32, _>::create(Vec::new(), Shape::d2(32, 16), &cfg).unwrap();
//! for slab_idx in 0..4 {
//!     let slab = NdArray::<f32>::from_fn(Shape::d2(8, 16), |ix| {
//!         (((slab_idx * 8 + ix[0]) as f32) * 0.2).sin() + ix[1] as f32 * 0.01
//!     });
//!     writer.write_slab(&slab).unwrap();
//! }
//! let finished = writer.finalize().unwrap();
//!
//! // Random-access region read: only intersecting chunks are decoded.
//! let reader = ArchiveReader::open(std::io::Cursor::new(finished.sink)).unwrap();
//! let rows = reader.read_rows::<f32>(10..22).unwrap();
//! assert_eq!(rows.shape().dims(), &[12, 16]);
//! assert_eq!(reader.stats().chunks_decoded, 2); // rows 10..22 span chunks 1 and 2
//! ```

use crate::chunked::{decode_entry_blob, resolved_chunk_rows, run_in_order};
use crate::codec::{decode_own, ChunkCodec, ChunkStats, SzChunkCodec, ZfpChunkCodec};
use crate::config::{CodecChoice, CompressorConfig, LosslessStage};
use crate::container::{
    read_archive_layout, read_span_into, write_header_prefix, write_trailer, ArchiveLayout,
    ChunkCodecKind, ChunkEntry, ChunkTable, CompressError, DecompressError, Header, VERSION_V2_4,
};
use crate::pipeline::{resolve_bound, Transform};
use crate::report::CompressionReport;
use rq_grid::{slab_chunks, ChunkSpec, NdArray, Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, LinearQuantizer, DEFAULT_RADIUS};
use std::io::{Read, Seek, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Per-chunk encode core
// ---------------------------------------------------------------------------

/// One encoded chunk produced by [`SlabEncoder::encode_chunks`].
struct EncodedChunk {
    pub rows: usize,
    pub codec: ChunkCodecKind,
    pub blob: Vec<u8>,
    pub stats: ChunkStats,
    /// Absolute bound this chunk was quantized with (the shared bound, or
    /// the chunk's planned bound in quality-targeted mode).
    pub eb: f64,
}

/// The per-chunk encode core of [`ArchiveWriter`]: codec policy
/// resolution (fixed sz, zfp or rolz, or the ratio-driven scheduler) plus
/// the worker pool.
struct SlabEncoder {
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
    abs_eb: f64,
    transform: Transform,
    lossless: LosslessStage,
    codec: CodecChoice,
    threads: usize,
}

impl SlabEncoder {
    /// Build the encoder from a config and the resolved bound/transform.
    fn from_cfg(
        cfg: &CompressorConfig,
        abs_eb: f64,
        transform: Transform,
    ) -> Result<SlabEncoder, CompressError> {
        if cfg.codec == CodecChoice::Zfp && transform != Transform::Identity {
            return Err(CompressError::Unsupported(
                "point-wise relative bounds need the sz codec (zfp has no log-domain escape \
                 path); use codec sz or auto"
                    .into(),
            ));
        }
        Ok(SlabEncoder {
            predictor: cfg.predictor,
            quantizer: LinearQuantizer::new(abs_eb, DEFAULT_RADIUS),
            abs_eb,
            transform,
            lossless: cfg.lossless,
            codec: cfg.codec,
            threads: cfg.resolved_threads(),
        })
    }

    /// Encode a batch of chunks of `data` concurrently on the worker
    /// pool; results come back in chunk order. `plan` holds one absolute
    /// bound per chunk (quality-targeted sessions); without it every chunk
    /// takes the encoder's shared bound. Each chunk's quantizer/tolerance
    /// — and, under [`CodecChoice::Auto`], the scheduler's decision — uses
    /// that chunk's bound, so a uniform plan yields the fixed-bound bytes.
    ///
    /// A `mirror` as long as `data` receives, chunk by chunk, the values a
    /// decode of the blobs yields ([`ChunkCodec::encode_mirrored`]).
    fn encode_chunks<T: Scalar>(
        &self,
        data: &[T],
        chunks: Vec<ChunkSpec>,
        plan: Option<&[f64]>,
        mut mirror: Option<&mut [T]>,
    ) -> Result<Vec<EncodedChunk>, CompressError> {
        debug_assert!(plan.is_none_or(|p| p.len() == chunks.len()));
        debug_assert!(mirror.as_ref().is_none_or(|m| m.len() == data.len()));
        // Chunks tile `data` in order, so each takes the next `c.len`
        // values of the mirror.
        let items: Vec<(ChunkSpec, f64, Option<&mut [T]>)> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let slice = mirror.take().map(|m| {
                    let (head, tail) = m.split_at_mut(c.len);
                    mirror = Some(tail);
                    head
                });
                (c, plan.map_or(self.abs_eb, |p| p[i]), slice)
            })
            .collect();
        let mut encoded = Vec::with_capacity(items.len());
        let encode = |(c, eb, mirror): (ChunkSpec, f64, Option<&mut [T]>)|
         -> Result<EncodedChunk, CompressError> {
            let sz = SzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, DEFAULT_RADIUS),
                self.lossless,
            )
            .with_transform(self.transform);
            let zfp = ZfpChunkCodec::new(eb);
            let rolz = crate::rolz::RolzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, DEFAULT_RADIUS),
            )
            .with_transform(self.transform);
            let slab = &data[c.offset..c.offset + c.len];
            // `ready` carries the scheduler's winning probe when it already
            // compressed the whole (small) slab — no second pass then.
            let (kind, ready) = match self.codec {
                CodecChoice::Sz => (ChunkCodecKind::Sz, None),
                CodecChoice::Zfp => (ChunkCodecKind::Zfp, None),
                CodecChoice::Rolz => (ChunkCodecKind::Rolz, None),
                CodecChoice::Auto => {
                    if self.transform != Transform::Identity {
                        // Log-domain configs: the probes are not
                        // calibrated, every chunk stays on SZ.
                        (ChunkCodecKind::Sz, None)
                    } else {
                        let (decision, ready) = crate::scheduler::choose_codec_with_blob(
                            slab,
                            c.shape,
                            self.predictor,
                            eb,
                            DEFAULT_RADIUS,
                        );
                        (decision.codec, ready)
                    }
                }
            };
            let codec: &dyn ChunkCodec<T> = match kind {
                ChunkCodecKind::Sz => &sz,
                ChunkCodecKind::Zfp => &zfp,
                ChunkCodecKind::Rolz => &rolz,
            };
            let (blob, stats) = match (ready, mirror) {
                (Some(ready), None) => ready,
                (Some(ready), Some(mirror)) => {
                    decode_own(codec, &ready.0, c.shape, mirror)?;
                    ready
                }
                (None, None) => codec.encode(slab, c.shape)?,
                (None, Some(mirror)) => codec.encode_mirrored(slab, c.shape, mirror)?,
            };
            Ok(EncodedChunk { rows: c.rows, codec: kind, blob, stats, eb })
        };
        run_in_order(items, self.threads, encode, |ec| {
            encoded.push(ec);
            Ok(())
        })?;
        Ok(encoded)
    }
}

// ---------------------------------------------------------------------------
// ArchiveWriter
// ---------------------------------------------------------------------------

/// A finalized streaming archive: the sink handed back, plus the final
/// compression report and total archive size.
pub struct FinishedArchive<W> {
    /// The sink passed to [`ArchiveWriter::create`], flushed, positioned
    /// after the last trailer byte.
    pub sink: W,
    /// Aggregated per-stage measurements, as the one-shot
    /// [`crate::compress_with_report`] would return them.
    pub report: CompressionReport,
    /// Total archive bytes written (header + blobs + trailer).
    pub bytes_written: u64,
}

/// Incremental compression session writing container v2.4 to any
/// [`Write`] sink with bounded memory.
///
/// Created with the full field [`Shape`] up front (the header is written
/// immediately); axis-0 slabs then arrive through
/// [`ArchiveWriter::write_slab`] in row order, are cut into
/// `cfg.chunking` chunks, compressed on the worker pool, and their blobs
/// appended to the sink right away. [`ArchiveWriter::finalize`] appends
/// the trailer chunk index.
///
/// Peak memory is the caller's slab plus less than `chunk_rows` rows of
/// carry-over and the per-thread encoder state — independent of the
/// field and archive sizes.
///
/// Two configuration limits follow from single-pass operation:
///
/// * [`ErrorBoundMode::ValueRangeRelative`] needs the whole field's value
///   range before the first slab can be quantized, so `create` rejects it
///   with [`CompressError::InvalidConfig`]; resolve it to an absolute
///   bound first (one streaming min/max pass) or use the one-shot API.
/// * [`Chunking::Serial`](crate::Chunking::Serial) is one whole-field
///   chunk, which forces the writer to buffer every row until the last
///   slab arrives — legal, but it defeats the point; chunk the config.
///
/// See the [module docs](self) for a complete write/read example.
pub struct ArchiveWriter<T: Scalar, W: Write> {
    sink: W,
    shape: Shape,
    row_elems: usize,
    chunk_rows: usize,
    enc: SlabEncoder,
    /// Per-chunk planned bounds (quality-targeted mode); `None` writes
    /// the shared bound into every chunk.
    plan: Option<Vec<f64>>,
    /// Carry-over rows not yet forming a complete chunk.
    buf: Vec<T>,
    /// Rows already encoded and written.
    rows_done: usize,
    /// Chunk index accumulated for the trailer: (rows, codec, blob len,
    /// eb).
    index: Vec<(usize, ChunkCodecKind, usize, f64)>,
    /// The report of the chunks written so far.
    report: CompressionReport,
    bytes_written: u64,
}

impl<T: Scalar, W: Write> ArchiveWriter<T, W> {
    /// Open a session: validate `cfg`, resolve the bound, and write the
    /// container header to `sink`.
    ///
    /// Fails with [`CompressError::InvalidConfig`] for configurations a
    /// single pass cannot honor (see the type docs) and for structurally
    /// invalid configs such as a literal `Chunking::Rows(0)`.
    pub fn create(sink: W, shape: Shape, cfg: &CompressorConfig) -> Result<Self, CompressError> {
        cfg.validate().map_err(CompressError::InvalidConfig)?;
        if matches!(cfg.bound, ErrorBoundMode::ValueRangeRelative(_)) {
            return Err(CompressError::InvalidConfig(
                "a value-range-relative bound needs the whole field's range before the first \
                 slab; resolve it to ErrorBoundMode::Abs first or use the one-shot compress"
                    .into(),
            ));
        }
        // The bound is range-independent here (checked above), so the
        // range argument is never read.
        let (abs_eb, transform) = resolve_bound(cfg, f64::NAN)?;
        Self::create_resolved(sink, shape, cfg, abs_eb, transform, None)
    }

    /// Open a **quality-targeted** session: one absolute error bound per
    /// axis-0 chunk, recorded next to the codec tags in the trailer index
    /// and authoritative for decoding.
    ///
    /// `ebs` must hold exactly one finite positive bound per chunk of the
    /// partition `cfg`'s chunking resolves to for `shape` (see
    /// [`crate::resolved_chunk_rows`]); the header's `abs_eb` records
    /// `max(ebs)` — the archive-wide worst-case pointwise guarantee.
    /// `cfg.bound` is ignored: planned bounds are always absolute, so
    /// point-wise relative configs are rejected with
    /// [`CompressError::InvalidConfig`].
    pub fn create_planned(
        sink: W,
        shape: Shape,
        cfg: &CompressorConfig,
        ebs: Vec<f64>,
    ) -> Result<Self, CompressError> {
        cfg.validate().map_err(CompressError::InvalidConfig)?;
        if matches!(cfg.bound, ErrorBoundMode::PointwiseRelative(_)) {
            return Err(CompressError::InvalidConfig(
                "per-chunk planned bounds are absolute; a point-wise relative config cannot \
                 be planned"
                    .into(),
            ));
        }
        let chunk_rows = resolved_chunk_rows(cfg, shape);
        let n_chunks = shape.dim(0).div_ceil(chunk_rows);
        if ebs.len() != n_chunks {
            return Err(CompressError::InvalidConfig(format!(
                "plan has {} bounds but the chunking yields {} chunks ({} rows each over {} \
                 rows)",
                ebs.len(),
                n_chunks,
                chunk_rows,
                shape.dim(0)
            )));
        }
        let mut max_eb = 0.0f64;
        for (i, &eb) in ebs.iter().enumerate() {
            if !(eb.is_finite() && eb > 0.0) {
                return Err(CompressError::InvalidBound(format!(
                    "planned bound for chunk {i} is {eb}"
                )));
            }
            max_eb = max_eb.max(eb);
        }
        Self::create_resolved(sink, shape, cfg, max_eb, Transform::Identity, Some(ebs))
    }

    /// The constructor behind every session, with a validated `cfg`, the
    /// bound already resolved and the optional per-chunk plan: writes the
    /// header (always generation v2.4). The one-shot
    /// [`crate::compress`] enters here directly, having resolved the
    /// bound against the whole field.
    pub(crate) fn create_resolved(
        mut sink: W,
        shape: Shape,
        cfg: &CompressorConfig,
        abs_eb: f64,
        transform: Transform,
        plan: Option<Vec<f64>>,
    ) -> Result<Self, CompressError> {
        let enc = SlabEncoder::from_cfg(cfg, abs_eb, transform)?;
        let header = Header {
            version: VERSION_V2_4,
            scalar_tag: T::TAG,
            predictor: cfg.predictor,
            lossless: cfg.lossless,
            log_transform: transform != Transform::Identity,
            shape,
            abs_eb,
            radius: DEFAULT_RADIUS,
        };
        let mut head = Vec::with_capacity(96);
        write_header_prefix(&mut head, &header, T::TAG);
        sink.write_all(&head)?;
        let report = CompressionReport::of_no_chunks(&enc.quantizer, shape.len(), T::BITS);
        Ok(ArchiveWriter {
            sink,
            shape,
            row_elems: shape.dims()[1..].iter().product::<usize>().max(1),
            chunk_rows: resolved_chunk_rows(cfg, shape),
            enc,
            plan,
            buf: Vec::new(),
            rows_done: 0,
            index: Vec::new(),
            report,
            bytes_written: head.len() as u64,
        })
    }

    /// Rows accepted so far (encoded or carried over).
    fn rows_accepted(&self) -> usize {
        self.rows_done + self.buf.len() / self.row_elems
    }

    /// Nominal axis-0 rows per chunk this session resolved to.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Archive bytes written so far (header + finished chunk blobs).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Append the next axis-0 slab (rows `rows_so_far..rows_so_far+k`).
    ///
    /// The slab's trailing dimensions must match the field shape given to
    /// [`Self::create`]; its axis-0 extent is free — slab boundaries need
    /// not align with chunk boundaries, the writer carries partial chunks
    /// over. Feeding slabs of several `chunk_rows` at once keeps the
    /// worker pool busy.
    ///
    /// A call that fails accepts none of its slab: the session's row
    /// count is where it was before the call. After an I/O error the sink
    /// may hold part of a chunk, so the archive cannot be completed.
    pub fn write_slab(&mut self, slab: &NdArray<T>) -> Result<(), CompressError> {
        let s = slab.shape();
        if s.ndim() != self.shape.ndim() || s.dims()[1..] != self.shape.dims()[1..] {
            return Err(CompressError::InvalidConfig(format!(
                "slab shape {:?} does not match the field's trailing dims {:?}",
                s.dims(),
                self.shape.dims()
            )));
        }
        let total = self.rows_accepted() + s.dim(0);
        if total > self.shape.dim(0) {
            return Err(CompressError::InvalidConfig(format!(
                "slabs cover {total} rows but the field has {}",
                self.shape.dim(0)
            )));
        }
        // With nothing carried over, whole chunks are encoded straight
        // from the caller's slab — the one-shot path never copies the
        // field. Only rows short of a chunk are carried to the next call.
        let held = self.buf.len();
        let mut carried = std::mem::take(&mut self.buf);
        let fresh = held == 0;
        if !fresh {
            carried.extend_from_slice(slab.as_slice());
        }
        let data = if fresh { slab.as_slice() } else { &carried[..] };
        let rows = data.len() / self.row_elems;
        // The slab that completes the field also completes its last,
        // possibly short, chunk.
        let ready = if total == self.shape.dim(0) { rows } else { rows - rows % self.chunk_rows };
        let ready_elems = ready * self.row_elems;
        let encoded =
            if ready > 0 { self.encode_rows(&data[..ready_elems], ready, None) } else { Ok(()) };
        match (&encoded, fresh) {
            (Ok(()), true) => self.buf.extend_from_slice(&data[ready_elems..]),
            (Ok(()), false) => {
                carried.drain(..ready_elems);
                self.buf = carried;
            }
            // A failed call accepts none of its slab: the rows carried
            // over from earlier calls stay buffered.
            (Err(_), _) => {
                carried.truncate(held);
                self.buf = carried;
            }
        }
        encoded
    }

    /// Encode `rows` rows of `data` as the next chunks and write them; a
    /// `mirror` as long as `data` receives what a decode of them yields.
    pub(crate) fn encode_rows(
        &mut self,
        data: &[T],
        rows: usize,
        mirror: Option<&mut [T]>,
    ) -> Result<(), CompressError> {
        let chunks = slab_chunks(self.shape.with_rows(rows), self.chunk_rows);
        // Slabs arrive in row order, so the batch's chunks are the next
        // `chunks.len()` entries of the whole-field plan.
        let base = self.index.len();
        let plan = self.plan.as_ref().map(|p| &p[base..base + chunks.len()]);
        let encoded = self.enc.encode_chunks(data, chunks, plan, mirror)?;
        // Count a batch only once all of it is written, so a failed call
        // leaves the session's row accounting where it was.
        for ec in &encoded {
            self.sink.write_all(&ec.blob)?;
        }
        for ec in encoded {
            self.bytes_written += ec.blob.len() as u64;
            self.rows_done += ec.rows;
            self.index.push((ec.rows, ec.codec, ec.blob.len(), ec.eb));
            self.report.add_chunk(ec.codec, &ec.stats);
        }
        Ok(())
    }

    /// Write the trailer index, flush the sink, and hand it back with the
    /// aggregated report.
    ///
    /// Fails with [`CompressError::InvalidConfig`] if the slabs written
    /// do not cover the field's axis-0 extent exactly. Dropping the
    /// writer without calling `finalize` leaves the sink without a
    /// trailer — an unreadable archive.
    pub fn finalize(mut self) -> Result<FinishedArchive<W>, CompressError> {
        if self.rows_accepted() != self.shape.dim(0) {
            return Err(CompressError::InvalidConfig(format!(
                "slabs cover {} of the field's {} rows",
                self.rows_accepted(),
                self.shape.dim(0)
            )));
        }
        let mut trailer = Vec::new();
        write_trailer(&mut trailer, self.chunk_rows, &self.index);
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        self.bytes_written += trailer.len() as u64;
        let mut report = self.report;
        report.container_bytes = self.bytes_written as usize;
        Ok(FinishedArchive { sink: self.sink, report, bytes_written: self.bytes_written })
    }
}

// ---------------------------------------------------------------------------
// ArchiveReader
// ---------------------------------------------------------------------------

/// Decode-side counters of one [`ArchiveReader`] session, for verifying
/// that region reads touch only the chunks they must.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks in the archive's index.
    pub chunks_total: usize,
    /// Chunk blobs decoded so far (a chunk decoded twice counts twice).
    pub chunks_decoded: u64,
    /// Compressed blob bytes fetched from the source so far.
    pub blob_bytes_read: u64,
    /// Chunks decoded into a scratch slab and then copied into place —
    /// only boundary chunks of a row range that crops them mid-chunk.
    /// Chunk-aligned reads decode straight into the destination, so this
    /// stays `0` for them (asserted in the differential tests).
    pub reorder_copies: u64,
}

/// Random-access decompression session over any [`Read`]` + `[`Seek`]
/// source, for all six container generations.
///
/// [`Self::open`] reads only the header and chunk index (from v2.2 on,
/// via the trailer at the end of the source); payload bytes are fetched and
/// decoded on demand by [`Self::read_all`], [`Self::read_chunk`] and
/// [`Self::read_rows`] — the latter decodes exactly the chunks whose row
/// ranges intersect the request, which [`Self::stats`] makes observable.
///
/// # Parallel decode
///
/// [`Self::with_threads`] sets the decode worker count. Every path runs
/// on one pool whose workers claim chunks in row order as they free up,
/// each fetching its own blobs: one seek+read under the source lock into a
/// freshly allocated buffer, whatever the source (a file, a stream, an
/// archive held in memory). Decoding runs outside the lock. Region reads
/// ([`Self::read_all`], [`Self::read_rows`]) decode straight into the
/// output; ordered streaming ([`Self::decompress_rows`],
/// [`Self::decompress_to_writer`]) decodes each chunk into a slab of its
/// own, delivered in row order and then dropped, at most `2 × threads`
/// chunks ahead, so peak memory stays `O(threads × chunk)`. At one thread
/// every path decodes inline on the caller. Results, and the first error
/// with the rows before it, are the single-threaded decode's.
///
/// # Sharing
///
/// Every read takes `&self`, and cloning is an [`Arc`] bump: all clones
/// read the one open source, and requests on different threads overlap
/// in everything but the seek+read of a fetch. Each request reports its
/// own counters ([`Self::read_rows_with_stats`], [`Self::read_chunk`]);
/// [`Self::stats`] aggregates every clone and request.
///
/// ```
/// use rq_compress::{ArchiveReader, ArchiveWriter, CompressorConfig};
/// use rq_grid::{NdArray, Shape};
/// use rq_predict::PredictorKind;
/// use rq_quant::ErrorBoundMode;
///
/// let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(8);
/// let field = NdArray::<f32>::from_fn(Shape::d2(32, 16), |ix| (ix[0] as f32 * 0.2).sin());
/// let mut w = ArchiveWriter::<f32, _>::create(Vec::new(), field.shape(), &cfg).unwrap();
/// w.write_slab(&field).unwrap();
/// let bytes = w.finalize().unwrap().sink;
///
/// let reader = ArchiveReader::open(std::io::Cursor::new(bytes)).unwrap();
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let r = reader.clone();
///         // Rows t*6..t*6+10 always straddle a chunk boundary.
///         s.spawn(move || r.read_rows::<f32>(t * 6..t * 6 + 10).unwrap());
///     }
/// });
/// assert_eq!(reader.stats().chunks_decoded, 4 * 2); // every request decoded 2 chunks
/// ```
pub struct ArchiveReader<R: Read + Seek> {
    shared: Arc<ReaderShared<R>>,
    /// Decode worker threads (1 = decode on the calling thread).
    threads: usize,
}

/// The name of the reader's shareable form when it was a type of its
/// own. Every [`ArchiveReader`] is shareable.
pub type ConcurrentReader<R> = ArchiveReader<R>;

impl<R: Read + Seek> Clone for ArchiveReader<R> {
    fn clone(&self) -> Self {
        ArchiveReader { shared: Arc::clone(&self.shared), threads: self.threads }
    }
}

impl ArchiveReader<std::fs::File> {
    /// Open an archive file: [`Self::open`] over the opened file. A file
    /// that shrinks while it is open gives a typed error on the first
    /// fetch past its new end ([`DecompressError::Io`], `UnexpectedEof`),
    /// not a crash.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, DecompressError> {
        Self::open(std::fs::File::open(path)?)
    }
}

impl<R: Read + Seek> ArchiveReader<R> {
    /// Open an archive: parse the header and locate every chunk, without
    /// reading any payload.
    pub fn open(mut src: R) -> Result<Self, DecompressError> {
        let layout = read_archive_layout(&mut src)?;
        let shared = ReaderShared {
            src: Mutex::new(src),
            layout,
            counters: Counters::default(),
        };
        Ok(ArchiveReader { shared: Arc::new(shared), threads: 1 })
    }

    /// Set the decode worker-thread count (`0` = one per available CPU,
    /// `1` = decode serially on the calling thread, whatever the source).
    /// The workers claim chunks as they free up, at most `2 × threads`
    /// ahead of the chunk the caller delivers next. Decoded output is
    /// byte-identical at every thread count.
    ///
    /// The pool is clamped to `available_parallelism`: on a machine with
    /// fewer cores than `threads`, extra workers only add dispatch and
    /// context-switch overhead (measurably *slower* than serial decode on
    /// a 1-CPU host) without any more decode bandwidth to use. Pass the
    /// count through [`Self::with_threads_exact`] to oversubscribe
    /// deliberately.
    pub fn with_threads(self, threads: usize) -> Self {
        let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
        self.with_threads_exact(if threads == 0 { cpus } else { threads.min(cpus) })
    }

    /// [`Self::with_threads`] without the `available_parallelism` clamp:
    /// exactly `threads` workers (`0` is treated as `1`), even beyond the
    /// core count, and a window of `2 × threads` chunks. Decoded bytes are
    /// identical either way; this exists so tests and benchmarks can
    /// exercise the pool's ordering and window on machines with few cores.
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The decode worker-thread count in effect.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The archive's parsed header.
    pub fn header(&self) -> &Header {
        &self.shared.layout.header
    }

    /// Nominal axis-0 rows per chunk (the last chunk may hold fewer).
    pub fn chunk_rows(&self) -> usize {
        self.shared.layout.chunk_rows
    }

    /// Number of independently-decodable chunks.
    pub fn n_chunks(&self) -> usize {
        self.shared.layout.entries.len()
    }

    /// The located chunk entries, in slab order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.shared.layout.entries
    }

    /// The chunk partition in [`ChunkTable`] form (as
    /// [`crate::chunk_table`] returns for in-memory archives).
    pub fn chunk_table(&self) -> ChunkTable {
        ChunkTable { chunk_rows: self.chunk_rows(), entries: self.entries().to_vec() }
    }

    /// Decode counters accumulated since [`Self::open`], across every
    /// clone and request.
    pub fn stats(&self) -> ReadStats {
        self.shared.stats()
    }

    /// Decode a single chunk (random access). Returns the slab's first
    /// axis-0 row, the decoded slab, and this request's [`ReadStats`].
    pub fn read_chunk<T: Scalar>(
        &self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>, ReadStats), DecompressError> {
        self.shared.read_chunk(chunk)
    }
}

impl<R: Read + Seek + Send> ArchiveReader<R> {
    /// Decode the axis-0 row range `rows` (non-empty, within the field),
    /// touching only the chunks that intersect it, on the decode pool.
    ///
    /// Returns an array of shape `[rows.len(), dims[1..]]` whose elements
    /// equal the corresponding rows of a full decompression exactly.
    pub fn read_rows<T: Scalar>(&self, rows: Range<usize>) -> Result<NdArray<T>, DecompressError> {
        self.read_rows_with_stats(rows).map(|(out, _)| out)
    }

    /// [`Self::read_rows`], also returning this request's own
    /// [`ReadStats`] (chunks decoded and blob bytes fetched by this call
    /// alone — the aggregate view stays available via [`Self::stats`]).
    pub fn read_rows_with_stats<T: Scalar>(
        &self,
        rows: Range<usize>,
    ) -> Result<(NdArray<T>, ReadStats), DecompressError> {
        self.shared.read_rows(rows, self.threads)
    }

    /// Decode the whole field on the decode pool (memory: the output,
    /// plus a blob buffer per worker).
    pub fn read_all<T: Scalar>(&self) -> Result<NdArray<T>, DecompressError> {
        self.read_rows(0..self.header().shape.dim(0))
    }

    /// Stream the whole field through `emit` as axis-0 slabs in row
    /// order, decoding chunks on the worker pool behind a window of
    /// `2 × threads` chunks. Unlike [`Self::read_all`] the field is never
    /// resident: peak memory is `O(threads × chunk)`.
    ///
    /// `emit` receives each chunk's decoded elements exactly once, in row
    /// order. The first failing chunk or `emit` call ends the decode with
    /// its error, every chunk before it emitted, at every thread count.
    pub fn decompress_rows<T: Scalar>(
        &self,
        mut emit: impl FnMut(&[T]) -> std::io::Result<()>,
    ) -> Result<(), DecompressError> {
        let chunks = (0..self.n_chunks()).collect();
        let decode = |chunk| self.shared.read_chunk(chunk).map(|(_, slab, _)| slab);
        run_in_order(chunks, self.threads, decode, |slab| {
            emit(slab.as_slice()).map_err(DecompressError::Io)
        })
    }

    /// Decode the whole field into `sink` as little-endian scalars in row
    /// order, chunk-parallel with bounded memory (the streaming backend
    /// of `rqm decompress --threads`). Returns the number of values
    /// written.
    pub fn decompress_to_writer<T: Scalar, W: Write>(
        &self,
        sink: &mut W,
    ) -> Result<u64, DecompressError> {
        let mut values = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        self.decompress_rows::<T>(|slab| {
            buf.clear();
            buf.reserve(slab.len() * T::BYTES);
            for &v in slab {
                v.write_le(&mut buf);
            }
            values += slab.len() as u64;
            sink.write_all(&buf)
        })?;
        Ok(values)
    }
}

/// Scalar-tag check shared by every read path.
fn check_scalar_tag<T: Scalar>(header: &Header) -> Result<(), DecompressError> {
    if header.scalar_tag != T::TAG {
        return Err(DecompressError::ScalarMismatch {
            expected: T::TAG,
            found: header.scalar_tag,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The decode engine
// ---------------------------------------------------------------------------

/// The state of one open archive, shared by every clone of its reader:
/// the source behind a mutex (held only while a fetch seeks and reads —
/// decoding runs unlocked), the parsed layout and the aggregate counters.
/// `Sync` whenever the source is `Send`, so the workers of a run and the
/// clones of a reader all share it.
struct ReaderShared<R> {
    src: Mutex<R>,
    layout: ArchiveLayout,
    counters: Counters,
}

/// The aggregate decode counters of one open archive, across every
/// request and every handle on it.
#[derive(Default)]
struct Counters {
    chunks_decoded: AtomicU64,
    blob_bytes_read: AtomicU64,
    reorder_copies: AtomicU64,
}

/// One chunk's decode destination: the element range `take` of the
/// decoded chunk lands in `dst` (disjoint across jobs, so workers write
/// concurrently without coordination).
struct SliceJob<'o, T> {
    entry: ChunkEntry,
    cshape: Shape,
    take: Range<usize>,
    dst: &'o mut [T],
}

/// Decode one fetched blob into its job's destination slice. Decodes
/// in place when the job takes the whole chunk; only a partial take
/// (boundary rows of a region read) goes through a slab of its own and a
/// copy. Returns whether the copy happened, so callers can count
/// [`ReadStats::reorder_copies`].
fn decode_slice_job<T: Scalar>(
    header: &Header,
    blob: &[u8],
    job: SliceJob<'_, T>,
) -> Result<bool, DecompressError> {
    let SliceJob { entry, cshape, take, dst } = job;
    if take.start == 0 && take.end == cshape.len() {
        decode_entry_blob(blob, header, entry, cshape, dst)?;
        Ok(false)
    } else {
        let mut whole = vec![T::zero(); cshape.len()];
        decode_entry_blob(blob, header, entry, cshape, &mut whole)?;
        dst.copy_from_slice(&whole[take]);
        Ok(true)
    }
}

/// Add one decode's counters to a request's.
fn tally(req: &mut ReadStats, run: ReadStats) {
    req.chunks_decoded += run.chunks_decoded;
    req.blob_bytes_read += run.blob_bytes_read;
    req.reorder_copies += run.reorder_copies;
}

impl<R: Read + Seek> ReaderShared<R> {
    fn stats(&self) -> ReadStats {
        let c = &self.counters;
        ReadStats {
            chunks_total: self.layout.entries.len(),
            chunks_decoded: c.chunks_decoded.load(Ordering::Relaxed),
            blob_bytes_read: c.blob_bytes_read.load(Ordering::Relaxed),
            reorder_copies: c.reorder_copies.load(Ordering::Relaxed),
        }
    }

    /// The unit of work of every read: fetch one job's blob (one
    /// seek+read under the source lock into a buffer allocated before the
    /// lock is taken), decode it into the job's destination outside the
    /// lock, count it in the aggregate; returns it as a request's counters.
    /// A short read (a source that shrank) is `Io(UnexpectedEof)`.
    fn decode<T: Scalar>(&self, job: SliceJob<'_, T>) -> Result<ReadStats, DecompressError> {
        let entry = job.entry;
        let mut blob = vec![0u8; entry.len];
        // A statement of its own: the lock guard is a temporary of this
        // statement, so it is released before the decode below.
        read_span_into(
            &mut *self.src.lock().unwrap_or_else(|p| p.into_inner()),
            entry.offset as u64,
            &mut blob,
        )?;
        let copied = decode_slice_job(&self.layout.header, &blob, job)? as u64;
        self.counters.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.counters.blob_bytes_read.fetch_add(entry.len as u64, Ordering::Relaxed);
        self.counters.reorder_copies.fetch_add(copied, Ordering::Relaxed);
        let (chunks_total, blob_bytes_read) = (self.layout.entries.len(), entry.len as u64);
        Ok(ReadStats { chunks_total, chunks_decoded: 1, blob_bytes_read, reorder_copies: copied })
    }

    /// Chunk `chunk` decoded whole: the row planner's read of the chunk's
    /// own rows, on the calling thread. Returns its first row, the slab,
    /// and this request's counters.
    fn read_chunk<T: Scalar>(
        &self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>, ReadStats), DecompressError> {
        let (header, entries) = (&self.layout.header, &self.layout.entries);
        check_scalar_tag::<T>(header)?;
        let Some(&entry) = entries.get(chunk) else {
            return Err(DecompressError::ChunkOutOfRange {
                requested: chunk,
                available: entries.len(),
            });
        };
        let mut req = ReadStats { chunks_total: entries.len(), ..ReadStats::default() };
        let rows = entry.start_row..entry.start_row + entry.rows;
        let out = plan_rows(header, entries, rows, |jobs| {
            for (_, job) in jobs {
                tally(&mut req, self.decode(job)?);
            }
            Ok(())
        })?;
        Ok((entry.start_row, out, req))
    }

    /// The region read: `rows`, each intersecting chunk decoded on the
    /// pool straight into the output, and their counters.
    fn read_rows<T: Scalar>(
        &self,
        rows: Range<usize>,
        threads: usize,
    ) -> Result<(NdArray<T>, ReadStats), DecompressError>
    where
        R: Send,
    {
        let mut req = ReadStats { chunks_total: self.layout.entries.len(), ..ReadStats::default() };
        let out = plan_rows(&self.layout.header, &self.layout.entries, rows, |jobs| {
            let decode = |(_, job)| self.decode(job);
            run_in_order(jobs, threads, decode, |run| {
                tally(&mut req, run);
                Ok(())
            })
        })?;
        Ok((out, req))
    }
}

/// The row planner of every region read: check `rows` (non-empty, within
/// the field), allocate the output and hand `decode` one job per chunk
/// that intersects `rows`, in chunk order and with its index. Chunks tile
/// axis 0 in order, so the jobs' `dst` slices cover the output
/// contiguously.
fn plan_rows<T: Scalar>(
    header: &Header,
    entries: &[ChunkEntry],
    rows: Range<usize>,
    decode: impl FnOnce(Vec<(usize, SliceJob<'_, T>)>) -> Result<(), DecompressError>,
) -> Result<NdArray<T>, DecompressError> {
    check_scalar_tag::<T>(header)?;
    let shape = header.shape;
    let d0 = shape.dim(0);
    if rows.start >= rows.end || rows.end > d0 {
        return Err(DecompressError::RowsOutOfRange { requested_end: rows.end, rows: d0 });
    }
    let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    let mut out = vec![T::zero(); rows.len() * row_elems];
    let mut jobs = Vec::new();
    let mut rest: &mut [T] = &mut out;
    for (idx, &entry) in entries.iter().enumerate() {
        let e_start = entry.start_row;
        let e_end = e_start + entry.rows;
        if e_end <= rows.start || e_start >= rows.end {
            continue;
        }
        let lo = rows.start.max(e_start);
        let hi = rows.end.min(e_end);
        let (dst, tail) = rest.split_at_mut((hi - lo) * row_elems);
        rest = tail;
        let take = (lo - e_start) * row_elems..(hi - e_start) * row_elems;
        jobs.push((idx, SliceJob { entry, cshape: shape.with_rows(entry.rows), take, dst }));
    }
    decode(jobs)?;
    Ok(NdArray::from_vec(shape.with_rows(rows.len()), out))
}

// ---------------------------------------------------------------------------
// ChunkSource: the separable fetch+decode stage
// ---------------------------------------------------------------------------

/// A source of whole decoded chunks of one archive — the **fetch +
/// decode** stages of serving a read, separated from **delivery** so
/// middleware can slot between them. A decoded-chunk cache wraps a
/// `ChunkSource`, is itself one, and everything downstream (row assembly,
/// a network daemon) is oblivious to whether a chunk came from the codec
/// or from the cache; see the `rq-serve` crate.
///
/// [`ArchiveReader`] is the canonical implementation: fetch takes the
/// source lock, decode runs unlocked, and every fetched chunk counts in
/// the aggregate [`ReadStats`]. [`assemble_rows`] is the matching
/// delivery stage.
///
/// Unlike [`ArchiveReader::read_rows`] — which decodes boundary chunks
/// straight into a cropped output slice — a `ChunkSource` always
/// materializes whole chunks, because whole chunks are the unit a cache
/// can share between overlapping requests. The [`Arc`] return lets a
/// caching layer hand the same decoded slab to many concurrent readers
/// without copying it per request.
pub trait ChunkSource<T: Scalar>: Send + Sync {
    /// The archive's parsed header.
    fn header(&self) -> &Header;

    /// Nominal axis-0 rows per chunk (the last chunk may hold fewer).
    fn chunk_rows(&self) -> usize;

    /// The located chunk entries, in slab order.
    fn entries(&self) -> &[ChunkEntry];

    /// Chunk `idx`, fully decoded, in shared ownership.
    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[T]>, DecompressError>;
}

impl<T: Scalar, R: Read + Seek + Send> ChunkSource<T> for ArchiveReader<R> {
    fn header(&self) -> &Header {
        &self.shared.layout.header
    }

    fn chunk_rows(&self) -> usize {
        self.shared.layout.chunk_rows
    }

    fn entries(&self) -> &[ChunkEntry] {
        &self.shared.layout.entries
    }

    fn fetch_chunk(&self, idx: usize) -> Result<Arc<[T]>, DecompressError> {
        self.read_chunk::<T>(idx).map(|(_, slab, _)| slab.into_vec().into())
    }
}

/// The **delivery** stage over any [`ChunkSource`]: decode the axis-0 row
/// range `rows` by fetching every intersecting chunk whole — through
/// whatever caching or request coalescing the source provides — and
/// copying the requested rows out.
///
/// Returns an array of shape `[rows.len(), dims[1..]]` whose elements
/// equal the corresponding rows of a full decompression exactly, as
/// [`ArchiveReader::read_rows`] does; the two differ only in that this
/// path materializes whole chunks (the cacheable unit) where `read_rows`
/// crops boundary chunks during decode.
pub fn assemble_rows<T: Scalar, S: ChunkSource<T> + ?Sized>(
    src: &S,
    rows: Range<usize>,
) -> Result<NdArray<T>, DecompressError> {
    plan_rows(src.header(), src.entries(), rows, |jobs| {
        for (idx, job) in jobs {
            job.dst.copy_from_slice(&src.fetch_chunk(idx)?[job.take]);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{chunk_table, peek_header};
    use crate::pipeline::{compress, decompress};
    use std::io::Cursor;

    fn wavy(shape: Shape) -> NdArray<f32> {
        let mut lin = 0u64;
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.13 * (a + 1) as f64).sin() * (8.0 / (a + 1) as f64);
            }
            lin += 1;
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.05;
            v as f32
        })
    }

    fn cfg() -> CompressorConfig {
        CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_threads(2)
    }

    /// Stream `field` through a writer in `slab_rows`-row slabs.
    fn stream_archive(field: &NdArray<f32>, cfg: &CompressorConfig, slab_rows: usize) -> Vec<u8> {
        let shape = field.shape();
        let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, cfg).unwrap();
        let mut row = 0;
        while row < shape.dim(0) {
            let rows = slab_rows.min(shape.dim(0) - row);
            let slab = NdArray::from_vec(
                shape.with_rows(rows),
                field.as_slice()[row * row_elems..(row + rows) * row_elems].to_vec(),
            );
            w.write_slab(&slab).unwrap();
            row += rows;
        }
        w.finalize().unwrap().sink
    }

    #[test]
    fn writer_bytes_independent_of_slab_batching() {
        // The archive must be a pure function of (field, cfg): feeding
        // rows in different slab sizes — aligned or not with chunk
        // boundaries — must produce identical bytes.
        let field = wavy(Shape::d3(25, 8, 6));
        let reference = stream_archive(&field, &cfg(), 25);
        for slab_rows in [1, 4, 6, 7, 13] {
            let bytes = stream_archive(&field, &cfg(), slab_rows);
            assert_eq!(bytes, reference, "slab_rows={slab_rows}");
        }
        assert_eq!(peek_header(&reference).unwrap().version, 6);
        // The one-shot API is the same session fed one slab.
        assert_eq!(compress(&field, &cfg()).unwrap().bytes, reference);
    }

    #[test]
    fn streamed_archive_decodes_via_in_memory_paths() {
        let field = wavy(Shape::d3(20, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 20);
        let back = decompress::<f32>(&bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        let wide = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads_exact(3);
        assert_eq!(back.as_slice(), wide.read_all::<f32>().unwrap().as_slice());
        assert_eq!(chunk_table(&bytes).unwrap().entries.len(), 4);
    }

    #[test]
    fn reader_reads_all_chunks_and_rows() {
        let field = wavy(Shape::d3(23, 6, 5));
        let bytes = stream_archive(&field, &cfg(), 9);
        let full = decompress::<f32>(&bytes).unwrap();
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.n_chunks(), 4); // 6+6+6+5
        let all = r.read_all::<f32>().unwrap();
        assert_eq!(all.as_slice(), full.as_slice());
        let (start, slab, _) = r.read_chunk::<f32>(2).unwrap();
        assert_eq!(start, 12);
        assert_eq!(slab.as_slice(), &full.as_slice()[12 * 30..18 * 30]);
        assert!(matches!(
            r.read_chunk::<f32>(4),
            Err(DecompressError::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn read_rows_decodes_only_intersecting_chunks() {
        let field = wavy(Shape::d2(30, 12));
        let bytes = stream_archive(&field, &cfg(), 30); // chunks of 6 rows
        let full = decompress::<f32>(&bytes).unwrap();
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        // Rows 7..11 live entirely inside chunk 1 (rows 6..12).
        let part = r.read_rows::<f32>(7..11).unwrap();
        assert_eq!(part.shape().dims(), &[4, 12]);
        assert_eq!(part.as_slice(), &full.as_slice()[7 * 12..11 * 12]);
        assert_eq!(r.stats().chunks_decoded, 1, "one intersecting chunk");
        // Rows 5..19 intersect chunks 0, 1, 2, 3.
        let part = r.read_rows::<f32>(5..19).unwrap();
        assert_eq!(part.as_slice(), &full.as_slice()[5 * 12..19 * 12]);
        assert_eq!(r.stats().chunks_decoded, 1 + 4);
        // Out-of-range and empty requests are errors.
        assert!(matches!(
            r.read_rows::<f32>(0..31),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            r.read_rows::<f32>(3..3),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
    }

    #[test]
    fn reader_handles_all_container_generations() {
        // Generations 1–5 come from the committed fixtures (no writer
        // emits them any more), generation 6 from the live writer.
        let live = stream_archive(&wavy(Shape::d2(24, 10)), &cfg(), 7);
        let archives: [(&str, &[u8]); 7] = [
            ("v1", include_bytes!("../../../tests/data/golden_v1.rqc")),
            ("v2", include_bytes!("../../../tests/data/golden_v2.rqc")),
            ("v2.1", include_bytes!("../../../tests/data/golden_v21.rqc")),
            ("v2.2", include_bytes!("../../../tests/data/golden_v22.rqc")),
            ("v2.3", include_bytes!("../../../tests/data/golden_v23.rqc")),
            ("v2.4", include_bytes!("../../../tests/data/golden_v24.rqc")),
            ("live", &live),
        ];
        for (name, bytes) in archives {
            let full = decompress::<f32>(bytes).unwrap();
            let r = ArchiveReader::open(Cursor::new(bytes)).unwrap();
            let all = r.read_all::<f32>().unwrap();
            assert_eq!(all.as_slice(), full.as_slice(), "{name}: read_all");
            let shape = r.header().shape;
            let row_elems = shape.len() / shape.dim(0);
            let rows = shape.dim(0) / 3..shape.dim(0) - 1;
            let part = r.read_rows::<f32>(rows.clone()).unwrap();
            assert_eq!(
                part.as_slice(),
                &full.as_slice()[rows.start * row_elems..rows.end * row_elems],
                "{name}: read_rows"
            );
        }
    }

    #[test]
    fn writer_rejects_unresolvable_and_invalid_configs() {
        let shape = Shape::d2(16, 4);
        let rel = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::ValueRangeRelative(1e-3),
        )
        .chunked(4);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &rel),
            Err(CompressError::InvalidConfig(_))
        ));
        let mut zero_rows = cfg();
        zero_rows.chunking = crate::Chunking::Rows(0);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &zero_rows),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn writer_rejects_mismatched_and_excess_slabs() {
        let mut w =
            ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), Shape::d2(8, 4), &cfg()).unwrap();
        // Wrong trailing dims.
        assert!(matches!(
            w.write_slab(&NdArray::<f32>::zeros(Shape::d2(2, 5))),
            Err(CompressError::InvalidConfig(_))
        ));
        // Too many rows.
        assert!(matches!(
            w.write_slab(&NdArray::<f32>::zeros(Shape::d2(9, 4))),
            Err(CompressError::InvalidConfig(_))
        ));
        // Short coverage fails at finalize.
        w.write_slab(&NdArray::<f32>::zeros(Shape::d2(4, 4))).unwrap();
        assert!(matches!(w.finalize(), Err(CompressError::InvalidConfig(_))));
    }

    #[test]
    fn failed_write_slab_accepts_nothing() {
        // A sink that refuses one write: the failed call must leave the
        // rows carried over from earlier slabs in place, so repeating it
        // completes the very archive an undisturbed session writes.
        struct RefuseOnce(std::rc::Rc<std::cell::Cell<bool>>, Vec<u8>);
        impl Write for RefuseOnce {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0.replace(false) {
                    return Err(std::io::Error::other("sink refused"));
                }
                self.1.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let field = wavy(Shape::d2(8, 4));
        let rows = |r: Range<usize>| {
            let part = &field.as_slice()[r.start * 4..r.end * 4];
            NdArray::from_vec(Shape::d2(r.len(), 4), part.to_vec())
        };
        let refuse = std::rc::Rc::new(std::cell::Cell::new(false));
        let sink = RefuseOnce(refuse.clone(), Vec::new());
        let mut w = ArchiveWriter::<f32, _>::create(sink, field.shape(), &cfg()).unwrap();
        w.write_slab(&rows(0..3)).unwrap(); // short of the 6-row chunk: carried over
        refuse.set(true);
        assert!(matches!(w.write_slab(&rows(3..8)), Err(CompressError::Io(_))));
        assert_eq!(w.rows_accepted(), 3);
        w.write_slab(&rows(3..8)).unwrap();
        assert_eq!(w.finalize().unwrap().sink.1, stream_archive(&field, &cfg(), 8));
    }

    #[test]
    fn auto_codec_streaming_roundtrip() {
        // The scheduler runs per chunk inside the writer exactly as in
        // the one-shot adaptive pipeline.
        let field = rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(24, 10, 10), 12, 40.0);
        let c = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let bytes = stream_archive(&field, &c, 8);
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "adaptive archives are v2.4");
        let table = chunk_table(&bytes).unwrap();
        let kinds: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
        // The smooth and turbulent halves land on different codecs (which
        // ones is the scheduler's call — the per-regime winners are pinned
        // down in the scheduler's own tests).
        assert!(kinds[..2] != kinds[2..], "mixed regimes should split: {kinds:?}");
        // Identical chunk bytes to the one-shot v2.4 container.
        let one_shot = compress(&field, &c).unwrap().bytes;
        let t_one = chunk_table(&one_shot).unwrap();
        for (a, b) in table.entries.iter().zip(&t_one.entries) {
            assert_eq!(a.codec, b.codec);
            assert_eq!(
                &bytes[a.offset..a.offset + a.len],
                &one_shot[b.offset..b.offset + b.len]
            );
        }
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let all = r.read_all::<f32>().unwrap();
        for (&x, &y) in field.as_slice().iter().zip(all.as_slice()) {
            assert!((x - y).abs() <= 1e-4 * 1.001);
        }
    }

    #[test]
    fn planned_writer_roundtrips_per_chunk_bounds() {
        // Heterogeneous plan: every chunk must honor *its own* bound and
        // the index must echo the plan.
        let field = wavy(Shape::d3(24, 8, 6));
        let plan = vec![1e-2, 1e-4, 2e-3, 5e-5];
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &cfg(),
            plan.clone(),
        )
        .unwrap();
        w.write_slab(&field).unwrap();
        let bytes = w.finalize().unwrap().sink;
        assert_eq!(peek_header(&bytes).unwrap().version, 6);
        assert_eq!(peek_header(&bytes).unwrap().abs_eb, 1e-2, "header bound = max(plan)");
        let table = chunk_table(&bytes).unwrap();
        let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
        assert_eq!(ebs, plan);
        // Per-chunk bound conformance through every decode path.
        let full = decompress::<f32>(&bytes).unwrap();
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let streamed = r.read_all::<f32>().unwrap();
        assert_eq!(full.as_slice(), streamed.as_slice());
        let row_elems = 8 * 6;
        for (entry, &eb) in table.entries.iter().zip(&plan) {
            let lo = entry.start_row * row_elems;
            let hi = (entry.start_row + entry.rows) * row_elems;
            for (a, b) in field.as_slice()[lo..hi].iter().zip(&full.as_slice()[lo..hi]) {
                assert!(((a - b).abs() as f64) <= eb * (1.0 + 1e-6), "chunk bound {eb}");
            }
        }
        // A tighter chunk really is reconstructed more accurately than a
        // loose one (the plan is not a no-op).
        let err_of = |i: usize| -> f64 {
            let e = table.entries[i];
            field.as_slice()[e.start_row * row_elems..(e.start_row + e.rows) * row_elems]
                .iter()
                .zip(&full.as_slice()[e.start_row * row_elems..(e.start_row + e.rows) * row_elems])
                .map(|(a, b)| ((a - b).abs()) as f64)
                .fold(0.0, f64::max)
        };
        assert!(err_of(3) <= 5e-5 * 1.000001);
        assert!(err_of(0) > 5e-5, "loose chunk should actually use its budget");
    }

    #[test]
    fn uniform_plan_archive_equals_fixed_bound_archive() {
        // A plan with one bound everywhere is the fixed-bound session:
        // the whole archive, index included, is byte-identical.
        let field = wavy(Shape::d3(20, 6, 5));
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &cfg(),
            vec![1e-3; 4],
        )
        .unwrap();
        w.write_slab(&field).unwrap();
        assert_eq!(w.finalize().unwrap().sink, stream_archive(&field, &cfg(), 20));
    }

    #[test]
    fn planned_writer_rejects_bad_plans() {
        let shape = Shape::d2(16, 4);
        // Wrong plan length.
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                shape,
                &cfg(),
                vec![1e-3; 2]
            ),
            Err(CompressError::InvalidConfig(_))
        ));
        // Non-finite / non-positive bounds.
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            assert!(matches!(
                ArchiveWriter::<f32, Vec<u8>>::create_planned(
                    Vec::new(),
                    shape,
                    &cfg(),
                    vec![1e-3, bad, 1e-3]
                ),
                Err(CompressError::InvalidBound(_))
            ));
        }
        // Point-wise relative configs cannot be planned.
        let rel = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(1e-3),
        )
        .chunked(6);
        assert!(matches!(
            ArchiveWriter::<f32, Vec<u8>>::create_planned(Vec::new(), shape, &rel, vec![1e-3; 3]),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn planned_auto_codec_schedules_per_chunk_bound() {
        // Under Auto, the scheduler sees each chunk's own bound: the same
        // turbulent slab flips from rolz (tight bound, everything escapes
        // to verbatim — which the residual coder carries cheapest) to sz
        // (moderate bound, in-range high-entropy symbols where plain
        // Huffman beats rolz's token overhead) purely by plan.
        let field = rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(12, 10, 10), 0, 40.0);
        let c = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto);
        let archive = |plan: Vec<f64>| {
            let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                field.shape(),
                &c,
                plan,
            )
            .unwrap();
            w.write_slab(&field).unwrap();
            w.finalize().unwrap().sink
        };
        let kinds = |b: &[u8]| -> Vec<ChunkCodecKind> {
            chunk_table(b).unwrap().entries.iter().map(|e| e.codec).collect()
        };
        // One archive, one slab repeated, two bounds: the codec follows
        // the chunk's planned bound, not the archive-wide one.
        let mixed = archive(vec![1e-4, 1.0]);
        assert_eq!(kinds(&mixed), vec![ChunkCodecKind::Rolz, ChunkCodecKind::Sz]);
        let tight = archive(vec![1e-4, 1e-4]);
        assert_eq!(kinds(&tight), vec![ChunkCodecKind::Rolz, ChunkCodecKind::Rolz]);
    }

    #[test]
    fn chunk_source_matches_read_paths() {
        // The trait view of a ConcurrentReader must deliver the same
        // bytes as its direct read paths, count decodes in the aggregate
        // stats, and type out-of-range / scalar errors.
        let field = wavy(Shape::d2(30, 12));
        let bytes = stream_archive(&field, &cfg(), 30); // chunks of 6 rows
        let full = decompress::<f32>(&bytes).unwrap();
        let reader = ConcurrentReader::open(Cursor::new(bytes)).unwrap();
        let src: &dyn ChunkSource<f32> = &reader;
        assert_eq!(src.entries().len(), 5);
        assert_eq!(src.chunk_rows(), 6);
        let chunk = src.fetch_chunk(2).unwrap();
        assert_eq!(&chunk[..], &full.as_slice()[12 * 12..18 * 12]);
        assert_eq!(reader.stats().chunks_decoded, 1);
        assert!(matches!(
            src.fetch_chunk(5),
            Err(DecompressError::ChunkOutOfRange { requested: 5, available: 5 })
        ));
        // Delivery over the trait == the reader's own read_rows, for
        // interior, boundary-straddling and full-field ranges.
        for range in [7..11, 3..25, 0..30] {
            let a = assemble_rows(src, range.clone()).unwrap();
            let b = reader.read_rows::<f32>(range).unwrap();
            assert_eq!(a.shape().dims(), b.shape().dims());
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert!(matches!(
            assemble_rows::<f32, _>(src, 0..31),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            assemble_rows::<f32, _>(src, 4..4),
            Err(DecompressError::RowsOutOfRange { .. })
        ));
        assert!(matches!(
            assemble_rows::<f64, _>(&reader, 0..4),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn with_threads_clamps_to_cores_and_exact_does_not() {
        let field = wavy(Shape::d2(12, 6));
        let bytes = stream_archive(&field, &cfg(), 12);
        let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads(cpus + 7);
        assert_eq!(r.threads(), cpus, "with_threads must clamp to the core count");
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads_exact(cpus + 7);
        assert_eq!(r.threads(), cpus + 7, "with_threads_exact must not clamp");
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap().with_threads(0);
        assert_eq!(r.threads(), cpus, "0 = one per core");
    }

    #[test]
    fn reader_scalar_mismatch_detected() {
        let field = wavy(Shape::d2(12, 6));
        let bytes = stream_archive(&field, &cfg(), 12);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert!(matches!(
            r.read_all::<f64>(),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn poisoned_scratch_slab_is_fully_overwritten() {
        // A partial-take decode into a garbage-filled destination must
        // still yield exactly the reference rows.
        let field = wavy(Shape::d3(18, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 18);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let header = r.header().clone();
        let entry = r.entries()[1];
        let cshape = header.shape.with_rows(entry.rows);
        let row_elems: usize = header.shape.dims()[1..].iter().product();
        // Reference: rows 1.. of chunk 1 via the normal read path.
        let want =
            r.read_rows::<f32>(entry.start_row + 1..entry.start_row + entry.rows).unwrap();

        let take = row_elems..cshape.len();
        let mut dst = vec![f32::NAN; take.end - take.start];
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        let copied =
            decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst })
                .unwrap();
        assert!(copied, "a partial take must decode whole and copy");
        assert_eq!(&dst[..], want.as_slice());
        assert!(dst.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zfp_zero_blocks_overwrite_dirty_slabs() {
        // An all-zero field makes the zfp encoder emit empty blocks; the
        // decoder must store explicit zeros rather than assume a zeroed
        // destination. The whole take decodes straight into `dst`.
        let field = NdArray::<f32>::from_fn(Shape::d3(12, 8, 8), |_| 0.0);
        let zcfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_codec(CodecChoice::Zfp);
        let bytes = stream_archive(&field, &zcfg, 12);
        let r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let header = r.header().clone();
        let entry = r.entries()[0];
        let cshape = header.shape.with_rows(entry.rows);
        let row_elems: usize = header.shape.dims()[1..].iter().product();
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        for take in [0..cshape.len(), row_elems..cshape.len()] {
            let mut dst = vec![123.0f32; take.end - take.start];
            decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst })
                .unwrap();
            assert!(dst.iter().all(|&v| v == 0.0), "dirty slab leaked through zfp zero blocks");
        }
    }

    #[test]
    fn repeated_reads_are_byte_identical() {
        // Later reads on one reader must match the first read exactly;
        // aligned reads must never reorder-copy.
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        for threads in [1usize, 2] {
            let r = ArchiveReader::open(Cursor::new(&bytes[..]))
                .unwrap()
                .with_threads_exact(threads);
            let first = r.read_rows::<f32>(0..24).unwrap();
            for _ in 0..3 {
                let again = r.read_rows::<f32>(0..24).unwrap();
                assert_eq!(first.as_slice(), again.as_slice(), "threads={threads}");
            }
            assert_eq!(r.stats().reorder_copies, 0, "aligned reads must decode in place");
            // Cropping rows 3..15 cuts chunks 0 and 2 mid-chunk.
            let _ = r.read_rows::<f32>(3..15).unwrap();
            assert_eq!(r.stats().reorder_copies, 2, "threads={threads}");
        }
    }

    #[test]
    fn open_path_reader_matches_in_memory() {
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        let dir = std::env::temp_dir().join("rqm_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("file_{}.rqm", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let want_r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let want = want_r.read_all::<f32>().unwrap();

        for threads in [1usize, 2, 4] {
            let r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            assert_eq!(want.as_slice(), r.read_all::<f32>().unwrap().as_slice());
            // Ordered streaming over the same file.
            let mut streamed: Vec<f32> = Vec::new();
            let r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            r.decompress_rows::<f32>(|slab| {
                streamed.extend_from_slice(slab);
                Ok(())
            })
            .unwrap();
            assert_eq!(want.as_slice(), &streamed[..], "ordered threads={threads}");
        }

        // Concurrent reader over the file: same bytes.
        let cr = ConcurrentReader::open_path(&path).unwrap();
        assert_eq!(want.as_slice(), cr.read_all::<f32>().unwrap().as_slice());
        assert_eq!(cr.stats().reorder_copies, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_truncated_after_open_is_a_typed_error() {
        // `cp new.rqc a.rqc` truncates a file in place under a reader that
        // indexed it whole: every read past the new end must come back as
        // `Io(UnexpectedEof)`, at every thread count and on both readers.
        let field = wavy(Shape::d3(48, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 48);
        // Rows 40..48 are chunk 7, which starts past the 200 B cut.
        assert!(chunk_table(&bytes).unwrap().entries[7].offset >= 200);
        let dir = std::env::temp_dir().join("rqm_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("truncated_{}.rqm", std::process::id()));
        let truncate = || {
            std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(200).unwrap();
        };
        let eof = |what: &str, got: Result<(), DecompressError>| match got {
            Err(DecompressError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
            other => panic!("{what}: expected Io(UnexpectedEof), got {other:?}"),
        };

        for threads in [1usize, 2] {
            type ReadFn = fn(&mut ArchiveReader<std::fs::File>) -> Result<(), DecompressError>;
            let reads: [(&str, ReadFn); 3] = [
                ("read_rows", |r| r.read_rows::<f32>(40..48).map(drop)),
                ("read_all", |r| r.read_all::<f32>().map(drop)),
                ("decompress_rows", |r| r.decompress_rows::<f32>(|_| Ok(()))),
            ];
            for (what, read) in reads {
                std::fs::write(&path, &bytes).unwrap();
                let mut r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
                truncate();
                eof(&format!("{what} threads={threads}"), read(&mut r));
            }
        }

        std::fs::write(&path, &bytes).unwrap();
        let cr = ConcurrentReader::open_path(&path).unwrap();
        truncate();
        eof("concurrent read_rows", cr.read_rows::<f32>(40..48).map(drop));
        eof("concurrent read_all", cr.read_all::<f32>().map(drop));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finished_archive_report_matches_one_shot() {
        let field = wavy(Shape::d3(20, 8, 8));
        let shape = field.shape();
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &cfg()).unwrap();
        w.write_slab(&field).unwrap();
        let fin = w.finalize().unwrap();
        assert_eq!(fin.bytes_written as usize, fin.sink.len());
        let (_, rep) = crate::pipeline::compress_with_report(&field, &cfg()).unwrap();
        assert_eq!(fin.report.n_chunks, rep.n_chunks);
        assert_eq!(fin.report.n_quantized, rep.n_quantized);
        assert_eq!(fin.report.n_unpredictable, rep.n_unpredictable);
        assert_eq!(fin.report.huffman_bytes, rep.huffman_bytes);
        assert_eq!(fin.report.symbol_histogram, rep.symbol_histogram);
        assert_eq!(fin.report.container_bytes, rep.container_bytes);
        assert_eq!(fin.report.n_elements, rep.n_elements);
    }

    #[test]
    fn reused_whole_slab_probes_are_the_fixed_codec_encodings() {
        // CESM-TS in 8-row chunks: 8 × 512 values is the probe budget, so
        // every slab is probed whole, and at this bound all three codecs
        // win chunks. What the writer takes from the scheduler — the ZFP
        // and ROLZ probes — must be what encoding the chunk afresh with the
        // codec its tag names gives: the blob, and the statistics that
        // reach the report.
        let field = rq_datagen::fields::cesm_ts();
        let eb = 6.8e-7 * field.value_range();
        let c = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), field.shape(), &c).unwrap();
        w.write_slab(&field).unwrap();
        let fin = w.finalize().unwrap();
        let entries = chunk_table(&fin.sink).unwrap().entries;
        for kind in [ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Rolz] {
            assert!(entries.iter().any(|e| e.codec == kind), "no {kind:?} chunk");
        }

        let quantizer = LinearQuantizer::new(eb, DEFAULT_RADIUS);
        let mut fresh = CompressionReport::of_no_chunks(&quantizer, field.len(), 32);
        for (e, spec) in entries.iter().zip(slab_chunks(field.shape(), 8)) {
            let slab = &field.as_slice()[spec.offset..spec.offset + spec.len];
            let (decision, ready) = crate::scheduler::choose_codec_with_blob(
                slab,
                spec.shape,
                c.predictor,
                eb,
                DEFAULT_RADIUS,
            );
            assert_eq!(decision.codec, e.codec);
            assert_eq!(ready.is_some(), e.codec != ChunkCodecKind::Sz, "probed whole");
            let (blob, stats) = match e.codec {
                ChunkCodecKind::Sz => ChunkCodec::<f32>::encode(
                    &SzChunkCodec::new(c.predictor, quantizer, c.lossless),
                    slab,
                    spec.shape,
                ),
                ChunkCodecKind::Zfp => {
                    ChunkCodec::<f32>::encode(&ZfpChunkCodec::new(eb), slab, spec.shape)
                }
                ChunkCodecKind::Rolz => ChunkCodec::<f32>::encode(
                    &crate::rolz::RolzChunkCodec::new(c.predictor, quantizer),
                    slab,
                    spec.shape,
                ),
            }
            .unwrap();
            assert!(fin.sink[e.offset..e.offset + e.len] == blob[..], "{:?} blob", e.codec);
            fresh.add_chunk(e.codec, &stats);
        }
        assert_eq!(fin.report.chunk_codecs, fresh.chunk_codecs);
        assert_eq!(fin.report.n_quantized, fresh.n_quantized, "n_symbols - n_escapes");
        assert_eq!(fin.report.n_unpredictable, fresh.n_unpredictable, "n_escapes");
        assert!(fin.report.n_quantized > 0 && fin.report.n_unpredictable > 0);
        assert_eq!(fin.report.symbol_histogram, fresh.symbol_histogram);
        assert_eq!(fin.report.huffman_bytes, fresh.huffman_bytes);
        assert_eq!(fin.report.encoded_bytes, fresh.encoded_bytes);
        assert_eq!(fin.report.codebook_bytes, fresh.codebook_bytes);
    }
}
