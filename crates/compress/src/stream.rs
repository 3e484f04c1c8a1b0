//! The archive engine: one writer and one reader over `std::io` streams.
//!
//! Every archive in the workspace — one-shot, streaming, planned, catalog
//! segment, CLI — is produced by [`ArchiveWriter`] and decoded by
//! [`ArchiveReader`] (or its shareable form); the one-shot
//! [`crate::compress`] / [`crate::decompress`] are these sessions over an
//! in-memory sink and source.
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
//!   order without ever holding it resident.
//! * [`ConcurrentReader`] is the shareable form of the reader: one open
//!   archive handle, cloneable across threads, serving overlapping
//!   `read_rows`/`read_chunk` requests with per-request [`ReadStats`].
//!
//! Both readers are one decode engine: one open-archive state (the reader
//! holds it by value, the shareable form behind an [`Arc`]), one fetch
//! stage (a zero-copy window of a mapped file or of in-memory bytes, or a
//! seek+read under the source lock over a plain stream), one row planner,
//! one set of counters, and two schedules — static slices of a row range
//! on `threads` workers that fetch their own blobs, and ordered delivery
//! through a worker pool behind a window of `2 × threads` chunks. At one
//! thread both decode inline on the caller.
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
//! let mut reader = ArchiveReader::open(std::io::Cursor::new(finished.sink)).unwrap();
//! let rows = reader.read_rows::<f32>(10..22).unwrap();
//! assert_eq!(rows.shape().dims(), &[12, 16]);
//! assert_eq!(reader.stats().chunks_decoded, 2); // rows 10..22 span chunks 1 and 2
//! ```

use crate::chunked::{decode_entry_blob, resolved_chunk_rows, run_on_workers};
use crate::codec::{ChunkCodec, ChunkStats, SzChunkCodec, ZfpChunkCodec};
use crate::config::{CodecChoice, CompressorConfig, LosslessStage};
use crate::container::{
    read_archive_layout, read_span_into, write_header_prefix, write_trailer, ArchiveLayout,
    ChunkCodecKind, ChunkEntry, ChunkTable, CompressError, DecompressError, Header, VERSION_V2_4,
};
use crate::mmap::SourceMap;
use crate::pipeline::{resolve_bound, Transform};
use crate::pool::{BytePool, SlabPool};
use crate::report::CompressionReport;
use rq_grid::{slab_chunks, ChunkSpec, NdArray, Scalar, Shape};
use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, LinearQuantizer};
use std::collections::BTreeMap;
use std::io::{Read, Seek, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

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
    radius: u32,
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
            quantizer: LinearQuantizer::new(abs_eb, cfg.radius),
            abs_eb,
            transform,
            lossless: cfg.lossless,
            codec: cfg.codec,
            radius: cfg.radius,
            threads: cfg.resolved_threads(),
        })
    }

    /// Encode a batch of chunks of `data` concurrently on the worker
    /// pool; results come back in chunk order. `plan` holds one absolute
    /// bound per chunk (quality-targeted sessions); without it every chunk
    /// takes the encoder's shared bound. Each chunk's quantizer/tolerance
    /// — and, under [`CodecChoice::Auto`], the scheduler's decision — uses
    /// that chunk's bound, so a uniform plan yields the fixed-bound bytes.
    fn encode_chunks<T: Scalar>(
        &self,
        data: &[T],
        chunks: Vec<ChunkSpec>,
        plan: Option<&[f64]>,
    ) -> Result<Vec<EncodedChunk>, CompressError> {
        debug_assert!(plan.is_none_or(|p| p.len() == chunks.len()));
        let items: Vec<(ChunkSpec, f64)> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| (c, plan.map_or(self.abs_eb, |p| p[i])))
            .collect();
        run_on_workers(items, self.threads, |(c, eb)| -> Result<EncodedChunk, CompressError> {
            let sz = SzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, self.radius),
                self.lossless,
            )
            .with_transform(self.transform);
            let zfp = ZfpChunkCodec::new(eb);
            let rolz = crate::rolz::RolzChunkCodec::new(
                self.predictor,
                LinearQuantizer::new(eb, self.radius),
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
                            self.radius,
                        );
                        (decision.codec, ready)
                    }
                }
            };
            let (blob, stats) = match (kind, ready) {
                (_, Some(ready)) => ready,
                (ChunkCodecKind::Sz, None) => ChunkCodec::<T>::encode(&sz, slab, c.shape)?,
                (ChunkCodecKind::Zfp, None) => ChunkCodec::<T>::encode(&zfp, slab, c.shape)?,
                (ChunkCodecKind::Rolz, None) => ChunkCodec::<T>::encode(&rolz, slab, c.shape)?,
            };
            Ok(EncodedChunk { rows: c.rows, codec: kind, blob, stats, eb })
        })
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
            radius: cfg.radius,
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
            if ready > 0 { self.encode_rows(&data[..ready_elems], ready) } else { Ok(()) };
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

    /// Encode `rows` rows of `data` as the next chunks and write them.
    fn encode_rows(&mut self, data: &[T], rows: usize) -> Result<(), CompressError> {
        let chunks = slab_chunks(self.shape.with_rows(rows), self.chunk_rows);
        // Slabs arrive in row order, so the batch's chunks are the next
        // `chunks.len()` entries of the whole-field plan.
        let base = self.index.len();
        let plan = self.plan.as_ref().map(|p| &p[base..base + chunks.len()]);
        let encoded = self.enc.encode_chunks(data, chunks, plan)?;
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
/// [`Self::with_threads`] sets the decode worker count. Region reads
/// ([`Self::read_all`], [`Self::read_rows`]) hand the workers statically
/// assigned chunks, and each worker fetches its own blobs: a zero-copy
/// window of an addressable source (a mapped file, an archive held in
/// memory), or one seek+read under the source lock over a plain stream.
/// Ordered streaming ([`Self::decompress_rows`],
/// [`Self::decompress_to_writer`]) fetches on the calling thread, decodes
/// on the workers and delivers in row order behind a window of
/// `2 × threads` chunks, so peak memory stays `O(threads × chunk)` no
/// matter how large the archive is. At one thread every path decodes
/// inline on the caller. Results are byte-identical to the
/// single-threaded decode.
///
/// See the [module docs](self) for a complete write/read example.
pub struct ArchiveReader<R: Read + Seek> {
    shared: ReaderShared<R>,
    /// For a source that *is* addressable bytes (an archive held in
    /// memory): how to view them. Fetches are zero-copy, as over a map.
    inline: Option<fn(&R) -> &[u8]>,
    /// Decode worker threads (1 = decode on the calling thread).
    threads: usize,
}

impl ArchiveReader<std::fs::File> {
    /// Open an archive file directly, memory-mapping it when the
    /// platform allows (Linux): chunk extents are then fetched as
    /// zero-copy windows of the page cache instead of per-chunk
    /// seek+read copies, and the kernel's readahead overlaps faulting
    /// the next extents with decoding the current one. Where no mapping
    /// is available this silently falls back to the seek+read path —
    /// decoded bytes are identical either way.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, DecompressError> {
        let file = std::fs::File::open(path)?;
        let map = SourceMap::map(&file);
        let mut reader = Self::open(file)?;
        reader.shared.map = map;
        Ok(reader)
    }
}

impl<'a> ArchiveReader<std::io::Cursor<&'a [u8]>> {
    /// Open an archive held in memory — the reader behind the one-shot
    /// [`crate::decompress`] family. Chunk fetches are zero-copy windows
    /// of `bytes`, exactly as over a mapped file.
    pub(crate) fn open_bytes(bytes: &'a [u8]) -> Result<Self, DecompressError> {
        let mut reader = Self::open(std::io::Cursor::new(bytes))?;
        reader.inline = Some(|src| src.get_ref());
        Ok(reader)
    }
}

impl<R: Read + Seek> ArchiveReader<R> {
    /// Open an archive: parse the header and locate every chunk, without
    /// reading any payload.
    pub fn open(mut src: R) -> Result<Self, DecompressError> {
        let layout = read_archive_layout(&mut src)?;
        let shared = ReaderShared {
            src: Mutex::new(src),
            map: None,
            blob_pool: BytePool::new(),
            layout,
            counters: Counters::default(),
        };
        Ok(ArchiveReader { shared, inline: None, threads: 1 })
    }

    /// Whether chunk fetches are served zero-copy from a memory-mapped
    /// source (see [`ArchiveReader::open_path`]).
    pub fn is_mapped(&self) -> bool {
        self.shared.map.is_some()
    }

    /// Set the decode worker-thread count (`0` = one per available CPU,
    /// `1` = decode serially on the calling thread, whatever the source).
    /// Region reads split their chunks statically across the workers;
    /// ordered streaming keeps at most `2 × threads` chunks in flight.
    /// Decoded output is byte-identical at every thread count.
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
    /// core count, and an ordered window of `2 × threads` chunks. Decoded
    /// bytes are identical either way; this exists so tests and
    /// benchmarks can exercise the pool's reorder/backpressure machinery
    /// on machines with few cores.
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

    /// Decode counters accumulated since [`Self::open`].
    pub fn stats(&self) -> ReadStats {
        self.shared.stats()
    }

    /// The engine of one decode call. An in-memory source is viewed
    /// through `&mut self`, so it is fetched from without the lock.
    fn engine(&mut self) -> Engine<'_, R> {
        let shared = &mut self.shared;
        let fetcher = match self.inline {
            Some(view) => {
                Fetcher::Bytes(view(shared.src.get_mut().unwrap_or_else(|p| p.into_inner())))
            }
            None => shared.fetcher(),
        };
        Engine { fetcher, layout: &shared.layout, counters: &shared.counters }
    }

    /// Decode a single chunk (random access). Returns the slab's first
    /// axis-0 row and the decoded slab as a standalone array.
    pub fn read_chunk<T: Scalar>(
        &mut self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>), DecompressError> {
        self.engine().read_chunk(chunk).map(|(start, slab, _)| (start, slab))
    }

    /// Decode the axis-0 row range `rows` (non-empty, within the field),
    /// touching only the chunks that intersect it, on the decode pool.
    ///
    /// Returns an array of shape `[rows.len(), dims[1..]]` whose elements
    /// equal the corresponding rows of a full decompression exactly.
    pub fn read_rows<T: Scalar>(
        &mut self,
        rows: Range<usize>,
    ) -> Result<NdArray<T>, DecompressError>
    where
        R: Send,
    {
        let threads = self.threads;
        let engine = self.engine();
        let scratch = SlabPool::new();
        plan_rows(&engine.layout.header, &engine.layout.entries, rows, |jobs| {
            run_on_workers(jobs, threads, |(_, job)| engine.decode(job, &scratch)).map(drop)
        })
    }

    /// Decode the whole field on the decode pool (memory: the output,
    /// plus a blob buffer per worker over a plain stream).
    pub fn read_all<T: Scalar>(&mut self) -> Result<NdArray<T>, DecompressError>
    where
        R: Send,
    {
        let shape = self.header().shape;
        self.read_rows(0..shape.dim(0)).map(|a| {
            // Same element count and order; restore the full-field shape.
            NdArray::from_vec(shape, a.into_vec())
        })
    }

    /// Stream the whole field through `emit` as axis-0 slabs in row
    /// order, decoding chunks on the worker pool behind a window of
    /// `2 × threads` chunks. Unlike [`Self::read_all`] the field is never
    /// resident: peak memory is `O(threads × chunk)`.
    ///
    /// `emit` receives each chunk's decoded elements exactly once, in row
    /// order; an error from `emit` aborts the decode.
    pub fn decompress_rows<T: Scalar>(
        &mut self,
        mut emit: impl FnMut(&[T]) -> std::io::Result<()>,
    ) -> Result<(), DecompressError>
    where
        R: Send,
    {
        check_scalar_tag::<T>(self.header())?;
        let threads = self.threads;
        run_ordered_jobs::<T, R>(&self.engine(), threads, &mut |slab| {
            emit(slab).map_err(DecompressError::Io)
        })
    }

    /// Decode the whole field into `sink` as little-endian scalars in row
    /// order, chunk-parallel with bounded memory (the streaming backend
    /// of `rqm decompress --threads`). Returns the number of values
    /// written.
    pub fn decompress_to_writer<T: Scalar, W: Write>(
        &mut self,
        sink: &mut W,
    ) -> Result<u64, DecompressError>
    where
        R: Send,
    {
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

    /// Convert this session into a shareable [`ConcurrentReader`] over
    /// the same source, keeping the already-parsed layout (and the file
    /// mapping, if any). Accumulated [`ReadStats`] carry over as the
    /// aggregate baseline.
    pub fn into_concurrent(self) -> ConcurrentReader<R> {
        ConcurrentReader { shared: Arc::new(self.shared) }
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
// The decode engine both readers share
// ---------------------------------------------------------------------------

/// The state of one open archive, which both readers are built on: the
/// source behind a mutex (held only while a plain stream's fetch seeks
/// and reads — decoding runs unlocked), the mapping where there is one,
/// the blob pool, the parsed layout and the aggregate counters.
/// [`ArchiveReader`] holds it by value, [`ConcurrentReader`] behind an
/// [`Arc`].
struct ReaderShared<R> {
    src: Mutex<R>,
    /// Mapped view of the source where available: fetches through it
    /// take **no lock at all** — concurrent requests don't serialize
    /// even on the fetch stage.
    map: Option<SourceMap>,
    /// Recycled blob buffers; checked out *before* taking the source
    /// lock so the critical section is exactly one seek+read.
    blob_pool: BytePool,
    layout: ArchiveLayout,
    counters: Counters,
}

impl<R: Read + Seek> ReaderShared<R> {
    /// The fetch stage over this source: windows of the mapping, else a
    /// seek+read under the source lock.
    fn fetcher(&self) -> Fetcher<'_, R> {
        match &self.map {
            Some(map) => Fetcher::Bytes(map.as_slice()),
            None => Fetcher::Stream { src: &self.src, pool: &self.blob_pool },
        }
    }

    fn engine(&self) -> Engine<'_, R> {
        Engine { fetcher: self.fetcher(), layout: &self.layout, counters: &self.counters }
    }

    fn stats(&self) -> ReadStats {
        let c = &self.counters;
        ReadStats {
            chunks_total: self.layout.entries.len(),
            chunks_decoded: c.chunks_decoded.load(Ordering::Relaxed),
            blob_bytes_read: c.blob_bytes_read.load(Ordering::Relaxed),
            reorder_copies: c.reorder_copies.load(Ordering::Relaxed),
        }
    }
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

/// One fetched chunk extent: either a recycled pool buffer (returned to
/// its pool on drop) or a zero-copy window of the memory-mapped source.
/// Either way the decode stage sees plain `&[u8]` via `Deref`.
enum Blob<'e> {
    Pooled(Vec<u8>, &'e BytePool),
    Mapped(&'e [u8]),
}

impl std::ops::Deref for Blob<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Blob::Pooled(buf, _) => buf,
            Blob::Mapped(bytes) => bytes,
        }
    }
}

impl Drop for Blob<'_> {
    fn drop(&mut self) {
        if let Blob::Pooled(buf, pool) = self {
            pool.put(std::mem::take(buf));
        }
    }
}

/// One chunk's compressed bytes as a bounds-checked window of an
/// addressable source (zero-copy, no syscall).
fn blob_window(bytes: &[u8], entry: ChunkEntry) -> Result<&[u8], DecompressError> {
    entry
        .offset
        .checked_add(entry.len)
        .and_then(|end| bytes.get(entry.offset..end))
        .ok_or(DecompressError::Corrupt("chunk extent beyond mapped source"))
}

/// The one fetch stage, shared by every thread of every read.
enum Fetcher<'e, R> {
    /// An addressable source — a mapped file or an archive held in
    /// memory: a fetch is a window of these bytes, with no lock.
    Bytes(&'e [u8]),
    /// A plain stream: a fetch is a seek+read into a recycled buffer,
    /// which is checked out before the lock is taken.
    Stream { src: &'e Mutex<R>, pool: &'e BytePool },
}

impl<'e, R: Read + Seek> Fetcher<'e, R> {
    fn fetch(&self, entry: ChunkEntry) -> Result<Blob<'e>, DecompressError> {
        match *self {
            Fetcher::Bytes(bytes) => blob_window(bytes, entry).map(Blob::Mapped),
            Fetcher::Stream { src, pool } => {
                let mut buf = pool.get(entry.len);
                let read = read_span_into(
                    &mut *src.lock().unwrap_or_else(|p| p.into_inner()),
                    entry.offset as u64,
                    &mut buf,
                );
                match read {
                    Ok(()) => Ok(Blob::Pooled(buf, pool)),
                    Err(e) => {
                        pool.put(buf);
                        Err(e)
                    }
                }
            }
        }
    }
}

/// Decode one fetched blob into its job's destination slice. Decodes
/// in place when the job takes the whole chunk; only a partial take
/// (boundary rows of a region read) goes through a scratch slab and a
/// copy. Returns whether the scratch copy happened, so callers can count
/// [`ReadStats::reorder_copies`].
fn decode_slice_job<T: Scalar>(
    header: &Header,
    blob: &[u8],
    job: SliceJob<'_, T>,
    scratch: &SlabPool<T>,
) -> Result<bool, DecompressError> {
    let SliceJob { entry, cshape, take, dst } = job;
    if take.start == 0 && take.end == cshape.len() {
        decode_entry_blob(blob, header, entry, cshape, dst)?;
        Ok(false)
    } else {
        let mut tmp = scratch.get(cshape.len());
        let decoded = decode_entry_blob(blob, header, entry, cshape, &mut tmp);
        if decoded.is_ok() {
            dst.copy_from_slice(&tmp[take]);
        }
        scratch.put(tmp);
        decoded.map(|()| true)
    }
}

/// What one decode call works with: the fetch stage, the layout and the
/// counters of the archive. `Sync` whenever the source is `Send`, so the
/// workers of a run share it.
struct Engine<'e, R> {
    fetcher: Fetcher<'e, R>,
    layout: &'e ArchiveLayout,
    counters: &'e Counters,
}

impl<R: Read + Seek> Engine<'_, R> {
    /// Count one decoded chunk in the aggregate; returns it as a request's
    /// counters.
    fn count(&self, entry: ChunkEntry, copied: bool) -> ReadStats {
        self.counters.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.counters.blob_bytes_read.fetch_add(entry.len as u64, Ordering::Relaxed);
        self.counters.reorder_copies.fetch_add(copied as u64, Ordering::Relaxed);
        ReadStats {
            chunks_total: self.layout.entries.len(),
            chunks_decoded: 1,
            blob_bytes_read: entry.len as u64,
            reorder_copies: copied as u64,
        }
    }

    /// The unit of work of every schedule: fetch one job's blob, decode
    /// it into the job's destination, count it.
    fn decode<T: Scalar>(
        &self,
        job: SliceJob<'_, T>,
        scratch: &SlabPool<T>,
    ) -> Result<ReadStats, DecompressError> {
        let entry = job.entry;
        let blob = self.fetcher.fetch(entry)?;
        let copied = decode_slice_job(&self.layout.header, &blob, job, scratch)?;
        Ok(self.count(entry, copied))
    }

    /// Chunk `chunk` decoded whole on the calling thread: its first row,
    /// the slab, and this request's counters.
    fn read_chunk<T: Scalar>(
        &self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>, ReadStats), DecompressError> {
        let header = &self.layout.header;
        check_scalar_tag::<T>(header)?;
        let Some(&entry) = self.layout.entries.get(chunk) else {
            return Err(DecompressError::ChunkOutOfRange {
                requested: chunk,
                available: self.layout.entries.len(),
            });
        };
        let cshape = header.shape.with_rows(entry.rows);
        let mut out = vec![T::zero(); cshape.len()];
        let job = SliceJob { entry, cshape, take: 0..cshape.len(), dst: &mut out };
        let stats = self.decode(job, &SlabPool::new())?;
        Ok((entry.start_row, NdArray::from_vec(cshape, out), stats))
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

/// The ordered schedule: every chunk, whole, handed to `emit` in row
/// order. At one thread, or with one chunk, every source decodes inline
/// on the caller. Otherwise the caller fetches blobs in offset order and
/// dispatches them to `threads` scoped workers, which decode into
/// recycled slabs; the caller reorders completions by sequence number
/// and hands each slab to `emit` in row order (slabs return to the pool
/// right after `emit`, so the common in-order arrival recycles the same
/// couple of slabs for the whole run). A chunk counts against the window
/// of `2 × threads` from fetch until its slab is emitted, so
/// out-of-order completions can never pile up more than a window of
/// decoded slabs.
fn run_ordered_jobs<T: Scalar, R: Read + Seek + Send>(
    engine: &Engine<'_, R>,
    threads: usize,
    emit: &mut dyn FnMut(&[T]) -> Result<(), DecompressError>,
) -> Result<(), DecompressError> {
    let (header, entries) = (&engine.layout.header, &engine.layout.entries);
    let slabs = SlabPool::<T>::new();
    if threads <= 1 || entries.len() <= 1 {
        for &entry in entries {
            let cshape = header.shape.with_rows(entry.rows);
            let mut slab = slabs.get(cshape.len());
            let job = SliceJob { entry, cshape, take: 0..cshape.len(), dst: &mut slab };
            let delivered = engine.decode(job, &slabs).and_then(|_| emit(&slab));
            slabs.put(slab);
            delivered?;
        }
        return Ok(());
    }
    let window = 2 * threads;
    let (work_tx, work_rx) = mpsc::sync_channel::<(usize, ChunkEntry, Blob<'_>)>(window);
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, Result<Vec<T>, DecompressError>)>();
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(entries.len()) {
            let done_tx = done_tx.clone();
            let (work_rx, slabs, abort) = (&work_rx, &slabs, &abort);
            scope.spawn(move || loop {
                // Hold the lock only for the dequeue; decode unlocked.
                let next = {
                    let rx = work_rx.lock().unwrap_or_else(|p| p.into_inner());
                    rx.recv()
                };
                let Ok((seq, entry, blob)) = next else { break };
                let cshape = header.shape.with_rows(entry.rows);
                let mut slab = slabs.get(cshape.len());
                let decoded = decode_entry_blob(&blob, header, entry, cshape, &mut slab);
                drop(blob); // recycle the buffer before signaling
                let r = decoded.map(|()| {
                    engine.count(entry, false);
                    slab
                });
                if r.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                if done_tx.send((seq, r)).is_err() {
                    break;
                }
            });
        }
        drop(done_tx);
        // `sent` jobs dispatched, `done` completions received, `retired`
        // slabs emitted/recycled/failed. `sent - retired` is the
        // fetch→emit credit the window bounds; because `retired ≤ done`,
        // the work channel can never block the driver mid-send.
        let (mut sent, mut done, mut retired) = (0usize, 0usize, 0usize);
        let mut next_emit = 0usize;
        let mut pending: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        let mut err: Option<DecompressError> = None;
        // Receive one completion; emit (and recycle) every slab that
        // became consecutive. Returns false if the pool disconnected.
        let receive_one = |err: &mut Option<DecompressError>,
                               pending: &mut BTreeMap<usize, Vec<T>>,
                               next_emit: &mut usize,
                               done: &mut usize,
                               retired: &mut usize,
                               emit: &mut dyn FnMut(&[T]) -> Result<(), DecompressError>|
         -> bool {
            match done_rx.recv() {
                Ok((seq, Ok(slab))) => {
                    *done += 1;
                    if err.is_some() {
                        // Already failing: recycle without delivering.
                        slabs.put(slab);
                        *retired += 1;
                        return true;
                    }
                    pending.insert(seq, slab);
                    loop {
                        let key = *next_emit;
                        let Some(slab) = pending.remove(&key) else { break };
                        let delivered = emit(&slab);
                        slabs.put(slab);
                        *retired += 1;
                        *next_emit += 1;
                        if let Err(e) = delivered {
                            *err = Some(e);
                            break;
                        }
                    }
                    true
                }
                Ok((_, Err(e))) => {
                    *done += 1;
                    *retired += 1;
                    if err.is_none() {
                        *err = Some(e);
                    }
                    true
                }
                // All workers exited; only reachable once every
                // dispatched job's completion was already received.
                Err(_) => false,
            }
        };
        'dispatch: for (seq, &entry) in entries.iter().enumerate() {
            while err.is_none() && sent - retired >= window {
                if !receive_one(
                    &mut err,
                    &mut pending,
                    &mut next_emit,
                    &mut done,
                    &mut retired,
                    emit,
                ) {
                    break 'dispatch;
                }
            }
            if err.is_some() || abort.load(Ordering::Relaxed) {
                break;
            }
            match engine.fetcher.fetch(entry) {
                Ok(blob) => {
                    if work_tx.send((seq, entry, blob)).is_err() {
                        break;
                    }
                    sent += 1;
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        // Closing the work channel lets every worker drain and exit;
        // their remaining completions are collected (and recycled or
        // emitted) here.
        drop(work_tx);
        while done < sent {
            if !receive_one(&mut err, &mut pending, &mut next_emit, &mut done, &mut retired, emit)
            {
                break;
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

// ---------------------------------------------------------------------------
// ConcurrentReader
// ---------------------------------------------------------------------------

/// A shareable, cloneable decompression handle over **one** open archive
/// source, for serving many overlapping region reads concurrently.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone reads the same
/// underlying `R`. Requests lock the source only to fetch a chunk's
/// compressed bytes; decoding happens outside the lock, so readers on
/// different threads genuinely overlap. Each request decodes on its
/// calling thread, reports its own [`ReadStats`] (via
/// [`Self::read_rows_with_stats`]), and [`Self::stats`] aggregates across
/// all clones and requests.
///
/// ```
/// use rq_compress::{ArchiveWriter, CompressorConfig, ConcurrentReader};
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
/// let reader = ConcurrentReader::open(std::io::Cursor::new(bytes)).unwrap();
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let r = reader.clone();
///         // Rows t*6..t*6+10 always straddle a chunk boundary.
///         s.spawn(move || r.read_rows::<f32>(t * 6..t * 6 + 10).unwrap());
///     }
/// });
/// assert_eq!(reader.stats().chunks_decoded, 4 * 2); // every request decoded 2 chunks
/// ```
pub struct ConcurrentReader<R: Read + Seek> {
    shared: Arc<ReaderShared<R>>,
}

impl<R: Read + Seek> Clone for ConcurrentReader<R> {
    fn clone(&self) -> Self {
        ConcurrentReader { shared: Arc::clone(&self.shared) }
    }
}

impl ConcurrentReader<std::fs::File> {
    /// Open an archive file for shared reading, memory-mapping it when
    /// the platform allows (Linux). Mapped fetches take **no lock at
    /// all** — concurrent requests stop serializing even on the fetch
    /// stage — and fall back to the pooled seek+read path (identical
    /// results) where no mapping is available.
    pub fn open_path(path: impl AsRef<std::path::Path>) -> Result<Self, DecompressError> {
        ArchiveReader::open_path(path).map(ArchiveReader::into_concurrent)
    }
}

impl<R: Read + Seek> ConcurrentReader<R> {
    /// Open an archive for shared concurrent reading: parse the header
    /// and chunk index, without reading any payload.
    pub fn open(src: R) -> Result<Self, DecompressError> {
        ArchiveReader::open(src).map(ArchiveReader::into_concurrent)
    }

    /// Whether chunk fetches are served zero-copy (and lock-free) from a
    /// memory-mapped source (see [`ConcurrentReader::open_path`]).
    pub fn is_mapped(&self) -> bool {
        self.shared.map.is_some()
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

    /// Aggregate decode counters across every clone and request so far.
    pub fn stats(&self) -> ReadStats {
        self.shared.stats()
    }

    /// Decode a single chunk (random access). Returns the slab's first
    /// axis-0 row, the decoded slab, and this request's [`ReadStats`].
    pub fn read_chunk<T: Scalar>(
        &self,
        chunk: usize,
    ) -> Result<(usize, NdArray<T>, ReadStats), DecompressError> {
        self.shared.engine().read_chunk(chunk)
    }

    /// Decode the axis-0 row range `rows`, touching only intersecting
    /// chunks; see [`Self::read_rows_with_stats`] for the per-request
    /// counters.
    pub fn read_rows<T: Scalar>(&self, rows: Range<usize>) -> Result<NdArray<T>, DecompressError> {
        self.read_rows_with_stats(rows).map(|(a, _)| a)
    }

    /// [`Self::read_rows`], also returning this request's own
    /// [`ReadStats`] (chunks decoded and blob bytes fetched by this call
    /// alone — the aggregate view stays available via [`Self::stats`]).
    pub fn read_rows_with_stats<T: Scalar>(
        &self,
        rows: Range<usize>,
    ) -> Result<(NdArray<T>, ReadStats), DecompressError> {
        let engine = self.shared.engine();
        let mut req = ReadStats { chunks_total: self.n_chunks(), ..ReadStats::default() };
        // One scratch pool per request: a range crops at most its two
        // boundary chunks, and they share the same recycled slab.
        let scratch = SlabPool::new();
        let out = plan_rows(&engine.layout.header, &engine.layout.entries, rows, |jobs| {
            for (_, job) in jobs {
                let run = engine.decode(job, &scratch)?;
                req.chunks_decoded += run.chunks_decoded;
                req.blob_bytes_read += run.blob_bytes_read;
                req.reorder_copies += run.reorder_copies;
            }
            Ok(())
        })?;
        Ok((out, req))
    }

    /// Decode the whole field (one request).
    pub fn read_all<T: Scalar>(&self) -> Result<NdArray<T>, DecompressError> {
        let shape = self.header().shape;
        self.read_rows::<T>(0..shape.dim(0))
            .map(|a| NdArray::from_vec(shape, a.into_vec()))
    }
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
/// [`ConcurrentReader`] is the canonical implementation: fetch takes the
/// source lock, decode runs unlocked, and every fetched chunk counts in
/// the aggregate [`ReadStats`]. [`assemble_rows`] is the matching
/// delivery stage.
///
/// Unlike [`ConcurrentReader::read_rows`] — which decodes boundary chunks
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

impl<T: Scalar, R: Read + Seek + Send> ChunkSource<T> for ConcurrentReader<R> {
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
/// [`ConcurrentReader::read_rows`] does; the two differ only in that this
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
        let mut wide = ArchiveReader::open_bytes(&bytes).unwrap().with_threads_exact(3);
        assert_eq!(back.as_slice(), wide.read_all::<f32>().unwrap().as_slice());
        assert_eq!(chunk_table(&bytes).unwrap().entries.len(), 4);
    }

    #[test]
    fn reader_reads_all_chunks_and_rows() {
        let field = wavy(Shape::d3(23, 6, 5));
        let bytes = stream_archive(&field, &cfg(), 9);
        let full = decompress::<f32>(&bytes).unwrap();
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.n_chunks(), 4); // 6+6+6+5
        let all = r.read_all::<f32>().unwrap();
        assert_eq!(all.as_slice(), full.as_slice());
        let (start, slab) = r.read_chunk::<f32>(2).unwrap();
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
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
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
            let mut r = ArchiveReader::open(Cursor::new(bytes)).unwrap();
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
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
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
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
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
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        assert!(matches!(
            r.read_all::<f64>(),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn poisoned_scratch_slab_is_fully_overwritten() {
        // The pools hand back dirty buffers by contract; a partial-take
        // decode through a garbage-seeded scratch pool must still yield
        // exactly the reference rows.
        let field = wavy(Shape::d3(18, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 18);
        let mut r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let header = r.header().clone();
        let entry = r.entries()[1];
        let cshape = header.shape.with_rows(entry.rows);
        let row_elems: usize = header.shape.dims()[1..].iter().product();
        // Reference: rows 1.. of chunk 1 via the normal read path.
        let want =
            r.read_rows::<f32>(entry.start_row + 1..entry.start_row + entry.rows).unwrap();

        let scratch = SlabPool::<f32>::new();
        scratch.seed(vec![vec![f32::NAN; cshape.len()], vec![7.5e30; 3]]);
        let take = row_elems..cshape.len();
        let mut dst = vec![f32::NAN; take.end - take.start];
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        let copied =
            decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst }, &scratch)
                .unwrap();
        assert!(copied, "a partial take must go through scratch");
        assert_eq!(&dst[..], want.as_slice());
        assert!(dst.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zfp_zero_blocks_overwrite_dirty_slabs() {
        // An all-zero field makes the zfp encoder emit empty blocks; the
        // decoder must store explicit zeros rather than assume a zeroed
        // destination, or recycled slabs would leak garbage.
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
        let scratch = SlabPool::<f32>::new();
        scratch.seed(vec![vec![123.0f32; cshape.len()]]);
        let take = row_elems..cshape.len();
        let mut dst = vec![123.0f32; take.end - take.start];
        let blob = &bytes[entry.offset..entry.offset + entry.len];
        decode_slice_job(&header, blob, SliceJob { entry, cshape, take, dst: &mut dst }, &scratch)
            .unwrap();
        assert!(dst.iter().all(|&v| v == 0.0), "dirty slab leaked through zfp zero blocks");
    }

    #[test]
    fn repeated_reads_recycle_buffers_byte_identically() {
        // Later reads run on recycled (dirty) blob buffers and scratch
        // slabs — natural poisoning across calls — and must match the
        // first read exactly; aligned reads must never reorder-copy.
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        for threads in [1usize, 2] {
            let mut r = ArchiveReader::open(Cursor::new(&bytes[..]))
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
    fn open_path_mapped_reader_matches_in_memory() {
        let field = wavy(Shape::d3(24, 10, 8));
        let bytes = stream_archive(&field, &cfg(), 24);
        let dir = std::env::temp_dir().join("rqm_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mapped_{}.rqm", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();

        let mut want_r = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let want = want_r.read_all::<f32>().unwrap();

        for threads in [1usize, 2, 4] {
            let mut r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            if cfg!(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))
            {
                assert!(r.is_mapped(), "expected an mmap-backed reader on Linux");
            }
            assert_eq!(want.as_slice(), r.read_all::<f32>().unwrap().as_slice());
            // Ordered streaming over the same mapped source.
            let mut streamed: Vec<f32> = Vec::new();
            let mut r = ArchiveReader::open_path(&path).unwrap().with_threads_exact(threads);
            r.decompress_rows::<f32>(|slab| {
                streamed.extend_from_slice(slab);
                Ok(())
            })
            .unwrap();
            assert_eq!(want.as_slice(), &streamed[..], "ordered threads={threads}");
        }

        // Concurrent mapped reader: fetches take no lock, bytes agree.
        let cr = ConcurrentReader::open_path(&path).unwrap();
        assert_eq!(want.as_slice(), cr.read_all::<f32>().unwrap().as_slice());
        assert_eq!(cr.stats().reorder_copies, 0);
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

        let quantizer = LinearQuantizer::new(eb, c.radius);
        let mut fresh = CompressionReport::of_no_chunks(&quantizer, field.len(), 32);
        for (e, spec) in entries.iter().zip(slab_chunks(field.shape(), 8)) {
            let slab = &field.as_slice()[spec.offset..spec.offset + spec.len];
            let (decision, ready) = crate::scheduler::choose_codec_with_blob(
                slab,
                spec.shape,
                c.predictor,
                eb,
                c.radius,
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
