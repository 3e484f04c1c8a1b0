//! The chunk layer between the kernel and the archive engine.
//!
//! A field is split into axis-0 slabs ([`rq_grid::slab_chunks`]); each
//! slab runs the chunk kernel ([`crate::pipeline`]) as an independent
//! stream: predictor stencils reset at slab boundaries, every slab gets
//! its own codebook, payload, verbatim section and side channel. Slabs
//! of a row-major array are contiguous, so chunking costs no copies on
//! either side — workers read disjoint input slices and decode into
//! disjoint output slices. The error-bound guarantee is unaffected: the
//! bound is resolved once against the *whole* field and every point is
//! quantized against its chunk's bound inside exactly one chunk.
//!
//! This module holds what the one archive engine ([`crate::stream`])
//! needs around the kernel — the chunking policy, the scoped worker
//! pool, report aggregation and the per-chunk blob decoder — plus the
//! in-memory decode functions, which are that engine's reader over a
//! byte slice.

use crate::codec::{ChunkCodec, ChunkStats, ZfpChunkCodec};
use crate::config::{Chunking, CompressorConfig};
use crate::container::{
    read_chunk_blob, read_sections_body, ChunkCodecKind, ChunkEntry, DecompressError, Header,
};
use crate::pipeline::{decode_stream, KernelPath, Transform};
use crate::report::CompressionReport;
use crate::stream::ArchiveReader;
use rq_grid::{auto_chunk_rows, NdArray, Scalar, Shape};
use rq_quant::LinearQuantizer;

/// Minimum elements per auto-sized chunk, so per-chunk codebook/section
/// overhead stays well under a percent of typical chunk payloads.
const AUTO_MIN_CHUNK_ELEMS: usize = 1 << 15;

/// Auto mode aims for this many chunks per worker thread, which keeps the
/// tail of the schedule short without shrinking chunks too far.
const AUTO_CHUNKS_PER_THREAD: usize = 4;

/// The axis-0 rows per chunk that `cfg`'s chunking resolves to for
/// `shape` — i.e. the chunk partition every writer (one-shot, streaming,
/// planned) will use; [`Chunking::Serial`] is one whole-field chunk.
/// Public so quality-targeted callers can run their per-chunk pre-pass
/// over exactly the partition the writer will encode.
pub fn resolved_chunk_rows(cfg: &CompressorConfig, shape: Shape) -> usize {
    match cfg.chunking {
        Chunking::Serial => shape.dim(0),
        Chunking::Rows(rows) => rows.clamp(1, shape.dim(0)),
        Chunking::Auto => auto_chunk_rows(
            shape,
            cfg.resolved_threads() * AUTO_CHUNKS_PER_THREAD,
            AUTO_MIN_CHUNK_ELEMS,
        ),
    }
}

/// Run `f` over `items` on up to `threads` scoped workers, round-robin
/// (`std::thread::scope` — chunk workloads are large enough that spawn
/// cost is noise, and the static assignment is deterministic). Results
/// come back in input order. Errors are propagated (first one in input
/// order wins).
pub(crate) fn run_on_workers<I, R, E, F>(items: Vec<I>, threads: usize, f: F) -> Result<Vec<R>, E>
where
    I: Send,
    R: Send,
    E: Send,
    F: Fn(I) -> Result<R, E> + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(&f).collect();
    }
    let n = items.len();
    // Hand worker w items w, w+threads, w+2·threads, …
    let mut per_worker: Vec<Vec<(usize, I)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        per_worker[i % threads].push((i, item));
    }
    let f = &f;
    let mut slots: Vec<Option<Result<R, E>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for batch in per_worker {
            handles.push(scope.spawn(move || {
                batch
                    .into_iter()
                    .map(|(i, item)| (i, f(item)))
                    .collect::<Vec<(usize, Result<R, E>)>>()
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("chunk worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("worker covered every item")).collect()
}

impl CompressionReport {
    /// The report of an archive no chunk of which is written yet.
    pub(crate) fn of_no_chunks(
        quantizer: &LinearQuantizer,
        n_elements: usize,
        original_bits: u32,
    ) -> Self {
        CompressionReport {
            symbol_histogram: vec![0u64; quantizer.alphabet_size()],
            n_quantized: 0,
            n_unpredictable: 0,
            n_anchors: 0,
            huffman_bytes: 0,
            encoded_bytes: 0,
            codebook_bytes: 0,
            side_bytes: 0,
            container_bytes: 0,
            n_elements,
            original_bits,
            n_chunks: 0,
            chunk_codecs: Vec::new(),
        }
    }

    /// Fold one more chunk's encoding statistics in: the writer keeps this
    /// one dense histogram and a few sums, not every chunk's statistics
    /// until it finalizes. ZFP chunks have no symbol stream: the histogram
    /// and element accounting cover the SZ-coded chunks only.
    pub(crate) fn add_chunk(&mut self, codec: ChunkCodecKind, stats: &ChunkStats) {
        let window = &stats.histogram;
        let bins = self.symbol_histogram.iter_mut().skip(window.first as usize);
        for (acc, add) in bins.zip(&window.counts) {
            *acc += add;
        }
        self.n_quantized += stats.n_symbols - stats.n_escapes;
        self.n_unpredictable += stats.n_escapes;
        self.n_anchors += stats.n_anchors;
        self.huffman_bytes += stats.huffman_bytes;
        self.encoded_bytes += stats.encoded_bytes;
        self.codebook_bytes += stats.codebook_bytes;
        self.side_bytes += stats.side_bytes;
        self.n_chunks += 1;
        self.chunk_codecs.push(codec);
    }
}

/// Decode one chunk blob into its output slab, dispatching on the entry's
/// codec tag — the blob decoder every read path goes through. The
/// entry's `eb` is the chunk's authoritative bound (the index entry's from
/// v2.3 on, the header's before).
pub(crate) fn decode_entry_blob<T: Scalar>(
    blob: &[u8],
    header: &Header,
    entry: ChunkEntry,
    chunk_shape: Shape,
    out: &mut [T],
) -> Result<(), DecompressError> {
    let quantizer = LinearQuantizer::new(entry.eb, header.radius);
    // The ratio is only needed when encoding.
    let transform =
        if header.log_transform { Transform::Log { ratio: f64::NAN } } else { Transform::Identity };
    match entry.codec {
        ChunkCodecKind::Sz => {
            // The v1 "chunk" is the whole container body: four sections
            // with no per-chunk flag byte, the header's flag authoritative.
            let (lossless, body) = if header.single_stream() {
                (header.lossless, read_sections_body::<T>(blob, &mut 0)?)
            } else {
                read_chunk_blob::<T>(blob)?
            };
            decode_stream(
                &body,
                lossless,
                chunk_shape,
                header.predictor,
                quantizer,
                transform,
                KernelPath::Fast,
                out,
            )
        }
        ChunkCodecKind::Zfp => {
            ChunkCodec::<T>::decode(&ZfpChunkCodec::new(entry.eb), blob, chunk_shape, out)
        }
        ChunkCodecKind::Rolz => {
            let codec = crate::rolz::RolzChunkCodec::new(header.predictor, quantizer)
                .with_transform(transform);
            ChunkCodec::<T>::decode(&codec, blob, chunk_shape, out)
        }
    }
}

/// Decompress any container generation held in memory with an explicit
/// worker-thread count (`0` = one per available CPU), clamped to
/// `available_parallelism` exactly as [`ArchiveReader::with_threads`]
/// clamps it. Decoded values are identical at every thread count.
pub fn decompress_with_threads<T: Scalar>(
    bytes: &[u8],
    threads: usize,
) -> Result<NdArray<T>, DecompressError> {
    ArchiveReader::open_bytes(bytes)?.with_threads(threads).read_all()
}

/// Decode a single chunk of a container held in memory (random access).
///
/// Returns the slab's first axis-0 row and the decoded slab as a
/// standalone array. For a v1 container only chunk 0 exists (the whole
/// field).
pub fn decompress_chunk<T: Scalar>(
    bytes: &[u8],
    chunk: usize,
) -> Result<(usize, NdArray<T>), DecompressError> {
    ArchiveReader::open_bytes(bytes)?.read_chunk(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecChoice;
    use crate::container::{chunk_count, CompressError};
    use crate::pipeline::{compress, compress_with_report, decompress};
    use rq_predict::PredictorKind;
    use rq_quant::ErrorBoundMode;

    fn wavy(shape: Shape) -> NdArray<f32> {
        let mut lin = 0u64;
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.11 * (a + 1) as f64).sin() * (10.0 / (a + 1) as f64);
            }
            lin += 1;
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.04;
            v as f32
        })
    }

    fn assert_bounded(orig: &NdArray<f32>, recon: &NdArray<f32>, eb: f64) {
        for (i, (&a, &b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
            let err = (a as f64 - b as f64).abs();
            assert!(err <= eb * (1.0 + 1e-6), "element {i}: |{a} - {b}| = {err} > {eb}");
        }
    }

    #[test]
    fn single_chunk_matches_serial_reconstruction() {
        // One chunk covering the whole field runs the identical kernel on
        // identical input: the reconstruction must match the serial
        // pipeline element for element.
        let field = wavy(Shape::d3(16, 20, 24));
        for pred in PredictorKind::all() {
            let eb = 1e-3;
            let serial_cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb));
            let chunked_cfg = serial_cfg.chunked(16).with_threads(2);
            let serial = decompress::<f32>(&compress(&field, &serial_cfg).unwrap().bytes).unwrap();
            let out = compress(&field, &chunked_cfg).unwrap();
            assert_eq!(chunk_count(&out.bytes).unwrap(), 1);
            let chunked = decompress::<f32>(&out.bytes).unwrap();
            assert_eq!(
                serial.as_slice(),
                chunked.as_slice(),
                "{}: 1-chunk reconstruction diverged from serial",
                pred.name()
            );
        }
    }

    #[test]
    fn multi_chunk_roundtrip_all_predictors() {
        let field = wavy(Shape::d3(24, 12, 10));
        for pred in PredictorKind::all() {
            for rows in [1, 5, 7, 24] {
                let eb = 1e-2;
                let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb))
                    .chunked(rows)
                    .with_threads(4);
                let (out, rep) = compress_with_report(&field, &cfg).unwrap();
                assert_eq!(rep.n_chunks, 24usize.div_ceil(rows), "{}", pred.name());
                assert_eq!(chunk_count(&out.bytes).unwrap(), rep.n_chunks);
                let back = decompress::<f32>(&out.bytes).unwrap();
                assert_bounded(&field, &back, eb);
            }
        }
    }

    #[test]
    fn thread_counts_do_not_change_bytes() {
        // The container must be a pure function of (field, cfg modulo
        // threads): parallelism is an implementation detail.
        let field = wavy(Shape::d3(32, 16, 16));
        let base = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3))
            .chunked(8);
        let reference = compress(&field, &base.with_threads(1)).unwrap().bytes;
        for threads in [2, 3, 8] {
            let bytes = compress(&field, &base.with_threads(threads)).unwrap().bytes;
            assert_eq!(reference, bytes, "threads={threads}");
        }
        // Parallel decode agrees with single-threaded decode (`_exact`
        // so the pool really runs 8-wide even on a small host).
        let a = decompress_with_threads::<f32>(&reference, 1).unwrap();
        let mut wide = ArchiveReader::open_bytes(&reference).unwrap().with_threads_exact(8);
        assert_eq!(a.as_slice(), wide.read_all::<f32>().unwrap().as_slice());
    }

    #[test]
    fn auto_chunking_roundtrips() {
        let field = wavy(Shape::d3(64, 16, 16));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .auto_chunked()
            .with_threads(4);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.n_chunks >= 1);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-3);
    }

    #[test]
    fn random_access_chunk_decode() {
        let field = wavy(Shape::d3(20, 10, 8));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(6)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let n_chunks = chunk_count(&out.bytes).unwrap();
        assert_eq!(n_chunks, 4); // 6+6+6+2 rows

        let full = decompress::<f32>(&out.bytes).unwrap();
        let row_elems = 10 * 8;
        for i in 0..n_chunks {
            let (start_row, slab) = decompress_chunk::<f32>(&out.bytes, i).unwrap();
            assert_eq!(start_row, i * 6);
            let expect_rows = if i == 3 { 2 } else { 6 };
            assert_eq!(slab.shape().dims(), &[expect_rows, 10, 8]);
            let lo = start_row * row_elems;
            assert_eq!(slab.as_slice(), &full.as_slice()[lo..lo + slab.len()]);
        }
        assert!(matches!(
            decompress_chunk::<f32>(&out.bytes, n_chunks),
            Err(DecompressError::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn random_access_on_single_stream_containers() {
        // A v1 archive (fixture: no writer emits them any more) and a
        // `Serial` config's archive are both one whole-field chunk.
        let v1: &[u8] = include_bytes!("../../../tests/data/golden_v1.rqc");
        let field = wavy(Shape::d2(12, 12));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        let serial = compress(&field, &cfg).unwrap().bytes;
        for (bytes, dims) in [(v1, [8, 6]), (&serial[..], [12, 12])] {
            assert_eq!(chunk_count(bytes).unwrap(), 1);
            let (start, slab) = decompress_chunk::<f32>(bytes, 0).unwrap();
            assert_eq!(start, 0);
            assert_eq!(slab.shape().dims(), &dims);
            assert_eq!(slab.as_slice(), decompress::<f32>(bytes).unwrap().as_slice());
            assert!(matches!(
                decompress_chunk::<f32>(bytes, 1),
                Err(DecompressError::ChunkOutOfRange { requested: 1, available: 1 })
            ));
        }
    }

    #[test]
    fn value_range_relative_bound_is_global() {
        // The bound must resolve against the whole field's range, not a
        // chunk's: a chunk that only sees a flat region must still use the
        // global range.
        let field = NdArray::<f32>::from_fn(Shape::d2(16, 32), |ix| {
            if ix[0] < 8 {
                0.0
            } else {
                (ix[0] * 32 + ix[1]) as f32
            }
        });
        let rel = 1e-3;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::ValueRangeRelative(rel))
            .chunked(4);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let abs = rel * field.value_range();
        assert_bounded(&field, &back, abs);
        // And the recorded bound matches the serial pipeline's.
        let serial = compress(&field, &CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::ValueRangeRelative(rel))).unwrap();
        let hc = crate::container::peek_header(&out.bytes).unwrap();
        let hs = crate::container::peek_header(&serial.bytes).unwrap();
        assert_eq!(hc.abs_eb, hs.abs_eb);
    }

    #[test]
    fn pointwise_relative_bound_chunked() {
        let field = NdArray::<f32>::from_fn(Shape::d2(24, 20), |ix| {
            (1.0 + (ix[0] as f64 * 0.2).sin().abs() * 100.0 + ix[1] as f64) as f32
        });
        let ratio = 1e-3;
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(ratio),
        )
        .chunked(5);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            let rel = ((a - b).abs() as f64) / (a.abs() as f64);
            assert!(rel <= ratio * (1.0 + 1e-5), "rel err {rel}");
        }
    }

    #[test]
    fn chunked_report_is_self_consistent() {
        let field = wavy(Shape::d2(60, 60));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(2e-2))
            .chunked(16);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_elements, 60 * 60);
        assert_eq!(rep.container_bytes, out.bytes.len());
        assert_eq!(rep.n_quantized + rep.n_unpredictable, rep.n_elements);
        let hist_total: u64 = rep.symbol_histogram.iter().sum();
        assert_eq!(hist_total as usize, rep.n_quantized);
        assert_eq!(rep.n_chunks, 4);
    }

    #[test]
    fn chunked_tiny_and_awkward_shapes() {
        for pred in PredictorKind::all() {
            for shape in [Shape::d1(1), Shape::d1(7), Shape::d2(1, 3), Shape::d3(3, 1, 2)] {
                let field = wavy(shape);
                let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(1e-3))
                    .chunked(2)
                    .with_threads(3);
                let out = compress(&field, &cfg).unwrap();
                let back = decompress::<f32>(&out.bytes).unwrap();
                assert_eq!(back.shape().dims(), shape.dims());
                assert_bounded(&field, &back, 1e-3);
            }
        }
    }

    #[test]
    fn zero_chunk_rows_is_error_not_panic() {
        // `chunked(0)` panics in the builder, but a literal
        // `Chunking::Rows(0)` bypasses it — the pipeline must return
        // InvalidConfig instead of panicking inside the chunker.
        let field = wavy(Shape::d2(8, 8));
        let mut cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        cfg.chunking = Chunking::Rows(0);
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::InvalidConfig(_))
        ));
        cfg.codec = CodecChoice::Auto;
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::InvalidConfig(_))
        ));
    }

    #[test]
    fn corrupt_v2_is_error_not_panic() {
        let field = wavy(Shape::d2(30, 30));
        let cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(8);
        let out = compress(&field, &cfg).unwrap();
        for cut in [10, out.bytes.len() / 2, out.bytes.len() - 3] {
            let _ = decompress::<f32>(&out.bytes[..cut]); // must not panic
        }
        let mut mangled = out.bytes.clone();
        let mid = mangled.len() / 2;
        mangled[mid] ^= 0xff;
        let _ = decompress::<f32>(&mangled); // must not panic
        assert!(matches!(
            decompress_with_threads::<f64>(&out.bytes, 2),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    /// Axis-0 rows `0..mid` are a smooth low-amplitude wave (SZ's home
    /// turf); rows `mid..` are high-amplitude hash noise whose prediction
    /// errors blow past the quantizer's code range at tight bounds, the
    /// regime where the bit-plane coder wins.
    fn mixed_field(d0: usize, mid: usize) -> NdArray<f32> {
        rq_datagen::fields::mixed_smooth_turbulent(Shape::d3(d0, 12, 12), mid, 40.0)
    }

    #[test]
    fn auto_codec_splits_mixed_field() {
        // The acceptance scenario: on a mixed smooth/turbulent field the
        // scheduler must give at least two chunks different codecs, and
        // the round-trip must stay inside the bound everywhere.
        let field = mixed_field(32, 16);
        let eb = 1e-4;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_chunks, 4);
        let sz = rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Sz).count();
        let zfp = rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Zfp).count();
        assert!(
            sz >= 1 && zfp >= 1,
            "expected a codec split, got {:?}",
            rep.chunk_codecs
        );
        // Smooth slabs to sz, turbulent slabs to zfp, specifically.
        assert_eq!(rep.chunk_codecs[0], ChunkCodecKind::Sz);
        assert_eq!(rep.chunk_codecs[3], ChunkCodecKind::Zfp);
        // The chunk table agrees with the report.
        let table = crate::container::chunk_table(&out.bytes).unwrap();
        let tags: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
        assert_eq!(tags, rep.chunk_codecs);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, eb);
    }

    #[test]
    fn auto_codec_beats_or_matches_both_fixed_choices() {
        // The point of the scheduler: on the mixed field, adaptive output
        // should be no larger than either fixed codec (within the index
        // overhead of a few bytes per chunk).
        let field = mixed_field(32, 16);
        let eb = 1e-4;
        let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8);
        let auto =
            compress(&field, &base.with_codec(CodecChoice::Auto)).unwrap().bytes.len();
        let sz = compress(&field, &base).unwrap().bytes.len();
        let zfp = compress(&field, &base.with_codec(CodecChoice::Zfp)).unwrap().bytes.len();
        let slack = 8 * 4; // tag + rounding per chunk
        assert!(auto <= sz + slack, "auto {auto} vs sz {sz}");
        assert!(auto <= zfp + slack, "auto {auto} vs zfp {zfp}");
    }

    #[test]
    fn fixed_zfp_codec_roundtrips() {
        let field = wavy(Shape::d3(20, 10, 8));
        let eb = 1e-3;
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(6)
            .with_codec(CodecChoice::Zfp)
            .with_threads(3);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.chunk_codecs.iter().all(|&c| c == ChunkCodecKind::Zfp));
        assert_eq!(crate::container::peek_header(&out.bytes).unwrap().version, 6);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, eb);
        // Random access decodes zfp chunks too.
        let full = decompress::<f32>(&out.bytes).unwrap();
        let (start_row, slab) = decompress_chunk::<f32>(&out.bytes, 1).unwrap();
        assert_eq!(start_row, 6);
        let lo = 6 * 10 * 8;
        assert_eq!(slab.as_slice(), &full.as_slice()[lo..lo + slab.len()]);
    }

    #[test]
    fn serial_chunking_with_non_sz_codec_is_one_tagged_chunk() {
        let field = wavy(Shape::d2(30, 30));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .with_codec(CodecChoice::Auto);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_chunks, 1);
        assert_eq!(chunk_count(&out.bytes).unwrap(), 1);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-3);
    }

    #[test]
    fn auto_codec_bytes_independent_of_threads() {
        let field = mixed_field(24, 12);
        let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4))
            .chunked(6)
            .with_codec(CodecChoice::Auto);
        let reference = compress(&field, &base.with_threads(1)).unwrap().bytes;
        for threads in [2, 4, 8] {
            let bytes = compress(&field, &base.with_threads(threads)).unwrap().bytes;
            assert_eq!(reference, bytes, "threads={threads}");
        }
    }

    #[test]
    fn zfp_codec_rejects_pointwise_relative_bound() {
        let field = NdArray::<f32>::from_fn(Shape::d2(16, 16), |ix| 1.0 + ix[0] as f32);
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(1e-3),
        )
        .chunked(4)
        .with_codec(CodecChoice::Zfp);
        assert!(matches!(
            compress(&field, &cfg),
            Err(CompressError::Unsupported(_))
        ));
    }

    #[test]
    fn auto_codec_falls_back_to_sz_for_pointwise_relative() {
        let field = NdArray::<f32>::from_fn(Shape::d2(24, 16), |ix| {
            (1.0 + (ix[0] as f64 * 0.2).sin().abs() * 100.0 + ix[1] as f64) as f32
        });
        let ratio = 1e-3;
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(ratio),
        )
        .chunked(6)
        .with_codec(CodecChoice::Auto);
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(rep.chunk_codecs.iter().all(|&c| c == ChunkCodecKind::Sz));
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            let rel = ((a - b).abs() as f64) / (a.abs() as f64);
            assert!(rel <= ratio * (1.0 + 1e-5), "rel err {rel}");
        }
    }

    #[test]
    fn f64_chunked_roundtrip() {
        let field = NdArray::<f64>::from_fn(Shape::d2(30, 30), |ix| {
            (ix[0] as f64 * 0.3).cos() * 5.0 + ix[1] as f64 * 0.01
        });
        let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-6))
            .chunked(9)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f64>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + 1e-9));
        }
    }
}
