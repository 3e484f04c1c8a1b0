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
//! needs around the kernel — the chunking policy, the one worker pool
//! (`run_in_order`), report aggregation and the per-chunk blob
//! decoder — plus the in-memory decode functions, which are that
//! engine's reader over a byte slice.

use crate::codec::{ChunkCodec, ChunkStats, ZfpChunkCodec};
use crate::config::{Chunking, CompressorConfig};
use crate::container::{
    read_chunk_blob, read_sections_body, ChunkCodecKind, ChunkEntry, DecompressError, Header,
};
use crate::pipeline::{decode_stream, Transform};
use crate::report::CompressionReport;
use crate::stream::ArchiveReader;
use rq_grid::{auto_chunk_rows, NdArray, Scalar, Shape};
use rq_quant::LinearQuantizer;
use std::io::Cursor;
use std::sync::{Condvar, Mutex, PoisonError};

/// Minimum elements per auto-sized chunk, so per-chunk codebook/section
/// overhead stays well under a percent of typical chunk payloads.
const AUTO_MIN_CHUNK_ELEMS: usize = 1 << 15;

/// Auto mode aims for this many chunks whatever the thread count, so the
/// bytes do not depend on the machine: enough to feed 16 workers, and to
/// give the codec scheduler and the quality planner per-chunk choices.
const AUTO_CHUNKS: usize = 16;

/// The axis-0 rows per chunk that `cfg`'s chunking resolves to for
/// `shape` — i.e. the chunk partition every writer (one-shot, streaming,
/// planned) will use; [`Chunking::Serial`] is one whole-field chunk.
/// Public so quality-targeted callers can run their per-chunk pre-pass
/// over exactly the partition the writer will encode.
pub fn resolved_chunk_rows(cfg: &CompressorConfig, shape: Shape) -> usize {
    match cfg.chunking {
        Chunking::Serial => shape.dim(0),
        Chunking::Rows(rows) => rows.clamp(1, shape.dim(0)),
        Chunking::Auto => auto_chunk_rows(shape, AUTO_CHUNKS, AUTO_MIN_CHUNK_ELEMS),
    }
}

/// The crate's one worker pool, which the writer's batches, region reads
/// and ordered streaming all run on: `f` runs over `items` on up to
/// `threads` scoped workers, which claim items in input order from one
/// cursor, at most `2 × threads` ahead of delivery; each result goes to
/// `deliver` on the calling thread, in input order, exactly once. The
/// first error in input order, at item *k*, from `f` or `deliver`, stops
/// all claims after *k*: the items before *k* are delivered, then *k*'s
/// error is returned, as at one thread. At one thread, or with one item,
/// this is a plain loop on the caller.
pub(crate) fn run_in_order<I, R, E, F, D>(
    items: Vec<I>,
    threads: usize,
    f: F,
    mut deliver: D,
) -> Result<(), E>
where
    I: Send,
    R: Send,
    E: Send,
    F: Fn(I) -> Result<R, E> + Sync,
    D: FnMut(R) -> Result<(), E>,
{
    let (n, threads) = (items.len(), threads.min(items.len()));
    if threads <= 1 {
        return items.into_iter().try_for_each(|item| deliver(f(item)?));
    }
    let slots = (0..n).map(|_| None).collect();
    let state = Pool { items: items.into_iter(), claimed: 0, limit: n, delivered: 0, slots };
    let (pool, wake) = (Mutex::new(state), Condvar::new());
    // `f` and `deliver` run unlocked and no update under the lock can stop
    // half-way, so a lock poisoned by a panic still holds a valid state.
    let lock = || pool.lock().unwrap_or_else(PoisonError::into_inner);
    let wait = |st| wake.wait(st).unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _halt = Halt(&pool, &wake);
                let mut st = lock();
                loop {
                    while st.claimed < st.limit && st.claimed >= st.delivered + 2 * threads {
                        st = wait(st);
                    }
                    let i = st.claimed;
                    let Some(item) = (i < st.limit).then(|| st.items.next()).flatten() else {
                        return;
                    };
                    st.claimed += 1;
                    drop(st);
                    let result = f(item);
                    st = lock();
                    if result.is_err() {
                        st.limit = st.limit.min(i + 1);
                    }
                    st.slots[i] = Some(result);
                    wake.notify_all();
                }
            });
        }
        let _halt = Halt(&pool, &wake);
        for i in 0..n {
            let mut st = lock();
            let result = loop {
                match st.slots[i].take() {
                    Some(result) => break result,
                    None if st.limit == 0 => return Ok(()), // the scope re-raises the panic
                    None => st = wait(st),
                }
            };
            drop(st);
            let delivered = result.and_then(&mut deliver);
            let mut st = lock();
            st.delivered += 1;
            if delivered.is_err() {
                st.limit = st.limit.min(st.claimed);
            }
            wake.notify_all();
            delivered?;
        }
        Ok(())
    })
}

/// What the threads of one [`run_in_order`] call share behind its lock:
/// the unclaimed items and the claim cursor, where claims stop (the item
/// count, cut to one past the first failure; `0` once a thread panicked),
/// the count of delivered results, and one slot per item for its result.
struct Pool<I, R, E> {
    items: std::vec::IntoIter<I>,
    claimed: usize,
    limit: usize,
    delivered: usize,
    slots: Vec<Option<Result<R, E>>>,
}

/// Stops the pool when its thread panics, so that nobody waits for the
/// result or the window slot that thread held.
struct Halt<'p, I, R, E>(&'p Mutex<Pool<I, R, E>>, &'p Condvar);

impl<I, R, E> Drop for Halt<'_, I, R, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).limit = 0;
            self.1.notify_all();
        }
    }
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
            decode_stream(&body, lossless, chunk_shape, header.predictor, quantizer, transform, out)
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

/// Decode a single chunk of a container held in memory (random access).
///
/// Returns the slab's first axis-0 row and the decoded slab as a
/// standalone array. For a v1 container only chunk 0 exists (the whole
/// field).
pub fn decompress_chunk<T: Scalar>(
    bytes: &[u8],
    chunk: usize,
) -> Result<(usize, NdArray<T>), DecompressError> {
    let (start, slab, _) = ArchiveReader::open(Cursor::new(bytes))?.read_chunk(chunk)?;
    Ok((start, slab))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecChoice;
    use crate::container::{chunk_count, CompressError};
    use crate::pipeline::{compress, compress_with_report, decompress};
    use rq_predict::PredictorKind;
    use rq_quant::ErrorBoundMode;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    /// Item `i`'s cost in the pool tests: skewed, so later items often
    /// finish before earlier ones.
    fn skewed_cost(i: usize) {
        let micros = [900, 50, 300, 0, 600][i % 5];
        std::thread::sleep(std::time::Duration::from_micros(micros));
    }

    #[test]
    fn pool_delivers_each_result_once_in_order_within_its_window() {
        for threads in [1, 2, 3, 8] {
            let (claimed, delivered, ahead) =
                (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            let mut got = Vec::new();
            let square = |i: usize| -> Result<usize, ()> {
                let c = claimed.fetch_add(1, SeqCst) + 1;
                ahead.fetch_max(c.saturating_sub(delivered.load(SeqCst)), SeqCst);
                skewed_cost(i);
                Ok(i * i)
            };
            run_in_order((0..40).collect(), threads, square, |r| {
                got.push(r);
                delivered.fetch_add(1, SeqCst);
                Ok(())
            })
            .unwrap();
            assert_eq!(got, (0..40).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
            let ahead = ahead.into_inner();
            assert!(ahead <= 2 * threads, "threads={threads}: {ahead} claimed ahead of delivery");
        }
    }

    #[test]
    fn pool_returns_the_first_error_in_input_order_after_its_prefix() {
        // Items 7 and 11 fail. From three threads on, the window lets 11
        // be claimed while 7 runs, and 7 waits until 11 has failed.
        for threads in [1, 2, 3, 8] {
            let mut got = Vec::new();
            let eleven_failed = AtomicBool::new(false);
            let fail = |i: usize| {
                skewed_cost(i);
                match i {
                    7 if threads >= 3 => {
                        while !eleven_failed.load(SeqCst) {
                            std::thread::yield_now();
                        }
                        Err(i)
                    }
                    7 => Err(i),
                    11 => {
                        eleven_failed.store(true, SeqCst);
                        Err(i)
                    }
                    _ => Ok(i),
                }
            };
            let result = run_in_order((0..30).collect(), threads, fail, |r| {
                got.push(r);
                Ok(())
            });
            assert_eq!(result, Err(7), "threads={threads}");
            assert_eq!(got, (0..7).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn pool_claims_at_most_a_window_after_a_deliver_error() {
        for threads in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let mut calls_at_error = 0;
            let count = |i: usize| -> Result<usize, usize> {
                calls.fetch_add(1, SeqCst);
                skewed_cost(i);
                Ok(i)
            };
            let result = run_in_order((0..60).collect(), threads, count, |i| {
                if i < 4 {
                    return Ok(());
                }
                calls_at_error = calls.load(SeqCst);
                Err(100 + i)
            });
            assert_eq!(result, Err(104), "threads={threads}");
            let more = calls.into_inner() - calls_at_error;
            assert!(more <= 2 * threads, "threads={threads}: f ran {more} more times");
        }
    }

    #[test]
    fn pool_propagates_a_panic_instead_of_hanging() {
        let worker = std::panic::catch_unwind(|| {
            let f = |i: usize| -> Result<usize, ()> {
                assert_ne!(i, 5, "item 5 panics");
                Ok(i)
            };
            run_in_order((0..20).collect(), 3, f, |_| Ok(()))
        });
        assert!(worker.is_err(), "a worker's panic must reach the caller");
        let caller = std::panic::catch_unwind(|| {
            run_in_order((0..20).collect(), 3, Ok::<usize, ()>, |i| {
                assert_ne!(i, 5, "delivering item 5 panics");
                Ok(())
            })
        });
        assert!(caller.is_err(), "a panic in deliver must leave no worker waiting");
    }

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
        // The auto-sized field is large enough for a chunk count taken
        // from the thread count to show: 4 chunks against 8 at 1 and 2.
        let field = wavy(Shape::d3(32, 16, 16));
        let large = wavy(Shape::d3(64, 64, 64));
        let base = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3));
        for (field, base) in [(&field, base.chunked(8)), (&large, base.auto_chunked())] {
            let reference = compress(field, &base.with_threads(1)).unwrap().bytes;
            for threads in [2, 3, 8] {
                let bytes = compress(field, &base.with_threads(threads)).unwrap().bytes;
                assert_eq!(reference, bytes, "{:?} threads={threads}", base.chunking);
            }
            // Parallel decode agrees with single-threaded decode (`_exact`
            // so the pool really runs 8-wide even on a small host).
            let open = || ArchiveReader::open(Cursor::new(&reference[..])).unwrap();
            let a = open().with_threads(1).read_all::<f32>().unwrap();
            let wide = open().with_threads_exact(8).read_all::<f32>().unwrap();
            assert_eq!(a.as_slice(), wide.as_slice());
        }
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
            ArchiveReader::open(Cursor::new(&out.bytes[..]))
                .and_then(|r| r.with_threads(2).read_all::<f64>()),
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
