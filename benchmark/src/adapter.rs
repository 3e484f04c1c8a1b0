//! Every call the benchmark makes into the library, and nothing else.
//!
//! This file is the API pin list (README.md, "API pins"): removing or
//! renaming anything imported here needs a `benchmark` issue first. Each
//! wrapper records one span named `<crate>.<operation>`, so a trace reads as
//! time per layer measured from outside the library.

use std::fs::File;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rq_catalog::{CatalogReader, CatalogWriter};
use rq_compress::{
    choose_codec, ArchiveReader, ArchiveWriter, ChunkCodec, ChunkCodecKind, ChunkSource,
    CodecChoice, CompressorConfig, ConcurrentReader, LosslessStage, RolzChunkCodec, SzChunkCodec,
    ZfpChunkCodec,
};
use rq_core::RqModel;
use rq_encoding::lossless::{lossless_compress as lossless_stage, lossless_decompress_bounded};
use rq_encoding::HuffmanCodec;
use rq_predict::sample_prediction_errors;
use rq_quant::{ErrorBoundMode, LinearQuantizer, DEFAULT_RADIUS};
use rq_serve::{ChunkCache, Client, DatasetInfo, ServeConfig, Server};

pub use rq_grid::{NdArray, Shape};
pub use rq_predict::PredictorKind;
pub use rq_serve::ServeStats;

use crate::trace::span;

pub type Field = NdArray<f32>;
type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// --------------------------------------------------------------- datagen

pub fn rtm_steps(seed: u64, n: usize, dims: [usize; 3]) -> Vec<Field> {
    span("datagen.rtm_steps", || rq_datagen::rtm_steps(seed, n, dims))
}

pub fn mixed_smooth_turbulent(shape: Shape, smooth_rows: usize, amp: f64) -> Field {
    span("datagen.fields", || {
        rq_datagen::fields::mixed_smooth_turbulent(shape, smooth_rows, amp)
    })
}

pub fn hurricane_u() -> Field {
    span("datagen.fields", rq_datagen::fields::hurricane_u)
}

pub fn cesm_ts() -> Field {
    span("datagen.fields", rq_datagen::fields::cesm_ts)
}

// -------------------------------------------------------------- analysis

pub fn psnr(original: &Field, decoded: &Field) -> f64 {
    span("analysis.psnr", || rq_analysis::psnr(original, decoded))
}

// ------------------------------------------------------------------ core

/// The ratio-quality model of one field (paper §III), built from one
/// sampling pass at `rate`.
pub struct Model(RqModel);

impl Model {
    pub fn build(field: &Field, predictor: PredictorKind, rate: f64, seed: u64) -> Model {
        span("core.build", || {
            Model(RqModel::build(field, predictor, rate, seed))
        })
    }

    pub fn error_bound_for_psnr(&self, target_db: f64) -> f64 {
        span("core.invert", || self.0.error_bound_for_psnr(target_db))
    }

    /// Predicted (bits per value, PSNR in dB) at absolute bound `eb`.
    pub fn estimate(&self, eb: f64) -> (f64, f64) {
        span("core.estimate", || {
            let e = self.0.estimate(eb);
            (e.bit_rate, e.psnr)
        })
    }
}

// ------------------------------------------- predict / quant / encoding

/// Prediction error of every element, predicting from original values.
pub fn prediction_errors(data: &[f32], shape: Shape, predictor: PredictorKind) -> Vec<f64> {
    span("predict.sample_prediction_errors", || {
        sample_prediction_errors(data, shape, predictor, data.len()).errors
    })
}

/// Quantize prediction errors into the entropy coder's symbol space, the
/// way the chunk kernel does: in-range codes shift by the radius, the rest
/// take the escape symbol. Returns the symbols and the escape count.
pub fn quantize_symbols(errors: &[f64], eb: f64) -> (Vec<u32>, usize) {
    span("quant.quantize", || {
        let q = LinearQuantizer::new(eb, DEFAULT_RADIUS);
        let escape = 2 * DEFAULT_RADIUS + 1;
        let mut escapes = 0;
        let mut sink = 0.0;
        let symbols = errors
            .iter()
            .map(|&e| match q.quantize(e) {
                Some(code) => {
                    sink += q.reconstruct(code);
                    q.code_to_symbol(code)
                }
                None => {
                    escapes += 1;
                    escape
                }
            })
            .collect();
        std::hint::black_box(sink);
        (symbols, escapes)
    })
}

pub fn symbol_alphabet() -> usize {
    2 * DEFAULT_RADIUS as usize + 2
}

pub struct Huffman(HuffmanCodec);

impl Huffman {
    /// Build the code and serialize its codebook, as the chunk kernel does.
    pub fn build(counts: &[u64]) -> Res<Huffman> {
        span("encoding.huffman_build", || {
            let codec = HuffmanCodec::from_counts(counts).map_err(err("huffman build"))?;
            std::hint::black_box(codec.serialize_codebook());
            Ok(Huffman(codec))
        })
    }

    pub fn encode(&self, symbols: &[u32]) -> Res<Vec<u8>> {
        span("encoding.huffman_encode", || {
            self.0.encode(symbols).map_err(err("huffman encode"))
        })
    }

    pub fn decode(&self, bytes: &[u8], n: usize) -> Res<Vec<u32>> {
        span("encoding.huffman_decode", || {
            self.0.decode(bytes, n).map_err(err("huffman decode"))
        })
    }
}

pub fn lossless_pack(input: &[u8]) -> Vec<u8> {
    span("encoding.lossless_compress", || lossless_stage(input))
}

pub fn lossless_unpack(input: &[u8], max_len: usize) -> Res<Vec<u8>> {
    span("encoding.lossless_decompress", || {
        lossless_decompress_bounded(input, max_len).ok_or_else(|| "lossless decompress".to_string())
    })
}

// ------------------------------------------------------- compress: codecs

/// The four chunk codecs the harness replays one chunk through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    SzLorenzo,
    SzInterp,
    Zfp,
    Rolz,
}

/// What the archive's chunk table says produced a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkKind {
    Sz,
    Zfp,
    Rolz,
}

impl From<ChunkCodecKind> for ChunkKind {
    fn from(k: ChunkCodecKind) -> ChunkKind {
        match k {
            ChunkCodecKind::Sz => ChunkKind::Sz,
            ChunkCodecKind::Zfp => ChunkKind::Zfp,
            ChunkCodecKind::Rolz => ChunkKind::Rolz,
        }
    }
}

/// Symbol and escape counts of an encoded SZ chunk (zero for ZFP).
#[derive(Clone, Copy, Debug, Default)]
pub struct EncodeCounts {
    pub symbols: usize,
    pub escapes: usize,
}

fn with_codec<R>(codec: Codec, eb: f64, f: impl FnOnce(&dyn ChunkCodec<f32>) -> R) -> R {
    let q = LinearQuantizer::new(eb, DEFAULT_RADIUS);
    match codec {
        Codec::SzLorenzo => f(&SzChunkCodec::new(
            PredictorKind::Lorenzo,
            q,
            LosslessStage::RleLzss,
        )),
        Codec::SzInterp => f(&SzChunkCodec::new(
            PredictorKind::Interpolation,
            q,
            LosslessStage::RleLzss,
        )),
        Codec::Zfp => f(&ZfpChunkCodec::new(eb)),
        Codec::Rolz => f(&RolzChunkCodec::new(PredictorKind::Lorenzo, q)),
    }
}

fn codec_span(codec: Codec, encode: bool) -> &'static str {
    match (codec, encode) {
        (Codec::SzLorenzo, true) => "compress.sz_lorenzo_encode",
        (Codec::SzLorenzo, false) => "compress.sz_lorenzo_decode",
        (Codec::SzInterp, true) => "compress.sz_interp_encode",
        (Codec::SzInterp, false) => "compress.sz_interp_decode",
        (Codec::Zfp, true) => "zfp.encode",
        (Codec::Zfp, false) => "zfp.decode",
        (Codec::Rolz, true) => "compress.rolz_encode",
        (Codec::Rolz, false) => "compress.rolz_decode",
    }
}

pub fn codec_encode(
    codec: Codec,
    eb: f64,
    data: &[f32],
    shape: Shape,
) -> Res<(Vec<u8>, EncodeCounts)> {
    span(codec_span(codec, true), || {
        with_codec(codec, eb, |c| c.encode(data, shape))
            .map(|(blob, s)| {
                (
                    blob,
                    EncodeCounts {
                        symbols: s.n_symbols,
                        escapes: s.n_escapes,
                    },
                )
            })
            .map_err(err("chunk encode"))
    })
}

pub fn codec_decode(codec: Codec, eb: f64, blob: &[u8], shape: Shape, out: &mut [f32]) -> Res<()> {
    span(codec_span(codec, false), || {
        with_codec(codec, eb, |c| c.decode(blob, shape, out)).map_err(err("chunk decode"))
    })
}

/// The scheduler's three-way choice for one chunk.
pub fn choose(data: &[f32], shape: Shape, eb: f64) -> ChunkKind {
    span("compress.choose_codec", || {
        choose_codec(data, shape, PredictorKind::Lorenzo, eb, DEFAULT_RADIUS)
            .codec
            .into()
    })
}

// ----------------------------------------------------- compress: sessions

/// How a workload stores a field.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    pub predictor: PredictorKind,
    /// `true`: per-chunk choice among SZ, ZFP and ROLZ; `false`: always SZ.
    pub auto_codec: bool,
    pub chunk_rows: usize,
    pub threads: usize,
}

impl StoreConfig {
    fn compressor(&self, eb: f64) -> CompressorConfig {
        CompressorConfig::new(self.predictor, ErrorBoundMode::Abs(eb))
            .chunked(self.chunk_rows)
            .with_threads(self.threads)
            .with_codec(if self.auto_codec {
                CodecChoice::Auto
            } else {
                CodecChoice::Sz
            })
    }
}

/// A file sink that accounts, while tracing, for the time spent in the
/// operating system's `write` — the part of `write_slab` that is not codec.
struct FileSink {
    file: File,
    write_ns: u64,
}

impl Write for FileSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !crate::trace::enabled() {
            return self.file.write(buf);
        }
        let t0 = Instant::now();
        let n = self.file.write(buf);
        self.write_ns += t0.elapsed().as_nanos() as u64;
        n
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl FileSink {
    fn create(path: &Path) -> Res<FileSink> {
        span("fs.create", || {
            File::create(path).map_err(err("create file"))
        })
        .map(|file| FileSink { file, write_ns: 0 })
    }

    /// Make the file durable; returns the nanoseconds spent in `write`.
    fn sync(self) -> Res<u64> {
        span("fs.sync", || self.file.sync_all().map_err(err("sync file")))?;
        Ok(self.write_ns)
    }
}

/// What writing one artifact cost, as seen from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct Written {
    pub bytes: u64,
    /// Nanoseconds inside the file's `write` calls (traced runs only).
    pub fs_write_ns: u64,
}

/// Compress `field` into an archive file at `path`, feeding the writer
/// slabs of `slab_rows` rows, and sync it to disk.
pub fn write_archive(
    path: &Path,
    field: &Field,
    eb: f64,
    cfg: &StoreConfig,
    slab_rows: usize,
) -> Res<Written> {
    let shape = field.shape();
    let row_elems = shape.len() / shape.dim(0);
    let sink = FileSink::create(path)?;
    let mut writer = span("compress.writer_create", || {
        ArchiveWriter::<f32, _>::create(sink, shape, &cfg.compressor(eb))
    })
    .map_err(err("create archive"))?;
    let mut dims = shape.dims().to_vec();
    for start in (0..shape.dim(0)).step_by(slab_rows) {
        let rows = slab_rows.min(shape.dim(0) - start);
        dims[0] = rows;
        let slab = NdArray::from_vec(
            Shape::new(&dims),
            field.as_slice()[start * row_elems..(start + rows) * row_elems].to_vec(),
        );
        span("compress.write_slab", || writer.write_slab(&slab)).map_err(err("write slab"))?;
    }
    let done = span("compress.writer_finalize", || writer.finalize()).map_err(err("finalize"))?;
    Ok(Written {
        bytes: done.bytes_written,
        fs_write_ns: done.sink.sync()?,
    })
}

/// One row of an archive's chunk table.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRow {
    pub rows: usize,
    pub blob_len: usize,
    pub kind: ChunkKind,
}

/// An open archive with a decode pool of `threads` workers.
pub struct Reader(ArchiveReader<File>);

impl Reader {
    pub fn open(path: &Path, threads: usize) -> Res<Reader> {
        span("compress.reader_open", || {
            ArchiveReader::open_path(path).map(|r| Reader(r.with_threads(threads)))
        })
        .map_err(err("open archive"))
    }

    /// Decode the whole field into memory.
    pub fn read_all(&mut self) -> Res<Field> {
        span("compress.read_all", || self.0.read_all::<f32>()).map_err(err("read_all"))
    }

    /// Stream the whole field through `emit`, slab by slab, in row order.
    pub fn decompress_rows(&mut self, mut emit: impl FnMut(&[f32])) -> Res<()> {
        span("compress.decompress_rows", || {
            self.0.decompress_rows::<f32>(|slab| {
                emit(slab);
                Ok(())
            })
        })
        .map_err(err("decompress_rows"))
    }

    pub fn read_rows(&mut self, rows: Range<usize>) -> Res<Field> {
        span("compress.read_rows", || self.0.read_rows::<f32>(rows)).map_err(err("read_rows"))
    }

    pub fn chunk_table(&self) -> Vec<ChunkRow> {
        self.0
            .chunk_table()
            .entries
            .iter()
            .map(|e| ChunkRow {
                rows: e.rows,
                blob_len: e.len,
                kind: e.codec.into(),
            })
            .collect()
    }

    /// (chunks decoded, blob bytes read, reorder copies) since `open`.
    pub fn stats(&self) -> [u64; 3] {
        let s = self.0.stats();
        [s.chunks_decoded, s.blob_bytes_read, s.reorder_copies]
    }
}

/// A shareable reader: the local counterpart of a served read.
#[derive(Clone)]
pub struct SharedReader(ConcurrentReader<File>);

impl SharedReader {
    pub fn open(path: &Path) -> Res<SharedReader> {
        ConcurrentReader::open_path(path)
            .map(SharedReader)
            .map_err(err("open shared reader"))
    }

    pub fn read_rows(&self, rows: Range<usize>) -> Res<Field> {
        span("compress.shared_read_rows", || {
            self.0.read_rows::<f32>(rows)
        })
        .map_err(err("shared read_rows"))
    }

    /// A decoded-chunk cache over this reader with chunk `idx` resident;
    /// `fetch` then times a pure cache hit, with no socket in the way.
    pub fn warm_cache(&self, idx: usize) -> Res<WarmCache> {
        let cache = ChunkCache::<f32, _>::new(self.0.clone(), u64::MAX);
        cache.fetch_chunk(idx).map_err(err("warm cache"))?;
        Ok(WarmCache { cache, idx })
    }
}

pub struct WarmCache {
    cache: ChunkCache<f32, ConcurrentReader<File>>,
    idx: usize,
}

impl WarmCache {
    pub fn fetch(&self) -> Res<Arc<[f32]>> {
        self.cache.fetch_chunk(self.idx).map_err(err("cache fetch"))
    }

    /// (hits, misses) so far.
    pub fn hits_misses(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses)
    }
}

// --------------------------------------------------------------- catalog

pub const CATALOG_DATASET: &str = "wavefield";

/// Pack `steps` as one time-delta dataset into a catalog file and sync it.
pub fn write_catalog(
    path: &Path,
    steps: &[Field],
    eb: f64,
    cfg: &StoreConfig,
    keyframe_every: usize,
) -> Res<Written> {
    let sink = FileSink::create(path)?;
    let mut writer = CatalogWriter::create(sink).map_err(err("create catalog"))?;
    span("catalog.write_dataset", || {
        writer.write_dataset(CATALOG_DATASET, &cfg.compressor(eb), keyframe_every, steps)
    })
    .map_err(err("write dataset"))?;
    let done = span("catalog.finalize", || writer.finalize()).map_err(err("finalize catalog"))?;
    Ok(Written {
        bytes: done.bytes_written,
        fs_write_ns: done.sink.sync()?,
    })
}

pub struct Catalog(CatalogReader<File>);

impl Catalog {
    pub fn open(path: &Path) -> Res<Catalog> {
        span("catalog.open", || CatalogReader::open_path(path))
            .map(Catalog)
            .map_err(err("open catalog"))
    }

    /// Decode one step, resolving its delta chain back to the keyframe.
    pub fn read_step(&mut self, step: usize) -> Res<Field> {
        span("catalog.read_step", || {
            self.0.read_step::<f32>(CATALOG_DATASET, step)
        })
        .map_err(err("read_step"))
    }
}

// ----------------------------------------------------------------- serve

/// A running read service over one archive or catalog file.
pub struct Service(Server);

impl Service {
    pub fn bind(path: &Path, cache_bytes: u64) -> Res<Service> {
        let cfg = ServeConfig {
            cache_bytes,
            ..ServeConfig::default()
        };
        span("serve.bind", || Server::bind_path("127.0.0.1:0", path, cfg))
            .map(Service)
            .map_err(err("bind server"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn stats(&self) -> ServeStats {
        self.0.stats()
    }

    /// Stop accepting, close connections and join the server's threads.
    pub fn shutdown(self) {
        self.0.shutdown()
    }
}

/// One blocking connection; a served catalog is addressed through its
/// (only) dataset, a served archive directly by rows.
pub struct Connection {
    client: Client,
    dataset: Option<DatasetInfo>,
}

impl Connection {
    pub fn connect(addr: SocketAddr, catalog: bool) -> Res<Connection> {
        span("serve.connect", || {
            let mut client = Client::connect(addr).map_err(err("connect"))?;
            let dataset = if catalog {
                let mut all = client.list_datasets().map_err(err("list datasets"))?;
                Some(all.swap_remove(0))
            } else {
                None
            };
            Ok(Connection { client, dataset })
        })
    }

    pub fn ping(&mut self) -> Res<()> {
        span("serve.ping", || self.client.ping()).map_err(err("ping"))
    }

    /// `READ_ROWS` on an archive, `READ_STEP_ROWS` at `step` on a catalog.
    pub fn read(&mut self, step: usize, rows: Range<usize>) -> Res<Field> {
        match &self.dataset {
            None => span("serve.read_rows", || self.client.read_rows::<f32>(rows))
                .map_err(err("served read_rows")),
            Some(ds) => span("serve.read_step_rows", || {
                self.client.read_step_rows::<f32>(ds, step as u64, rows)
            })
            .map_err(err("served read_step_rows")),
        }
    }
}
