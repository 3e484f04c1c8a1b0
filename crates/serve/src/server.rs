//! The archive read daemon: a thread-per-connection TCP server that
//! answers the `docs/PROTOCOL.md` request set.
//!
//! Whatever file is served, the handlers know one thing: a list of
//! `Served` datasets, each a [`ChunkCache`] over a flattened,
//! time-major [`ChunkSource`] plus its step geometry. A catalog dataset
//! is that over its [`DatasetReader`]; a plain archive is the same thing
//! with one step, keyframe cadence 1 and the name
//! [`SINGLE_ARCHIVE_DATASET`] over its [`ConcurrentReader`]. The v1
//! opcodes address dataset 0's flat view, the v2 opcodes a
//! `(dataset, step)` mapped onto it.
//!
//! Layering per request: **fetch** (compressed blob, under the source
//! lock) → **decode** (outside the lock, deduplicated by the cache's
//! single flight) → **delivery** (`assemble_rows` gathers the decoded
//! chunks, and `answer` writes the reply once, in its frame).
//! Connections only ever share the decoded `Arc<[T]>` chunks, so a hot
//! chunk is decoded once no matter how many clients stream rows out of
//! it.

use std::io::{self, BufReader, Cursor, Read, Seek};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rq_catalog::{is_catalog_magic, CatalogError, CatalogReader, DatasetReader};
use rq_compress::{
    assemble_rows, ChunkEntry, ChunkSource, ConcurrentReader, DecompressError, ReadStats,
};
use rq_grid::Scalar;

use crate::cache::{CacheStats, ChunkCache};
use crate::protocol::{
    begin_frame, encode_err, end_frame, parse_request, put_f64, put_u32, put_u64, read_frame,
    write_frame, ErrorCode, Frame, Request, Take, WireError, MAX_REQUEST_BODY,
};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Byte budget for the decoded-chunk cache (0 disables caching but
    /// keeps single-flight coalescing).
    pub cache_bytes: u64,
    /// Emit a one-line stats log to stderr this often (`None` = quiet).
    pub metrics_every: Option<Duration>,
    /// Cap on concurrently-served connections (0 = unlimited). The
    /// accept loop holds further connections in the listener backlog
    /// until a handler thread finishes.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // 256 MiB holds ~64 chunks of a 1M-element f32 field — enough
        // that a zipfian hot set stays resident; see docs/PROTOCOL.md
        // for sizing guidance.
        ServeConfig { cache_bytes: 256 << 20, metrics_every: None, max_connections: 0 }
    }
}

/// Snapshot of server counters, as served by the `STATS` request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Frames handled (including ones answered with an error).
    pub requests: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Response bytes written (frame prefix included).
    pub bytes_out: u64,
    /// Connections accepted since startup.
    pub connections: u64,
    /// Decoded-chunk cache counters, summed over the served datasets
    /// (each has its own cache). `cache.bytes_peak` is therefore the
    /// *sum of per-dataset peaks* over a catalog — an upper bound on the
    /// peak of the sum, which no counter records.
    pub cache: CacheStats,
    /// Chunks decoded by the underlying reader (cache misses that went
    /// through to a real decode).
    pub chunks_decoded: u64,
    /// Compressed bytes fetched from the archive by the reader.
    pub blob_bytes_read: u64,
}

impl ServeStats {
    /// Wire encoding: twelve u64s, little-endian, in field order (see
    /// `docs/PROTOCOL.md`).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 * 8);
        for v in [
            self.requests,
            self.errors,
            self.bytes_out,
            self.connections,
            self.cache.hits,
            self.cache.misses,
            self.cache.coalesced_waits,
            self.cache.evictions,
            self.cache.bytes_cached,
            self.cache.bytes_peak,
            self.chunks_decoded,
            self.blob_bytes_read,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Inverse of [`ServeStats::encode`].
    pub fn parse(payload: &[u8]) -> Result<ServeStats, WireError> {
        let mut t = Take(payload);
        let stats = ServeStats {
            requests: t.u64()?,
            errors: t.u64()?,
            bytes_out: t.u64()?,
            connections: t.u64()?,
            cache: CacheStats {
                hits: t.u64()?,
                misses: t.u64()?,
                coalesced_waits: t.u64()?,
                evictions: t.u64()?,
                bytes_cached: t.u64()?,
                bytes_peak: t.u64()?,
            },
            chunks_decoded: t.u64()?,
            blob_bytes_read: t.u64()?,
        };
        t.finish()?;
        Ok(stats)
    }
}

/// The one-line `key=value` rendering behind `rqm serve
/// --metrics-every` and `rqm read --stats`.
impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ServeStats { requests, errors, bytes_out, connections, cache: c, .. } = *self;
        let lookups = c.hits + c.misses;
        let hit_pct = if lookups == 0 { 0.0 } else { 100.0 * c.hits as f64 / lookups as f64 };
        write!(
            f,
            "requests={requests} errors={errors} conns={connections} out={bytes_out}B \
             hit={hit_pct:.1}% hits={} misses={} coalesced={} evicted={} resident={}B peak={}B \
             decoded={} blob_read={}B",
            c.hits,
            c.misses,
            c.coalesced_waits,
            c.evictions,
            c.bytes_cached,
            c.bytes_peak,
            self.chunks_decoded,
            self.blob_bytes_read,
        )
    }
}

/// Dataset name a single-field archive reports to v2 clients.
pub const SINGLE_ARCHIVE_DATASET: &str = "field";

/// One served dataset: a decoded-chunk cache over a flattened,
/// time-major chunk source, plus the step geometry that maps a
/// `(step, row)` onto it. The cache is keyed by the source's flat chunk
/// index, which encodes `(step, chunk)`.
struct Served<T: Scalar, S: ChunkSource<T>> {
    name: String,
    step_dims: Vec<usize>,
    keyframe_every: u64,
    n_steps: u64,
    eb: f64,
    cache: ChunkCache<T, S>,
    /// The source's own decode counters (`ConcurrentReader::stats` or
    /// `DatasetReader::stats`, which [`ChunkSource`] does not carry).
    read_stats: fn(&S) -> ReadStats,
}

/// The scalar-erased view of a [`Served`] the connection handlers talk
/// to (f32 and f64 datasets mix freely in one catalog, so the erasure is
/// per dataset). Methods that fill a reply append to the frame
/// [`answer`] has started.
trait Dataset: Send + Sync {
    /// Axis-0 extent of the flat view (`n_steps × step_rows`).
    fn rows(&self) -> u64;
    /// Chunk table of the flat view, in time-major slab order.
    fn entries(&self) -> &[ChunkEntry];
    /// `(time steps, axis-0 extent of one step)`.
    fn steps(&self) -> (u64, u64);
    /// Append the `INFO` payload: the flat view's metadata.
    fn info(&self, out: &mut Vec<u8>);
    /// Append this dataset's `LIST_DATASETS` description.
    fn describe(&self, out: &mut Vec<u8>);
    /// Append the decoded scalars of the flat rows `rows`.
    fn rows_into(&self, rows: Range<usize>, out: &mut Vec<u8>) -> Result<(), DecompressError>;
    /// Append the decoded scalars of flat chunk `idx`.
    fn chunk_into(&self, idx: usize, out: &mut Vec<u8>) -> Result<(), DecompressError>;
    /// Cache counters and the source's decode counters.
    fn stats(&self) -> (CacheStats, ReadStats);
}

impl<T: Scalar, S: ChunkSource<T>> Dataset for Served<T, S> {
    fn rows(&self) -> u64 {
        self.cache.header().shape.dim(0) as u64
    }

    fn entries(&self) -> &[ChunkEntry] {
        self.cache.entries()
    }

    fn steps(&self) -> (u64, u64) {
        (self.n_steps, self.step_dims[0] as u64)
    }

    fn info(&self, out: &mut Vec<u8>) {
        let h = self.cache.header();
        out.push(h.version);
        out.push(h.scalar_tag);
        out.push(h.shape.ndim() as u8);
        for &d in h.shape.dims() {
            put_u64(out, d as u64);
        }
        put_u64(out, self.cache.chunk_rows() as u64);
        put_u64(out, self.cache.entries().len() as u64);
        put_f64(out, h.abs_eb);
    }

    fn describe(&self, out: &mut Vec<u8>) {
        put_u32(out, self.name.len() as u32);
        out.extend_from_slice(self.name.as_bytes());
        out.push(T::TAG);
        out.push(self.step_dims.len() as u8);
        for &d in &self.step_dims {
            put_u64(out, d as u64);
        }
        put_u64(out, self.keyframe_every);
        put_u64(out, self.n_steps);
        put_u64(out, self.cache.entries().len() as u64 / self.n_steps);
        put_f64(out, self.eb);
    }

    fn rows_into(&self, rows: Range<usize>, out: &mut Vec<u8>) -> Result<(), DecompressError> {
        put_scalars(assemble_rows(&self.cache, rows)?.as_slice(), out);
        Ok(())
    }

    fn chunk_into(&self, idx: usize, out: &mut Vec<u8>) -> Result<(), DecompressError> {
        put_scalars(&self.cache.fetch_chunk(idx)?, out);
        Ok(())
    }

    fn stats(&self) -> (CacheStats, ReadStats) {
        (self.cache.stats(), (self.read_stats)(self.cache.inner()))
    }
}

/// Append `vals` as little-endian scalars.
fn put_scalars<T: Scalar>(vals: &[T], out: &mut Vec<u8>) {
    out.reserve(vals.len() * T::BYTES);
    for &v in vals {
        v.write_le(out);
    }
}

/// The one place a scalar tag picks a type: evaluates `$body` with `$T`
/// bound to the tagged scalar, or is a typed `InvalidData` error.
macro_rules! with_scalar {
    ($tag:expr, $T:ident => $body:expr) => {
        match $tag {
            t if t == <f32 as Scalar>::TAG => {
                type $T = f32;
                $body
            }
            t if t == <f64 as Scalar>::TAG => {
                type $T = f64;
                $body
            }
            t => Err(invalid(format!("unsupported scalar tag {t:#04x}"))),
        }
    };
}

/// A file that cannot be served, as the `InvalidData` the binders return.
fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

/// A plain archive as the one dataset it is on the wire: a single step,
/// every step a keyframe.
fn open_archive<R: Read + Seek + Send + 'static>(
    reader: Result<ConcurrentReader<R>, DecompressError>,
    cache_bytes: u64,
) -> io::Result<Vec<Box<dyn Dataset>>> {
    let reader = reader.map_err(|e| invalid(format!("open archive: {e}")))?;
    let h = reader.header();
    let (tag, step_dims, eb) = (h.scalar_tag, h.shape.dims().to_vec(), h.abs_eb);
    with_scalar!(tag, T => Ok(vec![Box::new(Served::<T, _> {
        name: SINGLE_ARCHIVE_DATASET.to_string(),
        step_dims,
        keyframe_every: 1,
        n_steps: 1,
        eb,
        cache: ChunkCache::new(reader, cache_bytes),
        read_stats: ConcurrentReader::stats,
    }) as Box<dyn Dataset>]))
}

/// Every dataset of the catalog at `path`, the cache budget split evenly
/// across them.
fn open_catalog(path: &Path, cache_bytes: u64) -> io::Result<Vec<Box<dyn Dataset>>> {
    let unreadable = |e: CatalogError| invalid(format!("open catalog: {e}"));
    let entries = CatalogReader::open_path(path).map_err(unreadable)?.datasets().to_vec();
    if entries.is_empty() {
        return Err(invalid("catalog has no datasets"));
    }
    let per_dataset = (cache_bytes / entries.len() as u64).max(1);
    entries
        .iter()
        .map(|d| {
            with_scalar!(d.scalar_tag, T => {
                let ds = DatasetReader::<T>::open_path(path, &d.name).map_err(unreadable)?;
                Ok(Box::new(Served {
                    name: d.name.clone(),
                    step_dims: d.shape.dims().to_vec(),
                    keyframe_every: d.keyframe_every as u64,
                    n_steps: ds.n_steps() as u64,
                    eb: d.steps[0].eb,
                    cache: ChunkCache::new(ds, per_dataset),
                    read_stats: DatasetReader::stats,
                }) as Box<dyn Dataset>)
            })
        })
        .collect()
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_out: AtomicU64,
    connections: AtomicU64,
}

struct Inner {
    /// What is served; the v1 opcodes address element 0's flat view.
    datasets: Vec<Box<dyn Dataset>>,
    counters: Counters,
    stop: AtomicBool,
    /// Write halves of live connections, keyed by connection id, so
    /// shutdown can unblock handler threads stuck in a read.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Inner {
    fn stats(&self) -> ServeStats {
        let mut s = ServeStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            bytes_out: self.counters.bytes_out.load(Ordering::Relaxed),
            connections: self.counters.connections.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for d in &self.datasets {
            let (cache, read) = d.stats();
            s.cache.hits += cache.hits;
            s.cache.misses += cache.misses;
            s.cache.coalesced_waits += cache.coalesced_waits;
            s.cache.evictions += cache.evictions;
            s.cache.bytes_cached += cache.bytes_cached;
            s.cache.bytes_peak += cache.bytes_peak;
            s.chunks_decoded += read.chunks_decoded;
            s.blob_bytes_read += read.blob_bytes_read;
        }
        s
    }
}

/// A running server. Dropping it shuts the listener and every live
/// connection down and joins all threads.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
}

impl Server {
    /// Serve the file at `path` — a single-field archive (memory-mapped
    /// where the platform allows: cache fills then fetch compressed
    /// extents zero-copy and lock-free instead of serializing on a
    /// seek+read) or, sniffed by magic, an `RQCAT` catalog whose
    /// datasets all become addressable via the v2 opcodes.
    pub fn bind_path<A: ToSocketAddrs>(addr: A, path: &Path, cfg: ServeConfig) -> io::Result<Server> {
        let mut head = Vec::with_capacity(6);
        Read::take(std::fs::File::open(path)?, 6).read_to_end(&mut head)?;
        let datasets = if is_catalog_magic(&head) {
            open_catalog(path, cfg.cache_bytes)?
        } else {
            open_archive(ConcurrentReader::open_path(path), cfg.cache_bytes)?
        };
        Server::bind_datasets(addr, datasets, cfg)
    }

    /// Serve an in-memory archive image (tests, benches).
    pub fn bind_bytes<A: ToSocketAddrs>(
        addr: A,
        bytes: Vec<u8>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let datasets = open_archive(ConcurrentReader::open(Cursor::new(bytes)), cfg.cache_bytes)?;
        Server::bind_datasets(addr, datasets, cfg)
    }

    fn bind_datasets<A: ToSocketAddrs>(
        addr: A,
        datasets: Vec<Box<dyn Dataset>>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            datasets,
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(std::collections::HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            let max_connections = cfg.max_connections;
            std::thread::spawn(move || accept_loop(listener, inner, max_connections))
        };
        let metrics = cfg.metrics_every.map(|every| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || metrics_loop(inner, every))
        });
        Ok(Server { inner, addr, accept: Some(accept), metrics: Some(metrics).flatten() })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot (same numbers the `STATS` request sees).
    pub fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    /// Stop accepting, close live connections, join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock handler threads stuck reading a request.
        let conns = self.inner.conns.lock().unwrap_or_else(|p| p.into_inner());
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(conns);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>, max_connections: usize) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break,
        };
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        // At the connection cap, park the new socket until a handler
        // frees up (the client just sees a slow first reply).
        if max_connections > 0 {
            loop {
                handlers.retain(|h| !h.is_finished());
                if handlers.len() < max_connections || inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        inner.counters.connections.fetch_add(1, Ordering::Relaxed);
        let conn_id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            let mut conns = inner.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.insert(conn_id, clone);
        }
        let inner_conn = Arc::clone(&inner);
        handlers.push(std::thread::spawn(move || {
            serve_connection(stream, &inner_conn);
            let mut conns = inner_conn.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.remove(&conn_id);
        }));
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn metrics_loop(inner: Arc<Inner>, every: Duration) {
    let tick = Duration::from_millis(50).min(every);
    let mut elapsed = Duration::ZERO;
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed >= every {
            elapsed = Duration::ZERO;
            eprintln!("[rqm serve] {}", inner.stats());
        }
    }
}

/// One connection's request loop. Mid-frame disconnects and write
/// failures end the loop quietly; framing violations get one typed
/// error reply before the close; body-level errors keep the connection
/// alive (the frame boundary is still intact).
fn serve_connection(stream: TcpStream, inner: &Inner) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame(&mut reader, MAX_REQUEST_BODY) {
            Ok(f) => f,
            Err(_) => break, // disconnect mid-frame: drop, never panic
        };
        let (reply, fatal) = match frame {
            Frame::Eof => break,
            Frame::Bad(code) => {
                (encode_err(0, code, &format!("framing: {}", code.name())), true)
            }
            Frame::Body(body) => match parse_request(&body) {
                Err((id, code)) => {
                    (encode_err(id, code, &format!("request: {}", code.name())), code.is_fatal())
                }
                Ok((id, req)) => (answer(inner, id, &req), false),
            },
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        if is_error_frame(&reply) {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        inner.counters.bytes_out.fetch_add(reply.len() as u64, Ordering::Relaxed);
        if write_frame(&mut writer, &reply).is_err() {
            break;
        }
        if fatal {
            break;
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
}

/// Status byte of an encoded response frame (`8` prefix + `8` id).
fn is_error_frame(frame: &[u8]) -> bool {
    frame.get(16).copied().unwrap_or(0) != 0
}

/// Build the reply to one well-formed request, once and in its frame:
/// start the frame, let [`fill`] append the payload straight into it,
/// seal it. A refusal, or a decode error found while the frame is being
/// filled, drops the half-built frame for exactly one typed error frame.
fn answer(inner: &Inner, id: u64, req: &Request) -> Vec<u8> {
    let mut out = begin_frame(id);
    out.push(0);
    match fill(inner, req, &mut out) {
        Ok(()) => end_frame(out),
        Err((code, message)) => encode_err(id, code, &message),
    }
}

/// Why a request is answered with an error frame instead of a payload.
type Refusal = (ErrorCode, String);

/// Append the success payload of `req` to `out`: the echoed operands,
/// then the decoded scalars. The v1 opcodes address dataset 0's flat
/// view; `READ_STEP_ROWS` maps its step-local range onto the flat view
/// of the dataset it names.
fn fill(inner: &Inner, req: &Request, out: &mut Vec<u8>) -> Result<(), Refusal> {
    let flat = &*inner.datasets[0];
    match *req {
        Request::Ping => {}
        Request::Info => flat.info(out),
        Request::Stats => out.extend_from_slice(&inner.stats().encode()),
        Request::ReadRows { start, count } => {
            check_rows(start, count, "field", flat.rows())?;
            put_u64(out, start);
            put_u64(out, count);
            deliver_rows(flat, Some(start), count, out)?;
        }
        Request::ReadChunk { idx } => {
            let entries = flat.entries();
            let Some(entry) = usize::try_from(idx).ok().and_then(|i| entries.get(i)) else {
                let message = format!("chunk {idx} out of range (archive has {})", entries.len());
                return Err((ErrorCode::ChunkOutOfRange, message));
            };
            put_u64(out, entry.start_row as u64);
            put_u64(out, entry.rows as u64);
            flat.chunk_into(idx as usize, out).map_err(refusal)?;
        }
        Request::ListDatasets => {
            put_u32(out, inner.datasets.len() as u32);
            for d in &inner.datasets {
                d.describe(out);
            }
        }
        Request::ReadStepRows { dataset, step, start, count } => {
            let Some(ds) = inner.datasets.get(dataset as usize) else {
                let n = inner.datasets.len();
                let message = format!("dataset {dataset} out of range (catalog has {n})");
                return Err((ErrorCode::DatasetOutOfRange, message));
            };
            let (n_steps, step_rows) = ds.steps();
            if step >= n_steps {
                let message = format!("step {step} out of range (dataset has {n_steps} steps)");
                return Err((ErrorCode::StepOutOfRange, message));
            }
            check_rows(start, count, "step", step_rows)?;
            put_u32(out, dataset);
            put_u64(out, step);
            put_u64(out, start);
            put_u64(out, count);
            let first = step.checked_mul(step_rows).and_then(|base| base.checked_add(start));
            deliver_rows(&**ds, first, count, out)?;
        }
    }
    Ok(())
}

/// A row request must be non-empty and lie inside the `rows` of the
/// field or step it addresses.
fn check_rows(start: u64, count: u64, of: &str, rows: u64) -> Result<(), Refusal> {
    if count == 0 || start >= rows || count > rows - start {
        let end = start.saturating_add(count);
        let message = format!("rows {start}..{end} out of range ({of} has {rows})");
        return Err((ErrorCode::RowsOutOfRange, message));
    }
    Ok(())
}

/// Append the flat rows `first..first + count` of `ds`; arithmetic that
/// leaves `usize` is the range error the reader itself would raise.
fn deliver_rows(
    ds: &dyn Dataset,
    first: Option<u64>,
    count: u64,
    out: &mut Vec<u8>,
) -> Result<(), Refusal> {
    let range = || {
        let first = usize::try_from(first?).ok()?;
        Some(first..first.checked_add(usize::try_from(count).ok()?)?)
    };
    let overflow =
        DecompressError::RowsOutOfRange { requested_end: usize::MAX, rows: ds.rows() as usize };
    range().ok_or(overflow).and_then(|rows| ds.rows_into(rows, out)).map_err(refusal)
}

/// Map a decode-side failure onto the wire. Range errors keep their
/// typed codes (they can surface from a race-free re-check inside the
/// reader); everything else is a `Decode` error.
fn refusal(e: DecompressError) -> Refusal {
    let code = match e {
        DecompressError::RowsOutOfRange { .. } => ErrorCode::RowsOutOfRange,
        DecompressError::ChunkOutOfRange { .. } => ErrorCode::ChunkOutOfRange,
        _ => ErrorCode::Decode,
    };
    (code, e.to_string())
}
