//! The five workloads: what each stores, how, and how it is read back.
//!
//! Every workload takes its data through the same life — dump, full
//! restore, local partial reads, served reads — because `BENCHMARK.json`
//! reports every end-to-end metric on every workload. What differs is the
//! data, the codec path, the container kind, the cache regime and the
//! request stream, so that each layer is on some workload's path and off
//! another's (README.md, "Workloads").

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{
    self, Catalog, Connection, Field, Model, NdArray, PredictorKind, Reader, Service, Shape,
    StoreConfig,
};
use crate::rng::{add_noise, Rng, Zipf};
use crate::trace::{self, span};

type Res<T> = Result<T, String>;

/// `(name, why)` of every workload, in suite order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "insitu_dump",
        "12 noisy RTM snapshots planned by the model to 80 dB, interpolation SZ: the paper's in-situ dump path",
    ),
    (
        "archive_auto",
        "3 fields x 3 bounds with per-chunk codec choice: scheduler, ZFP, ROLZ and Lorenzo SZ; model and interpolation bypassed",
    ),
    (
        "posthoc_read",
        "one 39 MB Lorenzo archive, streamed whole and cropped by unaligned row reads: the local decode path at size",
    ),
    (
        "serve_hot",
        "small archive, cache pre-warmed and unbounded, zipf chunk reads: 100 % hits, so socket, protocol and copy only",
    ),
    (
        "serve_steps",
        "time-delta catalog behind a cache of 1/8 of its decoded size, uniform step reads: misses, chains, eviction",
    ),
];

/// Target PSNR the in-situ dump plans each snapshot for.
const PLAN_PSNR_DB: f64 = 80.0;
/// Sampling rate of the ratio-quality model (the paper's default).
pub const MODEL_RATE: f64 = 0.01;
/// Chunks per slab handed to the archive writer.
const SLAB_CHUNKS: usize = 4;
/// Local partial reads per pass of the region phase.
const REGION_READS: usize = 48;
/// Payload one client asks for in one pass of the serve phase: enough
/// requests that a pass outlasts its own cold start (a pass of 6 MB on
/// `serve_hot` read half as fast as one of 24 MB), within 32..=512 requests.
const SERVE_PASS_BYTES: usize = 24 << 20;

/// Where a run keeps its files and how parallel it is.
pub struct Env {
    pub dir: PathBuf,
    pub seed: u64,
    /// Worker threads of writers and readers: `min(available_parallelism, 4)`.
    pub threads: usize,
    /// Closed-loop client connections: the same number.
    pub clients: usize,
}

#[derive(Clone, Copy, Debug)]
pub enum Bound {
    Abs(f64),
    /// Ask the model, inside the timed dump, for the bound that meets this PSNR.
    PlanPsnr(f64),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layout {
    /// One archive file per field.
    Archives,
    /// All fields are time steps of one catalog dataset.
    Catalog { keyframe_every: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cache {
    /// No decoded-chunk cache: every served request decodes.
    Off,
    /// Larger than the decoded data and filled before timing.
    Resident,
    /// This fraction (1/n) of the decoded data.
    Fraction(u64),
}

pub struct Spec {
    pub fields: Vec<Field>,
    pub bounds: Vec<Bound>,
    pub store: StoreConfig,
    pub layout: Layout,
    /// Which archive the server binds (the catalog, for a catalog layout).
    pub served: usize,
    pub cache: Cache,
    /// Served chunk popularity: zipf(1.2) if set, uniform otherwise.
    pub zipf: bool,
}

impl Spec {
    pub fn raw_bytes(&self) -> u64 {
        self.fields.iter().map(|f| f.len() as u64 * 4).sum()
    }

    pub fn values(&self) -> u64 {
        self.raw_bytes() / 4
    }

    pub fn is_catalog(&self) -> bool {
        matches!(self.layout, Layout::Catalog { .. })
    }
}

/// Smooth multi-frequency waves plus seeded uniform noise: the entropy
/// stage has real work in every chunk (the field of `decode_scaling`).
fn wave_field(dims: [usize; 3], noise_half_width: f64, rng: &mut Rng) -> Field {
    let table = |axis: usize| -> Vec<f64> {
        let a = (axis + 1) as f64;
        (0..dims[axis])
            .map(|c| (c as f64 * 0.11 * a).sin() * (6.0 / a))
            .collect()
    };
    let (t0, t1, t2) = (table(0), table(1), table(2));
    let mut data = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
    for a in &t0 {
        for b in &t1 {
            data.extend(t2.iter().map(|c| (a + b + c) as f32));
        }
    }
    add_noise(&mut data, noise_half_width, rng);
    NdArray::from_vec(Shape::d3(dims[0], dims[1], dims[2]), data)
}

fn sz(predictor: PredictorKind, chunk_rows: usize, env: &Env) -> StoreConfig {
    StoreConfig {
        predictor,
        auto_codec: false,
        chunk_rows,
        threads: env.threads,
    }
}

/// Generate the inputs of workload `name` from the seed.
pub fn spec(name: &str, env: &Env) -> Res<Spec> {
    let mut noise = Rng::new(env.seed, "noise");
    Ok(match name {
        "insitu_dump" => {
            let mut fields = adapter::rtm_steps(env.seed, 12, [96, 96, 96]);
            for f in &mut fields {
                let range = f.value_range();
                add_noise(f.as_mut_slice(), 1e-3 * range, &mut noise);
            }
            Spec {
                bounds: vec![Bound::PlanPsnr(PLAN_PSNR_DB); fields.len()],
                served: fields.len() - 1,
                fields,
                store: sz(PredictorKind::Interpolation, 8, env),
                layout: Layout::Archives,
                cache: Cache::Off,
                zipf: false,
            }
        }
        "archive_auto" => {
            // The library's generators for these fields take no seed; the
            // seed drives this workload's request streams only.
            // Sized so that a pass takes a third of a second and a run gets
            // twenty of them: the two ZFP-heavy archives run fast or 4x slower
            // at random (see `fastest` in run.rs), and it takes that many
            // passes to see each of them run fast.
            let hurricane = adapter::hurricane_u();
            let half = hurricane.len() / 2;
            let base = [
                adapter::mixed_smooth_turbulent(Shape::d3(64, 96, 96), 32, 40.0),
                NdArray::from_vec(
                    Shape::d3(16, 128, 128),
                    hurricane.as_slice()[..half].to_vec(),
                ),
                adapter::cesm_ts(),
            ];
            let mut fields = Vec::new();
            let mut bounds = Vec::new();
            for f in &base {
                for rel in [1e-6, 3.16e-5, 1e-3] {
                    fields.push(f.clone());
                    bounds.push(Bound::Abs(rel * f.value_range()));
                }
            }
            Spec {
                fields,
                bounds,
                store: StoreConfig {
                    predictor: PredictorKind::Lorenzo,
                    auto_codec: true,
                    chunk_rows: 8,
                    threads: env.threads,
                },
                layout: Layout::Archives,
                // The mixed field at the middle bound: all three codecs in one archive.
                served: 1,
                cache: Cache::Off,
                zipf: false,
            }
        }
        "posthoc_read" => Spec {
            fields: vec![wave_field([384, 160, 160], 0.01, &mut noise)],
            bounds: vec![Bound::Abs(1e-3)],
            store: sz(PredictorKind::Lorenzo, 8, env),
            layout: Layout::Archives,
            served: 0,
            cache: Cache::Off,
            zipf: false,
        },
        "serve_hot" => Spec {
            fields: vec![wave_field([192, 64, 64], 0.01, &mut noise)],
            bounds: vec![Bound::Abs(1e-3)],
            store: sz(PredictorKind::Lorenzo, 4, env),
            layout: Layout::Archives,
            served: 0,
            cache: Cache::Resident,
            zipf: true,
        },
        "serve_steps" => {
            // One fixed wavefield: how much of the volume the wave has reached
            // moves the catalog's size by 20 % from seed to seed, which would
            // drown the 1 % bound on bits_per_value. The seed draws the static
            // background (the same on every step, so deltas stay small while
            // keyframes carry real entropy) and the request streams.
            let mut fields = adapter::rtm_steps(0, 32, [48, 48, 48]);
            let range = fields[fields.len() - 1].value_range();
            let mut background = vec![0f32; fields[0].len()];
            add_noise(&mut background, 1e-3 * range, &mut noise);
            for f in &mut fields {
                for (v, b) in f.as_mut_slice().iter_mut().zip(&background) {
                    *v += b;
                }
            }
            Spec {
                bounds: vec![Bound::Abs(1e-4); fields.len()],
                fields,
                store: sz(PredictorKind::Lorenzo, 8, env),
                layout: Layout::Catalog { keyframe_every: 4 },
                served: 0,
                cache: Cache::Fraction(8),
                zipf: false,
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

// ----------------------------------------------------------------- store

/// What one pass of storing the workload's data produced.
pub struct Stored {
    pub paths: Vec<PathBuf>,
    /// Absolute bound each field was stored with.
    pub ebs: Vec<f64>,
    /// Bytes of each file.
    pub sizes: Vec<u64>,
    /// Wall seconds each file took: plan, compress, write, sync.
    pub seconds: Vec<f64>,
    pub fs_write_ns: u64,
}

impl Stored {
    pub fn bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

/// Store every field of the workload: plan the bound where the workload
/// asks for it, compress, write the file, sync. This is the timed body of
/// the encode phase and the staging step of set-up.
pub fn store(spec: &Spec, env: &Env, tag: &str) -> Res<Stored> {
    let mut out = Stored {
        paths: Vec::new(),
        ebs: Vec::new(),
        sizes: Vec::new(),
        seconds: Vec::new(),
        fs_write_ns: 0,
    };
    match spec.layout {
        Layout::Archives => {
            for (i, (field, bound)) in spec.fields.iter().zip(&spec.bounds).enumerate() {
                trace::set_request(i as u64);
                let path = env.dir.join(format!("{tag}-{i}.rqc"));
                let t0 = Instant::now();
                let (eb, written) = span("harness.store_archive", || -> Res<_> {
                    let eb = match *bound {
                        Bound::Abs(eb) => eb,
                        Bound::PlanPsnr(db) => {
                            Model::build(field, spec.store.predictor, MODEL_RATE, env.seed)
                                .error_bound_for_psnr(db)
                        }
                    };
                    let slab_rows = SLAB_CHUNKS * spec.store.chunk_rows;
                    Ok((
                        eb,
                        adapter::write_archive(&path, field, eb, &spec.store, slab_rows)?,
                    ))
                })?;
                out.seconds.push(t0.elapsed().as_secs_f64());
                out.paths.push(path);
                out.ebs.push(eb);
                out.sizes.push(written.bytes);
                out.fs_write_ns += written.fs_write_ns;
            }
        }
        Layout::Catalog { keyframe_every } => {
            let Bound::Abs(eb) = spec.bounds[0] else {
                return Err("a catalog stores every step with one absolute bound".into());
            };
            let path = env.dir.join(format!("{tag}.rqcat"));
            let t0 = Instant::now();
            let done = span("harness.store_catalog", || {
                adapter::write_catalog(&path, &spec.fields, eb, &spec.store, keyframe_every)
            })?;
            out.seconds.push(t0.elapsed().as_secs_f64());
            out.paths.push(path);
            out.ebs = vec![eb; spec.fields.len()];
            out.sizes.push(done.bytes);
            out.fs_write_ns = done.fs_write_ns;
        }
    }
    Ok(out)
}

/// Byte-wise FNV-1a of a file: two passes stored the same bytes iff equal.
pub fn file_sum(path: &std::path::Path) -> Res<u64> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Word-wise FNV-1a over decoded values: cheap enough to sit inside a
/// timed streaming decode.
#[derive(Clone, Copy)]
pub struct ValueSum(pub u64);

impl ValueSum {
    pub fn new() -> ValueSum {
        ValueSum(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, values: &[f32]) {
        for v in values {
            self.0 = (self.0 ^ v.to_bits() as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn of(values: &[f32]) -> u64 {
        let mut s = ValueSum::new();
        s.update(values);
        s.0
    }
}

// ---------------------------------------------------------------- set-up

/// The server of a workload and its connected clients.
pub struct Serving {
    pub service: Service,
    pub conns: Vec<Connection>,
}

impl Serving {
    pub fn shutdown(self) {
        drop(self.conns);
        self.service.shutdown();
    }
}

/// The staged artifact with the sums later passes are compared to.
pub struct Staged {
    pub stored: Stored,
    pub file_sums: Vec<u64>,
}

/// Everything before the first timed phase: generate the inputs, stage the
/// artifact, start the server, connect the clients and, where the workload
/// says so, fill the cache. `setup_s` is the wall time of this function.
pub fn set_up(name: &str, env: &Env) -> Res<(Spec, Staged, Serving)> {
    let spec = spec(name, env)?;
    let stored = store(&spec, env, "stage")?;
    let file_sums = stored
        .paths
        .iter()
        .map(|p| file_sum(p))
        .collect::<Res<Vec<_>>>()?;
    let decoded_bytes = if spec.is_catalog() {
        spec.raw_bytes()
    } else {
        spec.fields[spec.served].len() as u64 * 4
    };
    let cache_bytes = match spec.cache {
        Cache::Off => 0,
        Cache::Resident => 2 * decoded_bytes,
        Cache::Fraction(n) => decoded_bytes / n,
    };
    let served_path = if spec.is_catalog() {
        &stored.paths[0]
    } else {
        &stored.paths[spec.served]
    };
    let service = Service::bind(served_path, cache_bytes)?;
    let mut conns = (0..env.clients)
        .map(|_| Connection::connect(service.addr(), spec.is_catalog()))
        .collect::<Res<Vec<_>>>()?;
    if spec.cache == Cache::Resident {
        let rows = spec.fields[spec.served].shape().dim(0);
        conns[0].read(0, 0..rows)?;
    }
    Ok((
        spec,
        Staged { stored, file_sums },
        Serving { service, conns },
    ))
}

// ------------------------------------------------------------ comparisons

/// One row range of one stored field (a catalog's fields are its steps).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub field: usize,
    pub rows: Range<usize>,
}

/// Does `got` equal rows `rows` of `pristine`, element for element?
pub fn rows_match(pristine: &Field, rows: &Range<usize>, got: &Field) -> bool {
    let row_elems = pristine.len() / pristine.shape().dim(0);
    pristine
        .as_slice()
        .get(rows.start * row_elems..rows.end * row_elems)
        == Some(got.as_slice())
}

/// Largest `|a − b|` over two equally long slices.
pub fn max_abs_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .fold(0.0, f64::max)
}

/// Slack on the bound check: one rounding of the bound itself.
pub const BOUND_SLACK: f64 = 1.0 + 1e-6;

// -------------------------------------------------------- request streams

/// Evenly spread positions in `[0, 1)` from a seeded start: the golden-ratio
/// sequence. Where reads land decides what they cost (a ZFP chunk decodes
/// ten times slower than an SZ chunk of the same field), so positions are
/// spread evenly for every seed and the seed only shifts them.
struct Spread(f64);

impl Spread {
    fn new(rng: &mut Rng) -> Spread {
        Spread(rng.unit())
    }

    /// The `k`-th position, scaled to `0..n`.
    fn at(&self, k: usize, n: usize) -> usize {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        (((self.0 + k as f64 * GOLDEN).fract() * n as f64) as usize).min(n - 1)
    }
}

/// The local partial reads of a run: unaligned row ranges of an archive,
/// or whole steps of a catalog. Lengths (1–24 rows), offsets within a chunk,
/// fields (or a step's distance from its keyframe) and positions cycle
/// through their values evenly, so bytes delivered, rows decoded and the mix
/// of chunks touched per pass barely depend on the seed; the seed shifts
/// where in the field the reads land.
pub fn region_requests(spec: &Spec, rng: &mut Rng) -> Vec<Request> {
    let cr = spec.store.chunk_rows;
    let spread = Spread::new(rng);
    (0..REGION_READS)
        .map(|k| {
            if let Layout::Catalog { keyframe_every } = spec.layout {
                let groups = spec.fields.len() / keyframe_every;
                let field =
                    spread.at(k / keyframe_every, groups) * keyframe_every + k % keyframe_every;
                return Request {
                    field,
                    rows: 0..spec.fields[field].shape().dim(0),
                };
            }
            let field = k % spec.fields.len();
            let rows = spec.fields[field].shape().dim(0);
            // At most 24 rows, and few enough that any offset within a chunk fits.
            let (len, phase) = (1 + k % (rows - cr + 1).min(24), k * 5 % cr);
            let start =
                spread.at(k / spec.fields.len(), (rows - len - phase) / cr + 1) * cr + phase;
            Request {
                field,
                rows: start..start + len,
            }
        })
        .collect()
}

/// The served reads of one client: one chunk-aligned chunk each, of the
/// served archive (zipf-popular or evenly spread chunks) or of a step of
/// the served catalog (every distance from a keyframe equally often).
pub fn serve_requests(spec: &Spec, rng: &mut Rng) -> Vec<Request> {
    let cr = spec.store.chunk_rows;
    let rows = spec.fields[spec.served].shape().dim(0);
    let chunks = rows.div_ceil(cr);
    let zipf = spec.zipf.then(|| Zipf::new(chunks, 1.2));
    let (steps, positions) = (Spread::new(rng), Spread::new(rng));
    let chunk_bytes = spec.fields[spec.served].len() / rows * cr * 4;
    (0..(SERVE_PASS_BYTES / chunk_bytes).clamp(32, 512))
        .map(|k| {
            let field = match spec.layout {
                Layout::Archives => spec.served,
                Layout::Catalog { keyframe_every } => {
                    let groups = spec.fields.len() / keyframe_every;
                    steps.at(k / keyframe_every, groups) * keyframe_every + k % keyframe_every
                }
            };
            let c = match &zipf {
                Some(z) => z.sample(rng),
                None => positions.at(k, chunks),
            };
            Request {
                field,
                rows: c * cr..((c + 1) * cr).min(rows),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- phases

/// One pass of a phase. A pass runs the phase's fixed list of operations
/// once; each operation is timed on its own, so that the run can take the
/// median of every operation over all passes (a stall then spoils one
/// sample of one operation, not the pass).
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Seconds of each operation, per lane. A lane is a sequence of
    /// operations that run one after the other; the serve phase has one
    /// lane per client, the other phases one lane.
    pub lanes: Vec<Vec<f64>>,
    /// Bytes each lane moved (the same in every pass of a phase).
    pub lane_bytes: Vec<u64>,
    /// Wall time of the whole timed region.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Encode: store everything again, then compare file bytes with the staged
/// artifact (the same inputs and bounds must give the same bytes).
pub fn encode_pass(spec: &Spec, env: &Env, staged: &Staged) -> Res<(Pass, Stored)> {
    let t0 = Instant::now();
    let stored = span("harness.encode", || store(spec, env, "pass"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut failed = 0;
    for (path, want) in stored.paths.iter().zip(&staged.file_sums) {
        failed += (file_sum(path)? != *want) as u64;
    }
    let pass = Pass {
        lanes: vec![stored.seconds.clone()],
        lane_bytes: vec![spec.raw_bytes()],
        wall_s,
        attempted: stored.paths.len() as u64,
        failed,
    };
    Ok((pass, stored))
}

/// Decode: open and stream every archive (or read every catalog step)
/// into a checksum, and compare with the pristine decode's.
pub fn decode_pass(spec: &Spec, env: &Env, staged: &Staged, pristine_sums: &[u64]) -> Res<Pass> {
    let t0 = Instant::now();
    let done = span("harness.decode", || -> Res<Vec<(u64, f64)>> {
        let mut catalog = match spec.layout {
            Layout::Catalog { .. } => Some(Catalog::open(&staged.stored.paths[0])?),
            Layout::Archives => None,
        };
        (0..spec.fields.len())
            .map(|i| {
                trace::set_request(i as u64);
                let t0 = Instant::now();
                let sum = match &mut catalog {
                    Some(cat) => ValueSum::of(cat.read_step(i)?.as_slice()),
                    None => {
                        let mut sum = ValueSum::new();
                        Reader::open(&staged.stored.paths[i], env.threads)?
                            .decompress_rows(|slab| sum.update(slab))?;
                        sum.0
                    }
                };
                Ok((sum, t0.elapsed().as_secs_f64()))
            })
            .collect()
    })?;
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        failed: done
            .iter()
            .zip(pristine_sums)
            .filter(|((got, _), want)| got != *want)
            .count() as u64,
        attempted: done.len() as u64,
        lanes: vec![done.iter().map(|&(_, s)| s).collect()],
        lane_bytes: vec![spec.raw_bytes()],
    })
}

/// The open local readers of the region phase.
pub enum Local {
    Archives(Vec<Reader>),
    Catalog(Catalog),
}

impl Local {
    pub fn open(spec: &Spec, env: &Env, staged: &Staged) -> Res<Local> {
        if spec.is_catalog() {
            return Catalog::open(&staged.stored.paths[0]).map(Local::Catalog);
        }
        let readers = staged
            .stored
            .paths
            .iter()
            .map(|p| Reader::open(p, env.threads));
        readers.collect::<Res<Vec<_>>>().map(Local::Archives)
    }

    /// (chunks decoded, blob bytes read, reorder copies) so far, over all readers.
    pub fn stats(&self) -> [u64; 3] {
        let Local::Archives(readers) = self else {
            return [0; 3];
        };
        readers
            .iter()
            .map(Reader::stats)
            .fold([0; 3], |acc, s| std::array::from_fn(|i| acc[i] + s[i]))
    }

    fn read(&mut self, req: &Request) -> Res<Field> {
        match self {
            Local::Archives(readers) => readers[req.field].read_rows(req.rows.clone()),
            Local::Catalog(cat) => cat.read_step(req.field),
        }
    }
}

/// Run `requests` one after the other through `read`, timing each read on
/// its own and checking its result against the same rows of the pristine
/// decode once its clock has stopped. Returns the seconds of each read, the
/// bytes delivered and the number of reads that differed.
fn timed_reads(
    requests: &[Request],
    pristine: &[Field],
    mut read: impl FnMut(&Request) -> Res<Field>,
) -> Res<(Vec<f64>, u64, u64)> {
    let mut seconds = Vec::with_capacity(requests.len());
    let (mut bytes, mut failed) = (0, 0);
    for (i, req) in requests.iter().enumerate() {
        trace::set_request(i as u64);
        let t0 = Instant::now();
        let got = read(req)?;
        seconds.push(t0.elapsed().as_secs_f64());
        bytes += got.len() as u64 * 4;
        failed += !rows_match(&pristine[req.field], &req.rows, &got) as u64;
    }
    Ok((seconds, bytes, failed))
}

/// Region: the run's partial reads on the open local readers.
pub fn region_pass(local: &mut Local, requests: &[Request], pristine: &[Field]) -> Res<Pass> {
    let t0 = Instant::now();
    let (seconds, bytes, failed) = span("harness.region", || {
        timed_reads(requests, pristine, |req| local.read(req))
    })?;
    Ok(Pass {
        lanes: vec![seconds],
        lane_bytes: vec![bytes],
        wall_s: t0.elapsed().as_secs_f64(),
        attempted: requests.len() as u64,
        failed,
    })
}

/// Serve: every client sends its requests back to back (closed loop: the
/// next goes out when the reply is in and checked), all clients at once.
pub fn serve_pass(
    conns: &mut [Connection],
    requests: &[Vec<Request>],
    pristine: &[Field],
) -> Res<Pass> {
    let t0 = Instant::now();
    let per_client = span("harness.serve", || {
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(requests)
                .map(|(conn, reqs)| {
                    s.spawn(move || {
                        timed_reads(reqs, pristine, |req| conn.read(req.field, req.rows.clone()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect::<Res<Vec<_>>>()
        })
    })?;
    let mut pass = Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for ((seconds, bytes, failed), reqs) in per_client.into_iter().zip(requests) {
        pass.lanes.push(seconds);
        pass.lane_bytes.push(bytes);
        pass.attempted += reqs.len() as u64;
        pass.failed += failed;
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(seed: u64) -> Env {
        Env {
            dir: PathBuf::new(),
            seed,
            threads: 1,
            clients: 1,
        }
    }

    #[test]
    fn request_streams_repeat_for_equal_seeds() {
        let spec = spec("serve_hot", &env(5)).unwrap();
        let draw = |seed| {
            let mut r = Rng::new(seed, "requests");
            (
                region_requests(&spec, &mut r),
                serve_requests(&spec, &mut r),
            )
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn requests_stay_inside_the_field() {
        for name in ["serve_hot", "serve_steps"] {
            let spec = spec(name, &env(2)).unwrap();
            let mut r = Rng::new(9, "requests");
            let cr = spec.store.chunk_rows;
            for req in serve_requests(&spec, &mut r) {
                let rows = spec.fields[req.field].shape().dim(0);
                assert!(req.rows.start % cr == 0 && req.rows.end <= rows && !req.rows.is_empty());
                assert!(req.rows.len() <= cr);
            }
            for req in region_requests(&spec, &mut r) {
                let rows = spec.fields[req.field].shape().dim(0);
                assert!(req.rows.end <= rows && !req.rows.is_empty());
            }
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = spec("serve_hot", &env(1)).unwrap();
        let b = spec("serve_hot", &env(1)).unwrap();
        let c = spec("serve_hot", &env(2)).unwrap();
        assert_eq!(a.fields[0].as_slice(), b.fields[0].as_slice());
        assert_ne!(a.fields[0].as_slice(), c.fields[0].as_slice());
    }

    #[test]
    fn rows_match_compares_the_right_rows() {
        let f = NdArray::from_vec(Shape::d2(4, 2), (0..8).map(|v| v as f32).collect());
        let mid = NdArray::from_vec(Shape::d2(2, 2), vec![2.0, 3.0, 4.0, 5.0]);
        assert!(rows_match(&f, &(1..3), &mid));
        assert!(!rows_match(&f, &(0..2), &mid));
        assert!(
            !rows_match(&f, &(3..5), &mid),
            "a range past the end never matches"
        );
    }
}
