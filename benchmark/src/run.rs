//! One run of one workload: set-up, oracle, the four timed phases, and — in
//! a traced run — the per-layer metrics from spans, counters and replays.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{ChunkKind, ServeStats, Shape, SharedReader};
use crate::oracle::{self, Oracle};
use crate::replay::{self, ChunkSample, Replayed};
use crate::rng::Rng;
use crate::stats::{self, median};
use crate::trace::{self, NameTotals, Span};
use crate::workloads::{self, Env, Layout, Local, Pass, Request, Serving, Spec, Staged};

type Res<T> = Result<T, String>;
pub type Values = BTreeMap<&'static str, f64>;
type Totals = BTreeMap<&'static str, NameTotals>;

/// Set-up is repeated this often in a run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Chunks the traced run replays through every stage.
const REPLAY_CHUNKS: usize = 8;

pub struct Outcome {
    pub end_to_end: Values,
    pub per_layer: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Validity checks that did not hold: the workload left its regime.
    pub broken: Vec<String>,
    pub spans: Vec<Span>,
}

// ---------------------------------------------------------------- phases

/// The passes of one phase of one run.
#[derive(Default)]
struct Phase {
    /// Seconds of every operation of every untraced pass: `[lane][op][pass]`.
    plain: Vec<Vec<Vec<f64>>>,
    /// The same for traced passes.
    traced: Vec<Vec<Vec<f64>>>,
    /// Bytes one pass moves, per lane.
    lane_bytes: Vec<u64>,
    /// Wall seconds of each untraced and each traced pass.
    plain_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// A pass returned an error: the phase stopped early.
    aborted: bool,
}

/// How the times an operation took over the passes of a run become one.
type Pick = fn(&[f64]) -> f64;

/// The fastest time. For operations that run alone, everything that can
/// happen to one — a neighbour on the host, a stall, two worker threads
/// drawing the same allocator arena (which makes a ZFP chunk take 220 ms
/// instead of 60, at random) — only ever adds time, so the fastest of a
/// dozen passes is the steadiest estimate of what the operation costs.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Seconds one lane takes when every operation takes its picked time.
fn lane_seconds(lane: &[Vec<f64>], pick: Pick) -> f64 {
    lane.iter().map(|samples| pick(samples)).sum()
}

impl Phase {
    fn passes(&self) -> f64 {
        (self.plain_wall.len() + self.traced_wall.len()) as f64
    }

    fn spent_s(&self) -> f64 {
        self.plain_wall.iter().chain(&self.traced_wall).sum()
    }

    fn traced_s(&self) -> f64 {
        self.traced_wall.iter().sum()
    }

    fn record(&mut self, pass: Pass, traced: bool) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.lane_bytes = pass.lane_bytes;
        let (samples, walls) = if traced {
            (&mut self.traced, &mut self.traced_wall)
        } else {
            (&mut self.plain, &mut self.plain_wall)
        };
        walls.push(pass.wall_s);
        samples.resize(pass.lanes.len(), Vec::new());
        for (lane, ops) in samples.iter_mut().zip(pass.lanes) {
            lane.resize(ops.len(), Vec::new());
            for (op, s) in lane.iter_mut().zip(ops) {
                op.push(s);
            }
        }
    }

    /// Throughput of the untraced passes with every operation at its picked
    /// time over the passes: lanes run side by side, so their rates add.
    fn mb_s(&self, pick: Pick) -> f64 {
        let lanes = self.plain.iter().zip(&self.lane_bytes);
        lanes
            .map(|(lane, &bytes)| bytes as f64 / 1e6 / lane_seconds(lane, pick))
            .sum()
    }

    /// How unevenly an operation runs from pass to pass: the interquartile
    /// range of its times over their median, for the median operation.
    fn jitter(&self) -> f64 {
        let spread = |samples: &Vec<f64>| {
            let mut v = samples.clone();
            v.sort_by(f64::total_cmp);
            (v[(v.len() - 1) * 3 / 4] - stats::first_quartile(&v)) / median(&v)
        };
        median(&self.plain.iter().flatten().map(spread).collect::<Vec<_>>())
    }

    /// Bytes all passes moved.
    fn bytes(&self) -> f64 {
        self.lane_bytes.iter().sum::<u64>() as f64 * self.passes()
    }
}

type PassFn<'a> = Box<dyn FnMut() -> Res<Pass> + 'a>;

/// Run the phases round after round, one pass of each per round, until their
/// timed regions add up to `seconds` (and at least three rounds of each kind
/// ran). Every phase thus gets the same number of passes — a phase with long
/// operations gets more of the time, which is what its statistics need — and
/// every phase's passes are spread over the whole run, so a slow spell of
/// the machine hits a few passes of each metric and not all the passes of
/// one. With `alternate`, every other round is traced.
fn run_phases<const N: usize>(
    seconds: f64,
    alternate: bool,
    mut passes: [PassFn; N],
) -> [Phase; N] {
    let mut phases: [Phase; N] = std::array::from_fn(|_| Phase::default());
    let min_rounds = if alternate { 6 } else { 3 };
    let mut round = 0;
    while round < min_rounds || phases.iter().map(Phase::spent_s).sum::<f64>() < seconds {
        let traced = alternate && round % 2 == 1;
        for (phase, pass) in phases
            .iter_mut()
            .zip(&mut passes)
            .filter(|(phase, _)| !phase.aborted)
        {
            trace::set_enabled(traced);
            let result = pass();
            trace::set_enabled(false);
            match result {
                Ok(p) => phase.record(p, traced),
                Err(e) => {
                    // An operation that errors is a failed operation, and
                    // its phase ends there.
                    eprintln!("operation failed: {e}");
                    phase.attempted += 1;
                    phase.failed += 1;
                    phase.aborted = true;
                }
            }
        }
        if phases.iter().all(|p| p.aborted) {
            break;
        }
        round += 1;
    }
    phases
}

// ------------------------------------------------------------- peak RSS

fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

// ---------------------------------------------------------- what was timed

/// Everything the timed part of a run produced.
struct Timed<'a> {
    spec: &'a Spec,
    staged: &'a Staged,
    oracle: &'a Oracle,
    env: &'a Env,
    encode: Phase,
    decode: Phase,
    region: Phase,
    serve: Phase,
    region_reqs: Vec<Request>,
    serve_reqs: Vec<Vec<Request>>,
    /// (chunks decoded, blob bytes read, reorder copies) of the local readers.
    read_stats: [u64; 3],
    /// Server counters before and after the phases.
    served: (ServeStats, ServeStats),
    fs_write_ns: u64,
}

impl Timed<'_> {
    fn phases(&self) -> [&Phase; 4] {
        [&self.encode, &self.decode, &self.region, &self.serve]
    }

    fn hit_ratio(&self) -> f64 {
        let (before, after) = (self.served.0.cache, self.served.1.cache);
        let lookups = (after.hits + after.misses + after.coalesced_waits)
            - (before.hits + before.misses + before.coalesced_waits);
        (after.hits - before.hits) as f64 / lookups.max(1) as f64
    }

    /// A workload that left its regime is a failed run, not a number.
    fn broken(&self, name: &str) -> Vec<String> {
        let mut broken = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                broken.push(what);
            }
        };
        let (bits, hits, shares) = (
            self.oracle.bits_per_value,
            self.hit_ratio(),
            self.oracle.codec_shares(),
        );
        match name {
            "insitu_dump" => check(
                (1.0..=12.0).contains(&bits),
                format!("bits_per_value {bits} outside 1..12"),
            ),
            "archive_auto" => {
                check(
                    (1.0..=12.0).contains(&bits),
                    format!("bits_per_value {bits} outside 1..12"),
                );
                check(
                    shares.iter().all(|&s| s >= 0.10),
                    format!("codec shares {shares:?}: one below 10 %"),
                );
            }
            "serve_hot" => check(hits == 1.0, format!("hit ratio {hits} is not 1")),
            "serve_steps" => check(hits < 0.5, format!("hit ratio {hits} is not below 0.5")),
            _ => {}
        }
        broken
    }

    fn end_to_end(&self, setup_s: &[f64], peak_rss_mb: f64) -> Values {
        Values::from([
            ("setup_s", median(setup_s)),
            ("encode_mb_s", self.encode.mb_s(fastest)),
            ("decode_mb_s", self.decode.mb_s(fastest)),
            ("region_mb_s", self.region.mb_s(fastest)),
            // Clients contend with each other by design, and that is part of
            // what a served read costs: the fastest time would drop it all.
            // The median, though, flips from run to run with where the
            // scheduler put the four threads (1300 or 1800 MB/s on
            // `serve_hot`); the first quartile sits below both and repeats.
            ("read_mb_s", self.serve.mb_s(stats::first_quartile)),
            ("bits_per_value", self.oracle.bits_per_value),
            ("psnr_db", self.oracle.psnr_db),
            ("model_ratio_accuracy", self.oracle.model_ratio_accuracy),
            ("model_psnr_accuracy", self.oracle.model_psnr_accuracy),
            ("peak_rss_mb", peak_rss_mb),
        ])
    }
}

// ------------------------------------------------------------- per layer

fn mean_us(t: Option<&NameTotals>) -> f64 {
    t.map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
}

fn total_s(totals: &Totals, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(n))
        .map(|t| t.total_ns as f64 / 1e9)
        .sum()
}

/// A seeded sample of the workload's own chunks, as the writer saw them.
fn replay_sample(t: &Timed) -> Vec<ChunkSample> {
    let mut rng = Rng::new(t.env.seed, "replay");
    let cr = t.spec.store.chunk_rows;
    (0..REPLAY_CHUNKS)
        .map(|_| {
            let f = rng.below(t.spec.fields.len());
            let field = &t.spec.fields[f];
            let rows = field.shape().dim(0);
            let c = rng.below(rows.div_ceil(cr));
            let (start, end) = (c * cr, ((c + 1) * cr).min(rows));
            let row_elems = field.len() / rows;
            let mut dims = field.shape().dims().to_vec();
            dims[0] = end - start;
            ChunkSample {
                data: field.as_slice()[start * row_elems..end * row_elems].to_vec(),
                shape: Shape::new(&dims),
                eb: t.staged.stored.ebs[f],
                kind: t
                    .oracle
                    .tables
                    .get(f)
                    .map_or(ChunkKind::Sz, |table| table[c].kind),
            }
        })
        .collect()
}

/// core: the oracle builds a model of every field on every workload; only a
/// planned dump inverts one, inside the encode phase.
fn core_metrics(t: &Timed, phase_totals: &Totals, oracle_totals: &Totals, out: &mut Values) {
    let both = |name: &str| {
        let mut sum = oracle_totals.get(name).copied().unwrap_or_default();
        if let Some(p) = phase_totals.get(name) {
            sum.count += p.count;
            sum.total_ns += p.total_ns;
        }
        sum
    };
    let build = both("core.build");
    let field_values = t.spec.values() as f64 / t.spec.fields.len() as f64;
    let build_ms_per_mb =
        build.total_ns as f64 / 1e6 / (build.count.max(1) as f64 * field_values * 4.0 / 1e6);
    let model_self_s: f64 = ["core.build", "core.invert"]
        .iter()
        .filter_map(|n| phase_totals.get(n))
        .map(|t| t.self_ns as f64 / 1e9)
        .sum();
    out.extend([
        ("core.build_ms_per_mb", build_ms_per_mb),
        ("core.invert_us", mean_us(Some(&both("core.invert")))),
        ("core.estimate_us", mean_us(Some(&both("core.estimate")))),
        ("core.sample_points", workloads::MODEL_RATE * field_values),
        ("core.plan_share", model_self_s / t.encode.traced_s()),
    ]);
}

/// compress (scheduler outcome, writer and reader sessions), fs, catalog.
fn storage_metrics(t: &Timed, totals: &Totals, replayed: &Replayed, out: &mut Values) {
    let (spec, raw) = (t.spec, t.spec.raw_bytes() as f64);
    let threads = t.env.threads as f64;
    let per_pass =
        |names: &[&str], p: &Phase| total_s(totals, names) / p.traced_wall.len().max(1) as f64;
    let writer_wall = per_pass(&["compress.write_slab", "catalog.write_dataset"], &t.encode);
    let reader_wall = per_pass(&["compress.decompress_rows"], &t.decode);
    let shares = t.oracle.codec_shares();
    let region_reads = t.region.passes() * t.region_reqs.len() as f64;
    let rows_asked =
        t.region.passes() * t.region_reqs.iter().map(|r| r.rows.len()).sum::<usize>() as f64;
    let or_zero = |x: f64| if x.is_finite() { x } else { 0.0 };
    out.extend([
        ("compress.auto_share_sz", shares[0]),
        ("compress.auto_share_zfp", shares[1]),
        ("compress.auto_share_rolz", shares[2]),
        (
            "compress.writer_parallel_eff",
            replayed.own_encode_s_per_byte * raw / (threads * writer_wall),
        ),
        (
            "compress.writer_finalize_ms",
            mean_us(
                totals
                    .get("compress.writer_finalize")
                    .or(totals.get("catalog.finalize")),
            ) / 1e3,
        ),
        (
            "compress.container_overhead_frac",
            t.oracle.container_overhead_frac(t.staged),
        ),
        (
            "compress.reader_open_us",
            mean_us(totals.get("compress.reader_open")),
        ),
        // (A catalog has no streaming reader: these read 0 there.)
        (
            "compress.reader_parallel_eff",
            or_zero(replayed.own_decode_s_per_byte * raw / (threads * reader_wall)),
        ),
        (
            "compress.reader_decode_amplification",
            t.read_stats[0] as f64 * spec.store.chunk_rows as f64 / rows_asked,
        ),
        (
            "compress.reader_reorder_copies_per_read",
            t.read_stats[2] as f64 / region_reads,
        ),
        (
            "compress.reader_blob_bytes_per_payload_byte",
            t.read_stats[1] as f64 / t.region.bytes(),
        ),
        // fs: the sandbox's page cache and virtual disk, not a device.
        (
            "fs.sync_ms_per_archive",
            mean_us(totals.get("fs.sync")) / 1e3,
        ),
        (
            "fs.write_share",
            (total_s(totals, &["fs.create", "fs.sync"]) + t.fs_write_ns as f64 / 1e9)
                / t.encode.traced_s(),
        ),
        (
            "catalog.pack_mb_s",
            totals.get("catalog.write_dataset").map_or(0.0, |w| {
                raw / 1e6 * w.count as f64 / (w.total_ns as f64 / 1e9)
            }),
        ),
        (
            "catalog.step_read_ms",
            mean_us(totals.get("catalog.read_step")) / 1e3,
        ),
        (
            "catalog.chain_len_mean",
            match spec.layout {
                Layout::Catalog { keyframe_every } => {
                    let steps = t
                        .region_reqs
                        .iter()
                        .map(|r| (r.field % keyframe_every + 1) as f64);
                    steps.sum::<f64>() / t.region_reqs.len() as f64
                }
                Layout::Archives => 0.0,
            },
        ),
    ]);
}

/// serve: client timers, server counter deltas, and three probes (ping, the
/// same requests through a local reader, a pure cache hit).
fn serve_metrics(
    t: &Timed,
    serving: &mut Serving,
    out: &mut Values,
    broken: &mut Vec<String>,
) -> Res<()> {
    let latency_us: Vec<f64> = t
        .serve
        .plain
        .iter()
        .flatten()
        .flatten()
        .map(|s| s * 1e6)
        .collect();
    let tail = stats::tail(&latency_us);
    let pings: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            serving.conns[0]
                .ping()
                .map(|()| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Res<_>>()?;
    let (before, after) = t.served;
    let requests = (after.requests - before.requests) as f64;
    out.extend([
        ("serve.read_p50_us", median(&latency_us)),
        ("serve.read_tail_us", tail.map_or(0.0, |t| t.value)),
        ("serve.read_tail_pct", tail.map_or(0.0, |t| t.percentile)),
        ("serve.read_samples", latency_us.len() as f64),
        ("serve.ping_rtt_us", median(&pings)),
        ("serve.cache_hit_ratio", t.hit_ratio()),
        (
            "serve.cache_evictions",
            (after.cache.evictions - before.cache.evictions) as f64,
        ),
        (
            "serve.coalesced_waits",
            (after.cache.coalesced_waits - before.cache.coalesced_waits) as f64,
        ),
        (
            "serve.decodes_per_request",
            (after.chunks_decoded - before.chunks_decoded) as f64 / requests,
        ),
        (
            "serve.bytes_out_per_payload_byte",
            (after.bytes_out - before.bytes_out) as f64 / t.serve.bytes(),
        ),
        ("serve.errors", (after.errors - before.errors) as f64),
    ]);
    if t.spec.is_catalog() {
        return Ok(()); // no pinned local row-range reader for a catalog
    }
    let shared = SharedReader::open(&t.staged.stored.paths[t.spec.served])?;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = t
            .serve_reqs
            .iter()
            .map(|reqs| {
                let shared = shared.clone();
                s.spawn(move || {
                    reqs.iter()
                        .try_for_each(|r| shared.read_rows(r.rows.clone()).map(drop))
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "a local reader panicked".to_string())?
        })
    })?;
    out.insert(
        "serve.local_over_served",
        t0.elapsed().as_secs_f64() / median(&t.serve.plain_wall),
    );

    let warm = shared.warm_cache(0)?;
    const FETCHES: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..FETCHES {
        std::hint::black_box(warm.fetch()?);
    }
    out.insert(
        "serve.cache_hit_fetch_ns",
        t0.elapsed().as_nanos() as f64 / FETCHES as f64,
    );
    if warm.hits_misses() != (FETCHES as u64, 1) {
        broken.push(format!(
            "cache-hit probe saw (hits, misses) = {:?}",
            warm.hits_misses()
        ));
    }
    Ok(())
}

/// trace, phase: what tracing cost, how much of the traced wall the harness's
/// root spans account for, and how the passes went.
fn harness_metrics(t: &Timed, totals: &Totals, out: &mut Values, broken: &mut Vec<String>) {
    let seconds =
        |lanes: &[Vec<Vec<f64>>]| lanes.iter().map(|l| lane_seconds(l, median)).sum::<f64>();
    let plain: f64 = t.phases().iter().map(|p| seconds(&p.plain)).sum();
    let with: f64 = t.phases().iter().map(|p| seconds(&p.traced)).sum();
    // A tree's self times add up to its root's duration, so the roots'
    // durations are the sum of the self times below them.
    let roots = [
        "harness.encode",
        "harness.decode",
        "harness.region",
        "harness.serve",
    ];
    let covered = total_s(totals, &roots) / t.phases().iter().map(|p| p.traced_s()).sum::<f64>();
    if (covered - 1.0).abs() > 0.05 {
        broken.push(format!("root spans cover {covered} of the traced wall"));
    }
    out.extend([
        ("trace.overhead_frac", with / plain - 1.0),
        ("trace.coverage_frac", covered),
        ("phase.encode_passes", t.encode.passes()),
        ("phase.decode_passes", t.decode.passes()),
        ("phase.region_passes", t.region.passes()),
        ("phase.serve_passes", t.serve.passes()),
        ("phase.encode_jitter", t.encode.jitter()),
        ("phase.decode_jitter", t.decode.jitter()),
        ("phase.region_jitter", t.region.jitter()),
        ("phase.serve_jitter", t.serve.jitter()),
    ]);
}

// --------------------------------------------------------------- the run

pub fn run_workload(name: &str, env: &Env, seconds: f64, traced: bool) -> Res<Outcome> {
    // Set-up, several times over; the last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<(Spec, Staged, Serving)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, serving)) = state.take() {
            serving.shutdown();
        }
        let t0 = Instant::now();
        state = Some(workloads::set_up(name, env)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (spec, staged, mut serving) = state.expect("SETUP_REPS is positive");

    trace::set_enabled(traced);
    let oracle = oracle::run(&spec, env, &staged);
    trace::set_enabled(false);
    let oracle = oracle?;
    let oracle_spans = trace::drain();

    // A traced run keeps a quarter of its seconds for the stage replays.
    let phase_seconds = seconds * if traced { 0.75 } else { 1.0 };
    if !reset_peak_rss() {
        eprintln!("could not reset VmHWM: peak_rss_mb covers set-up too");
    }
    let mut requests = Rng::new(env.seed, "requests");
    let region_reqs = workloads::region_requests(&spec, &mut requests);
    let serve_reqs: Vec<_> = (0..env.clients)
        .map(|_| workloads::serve_requests(&spec, &mut requests))
        .collect();

    let mut local = Local::open(&spec, env, &staged)?;
    let served_before = serving.service.stats();
    let mut fs_write_ns = 0;
    let [encode, decode, region, serve] = run_phases(
        phase_seconds,
        traced,
        [
            Box::new(|| {
                let (pass, stored) = workloads::encode_pass(&spec, env, &staged)?;
                fs_write_ns += stored.fs_write_ns;
                Ok(pass)
            }),
            Box::new(|| workloads::decode_pass(&spec, env, &staged, &oracle.sums)),
            Box::new(|| workloads::region_pass(&mut local, &region_reqs, &oracle.pristine)),
            Box::new(|| workloads::serve_pass(&mut serving.conns, &serve_reqs, &oracle.pristine)),
        ],
    );
    let peak_rss = peak_rss_mb()?;
    let timed = Timed {
        spec: &spec,
        staged: &staged,
        oracle: &oracle,
        env,
        encode,
        decode,
        region,
        serve,
        region_reqs,
        serve_reqs,
        read_stats: local.stats(),
        served: (served_before, serving.service.stats()),
        fs_write_ns,
    };
    drop(local);

    let mut outcome = Outcome {
        end_to_end: timed.end_to_end(&setup_s, peak_rss),
        per_layer: Values::new(),
        attempted: oracle.attempted + timed.phases().iter().map(|p| p.attempted).sum::<u64>(),
        failed: oracle.failed + timed.phases().iter().map(|p| p.failed).sum::<u64>(),
        broken: timed.broken(name),
        spans: Vec::new(),
    };
    if traced {
        let phase_spans = trace::drain();
        let totals = trace::totals(&phase_spans);
        let out = &mut outcome.per_layer;
        core_metrics(&timed, &totals, &trace::totals(&oracle_spans), out);

        trace::set_enabled(true);
        let replayed = replay::replay(&replay_sample(&timed), &spec.store, seconds / 4.0);
        trace::set_enabled(false);
        let replayed = replayed?;
        outcome.attempted += replayed.attempted;
        outcome.failed += replayed.failed;
        storage_metrics(&timed, &totals, &replayed, out);
        serve_metrics(&timed, &mut serving, out, &mut outcome.broken)?;
        harness_metrics(&timed, &totals, out, &mut outcome.broken);
        out.extend(replayed.metrics);

        outcome.spans = oracle_spans;
        outcome.spans.extend(phase_spans);
        outcome.spans.extend(trace::drain());
        out.extend([
            ("trace.spans", outcome.spans.len() as f64),
            ("ops.attempted", outcome.attempted as f64),
            ("ops.failed", outcome.failed as f64),
        ]);
    }
    serving.shutdown();
    Ok(outcome)
}
