//! `rqm serve` load benchmark: request latency and aggregate
//! throughput at 1/8/64/256 simulated clients, recorded to
//! `BENCH_serve.json`.
//!
//! A synthetic wavefield archive is served from memory over loopback
//! TCP. Each simulated client runs on its own thread with its own
//! connection and fires chunk-aligned `READ_ROWS` requests whose chunk
//! choice follows a **zipfian** distribution (s = 1.2) — a few hot
//! chunks soak up most requests, the tail stays cold, which is exactly
//! the workload the decoded-chunk LRU exists for. Per-request wall
//! times aggregate into p50/p99 latency; payload bytes over wall time
//! give MB/s.
//!
//! Two contracts are **asserted**, not just recorded:
//!
//! - **Warm ≥ 3× cold**: the same zipfian workload runs once against a
//!   cache-disabled server (every request decodes) and once against a
//!   pre-warmed cached server (the hot set is resident); the warm
//!   aggregate throughput must be at least 3× the cold one.
//! - **Single flight**: a barrier aligns clients on one cold chunk;
//!   the server must report exactly one decode for it.
//!
//! ```sh
//! cargo run --release -p rq-bench --bin serve_load [-- --quick]
//! ```

use rq_bench::{f, Table};
use rq_compress::{ArchiveWriter, CompressorConfig};
use rq_grid::{NdArray, Shape};
use rq_predict::PredictorKind;
use rq_quant::ErrorBoundMode;
use rq_serve::{Client, ServeConfig, Server};
use std::io::Write;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian chunk sampler: CDF over `n` ranks with exponent `s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in cdf.iter_mut() {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One client-count level of the sweep.
struct Level {
    clients: usize,
    requests: u64,
    wall_s: f64,
    payload_bytes: u64,
    p50_us: f64,
    p99_us: f64,
    hit_pct: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank] as f64
}

/// Run `clients` threads × `per_client` zipfian chunk-aligned
/// `READ_ROWS` requests against `server`; returns (wall, payload
/// bytes, sorted per-request latencies in µs).
fn drive(
    server: &Server,
    clients: usize,
    per_client: usize,
    zipf: &Arc<Zipf>,
    chunk_rows: usize,
    rows: usize,
) -> (f64, u64, Vec<u64>) {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let addr = server.local_addr();
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let barrier = Arc::clone(&barrier);
            let zipf = Arc::clone(zipf);
            std::thread::spawn(move || {
                let mut rng = Rng(0xC11E27 ^ ((id as u64) << 20) | 1);
                let mut c = Client::connect(addr).unwrap();
                let mut lat = Vec::with_capacity(per_client);
                let mut bytes = 0u64;
                barrier.wait();
                for _ in 0..per_client {
                    let chunk = zipf.sample(&mut rng);
                    let a = chunk * chunk_rows;
                    let b = (a + chunk_rows).min(rows);
                    let t0 = Instant::now();
                    let slab = c.read_rows::<f32>(a..b).unwrap();
                    lat.push(t0.elapsed().as_micros() as u64);
                    bytes += (slab.as_slice().len() * 4) as u64;
                }
                (lat, bytes)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut lat = Vec::new();
    let mut payload = 0u64;
    for h in handles {
        let (l, b) = h.join().unwrap();
        lat.extend(l);
        payload += b;
    }
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    (wall, payload, lat)
}

fn main() {
    let quick = rq_bench::quick() || std::env::args().any(|a| a == "--quick");
    // The served field: chunk-parallel archive of a smooth-ish
    // wavefield. Sized so a full level finishes in seconds.
    let shape = if quick { Shape::d3(64, 32, 32) } else { Shape::d3(192, 64, 64) };
    let chunk_rows = 4;
    let n_chunks = shape.dim(0).div_ceil(chunk_rows);
    let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);

    let field = NdArray::<f32>::from_fn(shape, |ix| {
        let mut v = 0.0f64;
        for (a, &c) in ix.iter().enumerate() {
            v += ((c as f64) * 0.13 * (a + 1) as f64).sin() * (4.0 / (a + 1) as f64);
        }
        v as f32
    });
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
        .chunked(chunk_rows);
    let archive = {
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &cfg).unwrap();
        w.write_slab(&field).unwrap();
        w.finalize().unwrap().sink
    };
    let chunk_bytes = (chunk_rows * shape.dims()[1..].iter().product::<usize>() * 4) as u64;
    let zipf = Arc::new(Zipf::new(n_chunks, 1.2));
    let rows = shape.dim(0);

    println!(
        "# rqm serve load — field {:?} ({} chunks of {chunk_rows} rows, {} B decoded each), \
         zipf(1.2) chunk mix, {cpus} CPU(s)",
        shape.dims(),
        n_chunks,
        chunk_bytes,
    );
    println!();

    // ---- latency/throughput sweep over client counts (warm cache) ----
    // Total request volume is held roughly constant so each level runs
    // in comparable wall time; per-client counts shrink as fan-out
    // grows.
    let total_requests: usize = if quick { 512 } else { 4096 };
    let client_levels = [1usize, 8, 64, 256];
    let mut levels: Vec<Level> = Vec::new();
    for &clients in &client_levels {
        let per_client = (total_requests / clients).max(4);
        // Fresh server per level so hit rates are comparable; warm the
        // cache with one pass over every chunk first — this sweep
        // measures serving, the cold path is measured separately below.
        let server = Server::bind_bytes(
            "127.0.0.1:0",
            archive.clone(),
            ServeConfig { cache_bytes: u64::MAX, ..ServeConfig::default() },
        )
        .unwrap();
        {
            let mut c = Client::connect(server.local_addr()).unwrap();
            for idx in 0..n_chunks {
                c.read_chunk::<f32>(idx).unwrap();
            }
        }
        let warm_base = server.stats();
        let (wall_s, payload_bytes, lat) =
            drive(&server, clients, per_client, &zipf, chunk_rows, rows);
        let s = server.stats();
        let hits = s.cache.hits - warm_base.cache.hits;
        let lookups = hits + (s.cache.misses - warm_base.cache.misses);
        levels.push(Level {
            clients,
            requests: lat.len() as u64,
            wall_s,
            payload_bytes,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
            hit_pct: if lookups == 0 { 100.0 } else { 100.0 * hits as f64 / lookups as f64 },
        });
        server.shutdown();
    }

    let mut t = Table::new(&["clients", "requests", "p50(µs)", "p99(µs)", "MB/s", "hit%"]);
    for l in &levels {
        t.row(&[
            l.clients.to_string(),
            l.requests.to_string(),
            f(l.p50_us, 0),
            f(l.p99_us, 0),
            f(l.payload_bytes as f64 / 1e6 / l.wall_s, 1),
            f(l.hit_pct, 1),
        ]);
    }
    t.print();
    println!();

    // ---- cold vs warm on the same zipfian workload ----
    // Cold: cache disabled, every request pays fetch+decode. Warm: hot
    // set resident. The cache must buy at least 3x aggregate
    // throughput, or it is not earning its memory.
    let cw_clients = if quick { 8 } else { 16 };
    let cw_per_client = if quick { 16 } else { 64 };
    let cold_server = Server::bind_bytes(
        "127.0.0.1:0",
        archive.clone(),
        ServeConfig { cache_bytes: 0, ..ServeConfig::default() },
    )
    .unwrap();
    let (cold_wall, cold_bytes, _) =
        drive(&cold_server, cw_clients, cw_per_client, &zipf, chunk_rows, rows);
    cold_server.shutdown();

    let warm_server = Server::bind_bytes(
        "127.0.0.1:0",
        archive.clone(),
        ServeConfig { cache_bytes: u64::MAX, ..ServeConfig::default() },
    )
    .unwrap();
    {
        let mut c = Client::connect(warm_server.local_addr()).unwrap();
        for idx in 0..n_chunks {
            c.read_chunk::<f32>(idx).unwrap();
        }
    }
    let (warm_wall, warm_bytes, _) =
        drive(&warm_server, cw_clients, cw_per_client, &zipf, chunk_rows, rows);
    warm_server.shutdown();

    let cold_mbs = cold_bytes as f64 / 1e6 / cold_wall;
    let warm_mbs = warm_bytes as f64 / 1e6 / warm_wall;
    let warm_over_cold = warm_mbs / cold_mbs;
    println!(
        "cold (no cache): {cold_mbs:.1} MB/s   warm (hot set resident): {warm_mbs:.1} MB/s   \
         ratio {warm_over_cold:.1}x"
    );
    assert!(
        warm_over_cold >= 3.0,
        "warm aggregate throughput ({warm_mbs:.1} MB/s) is only {warm_over_cold:.2}x cold \
         ({cold_mbs:.1} MB/s); the decoded-chunk cache must buy >= 3x on a zipfian hot-chunk mix"
    );

    // ---- single-flight decode-count assertion ----
    // A barrier aligns clients on one cold chunk; the server must
    // report exactly one decode for it.
    let sf_clients = 8;
    let sf_server =
        Server::bind_bytes("127.0.0.1:0", archive.clone(), ServeConfig::default()).unwrap();
    {
        let barrier = Arc::new(Barrier::new(sf_clients));
        let addr = sf_server.local_addr();
        let handles: Vec<_> = (0..sf_clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    barrier.wait();
                    c.read_chunk::<f32>(0).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
    let sf = sf_server.stats();
    assert_eq!(
        sf.chunks_decoded, 1,
        "{sf_clients} barrier-aligned clients on one cold chunk must cost exactly 1 decode, \
         saw {}",
        sf.chunks_decoded
    );
    sf_server.shutdown();
    println!(
        "single-flight: {sf_clients} aligned clients on a cold chunk -> {} decode(s)",
        sf.chunks_decoded
    );

    // Hand-rolled JSON (the workspace has no serde): the serving perf
    // trajectory across PRs.
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"serve_load\",\n");
    j.push_str(&format!("  \"field\": {:?},\n", shape.dims()));
    j.push_str(&format!("  \"chunk_rows\": {chunk_rows},\n"));
    j.push_str(&format!("  \"n_chunks\": {n_chunks},\n"));
    j.push_str(&format!("  \"decoded_chunk_bytes\": {chunk_bytes},\n"));
    j.push_str("  \"zipf_s\": 1.2,\n");
    j.push_str(&format!("  \"cpus\": {cpus},\n"));
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!(
        "  \"cold_mb_per_s\": {},\n  \"warm_mb_per_s\": {},\n  \"warm_over_cold\": {},\n",
        rq_bench::jf(cold_mbs, 2),
        rq_bench::jf(warm_mbs, 2),
        rq_bench::jf(warm_over_cold, 2),
    ));
    j.push_str(&format!(
        "  \"single_flight\": {{\"clients\": {sf_clients}, \"decodes\": {}}},\n",
        sf.chunks_decoded
    ));
    j.push_str("  \"levels\": [\n");
    for (i, l) in levels.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"mb_per_s\": {}, \"cache_hit_pct\": {}}}{}\n",
            l.clients,
            l.requests,
            rq_bench::jf(l.p50_us, 1),
            rq_bench::jf(l.p99_us, 1),
            rq_bench::jf(l.payload_bytes as f64 / 1e6 / l.wall_s, 2),
            rq_bench::jf(l.hit_pct, 1),
            if i + 1 < levels.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    let mut out = std::fs::File::create("BENCH_serve.json").unwrap();
    out.write_all(j.as_bytes()).unwrap();
    println!("\nwrote BENCH_serve.json ({} client levels)", levels.len());
}
