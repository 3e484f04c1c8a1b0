//! Parallel streaming decode scaling: wall time and peak RSS at
//! 1/2/4/8 decode threads, recorded to `BENCH_decode.json`.
//!
//! A synthetic wavefield archive is staged to disk through the streaming
//! writer, then decoded four ways through
//! `ArchiveReader::open_path(..).with_threads(n).decompress_rows(...)` —
//! the engine that serves chunk extents zero-copy off a memory-mapped
//! source (pooled seek+read elsewhere), overlaps fetch with decode, and
//! fans decode work out behind a bounded read-ahead window. (The
//! in-memory `decompress*` functions are this same engine over a byte
//! slice, so there is no second engine to compare against.)
//!
//! Each run times the same work: open the source, decode every row, and
//! checksum the output *inside* the timed region. Every decode must hash
//! byte-identical to the single-threaded decode — thread count is an
//! implementation detail, never a result change.
//! Wall time, peak RSS (`VmHWM`) and the speedup versus one thread land
//! in `BENCH_decode.json` in the current directory (committed at the
//! repository root so the perf trajectory is tracked across PRs; CI
//! uploads each run's file as an artifact).
//!
//! ```sh
//! cargo run --release -p rq-bench --bin decode_scaling
//! ```
//!
//! Expected shape of the result on a multi-core machine: wall time drops
//! roughly linearly until the sequential blob reads or the core count
//! saturate (≥ 2× at 4 threads), while streaming peak RSS stays at the
//! read-ahead window regardless of archive size. On a single-core
//! machine the requested thread counts clamp to one worker
//! (`with_threads` never oversubscribes `available_parallelism`), so the
//! speedup sits at ~1× by construction — the JSON records both the
//! requested and the effective count. Either way the bench **asserts**
//! three contracts:
//!
//! - multi-threaded decode never drops below 0.97× the serial wall time
//!   (oversubscription used to cost ~7% on one CPU);
//! - a full decode is chunk-aligned end to end: zero reorder copies;
//! - streaming peak-RSS growth stays below the raw field size
//!   (window-bounded memory; full-size resettable-HWM runs only).

use rq_bench::{f, mib, peak_rss_bytes, reset_peak_rss, Table};
use rq_compress::{ArchiveReader, ArchiveWriter, CompressorConfig};
use rq_grid::{NdArray, Shape, MAX_DIMS};
use rq_predict::PredictorKind;
use rq_quant::ErrorBoundMode;
use std::io::Write;
use std::time::Instant;

/// FNV-1a folded over whole `f32` bit patterns (one xor+multiply per
/// element, not per byte): compares decoded outputs without holding
/// them in memory, and is cheap enough to sit inside the timed region.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn update(&mut self, vals: &[f32]) {
        for &v in vals {
            self.0 ^= v.to_bits() as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// One measured decode run. `rss_delta` is the peak-RSS growth over the
/// run's post-reset floor — the run's own footprint, insulated from heap
/// ratchet left behind by earlier runs.
struct Run {
    threads: usize,
    /// Worker threads actually used: `ArchiveReader::with_threads`
    /// clamps to `available_parallelism`, so on a small machine this is
    /// lower than `threads` — the JSON records both so a reader can
    /// tell "no speedup" from "no parallelism requested".
    eff_threads: usize,
    wall_ms: f64,
    peak_rss: u64,
    rss_delta: u64,
    hash: u64,
}

fn main() {
    let quick = rq_bench::quick();
    // The synthetic wavefield: smooth multi-frequency waves plus a dash
    // of hash noise so the entropy stage has real work per chunk.
    let shape = if quick { Shape::d3(96, 64, 64) } else { Shape::d3(512, 160, 160) };
    let chunk_rows = 8;
    let eb = 1e-3;
    let cpus = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);

    let dir = std::env::temp_dir().join("rqm_decode_scaling");
    std::fs::create_dir_all(&dir).unwrap();
    let archive_path = dir.join("wavefield.rqc");
    {
        let mut lin = 0u64;
        let field = NdArray::<f32>::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.11 * (a + 1) as f64).sin() * (6.0 / (a + 1) as f64);
            }
            lin += 1;
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.02;
            v as f32
        });
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(chunk_rows)
            .with_threads(cpus);
        let sink = std::io::BufWriter::new(std::fs::File::create(&archive_path).unwrap());
        let mut w = ArchiveWriter::<f32, _>::create(sink, shape, &cfg).unwrap();
        // Feed a few chunks per slab so the write side stays bounded too.
        let row_elems: usize = shape.dims()[1..].iter().product();
        let batch = chunk_rows * 4;
        let mut row = 0usize;
        while row < shape.dim(0) {
            let rows = batch.min(shape.dim(0) - row);
            let mut dims = [0usize; MAX_DIMS];
            dims[..shape.ndim()].copy_from_slice(shape.dims());
            dims[0] = rows;
            let slab = NdArray::<f32>::from_vec(
                Shape::new(&dims[..shape.ndim()]),
                field.as_slice()[row * row_elems..(row + rows) * row_elems].to_vec(),
            );
            w.write_slab(&slab).unwrap();
            row += rows;
        }
        w.finalize().unwrap();
    }
    let archive_bytes = std::fs::metadata(&archive_path).unwrap().len();
    let raw_bytes = (shape.len() * 4) as u64;
    let resettable = reset_peak_rss();

    println!(
        "# Parallel streaming decode scaling — field {:?} ({:.0} MiB raw, {:.1} MiB archive), \
         {chunk_rows}-row chunks, {cpus} CPU(s)",
        shape.dims(),
        mib(raw_bytes),
        mib(archive_bytes),
    );
    if !resettable {
        println!("(VmHWM reset unavailable: peak-RSS readings are monotone upper bounds)");
    }
    println!();

    // Each configuration is timed `iters` times and scored on its best
    // wall time: clock-speed drift over a minute-long bench (thermal
    // throttle, noisy-neighbour scheduling) is larger than the 3%
    // regression margin, and min-of-N is the standard way to strip it.
    let iters = 3;
    let mut runs: Vec<Run> = Vec::new();
    let mut mapped = false;
    for threads in [1usize, 2, 4, 8] {
        reset_peak_rss();
        let floor = peak_rss_bytes().unwrap_or(0);
        let mut wall_ms = f64::INFINITY;
        let mut eff_threads = 1;
        let mut run_hash = 0u64;
        for _ in 0..iters {
            let t0 = Instant::now();
            let mut reader =
                ArchiveReader::open_path(&archive_path).unwrap().with_threads(threads);
            let mut hash = Fnv::new();
            reader
                .decompress_rows::<f32>(|slab| {
                    hash.update(slab);
                    Ok(())
                })
                .unwrap();
            wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            eff_threads = reader.threads();
            mapped = reader.is_mapped();
            run_hash = hash.0;
            // A full decode is chunk-aligned end to end: every chunk
            // must decode straight into its delivery slab.
            assert_eq!(
                reader.stats().reorder_copies,
                0,
                "full streaming decode at {threads} threads took a scratch-copy path"
            );
        }
        let peak = peak_rss_bytes().unwrap_or(0);
        runs.push(Run {
            threads,
            eff_threads,
            wall_ms,
            peak_rss: peak,
            rss_delta: peak.saturating_sub(floor),
            hash: run_hash,
        });
    }
    // Thread count must never change the decoded bytes.
    let reference = runs[0].hash;
    for r in &runs {
        assert_eq!(
            r.hash, reference,
            "decode at {} threads diverged from the serial result",
            r.threads
        );
    }

    let serial_ms = runs.iter().find(|r| r.threads == 1).unwrap().wall_ms;
    let mut t = Table::new(&[
        "threads", "effective", "wall(ms)", "speedup", "peakRSS(MiB)", "ΔRSS(MiB)",
    ]);
    for r in &runs {
        t.row(&[
            r.threads.to_string(),
            r.eff_threads.to_string(),
            f(r.wall_ms, 1),
            f(serial_ms / r.wall_ms, 2),
            f(mib(r.peak_rss), 1),
            f(mib(r.rss_delta), 1),
        ]);
    }
    t.print();

    // Regression gate: asking for more threads must never make the
    // decode slower than serial. With the worker pool
    // clamped to `available_parallelism`, a 1-CPU host runs the same
    // serial path at every requested count, and a multi-core host only
    // adds workers it can schedule — so anything below ~1× is a real
    // regression (lock contention, reorder pressure), not
    // oversubscription noise. 0.97 leaves 3% for timer jitter.
    for r in runs.iter().filter(|r| r.threads > 1) {
        let speedup = serial_ms / r.wall_ms;
        assert!(
            speedup >= 0.97,
            "decode at {} requested threads ({} effective) ran at {speedup:.3}x \
             the serial wall time — multi-threaded decode regressed below serial",
            r.threads,
            r.eff_threads,
        );
    }

    // Bounded-RSS check: each streaming run's own footprint (peak growth
    // over its post-reset floor) must track the read-ahead window, not
    // the archive/field size — the whole field never becomes resident.
    // Only meaningful when the HWM counter resets and the field dwarfs
    // the process baseline (full-size run).
    let stream_delta = runs.iter().map(|r| r.rss_delta).max().unwrap_or(0);
    // Tri-state for the JSON: true/false only when the check actually
    // ran; null means "not measured" (quick mode or non-resettable HWM),
    // so an unmeasured CI run can't read as a failed contract.
    let rss_bounded = if resettable && !quick {
        if stream_delta < raw_bytes { "true" } else { "false" }
    } else {
        "null"
    };
    if resettable && !quick {
        assert!(
            stream_delta < raw_bytes,
            "streaming decode grew RSS by {:.1} MiB, as much as the raw field ({:.1} MiB): \
             the read-ahead window is not bounding memory",
            mib(stream_delta),
            mib(raw_bytes)
        );
    }

    // Hand-rolled JSON (the workspace has no serde): the decode perf
    // trajectory across PRs.
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"decode_scaling\",\n");
    j.push_str(&format!("  \"field\": {:?},\n", shape.dims()));
    j.push_str(&format!("  \"raw_bytes\": {raw_bytes},\n"));
    j.push_str(&format!("  \"archive_bytes\": {archive_bytes},\n"));
    j.push_str(&format!("  \"chunk_rows\": {chunk_rows},\n"));
    j.push_str(&format!("  \"cpus\": {cpus},\n"));
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"iters\": {iters},\n"));
    j.push_str(&format!("  \"rss_resettable\": {resettable},\n"));
    j.push_str(&format!("  \"mapped_source\": {mapped},\n"));
    j.push_str(&format!("  \"streaming_rss_bounded\": {rss_bounded},\n"));
    j.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"threads\": {}, \"effective_threads\": {}, \"wall_ms\": {}, \
             \"speedup_vs_serial\": {}, \"peak_rss_bytes\": {}, \"rss_delta_bytes\": {}}}{}\n",
            r.threads,
            r.eff_threads,
            rq_bench::jf(r.wall_ms, 3),
            rq_bench::jf(serial_ms / r.wall_ms, 3),
            r.peak_rss,
            r.rss_delta,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    let mut out = std::fs::File::create("BENCH_decode.json").unwrap();
    out.write_all(j.as_bytes()).unwrap();
    println!("\nwrote BENCH_decode.json ({} runs)", runs.len());

    let four = runs.iter().find(|r| r.threads == 4).unwrap();
    let speedup4 = serial_ms / four.wall_ms;
    if cpus >= 4 && speedup4 < 2.0 {
        println!(
            "WARN: 4-thread streaming speedup {speedup4:.2}× < 2× on a {cpus}-CPU machine"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
