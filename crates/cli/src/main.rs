//! `rqm` — command-line front end for the compressor and the model.
//!
//! ```text
//! rqm compress   <in.f32> <out.rqc> --shape 64x64x64 --abs 1e-3
//!                [--predictor interpolation|lorenzo|lorenzo2|regression]
//!                [--rel 1e-3] [--target-psnr DB] [--target-size BYTES]
//!                [--huffman-only] [--codec sz|zfp|rolz|auto]
//!                [--threads N] [--chunk-size ROWS]
//! rqm decompress <in.rqc> <out.f32> [--threads N]
//! rqm estimate   <in.f32> --shape 64x64x64 [--abs 1e-3] [--rate 0.01]
//!                [--predictor …]           # model-only, no compression
//! rqm info       <in.rqc> [--json]
//! rqm pack       <out.rqc> --steps N --shape D0xD1xD2 --abs EB
//!                [--datasets a,b,c] [--keyframe-every K] [--seed S]
//!                [--predictor P] [--chunk-size ROWS]
//!                [--input raw.f32 [--dataset NAME]]
//! rqm unpack     <in.rqc> <outdir> [--dataset NAME] [--step T]
//! rqm catalog    <in.rqc> [--json]
//! rqm serve      <in.rqc> --addr HOST:PORT [--cache-bytes N] [--threads N]
//!                [--metrics-every SECS]
//! rqm read       --addr HOST:PORT [--rows A..B | --chunk I] [--out FILE]
//!                [--stats] [--list] [--dataset NAME [--step T]]
//! ```
//!
//! `--target-psnr DB` / `--target-size BYTES` (exclusive with `--abs`/`--rel`)
//! state a goal instead of a bound; planning and the compress → measure →
//! re-plan policy are `rq_core::usecases::TargetSession`'s.
//!
//! `--threads`/`--chunk-size` switch to **streaming** chunk-parallel
//! compression: the input file is read in axis-0 slabs of `--chunk-size`
//! rows, each slab is compressed concurrently through the
//! `rq_compress::ArchiveWriter` session, and blobs go straight to the
//! output file with the chunk index in a trailer — peak memory stays at
//! a few slabs no matter how large the field is. Without `--chunk-size`
//! the slabs are `Chunking::Auto`'s: about 16 chunks of at least 32 Ki
//! values, whatever the thread count, so `--threads` never changes a
//! byte; `--codec zfp|rolz|auto` and `--target-*` runs chunk the same way
//! without either flag. Plain `compress` loads the field and writes it as
//! one whole-field chunk. Every archive is container v2.4; `decompress`
//! and `info` read all six generations.
//!
//! `decompress` streams for every thread count: rows flow from the
//! archive to the output through `rq_compress::ArchiveReader` one chunk at
//! a time, or, on more than one thread, through an ordered window of at
//! most `2 × threads` chunks in flight, so peak memory is a few chunks no
//! matter how large the field is. With `--threads N` chunk *decoding* fans
//! out to N threads while extents are still read sequentially — the
//! output bytes are identical at every thread count, only the wall time
//! changes.
//!
//! `--codec` selects the per-chunk backend: `sz` (default, the prediction
//! path), `zfp` (the transform path), `rolz` (the prediction front end
//! with a reduced-offset-LZ back end over the quantization codes) or
//! `auto`, which estimates all three per chunk and
//! picks the cheapest. The chunk index tags every chunk with the codec
//! that produced it (shown by `rqm info`); non-`sz` codecs imply chunking
//! even without `--chunk-size`.
//!
//! `rqm info --json` emits the header and the per-chunk table
//! (offset/bytes/codec/ratio per chunk) as machine-readable JSON.
//!
//! `rqm serve` exposes an archive to remote readers over the
//! `docs/PROTOCOL.md` TCP protocol: thread-per-connection, with a
//! `--cache-bytes`-budgeted LRU of decoded chunks and single-flight
//! coalescing so a hot chunk is decoded once no matter how many clients
//! ask for it (`--threads` caps concurrent connections;
//! `--metrics-every` logs a stats line). `rqm read` is the matching
//! client: fetch a row range or a single chunk into a raw
//! little-endian file, and `--stats` prints the server's counters.
//!
//! **Temporal catalogs** (`pack` / `unpack` / `catalog`): a whole
//! simulation — N named datasets, each a sequence of time steps — goes
//! into one `RQCAT` container. Steps are stored as embedded single-field
//! archives; every `--keyframe-every`-th step is self-contained and the
//! steps between code *residuals* against the reconstruction of the
//! previous step (the temporal-delta predictor), so slowly-evolving
//! fields cost a fraction of independent archives while every step still
//! honors the dataset's absolute bound. Without `--input`, `pack` pulls
//! its steps from the seeded RTM wavefield generator (one independent
//! physics perturbation per dataset name); with `--input` it packs a raw
//! little-endian f32 file holding `--steps` concatenated fields. `rqm
//! info`, `rqm serve` and `rqm read` all recognize catalogs: `info`
//! summarizes the index, `serve` answers the protocol-v2
//! `LIST_DATASETS`/`READ_STEP_ROWS` requests over it, and `read --list`
//! / `--dataset NAME --step T` are the matching client sides.
//!
//! Raw inputs are little-endian `f32` streams in row-major order.

#![forbid(unsafe_code)]

mod args;
mod io;

use args::Args;
use rq_catalog::{is_catalog_magic, CatalogIndex, CatalogReader, CatalogWriter};
use rq_compress::{
    generation_name, json_escape, json_f64, resolved_chunk_rows,
    ArchiveReader, ArchiveWriter, ChunkCodecKind, CodecChoice, CompressError, CompressionReport,
    CompressorConfig, Header,
};
use rq_core::usecases::{
    measure_archive, Measured, Target, TargetError, TargetOutcome, TargetSession,
};
use rq_core::RqModel;
use rq_grid::Shape;
use rq_quant::ErrorBoundMode;
use rq_serve::{Client, DatasetInfo, ServeConfig, Server};
use std::io::{Read, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rqm: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  rqm compress   <in.f32> <out.rqc> --shape NxNxN --abs EB [--rel R]
                 [--target-psnr DB] [--target-size BYTES]
                 [--predictor interpolation|lorenzo|lorenzo2|regression]
                 [--huffman-only] [--codec sz|zfp|rolz|auto]
                 [--threads N] [--chunk-size ROWS]
  rqm decompress <in.rqc> <out.f32> [--threads N]
  rqm estimate   <in.f32> --shape NxNxN [--abs EB] [--rate 0.01] [--predictor P]
  rqm info       <in.rqc> [--json]
  rqm pack       <out.rqc> --steps N --shape D0xD1xD2 --abs EB
                 [--datasets a,b,c] [--keyframe-every K] [--seed S]
                 [--predictor P] [--chunk-size ROWS]
                 [--input raw.f32 [--dataset NAME]]
  rqm unpack     <in.rqc> <outdir> [--dataset NAME] [--step T]
  rqm catalog    <in.rqc> [--json]
  rqm serve      <in.rqc> --addr HOST:PORT [--cache-bytes N] [--threads N]
                 [--metrics-every SECS]
  rqm read       --addr HOST:PORT [--rows A..B | --chunk I] [--out FILE]
                 [--stats] [--list] [--dataset NAME [--step T]]";

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let cmd = args.positional.first().map(String::as_str).unwrap_or("");
    match cmd {
        "compress" => cmd_compress(&args),
        "decompress" => cmd_decompress(&args),
        "estimate" => cmd_estimate(&args),
        "info" => cmd_info(&args),
        "pack" => cmd_pack(&args),
        "unpack" => cmd_unpack(&args),
        "catalog" => cmd_catalog(&args),
        "serve" => cmd_serve(&args),
        "read" => cmd_read(&args),
        "" => Err("no command given".into()),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// What the user asked the compressor to honor: a hand-picked bound, or a
/// quality/size target the ratio-quality model turns into per-chunk
/// bounds.
enum Goal {
    /// A fixed error bound (`--abs` / `--rel`).
    Fixed(ErrorBoundMode),
    /// A measured-quality floor (`--target-psnr`) or an archive-size
    /// ceiling (`--target-size`).
    Target(Target),
}

fn goal_from(args: &Args) -> Result<Goal, String> {
    let given = [
        args.float("abs")?.map(|eb| Goal::Fixed(ErrorBoundMode::Abs(eb))),
        args.float("rel")?.map(|r| Goal::Fixed(ErrorBoundMode::ValueRangeRelative(r))),
        args.float("target-psnr")?.map(|t| Goal::Target(Target::PsnrFloor(t))),
        args.unsigned("target-size")?.map(|b| Goal::Target(Target::ByteCeiling(b))),
    ];
    let mut given = given.into_iter().flatten();
    match (given.next(), given.next()) {
        (Some(_), Some(_)) => {
            Err("--abs, --rel, --target-psnr and --target-size are mutually exclusive".into())
        }
        (Some(Goal::Target(Target::PsnrFloor(t))), _) if !t.is_finite() => {
            Err(format!("--target-psnr: {t} is not a finite dB value"))
        }
        (Some(Goal::Target(Target::ByteCeiling(0))), _) => {
            Err("--target-size must be positive".into())
        }
        (Some(goal), _) => Ok(goal),
        (None, _) => Err("need an error bound (--abs EB | --rel R) or a target \
                          (--target-psnr DB | --target-size BYTES)"
            .into()),
    }
}

/// One bounded-memory pass over a raw `f32` file: the value range
/// (max − min, NaNs ignored), for resolving `--rel` without loading the
/// field.
fn stream_value_range(input: &str, shape: Shape, slab_rows: usize) -> Result<f64, String> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for slab in io::raw_slabs(input, shape, slab_rows)? {
        for &v in slab.map_err(|e| format!("{input}: {e}"))?.as_slice() {
            if !v.is_nan() {
                lo = lo.min(v as f64);
                hi = hi.max(v as f64);
            }
        }
    }
    if lo > hi {
        return Err(format!("{input}: all values are NaN"));
    }
    Ok(hi - lo)
}

/// Run `write` against `{output}.rqm-partial` and rename the result over
/// `output` only if it succeeds — a failed run can neither clobber an
/// existing file (with, say, a trailer-less archive) nor leave a partial
/// one behind.
fn replace_on_success<T>(
    output: &str,
    write: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let tmp = format!("{output}.rqm-partial");
    let result = write(&tmp).and_then(|done| {
        std::fs::rename(&tmp, output).map_err(|e| format!("{output}: {e}"))?;
        Ok(done)
    });
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Streaming compression into the file `path`: read the input in slabs,
/// feed the archive writer, never hold more than a few slabs in memory.
/// With `plan`, the session runs in quality-targeted mode (one bound per
/// chunk).
fn stream_compress(
    input: &str,
    path: &str,
    shape: Shape,
    mut cfg: CompressorConfig,
    plan: Option<Vec<f64>>,
) -> Result<CompressionReport, String> {
    // A value-range-relative bound needs the global range before the
    // first slab; one cheap streaming pass resolves it to an absolute
    // bound (identical to what the in-memory pipeline would compute).
    // Planned sessions carry explicit absolute bounds instead.
    let chunk_rows = resolved_chunk_rows(&cfg, shape);
    if plan.is_none() {
        if let ErrorBoundMode::ValueRangeRelative(r) = cfg.bound {
            let range = stream_value_range(input, shape, chunk_rows)?;
            cfg = cfg.with_bound(ErrorBoundMode::Abs(r * range));
        }
    }
    // Feed one batch of chunks per read: enough rows to occupy every
    // worker thread, and the upper bound on resident input data.
    let batch_rows =
        chunk_rows.saturating_mul(cfg.resolved_threads()).clamp(chunk_rows, shape.dim(0));
    let slabs = io::raw_slabs(input, shape, batch_rows)?;
    let sink =
        std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?);
    let mut writer = match plan {
        Some(ebs) => ArchiveWriter::<f32, _>::create_planned(sink, shape, &cfg, ebs),
        None => ArchiveWriter::<f32, _>::create(sink, shape, &cfg),
    }
    .map_err(|e| format!("compression failed: {e}"))?;
    for slab in slabs {
        let slab = slab.map_err(|e| format!("{input}: {e}"))?;
        writer.write_slab(&slab).map_err(|e| format!("compression failed: {e}"))?;
    }
    let finished = writer.finalize().map_err(|e| format!("compression failed: {e}"))?;
    let file = finished.sink.into_inner().map_err(|e| format!("{path}: {e}"))?;
    file.sync_all().map_err(|e| format!("{path}: {e}"))?;
    Ok(finished.report)
}

/// Quality-targeted compression: `rq_core`'s [`TargetSession`] fits the
/// per-chunk models, plans the bounds and decides how often to compress;
/// this function only writes each attempt beside the output
/// (`{output}.rqm-attempt{k}`) and measures it when asked. The kept
/// attempt is renamed over `output`; every other one is removed, on
/// failure too — so a failed run leaves whatever was at `output` alone.
fn compress_to_target(
    input: &str,
    output: &str,
    shape: Shape,
    cfg: CompressorConfig,
    target: Target,
) -> Result<(TargetOutcome, CompressionReport), String> {
    let chunk_rows = resolved_chunk_rows(&cfg, shape);
    let session = TargetSession::fit(io::raw_slabs(input, shape, chunk_rows)?, cfg.predictor)
        .map_err(|e| format!("{input}: {e}"))?;
    let attempt_path = |k: usize| format!("{output}.rqm-attempt{k}");
    let mut reports = Vec::new();
    let result = session
        .run(target, |k, ebs| -> Result<Measured, String> {
            let path = attempt_path(k);
            let rep = stream_compress(input, &path, shape, cfg, Some(ebs.to_vec()))?;
            let bytes = rep.container_bytes;
            reports.push(rep);
            if let Target::ByteCeiling(_) = target {
                return Ok(Measured::size_only(bytes));
            }
            // Streaming verification pass: one chunk of the archive and
            // of the input resident at a time.
            let originals = io::raw_slabs(input, shape, chunk_rows)?;
            ArchiveReader::open_path(&path)
                .and_then(|reader| measure_archive(&reader, bytes, originals))
                .map_err(|e| format!("verification failed: {e}"))
        })
        .map_err(|e| match e {
            TargetError::Attempt(e) => e,
            // A target the model cannot plan for or the attempts did not
            // meet is a configuration problem: surface it exactly as the
            // compressor's typed InvalidConfig error.
            e => format!("compression failed: {}", CompressError::InvalidConfig(e.to_string())),
        });
    // One past the finished attempts: a write that failed midway left a
    // partial file under the next index.
    let leftovers = 0..=reports.len();
    let result = result.and_then(|outcome| {
        std::fs::rename(attempt_path(outcome.kept), output).map_err(|e| format!("{output}: {e}"))?;
        let rep = reports.swap_remove(outcome.kept);
        Ok((outcome, rep))
    });
    for k in leftovers {
        std::fs::remove_file(attempt_path(k)).ok();
    }
    result
}

fn cmd_compress(args: &Args) -> Result<(), String> {
    let [_, input, output] = positional::<3>(args)?;
    let shape = args.shape()?;
    let goal = goal_from(args)?;

    let codec = match args.get("codec").unwrap_or("sz") {
        "sz" => CodecChoice::Sz,
        "zfp" => CodecChoice::Zfp,
        "rolz" => CodecChoice::Rolz,
        "auto" => CodecChoice::Auto,
        other => return Err(format!("unknown codec '{other}' (sz|zfp|rolz|auto)")),
    };
    // Quality-targeted goals plan absolute per-chunk bounds; the config
    // bound is a placeholder the planned session never reads.
    let bound = match goal {
        Goal::Fixed(b) => b,
        Goal::Target(_) => ErrorBoundMode::Abs(1.0),
    };
    let targeted = matches!(goal, Goal::Target(_));
    let mut cfg = CompressorConfig::new(args.predictor()?, bound).with_codec(codec);
    if args.flag("huffman-only") {
        cfg = cfg.huffman_only();
    }
    let threads = args.unsigned("threads")?;
    let chunk_rows = args.unsigned("chunk-size")?;
    // The adaptive codecs and the quality planner decide per chunk: give
    // them chunks even when none were asked for. Auto sizing does not read
    // the thread count, so the bytes do not depend on the machine.
    if threads.is_some() || chunk_rows.is_some() || codec != CodecChoice::Sz || targeted {
        cfg = match chunk_rows {
            Some(0) => return Err("--chunk-size must be positive".into()),
            Some(rows) => cfg.chunked(rows),
            None => cfg.auto_chunked(),
        };
        cfg = cfg.with_threads(threads.unwrap_or(0));
    }

    let mut plan_note = String::new();
    let rep = if let Goal::Target(target) = goal {
        let (outcome, rep) = compress_to_target(&input, &output, shape, cfg, target)?;
        let plan = &outcome.plan;
        let (eb_lo, eb_hi) = plan
            .ebs
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &e| (lo.min(e), hi.max(e)));
        let attempts_note = match outcome.attempts {
            1 => String::new(),
            n => format!(", {n} attempts"),
        };
        let goal_note = match target {
            Target::PsnrFloor(t) => format!(
                "target {t:.1} dB, planned est {:.1} dB, measured {:.1} dB{attempts_note}",
                plan.est_psnr,
                outcome.psnr.unwrap_or(f64::NAN)
            ),
            Target::ByteCeiling(b) => format!(
                "target {b} B, planned est {} B ({:.1} dB{attempts_note})",
                (plan.est_bit_rate * shape.len() as f64 / 8.0).round(),
                plan.est_psnr
            ),
        };
        plan_note = format!("{goal_note}, per-chunk eb {eb_lo:.2e}..{eb_hi:.2e}, ");
        rep
    } else {
        // Stream slabs through the writer session: peak RSS is a few slabs,
        // or the field when it is one whole-field chunk.
        replace_on_success(&output, |tmp| stream_compress(&input, tmp, shape, cfg, None))?
    };

    let n_zfp =
        rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Zfp).count();
    let n_rolz =
        rep.chunk_codecs.iter().filter(|&&c| c == ChunkCodecKind::Rolz).count();
    let codec_note = match codec {
        CodecChoice::Sz => String::new(),
        CodecChoice::Zfp => "codec zfp, ".into(),
        CodecChoice::Rolz => "codec rolz, ".into(),
        CodecChoice::Auto => {
            format!(
                "codec auto ({} sz / {n_zfp} zfp / {n_rolz} rolz), ",
                rep.n_chunks - n_zfp - n_rolz
            )
        }
    };
    // Predictor/p0 describe the prediction path; omit them when every
    // chunk went through the transform codec and they never ran.
    let predictor_note = if n_zfp < rep.n_chunks {
        format!("predictor {}, p0 {:.3}, ", cfg.predictor.name(), rep.p0())
    } else {
        String::new()
    };
    let summary = format!(
        "{plan_note}{codec_note}{predictor_note}ratio {:.2}, {:.3} bits/value{}",
        rep.overall_ratio(),
        rep.overall_bit_rate(),
        if rep.n_chunks > 1 {
            format!(", {} chunks × {} threads", rep.n_chunks, cfg.resolved_threads())
        } else {
            String::new()
        }
    );
    println!(
        "{input} -> {output}: {} -> {} bytes ({summary})",
        shape.len() * 4,
        rep.container_bytes
    );
    Ok(())
}

fn cmd_decompress(args: &Args) -> Result<(), String> {
    let [_, input, output] = positional::<3>(args)?;
    let mut src = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
    let mut magic = [0u8; 6];
    let sniffed = src.read(&mut magic).map_err(|e| format!("{input}: {e}"))?;
    if sniffed >= 6 && is_catalog_magic(&magic) {
        return Err(format!(
            "{input} is an RQCAT temporal catalog, not a single-field archive; \
             use `rqm unpack`"
        ));
    }
    // Streaming decode at every thread count: each of the `--threads`
    // threads fetches a chunk's extent with one seek+read under the
    // reader's source lock and decodes it outside the lock, with at most
    // `2 × threads` chunks in flight, and rows are delivered in order —
    // peak memory is a window of chunks, never the field. Rows stream into
    // a temp file that is renamed into place only after every chunk
    // decoded, so a corrupt archive can neither clobber an existing output
    // nor leave a silently truncated one.
    let threads = args.unsigned("threads")?.unwrap_or(1);
    drop(src);
    let reader = ArchiveReader::open_path(&input)
        .map_err(|e| format!("not a compressed container: {e}"))?
        .with_threads(threads);
    let shape = reader.header().shape;
    let values = replace_on_success(&output, |tmp| {
        let mut sink = std::io::BufWriter::new(
            std::fs::File::create(tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let values = reader
            .decompress_to_writer::<f32, _>(&mut sink)
            .map_err(|e| format!("decompression failed: {e}"))?;
        sink.flush().map_err(|e| format!("{tmp}: {e}"))?;
        Ok(values)
    })?;
    let par = if reader.threads() > 1 {
        format!(", {} decode threads", reader.threads())
    } else {
        String::new()
    };
    println!("{input} -> {output}: {shape:?}, {values} values{par}");
    Ok(())
}

fn cmd_estimate(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let shape = args.shape()?;
    let rate = args.float("rate")?.unwrap_or(0.01);
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("--rate: {rate} is outside (0, 1]"));
    }
    let abs = args.float("abs")?;
    if let Some(eb) = abs.filter(|eb| !(*eb > 0.0 && eb.is_finite())) {
        return Err(format!("--abs: {eb} is not a positive finite error bound"));
    }
    let predictor = args.predictor()?;
    let field = io::read_raw_f32(&input, shape)?;
    let model = RqModel::build(&field, predictor, rate, 42);
    println!(
        "model: {} predictor, {} samples in {:?}",
        predictor.name(),
        model.sample().errors.len(),
        model.build_time()
    );
    let range = field.value_range();
    let ebs: Vec<f64> = match abs {
        Some(eb) => vec![eb],
        None if range > 0.0 && range.is_finite() => {
            (0..6).map(|i| range * 1e-6 * 10f64.powi(i)).collect()
        }
        None => {
            return Err(format!("no bounds to derive from a value range of {range}: give --abs"))
        }
    };
    println!(
        "{:>12} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "error bound", "bits/val", "ratio", "PSNR(dB)", "SSIM", "p0"
    );
    for eb in ebs {
        let est = model.estimate(eb);
        println!(
            "{eb:>12.3e} {:>10.3} {:>8.2} {:>9.2} {:>9.5} {:>9.4}",
            est.bit_rate, est.ratio, est.psnr, est.ssim, est.p0
        );
    }
    Ok(())
}

/// Name and byte width of the scalar a container's tag byte declares.
fn scalar(tag: u8) -> Result<(&'static str, usize), String> {
    match tag {
        t if t == <f32 as rq_grid::Scalar>::TAG => Ok(("f32", <f32 as rq_grid::Scalar>::BYTES)),
        t if t == <f64 as rq_grid::Scalar>::TAG => Ok(("f64", <f64 as rq_grid::Scalar>::BYTES)),
        t => Err(format!("unsupported scalar tag {t:#04x}")),
    }
}

/// Emit the header + chunk table as machine-readable JSON (hand-rolled,
/// no dependencies — the structure is flat enough that a serializer
/// would be overkill).
fn print_info_json(
    input: &str,
    total_bytes: u64,
    h: &Header,
    table: &rq_compress::ChunkTable,
) -> Result<(), String> {
    println!("{}", info_json_string(input, total_bytes, h, table)?);
    Ok(())
}

/// Build the `rqm info --json` document. Split from the printing so the
/// unit tests can parse the exact bytes a user would see — every float
/// goes through [`json_f64`], so the document stays valid JSON even when
/// a ratio or bound is non-finite.
fn info_json_string(
    input: &str,
    total_bytes: u64,
    h: &Header,
    table: &rq_compress::ChunkTable,
) -> Result<String, String> {
    let (scalar_name, scalar_bytes) = scalar(h.scalar_tag)?;
    let row_elems: usize = h.shape.dims()[1..].iter().product::<usize>().max(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(input)));
    out.push_str("  \"format\": \"rqmc\",\n");
    out.push_str(&format!("  \"generation\": \"{}\",\n", generation_name(h.version)));
    out.push_str(&format!("  \"version_byte\": {},\n", h.version));
    out.push_str(&format!("  \"bytes\": {total_bytes},\n"));
    let dims: Vec<String> = h.shape.dims().iter().map(|d| d.to_string()).collect();
    out.push_str(&format!("  \"shape\": [{}],\n", dims.join(", ")));
    out.push_str(&format!("  \"scalar\": \"{scalar_name}\",\n"));
    out.push_str(&format!("  \"predictor\": \"{}\",\n", h.predictor.name()));
    out.push_str(&format!("  \"abs_bound\": {},\n", json_f64(h.abs_eb)));
    out.push_str(&format!("  \"radius\": {},\n", h.radius));
    out.push_str(&format!(
        "  \"lossless\": {},\n",
        h.lossless != rq_compress::LosslessStage::None
    ));
    out.push_str(&format!("  \"log_transform\": {},\n", h.log_transform));
    let ratio = (h.shape.len() * scalar_bytes) as f64 / (total_bytes as f64).max(1.0);
    out.push_str(&format!("  \"ratio\": {},\n", json_f64(ratio)));
    out.push_str(&format!("  \"chunk_rows\": {},\n", table.chunk_rows));
    out.push_str("  \"chunks\": [\n");
    for (i, e) in table.entries.iter().enumerate() {
        let chunk_ratio = (e.rows * row_elems * scalar_bytes) as f64 / e.len.max(1) as f64;
        out.push_str(&format!(
            "    {{\"index\": {i}, \"start_row\": {}, \"rows\": {}, \"offset\": {}, \
             \"bytes\": {}, \"codec\": \"{}\", \"eb\": {}, \"ratio\": {}}}{}\n",
            e.start_row,
            e.rows,
            e.offset,
            e.len,
            e.codec.name(),
            json_f64(e.eb),
            json_f64(chunk_ratio),
            if i + 1 < table.entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}");
    Ok(out)
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let json = args.flag("json");
    let mut src = std::fs::File::open(&input).map_err(|e| format!("{input}: {e}"))?;
    let total_bytes = src.metadata().map_err(|e| format!("{input}: {e}"))?.len();
    let mut magic = [0u8; 6];
    let sniffed = src.read(&mut magic).map_err(|e| format!("{input}: {e}"))?;
    if sniffed >= 6 && is_catalog_magic(&magic) {
        drop(src);
        let reader = CatalogReader::open_path(&input)
            .map_err(|e| format!("not a readable catalog: {e}"))?;
        return print_catalog(&input, total_bytes, reader.index(), json);
    }
    // The reader parses only the header and chunk index — `info` never
    // loads the payload, however large the archive.
    drop(src);
    let reader =
        ArchiveReader::open_path(&input).map_err(|e| format!("not a compressed container: {e}"))?;
    let h = reader.header().clone();
    let table = reader.chunk_table();
    if json {
        return print_info_json(&input, total_bytes, &h, &table);
    }
    let (scalar_name, scalar_bytes) = scalar(h.scalar_tag)?;
    println!("{input}: RQMC container v{} ({}), {total_bytes} bytes",
        generation_name(h.version), h.version);
    println!("  shape:      {:?}", h.shape);
    println!("  scalar:     {scalar_name}");
    println!("  predictor:  {}", h.predictor.name());
    println!("  abs bound:  {:.6e}", h.abs_eb);
    println!("  radius:     {}", h.radius);
    println!("  lossless:   {:?}", h.lossless);
    println!("  log xform:  {}", h.log_transform);
    if h.version >= 2 {
        println!("  chunks:     {} × {} rows", table.entries.len(), table.chunk_rows);
        let row_elems: usize = h.shape.dims()[1..].iter().product::<usize>().max(1);
        // Per-chunk bounds only exist in v2.3+ archives (v2.4 keeps the
        // same trailer layout); elsewhere the column would repeat the
        // header bound on every line.
        let planned = h.version >= 5;
        for e in &table.entries {
            // Per-chunk ratio from the chunk index: slab raw size over the
            // blob's compressed size.
            let chunk_ratio = (e.rows * row_elems * scalar_bytes) as f64 / e.len.max(1) as f64;
            let eb_col = if planned { format!(" eb {:>9.3e}", e.eb) } else { String::new() };
            println!(
                "    rows {:>6}..{:<6} {:>10} bytes at {:<10} {:>5}{eb_col} ratio {:>8.2}",
                e.start_row,
                e.start_row + e.rows,
                e.len,
                e.offset,
                e.codec.name(),
                chunk_ratio,
            );
        }
    }
    let ratio = (h.shape.len() * scalar_bytes) as f64 / (total_bytes as f64).max(1.0);
    println!("  ratio:      {ratio:.2}");
    Ok(())
}

/// Summarize a catalog index: one block per dataset, with the per-step
/// segment table and the dataset's overall ratio (raw bytes over segment
/// bytes — the trailer itself is excluded, it is shared bookkeeping).
fn print_catalog(
    input: &str,
    total_bytes: u64,
    index: &CatalogIndex,
    json: bool,
) -> Result<(), String> {
    if json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"file\": \"{}\",\n", json_escape(input)));
        out.push_str("  \"format\": \"rqcat\",\n");
        out.push_str(&format!("  \"version_byte\": {},\n", rq_catalog::CATALOG_VERSION));
        out.push_str(&format!("  \"bytes\": {total_bytes},\n"));
        out.push_str("  \"datasets\": [\n");
        for (i, d) in index.datasets.iter().enumerate() {
            let (scalar_name, scalar_bytes) = scalar(d.scalar_tag)?;
            let raw = d.steps.len() * d.shape.len() * scalar_bytes;
            let seg: u64 = d.steps.iter().map(|s| s.len).sum();
            let dims: Vec<String> = d.shape.dims().iter().map(|x| x.to_string()).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"scalar\": \"{}\", \"shape\": [{}], \
                 \"steps\": {}, \"keyframe_every\": {}, \"abs_bound\": {}, \
                 \"segment_bytes\": {seg}, \"ratio\": {}, \"steps_detail\": [\n",
                json_escape(&d.name),
                scalar_name,
                dims.join(", "),
                d.steps.len(),
                d.keyframe_every,
                json_f64(d.steps[0].eb),
                json_f64(raw as f64 / seg.max(1) as f64),
            ));
            for (t, s) in d.steps.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"step\": {t}, \"keyframe\": {}, \"offset\": {}, \
                     \"bytes\": {}, \"codec\": \"{}\", \"eb\": {}}}{}\n",
                    s.keyframe,
                    s.offset,
                    s.len,
                    s.codec.name(),
                    json_f64(s.eb),
                    if t + 1 < d.steps.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < index.datasets.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        println!("{out}");
        return Ok(());
    }
    println!(
        "{input}: RQCAT catalog v{}, {total_bytes} bytes, {} dataset(s), {} steps",
        rq_catalog::CATALOG_VERSION,
        index.datasets.len(),
        index.total_steps()
    );
    for d in &index.datasets {
        let (scalar_name, scalar_bytes) = scalar(d.scalar_tag)?;
        let raw = d.steps.len() * d.shape.len() * scalar_bytes;
        let seg: u64 = d.steps.iter().map(|s| s.len).sum();
        println!(
            "  {}: {} {:?}, {} steps (keyframe every {}), abs bound {:.3e}",
            d.name,
            scalar_name,
            d.shape,
            d.steps.len(),
            d.keyframe_every,
            d.steps[0].eb,
        );
        for (t, s) in d.steps.iter().enumerate() {
            println!(
                "    step {t:>4} {} {:>10} bytes at {:<10} {}",
                if s.keyframe { "key  " } else { "delta" },
                s.len,
                s.offset,
                s.codec.name(),
            );
        }
        println!(
            "    {raw} -> {seg} segment bytes (ratio {:.2})",
            raw as f64 / seg.max(1) as f64
        );
    }
    Ok(())
}

/// Large odd stride between per-dataset seeds, so `pack --datasets a,b,c`
/// gets three decorrelated RTM perturbations from one `--seed`.
const PACK_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn cmd_pack(args: &Args) -> Result<(), String> {
    let [_, output] = positional::<2>(args)?;
    let shape = args.shape()?;
    let n_steps = args.unsigned("steps")?.ok_or("pack requires --steps N")?;
    if n_steps == 0 {
        return Err("--steps must be positive".into());
    }
    let eb = args
        .float("abs")?
        .ok_or("pack requires an absolute error bound (--abs EB)")?;
    let keyframe_every = args.unsigned("keyframe-every")?.unwrap_or(4);
    if keyframe_every == 0 {
        return Err("--keyframe-every must be positive".into());
    }
    let mut cfg = CompressorConfig::new(args.predictor()?, ErrorBoundMode::Abs(eb));
    match args.unsigned("chunk-size")? {
        Some(0) => return Err("--chunk-size must be positive".into()),
        Some(rows) => cfg = cfg.chunked(rows),
        None => {}
    }
    let input = args.get("input");
    if input.is_none() {
        // RTM datagen mode: the wave simulator needs a 3-D grid of at
        // least 8 points per axis.
        if shape.ndim() != 3 {
            return Err("pack without --input simulates an RTM wavefield and needs a \
                        3-D --shape (use --input for raw data)"
                .into());
        }
        if shape.dims().iter().any(|&d| d < 8) {
            return Err(format!(
                "RTM datagen needs every extent >= 8, got {:?}",
                shape.dims()
            ));
        }
    }

    let (bytes, n_datasets) = replace_on_success(&output, |tmp| {
        let sink = std::io::BufWriter::new(
            std::fs::File::create(tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let mut w = CatalogWriter::create(sink).map_err(|e| format!("{tmp}: {e}"))?;
        let mut n_datasets = 0usize;
        if let Some(inputf) = input {
            // Raw mode: `--steps` concatenated shape-sized f32 fields.
            let name = args.get("dataset").unwrap_or("field");
            let all_steps = shape.with_rows(shape.dim(0) * n_steps);
            let mut dw = w
                .begin_dataset::<f32>(name, &cfg, keyframe_every, shape)
                .map_err(|e| format!("pack failed: {e}"))?;
            for step in io::raw_slabs(inputf, all_steps, shape.dim(0))? {
                let step = step.map_err(|e| format!("{inputf}: {e}"))?;
                dw.write_step(&step).map_err(|e| format!("pack failed: {e}"))?;
            }
            dw.finish().map_err(|e| format!("pack failed: {e}"))?;
            n_datasets = 1;
        } else {
            let dims = [shape.dim(0), shape.dim(1), shape.dim(2)];
            let seed = args.unsigned("seed")?.unwrap_or(1) as u64;
            for (i, name) in args.get("datasets").unwrap_or("pressure").split(',').enumerate() {
                let name = name.trim();
                if name.is_empty() {
                    return Err("--datasets contains an empty name".into());
                }
                let steps = rq_datagen::rtm_steps(
                    seed.wrapping_add((i as u64).wrapping_mul(PACK_SEED_STRIDE)),
                    n_steps,
                    dims,
                );
                let mut dw = w
                    .begin_dataset::<f32>(name, &cfg, keyframe_every, shape)
                    .map_err(|e| format!("pack failed: {e}"))?;
                for s in &steps {
                    dw.write_step(s).map_err(|e| format!("pack failed: {e}"))?;
                }
                dw.finish().map_err(|e| format!("pack failed: {e}"))?;
                n_datasets += 1;
            }
        }
        let fin = w.finalize().map_err(|e| format!("pack failed: {e}"))?;
        fin.sink
            .into_inner()
            .map_err(|e| format!("{tmp}: {e}"))?
            .sync_all()
            .map_err(|e| format!("{tmp}: {e}"))?;
        Ok((fin.bytes_written, n_datasets))
    })?;
    let raw = n_datasets * n_steps * shape.len() * 4;
    println!(
        "{output}: {n_datasets} dataset(s) × {n_steps} steps (keyframe every \
         {keyframe_every}), {raw} -> {bytes} bytes (ratio {:.2})",
        raw as f64 / bytes.max(1) as f64
    );
    Ok(())
}

fn cmd_unpack(args: &Args) -> Result<(), String> {
    let [_, input, outdir] = positional::<3>(args)?;
    let only = args.get("dataset");
    let step_sel = args.unsigned("step")?;
    let reader =
        CatalogReader::open_path(&input).map_err(|e| format!("not a readable catalog: {e}"))?;
    let selected: Vec<(String, u8, usize, Shape)> = reader
        .datasets()
        .iter()
        .filter(|d| only.is_none_or(|n| n == d.name))
        .map(|d| (d.name.clone(), d.scalar_tag, d.steps.len(), d.shape))
        .collect();
    if selected.is_empty() {
        return Err(format!("{input}: no dataset named '{}'", only.unwrap_or("")));
    }
    std::fs::create_dir_all(&outdir).map_err(|e| format!("{outdir}: {e}"))?;
    for (name, tag, n_steps, shape) in selected {
        let steps = match step_sel {
            Some(t) if t >= n_steps => {
                return Err(format!("{name}: step {t} out of range (0..{n_steps})"))
            }
            Some(t) => t..t + 1,
            None => 0..n_steps,
        };
        let ext = scalar(tag)?.0;
        let file = match step_sel {
            Some(t) => format!("{outdir}/{name}_t{t}.{ext}"),
            None => format!("{outdir}/{name}.{ext}"),
        };
        let bytes = match ext {
            "f32" => unpack_steps::<f32>(&reader, &name, steps.clone(), &file)?,
            _ => unpack_steps::<f64>(&reader, &name, steps.clone(), &file)?,
        };
        println!("{name}: {} step(s) of {:?} -> {file} ({bytes} bytes)", steps.len(), shape);
    }
    Ok(())
}

/// Write `steps` of dataset `name` to `file` as raw little-endian values,
/// each step as [`CatalogReader::read_step`] returns it, so one step is
/// resident at a time; a failed step leaves no file. Returns the bytes
/// written.
fn unpack_steps<T: rq_grid::Scalar>(
    reader: &CatalogReader<std::fs::File>,
    name: &str,
    steps: std::ops::Range<usize>,
    file: &str,
) -> Result<usize, String> {
    replace_on_success(file, |tmp| {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(tmp).map_err(|e| format!("{tmp}: {e}"))?,
        );
        let (mut raw, mut written) = (Vec::new(), 0);
        for t in steps {
            let f = reader.read_step::<T>(name, t).map_err(|e| format!("{name} step {t}: {e}"))?;
            raw.clear();
            f.as_slice().iter().for_each(|&v| v.write_le(&mut raw));
            out.write_all(&raw).map_err(|e| format!("{tmp}: {e}"))?;
            written += raw.len();
        }
        out.flush().map_err(|e| format!("{tmp}: {e}"))?;
        Ok(written)
    })
}

fn cmd_catalog(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let total_bytes = std::fs::metadata(&input).map_err(|e| format!("{input}: {e}"))?.len();
    let reader =
        CatalogReader::open_path(&input).map_err(|e| format!("not a readable catalog: {e}"))?;
    print_catalog(&input, total_bytes, reader.index(), args.flag("json"))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let [_, input] = positional::<2>(args)?;
    let addr = args.get("addr").ok_or("serve requires --addr HOST:PORT")?.to_string();
    let cache_bytes = args.unsigned("cache-bytes")?.map_or(ServeConfig::default().cache_bytes, |b| b as u64);
    let max_connections = args.unsigned("threads")?.unwrap_or(0);
    let metrics_every = args
        .float("metrics-every")?
        .map(std::time::Duration::from_secs_f64);
    let cfg = ServeConfig { cache_bytes, metrics_every, max_connections };
    let server = Server::bind_path(&addr, std::path::Path::new(&input), cfg)
        .map_err(|e| format!("{input}: {e}"))?;
    let conns = if max_connections == 0 {
        "unlimited connections".to_string()
    } else {
        format!("up to {max_connections} connections")
    };
    println!(
        "serving {input} on {} ({} MiB chunk cache, {conns})",
        server.local_addr(),
        cache_bytes >> 20,
    );
    // Daemon mode: serve until the process is killed. The handler
    // threads do all the work; this thread only keeps `server` alive.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_read(args: &Args) -> Result<(), String> {
    let [_] = positional::<1>(args)?;
    let addr = args.get("addr").ok_or("read requires --addr HOST:PORT")?.to_string();
    let rows = args.get("rows").map(parse_row_range).transpose()?;
    let chunk = args.unsigned("chunk")?;
    if rows.is_some() && chunk.is_some() {
        return Err("--rows and --chunk are mutually exclusive".into());
    }
    if args.flag("list") {
        // Protocol-v2 dataset listing: every server answers (plain
        // archives present themselves as one pseudo-dataset).
        let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let datasets = client.list_datasets().map_err(|e| e.to_string())?;
        println!("{addr}: {} dataset(s)", datasets.len());
        for d in &datasets {
            println!(
                "  [{}] {}: {} {:?}, {} steps (keyframe every {}), {} chunks/step, \
                 abs bound {:.3e}",
                d.index,
                d.name,
                scalar(d.scalar_tag)?.0,
                d.step_dims,
                d.n_steps,
                d.keyframe_every,
                d.chunks_per_step,
                d.abs_eb,
            );
        }
        if args.flag("stats") {
            print_server_stats(&mut client)?;
        }
        return Ok(());
    }
    if let Some(name) = args.get("dataset") {
        if chunk.is_some() {
            return Err("--dataset selects with --step/--rows, not --chunk".into());
        }
        let step = args.unsigned("step")?.unwrap_or(0) as u64;
        let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let ds = client
            .list_datasets()
            .map_err(|e| e.to_string())?
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("{addr}: no dataset named '{name}'"))?;
        let (start, end) = rows.unwrap_or((0, ds.step_rows()));
        let raw = match scalar(ds.scalar_tag)?.0 {
            "f32" => step_scalars::<f32>(&mut client, &ds, step, start..end)?,
            _ => step_scalars::<f64>(&mut client, &ds, step, start..end)?,
        };
        if let Some(out) = args.get("out") {
            io::write_bytes(out, &raw)?;
            println!(
                "{addr} {name} step {step} rows {start}..{end}: {} bytes -> {out}",
                raw.len()
            );
        } else {
            println!(
                "{addr} {name} step {step} rows {start}..{end}: {} bytes (step shape \
                 {:?}, {} steps)",
                raw.len(),
                ds.step_dims,
                ds.n_steps
            );
        }
        if args.flag("stats") {
            print_server_stats(&mut client)?;
        }
        return Ok(());
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
    let info = client.info().clone();
    // The server holds either f32 or f64; fetch with the matching type
    // and write raw little-endian scalars either way.
    let (start, nrows, raw) = match scalar(info.scalar_tag)?.0 {
        "f32" => fetch_scalars::<f32>(&mut client, &info, &rows, chunk)?,
        _ => fetch_scalars::<f64>(&mut client, &info, &rows, chunk)?,
    };
    if let Some(out) = args.get("out") {
        io::write_bytes(out, &raw)?;
        println!(
            "{addr} rows {start}..{}: {} bytes -> {out} (shape {:?}, {} chunks)",
            start + nrows,
            raw.len(),
            info.dims,
            info.n_chunks
        );
    } else {
        println!(
            "{addr} rows {start}..{}: {} bytes (shape {:?}, {} chunks of {} rows)",
            start + nrows,
            raw.len(),
            info.dims,
            info.n_chunks,
            info.chunk_rows
        );
    }
    if args.flag("stats") {
        print_server_stats(&mut client)?;
    }
    Ok(())
}

/// Print the server's counters (the `--stats` flag of `rqm read`).
fn print_server_stats(client: &mut Client) -> Result<(), String> {
    println!("server: {}", client.stats().map_err(|e| e.to_string())?);
    Ok(())
}

/// Fetch a row range of one step of a served dataset as raw
/// little-endian bytes.
fn step_scalars<T: rq_grid::Scalar>(
    client: &mut Client,
    ds: &DatasetInfo,
    step: u64,
    rows: std::ops::Range<usize>,
) -> Result<Vec<u8>, String> {
    let slab = client.read_step_rows::<T>(ds, step, rows).map_err(|e| e.to_string())?;
    let mut raw = Vec::with_capacity(slab.len() * T::BYTES);
    for &v in slab.as_slice() {
        v.write_le(&mut raw);
    }
    Ok(raw)
}

/// Fetch the requested rows/chunk as raw little-endian bytes; returns
/// `(first_row, row_count, bytes)`.
fn fetch_scalars<T: rq_grid::Scalar>(
    client: &mut Client,
    info: &rq_serve::ArchiveInfo,
    rows: &Option<(usize, usize)>,
    chunk: Option<usize>,
) -> Result<(usize, usize, Vec<u8>), String> {
    let (start, slab) = if let Some(idx) = chunk {
        client.read_chunk::<T>(idx).map_err(|e| e.to_string())?
    } else {
        let (start, end) = rows.unwrap_or((0, info.rows()));
        (start, client.read_rows::<T>(start..end).map_err(|e| e.to_string())?)
    };
    let vals = slab.as_slice();
    let mut raw = Vec::with_capacity(vals.len() * T::BYTES);
    for &v in vals {
        v.write_le(&mut raw);
    }
    Ok((start, slab.shape().dim(0), raw))
}

/// Parse `A..B` into `(A, B)`.
fn parse_row_range(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s.split_once("..").ok_or_else(|| format!("--rows wants A..B, got '{s}'"))?;
    let a: usize = a.parse().map_err(|_| format!("bad row '{a}'"))?;
    let b: usize = b.parse().map_err(|_| format!("bad row '{b}'"))?;
    if a >= b {
        return Err(format!("--rows range {a}..{b} is empty"));
    }
    Ok((a, b))
}

/// Exactly `N` positional arguments (including the command) or an error.
fn positional<const N: usize>(args: &Args) -> Result<[String; N], String> {
    if args.positional.len() != N {
        return Err(format!(
            "expected {} positional arguments, got {}",
            N - 1,
            args.positional.len() - 1
        ));
    }
    Ok(std::array::from_fn(|i| args.positional[i].clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_compress::{peek_header, DecompressError};
    use rq_grid::NdArray;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rqm_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_args(v: &[&str]) -> Result<(), String> {
        run(v.iter().map(|s| s.to_string()).collect())
    }

    fn write_field(path: &std::path::Path) -> NdArray<f32> {
        let f = NdArray::<f32>::from_fn(Shape::d2(20, 30), |ix| {
            ((ix[0] as f32) * 0.3).sin() + ix[1] as f32 * 0.05
        });
        io::write_raw_f32(path.to_str().unwrap(), &f).unwrap();
        f
    }

    #[test]
    fn compress_decompress_cycle() {
        let raw = tmp("a.f32");
        let rqc = tmp("a.rqc");
        let back = tmp("a.out.f32");
        let f = write_field(&raw);
        // An unchunked run streams through the writer and writes the
        // one-shot archive, byte for byte.
        for (flag, value, bound) in [
            ("--abs", "1e-3", ErrorBoundMode::Abs(1e-3)),
            ("--rel", "1e-4", ErrorBoundMode::ValueRangeRelative(1e-4)),
        ] {
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                flag,
                value,
            ])
            .unwrap();
            let cfg = CompressorConfig::new(rq_predict::PredictorKind::Interpolation, bound);
            let one_shot = rq_compress::compress(&f, &cfg).unwrap().bytes;
            assert!(io::read_bytes(rqc.to_str().unwrap()).unwrap() == one_shot, "{flag}");
            run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
            let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
            let eb = match bound {
                ErrorBoundMode::ValueRangeRelative(r) => r * f.value_range(),
                _ => 1e-3,
            };
            for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
                assert!(((a - b).abs() as f64) <= eb * 1.001, "{flag}");
            }
        }
    }

    #[test]
    fn parallel_compress_decompress_cycle() {
        let raw = tmp("p.f32");
        let rqc = tmp("p.rqc");
        let back = tmp("p.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--threads",
            "2",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // Every writer emits container v2.4 (version byte 6).
        let h = peek_header(&io::read_bytes(rqc.to_str().unwrap()).unwrap()).unwrap();
        assert_eq!(h.version, 6);
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["info", rqc.to_str().unwrap(), "--json"]).unwrap();
        run_args(&[
            "decompress",
            rqc.to_str().unwrap(),
            back.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        assert!(
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--chunk-size",
                "0",
            ])
            .is_err(),
            "zero chunk size must be rejected"
        );
    }

    #[test]
    fn thread_count_does_not_change_an_auto_chunked_archive() {
        // 64³ is enough values for a chunk count taken from the thread
        // count to show: it would write 4 chunks at one thread, 8 at two.
        let raw = tmp("threads.f32");
        let shape = Shape::d3(64, 64, 64);
        let f = NdArray::<f32>::from_fn(shape, |ix| {
            (ix[0] as f32 * 0.1).sin() * 4.0 + (ix[1] as f32 * 0.07).cos() * 2.0 + ix[2] as f32 * 0.01
        });
        io::write_raw_f32(raw.to_str().unwrap(), &f).unwrap();
        let archives: Vec<Vec<u8>> = ["1", "2"]
            .into_iter()
            .map(|threads| {
                let rqc = tmp(&format!("threads{threads}.rqc"));
                let (input, output) = (raw.to_str().unwrap(), rqc.to_str().unwrap());
                run_args(&[
                    "compress", input, output, "--shape", "64x64x64", "--abs", "1e-3",
                    "--threads", threads,
                ])
                .unwrap();
                io::read_bytes(output).unwrap()
            })
            .collect();
        assert!(archives[0] == archives[1], "--threads 1 and 2 wrote different archives");
        assert_eq!(rq_compress::chunk_count(&archives[0]).unwrap(), 8);
    }

    #[test]
    fn zfp_codec_cycle() {
        let raw = tmp("z.f32");
        let rqz = tmp("z.rqz");
        let back = tmp("z.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqz.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-2",
            "--codec",
            "zfp",
        ])
        .unwrap();
        run_args(&["decompress", rqz.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-2 * 1.001);
        }
    }

    #[test]
    fn rolz_codec_cycle() {
        let raw = tmp("rz.f32");
        let rqc = tmp("rz.rqc");
        let back = tmp("rz.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--codec",
            "rolz",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "rolz codec writes v2.4");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
    }

    #[test]
    fn auto_codec_cycle() {
        let raw = tmp("ac.f32");
        let rqc = tmp("ac.rqc");
        let back = tmp("ac.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--codec",
            "auto",
            "--chunk-size",
            "5",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6, "auto codec writes v2.4");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() <= 1e-3 * 1.001);
        }
        assert!(
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--codec",
                "dct",
            ])
            .is_err(),
            "unknown codec must be rejected"
        );
    }

    #[test]
    fn rel_bound_streams_with_prepass() {
        // --rel on the chunked (streaming) path: the CLI resolves the
        // bound with a min/max pre-pass; the result must match the
        // in-memory pipeline's resolution and hold element-wise.
        let raw = tmp("r.f32");
        let rqc = tmp("r.rqc");
        let back = tmp("r.out.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--rel",
            "1e-3",
            "--chunk-size",
            "7",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        let h = peek_header(&bytes).unwrap();
        let range = f.value_range();
        assert!((h.abs_eb - 1e-3 * range).abs() <= 1e-12 * range);
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(20, 30)).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(g.as_slice()) {
            assert!((a - b).abs() as f64 <= h.abs_eb * 1.001);
        }
    }

    /// Measured PSNR between two equal-length f32 fields (range-based, as
    /// `rq-analysis` defines it; inlined so the CLI crate stays free of a
    /// dev-dependency on the analysis crate).
    fn measured_psnr(a: &NdArray<f32>, b: &NdArray<f32>) -> f64 {
        let range = a.value_range();
        let mse = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(&x, &y)| ((x - y) as f64).powi(2))
            .sum::<f64>()
            / a.len() as f64;
        20.0 * range.log10() - 10.0 * mse.log10()
    }

    /// A field with quiet and loud axis-0 regions, so per-chunk planning
    /// has real heterogeneity to exploit.
    fn write_mixed_field(path: &std::path::Path) -> NdArray<f32> {
        let f = NdArray::<f32>::from_fn(Shape::d2(40, 30), |ix| {
            let base = ((ix[0] as f32) * 0.3).sin() + ix[1] as f32 * 0.05;
            if ix[0] < 20 {
                base * 0.01
            } else {
                let mut h = (ix[0] * 31 + ix[1]) as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51afd7ed558ccd);
                h ^= h >> 33;
                base + ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) as f32 * 4.0
            }
        });
        io::write_raw_f32(path.to_str().unwrap(), &f).unwrap();
        f
    }

    #[test]
    fn target_psnr_cycle_meets_floor() {
        let raw = tmp("tp.f32");
        let rqc = tmp("tp.rqc");
        let back = tmp("tp.out.f32");
        let f = write_mixed_field(&raw);
        let target = 55.0;
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "40x30",
            "--target-psnr",
            "55",
            "--chunk-size",
            "10",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6);
        // The plan must actually vary across the quiet/loud chunks.
        let table = rq_compress::chunk_table(&bytes).unwrap();
        let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
        assert!(ebs.iter().any(|&e| e != ebs[0]), "plan is uniform: {ebs:?}");
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
        run_args(&["info", rqc.to_str().unwrap(), "--json"]).unwrap();
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        let g = io::read_raw_f32(back.to_str().unwrap(), Shape::d2(40, 30)).unwrap();
        let psnr = measured_psnr(&f, &g);
        assert!(psnr >= target, "measured {psnr:.2} dB < floor {target}");
    }

    #[test]
    fn target_size_cycle_fits_budget() {
        let raw = tmp("ts.f32");
        let rqc = tmp("ts.rqc");
        let back = tmp("ts.out.f32");
        write_mixed_field(&raw);
        let budget = 40 * 30 * 4 / 8; // 4 bits/value
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "40x30",
            "--target-size",
            &budget.to_string(),
            "--chunk-size",
            "10",
        ])
        .unwrap();
        let bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        assert_eq!(peek_header(&bytes).unwrap().version, 6);
        assert!(
            bytes.len() <= budget,
            "archive {} B over the {budget} B ceiling",
            bytes.len()
        );
        run_args(&["decompress", rqc.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
    }

    /// A targeted run that fails after writing attempts leaves the world
    /// as it found it: whatever was at the output path survives and no
    /// attempt file stays behind.
    #[test]
    fn failed_target_size_leaves_existing_output_and_no_attempts() {
        let raw = tmp("tf.f32");
        let out = tmp("tf.rqc");
        write_mixed_field(&raw);
        std::fs::write(&out, b"precious").unwrap();
        // Plannable, but this tiny field's per-chunk overhead keeps every
        // attempt over the ceiling (528 B at best).
        let err = run_args(&[
            "compress",
            raw.to_str().unwrap(),
            out.to_str().unwrap(),
            "--shape",
            "40x30",
            "--target-size",
            "500",
            "--chunk-size",
            "10",
        ])
        .unwrap_err();
        assert!(err.contains("invalid configuration"), "got: {err}");
        assert!(err.contains("over the size ceiling of 500 B"), "got: {err}");
        assert_eq!(std::fs::read(&out).unwrap(), b"precious", "output clobbered");
        let siblings: Vec<String> = std::fs::read_dir(out.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("tf.rqc.rqm-"))
            .collect();
        assert!(siblings.is_empty(), "left behind: {siblings:?}");
    }

    #[test]
    fn target_flags_are_mutually_exclusive_and_validated() {
        let raw = tmp("tx.f32");
        write_mixed_field(&raw);
        let r = raw.to_str().unwrap();
        for conflict in [
            vec!["--abs", "1e-3", "--target-psnr", "60"],
            vec!["--rel", "1e-3", "--target-size", "100"],
            vec!["--target-psnr", "60", "--target-size", "100"],
        ] {
            let mut v = vec!["compress", r, "/tmp/never.rqc", "--shape", "40x30"];
            v.extend(conflict.iter());
            assert!(run_args(&v).is_err(), "{conflict:?} must be rejected");
        }
        assert!(
            run_args(&[
                "compress", r, "/tmp/never.rqc", "--shape", "40x30", "--target-size", "0"
            ])
            .is_err(),
            "zero budget must be rejected"
        );
        // An unreachable target surfaces the planner's typed error as
        // InvalidConfig, not a panic or a silently lossier archive.
        let err = run_args(&[
            "compress",
            r,
            "/tmp/never.rqc",
            "--shape",
            "40x30",
            "--target-size",
            "30",
        ])
        .unwrap_err();
        assert!(err.contains("invalid configuration"), "got: {err}");
    }

    #[test]
    fn estimate_and_info_run() {
        let raw = tmp("e.f32");
        let rqc = tmp("e.rqc");
        write_field(&raw);
        run_args(&["estimate", raw.to_str().unwrap(), "--shape", "20x30"]).unwrap();
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--predictor",
            "lorenzo",
        ])
        .unwrap();
        run_args(&["info", rqc.to_str().unwrap()]).unwrap();
    }

    #[test]
    fn estimate_refuses_bad_numbers_without_panicking() {
        let raw = tmp("en.f32");
        write_field(&raw);
        let estimate = |flag: &str, value: &str| {
            run_args(&["estimate", raw.to_str().unwrap(), "--shape", "20x30", flag, value])
        };
        for rate in ["0", "1.5", "nan"] {
            let err = estimate("--rate", rate).unwrap_err();
            assert!(err.contains("--rate") && err.contains("(0, 1]"), "--rate {rate}: {err}");
        }
        for abs in ["0", "-1", "inf"] {
            let err = estimate("--abs", abs).unwrap_err();
            assert!(err.contains("--abs") && err.contains("positive finite"), "--abs {abs}: {err}");
        }
        estimate("--rate", "1").unwrap();
        estimate("--abs", "1e-3").unwrap();
        // A constant field has no range to derive the default bounds from.
        let flat = tmp("en_flat.f32");
        io::write_raw_f32(flat.to_str().unwrap(), &NdArray::<f32>::from_fn(Shape::d1(64), |_| 2.5))
            .unwrap();
        let err = run_args(&["estimate", flat.to_str().unwrap(), "--shape", "64"]).unwrap_err();
        assert!(err.contains("give --abs"), "got: {err}");
        run_args(&["estimate", flat.to_str().unwrap(), "--shape", "64", "--abs", "1e-3"]).unwrap();
    }

    #[test]
    fn failed_decompress_leaves_existing_output_intact() {
        // A corrupt archive must neither clobber an existing output file
        // nor leave a partial one behind.
        let raw = tmp("nc.f32");
        let rqc = tmp("nc.rqc");
        let out = tmp("nc.out.f32");
        write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // Corrupt a blob byte (keep header + trailer parseable so the
        // failure happens mid-decode, after some chunks succeeded).
        let mut bytes = io::read_bytes(rqc.to_str().unwrap()).unwrap();
        let table = rq_compress::chunk_table(&bytes).unwrap();
        let last = table.entries.last().unwrap();
        bytes[last.offset + last.len / 2] ^= 0xff;
        bytes[last.offset + last.len / 2 + 1] ^= 0xff;
        io::write_bytes(rqc.to_str().unwrap(), &bytes).unwrap();
        std::fs::write(&out, b"precious").unwrap();
        let r = run_args(&["decompress", rqc.to_str().unwrap(), out.to_str().unwrap()]);
        if r.is_err() {
            assert_eq!(std::fs::read(&out).unwrap(), b"precious", "output clobbered");
            assert!(
                !std::path::Path::new(&format!("{}.rqm-partial", out.display())).exists(),
                "partial temp file left behind"
            );
        }
        // (A flip inside an entropy payload can decode "successfully" to
        // wrong data — that case is allowed; the guarantee under test is
        // only about the failure path.)
    }

    #[test]
    fn a_bare_rqzf_stream_is_not_a_container() {
        // A ZFP chunk's blob is a whole `RQZF` stream, but no command
        // writes one on its own: `decompress` and `info` read RQMC
        // archives (and point catalogs elsewhere), nothing else.
        let zfp = tmp("bare.zfp");
        let out = tmp("bare.out.f32");
        let _ = std::fs::remove_file(&out);
        let f = NdArray::<f32>::from_fn(Shape::d2(20, 30), |ix| (ix[0] * 30 + ix[1]) as f32);
        let codec = rq_compress::ZfpChunkCodec::new(1e-3);
        let (blob, _) =
            rq_compress::ChunkCodec::<f32>::encode(&codec, f.as_slice(), f.shape()).unwrap();
        assert_eq!(&blob[..4], b"RQZF");
        std::fs::write(&zfp, &blob).unwrap();
        let (zfp, out_s) = (zfp.to_str().unwrap(), out.to_str().unwrap());
        let want = format!("not a compressed container: {}", DecompressError::NotAContainer);
        for args in [&["decompress", zfp, out_s][..], &["info", zfp], &["info", zfp, "--json"]] {
            assert_eq!(run_args(args).unwrap_err(), want, "{args:?}");
        }
        assert!(!out.exists(), "decompress wrote an output");
        assert!(!std::path::Path::new(&format!("{out_s}.rqm-partial")).exists());
    }

    #[test]
    fn error_cases() {
        assert!(run_args(&[]).is_err());
        assert!(run_args(&["frobnicate"]).is_err());
        assert!(run_args(&["compress", "a", "b", "--shape", "4x4"]).is_err(), "no bound");
        assert!(
            run_args(&["compress", "a", "b", "--shape", "4x4", "--abs", "1", "--rel", "1"])
                .is_err(),
            "conflicting bounds"
        );
        assert!(run_args(&["decompress", "/nonexistent/x", "/tmp/y"]).is_err());
        assert!(run_args(&["serve", "/nonexistent/x", "--addr", "127.0.0.1:0"]).is_err());
        assert!(run_args(&["read"]).is_err(), "read requires --addr");
        assert!(
            run_args(&["read", "--addr", "x", "--rows", "5..3"]).is_err(),
            "empty row range"
        );
    }

    #[test]
    fn read_fetches_rows_from_a_served_archive() {
        let raw = tmp("srv.f32");
        let rqc = tmp("srv.rqc");
        let fetched = tmp("srv.rows.f32");
        let f = write_field(&raw);
        run_args(&[
            "compress",
            raw.to_str().unwrap(),
            rqc.to_str().unwrap(),
            "--shape",
            "20x30",
            "--abs",
            "1e-3",
            "--chunk-size",
            "6",
        ])
        .unwrap();
        // `cmd_serve` blocks forever by design; drive `rqm read` against
        // a server owned by the test instead.
        let server =
            Server::bind_path("127.0.0.1:0", &rqc, ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run_args(&[
            "read",
            "--addr",
            &addr,
            "--rows",
            "3..17",
            "--out",
            fetched.to_str().unwrap(),
            "--stats",
        ])
        .unwrap();
        let got = io::read_raw_f32(fetched.to_str().unwrap(), Shape::d2(14, 30)).unwrap();
        for (a, b) in got.as_slice().iter().zip(&f.as_slice()[3 * 30..17 * 30]) {
            assert!((a - b).abs() <= 1e-3 * 1.0001);
        }
        // Whole-field fetch (no --rows/--chunk) and single-chunk fetch.
        run_args(&["read", "--addr", &addr, "--chunk", "1"]).unwrap();
        run_args(&["read", "--addr", &addr]).unwrap();
        assert!(run_args(&["read", "--addr", &addr, "--rows", "0..99"]).is_err());
        server.shutdown();
    }

    /// The acceptance path end to end: `pack` an RTM catalog of 3
    /// datasets × 8 steps, `unpack` it, and check every step of every
    /// dataset against a fresh run of the same seeded simulation.
    #[test]
    fn pack_unpack_roundtrip_meets_bound_on_every_step() {
        let cat = tmp("cat.rqc");
        let outdir = tmp("cat_unpacked");
        let eb = 1e-3f32;
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--steps",
            "8",
            "--shape",
            "12x10x8",
            "--abs",
            "1e-3",
            "--datasets",
            "pressure,vx,vz",
            "--keyframe-every",
            "3",
            "--seed",
            "7",
        ])
        .unwrap();
        run_args(&["catalog", cat.to_str().unwrap()]).unwrap();
        run_args(&["catalog", cat.to_str().unwrap(), "--json"]).unwrap();
        // `info` sniffs the RQCAT magic and prints the same summary.
        run_args(&["info", cat.to_str().unwrap()]).unwrap();
        run_args(&["info", cat.to_str().unwrap(), "--json"]).unwrap();
        run_args(&["unpack", cat.to_str().unwrap(), outdir.to_str().unwrap()]).unwrap();
        for (i, name) in ["pressure", "vx", "vz"].iter().enumerate() {
            let truth = rq_datagen::rtm_steps(
                7u64.wrapping_add((i as u64).wrapping_mul(PACK_SEED_STRIDE)),
                8,
                [12, 10, 8],
            );
            let path = outdir.join(format!("{name}.f32"));
            let got =
                io::read_raw_f32(path.to_str().unwrap(), Shape::d2(8, 12 * 10 * 8)).unwrap();
            for (t, step) in truth.iter().enumerate() {
                let rows = &got.as_slice()[t * step.len()..(t + 1) * step.len()];
                for (&a, &b) in step.as_slice().iter().zip(rows) {
                    assert!(
                        (a - b).abs() <= eb * 1.001,
                        "{name} step {t}: |{a} - {b}| > {eb}"
                    );
                }
            }
        }
        // Single-step single-dataset extraction.
        run_args(&[
            "unpack",
            cat.to_str().unwrap(),
            outdir.to_str().unwrap(),
            "--dataset",
            "vx",
            "--step",
            "5",
        ])
        .unwrap();
        assert!(outdir.join("vx_t5.f32").exists());
        // A catalog is not a single-field archive.
        assert!(
            run_args(&["decompress", cat.to_str().unwrap(), "/tmp/never.f32"]).is_err(),
            "decompress must redirect catalogs to unpack"
        );
    }

    /// `unpack` writes each step as it is read: a corrupt step 2 fails
    /// the command after steps 0 and 1 went to the partial file, and
    /// neither the output nor the `.rqm-partial` is left behind.
    #[test]
    fn unpack_of_a_corrupt_step_leaves_no_file() {
        let cat = tmp("corrupt_step.rqc");
        let outdir = tmp("corrupt_step_unpacked");
        let args = ["pack", cat.to_str().unwrap(), "--steps", "4", "--shape", "8x8x8"];
        run_args(&[&args[..], &["--abs", "1e-3", "--datasets", "p"]].concat()).unwrap();
        let step = CatalogReader::open_path(&cat).unwrap().dataset("p").unwrap().steps[2];
        let mut bytes = std::fs::read(&cat).unwrap();
        // The last byte of the segment's trailer magic.
        bytes[(step.offset + step.len) as usize - 1] ^= 0xff;
        std::fs::write(&cat, &bytes).unwrap();
        let err = run_args(&["unpack", cat.to_str().unwrap(), outdir.to_str().unwrap()])
            .expect_err("a corrupt step must fail the unpack");
        assert!(err.contains("p step 2"), "{err}");
        assert!(!outdir.join("p.f32").exists(), "no output file");
        assert!(!outdir.join("p.f32.rqm-partial").exists(), "no partial file");
    }

    #[test]
    fn pack_from_raw_input_roundtrips() {
        let raw = tmp("pk.f32");
        let cat = tmp("pk.rqc");
        let outdir = tmp("pk_unpacked");
        // 5 steps of a smooth drifting 2-D field, concatenated raw.
        let steps: Vec<NdArray<f32>> = (0..5)
            .map(|t| {
                NdArray::from_fn(Shape::d2(10, 12), |ix| {
                    ((ix[0] as f32) * 0.4 + t as f32 * 0.07).sin() + ix[1] as f32 * 0.03
                })
            })
            .collect();
        let mut bytes = Vec::new();
        for s in &steps {
            for &v in s.as_slice() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        io::write_bytes(raw.to_str().unwrap(), &bytes).unwrap();
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--input",
            raw.to_str().unwrap(),
            "--dataset",
            "wave",
            "--steps",
            "5",
            "--shape",
            "10x12",
            "--abs",
            "1e-4",
            "--keyframe-every",
            "2",
        ])
        .unwrap();
        run_args(&["unpack", cat.to_str().unwrap(), outdir.to_str().unwrap()]).unwrap();
        let got = io::read_raw_f32(
            outdir.join("wave.f32").to_str().unwrap(),
            Shape::d2(5, 120),
        )
        .unwrap();
        for (t, s) in steps.iter().enumerate() {
            for (&a, &b) in s.as_slice().iter().zip(&got.as_slice()[t * 120..(t + 1) * 120]) {
                assert!((a - b).abs() <= 1e-4 * 1.001, "step {t}");
            }
        }
    }

    #[test]
    fn read_list_and_dataset_from_a_served_catalog() {
        let cat = tmp("rsc.rqc");
        let fetched = tmp("rsc.step.f32");
        run_args(&[
            "pack",
            cat.to_str().unwrap(),
            "--steps",
            "4",
            "--shape",
            "10x8x8",
            "--abs",
            "1e-3",
            "--datasets",
            "p,q",
            "--keyframe-every",
            "2",
            "--seed",
            "3",
        ])
        .unwrap();
        let server = Server::bind_path("127.0.0.1:0", &cat, ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run_args(&["read", "--addr", &addr, "--list", "--stats"]).unwrap();
        run_args(&[
            "read",
            "--addr",
            &addr,
            "--dataset",
            "q",
            "--step",
            "3",
            "--rows",
            "2..7",
            "--out",
            fetched.to_str().unwrap(),
        ])
        .unwrap();
        // The served rows must match the local decode of the same step.
        let local = CatalogReader::open_path(cat.to_str().unwrap()).unwrap();
        let step = local.read_step::<f32>("q", 3).unwrap();
        let got = io::read_raw_f32(fetched.to_str().unwrap(), Shape::d2(5, 64)).unwrap();
        for (&a, &b) in got.as_slice().iter().zip(&step.as_slice()[2 * 64..7 * 64]) {
            assert_eq!(a, b, "served bytes differ from the local decode");
        }
        assert!(
            run_args(&["read", "--addr", &addr, "--dataset", "nosuch"]).is_err(),
            "unknown dataset must error"
        );
        assert!(
            run_args(&["read", "--addr", &addr, "--dataset", "q", "--step", "9"]).is_err(),
            "out-of-range step must error"
        );
        server.shutdown();
    }

    #[test]
    fn pack_error_cases() {
        let cat = "/tmp/never_pack.rqc";
        // Zero steps, zero cadence, non-3D RTM shape, sub-8 RTM extents,
        // missing bound.
        assert!(run_args(&["pack", cat, "--steps", "0", "--shape", "8x8x8", "--abs", "1e-3"])
            .is_err());
        assert!(run_args(&[
            "pack", cat, "--steps", "4", "--shape", "8x8x8", "--abs", "1e-3",
            "--keyframe-every", "0"
        ])
        .is_err());
        assert!(
            run_args(&["pack", cat, "--steps", "4", "--shape", "8x8", "--abs", "1e-3"]).is_err(),
            "RTM needs 3-D"
        );
        assert!(
            run_args(&["pack", cat, "--steps", "4", "--shape", "8x8x4", "--abs", "1e-3"])
                .is_err(),
            "RTM needs extents >= 8"
        );
        assert!(run_args(&["pack", cat, "--steps", "4", "--shape", "8x8x8"]).is_err());
        assert!(
            !std::path::Path::new(cat).exists() && !std::path::Path::new(&format!("{cat}.rqm-partial")).exists(),
            "failed pack left files behind"
        );
        assert!(run_args(&["unpack", "/nonexistent/x.rqc", "/tmp/never_out"]).is_err());
        assert!(run_args(&["catalog", "/nonexistent/x.rqc"]).is_err());
    }

    /// Strict minimal JSON value parser: returns the rest of the input on
    /// success. Rejects `NaN`/`inf` tokens (JSON has no such literals),
    /// which is the whole point — the hand-rolled writers must never emit
    /// them.
    fn json_value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        let mut c = s.chars();
        match c.next().ok_or("unexpected end of input")? {
            '{' => {
                let mut s = s[1..].trim_start();
                if let Some(rest) = s.strip_prefix('}') {
                    return Ok(rest);
                }
                loop {
                    s = s.trim_start();
                    if !s.starts_with('"') {
                        return Err(format!("expected object key at {:?}", &s[..s.len().min(20)]));
                    }
                    s = json_value(s)?.trim_start();
                    s = s.strip_prefix(':').ok_or("expected ':'")?;
                    s = json_value(s)?.trim_start();
                    if let Some(rest) = s.strip_prefix(',') {
                        s = rest;
                    } else {
                        return s.strip_prefix('}').ok_or_else(|| "expected '}'".into());
                    }
                }
            }
            '[' => {
                let mut s = s[1..].trim_start();
                if let Some(rest) = s.strip_prefix(']') {
                    return Ok(rest);
                }
                loop {
                    s = json_value(s)?.trim_start();
                    if let Some(rest) = s.strip_prefix(',') {
                        s = rest;
                    } else {
                        return s.strip_prefix(']').ok_or_else(|| "expected ']'".into());
                    }
                }
            }
            '"' => {
                let mut rest = &s[1..];
                loop {
                    let i = rest.find('"').ok_or("unterminated string")?;
                    // Count the backslashes immediately before the quote.
                    let esc = rest[..i].chars().rev().take_while(|&c| c == '\\').count();
                    if esc % 2 == 0 {
                        return Ok(&rest[i + 1..]);
                    }
                    rest = &rest[i + 1..];
                }
            }
            't' => s.strip_prefix("true").ok_or_else(|| "bad literal".into()),
            'f' => s.strip_prefix("false").ok_or_else(|| "bad literal".into()),
            'n' => s.strip_prefix("null").ok_or_else(|| "bad literal".into()),
            '-' | '0'..='9' => {
                let end = s
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(s.len());
                s[..end]
                    .parse::<f64>()
                    .map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
                Ok(&s[end..])
            }
            other => Err(format!("unexpected character {other:?}")),
        }
    }

    /// Parse a complete JSON document; panic with context on failure.
    fn assert_valid_json(doc: &str) {
        let rest = json_value(doc).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{doc}"));
        assert!(rest.trim().is_empty(), "trailing garbage after JSON value: {rest:?}");
    }

    #[test]
    fn info_json_is_valid_for_real_archives() {
        let raw = tmp("ij.f32");
        let rqc = tmp("ij.rqc");
        write_field(&raw);
        for codec in ["sz", "zfp", "rolz", "auto"] {
            run_args(&[
                "compress",
                raw.to_str().unwrap(),
                rqc.to_str().unwrap(),
                "--shape",
                "20x30",
                "--abs",
                "1e-3",
                "--codec",
                codec,
                "--chunk-size",
                "7",
            ])
            .unwrap();
            let reader = ArchiveReader::open_path(rqc.to_str().unwrap()).unwrap();
            let total = std::fs::metadata(&rqc).unwrap().len();
            let table = reader.chunk_table();
            let doc = info_json_string(rqc.to_str().unwrap(), total, reader.header(), &table).unwrap();
            assert_valid_json(&doc);
            if codec == "rolz" {
                assert!(doc.contains("\"codec\": \"rolz\""), "rolz tag missing:\n{doc}");
                assert!(doc.contains("\"generation\": \"2.4\""), "v2.4 generation missing:\n{doc}");
            }
        }
    }

    /// The header parser leaves the scalar tag unchecked; `info` must
    /// name the scalar it finds, not guess one.
    #[test]
    fn info_refuses_an_unknown_scalar_tag() {
        let raw = tmp("ut.f32");
        let rqc = tmp("ut.rqc");
        write_field(&raw);
        let (raw, rqc) = (raw.to_str().unwrap(), rqc.to_str().unwrap());
        run_args(&["compress", raw, rqc, "--shape", "20x30", "--abs", "1e-3"]).unwrap();
        run_args(&["info", rqc]).unwrap();
        let mut bytes = std::fs::read(rqc).unwrap();
        bytes[5] = 0x07;
        std::fs::write(rqc, &bytes).unwrap();
        for args in [&["info", rqc][..], &["info", rqc, "--json"]] {
            assert_eq!(run_args(args).unwrap_err(), "unsupported scalar tag 0x07", "{args:?}");
        }
    }

    #[test]
    fn info_json_maps_non_finite_floats_to_null() {
        // A hand-built header/table with poisoned floats: the document
        // must still parse, with `null` standing in for every bad value.
        let h = Header {
            version: 6,
            scalar_tag: 0x04,
            predictor: rq_predict::PredictorKind::Lorenzo,
            lossless: rq_compress::LosslessStage::None,
            log_transform: false,
            shape: Shape::d2(4, 4),
            abs_eb: f64::NAN,
            radius: 512,
        };
        let table = rq_compress::ChunkTable {
            chunk_rows: 4,
            entries: vec![rq_compress::ChunkEntry {
                start_row: 0,
                rows: 4,
                offset: 32,
                len: 10,
                codec: ChunkCodecKind::Rolz,
                eb: f64::INFINITY,
            }],
        };
        let doc = info_json_string("x\"y.rqc", 42, &h, &table).unwrap();
        assert_valid_json(&doc);
        assert!(doc.contains("\"abs_bound\": null"), "NaN bound not null:\n{doc}");
        assert!(doc.contains("\"eb\": null"), "infinite eb not null:\n{doc}");
    }
}
