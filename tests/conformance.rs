//! Error-bound conformance suite.
//!
//! The single contract every configuration of this compressor makes is
//! `max|x − x′| ≤ eb` after a round trip. This suite sweeps the full
//! configuration cross product — codec (sz, zfp, rolz, auto) × error-bound
//! mode (absolute, value-range-relative, point-wise relative) × three
//! datagen stand-in fields × chunk counts (1 and N) — and asserts the
//! bound on every element. Runs as part of `cargo test`; CI runs it in
//! both debug and release profiles.
//!
//! A second, property-style family covers the random-access contract of
//! the streaming reader: for every container generation (v1 through v2.4)
//! and both scalar types, `ArchiveReader::read_rows(r)` must equal
//! the matching rows of a full `decompress` *exactly* for randomly drawn
//! row ranges, while decoding only the chunks that intersect `r`.
//!
//! Fields are cropped from the datagen generators so the whole matrix
//! stays fast enough for debug CI while keeping each generator's
//! statistical character.

use rqm::compress_crate::{ArchiveWriter, DecompressError};
use rqm::prelude::*;
use std::io::Cursor;

/// The three datagen stand-ins (cropped), chosen for diversity: smooth 2D
/// climate, vortex + turbulence 3D, heavy-tailed log-normal 3D.
fn fields() -> Vec<(&'static str, NdArray<f32>)> {
    vec![
        (
            "cesm_ts",
            rqm::datagen::fields::cesm_ts().extract_block(&[0, 0], &[48, 96]),
        ),
        (
            "hurricane_u",
            rqm::datagen::fields::hurricane_u().extract_block(&[0, 40, 40], &[20, 32, 32]),
        ),
        (
            "nyx_dark_matter",
            rqm::datagen::fields::nyx_dark_matter().extract_block(&[0, 0, 0], &[24, 24, 24]),
        ),
    ]
}

/// Chunkings for "1 chunk" and "N chunks" (N > 1 for every test field).
fn chunkings(d0: usize) -> [usize; 2] {
    [d0, (d0 / 3).max(1)]
}

fn max_abs_err(orig: &NdArray<f32>, recon: &NdArray<f32>) -> f64 {
    orig.as_slice()
        .iter()
        .zip(recon.as_slice())
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .fold(0.0, f64::max)
}

/// One conformance case: compress, decompress, assert the absolute bound.
fn assert_conforms(
    name: &str,
    field: &NdArray<f32>,
    codec: CodecChoice,
    bound: ErrorBoundMode,
    chunk_rows: usize,
) {
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, bound)
        .chunked(chunk_rows)
        .with_codec(codec)
        .with_threads(2);
    let out = compress(field, &cfg)
        .unwrap_or_else(|e| panic!("{name}: compress failed for {codec:?}/{bound:?}: {e}"));
    let back = decompress::<f32>(&out.bytes)
        .unwrap_or_else(|e| panic!("{name}: decompress failed for {codec:?}/{bound:?}: {e}"));
    let abs_eb = bound.absolute(field.value_range());
    let err = max_abs_err(field, &back);
    assert!(
        err <= abs_eb * (1.0 + 1e-6),
        "{name} {codec:?} {bound:?} rows={chunk_rows}: max err {err:.6e} > eb {abs_eb:.6e}"
    );
}

#[test]
fn absolute_bound_all_codecs_all_fields() {
    for (name, field) in &fields() {
        let eb = field.value_range() * 1e-3;
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(field.shape().dim(0)) {
                assert_conforms(name, field, codec, ErrorBoundMode::Abs(eb), rows);
            }
        }
    }
}

#[test]
fn value_range_relative_bound_all_codecs_all_fields() {
    for (name, field) in &fields() {
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(field.shape().dim(0)) {
                assert_conforms(
                    name,
                    field,
                    codec,
                    ErrorBoundMode::ValueRangeRelative(1e-4),
                    rows,
                );
            }
        }
    }
}

#[test]
fn pointwise_relative_bound_sz_and_auto() {
    // The transform codec cannot realize the log-domain trick; `auto`
    // must fall back to sz chunks, and pure `zfp` must refuse (checked in
    // the next test). Point-wise relative data must be positive-friendly,
    // so shift each field above zero.
    let ratio = 1e-3;
    for (name, field) in &fields() {
        let (lo, _) = field.min_max();
        let shift = (1.0 - lo).max(0.0) as f32;
        let shifted = NdArray::from_vec(
            field.shape(),
            field.as_slice().iter().map(|&v| v + shift).collect(),
        );
        for codec in [CodecChoice::Sz, CodecChoice::Rolz, CodecChoice::Auto] {
            for rows in chunkings(shifted.shape().dim(0)) {
                let cfg = CompressorConfig::new(
                    PredictorKind::Lorenzo,
                    ErrorBoundMode::PointwiseRelative(ratio),
                )
                .chunked(rows)
                .with_codec(codec)
                .with_threads(2);
                let out = compress(&shifted, &cfg).unwrap();
                let back = decompress::<f32>(&out.bytes).unwrap();
                for (i, (&a, &b)) in
                    shifted.as_slice().iter().zip(back.as_slice()).enumerate()
                {
                    if a <= 0.0 {
                        assert_eq!(a, b, "{name}: non-positive values must be exact");
                    } else {
                        let rel = ((a - b).abs() as f64) / (a.abs() as f64);
                        assert!(
                            rel <= ratio * (1.0 + 1e-5),
                            "{name} {codec:?} rows={rows} element {i}: rel err {rel:.3e}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pointwise_relative_bound_zfp_refuses() {
    let field = rqm::datagen::fields::cesm_ts().extract_block(&[0, 0], &[16, 32]);
    let cfg = CompressorConfig::new(
        PredictorKind::Lorenzo,
        ErrorBoundMode::PointwiseRelative(1e-3),
    )
    .chunked(4)
    .with_codec(CodecChoice::Zfp);
    assert!(
        compress(&field, &cfg).is_err(),
        "zfp codec must refuse point-wise relative bounds rather than miss them"
    );
}

#[test]
fn conformance_across_predictors_auto_codec() {
    // The scheduler's sz estimates are predictor-aware; whatever it
    // picks, the bound must hold for every predictor family.
    let field = rqm::datagen::fields::hurricane_u().extract_block(&[0, 48, 48], &[12, 24, 24]);
    let eb = field.value_range() * 1e-4;
    for pred in PredictorKind::all() {
        let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb))
            .chunked(4)
            .with_codec(CodecChoice::Auto)
            .with_threads(2);
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let err = max_abs_err(&field, &back);
        assert!(
            err <= eb * (1.0 + 1e-6),
            "{}: max err {err:.6e} > eb {eb:.6e}",
            pred.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Random-access region reads: ArchiveReader::read_rows vs full decompress
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* stream for drawing row ranges.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A deterministic mixed-texture field of any scalar type: smooth waves
/// plus hash noise, so sz and zfp both appear under `CodecChoice::Auto`.
/// Frozen: the `golden_f64_*.rqc` fixtures encode `textured::<f64>` of
/// shape 16×6×5 verbatim.
fn textured<T: rqm::grid::Scalar>(shape: Shape) -> NdArray<T> {
    let mut lin = 0u64;
    NdArray::from_fn(shape, |ix| {
        let mut v = 0.0f64;
        for (a, &c) in ix.iter().enumerate() {
            v += ((c as f64) * 0.21 * (a + 1) as f64).sin() * (6.0 / (a + 1) as f64);
        }
        lin += 1;
        let mut h = lin;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        // Rough second half along axis 0, like the mixed datagen field.
        let amp = if ix[0] * 2 >= 16 { 30.0 } else { 0.02 };
        v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * amp;
        T::from_f64(v)
    })
}

/// Archives of `field` from every live writer path (all generation
/// v2.4): one-shot serial and chunked, each fixed codec, the streaming
/// session with slabs misaligned with chunks, a planned session, and the
/// adaptive policy.
fn live_archives<T: rqm::grid::Scalar>(field: &NdArray<T>, eb: f64) -> Vec<(&'static str, Vec<u8>)> {
    let serial = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
    let chunked = serial.chunked(5).with_threads(2);
    let zfp = chunked.with_codec(CodecChoice::Zfp);
    let one_shot = |cfg: &CompressorConfig| rqm::compress_crate::compress(field, cfg).unwrap().bytes;
    let mut w = ArchiveWriter::<T, Vec<u8>>::create(Vec::new(), field.shape(), &zfp).unwrap();
    let row_elems: usize = field.shape().dims()[1..].iter().product::<usize>().max(1);
    let d0 = field.shape().dim(0);
    let mut row = 0usize;
    while row < d0 {
        let rows = 7.min(d0 - row);
        let slab = NdArray::from_vec(
            field.shape().with_rows(rows),
            field.as_slice()[row * row_elems..(row + rows) * row_elems].to_vec(),
        );
        w.write_slab(&slab).unwrap();
        row += rows;
    }
    let streamed = w.finalize().unwrap().sink;
    // Planned per-chunk bounds (alternating tight/loose around eb).
    let plan: Vec<f64> =
        (0..d0.div_ceil(5)).map(|i| if i % 2 == 0 { eb } else { eb / 2.0 }).collect();
    let mut w =
        ArchiveWriter::<T, Vec<u8>>::create_planned(Vec::new(), field.shape(), &zfp, plan)
            .unwrap();
    w.write_slab(field).unwrap();
    let planned = w.finalize().unwrap().sink;
    let archives = vec![
        ("serial-sz", one_shot(&serial)),
        ("sz", one_shot(&chunked)),
        ("zfp", one_shot(&zfp)),
        ("zfp-streamed", streamed),
        ("zfp-planned", planned),
        ("auto", one_shot(&chunked.with_codec(CodecChoice::Auto))),
        ("rolz", one_shot(&chunked.with_codec(CodecChoice::Rolz))),
    ];
    for (name, bytes) in &archives {
        assert_eq!(rqm::compress_crate::peek_header(bytes).unwrap().version, 6, "{name}");
    }
    archives
}

/// The property itself for one archive, generic over the scalar type.
fn assert_read_rows_matches_decompress<T: rqm::grid::Scalar + PartialEq>(
    name: &str,
    bytes: &[u8],
    rng: &mut Rng,
) {
    let full = rqm::compress_crate::decompress::<T>(bytes).unwrap();
    let reader = rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes)).unwrap();
    let table = reader.chunk_table();
    let shape = reader.header().shape;
    let row_elems: usize = shape.dims()[1..].iter().product::<usize>().max(1);
    for case in 0..25 {
        let start = rng.below(shape.dim(0));
        let end = start + 1 + rng.below(shape.dim(0) - start);
        let before = reader.stats().chunks_decoded;
        let part = reader.read_rows::<T>(start..end).unwrap();
        assert_eq!(part.shape().dims()[0], end - start, "{name} case {case}");
        assert!(
            part.as_slice() == &full.as_slice()[start * row_elems..end * row_elems],
            "{name} case {case}: rows {start}..{end} diverged from full decompress"
        );
        // Only intersecting chunks may have been decoded.
        let intersecting = table
            .entries
            .iter()
            .filter(|e| e.start_row < end && e.start_row + e.rows > start)
            .count();
        assert_eq!(
            (reader.stats().chunks_decoded - before) as usize,
            intersecting,
            "{name} case {case}: rows {start}..{end} decoded the wrong chunk set"
        );
    }
    // Degenerate requests error cleanly.
    assert!(matches!(
        reader.read_rows::<T>(0..shape.dim(0) + 1),
        Err(DecompressError::RowsOutOfRange { .. })
    ));
    assert!(matches!(
        reader.read_rows::<T>(2..2),
        Err(DecompressError::RowsOutOfRange { .. })
    ));
}

/// Generation 6 from every live writer path, for scalar type `T`.
fn assert_read_rows_matches_decompress_live<T: rqm::grid::Scalar + PartialEq>(rng: &mut Rng) {
    let field = textured::<T>(Shape::d3(16, 6, 5));
    for (name, bytes) in live_archives(&field, 1e-3) {
        assert_read_rows_matches_decompress::<T>(name, &bytes, rng);
    }
}

/// The segments of one dataset of the catalog fixture: ordinary v2.2
/// archives (the only committed f64 archives of an old generation).
fn cat1_segments(dataset: &str, steps: usize) -> Vec<Vec<u8>> {
    let bytes = include_bytes!("data/golden_cat1.rqc");
    let cat = CatalogReader::open(Cursor::new(&bytes[..])).unwrap();
    (0..steps).map(|t| cat.read_segment(dataset, t).unwrap()).collect()
}

#[test]
fn planned_per_chunk_bounds_conform_chunkwise() {
    // Quality-targeted archives make a *stronger* promise than the global
    // bound: every chunk honors its own planned bound. Sweep the datagen
    // fields with a heterogeneous plan and assert the per-chunk max
    // error, codec by codec.
    for (name, field) in fields() {
        let d0 = field.shape().dim(0);
        let chunk_rows = (d0 / 3).max(1);
        let n_chunks = d0.div_ceil(chunk_rows);
        let r = field.value_range();
        let plan: Vec<f64> = (0..n_chunks)
            .map(|i| r * if i % 2 == 0 { 1e-3 } else { 2e-5 })
            .collect();
        for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
                .chunked(chunk_rows)
                .with_codec(codec)
                .with_threads(2);
            let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                field.shape(),
                &cfg,
                plan.clone(),
            )
            .unwrap();
            w.write_slab(&field).unwrap();
            let bytes = w.finalize().unwrap().sink;
            let back = rqm::compress_crate::decompress::<f32>(&bytes).unwrap();
            let row_elems: usize =
                field.shape().dims()[1..].iter().product::<usize>().max(1);
            for (entry, &eb) in
                rqm::compress_crate::chunk_table(&bytes).unwrap().entries.iter().zip(&plan)
            {
                let lo = entry.start_row * row_elems;
                let hi = (entry.start_row + entry.rows) * row_elems;
                let worst = field.as_slice()[lo..hi]
                    .iter()
                    .zip(&back.as_slice()[lo..hi])
                    .map(|(&a, &b)| (a as f64 - b as f64).abs())
                    .fold(0.0, f64::max);
                assert!(
                    worst <= eb * (1.0 + 1e-6),
                    "{name} {codec:?} rows {}..{}: max err {worst:.3e} > chunk bound {eb:.3e}",
                    entry.start_row,
                    entry.start_row + entry.rows
                );
            }
        }
    }
}

#[test]
fn read_rows_matches_decompress_f32_all_generations() {
    // Generations 1–5 from the committed fixtures (no writer emits them
    // any more), generation 6 from the fixture and every live writer path.
    let mut rng = Rng(0x5EED_1001);
    let fixtures: [(&str, &[u8]); 6] = [
        ("golden v1", include_bytes!("data/golden_v1.rqc")),
        ("golden v2", include_bytes!("data/golden_v2.rqc")),
        ("golden v2.1", include_bytes!("data/golden_v21.rqc")),
        ("golden v2.2", include_bytes!("data/golden_v22.rqc")),
        ("golden v2.3", include_bytes!("data/golden_v23.rqc")),
        ("golden v2.4", include_bytes!("data/golden_v24.rqc")),
    ];
    for (name, bytes) in fixtures {
        assert_read_rows_matches_decompress::<f32>(name, bytes, &mut rng);
    }
    for seg in cat1_segments("wave", 5) {
        assert_read_rows_matches_decompress::<f32>("golden cat1 wave", &seg, &mut rng);
    }
    assert_read_rows_matches_decompress_live::<f32>(&mut rng);
}

/// The f64 archives of the read-only generations: `textured::<f64>` of
/// shape 16×6×5 under Lorenzo, absolute bound 1e-3 and 5-row chunks,
/// written by the last commit that still had their writers (v1 one-shot
/// serial, also under a point-wise relative bound of 1e-3; v2 one-shot
/// chunked sz; v2.1 one-shot chunked zfp; v2.2 zfp streamed in 7-row
/// slabs; v2.3 sz under [`F64_V23_PLAN`]). Frozen — no current writer can
/// regenerate them.
fn f64_fixtures() -> [(&'static str, u8, &'static [u8]); 6] {
    [
        ("golden f64 v1", 1, include_bytes!("data/golden_f64_v1.rqc")),
        ("golden f64 v1 pwrel", 1, include_bytes!("data/golden_f64_v1_pwrel.rqc")),
        ("golden f64 v2", 2, include_bytes!("data/golden_f64_v2.rqc")),
        ("golden f64 v2.1", 3, include_bytes!("data/golden_f64_v21.rqc")),
        ("golden f64 v2.2", 4, include_bytes!("data/golden_f64_v22.rqc")),
        ("golden f64 v2.3", 5, include_bytes!("data/golden_f64_v23.rqc")),
    ]
}

/// The per-chunk plan baked into `golden_f64_v23.rqc`.
const F64_V23_PLAN: [f64; 4] = [1e-3, 5e-4, 1e-3, 5e-4];

#[test]
fn golden_f64_fixtures_backward_compat() {
    use rqm::compress_crate::{chunk_table, decompress, decompress_chunk, peek_header};
    let field = textured::<f64>(Shape::d3(16, 6, 5));
    let row_elems = 6 * 5;
    for (name, version, bytes) in f64_fixtures() {
        let header = peek_header(bytes).unwrap();
        assert_eq!(header.version, version, "{name}");
        assert_eq!(header.shape.dims(), &[16, 6, 5], "{name}");
        let table = chunk_table(bytes).unwrap();
        let rows: Vec<usize> = table.entries.iter().map(|e| e.rows).collect();
        assert_eq!(rows, if version == 1 { vec![16] } else { vec![5, 5, 5, 1] }, "{name}");
        let zfp = matches!(version, 3 | 4);
        for (i, e) in table.entries.iter().enumerate() {
            let tag = if zfp { ChunkCodecKind::Zfp } else { ChunkCodecKind::Sz };
            assert_eq!(e.codec, tag, "{name} chunk {i}");
            if !header.log_transform {
                let eb = if version == 5 { F64_V23_PLAN[i] } else { 1e-3 };
                assert_eq!(e.eb, eb, "{name} chunk {i}");
            }
        }
        assert_eq!(header.log_transform, name.ends_with("pwrel"), "{name}");

        // Every element within its chunk's bound of the original field.
        let back = decompress::<f64>(bytes).unwrap();
        for e in &table.entries {
            let span = e.start_row * row_elems..(e.start_row + e.rows) * row_elems;
            for (&a, &b) in field.as_slice()[span.clone()].iter().zip(&back.as_slice()[span]) {
                if !header.log_transform {
                    assert!((a - b).abs() <= e.eb * (1.0 + 1e-9), "{name}: |{a} - {b}| > {}", e.eb);
                } else if a <= 0.0 {
                    assert_eq!(a, b, "{name}: non-positive values are stored exactly");
                } else {
                    assert!((a - b).abs() <= 1e-3 * a * (1.0 + 1e-9), "{name}: {a} vs {b}");
                }
            }
        }

        // Random access and the session reader, serial and pooled, agree
        // with the full decode bit for bit.
        for i in 0..table.entries.len() {
            let (start_row, slab) = decompress_chunk::<f64>(bytes, i).unwrap();
            let lo = start_row * row_elems;
            assert!(slab.as_slice() == &back.as_slice()[lo..lo + slab.len()], "{name} chunk {i}");
        }
        for threads in [1usize, 2, 8] {
            let reader = rqm::compress_crate::ArchiveReader::open(Cursor::new(bytes))
                .unwrap()
                .with_threads_exact(threads);
            assert_eq!(reader.entries(), &table.entries[..], "{name}");
            assert!(
                reader.read_all::<f64>().unwrap().as_slice() == back.as_slice(),
                "{name} threads={threads}"
            );
        }
    }
}

#[test]
fn read_rows_matches_decompress_f64_all_generations() {
    // Generations 1–5 from the committed f64 fixtures (and the catalog
    // fixture's `energy` segments, v2.2 archives too), generation 6 from
    // every live writer path.
    let mut rng = Rng(0x5EED_1002);
    for (name, _version, bytes) in f64_fixtures() {
        assert_read_rows_matches_decompress::<f64>(name, bytes, &mut rng);
    }
    for seg in cat1_segments("energy", 3) {
        assert_eq!(rqm::compress_crate::peek_header(&seg).unwrap().version, 4);
        assert_read_rows_matches_decompress::<f64>("golden cat1 energy", &seg, &mut rng);
    }
    assert_read_rows_matches_decompress_live::<f64>(&mut rng);
}

#[test]
fn conformance_f64_chunked_all_codecs() {
    // The original sweep is f32-only; cover f64 through the same
    // contract for both fixed codecs and the scheduler.
    let field = textured::<f64>(Shape::d3(18, 8, 6));
    let eb = 1e-5;
    for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz, CodecChoice::Auto] {
        for rows in [18, 5] {
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
                .chunked(rows)
                .with_codec(codec)
                .with_threads(2);
            let out = rqm::compress_crate::compress(&field, &cfg).unwrap();
            let back = rqm::compress_crate::decompress::<f64>(&out.bytes).unwrap();
            for (i, (&a, &b)) in field.as_slice().iter().zip(back.as_slice()).enumerate() {
                assert!(
                    (a - b).abs() <= eb * (1.0 + 1e-9),
                    "{codec:?} rows={rows} element {i}: |{a} - {b}| > {eb}"
                );
            }
        }
    }
}

/// `auto` against the three fixed backends on one field, in 8-row chunks
/// over the bound grid 1e-6 … 1e-3 × range. Asserts per bound that `auto`
/// stays inside the bound and tracks the best fixed backend to within the
/// per-chunk index overhead; returns the summed bits/value of `auto` and
/// of fixed (sz, zfp, rolz), and per bound the chunks each backend won.
fn auto_against_fixed_backends(
    name: &str,
    field: &NdArray<f32>,
) -> (f64, [f64; 3], Vec<(usize, usize, usize)>) {
    let range = field.value_range();
    let fixed = [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Rolz];
    let (mut auto_total, mut fixed_total) = (0.0, [0.0f64; 3]);
    let mut splits = Vec::new();
    for i in 0..5 {
        let eb = range * 10f64.powf(-6.0 + 0.75 * i as f64);
        let base = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .chunked(8)
            .with_threads(2);
        let bits = fixed.map(|c| compress(field, &base.with_codec(c)).unwrap().bit_rate());
        let (auto, rep) =
            compress_with_report(field, &base.with_codec(CodecChoice::Auto)).unwrap();
        let err = max_abs_err(field, &decompress::<f32>(&auto.bytes).unwrap());
        assert!(err <= eb * (1.0 + 1e-6), "{name} eb {eb:.3e}: max err {err:.6e}");

        let won = |k| rep.chunk_codecs.iter().filter(|&&c| c == k).count();
        let split = (won(ChunkCodecKind::Sz), won(ChunkCodecKind::Zfp), won(ChunkCodecKind::Rolz));
        let best = bits.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            auto.bit_rate() <= best * 1.05,
            "{name} eb {eb:.3e}: auto {:.3} bits/value vs fixed sz/zfp/rolz {bits:.3?}, \
             chunks {split:?}",
            auto.bit_rate()
        );
        splits.push(split);
        auto_total += auto.bit_rate();
        for (t, b) in fixed_total.iter_mut().zip(bits) {
            *t += b;
        }
    }
    (auto_total, fixed_total, splits)
}

#[test]
fn auto_codec_selects_different_codecs_on_mixed_field() {
    // The smooth/turbulent field per-chunk selection exists for: over the
    // whole grid `auto` pays for its trailer — fewer total bits than
    // *each* fixed backend (rates share one denominator, the raw field,
    // so summed rates compare total bytes) — and every backend wins a
    // chunk somewhere. Measured total bits/value: auto 54.084 vs sz
    // 67.362 / zfp 62.449 / rolz 62.032; chunks 24/8/8.
    let mixed = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(64, 48, 48), 32, 40.0);
    let (auto_total, fixed_total, splits) = auto_against_fixed_backends("mixed", &mixed);
    assert!(
        fixed_total.iter().all(|&t| auto_total <= t),
        "auto {auto_total:.3} total bits/value vs fixed sz/zfp/rolz {fixed_total:.3?}; \
         chunks (sz, zfp, rolz) per bound {splits:?}"
    );
    let wins = splits.iter().fold((0, 0, 0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2));
    assert!(
        wins.0 > 0 && wins.1 > 0 && wins.2 > 0,
        "a backend never won a chunk: (sz, zfp, rolz) per bound {splits:?}"
    );

    // Where one backend suits the whole field, choosing it per chunk must
    // cost no more than the index.
    auto_against_fixed_backends("hurricane_u", &rqm::datagen::fields::hurricane_u());
    auto_against_fixed_backends("cesm_ts", &rqm::datagen::fields::cesm_ts());
}
