//! Cross-crate round-trip tests: generator → compressor → container →
//! reader → analysis, for every predictor and several catalog stand-ins.

use rqm::prelude::*;

fn check_bound(orig: &NdArray<f32>, recon: &NdArray<f32>, eb: f64) {
    for (i, (&a, &b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
        assert!(
            ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
            "element {i}: |{a} - {b}| > {eb}"
        );
    }
}

#[test]
fn every_predictor_roundtrips_qmcpack() {
    let field = rqm::datagen::fields::qmcpack_einspline();
    let eb = field.value_range() * 1e-4;
    for kind in PredictorKind::all() {
        let cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        check_bound(&field, &back, eb);
        assert!(out.ratio() > 1.5, "{}: ratio {:.2}", kind.name(), out.ratio());
    }
}

#[test]
fn rtm_snapshot_compresses_well() {
    // Wavefields are smooth: expect strong ratios at a modest bound.
    let field = rqm::datagen::fields::rtm_snapshot(200);
    let eb = field.value_range() * 1e-3;
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb));
    let out = compress(&field, &cfg).unwrap();
    assert!(out.ratio() > 10.0, "ratio {:.1}", out.ratio());
    let back = decompress::<f32>(&out.bytes).unwrap();
    check_bound(&field, &back, eb);
    assert!(psnr(&field, &back) > 55.0);
}

#[test]
fn container_pipeline_preserves_analysis_quality() {
    let field = rqm::datagen::fields::rtm_snapshot(150);
    let eb = field.value_range() * 1e-4;
    let cfg =
        CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb)).chunked(16);

    let bytes = compress(&field, &cfg).unwrap().bytes;
    assert!(bytes.len() < field.len() * 4);

    let back = decompress::<f32>(&bytes).unwrap();
    check_bound(&field, &back, eb);
    assert!(global_ssim(&field, &back) > 0.999);
}

#[test]
fn brown_1d_matches_paper_expectations() {
    // Brownian data is the classic SZ-friendly workload: Lorenzo order 1
    // turns it into iid increments.
    let field = rqm::datagen::fields::brown_pressure();
    let eb = field.value_range() * 1e-3;
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
    let (out, rep) = compress_with_report(&field, &cfg).unwrap();
    assert!(out.ratio() > 8.0, "ratio {:.1}", out.ratio());
    assert!(rep.p0() > 0.5, "p0 {:.2}", rep.p0());
    let back = decompress::<f32>(&out.bytes).unwrap();
    check_bound(&field, &back, eb);
}

#[test]
fn exafel_4d_roundtrips() {
    let field = rqm::datagen::fields::exafel_raw();
    let eb = 1.0; // detector counts; absolute bound of 1 ADU
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
    let out = compress(&field, &cfg).unwrap();
    let back = decompress::<f32>(&out.bytes).unwrap();
    check_bound(&field, &back, eb);
}

// ---------------------------------------------------------------------------
// Chunk-parallel pipeline
// ---------------------------------------------------------------------------

#[test]
fn chunked_roundtrip_matches_serial_at_1_2_n_chunks() {
    // chunks = 1 must reproduce the serial reconstruction exactly; more
    // chunks must stay within the bound.
    let field = rqm::datagen::fields::rtm_snapshot(120);
    let eb = field.value_range() * 1e-4;
    let d0 = field.shape().dim(0);
    for kind in PredictorKind::all() {
        let serial_cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(eb));
        let serial = decompress::<f32>(&compress(&field, &serial_cfg).unwrap().bytes).unwrap();
        for n_chunks in [1usize, 2, 7] {
            let rows = d0.div_ceil(n_chunks);
            let cfg = serial_cfg.chunked(rows).with_threads(4);
            let out = compress(&field, &cfg).unwrap();
            assert_eq!(chunk_count(&out.bytes).unwrap(), d0.div_ceil(rows));
            let back = decompress::<f32>(&out.bytes).unwrap();
            check_bound(&field, &back, eb);
            if n_chunks == 1 {
                assert_eq!(
                    serial.as_slice(),
                    back.as_slice(),
                    "{}: single-chunk reconstruction must equal serial",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn chunked_error_bound_holds_across_chunk_boundaries() {
    // A field with strong axis-0 gradients: boundary rows are the hardest
    // points for a freshly-reset predictor, so check them explicitly.
    let field = NdArray::<f32>::from_fn(Shape::d3(31, 10, 10), |ix| {
        (ix[0] as f32 * 0.9).sin() * 50.0 + ix[1] as f32 + 0.1 * ix[2] as f32
    });
    let eb = 1e-3;
    let rows = 4;
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb))
        .chunked(rows)
        .with_threads(3);
    let out = compress(&field, &cfg).unwrap();
    let back = decompress::<f32>(&out.bytes).unwrap();
    check_bound(&field, &back, eb);
    // Rows adjacent to every chunk boundary, specifically.
    let row_elems = 10 * 10;
    for boundary in (rows..31).step_by(rows) {
        for lin in (boundary - 1) * row_elems..(boundary + 1) * row_elems {
            let a = field.as_slice()[lin];
            let b = back.as_slice()[lin];
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                "boundary row pair at axis-0 row {boundary}, element {lin}"
            );
        }
    }
}

#[test]
fn chunked_random_access_matches_full_decode() {
    let field = rqm::datagen::fields::rtm_snapshot(90);
    let eb = field.value_range() * 1e-3;
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
        .chunked(13)
        .with_threads(2);
    let out = compress(&field, &cfg).unwrap();
    let full = decompress::<f32>(&out.bytes).unwrap();
    let row_elems: usize = field.shape().dims()[1..].iter().product();
    for i in 0..chunk_count(&out.bytes).unwrap() {
        let (start_row, slab) = decompress_chunk::<f32>(&out.bytes, i).unwrap();
        let lo = start_row * row_elems;
        assert_eq!(slab.as_slice(), &full.as_slice()[lo..lo + slab.len()]);
    }
}

#[test]
fn v1_container_backward_compat_read() {
    // A container produced by the original serial (v1) writer, committed
    // as a frozen fixture (no current writer can regenerate it): current
    // readers must keep decoding it bit-for-bit.
    let bytes = include_bytes!("data/golden_v1.rqc");
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, 1);
    assert_eq!(header.shape.dims(), &[8, 6]);
    assert_eq!(chunk_count(bytes).unwrap(), 1);

    let back = decompress::<f32>(bytes).unwrap();
    // Same formula the fixture generator used.
    let field = NdArray::<f32>::from_fn(Shape::d2(8, 6), |ix| {
        ((ix[0] as f32) * 0.7).sin() * 3.0 + (ix[1] as f32) * 0.25
    });
    check_bound(&field, &back, 1e-3);
    // Random access treats a v1 container as one whole-field chunk.
    let (start, slab) = decompress_chunk::<f32>(bytes, 0).unwrap();
    assert_eq!(start, 0);
    assert_eq!(slab.as_slice(), back.as_slice());
}

/// The checks shared by the v2 and v2.2 fixtures: the same frozen field
/// under the same fixed-SZ config (Lorenzo, abs 1e-3, `chunked(4)`), so
/// the two files differ only in where and how the chunk index is stored.
fn check_fixed_sz_fixture(bytes: &[u8], version: u8) {
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, version);
    assert_eq!(header.shape.dims(), &[16, 10, 10]);
    assert_eq!(header.abs_eb, 1e-3);
    assert_eq!(chunk_count(bytes).unwrap(), 4);

    // Four 4-row SZ chunks, each inheriting the header bound.
    let table = chunk_table(bytes).unwrap();
    assert_eq!(table.chunk_rows, 4);
    for (i, e) in table.entries.iter().enumerate() {
        assert_eq!((e.start_row, e.rows), (4 * i, 4));
        assert_eq!(e.codec, ChunkCodecKind::Sz);
        assert_eq!(e.eb, header.abs_eb);
    }

    // Same frozen formula the fixture generator used.
    let field = NdArray::<f32>::from_fn(Shape::d3(16, 10, 10), |ix| {
        let smooth =
            (ix[0] as f64 * 0.45).sin() * 1.8 + ix[1] as f64 * 0.07 + ix[2] as f64 * 0.011;
        if ix[0] < 8 {
            smooth as f32
        } else {
            let mut h = (ix[0] * 7013 + ix[1] * 127 + ix[2]) as u64;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            (smooth + ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.2) as f32
        }
    });
    let back = decompress::<f32>(bytes).unwrap();
    check_bound(&field, &back, 1e-3);

    // Random access and the streaming reader agree with the full decode.
    let row_elems = 10 * 10;
    for (i, entry) in table.entries.iter().enumerate() {
        let (start_row, slab) = decompress_chunk::<f32>(bytes, i).unwrap();
        assert_eq!(start_row, entry.start_row);
        let lo = start_row * row_elems;
        assert_eq!(slab.as_slice(), &back.as_slice()[lo..lo + slab.len()]);
    }
    let mut reader = ArchiveReader::open(std::io::Cursor::new(bytes)).unwrap();
    assert_eq!(reader.entries(), &table.entries[..]);
    assert_eq!(reader.read_all::<f32>().unwrap().as_slice(), back.as_slice());
}

#[test]
fn golden_v2_fixture_backward_compat() {
    // An index-first, untagged v2 container from the one-shot chunked
    // pipeline, frozen before that writer was removed (no current writer
    // can regenerate it): current readers must keep decoding it.
    let bytes = include_bytes!("data/golden_v2.rqc");
    check_fixed_sz_fixture(bytes, 2);
    // The index is inline, ahead of the blobs: there is no trailer.
    assert_ne!(&bytes[bytes.len() - 4..], b"RQIX");
}

#[test]
fn golden_v22_fixture_backward_compat() {
    // A trailer-indexed v2.2 container (no per-chunk bound column) from
    // the fixed-bound streaming writer, frozen before that writer moved to
    // v2.4 (no current writer can regenerate it).
    let bytes = include_bytes!("data/golden_v22.rqc");
    check_fixed_sz_fixture(bytes, 4);
    assert_eq!(&bytes[bytes.len() - 4..], b"RQIX");
    // Same field, same chunking, same codec: the blobs are the v2
    // fixture's blobs byte for byte — only the index moved.
    let v2 = include_bytes!("data/golden_v2.rqc");
    let (t2, t22) = (chunk_table(v2).unwrap(), chunk_table(bytes).unwrap());
    for (a, b) in t2.entries.iter().zip(&t22.entries) {
        assert_eq!(&v2[a.offset..a.offset + a.len], &bytes[b.offset..b.offset + b.len]);
    }
}

#[test]
fn golden_v21_fixture_backward_compat() {
    // A mixed-codec v2.1 container produced by the then-adaptive one-shot
    // pipeline, committed as a frozen fixture (no current writer can
    // regenerate it): current readers must keep decoding it, tags and all.
    let bytes = include_bytes!("data/golden_v21.rqc");
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, 3, "v2.1 uses version byte 3");
    assert_eq!(header.shape.dims(), &[12, 12, 12]);
    assert_eq!(chunk_count(bytes).unwrap(), 3);

    // The per-chunk codec tags the scheduler recorded at fixture time.
    let table = chunk_table(bytes).unwrap();
    let codecs: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
    assert_eq!(
        codecs,
        vec![ChunkCodecKind::Sz, ChunkCodecKind::Zfp, ChunkCodecKind::Zfp],
        "fixture mixes both codecs"
    );

    // Same formula the fixture generator used.
    let field = NdArray::<f32>::from_fn(Shape::d3(12, 12, 12), |ix| {
        if ix[0] < 4 {
            ((ix[0] as f64 * 0.5).sin() * 2.0 + ix[1] as f64 * 0.1 + ix[2] as f64 * 0.01) as f32
        } else {
            let mut h = (ix[0] * 4099 + ix[1] * 89 + ix[2]) as u64;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) as f32 * 30.0
        }
    });
    let back = decompress::<f32>(bytes).unwrap();
    check_bound(&field, &back, 1e-4);

    // Random access decodes the tagged chunks individually.
    let full = back.as_slice();
    for (i, entry) in table.entries.iter().enumerate() {
        let (start_row, slab) = decompress_chunk::<f32>(bytes, i).unwrap();
        assert_eq!(start_row, entry.start_row);
        let lo = start_row * 12 * 12;
        assert_eq!(slab.as_slice(), &full[lo..lo + slab.len()]);
    }

    // And the previous generation stays readable alongside it: re-read
    // the v1 fixture through the same current code paths.
    let v1 = include_bytes!("data/golden_v1.rqc");
    let h1 = rqm::compress_crate::peek_header(v1).unwrap();
    assert_eq!(h1.version, 1);
    let v1_table = chunk_table(v1).unwrap();
    assert_eq!(v1_table.entries.len(), 1);
    assert_eq!(v1_table.entries[0].codec, ChunkCodecKind::Sz, "v1 chunks are implicitly sz");
    let v1_field = NdArray::<f32>::from_fn(Shape::d2(8, 6), |ix| {
        ((ix[0] as f32) * 0.7).sin() * 3.0 + (ix[1] as f32) * 0.25
    });
    check_bound(&v1_field, &decompress::<f32>(v1).unwrap(), 1e-3);
}

#[test]
fn golden_v23_fixture_backward_compat() {
    // A quality-targeted v2.3 container with heterogeneous per-chunk
    // bounds and mixed codec tags, produced by the then-planned streaming
    // writer and committed as a frozen fixture (no current writer can
    // regenerate it).
    let bytes = include_bytes!("data/golden_v23.rqc");
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, 5, "v2.3 uses version byte 5");
    assert_eq!(header.shape.dims(), &[16, 10, 10]);
    assert_eq!(chunk_count(bytes).unwrap(), 4);
    // The header bound is the max of the planned per-chunk bounds.
    assert_eq!(header.abs_eb, 2e-3);

    // The per-chunk bounds and codec tags recorded at fixture time.
    let plan = [2e-3, 1e-4, 5e-4, 5e-5];
    let table = chunk_table(bytes).unwrap();
    let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
    assert_eq!(ebs, plan);
    let codecs: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
    assert_eq!(
        codecs,
        vec![ChunkCodecKind::Sz, ChunkCodecKind::Sz, ChunkCodecKind::Sz, ChunkCodecKind::Zfp],
        "fixture mixes both codecs"
    );

    // Same frozen formula the fixture generator used.
    let field = NdArray::<f32>::from_fn(Shape::d3(16, 10, 10), |ix| {
        if ix[0] < 8 {
            ((ix[0] as f64 * 0.4).sin() * 1.5 + ix[1] as f64 * 0.08 + ix[2] as f64 * 0.02) as f32
        } else {
            let mut h = (ix[0] * 5501 + ix[1] * 101 + ix[2]) as u64;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) as f32 * 25.0
        }
    });
    let back = decompress::<f32>(bytes).unwrap();
    // Every chunk honors *its own* bound (tighter than the header's for
    // chunks 1..4 — the whole point of the per-chunk index).
    let row_elems = 10 * 10;
    for (entry, &eb) in table.entries.iter().zip(&plan) {
        let lo = entry.start_row * row_elems;
        let hi = (entry.start_row + entry.rows) * row_elems;
        for (a, b) in field.as_slice()[lo..hi].iter().zip(&back.as_slice()[lo..hi]) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                "rows {}..{}: |{a} - {b}| > {eb}",
                entry.start_row,
                entry.start_row + entry.rows
            );
        }
    }

    // Random access and the streaming reader agree with the full decode.
    for (i, entry) in table.entries.iter().enumerate() {
        let (start_row, slab) = decompress_chunk::<f32>(bytes, i).unwrap();
        assert_eq!(start_row, entry.start_row);
        let lo = start_row * row_elems;
        assert_eq!(slab.as_slice(), &back.as_slice()[lo..lo + slab.len()]);
    }
    let mut reader =
        ArchiveReader::open(std::io::Cursor::new(&bytes[..])).unwrap();
    assert_eq!(reader.read_all::<f32>().unwrap().as_slice(), back.as_slice());

    // And the earlier generations stay readable byte-for-byte alongside
    // the new one: both committed fixtures decode through the same code
    // paths to the same values as ever.
    let v1 = include_bytes!("data/golden_v1.rqc");
    let v1_field = NdArray::<f32>::from_fn(Shape::d2(8, 6), |ix| {
        ((ix[0] as f32) * 0.7).sin() * 3.0 + (ix[1] as f32) * 0.25
    });
    check_bound(&v1_field, &decompress::<f32>(v1).unwrap(), 1e-3);
    let v21 = include_bytes!("data/golden_v21.rqc");
    assert_eq!(rqm::compress_crate::peek_header(v21).unwrap().version, 3);
    let v21_back = decompress::<f32>(v21).unwrap();
    assert_eq!(v21_back.len(), 12 * 12 * 12);
    // Every v2.1 chunk reports the header bound as its per-chunk bound.
    let h21 = rqm::compress_crate::peek_header(v21).unwrap();
    for e in chunk_table(v21).unwrap().entries {
        assert_eq!(e.eb, h21.abs_eb);
    }
}

#[test]
fn golden_v24_fixture_backward_compat() {
    // A three-way adaptive v2.4 container — per-chunk bounds in the
    // trailer index plus ROLZ-coded chunks — produced by the planned
    // streaming writer and committed as a fixture (regenerated only by
    // `cargo run --example make_golden_fixtures` when a *new* container
    // generation is introduced).
    let bytes = include_bytes!("data/golden_v24.rqc");
    let header = rqm::compress_crate::peek_header(bytes).unwrap();
    assert_eq!(header.version, 6, "v2.4 uses version byte 6");
    assert_eq!(header.shape.dims(), &[16, 10, 10]);
    assert_eq!(chunk_count(bytes).unwrap(), 4);
    // The header bound is the max of the planned per-chunk bounds.
    assert_eq!(header.abs_eb, 1e-3);

    // The per-chunk bounds and codec tags recorded at fixture time: the
    // smooth half went sz, the noisy half rolz.
    let plan = [1e-3, 5e-5, 2e-4, 1e-4];
    let table = chunk_table(bytes).unwrap();
    let ebs: Vec<f64> = table.entries.iter().map(|e| e.eb).collect();
    assert_eq!(ebs, plan);
    let codecs: Vec<ChunkCodecKind> = table.entries.iter().map(|e| e.codec).collect();
    assert_eq!(
        codecs,
        vec![ChunkCodecKind::Sz, ChunkCodecKind::Sz, ChunkCodecKind::Rolz, ChunkCodecKind::Rolz],
        "fixture mixes sz and rolz chunks"
    );

    // Same frozen formula the fixture generator used.
    let field = NdArray::<f32>::from_fn(Shape::d3(16, 10, 10), |ix| {
        if ix[0] < 8 {
            ((ix[0] as f64 * 0.35).cos() * 1.2 + ix[1] as f64 * 0.06 + ix[2] as f64 * 0.015)
                as f32
        } else {
            let mut h = (ix[0] * 6007 + ix[1] * 113 + ix[2]) as u64;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) as f32 * 28.0
        }
    });
    let back = decompress::<f32>(bytes).unwrap();
    // Every chunk honors *its own* planned bound.
    let row_elems = 10 * 10;
    for (entry, &eb) in table.entries.iter().zip(&plan) {
        let lo = entry.start_row * row_elems;
        let hi = (entry.start_row + entry.rows) * row_elems;
        for (a, b) in field.as_slice()[lo..hi].iter().zip(&back.as_slice()[lo..hi]) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                "rows {}..{}: |{a} - {b}| > {eb}",
                entry.start_row,
                entry.start_row + entry.rows
            );
        }
    }

    // Random access and the streaming reader agree with the full decode
    // (the rolz chunks decode individually too).
    for (i, entry) in table.entries.iter().enumerate() {
        let (start_row, slab) = decompress_chunk::<f32>(bytes, i).unwrap();
        assert_eq!(start_row, entry.start_row);
        let lo = start_row * row_elems;
        assert_eq!(slab.as_slice(), &back.as_slice()[lo..lo + slab.len()]);
    }
    let mut reader = ArchiveReader::open(std::io::Cursor::new(&bytes[..])).unwrap();
    assert_eq!(reader.read_all::<f32>().unwrap().as_slice(), back.as_slice());

    // Every pre-v2.4 golden fixture stays readable through the same code
    // paths, byte-for-byte as ever.
    let v1 = include_bytes!("data/golden_v1.rqc");
    let v1_field = NdArray::<f32>::from_fn(Shape::d2(8, 6), |ix| {
        ((ix[0] as f32) * 0.7).sin() * 3.0 + (ix[1] as f32) * 0.25
    });
    check_bound(&v1_field, &decompress::<f32>(v1).unwrap(), 1e-3);
    let v21 = include_bytes!("data/golden_v21.rqc");
    assert_eq!(rqm::compress_crate::peek_header(v21).unwrap().version, 3);
    assert_eq!(decompress::<f32>(v21).unwrap().len(), 12 * 12 * 12);
    let v23 = include_bytes!("data/golden_v23.rqc");
    assert_eq!(rqm::compress_crate::peek_header(v23).unwrap().version, 5);
    assert_eq!(decompress::<f32>(v23).unwrap().len(), 16 * 10 * 10);
    // No pre-v2.4 fixture carries the rolz tag — that combination is a
    // typed corruption (covered by the container fuzz suite).
    let t23 = chunk_table(v23).unwrap();
    assert!(t23.entries.iter().all(|e| e.codec != ChunkCodecKind::Rolz));
}

#[test]
fn golden_cat1_fixture_backward_compat() {
    // An RQCAT v1 catalog — two datasets (f32 + f64), delta chains at
    // two keyframe cadences, chunked segments — committed as a fixture
    // (regenerated only by `cargo run --example make_golden_fixtures`
    // when a *new* catalog generation is introduced): current readers
    // must keep decoding it.
    let bytes = include_bytes!("data/golden_cat1.rqc");
    assert!(rqm::catalog::is_catalog_magic(bytes));
    let mut r = CatalogReader::open(std::io::Cursor::new(&bytes[..])).unwrap();

    // The index recorded at fixture time.
    let d = r.dataset("wave").unwrap();
    assert_eq!(d.scalar_tag, 0x04);
    assert_eq!(d.shape.dims(), &[8, 10, 10]);
    assert_eq!(d.keyframe_every, 2);
    let kf: Vec<bool> = d.steps.iter().map(|s| s.keyframe).collect();
    assert_eq!(kf, [true, false, true, false, true]);
    assert!(d.steps.iter().all(|s| s.eb == 1e-3));
    let d = r.dataset("energy").unwrap();
    assert_eq!(d.scalar_tag, 0x08);
    assert_eq!(d.shape.dims(), &[12, 9]);
    assert_eq!(d.keyframe_every, 3);
    let kf: Vec<bool> = d.steps.iter().map(|s| s.keyframe).collect();
    assert_eq!(kf, [true, false, false]);

    // Same frozen formulas the fixture generator used; every step of
    // both datasets must still meet its bound.
    for t in 0..5 {
        let truth = NdArray::<f32>::from_fn(Shape::d3(8, 10, 10), |ix| {
            ((ix[0] as f64 * 0.3 + t as f64 * 0.05).sin() * 1.5
                + ix[1] as f64 * 0.08
                + ix[2] as f64 * 0.013
                + t as f64 * 0.02) as f32
        });
        check_bound(&truth, &r.read_step::<f32>("wave", t).unwrap(), 1e-3);
    }
    for t in 0..3 {
        let truth = NdArray::<f64>::from_fn(Shape::d2(12, 9), |ix| {
            (ix[0] as f64 * 0.22 + t as f64 * 0.11).cos() * 0.8 + ix[1] as f64 * 0.05
        });
        let back = r.read_step::<f64>("energy", t).unwrap();
        for (i, (&a, &b)) in truth.as_slice().iter().zip(back.as_slice()).enumerate() {
            assert!((a - b).abs() <= 1e-6 * (1.0 + 1e-6), "energy step {t} element {i}");
        }
    }

    // A keyframe segment is an ordinary single-field archive: open it
    // directly and decode it with the plain archive reader.
    let mut seg = r.open_step("wave", 2).unwrap();
    let slab = seg.read_all::<f32>().unwrap();
    assert_eq!(slab.shape().dims(), &[8, 10, 10]);
}

#[test]
fn model_guided_container_write_hits_quality_target() {
    // The full Fig. 13 loop for one snapshot: model picks eb for a PSNR
    // floor, compression goes through the container, measured PSNR
    // respects the floor.
    let field = rqm::datagen::fields::rtm_snapshot(250);
    let model = RqModel::build(&field, PredictorKind::Interpolation, 0.01, 9);
    let target = 56.0;
    let eb = model.error_bound_for_psnr(target);
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb))
        .chunked(16);

    let back = decompress::<f32>(&compress(&field, &cfg).unwrap().bytes).unwrap();
    let measured = psnr(&field, &back);
    assert!(
        measured >= target - 1.5,
        "target {target} dB, measured {measured:.1} dB (eb {eb:.3e})"
    );
}
