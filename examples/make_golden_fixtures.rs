//! Generate the golden container fixtures under `tests/data/` that the
//! current writers can still produce: `golden_v24.rqc` (the one written
//! archive generation) and `golden_cat1.rqc` (the `RQCAT` catalog).
//!
//! Fixtures are *committed* archives that backward-compat tests re-read,
//! so an existing file is never overwritten — that would defeat the test.
//! The fixtures of the read-only generations — `golden_v1.rqc`,
//! `golden_v2.rqc`, `golden_v21.rqc`, `golden_v22.rqc`, `golden_v23.rqc`
//! and their f64 counterparts `golden_f64_v*.rqc` — are **frozen**: they
//! were produced by writers that no longer exist (every writer now emits
//! v2.4) and cannot be regenerated; their field formulas live on in
//! `tests/pipeline_roundtrip.rs` (f32) and `tests/conformance.rs` (f64).
//! Run this only when introducing a **new** generation. The field
//! formulas here must match the expectations in
//! `tests/pipeline_roundtrip.rs` exactly.
//!
//! ```sh
//! cargo run --example make_golden_fixtures -- <out-dir>
//! ```

use rqm::catalog::CatalogWriter;
use rqm::compress_crate::{chunk_table, ArchiveWriter, ChunkCodecKind, CodecChoice, CompressorConfig};
use rqm::grid::{NdArray, Shape};
use rqm::predict::PredictorKind;
use rqm::quant::ErrorBoundMode;

/// The catalog-v1 fixture's f32 dataset: a smooth field drifting slowly
/// with the step index, so delta segments are genuinely smaller than
/// keyframes (frozen here and duplicated in the compat test — the
/// committed bytes encode *this* formula; never change it).
fn cat1_wave_step(t: usize) -> NdArray<f32> {
    NdArray::from_fn(Shape::d3(8, 10, 10), |ix| {
        ((ix[0] as f64 * 0.3 + t as f64 * 0.05).sin() * 1.5
            + ix[1] as f64 * 0.08
            + ix[2] as f64 * 0.013
            + t as f64 * 0.02) as f32
    })
}

/// The catalog-v1 fixture's f64 dataset (frozen, see [`cat1_wave_step`]).
fn cat1_energy_step(t: usize) -> NdArray<f64> {
    NdArray::from_fn(Shape::d2(12, 9), |ix| {
        (ix[0] as f64 * 0.22 + t as f64 * 0.11).cos() * 0.8 + ix[1] as f64 * 0.05
    })
}

/// The v2.4 fixture field: smooth rows then hash-noise rows (another
/// distinct frozen formula, duplicated in the compat test — the committed
/// bytes encode it verbatim; never change it).
fn v24_field() -> NdArray<f32> {
    NdArray::from_fn(Shape::d3(16, 10, 10), |ix| {
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
    })
}

/// Per-chunk bounds of the v2.4 fixture (4-row chunks of the 16-row
/// field): loose on the smooth half, tight on the noisy half, so the
/// three-way scheduler bakes a genuine sz/rolz codec split into the
/// archive.
const V24_PLAN: [f64; 4] = [1e-3, 5e-5, 2e-4, 1e-4];

/// Write a fixture unless it already exists (committed fixtures are
/// frozen; see the module docs).
fn write_frozen(path: &str, bytes: &[u8]) -> bool {
    if std::path::Path::new(path).exists() {
        println!("{path}: exists, left frozen");
        return false;
    }
    std::fs::write(path, bytes).expect("write fixture");
    true
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "tests/data".into());

    // v2.4: the three-way adaptive generation — per-chunk bounds in the
    // trailer plus the rolz codec tag; the plan forces a real sz/rolz
    // split.
    let path = format!("{dir}/golden_v24.rqc");
    if !std::path::Path::new(&path).exists() {
        let field = v24_field();
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
            .chunked(4)
            .with_codec(CodecChoice::Auto)
            .with_threads(1);
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &cfg,
            V24_PLAN.to_vec(),
        )
        .expect("planned session");
        w.write_slab(&field).expect("write fixture field");
        let bytes = w.finalize().expect("finalize fixture").sink;
        assert_eq!(rqm::compress_crate::peek_header(&bytes).unwrap().version, 6);
        let codecs: Vec<ChunkCodecKind> =
            chunk_table(&bytes).unwrap().entries.iter().map(|e| e.codec).collect();
        assert!(
            codecs.contains(&ChunkCodecKind::Sz) && codecs.contains(&ChunkCodecKind::Rolz),
            "v2.4 fixture must mix sz and rolz chunks, got {codecs:?}"
        );
        write_frozen(&path, &bytes);
        println!(
            "wrote {path}: {} bytes, chunks {codecs:?}, plan {V24_PLAN:?}",
            bytes.len()
        );
    } else {
        println!("{path}: exists, left frozen");
    }

    // Catalog v1: two datasets (f32 + f64), delta chains with distinct
    // keyframe cadences, chunked segments — every layout feature of the
    // RQCAT generation in one committed file.
    let path = format!("{dir}/golden_cat1.rqc");
    if !std::path::Path::new(&path).exists() {
        let mut w = CatalogWriter::create(Vec::new()).expect("catalog preamble");
        let wave: Vec<NdArray<f32>> = (0..5).map(cat1_wave_step).collect();
        let wave_cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
            .chunked(4)
            .with_threads(1);
        w.write_dataset("wave", &wave_cfg, 2, &wave).expect("wave dataset");
        let energy: Vec<NdArray<f64>> = (0..3).map(cat1_energy_step).collect();
        let energy_cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-6))
                .with_threads(1);
        w.write_dataset("energy", &energy_cfg, 3, &energy).expect("energy dataset");
        let fin = w.finalize().expect("finalize catalog");
        write_frozen(&path, &fin.sink);
        println!(
            "wrote {path}: {} bytes, {} datasets / {} steps",
            fin.sink.len(),
            fin.index.datasets.len(),
            fin.index.total_steps()
        );
    } else {
        println!("{path}: exists, left frozen");
    }
}
