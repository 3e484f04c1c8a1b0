//! The names, units, directions and regression bounds of every metric, and
//! `BENCHMARK.json` generated from them (a test keeps the committed file
//! equal to `manifest()`, so the driver and the harness cannot disagree).

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one run measures for; the four phases share it equally.
pub const RUN_SECONDS: u64 = 18;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median a change may lose before it is refused.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a user of the system sees; reported by every workload (`--trace 0`).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("encode_mb_s", "MB/s", true, 0.25),
    e2e("decode_mb_s", "MB/s", true, 0.25),
    e2e("region_mb_s", "MB/s", true, 0.25),
    e2e("read_mb_s", "MB/s", true, 0.25),
    e2e("bits_per_value", "bits", false, 0.01),
    e2e("psnr_db", "dB", true, 0.005),
    e2e("model_ratio_accuracy", "frac", true, 0.02),
    e2e("model_psnr_accuracy", "frac", true, 0.01),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Single-layer metrics `(name, unit, higher_is_better)`, reported by every
/// workload (`--trace 1`). A layer that is not on a workload's path reads 0.
pub const PER_LAYER: [(&str, &str, bool); 70] = [
    ("core.build_ms_per_mb", "ms/MB", false),
    ("core.invert_us", "us", false),
    ("core.estimate_us", "us", false),
    ("core.sample_points", "count", false),
    ("core.plan_share", "frac", false),
    ("predict.lorenzo_errors_mb_s", "MB/s", true),
    ("predict.interp_errors_mb_s", "MB/s", true),
    ("quant.quantize_mb_s", "MB/s", true),
    ("quant.escape_ratio", "frac", false),
    ("encoding.huffman_build_us", "us", false),
    ("encoding.huffman_encode_mb_s", "MB/s", true),
    ("encoding.huffman_decode_mb_s", "MB/s", true),
    ("encoding.lossless_compress_mb_s", "MB/s", true),
    ("encoding.lossless_decompress_mb_s", "MB/s", true),
    ("encoding.lossless_gain", "ratio", true),
    ("zfp.encode_mb_s", "MB/s", true),
    ("zfp.decode_mb_s", "MB/s", true),
    ("compress.sz_lorenzo_encode_mb_s", "MB/s", true),
    ("compress.sz_lorenzo_decode_mb_s", "MB/s", true),
    ("compress.sz_interp_encode_mb_s", "MB/s", true),
    ("compress.sz_interp_decode_mb_s", "MB/s", true),
    ("compress.rolz_encode_mb_s", "MB/s", true),
    ("compress.rolz_decode_mb_s", "MB/s", true),
    ("compress.sz_encode_unattributed_frac", "frac", false),
    ("compress.scheduler_us_per_chunk", "us", false),
    ("compress.scheduler_share", "frac", false),
    ("compress.auto_share_sz", "frac", true),
    ("compress.auto_share_zfp", "frac", true),
    ("compress.auto_share_rolz", "frac", true),
    ("compress.scheduler_regret_frac", "frac", false),
    ("compress.writer_parallel_eff", "frac", true),
    ("compress.writer_finalize_ms", "ms", false),
    ("compress.container_overhead_frac", "frac", false),
    ("compress.reader_open_us", "us", false),
    ("compress.reader_parallel_eff", "frac", true),
    ("compress.reader_decode_amplification", "ratio", false),
    ("compress.reader_reorder_copies_per_read", "count", false),
    (
        "compress.reader_blob_bytes_per_payload_byte",
        "ratio",
        false,
    ),
    ("fs.sync_ms_per_archive", "ms", false),
    ("fs.write_share", "frac", false),
    ("catalog.pack_mb_s", "MB/s", true),
    ("catalog.step_read_ms", "ms", false),
    ("catalog.chain_len_mean", "count", false),
    ("serve.read_p50_us", "us", false),
    ("serve.read_tail_us", "us", false),
    ("serve.read_tail_pct", "%", true),
    ("serve.read_samples", "count", true),
    ("serve.ping_rtt_us", "us", false),
    ("serve.cache_hit_fetch_ns", "ns", false),
    ("serve.cache_hit_ratio", "frac", true),
    ("serve.cache_evictions", "count", false),
    ("serve.coalesced_waits", "count", false),
    ("serve.decodes_per_request", "ratio", false),
    ("serve.bytes_out_per_payload_byte", "ratio", false),
    ("serve.errors", "count", false),
    ("serve.local_over_served", "ratio", true),
    ("trace.overhead_frac", "frac", false),
    ("trace.coverage_frac", "frac", true),
    ("trace.spans", "count", false),
    ("replay.chunks", "count", true),
    ("phase.encode_passes", "count", true),
    ("phase.decode_passes", "count", true),
    ("phase.region_passes", "count", true),
    ("phase.serve_passes", "count", true),
    ("phase.encode_jitter", "frac", false),
    ("phase.decode_jitter", "frac", false),
    ("phase.region_jitter", "frac", false),
    ("phase.serve_jitter", "frac", false),
    ("ops.attempted", "count", true),
    ("ops.failed", "count", false),
];

fn better(higher: bool) -> Json {
    Json::Str(if higher { "higher" } else { "lower" }.into())
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([
                            ("name", Json::Str(name.into())),
                            ("why", Json::Str(why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, higher)| {
                        Json::obj([
                            ("name", Json::Str(name.into())),
                            ("unit", Json::Str(unit.into())),
                            ("better", better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
            .chain(WORKLOADS.iter().map(|&(n, _)| (n, "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|&(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            committed.trim_end(),
            manifest().pretty(),
            "regenerate with run.sh --print-manifest"
        );
    }
}
