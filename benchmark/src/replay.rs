//! Stage replays of the traced run.
//!
//! The chunk kernel is opaque from outside: a span around `write_slab`
//! cannot say how much of it was prediction, quantization or entropy
//! coding. So the traced run takes a fixed seeded sample of the workload's
//! own chunks and runs each through every stage's public function in
//! isolation, on one thread, timing each call. Rates are in raw field
//! bytes per second unless the metric says otherwise.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, ChunkKind, Codec, Huffman, PredictorKind, Shape, StoreConfig};
use crate::workloads::{max_abs_err, BOUND_SLACK};

type Res<T> = Result<T, String>;

/// One chunk of a stored field, as the writer saw it.
pub struct ChunkSample {
    pub data: Vec<f32>,
    pub shape: Shape,
    pub eb: f64,
    /// The codec the archive's chunk table records for this chunk.
    pub kind: ChunkKind,
}

/// Seconds per stage, summed over every replayed chunk.
#[derive(Default)]
struct Clock(BTreeMap<&'static str, f64>);

impl Clock {
    fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        *self.0.entry(stage).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    fn get(&self, stage: &str) -> f64 {
        self.0.get(stage).copied().unwrap_or(0.0)
    }
}

const CODECS: [(Codec, &str, &str); 4] = [
    (Codec::SzLorenzo, "sz_lorenzo_enc", "sz_lorenzo_dec"),
    (Codec::SzInterp, "sz_interp_enc", "sz_interp_dec"),
    (Codec::Zfp, "zfp_enc", "zfp_dec"),
    (Codec::Rolz, "rolz_enc", "rolz_dec"),
];

fn codec_of(kind: ChunkKind, predictor: PredictorKind) -> Codec {
    match kind {
        ChunkKind::Zfp => Codec::Zfp,
        ChunkKind::Rolz => Codec::Rolz,
        ChunkKind::Sz if predictor == PredictorKind::Interpolation => Codec::SzInterp,
        ChunkKind::Sz => Codec::SzLorenzo,
    }
}

/// What the replay found, keyed by per-layer metric name, plus the
/// single-thread cost of the workload's own codec path per raw byte.
pub struct Replayed {
    pub metrics: BTreeMap<&'static str, f64>,
    pub own_encode_s_per_byte: f64,
    pub own_decode_s_per_byte: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Replay `chunks` round after round for about `budget_s` seconds.
pub fn replay(chunks: &[ChunkSample], store: &StoreConfig, budget_s: f64) -> Res<Replayed> {
    let mut clock = Clock::default();
    let (mut own_enc_s, mut own_dec_s) = (0.0, 0.0);
    let (mut bytes, mut n_chunks) = (0u64, 0u64);
    let (mut payload_bytes, mut packed_bytes) = (0u64, 0u64);
    let (mut symbols, mut escapes) = (0u64, 0u64);
    let (mut chosen_bits, mut best_bits) = (0u64, 0u64);
    let (mut chosen_enc_s, mut attempted, mut failed) = (0.0, 0u64, 0u64);
    let started = Instant::now();
    while n_chunks == 0 || started.elapsed().as_secs_f64() < budget_s {
        for c in chunks {
            let raw = c.data.len() as u64 * 4;
            bytes += raw;
            n_chunks += 1;

            // predict → quant → encoding, on the chunk's own symbol stream.
            let errors = clock.time("lorenzo_errors", || {
                adapter::prediction_errors(&c.data, c.shape, PredictorKind::Lorenzo)
            });
            clock.time("interp_errors", || {
                adapter::prediction_errors(&c.data, c.shape, PredictorKind::Interpolation)
            });
            let (syms, _) = clock.time("quantize", || adapter::quantize_symbols(&errors, c.eb));
            let mut counts = vec![0u64; adapter::symbol_alphabet()];
            for &s in &syms {
                counts[s as usize] += 1;
            }
            let huff = clock.time("huffman_build", || Huffman::build(&counts))?;
            let payload = clock.time("huffman_encode", || huff.encode(&syms))?;
            let back = clock.time("huffman_decode", || huff.decode(&payload, syms.len()))?;
            let packed = clock.time("lossless_compress", || adapter::lossless_pack(&payload));
            let unpacked = clock.time("lossless_decompress", || {
                adapter::lossless_unpack(&packed, payload.len())
            })?;
            payload_bytes += payload.len() as u64;
            packed_bytes += packed.len() as u64;
            attempted += 2;
            failed += (back != syms) as u64 + (unpacked != payload) as u64;

            // Every chunk codec, whole.
            let mut blob_bits = [0u64; 4];
            let mut enc_s = [0.0; 4];
            let mut dec_s = [0.0; 4];
            let mut out = vec![0f32; c.data.len()];
            for (i, &(codec, enc, dec)) in CODECS.iter().enumerate() {
                let t0 = Instant::now();
                let (blob, n) =
                    clock.time(enc, || adapter::codec_encode(codec, c.eb, &c.data, c.shape))?;
                enc_s[i] = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                clock.time(dec, || {
                    adapter::codec_decode(codec, c.eb, &blob, c.shape, &mut out)
                })?;
                dec_s[i] = t0.elapsed().as_secs_f64();
                blob_bits[i] = blob.len() as u64 * 8;
                attempted += 1;
                failed += (max_abs_err(&c.data, &out) > c.eb * BOUND_SLACK) as u64;
                if codec == Codec::SzLorenzo {
                    symbols += n.symbols as u64;
                    escapes += n.escapes as u64;
                }
            }

            // The scheduler: what it picks, what that costs, what it loses.
            let t0 = Instant::now();
            let pick = clock.time("choose", || adapter::choose(&c.data, c.shape, c.eb));
            let choose_s = t0.elapsed().as_secs_f64();
            let slot = |codec: Codec| {
                CODECS
                    .iter()
                    .position(|x| x.0 == codec)
                    .expect("listed above")
            };
            let picked = slot(codec_of(pick, PredictorKind::Lorenzo));
            chosen_bits += blob_bits[picked];
            chosen_enc_s += enc_s[picked];
            best_bits += [Codec::SzLorenzo, Codec::Zfp, Codec::Rolz]
                .iter()
                .map(|&k| blob_bits[slot(k)])
                .min()
                .expect("three candidates");

            // The workload's own path for this chunk.
            let own = slot(codec_of(c.kind, store.predictor));
            own_enc_s += enc_s[own] + if store.auto_codec { choose_s } else { 0.0 };
            own_dec_s += dec_s[own];
        }
    }

    let mb = bytes as f64 / 1e6;
    let rate = |stage: &str| mb / clock.get(stage);
    let per_chunk_us = |stage: &str| clock.get(stage) * 1e6 / n_chunks as f64;
    let stages = [
        "lorenzo_errors",
        "quantize",
        "huffman_build",
        "huffman_encode",
        "lossless_compress",
    ];
    let staged_s: f64 = stages.iter().map(|s| clock.get(s)).sum();
    let metrics = BTreeMap::from([
        ("predict.lorenzo_errors_mb_s", rate("lorenzo_errors")),
        ("predict.interp_errors_mb_s", rate("interp_errors")),
        ("quant.quantize_mb_s", rate("quantize")),
        ("quant.escape_ratio", escapes as f64 / symbols.max(1) as f64),
        ("encoding.huffman_build_us", per_chunk_us("huffman_build")),
        ("encoding.huffman_encode_mb_s", rate("huffman_encode")),
        ("encoding.huffman_decode_mb_s", rate("huffman_decode")),
        (
            "encoding.lossless_compress_mb_s",
            payload_bytes as f64 / 1e6 / clock.get("lossless_compress"),
        ),
        (
            "encoding.lossless_decompress_mb_s",
            payload_bytes as f64 / 1e6 / clock.get("lossless_decompress"),
        ),
        (
            "encoding.lossless_gain",
            payload_bytes as f64 / packed_bytes.max(1) as f64,
        ),
        ("zfp.encode_mb_s", rate("zfp_enc")),
        ("zfp.decode_mb_s", rate("zfp_dec")),
        ("compress.sz_lorenzo_encode_mb_s", rate("sz_lorenzo_enc")),
        ("compress.sz_lorenzo_decode_mb_s", rate("sz_lorenzo_dec")),
        ("compress.sz_interp_encode_mb_s", rate("sz_interp_enc")),
        ("compress.sz_interp_decode_mb_s", rate("sz_interp_dec")),
        ("compress.rolz_encode_mb_s", rate("rolz_enc")),
        ("compress.rolz_decode_mb_s", rate("rolz_dec")),
        (
            "compress.sz_encode_unattributed_frac",
            1.0 - staged_s / clock.get("sz_lorenzo_enc"),
        ),
        ("compress.scheduler_us_per_chunk", per_chunk_us("choose")),
        (
            "compress.scheduler_share",
            clock.get("choose") / (clock.get("choose") + chosen_enc_s),
        ),
        (
            "compress.scheduler_regret_frac",
            chosen_bits as f64 / best_bits.max(1) as f64 - 1.0,
        ),
        ("replay.chunks", n_chunks as f64),
    ]);
    Ok(Replayed {
        metrics,
        own_encode_s_per_byte: own_enc_s / bytes as f64,
        own_decode_s_per_byte: own_dec_s / bytes as f64,
        attempted,
        failed,
    })
}
