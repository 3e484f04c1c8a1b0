//! Compressor configuration.

use rq_predict::PredictorKind;
use rq_quant::{ErrorBoundMode, DEFAULT_RADIUS};

/// Whether the optional lossless stage runs after Huffman coding.
///
/// The paper's Fig. 3 separates "Huffman only" from "Huffman + lossless";
/// both configurations are first-class here so the model's two accuracy
/// columns (Table II "Huff Err" vs "Huff+LL Err") can each be measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LosslessStage {
    /// Huffman output stored as-is.
    None,
    /// Huffman output further compressed with zero-RLE + LZSS
    /// (the Zstandard stand-in).
    RleLzss,
}

/// How the field is partitioned for compression.
///
/// Chunked modes split the field into axis-0 slabs, each compressed as an
/// independent stream (predictor stencils reset at slab boundaries), which
/// enables multi-threaded compression/decompression and random access to
/// individual slabs. `Serial` is the degenerate partition: one chunk
/// holding the whole field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chunking {
    /// One causal traversal over the whole field (a single chunk).
    Serial,
    /// Fixed number of axis-0 rows per chunk.
    Rows(usize),
    /// Pick a row count that feeds the worker threads well while keeping
    /// per-chunk overhead amortized.
    Auto,
}

/// Which codec(s) the pipeline may use per chunk.
///
/// All backends honor the same resolved absolute error bound, so they can
/// be mixed freely within one container. `Auto` evaluates a sampled ratio
/// estimate per chunk (the paper's ratio-quality model acting as the
/// compressor's control loop) and picks the cheapest of the three; the
/// winner is recorded in the chunk's codec tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecChoice {
    /// Always the SZ prediction path.
    Sz,
    /// Always the ZFP transform path.
    ///
    /// Incompatible with point-wise relative bounds: the transform path
    /// has no escape mechanism for the log-domain trick, so such configs
    /// fail with an error.
    Zfp,
    /// Always the ROLZ residual path: the SZ quantization
    /// front end with a reduced-offset-LZ + symbol-ranking + Huffman back
    /// end ([`crate::RolzChunkCodec`]). Supports the log transform, like
    /// SZ.
    Rolz,
    /// Per-chunk ratio-driven selection among the three.
    ///
    /// Under a point-wise relative bound every chunk falls back to SZ
    /// (the probe-driven estimates are calibrated for the identity
    /// transform).
    Auto,
}

/// Full configuration of one compression run.
#[derive(Clone, Copy, Debug)]
pub struct CompressorConfig {
    /// Prediction method.
    pub predictor: PredictorKind,
    /// User error-bound mode.
    pub bound: ErrorBoundMode,
    /// Quantization code radius.
    pub radius: u32,
    /// Optional lossless stage.
    pub lossless: LosslessStage,
    /// Field partitioning for (parallel) compression.
    pub chunking: Chunking,
    /// Worker threads for chunked compression; `0` means one per
    /// available CPU.
    pub threads: usize,
    /// Per-chunk codec policy.
    pub codec: CodecChoice,
}

impl CompressorConfig {
    /// Config with the default radius and the lossless stage enabled.
    pub fn new(predictor: PredictorKind, bound: ErrorBoundMode) -> Self {
        CompressorConfig {
            predictor,
            bound,
            radius: DEFAULT_RADIUS,
            lossless: LosslessStage::RleLzss,
            chunking: Chunking::Serial,
            threads: 0,
            codec: CodecChoice::Sz,
        }
    }

    /// Disable the optional lossless stage (Huffman only).
    pub fn huffman_only(mut self) -> Self {
        self.lossless = LosslessStage::None;
        self
    }

    /// Override the quantization radius.
    pub fn with_radius(mut self, radius: u32) -> Self {
        self.radius = radius;
        self
    }

    /// Replace the error bound, keeping everything else.
    pub fn with_bound(mut self, bound: ErrorBoundMode) -> Self {
        self.bound = bound;
        self
    }

    /// Compress in axis-0 slabs of `rows` rows each.
    ///
    /// # Panics
    /// Panics if `rows == 0`.
    pub fn chunked(mut self, rows: usize) -> Self {
        assert!(rows > 0, "chunk rows must be positive");
        self.chunking = Chunking::Rows(rows);
        self
    }

    /// Let the pipeline pick a chunk size suited to the thread count.
    pub fn auto_chunked(mut self) -> Self {
        self.chunking = Chunking::Auto;
        self
    }

    /// Select the per-chunk codec policy (default [`CodecChoice::Sz`]).
    ///
    /// The chunk index tags every chunk with the codec that produced it;
    /// with [`Chunking::Serial`] the whole field is one tagged chunk.
    pub fn with_codec(mut self, codec: CodecChoice) -> Self {
        self.codec = codec;
        self
    }

    /// Set the worker thread count (`0` = one per available CPU). Only
    /// chunked configurations use more than one thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker thread count after resolving `0` to the machine's
    /// available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Check for structurally invalid states the builders normally
    /// prevent but a literal construction can smuggle in (most notably
    /// `Chunking::Rows(0)`, which bypasses the [`Self::chunked`] assert).
    ///
    /// Compression entry points call this and surface failures as
    /// [`CompressError::InvalidConfig`](crate::CompressError::InvalidConfig)
    /// instead of panicking deep inside the chunker.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunking == Chunking::Rows(0) {
            return Err("chunk rows must be positive (got Chunking::Rows(0))".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(0.5))
            .huffman_only()
            .with_radius(128);
        assert_eq!(cfg.lossless, LosslessStage::None);
        assert_eq!(cfg.radius, 128);
        assert_eq!(cfg.predictor, PredictorKind::Interpolation);
    }

    #[test]
    fn with_bound_swaps_only_bound() {
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
            .with_bound(ErrorBoundMode::Abs(2.0));
        assert!(matches!(cfg.bound, ErrorBoundMode::Abs(e) if e == 2.0));
        assert_eq!(cfg.predictor, PredictorKind::Lorenzo);
    }

    #[test]
    fn chunking_defaults_to_serial() {
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0));
        assert_eq!(cfg.chunking, Chunking::Serial);
        assert_eq!(cfg.threads, 0);
        assert!(cfg.resolved_threads() >= 1);
        assert_eq!(cfg.codec, CodecChoice::Sz);
    }

    #[test]
    fn codec_builder() {
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
            .with_codec(CodecChoice::Auto);
        assert_eq!(cfg.codec, CodecChoice::Auto);
        assert_eq!(cfg.chunking, Chunking::Serial, "codec choice leaves chunking alone");
    }

    #[test]
    fn chunking_builders() {
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
            .chunked(16)
            .with_threads(4);
        assert_eq!(cfg.chunking, Chunking::Rows(16));
        assert_eq!(cfg.resolved_threads(), 4);
        let auto = cfg.auto_chunked();
        assert_eq!(auto.chunking, Chunking::Auto);
    }

    #[test]
    #[should_panic]
    fn zero_chunk_rows_rejected() {
        let _ = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0)).chunked(0);
    }
}
