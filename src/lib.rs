//! # rqm — Ratio-Quality Modeling for Prediction-Based Lossy Compression
//!
//! A from-scratch Rust reproduction of *"Improving Prediction-Based Lossy
//! Compression Dramatically via Ratio-Quality Modeling"* (Jin et al.,
//! ICDE 2022): an SZ3-style error-bounded lossy compressor, an analytical
//! model that predicts its compression ratio **and** the post-hoc analysis
//! quality of the reconstructed data from a single 1 % sampling pass, and
//! the three model-driven use-cases the paper evaluates.
//!
//! This crate is an umbrella: it re-exports the workspace crates under
//! stable module names.
//!
//! ```
//! use rqm::prelude::*;
//!
//! let field = rqm::datagen::fields::qmcpack_einspline();
//! // Predict ratio & quality without compressing…
//! let model = RqModel::build(&field, PredictorKind::Interpolation, 0.01, 7);
//! let est = model.estimate(1e-3);
//! // …then verify by actually compressing.
//! let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-3));
//! let out = compress(&field, &cfg).unwrap();
//! let rel_err = (est.bit_rate - out.bit_rate()).abs() / out.bit_rate();
//! assert!(rel_err < 0.25, "model {:.3} vs measured {:.3}", est.bit_rate, out.bit_rate());
//! ```

/// N-dimensional array substrate.
pub use rq_grid as grid;

/// Entropy and dictionary coders.
pub use rq_encoding as encoding;

/// Predictors (Lorenzo, interpolation, regression).
pub use rq_predict as predict;

/// Linear-scaling quantizer.
pub use rq_quant as quant;

/// The SZ3-style compressor.
pub use rq_compress as compress_crate;

/// Post-hoc analysis kernels.
pub use rq_analysis as analysis;

/// Synthetic dataset generators.
pub use rq_datagen as datagen;

/// The analytical ratio-quality model (the paper's contribution).
pub use rq_core as core_model;

/// Archive read service: TCP daemon, decoded-chunk cache, wire client.
pub use rq_serve as serve;

/// Temporal multi-field catalog containers (time-delta coding).
pub use rq_catalog as catalog;

/// The most common imports in one place.
pub mod prelude {
    pub use rq_analysis::{global_ssim, psnr};
    pub use rq_compress::{
        chunk_count, chunk_table, compress, compress_with_report, decompress, decompress_chunk,
        decompress_with_threads, ArchiveReader, ArchiveWriter, ChunkCodecKind, Chunking,
        CodecChoice, CompressorConfig, ConcurrentReader,
    };
    pub use rq_core::usecases::{
        measure_archive, optimize_partitions, plan_budget, Measured, PlanError, PredictorSelector,
        Target, TargetSession,
    };
    pub use rq_core::{Estimate, RqModel};
    pub use rq_catalog::{CatalogReader, CatalogWriter, DatasetReader};
    pub use rq_grid::{NdArray, Shape};
    pub use rq_predict::PredictorKind;
    pub use rq_quant::ErrorBoundMode;
    pub use rq_serve::{Client, DatasetInfo, ServeConfig, ServeStats, Server};
}
