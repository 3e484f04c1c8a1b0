//! SZ3-style prediction-based error-bounded lossy compressor.
//!
//! The pipeline matches the three-stage structure the paper models
//! (§II-B): **prediction** (Lorenzo / multi-level interpolation / block
//! regression, from [`rq_predict`]), **linear-scaling quantization**
//! ([`rq_quant`]) and **encoding** (canonical Huffman plus an optional
//! lossless stage, from [`rq_encoding`]).
//!
//! ```
//! use rq_compress::{compress, decompress, CompressorConfig};
//! use rq_grid::{NdArray, Shape};
//! use rq_predict::PredictorKind;
//! use rq_quant::ErrorBoundMode;
//!
//! let field = NdArray::<f32>::from_fn(Shape::d2(64, 64), |ix| {
//!     ((ix[0] as f32) * 0.1).sin() + (ix[1] as f32) * 0.01
//! });
//! let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
//! let compressed = compress(&field, &cfg).unwrap();
//! let restored = decompress::<f32>(&compressed.bytes).unwrap();
//! for (a, b) in field.as_slice().iter().zip(restored.as_slice()) {
//!     assert!((a - b).abs() <= 1e-3 * 1.0001);
//! }
//! ```

pub mod chunked;
pub mod codec;
pub mod config;
pub mod container;
#[doc(hidden)]
pub mod kernels;
mod mmap;
mod pool;
pub mod pipeline;
pub mod report;
pub mod rolz;
pub mod scheduler;
pub mod stream;

pub use chunked::{decompress_chunk, decompress_with_threads, resolved_chunk_rows};
pub use codec::{ChunkCodec, ChunkStats, SymbolWindow, SzChunkCodec, ZfpChunkCodec};
pub use config::{Chunking, CodecChoice, CompressorConfig, LosslessStage};
pub use container::{
    chunk_count, chunk_table, generation_name, peek_header, ChunkCodecKind, ChunkEntry, ChunkTable,
    CompressError, DecompressError, Header,
};
pub use pipeline::{compress, compress_with_report, decompress};
pub use report::{json_escape, json_f64, CompressedOutput, CompressionReport};
pub use rolz::RolzChunkCodec;
pub use scheduler::pick_codec;
pub use scheduler::{choose_codec, CodecDecision};
pub use stream::{
    assemble_rows, ArchiveReader, ArchiveWriter, ChunkSource, ConcurrentReader, FinishedArchive,
    ReadStats,
};
