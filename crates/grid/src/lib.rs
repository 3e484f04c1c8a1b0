//! N-dimensional array substrate shared by the whole `rqm` workspace.
//!
//! Scientific lossy compressors operate on dense 1–4 dimensional
//! floating-point fields. This crate provides exactly the pieces the rest of
//! the workspace needs and nothing more:
//!
//! * [`Shape`] — dimension/stride bookkeeping with row-major layout,
//! * [`Scalar`] — an abstraction over `f32`/`f64` so every pipeline is
//!   generic over the element type,
//! * [`NdArray`] — an owning dense array with cartesian and block iteration,
//! * [`stats`] — single-pass moments, range and histogram helpers used by
//!   both the compressor and the analytical model.
//!
//! The layout is always row-major (C order, last dimension fastest), which
//! matches the SDRBench binary dumps the paper evaluates on.
//!
//! ## Paper-section map
//!
//! | Module     | Paper context | Role                                        |
//! |------------|---------------|---------------------------------------------|
//! | [`shape`]  | §II-A         | 1–4-D dataset extents of Table I            |
//! | [`mod@array`] | §II-A      | the dense snapshot fields being compressed  |
//! | [`blocks`] | §II-B, §III-C | 6^d blocks (regression predictor, sampling) |
//! | [`chunks`] | §V-F          | axis-0 slabs for the parallel dump pipeline |
//! | [`stats`]  | §III-C/D      | moments/range/histograms feeding the model  |

#![forbid(unsafe_code)]

pub mod array;
pub mod blocks;
pub mod chunks;
pub mod scalar;
pub mod shape;
pub mod stats;

pub use array::NdArray;
pub use blocks::{BlockIter, BlockSpec};
pub use chunks::{auto_chunk_rows, slab_chunks, ChunkSpec};
pub use scalar::Scalar;
pub use shape::{Shape, MAX_DIMS};
