//! Analytical ratio-quality model for prediction-based lossy compression.
//!
//! This crate is the paper's primary contribution (§III): given **one**
//! cheap sampling pass over a field (default 1 % of points), it predicts —
//! for *any* error bound, without compressing —
//!
//! * the Huffman bit-rate (Eq. 1) and the optional-lossless ratio via the
//!   RLE model (Eq. 4), hence the overall compression ratio,
//! * the inverse mappings error-bound ← target bit-rate, ← target ratio
//!   and ← target PSNR, each a bisection over the model itself,
//! * the reconstruction-error distribution (Eq. 10 uniform, Eq. 11
//!   refined), and from it PSNR (Eq. 12) and SSIM (Eq. 15).
//!
//! ```
//! use rq_core::RqModel;
//! use rq_datagen::fields;
//! use rq_predict::PredictorKind;
//!
//! let field = fields::qmcpack_einspline();
//! let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.01, 42);
//! let est = model.estimate(1e-3);
//! println!("predicted bit-rate {:.2}, PSNR {:.1} dB", est.bit_rate, est.psnr);
//! // Invert: which error bound hits 2 bits/value?
//! let eb = model.error_bound_for_bit_rate(2.0);
//! assert!((model.estimate(eb).bit_rate - 2.0).abs() < 0.5);
//! ```
//!
//! The three use-cases of §IV live in [`usecases`]: best-predictor
//! selection, fixed-footprint memory compression and in-situ per-partition
//! error-bound optimization.
//!
//! The sample and the Eq. 1 estimate of it — quantize the sampled errors
//! at a bound, take the Huffman rate of that histogram — live one crate
//! down, in [`rq_predict::sample`] and [`rq_predict::histogram`], where the
//! codec scheduler of `rq-compress` reads the same function; this crate
//! adds what only the model has.
//!
//! ## Paper-section map
//!
//! | Module        | Paper section | Implements                               |
//! |---------------|---------------|------------------------------------------|
//! | [`ratio`]     | §III-B, Eq. 4–7 | the lossless-stage (RLE) ratio model   |
//! | [`quality`]   | §III-D, Eq. 10–15 | PSNR / SSIM quality model            |
//! | [`model`]     | §III          | the assembled [`RqModel`]                |
//! | [`usecases`]  | §IV           | the three model-driven use-cases         |

#![warn(missing_docs)]

pub mod model;
pub mod quality;
pub mod ratio;
pub mod usecases;

pub use model::{Estimate, RqModel};
