//! Linear-scaling error-bounded quantization (paper §II-B).
//!
//! Prediction-based compressors quantize each *prediction error* to an
//! integer code on a uniform grid of bin size `2 × error_bound`; the
//! reconstruction `prediction + code × 2eb` is then guaranteed to be within
//! `error_bound` of the original value. Codes outside a bounded radius are
//! rejected and the value stored verbatim (the "unpredictable" escape path).
//!
//! ## Paper-section map
//!
//! | Module        | Paper section | Implements                               |
//! |---------------|---------------|------------------------------------------|
//! | [`bound`]     | §II-B         | abs / value-range-rel / point-wise-rel bounds |
//! | [`quantizer`] | §II-B, §III-C2 | the linear-scaling quantizer whose bins the model's histogram estimation targets |

#![forbid(unsafe_code)]

pub mod bound;
pub mod quantizer;

pub use bound::ErrorBoundMode;
pub use quantizer::{LinearQuantizer, DEFAULT_RADIUS};
