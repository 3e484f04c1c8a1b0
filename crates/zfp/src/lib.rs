//! A ZFP-style transform-based error-bounded lossy codec.
//!
//! The paper's conclusion names the transform-based ZFP compressor
//! (Lindstrom, TVCG'14) as the next target for ratio-quality modeling, and
//! its references compare SZ against ZFP throughout (e.g. the automatic
//! online selection of Tao et al., TPDS'19). This crate provides that
//! comparator, re-implemented from scratch with the same architecture as
//! the original:
//!
//! 1. the field is split into 4^d blocks ([`block`]),
//! 2. each block is converted to block-floating-point (shared exponent)
//!    fixed-point integers,
//! 3. a reversible integer lifting transform decorrelates each dimension
//!    ([`transform`]),
//! 4. coefficients are coded bitplane by bitplane, most significant first,
//!    with per-plane significance flags ([`codec`]), truncated at the
//!    plane that guarantees the requested absolute error bound.
//!
//! It is *not* bit-compatible with libzfp (the embedded coder is a
//! simplified significance scheme rather than zfp's group-testing coder),
//! but it has the defining behaviour of the family: smooth-block energy
//! compaction, graceful bitplane truncation, and an absolute error
//! guarantee — which is what the rate-distortion comparison benches need.

#![forbid(unsafe_code)]

pub mod block;
pub mod codec;
pub mod transform;

pub use codec::{zfp_compress, zfp_compress_slice, zfp_decompress_into, ZfpError};
