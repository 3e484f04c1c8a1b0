//! Entropy/dictionary coding substrate for the SZ3-style compressor.
//!
//! The paper's encoding stage (§II-B, §III-B) is a Huffman coder over
//! quantization codes followed by an *optional* lossless coder (Zstandard in
//! the paper). This crate implements, from scratch:
//!
//! * [`bitio`] — MSB-first bit-level reader/writer,
//! * [`varint`] — LEB128 unsigned varints used by container headers,
//! * [`huffman`] — canonical Huffman codec with a compact serialized
//!   codebook (code lengths only),
//! * [`rle`] — run-length coding of the dominant (zero) symbol, the
//!   mechanism the paper models in Eq. 4–8,
//! * [`lzss`] — an LZ77-family dictionary coder with hash-chain match
//!   search, and an exact one-pass bound that says when its output cannot
//!   be smaller than its input; combined with the zero-RLE pass it stands
//!   in for Zstandard (see DESIGN.md §4 for why this substitution preserves
//!   behaviour).
//!
//! ## Paper-section map
//!
//! | Module      | Paper section | Implements                              |
//! |-------------|---------------|-----------------------------------------|
//! | [`huffman`] | §II-B, Eq. 1  | the entropy stage whose bit-rate Eq. 1 predicts |
//! | [`rle`]     | §III-B, Eq. 4–8 | the zero-run behaviour behind the lossless-ratio model |
//! | [`lzss`]    | §III-B        | dictionary stage of the Zstandard stand-in |
//! | [`bitio`], [`varint`] | —   | serialization substrate (container headers, codebooks) |
//!
//! The hot paths (Huffman decode, bit I/O, RLE/LZSS inner loops) are
//! table-driven / word-at-a-time kernels, and the only implementation
//! shipped. `tests/kernel_differential.rs` holds them byte-identical to
//! frozen copies of the scalar coders they replaced, which live on the
//! test side only (`tests/frozen_kernels`).

pub mod bitio;
mod bytescan;
/// Word-at-a-time byte scanning primitives shared with downstream match
/// finders (the ROLZ residual coder extends matches through
/// [`common_prefix`]).
pub use bytescan::common_prefix;
pub mod huffman;
pub mod lossless;
pub mod lzss;
pub mod rle;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use huffman::{HuffmanCodec, HuffmanError};
pub use lossless::{lossless_compress, lossless_decompress, lossless_decompress_bounded};
