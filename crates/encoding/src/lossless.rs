//! The optional lossless stage: zero-RLE followed by LZSS.
//!
//! Applied to the Huffman-coded quantization stream exactly as the paper
//! applies Zstandard (§III-B, Fig. 3). The zero-RLE pass captures the
//! dominant effect (runs of the all-zero code bytes under high error
//! bounds); LZSS mops up residual dictionary redundancy. A one-byte header
//! records which passes were applied so decompression is self-describing,
//! and each pass is only kept when it actually shrank the data — mirroring
//! the "optional" nature of the stage.
//!
//! LZSS, the costly pass, only runs when [`cannot_shrink`] has not proved
//! that its output would be larger than its input: a skipped pass is one
//! whose output would have been discarded, so the bytes are those of always
//! running it.

use crate::lzss::{cannot_shrink, lzss_compress, lzss_decompress_bounded};
use crate::rle::{rle_compress, rle_decompress_bounded};

const FLAG_RLE: u8 = 0b01;
const FLAG_LZSS: u8 = 0b10;

/// Marker byte collapsed by the RLE pass. A Huffman stream dominated by a
/// short zero-code produces long runs of 0x00 bytes.
const RLE_MARKER: u8 = 0x00;

/// Compress `input` with the optional lossless pipeline.
pub fn lossless_compress(input: &[u8]) -> Vec<u8> {
    let mut flags = 0u8;
    let mut cur: Vec<u8>;

    let rle = rle_compress(input, RLE_MARKER);
    if rle.len() < input.len() {
        flags |= FLAG_RLE;
        cur = rle;
    } else {
        cur = input.to_vec();
    }

    if !cannot_shrink(&cur) {
        let lz = lzss_compress(&cur);
        if lz.len() < cur.len() {
            flags |= FLAG_LZSS;
            cur = lz;
        }
    }

    let mut out = Vec::with_capacity(cur.len() + 1);
    out.push(flags);
    out.extend_from_slice(&cur);
    out
}

/// Inverse of [`lossless_compress`], refusing to produce more than
/// `max_len` bytes. Returns `None` on malformed input.
///
/// The caller says how large the decoded stream can legitimately be (e.g.
/// a Huffman payload bounded by its symbol count), so corrupt run lengths
/// fail cleanly *before* allocating, instead of being caught only by the
/// coders' coarse internal caps.
pub fn lossless_decompress_bounded(input: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let (&flags, rest) = input.split_first()?;
    if flags & !(FLAG_RLE | FLAG_LZSS) != 0 {
        return None;
    }
    let mut cur = rest.to_vec();
    if flags & FLAG_LZSS != 0 {
        cur = lzss_decompress_bounded(&cur, max_len)?;
    }
    if flags & FLAG_RLE != 0 {
        if cur.len() > max_len {
            return None;
        }
        cur = rle_decompress_bounded(&cur, RLE_MARKER, max_len)?;
    }
    if cur.len() > max_len {
        return None;
    }
    Some(cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_zero_heavy() {
        let mut data = vec![0u8; 4096];
        for i in (0..4096).step_by(97) {
            data[i] = (i % 251) as u8;
        }
        let c = lossless_compress(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(lossless_decompress_bounded(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible_expands_at_most_one_byte_plus_header() {
        let data: Vec<u8> =
            (0..3000u32).map(|i| (i.wrapping_mul(0x45d9f3b).rotate_left(11) >> 5) as u8).collect();
        let c = lossless_compress(&data);
        assert_eq!(lossless_decompress_bounded(&c, data.len()).unwrap(), data);
        assert!(c.len() <= data.len() + 1);
    }

    #[test]
    fn roundtrip_empty() {
        let c = lossless_compress(&[]);
        assert_eq!(lossless_decompress_bounded(&c, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(lossless_decompress_bounded(&[0xff, 1, 2, 3], 3).is_none());
        assert!(lossless_decompress_bounded(&[], 0).is_none());
    }

    #[test]
    fn ratio_improves_with_zero_density() {
        // More zeros => better ratio, the monotonicity the paper's Eq. 4
        // predicts.
        let make = |stride: usize| {
            let mut d = vec![0u8; 10_000];
            for i in (0..10_000).step_by(stride) {
                d[i] = 1 + (i % 200) as u8;
            }
            d
        };
        let sparse = lossless_compress(&make(50)).len();
        let dense = lossless_compress(&make(3)).len();
        assert!(sparse < dense, "sparse {sparse} dense {dense}");
    }
}
