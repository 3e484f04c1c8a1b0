//! Run-length coding of a dominant byte.
//!
//! The paper observes (§III-B) that after an effective prediction the
//! Huffman-coded quantization stream is dominated by the code for "perfect
//! prediction" (the zero quantization code), and that the *entire* benefit
//! of the optional lossless stage is captured by run-length coding those
//! zeros (Eq. 4–8). This module is that mechanism: it collapses runs of one
//! distinguished byte and leaves everything else verbatim.
//!
//! Format, per item:
//! * byte != `marker`  → emitted as-is, except `escape` which is doubled;
//! * run of `marker`^n → `escape`, varint n.
//!
//! `escape` is a fixed byte (0xF7); doubling keeps the format
//! self-delimiting without a bitmap.

use crate::bytescan::{find_byte, find_either, run_end};
use crate::varint::{get_uvarint, put_uvarint};

const ESCAPE: u8 = 0xF7;

/// Compress `input`, collapsing runs of `marker`.
///
/// Runs and literal spans are measured with word-at-a-time scans and
/// copied in bulk; the emitted bytes are identical to a per-byte loop
/// (held so by `tests/kernel_differential.rs`).
pub fn rle_compress(input: &[u8], marker: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        if b == marker {
            let start = i;
            i = run_end(input, i, marker);
            out.push(ESCAPE);
            put_uvarint(&mut out, (i - start) as u64);
        } else if b == ESCAPE {
            out.push(ESCAPE);
            put_uvarint(&mut out, 0); // run of zero markers = literal escape
            i += 1;
        } else {
            // Whole literal span (bytes that are neither marker nor
            // escape) in one copy.
            let start = i;
            i = find_either(input, i, marker, ESCAPE);
            out.extend_from_slice(&input[start..i]);
        }
    }
    out
}

/// Inverse of [`rle_compress`], refusing to produce more than `max_len`
/// bytes: a corrupt run-length varint fails cleanly *before* the
/// allocation it demands. (Even with `max_len == usize::MAX` a coarse
/// 2³⁴-byte cap applies; callers pass the legitimate decoded size.)
/// Returns `None` on malformed input.
pub fn rle_decompress_bounded(input: &[u8], marker: u8, max_len: usize) -> Option<Vec<u8>> {
    let cap = (max_len as u64).min(1 << 34);
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0;
    while pos < input.len() {
        if input[pos] == ESCAPE {
            pos += 1;
            let run = get_uvarint(input, &mut pos)?;
            if run == 0 {
                out.push(ESCAPE);
            } else {
                if run > cap || out.len() as u64 + run > cap {
                    return None;
                }
                // Bulk fill instead of per-byte extend.
                out.resize(out.len() + run as usize, marker);
            }
        } else {
            // Whole literal span up to the next escape in one copy. The
            // per-byte loop failed on the first byte pushed past `cap`,
            // i.e. exactly when the span would overflow it.
            let start = pos;
            pos = find_byte(input, pos, ESCAPE);
            if out.len() as u64 + (pos - start) as u64 > cap {
                return None;
            }
            out.extend_from_slice(&input[start..pos]);
        }
    }
    Some(out)
}

/// Statistics of marker runs in a byte stream — the quantities (`p0`,
/// mean run length `n0`) appearing in the paper's RLE model (Eq. 5–7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Fraction of bytes equal to the marker.
    pub p_marker: f64,
    /// Mean length of maximal marker runs (0 when no marker occurs).
    pub mean_run: f64,
    /// Number of maximal runs.
    pub runs: u64,
}

/// Measure marker-run statistics of `input`.
pub fn run_stats(input: &[u8], marker: u8) -> RunStats {
    let mut marker_bytes = 0u64;
    let mut runs = 0u64;
    let mut in_run = false;
    for &b in input {
        if b == marker {
            marker_bytes += 1;
            if !in_run {
                runs += 1;
                in_run = true;
            }
        } else {
            in_run = false;
        }
    }
    RunStats {
        p_marker: if input.is_empty() { 0.0 } else { marker_bytes as f64 / input.len() as f64 },
        mean_run: if runs == 0 { 0.0 } else { marker_bytes as f64 / runs as f64 },
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_zero_dominated() {
        let mut data = vec![0u8; 1000];
        data[100] = 5;
        data[500] = ESCAPE;
        data[501] = 7;
        let c = rle_compress(&data, 0);
        assert!(c.len() < 20, "compressed to {} bytes", c.len());
        assert_eq!(rle_decompress_bounded(&c, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn absurd_run_length_rejected_not_allocated() {
        // ESCAPE followed by a varint decoding to ~u64::MAX: must return
        // None instead of attempting the allocation, even under no caller
        // limit (the coarse 2³⁴-byte cap is this test's point).
        let mut evil = vec![ESCAPE];
        evil.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        assert!(rle_decompress_bounded(&evil, 0, usize::MAX).is_none());
    }

    #[test]
    fn roundtrip_no_marker() {
        let data: Vec<u8> = (1..=200).collect();
        let c = rle_compress(&data, 0);
        assert_eq!(rle_decompress_bounded(&c, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn roundtrip_all_escape_bytes() {
        let data = vec![ESCAPE; 50];
        let c = rle_compress(&data, 0);
        assert_eq!(rle_decompress_bounded(&c, 0, data.len()).unwrap(), data);
    }

    #[test]
    fn marker_equal_to_escape() {
        // Runs of the escape byte itself, when it is the marker.
        let mut data = vec![ESCAPE; 30];
        data.push(1);
        data.extend_from_slice(&[ESCAPE, ESCAPE]);
        let c = rle_compress(&data, ESCAPE);
        assert_eq!(rle_decompress_bounded(&c, ESCAPE, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        assert_eq!(rle_compress(&[], 0), Vec::<u8>::new());
        assert_eq!(rle_decompress_bounded(&[], 0, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_run_is_none() {
        let data = vec![0u8; 300];
        let c = rle_compress(&data, 0);
        assert!(rle_decompress_bounded(&c[..1], 0, data.len()).is_none());
    }

    #[test]
    fn run_stats_geometric() {
        // 0 0 0 1 0 0 1 ... p0 = 5/7 over the pattern.
        let data = [0, 0, 0, 1, 0, 0, 1];
        let s = run_stats(&data, 0);
        assert!((s.p_marker - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.runs, 2);
        assert!((s.mean_run - 2.5).abs() < 1e-12);
    }

    #[test]
    fn run_stats_empty() {
        let s = run_stats(&[], 9);
        assert_eq!(s.p_marker, 0.0);
        assert_eq!(s.mean_run, 0.0);
    }
}
