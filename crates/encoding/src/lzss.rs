//! LZSS dictionary coder with hash-chain match search.
//!
//! This is the workspace's stand-in for Zstandard's dictionary stage (the
//! offline crate set contains no zstd binding, and DESIGN.md §4 argues the
//! substitution is behaviour-preserving for this workload: the paper itself
//! models the lossless stage as pure run-length behaviour).
//!
//! Format: a bit-level stream of tokens.
//! * `1` + 8 bits        → literal byte
//! * `0` + 16-bit offset + 8-bit length → match of `length + MIN_MATCH`
//!   bytes at distance `offset + 1` (up to 64 KiB window).
//!
//! Most inputs this coder sees (Huffman payloads) are close to random bytes,
//! and on them the match search is the whole cost and its output is larger
//! than its input. [`cannot_shrink`] proves that case from a one-pass 4-gram
//! count, so a caller that keeps the output only when it is smaller can skip
//! the search without changing a byte.

use crate::bitio::{BitReader, BitWriter};
use crate::bytescan::common_prefix;
use crate::varint::{get_uvarint, put_uvarint};

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
/// Cap on hash-chain probes per position; bounds worst-case time.
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Whether [`lzss_compress`] is certain to return more bytes than `input`
/// holds, decided by counting repeated 4-grams instead of searching matches.
///
/// Call a position *repeat* if the 4-gram starting there also starts at an
/// earlier position, and let `R` count them. A match of length `len ≥ 4` at
/// distance `d` covers `len − 3` repeat positions (its 4-grams recur `d`
/// bytes back), and matches are disjoint, so with `M` matches covering `C`
/// bytes, `S = Σ(len − 3) ≤ R`, `M ≤ S` and `C = S + 3M`. Literals cost 9
/// bits and matches 25, so the token stream is
/// `9(m − C) + 25M = 9m − 9S − 2M ≥ 9m − 11R` bits for an `m`-byte input,
/// after a length varint of at least one byte. Hence `11·R ≤ m` gives an
/// output of at least `1 + m` bytes, whatever parse the search finds.
///
/// `R` is over-counted, never under-counted, by a bitset of 4-gram hashes of
/// every earlier position (a collision only adds a repeat, and the count
/// ignores the 64 KiB window), so a `true` is never wrong. The bitset has
/// 16 bits per input byte rounded up to a power of two (capped at 2³² bits)
/// — between ¼ and ½ of the `prev` array [`lzss_compress`] allocates — which
/// keeps false repeats under 1 in 16 positions; counting stops as soon as
/// the count passes `m / 11`.
pub fn cannot_shrink(input: &[u8]) -> bool {
    let m = input.len() as u64;
    let bits = (m * 16).next_power_of_two().clamp(64, 1 << 32);
    let shift = 64 - bits.trailing_zeros();
    let mut seen = vec![0u64; (bits / 64) as usize];
    let mut repeats = 0u64;
    for gram in input.windows(MIN_MATCH) {
        let v = u32::from_le_bytes([gram[0], gram[1], gram[2], gram[3]]) as u64;
        let h = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let (word, bit) = (&mut seen[h / 64], 1u64 << (h % 64));
        if *word & bit != 0 {
            repeats += 1;
            if 11 * repeats > m {
                return false;
            }
        }
        *word |= bit;
    }
    true
}

/// Compress `input`. Output starts with a varint of the original length.
pub fn lzss_compress(input: &[u8]) -> Vec<u8> {
    let mut header = Vec::new();
    put_uvarint(&mut header, input.len() as u64);
    let mut w = BitWriter::new();

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len().max(1)];
    let mut i = 0;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let here = u32::from_le_bytes(input[i..i + MIN_MATCH].try_into().unwrap());
            let mut cand = head[h];
            let mut probes = 0;
            let limit = (input.len() - i).min(MAX_MATCH);
            while cand != usize::MAX && probes < MAX_CHAIN {
                let dist = i - cand;
                if dist > WINDOW {
                    break;
                }
                // Cheap filters that never change which candidate wins
                // (first-to-improve, same as the scalar loop). Before any
                // match is found: a candidate that differs inside the
                // first MIN_MATCH bytes can only yield a sub-MIN_MATCH
                // prefix, which is emitted as a literal either way — and
                // recording such a "best" never changes later decisions,
                // because the one-byte probe below only ever skips
                // candidates whose prefix ends at or before `best_len`.
                // Once a match exists: a candidate can only beat
                // `best_len` if it matches at that offset too.
                let viable = if best_len == 0 {
                    u32::from_le_bytes(input[cand..cand + MIN_MATCH].try_into().unwrap()) == here
                } else {
                    best_len < limit && input[cand + best_len] == input[i + best_len]
                };
                if !viable {
                    cand = prev[cand];
                    probes += 1;
                    continue;
                }
                let l = common_prefix(&input[cand..], &input[i..], limit);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                probes += 1;
            }
        }
        if best_len >= MIN_MATCH {
            // One staged append per token: 0 flag + 16-bit offset +
            // 8-bit length as a single 25-bit value (identical bytes to
            // the three separate appends of the reference coder).
            w.put_bits((((best_dist - 1) << 8) | (best_len - MIN_MATCH)) as u64, 25);
            // Insert every covered position into the hash chains.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= input.len() {
                    let h = hash4(&input[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            // 1 flag + literal byte as one 9-bit append.
            w.put_bits(0x100 | input[i] as u64, 9);
            if i + MIN_MATCH <= input.len() {
                let h = hash4(&input[i..]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    header.extend_from_slice(&w.finish());
    header
}

/// Inverse of [`lzss_compress`]. Returns `None` on malformed input.
pub fn lzss_decompress(input: &[u8]) -> Option<Vec<u8>> {
    lzss_decompress_bounded(input, usize::MAX)
}

/// [`lzss_decompress`] refusing declared output sizes beyond `max_len`
/// (a coarse 2³⁴-byte cap applies regardless), so corrupt headers fail
/// before allocating.
pub fn lzss_decompress_bounded(input: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut pos = 0;
    let n = get_uvarint(input, &mut pos)? as usize;
    if n > (1 << 34) || n > max_len {
        return None; // refuse absurd allocations from corrupt headers
    }
    let mut out = Vec::with_capacity(n);
    let mut r = BitReader::new(&input[pos..]);
    while out.len() < n {
        let lit = r.get_bit()?;
        if lit {
            out.push(r.get_bits(8)? as u8);
        } else {
            let dist = r.get_bits(16)? as usize + 1;
            let len = r.get_bits(8)? as usize + MIN_MATCH;
            if dist > out.len() || out.len() + len > n + MAX_MATCH {
                return None;
            }
            let start = out.len() - dist;
            if dist >= len {
                // Non-overlapping: one bulk copy.
                out.extend_from_within(start..start + len);
            } else if dist == 1 {
                // Run of one byte (the common overlap case): bulk fill.
                let b = out[out.len() - 1];
                out.resize(out.len() + len, b);
            } else {
                // General self-overlapping match: byte-by-byte.
                out.reserve(len);
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out.truncate(n);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cannot_shrink`'s promise, checked against the coder itself.
    fn assert_sound(data: &[u8]) {
        if cannot_shrink(data) {
            assert!(lzss_compress(data).len() > data.len(), "unsound on {} bytes", data.len());
        }
    }

    #[test]
    fn cannot_shrink_short_and_random_inputs() {
        for data in [&[][..], &[7], &[7, 7], &[7, 7, 7]] {
            assert!(cannot_shrink(data), "{data:?}");
            assert_sound(data);
        }
        let mut st = 0x2545_F491_4F6C_DD1Du64;
        let random: Vec<u8> = (0..64 << 10)
            .map(|_| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                st as u8
            })
            .collect();
        assert!(cannot_shrink(&random));
        assert_sound(&random);
    }

    #[test]
    fn could_shrink_runs_and_periods() {
        for data in [vec![0u8; 4096], b"xyz".repeat(2000)] {
            assert!(!cannot_shrink(&data));
            assert!(lzss_compress(&data).len() < data.len());
        }
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabcxyz".repeat(100);
        assert_sound(&data);
        let c = lzss_compress(&data);
        assert!(c.len() < data.len() / 3, "{} vs {}", c.len(), data.len());
        assert_eq!(lzss_decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: must still round-trip, may expand slightly.
        let data: Vec<u8> =
            (0..5000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        assert_sound(&data);
        let c = lzss_compress(&data);
        assert_eq!(lzss_decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [vec![], vec![1u8], vec![1, 2, 3]] {
            assert_sound(&data);
            let c = lzss_compress(&data);
            assert_eq!(lzss_decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn overlapping_match() {
        // A single byte repeated: forces dist=1 self-overlapping matches.
        let data = vec![9u8; 10_000];
        assert_sound(&data);
        let c = lzss_compress(&data);
        assert!(c.len() < 200);
        assert_eq!(lzss_decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_header_is_none() {
        assert!(lzss_decompress(&[0xff]).is_none());
    }

    #[test]
    fn corrupt_match_distance_is_none() {
        // Declared length 8 but an immediate match token with impossible
        // distance.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 8);
        let mut w = BitWriter::new();
        w.put_bit(false);
        w.put_bits(500, 16); // dist 501 > bytes produced so far (0)
        w.put_bits(0, 8);
        buf.extend_from_slice(&w.finish());
        assert!(lzss_decompress(&buf).is_none());
    }

    #[test]
    fn long_runs_hit_max_match() {
        let mut data = vec![0u8; 1000];
        data.extend((0..50).map(|i| i as u8));
        data.extend(vec![0u8; 1000]);
        assert_sound(&data);
        let c = lzss_compress(&data);
        assert_eq!(lzss_decompress(&c).unwrap(), data);
    }
}
