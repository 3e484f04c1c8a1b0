//! Randomized round-trip tests for every coder in the crate: the
//! invariants that must hold for arbitrary inputs, not just the unit-test
//! vectors.
//!
//! Originally `proptest` properties; rewritten as deterministic seeded
//! fuzz loops because the offline build cannot fetch proptest. Inputs are
//! reproducible for a given seed constant.

use rq_datagen::rng::{seeded, Rng};
use rq_encoding::lzss::{lzss_compress, lzss_decompress_bounded};
use rq_encoding::rle::{rle_compress, rle_decompress_bounded};
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_encoding::{lossless_compress, lossless_decompress_bounded, HuffmanCodec};

/// Deterministic input generator for fuzz-style loops, backed by the
/// workspace's seeded generator, `rq_datagen::rng::Rng`.
struct Fuzz(Rng);

impl Fuzz {
    fn new(seed: u64) -> Self {
        Fuzz(seeded(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.range(lo, hi)
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let n = self.range(0, max_len + 1);
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// Byte vector with long runs and repeated motifs — the inputs RLE and
    /// LZSS actually see (pure noise never exercises their match paths).
    fn structured_bytes(&mut self, max_len: usize) -> Vec<u8> {
        let n = self.range(0, max_len + 1);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.range(0, 3) {
                0 => {
                    let b = self.next_u64() as u8;
                    let run = self.range(1, 40);
                    out.extend(std::iter::repeat_n(b, run.min(n - out.len())));
                }
                1 => {
                    let take = self.range(1, 30).min(n - out.len());
                    for _ in 0..take {
                        let v = self.next_u64() as u8;
                        out.push(v);
                    }
                }
                _ => {
                    if out.is_empty() {
                        out.push(self.next_u64() as u8);
                    } else {
                        let start = self.range(0, out.len());
                        let len = self.range(1, 24).min(out.len() - start).min(n - out.len());
                        let motif: Vec<u8> = out[start..start + len].to_vec();
                        out.extend(motif);
                    }
                }
            }
        }
        out
    }
}

const CASES: usize = 64;

/// The wrapper's stream, pinned: 10 000 rounds of a raw draw and a range
/// draw (every other one over a span past `2^63`, where about half the raw
/// draws are rejected), folded into one FNV-1a digest.
#[test]
fn fuzz_draws_are_pinned() {
    let mut fz = Fuzz::new(0x5EED);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..10_000usize {
        let hi = if i % 2 == 0 { i + 1 + i * 31 } else { (1 << 63) + i };
        for x in [fz.next_u64(), fz.range(i, hi) as u64] {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(h, 0x6bd3_4e3f_6ba1_8c84, "draw digest {h:016x}");
}

#[test]
fn varint_roundtrip() {
    let mut fz = Fuzz::new(0x7A51);
    let mut values: Vec<u64> = (0..CASES).map(|_| fz.next_u64()).collect();
    values.extend([0, 1, 127, 128, 16383, 16384, u64::MAX]);
    for v in values {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    }
}

#[test]
fn rle_roundtrip() {
    let mut fz = Fuzz::new(0x41E1);
    for case in 0..CASES {
        let data = fz.structured_bytes(2000);
        let marker = fz.next_u64() as u8;
        let c = rle_compress(&data, marker);
        assert_eq!(rle_decompress_bounded(&c, marker, data.len()), Some(data), "case {case}");
    }
}

#[test]
fn lzss_roundtrip() {
    let mut fz = Fuzz::new(0x1255);
    for case in 0..CASES {
        let data =
            if case % 2 == 0 { fz.bytes(3000) } else { fz.structured_bytes(3000) };
        let c = lzss_compress(&data);
        assert_eq!(lzss_decompress_bounded(&c, data.len()), Some(data), "case {case}");
    }
}

#[test]
fn lzss_roundtrip_repetitive() {
    let mut fz = Fuzz::new(0x4E9);
    for case in 0..CASES {
        let unit = fz.bytes(15);
        if unit.is_empty() {
            continue;
        }
        let reps = fz.range(1, 200);
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = lzss_compress(&data);
        assert_eq!(lzss_decompress_bounded(&c, data.len()), Some(data), "case {case}");
    }
}

#[test]
fn lossless_roundtrip() {
    let mut fz = Fuzz::new(0x1055);
    for case in 0..CASES {
        let data =
            if case % 2 == 0 { fz.bytes(4000) } else { fz.structured_bytes(4000) };
        let c = lossless_compress(&data);
        assert_eq!(lossless_decompress_bounded(&c, data.len()), Some(data), "case {case}");
    }
}

#[test]
fn lossless_decompress_never_panics() {
    let mut fz = Fuzz::new(0x6A4BA6E);
    for _ in 0..CASES {
        let garbage = fz.bytes(500);
        // No caller limit: only the coders' own caps stand between garbage
        // and an allocation. May be None, must not panic.
        let _ = lossless_decompress_bounded(&garbage, usize::MAX);
    }
}

#[test]
fn huffman_roundtrip() {
    let mut fz = Fuzz::new(0x40FF);
    for case in 0..CASES {
        let n = fz.range(1, 3000);
        let symbols: Vec<u32> = (0..n).map(|_| fz.range(0, 64) as u32).collect();
        let mut counts = vec![0u64; 64];
        for &s in &symbols {
            counts[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_counts(&counts).unwrap();
        let bytes = codec.encode(&symbols).unwrap();
        assert_eq!(codec.decode(&bytes, symbols.len()).unwrap(), symbols, "case {case}");
    }
}

#[test]
fn huffman_codebook_roundtrip() {
    let mut fz = Fuzz::new(0xB00C);
    for case in 0..CASES {
        let n = fz.range(1, 300);
        let counts: Vec<u64> = (0..n).map(|_| fz.range(0, 10_000) as u64).collect();
        if counts.iter().all(|&c| c == 0) {
            continue;
        }
        let codec = HuffmanCodec::from_counts(&counts).unwrap();
        let book = codec.serialize_codebook();
        let (codec2, used) = HuffmanCodec::deserialize_codebook(&book).unwrap();
        assert_eq!(used, book.len(), "case {case}");
        for s in 0..counts.len() as u32 {
            assert_eq!(codec.code_len(s), codec2.code_len(s), "case {case} symbol {s}");
        }
    }
}

#[test]
fn huffman_decode_garbage_never_panics() {
    let mut fz = Fuzz::new(0x6A4B);
    let codec = HuffmanCodec::from_counts(&[10, 5, 3, 1]).unwrap();
    for _ in 0..CASES {
        let garbage = fz.bytes(200);
        if garbage.is_empty() {
            continue;
        }
        let n = fz.range(1, 100);
        let _ = codec.decode(&garbage, n); // may error, must not panic
    }
}
