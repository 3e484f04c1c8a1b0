//! Differential kernel harness: the codec kernels against frozen scalar
//! implementations and against pinned chunk outputs.
//!
//! The rework that introduced the table-driven Huffman decoder, the 64-bit
//! bit I/O, the word-at-a-time RLE/LZSS loops and the row-specialized
//! Lorenzo traversal kept the **container byte format and every decoded
//! value bit-identical**. This suite is what holds that claim:
//!
//! * every byte-level kernel (bitio, Huffman, RLE, LZSS, the combined
//!   lossless stage) is run against its frozen scalar copy
//!   (`frozen_kernels`) across skewed / uniform / adversarial inputs and
//!   every buffer length in `0..=65` (the range that covers all 64-bit
//!   refill boundary cases), and the combined stage again on 4 KiB – 1 MiB
//!   inputs on both sides of the bound that lets it skip LZSS;
//! * the order-1 Lorenzo traversal is compared reconstruction-for-
//!   reconstruction (exact `f64` bits) against the generic stencil walk
//!   over 1-D..4-D shapes;
//! * whole SZ and ROLZ chunk blobs, for `f32` and `f64`, the values they
//!   decode to, and the ROLZ decoder's verdicts on corrupt blobs are pinned
//!   as folded FNV-1a digests (`*_PINS`). The pins were asserted on the
//!   scalar chunk path and the fast one alike before the scalar path left
//!   the library, so they are its output;
//! * the committed `tests/data/golden_huffman_*.bin` /
//!   `golden_lossless_rlelzss.bin` fixtures — encoded by the
//!   **pre-rework** coder — still decode exactly, and re-encoding the
//!   frozen streams reproduces the committed bytes.
//!
//! The symbol/byte-stream formulas here are frozen copies of
//! `examples/make_golden_entropy.rs`; never change either
//! side.

mod frozen_kernels;

use frozen_kernels::{
    lossless_compress_ref, lossless_decompress_bounded_ref, lzss_compress_ref,
    lzss_decompress_bounded_ref, rle_compress_ref, rle_decompress_bounded_ref,
    traverse_lorenzo1_generic, CanonicalCode, RefBitReader, RefBitWriter,
};
use rqm::compress_crate::kernels::{pointwise_codec, traverse_lorenzo};
use rqm::compress_crate::{ChunkCodec, LosslessStage, RolzChunkCodec, SzChunkCodec};
use rqm::encoding::huffman::HuffmanCodec;
use rqm::encoding::lossless::{lossless_compress, lossless_decompress_bounded};
use rqm::encoding::rle::{rle_compress, rle_decompress_bounded};
use rqm::encoding::varint::get_uvarint;
use rqm::encoding::{lzss, BitReader, BitWriter};
use rqm::grid::{Scalar, Shape};
use rqm::predict::PredictorKind;
use rqm::quant::LinearQuantizer;

/// The one RNG every generator here uses, frozen (xorshift64).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// bit I/O
// ---------------------------------------------------------------------------

#[test]
fn bitio_writer_matches_reference() {
    let stream = |st: &mut u64, n_puts: usize, what: &str| {
        let mut fast = BitWriter::new();
        let mut reference = RefBitWriter::new();
        for _ in 0..n_puts {
            let len = (xorshift(st) % 65) as u32;
            let val = xorshift(st);
            fast.put_bits(val, len);
            reference.put_bits(val, len);
            assert_eq!(fast.bit_len(), reference.bit_len(), "{what}");
        }
        assert_eq!(fast.finish(), reference.finish(), "{what}");
    };
    let mut st = 0xB17_0B17_0B17u64;
    for round in 0..64 {
        stream(&mut st, round * 3, &format!("round {round}"));
    }
    stream(&mut 0x243F_6A88_85A3_08D3, 10_000, "long stream");
}

#[test]
fn bitio_reader_matches_reference() {
    let mut st = 0x00DD_5EED_u64;
    for len in 0..=65usize {
        let buf: Vec<u8> = (0..len).map(|_| xorshift(&mut st) as u8).collect();
        let mut fast = BitReader::new(&buf);
        let mut reference = RefBitReader::new(&buf);
        // Read in randomized widths until both refuse; they must agree on
        // every value and on exactly where the stream ends.
        loop {
            let w = (xorshift(&mut st) % 65) as u32;
            let a = fast.get_bits(w);
            let b = reference.get_bits(w);
            assert_eq!(a, b, "len {len} width {w}");
            assert_eq!(fast.position(), reference.position());
            if a.is_none() {
                break;
            }
        }
        // Drain whatever is left one bit at a time — both must agree on
        // every bit and then refuse identically past the end.
        loop {
            let a = fast.get_bit();
            let b = reference.get_bit();
            assert_eq!(a, b, "len {len} drain at {}", reference.position());
            if a.is_none() {
                break;
            }
        }
        assert_eq!(fast.position(), reference.position());
    }
}

// ---------------------------------------------------------------------------
// byte-stream kernels (RLE / LZSS / combined lossless)
// ---------------------------------------------------------------------------

/// Base byte streams: skewed (zero-dominated, like Huffman output after a
/// good prediction), uniform random, and adversarial (escape runs, marker
/// runs abutting 8-byte scan boundaries, repeated text).
fn byte_streams() -> Vec<(&'static str, Vec<u8>)> {
    let mut st = 0x5EED_F00Du64;
    let skewed: Vec<u8> = (0..256)
        .map(|_| {
            let r = xorshift(&mut st);
            match r % 10 {
                0..=7 => 0u8,
                8 => 0xF7,
                _ => (r >> 8) as u8,
            }
        })
        .collect();
    let uniform: Vec<u8> = (0..256).map(|_| xorshift(&mut st) as u8).collect();
    let mut adversarial = Vec::new();
    // Escape byte runs, zero runs straddling every offset mod 8, text.
    for k in 0..8 {
        adversarial.extend(std::iter::repeat_n(0xF7u8, k + 1));
        adversarial.extend(std::iter::repeat_n(0u8, 7 + k));
        adversarial.extend_from_slice(b"abcabcabcabc");
        adversarial.push(0xF7);
        adversarial.push(k as u8);
    }
    vec![("skewed", skewed), ("uniform", uniform), ("adversarial", adversarial)]
}

#[test]
fn rle_matches_reference() {
    for (name, base) in byte_streams() {
        for marker in [0u8, 0xF7] {
            for len in (0..=65).chain([base.len()]) {
                let input = &base[..len.min(base.len())];
                let fast = rle_compress(input, marker);
                let reference = rle_compress_ref(input, marker);
                assert_eq!(fast, reference, "{name} marker {marker} len {len}");
                // Decode side: the compressed stream, every truncation of
                // it, and a tight + loose output bound.
                for cut in 0..=fast.len() {
                    for cap in [input.len(), usize::MAX] {
                        assert_eq!(
                            rle_decompress_bounded(&fast[..cut], marker, cap),
                            rle_decompress_bounded_ref(&fast[..cut], marker, cap),
                            "{name} marker {marker} len {len} cut {cut}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lzss_matches_reference() {
    for (name, base) in byte_streams() {
        for len in (0..=65).chain([base.len()]) {
            let input = &base[..len.min(base.len())];
            let fast = lzss::lzss_compress(input);
            let reference = lzss_compress_ref(input);
            assert_eq!(fast, reference, "{name} len {len}");
            for cut in 0..=fast.len() {
                assert_eq!(
                    lzss::lzss_decompress_bounded(&fast[..cut], usize::MAX),
                    lzss_decompress_bounded_ref(&fast[..cut], usize::MAX),
                    "{name} len {len} cut {cut}"
                );
            }
        }
    }
}

#[test]
fn lossless_stage_matches_reference() {
    for (name, base) in byte_streams() {
        for len in (0..=65).chain([base.len()]) {
            let input = &base[..len.min(base.len())];
            let fast = lossless_compress(input);
            let reference = lossless_compress_ref(input);
            assert_eq!(fast, reference, "{name} len {len}");
            assert_eq!(
                lossless_decompress_bounded(&fast, input.len()).as_deref(),
                Some(input),
                "{name} len {len}"
            );
            for cut in 0..fast.len() {
                assert_eq!(
                    lossless_decompress_bounded(&fast[..cut], input.len()),
                    lossless_decompress_bounded_ref(&fast[..cut], input.len()),
                    "{name} len {len} cut {cut}"
                );
            }
        }
    }
}

/// Inputs of 4 KiB – 1 MiB on both sides of `lzss::cannot_shrink`'s bound:
/// random bytes, Huffman payloads of i.i.d. geometric symbols at 1–8
/// bits/symbol, and random bytes with 32-byte spans copied from up to 4 KiB
/// back, whose repeated 4-grams cover from about 1 % to 22 % of the input
/// (the bound sits at 1/11 ≈ 9 %).
fn bound_streams() -> Vec<(String, Vec<u8>)> {
    let mut st = 0xB00D_5EEDu64;
    let mut random = |n: usize| -> Vec<u8> { (0..n).map(|_| xorshift(&mut st) as u8).collect() };
    let mut out: Vec<(String, Vec<u8>)> = [4 << 10, 64 << 10, 1 << 20]
        .into_iter()
        .map(|n| (format!("random {n}"), random(n)))
        .collect();
    // Success probabilities whose geometric entropy is 1, 2, …, 8 bits.
    let ps = [0.7729, 0.5, 0.2893, 0.1564, 0.0815, 0.0416, 0.021, 0.0106];
    let mut st = 0x6_E03E_741Cu64;
    for (bits, p) in (1..).zip(ps) {
        // About 8 KiB of payload each; 320 KiB at 5 bits/symbol, the rate of
        // the benchmark's 39 MB Lorenzo archive, whose payloads must skip LZSS.
        let n = if bits == 5 { 1 << 19 } else { (8 << 13) / bits };
        let q = (1.0f64 - p).ln();
        let symbols: Vec<u32> = (0..n)
            .map(|_| {
                let u = (xorshift(&mut st) >> 11) as f64 / (1u64 << 53) as f64;
                ((1.0 - u).ln() / q).min(2047.0) as u32
            })
            .collect();
        let mut hist = vec![0u64; 2048];
        for &s in &symbols {
            hist[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_counts(&hist).expect("histogram");
        out.push((format!("geometric {bits} bits"), codec.encode(&symbols).expect("encode")));
    }
    let mut st = 0xC_09E5_9A45u64;
    // A copy starts at a position with probability `per_10k` / 10 000.
    for per_10k in [4, 8, 12, 16, 20, 25, 30, 45, 60, 90] {
        let mut bytes: Vec<u8> = (0..8 << 10).map(|_| xorshift(&mut st) as u8).collect();
        let mut at = 64;
        while at + 64 <= bytes.len() {
            if xorshift(&mut st) % 10_000 < per_10k {
                let from = at - 1 - (xorshift(&mut st) % (at as u64 - 1).min(4000)) as usize;
                bytes.copy_within(from..from + 32, at);
                at += 32;
            } else {
                at += 1;
            }
        }
        out.push((format!("copied spans {per_10k}/10k"), bytes));
    }
    out
}

#[test]
fn lossless_stage_matches_reference_across_the_bound() {
    let (mut skipped, mut searched) = (0, 0);
    for (name, input) in bound_streams() {
        let fast = lossless_compress(&input);
        assert_eq!(fast, lossless_compress_ref(&input), "{name}");
        assert_eq!(
            lossless_decompress_bounded(&fast, input.len()).as_deref(),
            Some(&input[..]),
            "{name}"
        );
        let skip = lzss::cannot_shrink(&input);
        if skip {
            assert!(
                lzss::lzss_compress(&input).len() > input.len(),
                "{name}: the bound is unsound"
            );
            skipped += 1;
        } else {
            searched += 1;
        }
        assert!(skip || name != "geometric 5 bits", "{name}: a Huffman payload no longer skips LZSS");
        if input.len() <= 64 << 10 {
            for cut in 0..fast.len() {
                assert_eq!(
                    lossless_decompress_bounded(&fast[..cut], input.len()),
                    lossless_decompress_bounded_ref(&fast[..cut], input.len()),
                    "{name} cut {cut}"
                );
            }
        }
    }
    assert!(skipped > 0 && searched > 0, "skipped {skipped}, searched {searched}");
}

// ---------------------------------------------------------------------------
// Huffman (frozen fixture formulas, also used by the golden compat tests)
// ---------------------------------------------------------------------------

fn skewed_symbols() -> Vec<u32> {
    let mut st = 0x9E37_79B9_7F4A_7C15u64;
    (0..6000)
        .map(|_| {
            let r = xorshift(&mut st);
            match r % 100 {
                0..=69 => 512,
                70..=79 => 511,
                80..=89 => 513,
                90..=93 => 510,
                94..=97 => 514,
                _ => ((r / 100) % 1024) as u32,
            }
        })
        .collect()
}

fn uniform_symbols() -> Vec<u32> {
    let mut st = 0x0123_4567_89AB_CDEFu64;
    (0..4096).map(|_| (xorshift(&mut st) % 300) as u32).collect()
}

fn deep_symbols() -> Vec<u32> {
    let mut counts = [0u64; 16];
    let (mut a, mut b) = (1u64, 1u64);
    for c in counts.iter_mut() {
        *c = a;
        let next = a + b;
        a = b;
        b = next;
    }
    let mut stream = Vec::new();
    for (s, &c) in counts.iter().enumerate() {
        stream.extend(std::iter::repeat_n(s as u32, c as usize));
    }
    let mut st = 0xDEAD_BEEF_CAFE_F00Du64;
    for i in (1..stream.len()).rev() {
        let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

fn single_symbols() -> Vec<u32> {
    vec![3u32; 500]
}

fn symbol_streams() -> Vec<(&'static str, Vec<u32>, usize)> {
    vec![
        ("skewed", skewed_symbols(), 1024),
        ("uniform", uniform_symbols(), 300),
        ("deep", deep_symbols(), 16),
        ("single", single_symbols(), 8),
    ]
}

#[test]
fn huffman_matches_reference() {
    for (name, stream, alphabet) in symbol_streams() {
        let mut hist = vec![0u64; alphabet];
        for &s in &stream {
            hist[s as usize] += 1;
        }
        let codec = HuffmanCodec::from_counts(&hist).expect("histogram");
        let frozen = CanonicalCode::of(&codec);
        // Every prefix length 0..=65 plus the full stream: encode must be
        // byte-identical and both decoders must reproduce the symbols.
        for len in (0..=65).chain([stream.len()]) {
            let prefix = &stream[..len.min(stream.len())];
            let fast = codec.encode(prefix).expect("encode");
            assert_eq!(fast, frozen.encode(prefix), "{name} len {len}");
            assert_eq!(
                codec.decode(&fast, prefix.len()).expect("decode"),
                prefix,
                "{name} len {len}"
            );
            assert_eq!(frozen.decode(&fast, prefix.len()).as_deref(), Some(prefix), "{name} len {len}");
            // Truncations: both decoders must refuse exactly the same
            // payloads (the error text may differ; accept/reject may not).
            for cut in 0..fast.len() {
                assert_eq!(
                    codec.decode(&fast[..cut], prefix.len()).is_ok(),
                    frozen.decode(&fast[..cut], prefix.len()).is_some(),
                    "{name} len {len} cut {cut}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lorenzo traversal
// ---------------------------------------------------------------------------

/// A deterministic decode-like visit: the reconstruction nudges the
/// prediction by a pseudorandom per-point quantum, so prediction errors
/// propagate through the causal feedback exactly as in a real decode.
fn synthetic_visit(lin: usize, pred: f64) -> Result<f64, rqm::compress_crate::DecompressError> {
    let mut h = lin as u64 ^ 0xA0B1_C2D3_E4F5_0617;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    let step = ((h >> 40) as i64 - (1 << 23)) as f64 / (1u64 << 23) as f64;
    Ok(pred + step)
}

#[test]
fn lorenzo_traversal_matches_generic() {
    let mut shapes: Vec<Shape> = (1..=65).map(Shape::d1).collect();
    for r in 1..=6 {
        for c in [1, 2, 3, 7, 8, 9, 16, 17, 33] {
            shapes.push(Shape::d2(r, c));
        }
    }
    for s in [(1, 1, 1), (2, 3, 5), (3, 4, 9), (5, 5, 5), (1, 7, 8), (4, 1, 17)] {
        shapes.push(Shape::d3(s.0, s.1, s.2));
    }
    for s in [(1, 1, 1, 1), (2, 2, 2, 2), (2, 3, 4, 5), (3, 1, 2, 9)] {
        shapes.push(Shape::d4(s.0, s.1, s.2, s.3));
    }
    for shape in shapes {
        let fast = traverse_lorenzo(shape, 1, synthetic_visit).unwrap();
        let generic = traverse_lorenzo1_generic(shape, synthetic_visit).unwrap();
        assert_eq!(fast.len(), generic.len());
        for (i, (a, b)) in fast.iter().zip(&generic).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{shape:?} point {i}: fast {a} vs generic {b}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// pins: what the chunk kernels write and decode, as folded digests
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// A blob: its length, then its bytes.
    fn blob(&mut self, blob: &[u8]) {
        self.word(blob.len() as u64);
        self.bytes(blob);
    }

    /// The bits of decoded values.
    fn values<T: Scalar>(&mut self, values: &[T]) {
        for v in values {
            self.word(v.to_f64().to_bits());
        }
    }

    fn blob_and_values<T: Scalar>(&mut self, blob: &[u8], values: &[T]) {
        self.blob(blob);
        self.values(values);
    }
}

/// The cases of one test folded into one digest. Each case's own digest is
/// kept, so that a mismatch prints them all to diff against a run of the
/// commit that pinned the constant.
struct Pins {
    all: Fnv,
    cases: Vec<(String, u64)>,
}

impl Pins {
    fn new() -> Self {
        Pins { all: Fnv::new(), cases: Vec::new() }
    }

    /// Fold one case: what `fold` feeds a fresh hasher.
    fn case(&mut self, what: String, fold: impl FnOnce(&mut Fnv)) {
        let mut one = Fnv::new();
        fold(&mut one);
        self.all.word(one.0);
        self.cases.push((what, one.0));
    }

    fn check(&self, test: &str, pinned: u64) {
        if self.all.0 != pinned {
            let cases: Vec<String> =
                self.cases.iter().map(|(what, d)| format!("  {d:#018x} {what}")).collect();
            panic!(
                "{test}: digest {:#018x}, pinned {pinned:#018x}; per case:\n{}",
                self.all.0,
                cases.join("\n")
            );
        }
    }
}

/// [`chunk_blobs_and_values_match_reference`]: every SZ blob and its decoded
/// values, `f32` then `f64`.
const SZ_CHUNK_PINS: [u64; 2] = [0xee60_73d6_9c01_96da, 0xf27e_417f_85cc_2c67];
/// [`interpolation_line_kernel_matches_reference`], `f32` then `f64`.
const INTERP_LINE_PINS: [u64; 2] = [0x5020_cff7_5eaf_dad1, 0xfc73_3c96_137c_0420];
/// [`rolz_chunk_blobs_and_values_match_reference`], `f32` then `f64`.
const ROLZ_CHUNK_PINS: [u64; 2] = [0x0cfe_89df_5e9b_78a8, 0x6b9b_d9ed_97bc_c3e5];
/// [`rolz_corrupt_blobs_rejected_as_pinned`]: the blob, then accept/reject
/// and decoded values of every cut and flip.
const ROLZ_CORRUPT_PIN: u64 = 0x40c7_e5cd_608a_2bf5;

// ---------------------------------------------------------------------------
// whole-chunk pipeline
// ---------------------------------------------------------------------------

/// Smooth field + avalanche noise, so residuals are real signal and a
/// small radius forces verbatim escapes into the stream.
fn field<T: Scalar>(shape: Shape) -> Vec<T> {
    let mut out = Vec::with_capacity(shape.len());
    for (lin, ix) in shape.indices().enumerate() {
        let mut v = 0.0f64;
        for (a, &c) in ix.iter().enumerate() {
            v += ((c as f64) * 0.13 * (a + 1) as f64).sin() * (5.0 / (a + 1) as f64);
        }
        let mut h = lin as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
        h ^= h >> 33;
        v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.1;
        out.push(T::from_f64(v));
    }
    out
}

/// Encode `data` through `codec` and decode the blob back.
fn roundtrip<T: Scalar>(codec: &dyn ChunkCodec<T>, data: &[T], shape: Shape) -> (Vec<u8>, Vec<T>) {
    let (blob, _) = codec.encode(data, shape).expect("encode");
    let mut out = vec![T::zero(); shape.len()];
    codec.decode(&blob, shape, &mut out).expect("decode");
    (blob, out)
}

/// [`field`] of three shapes through the codec `codec_of` builds, for the
/// Lorenzo, second-order Lorenzo and interpolation predictors, at a
/// default-like radius (everything quantizes) and a tiny one (the
/// escape/verbatim machinery active): every blob and its decoded values,
/// folded per scalar type, `f32` then `f64`.
fn chunk_pins<C: ChunkCodec<f32> + ChunkCodec<f64>>(
    codec_of: impl Fn(PredictorKind, LinearQuantizer) -> C,
) -> [Pins; 2] {
    let mut pins = [Pins::new(), Pins::new()];
    for shape in [Shape::d1(193), Shape::d2(13, 21), Shape::d3(5, 9, 11)] {
        for predictor in
            [PredictorKind::Lorenzo, PredictorKind::Lorenzo2, PredictorKind::Interpolation]
        {
            for radius in [1 << 15, 8] {
                let codec = codec_of(predictor, LinearQuantizer::new(1e-3, radius));
                let what = format!("{predictor:?} {shape:?} radius {radius}");
                let (blob, out) = roundtrip::<f32>(&codec, &field(shape), shape);
                pins[0].case(what.clone(), |h| h.blob_and_values(&blob, &out));
                let (blob, out) = roundtrip::<f64>(&codec, &field(shape), shape);
                pins[1].case(what, |h| h.blob_and_values(&blob, &out));
            }
        }
    }
    pins
}

#[test]
fn chunk_blobs_and_values_match_reference() {
    let [pins32, pins64] =
        chunk_pins(|predictor, q| SzChunkCodec::new(predictor, q, LosslessStage::RleLzss));
    pins32.check("SZ chunks, f32", SZ_CHUNK_PINS[0]);
    pins64.check("SZ chunks, f64", SZ_CHUNK_PINS[1]);
}

/// The shapes of `rq_predict::interp`'s pass-table tests (extents 1, 2, 3,
/// 5, 17 and 96 in every position a dimension can take, 1-D to 4-D), plus
/// the benchmark's chunk and one with no extent a power of two.
fn interp_shapes() -> Vec<Shape> {
    let mut shapes: Vec<Shape> = [1, 2, 3, 5, 17, 96].iter().map(|&n| Shape::d1(n)).collect();
    shapes.extend([
        Shape::d2(1, 1),
        Shape::d2(2, 17),
        Shape::d2(17, 2),
        Shape::d2(96, 5),
        Shape::d2(3, 96),
        Shape::d3(1, 5, 1),
        Shape::d3(2, 3, 5),
        Shape::d3(17, 1, 96),
        Shape::d3(5, 17, 3),
        Shape::d3(96, 2, 2),
        Shape::d4(1, 2, 3, 5),
        Shape::d4(5, 3, 2, 1),
        Shape::d4(3, 17, 1, 5),
        Shape::d4(2, 2, 17, 3),
        Shape::d3(8, 96, 96),
        Shape::d3(7, 33, 65),
    ]);
    shapes
}

/// Values stored verbatim in an SZ chunk blob: flag byte, codebook section,
/// payload section, then the count.
fn verbatim_count(blob: &[u8]) -> usize {
    let mut pos = 1;
    for _section in ["codebook", "payload"] {
        let len = get_uvarint(blob, &mut pos).expect("section length") as usize;
        pos += len;
    }
    get_uvarint(blob, &mut pos).expect("verbatim count") as usize
}

/// What the line kernel must fall back on: the ways a point of a line can
/// refuse to quantize.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Dirt {
    /// Every line clean (at the default radius).
    None,
    Nan,
    PlusInf,
    MinusInf,
    /// A run of values far outside the field's range.
    Outliers,
    /// Radius 2: a point of most lines is out of range.
    TinyRadius,
    /// Point-wise relative bound (log transform) over a field with zeros and
    /// negative values.
    LogNonPositive,
}

/// Interpolation through the line kernel: the blob and its decoded values
/// folded into `pins`, and the values the field's within the bound.
/// Returns the number of escaped values.
fn interp_line_case<T: Scalar>(shape: Shape, eb: f64, dirt: Dirt, pins: &mut Pins) -> usize {
    let mut data: Vec<T> = field(shape);
    let n = data.len();
    let what = format!("{shape:?} eb {eb} {dirt:?} {}-bit", T::BITS);
    match dirt {
        Dirt::None | Dirt::TinyRadius => {}
        Dirt::Nan => data[n / 2] = T::from_f64(f64::NAN),
        Dirt::PlusInf => data[n - 1] = T::from_f64(f64::INFINITY),
        Dirt::MinusInf => data[n / 3] = T::from_f64(f64::NEG_INFINITY),
        Dirt::Outliers => {
            for v in data.iter_mut().skip(n / 2).take(5) {
                *v = T::from_f64(1e9);
            }
        }
        Dirt::LogNonPositive => {
            for (i, v) in data.iter_mut().enumerate() {
                *v = match i % 17 {
                    0 => T::zero(),
                    5 => T::from_f64(-v.to_f64().abs() - 1.0),
                    _ => T::from_f64(v.to_f64().abs() + 0.25),
                };
            }
        }
    }
    let radius = if dirt == Dirt::TinyRadius { 2 } else { 1 << 15 };
    let codec = if dirt == Dirt::LogNonPositive {
        pointwise_codec(PredictorKind::Interpolation, eb, radius)
    } else {
        let q = LinearQuantizer::new(eb, radius);
        SzChunkCodec::new(PredictorKind::Interpolation, q, LosslessStage::RleLzss)
    };
    let (blob, decoded) = roundtrip(&codec, &data, shape);
    pins.case(what.clone(), |h| h.blob_and_values(&blob, &decoded));
    // The values are the field's, within the bound (escapes exactly).
    for (i, (a, b)) in data.iter().zip(&decoded).enumerate() {
        let (a, b) = (a.to_f64(), b.to_f64());
        let ok = match dirt {
            Dirt::LogNonPositive if a > 0.0 => (a - b).abs() <= eb * a * (1.0 + 1e-5),
            Dirt::LogNonPositive => a.to_bits() == b.to_bits(),
            _ if a.is_finite() => (a - b).abs() <= eb * (1.0 + 1e-6),
            _ => a.to_bits() == b.to_bits(),
        };
        assert!(ok, "{what}: point {i} decoded {a} as {b}");
    }
    verbatim_count(&blob) - rqm::predict::interp::anchors(shape).len()
}

#[test]
fn interpolation_line_kernel_matches_reference() {
    // `field` is a smooth wave plus ±0.05 of noise: these bounds price the
    // noise at about 1, 4 and 12 bits a value.
    let bounds = [5e-2, 4e-3, 1.5e-5];
    let biggest = Shape::d3(8, 96, 96);
    let (mut pins32, mut pins64) = (Pins::new(), Pins::new());
    for shape in interp_shapes() {
        for eb in bounds {
            let clean = interp_line_case::<f32>(shape, eb, Dirt::None, &mut pins32)
                + interp_line_case::<f64>(shape, eb, Dirt::None, &mut pins64);
            // At the widest bound nothing of the benchmark's chunk escapes:
            // every line of it takes the vector route.
            if shape.dims() == biggest.dims() && eb == bounds[0] {
                assert_eq!(clean, 0, "clean field escaped {clean} values at eb {eb}");
            }
            for dirt in [
                Dirt::Nan,
                Dirt::PlusInf,
                Dirt::MinusInf,
                Dirt::Outliers,
                Dirt::TinyRadius,
                Dirt::LogNonPositive,
            ] {
                // Relative bounds in place of absolute ones for the log case.
                let eb = if dirt == Dirt::LogNonPositive { eb.min(1e-2) } else { eb };
                let escapes = interp_line_case::<f32>(shape, eb, dirt, &mut pins32)
                    .min(interp_line_case::<f64>(shape, eb, dirt, &mut pins64));
                // A point that cannot quantize escapes, and an escape is a
                // line that went through the per-point fallback. (Anchors
                // are verbatim anyway; a one-point field is all anchor.)
                let has_targets = shape.len() > rqm::predict::interp::anchors(shape).len();
                let dirty_point_is_a_target = match dirt {
                    Dirt::TinyRadius => shape.len() >= 17,
                    Dirt::LogNonPositive => shape.len() > 5,
                    _ => shape.len() >= 5,
                };
                if has_targets && dirty_point_is_a_target {
                    assert!(escapes > 0, "{shape:?} eb {eb} {dirt:?}: no line fell back");
                }
            }
        }
    }
    pins32.check("interpolation lines, f32", INTERP_LINE_PINS[0]);
    pins64.check("interpolation lines, f64", INTERP_LINE_PINS[1]);
}

#[test]
fn rolz_chunk_blobs_and_values_match_reference() {
    let [pins32, pins64] = chunk_pins(RolzChunkCodec::new);
    pins32.check("ROLZ chunks, f32", ROLZ_CHUNK_PINS[0]);
    pins64.check("ROLZ chunks, f64", ROLZ_CHUNK_PINS[1]);
}

#[test]
fn rolz_corrupt_blobs_rejected_as_pinned() {
    let shape = Shape::d2(13, 21);
    let codec = RolzChunkCodec::new(PredictorKind::Lorenzo, LinearQuantizer::new(1e-3, 1 << 15));
    let decode =
        |blob: &[u8], out: &mut [f32]| ChunkCodec::<f32>::decode(&codec, blob, shape, out).is_ok();
    let (blob, _) = roundtrip::<f32>(&codec, &field(shape), shape);
    let mut out = vec![0f32; shape.len()];
    let mut pins = Pins::new();
    pins.case("blob".into(), |h| h.blob(&blob));
    // Every truncation is refused, and a sweep of byte corruptions is
    // accepted or refused — and decoded — as pinned (never a panic).
    for cut in 0..blob.len() {
        let ok = decode(&blob[..cut], &mut out);
        assert!(!ok, "truncation to {cut} bytes decoded Ok");
        pins.case(format!("cut {cut}"), |h| h.word(ok as u64));
    }
    let mut st = 0x5EED_901E_u64;
    for case in 0..300 {
        let mut m = blob.clone();
        let pos = (xorshift(&mut st) % m.len() as u64) as usize;
        m[pos] ^= 1 << (xorshift(&mut st) % 8);
        let ok = decode(&m, &mut out);
        pins.case(format!("flip {case} at byte {pos}"), |h| {
            h.word(ok as u64);
            if ok {
                h.values(&out);
            }
        });
    }
    pins.check("ROLZ corruptions", ROLZ_CORRUPT_PIN);
}

// ---------------------------------------------------------------------------
// golden entropy-layer fixtures (pre-rework encoder output, committed)
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn golden_huffman_fixtures_decode_exactly() {
    for (name, stream, _alphabet) in symbol_streams() {
        let bytes = fixture(&format!("golden_huffman_{name}.bin"));
        let mut pos = 0;
        let n_symbols = get_uvarint(&bytes, &mut pos).expect("n_symbols") as usize;
        let book_len = get_uvarint(&bytes, &mut pos).expect("book len") as usize;
        let book = &bytes[pos..pos + book_len];
        pos += book_len;
        let payload_len = get_uvarint(&bytes, &mut pos).expect("payload len") as usize;
        let payload = &bytes[pos..pos + payload_len];
        assert_eq!(pos + payload_len, bytes.len(), "{name}: trailing fixture bytes");
        assert_eq!(n_symbols, stream.len(), "{name}");

        let (codec, used) = HuffmanCodec::deserialize_codebook(book).expect("codebook");
        assert_eq!(used, book_len, "{name}: codebook length");
        // The flat-table decoder reads the pre-rework bitstream exactly…
        assert_eq!(codec.decode(payload, n_symbols).expect("decode"), stream, "{name}");
        let frozen = CanonicalCode::of(&codec);
        assert_eq!(frozen.decode(payload, n_symbols), Some(stream.clone()), "{name}");
        // …and the 64-bit writer reproduces it bit-for-bit, as the frozen
        // one does.
        assert_eq!(codec.encode(&stream).expect("encode"), payload, "{name}");
        assert_eq!(frozen.encode(&stream), payload, "{name}");
    }
}

fn lossless_raw() -> Vec<u8> {
    let mut raw = Vec::new();
    let mut st = 0x1357_9BDF_2468_ACE0u64;
    for block in 0..40 {
        raw.extend(std::iter::repeat_n(0u8, 64 + block * 7));
        raw.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        raw.push(0xF7);
        for _ in 0..8 {
            raw.push((xorshift(&mut st) % 251) as u8);
        }
    }
    raw
}

#[test]
fn golden_lossless_fixture_decodes_exactly() {
    let bytes = fixture("golden_lossless_rlelzss.bin");
    let mut pos = 0;
    let raw_len = get_uvarint(&bytes, &mut pos).expect("raw len") as usize;
    let comp = &bytes[pos..];
    let raw = lossless_raw();
    assert_eq!(raw_len, raw.len());
    assert_eq!(lossless_decompress_bounded(comp, raw_len).as_deref(), Some(&raw[..]));
    assert_eq!(lossless_decompress_bounded_ref(comp, raw_len).as_deref(), Some(&raw[..]));
    // Re-encoding the frozen input reproduces the committed bytes.
    assert_eq!(lossless_compress(&raw), comp);
    assert_eq!(lossless_compress_ref(&raw), comp);
}
