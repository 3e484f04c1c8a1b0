//! Regenerate the golden entropy-layer fixtures under `tests/data/`.
//!
//! These pin the *bit-level* Huffman / lossless formats: each fixture is a
//! codebook + payload encoded by the coder at the time the fixture was
//! committed. The compat tests in `tests/kernel_differential.rs` decode
//! them and also re-encode the frozen symbol streams, asserting the bytes
//! still match — so any accidental bitstream change (not just a failed
//! round-trip) is caught against bytes in git.
//!
//! The symbol-stream formulas are frozen here and duplicated in the compat
//! test; never change either side. Run only if a fixture for a **new**
//! stream shape is being introduced:
//!
//! ```sh
//! cargo run --example make_golden_entropy -- <out-dir>
//! ```

use rqm::encoding::huffman::HuffmanCodec;
use rqm::encoding::lossless::lossless_compress;
use rqm::encoding::varint::put_uvarint;

/// Splitmix-free xorshift64: the only RNG the fixtures use, frozen.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Skewed stream: zero-code-dominated like real quantization output
/// (alphabet 1024, centre 512).
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

/// Uniform stream: 300-symbol alphabet, near-flat histogram (codes 8–9
/// bits, exercising table-resident decode with mixed lengths).
fn uniform_symbols() -> Vec<u32> {
    let mut st = 0x0123_4567_89AB_CDEFu64;
    (0..4096).map(|_| (xorshift(&mut st) % 300) as u32).collect()
}

/// Adversarial-depth stream: Fibonacci-weighted histogram over 16 symbols
/// produces a maximally lopsided tree (deepest codes well past any
/// direct-lookup table width), in a deterministically shuffled order.
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
    // Frozen Fisher-Yates so the payload is not trivial runs.
    let mut st = 0xDEAD_BEEF_CAFE_F00Du64;
    for i in (1..stream.len()).rev() {
        let j = (xorshift(&mut st) % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

/// Degenerate stream: single-symbol alphabet (1-bit codes, all-zero
/// payload bytes).
fn single_symbols() -> Vec<u32> {
    vec![3u32; 500]
}

/// The lossless fixture's raw input: long zero runs (RLE-dominant) mixed
/// with repeated text (LZSS-dominant) and escape bytes.
fn lossless_raw() -> Vec<u8> {
    let mut raw = Vec::new();
    let mut st = 0x1357_9BDF_2468_ACE0u64;
    for block in 0..40 {
        raw.extend(std::iter::repeat_n(0u8, 64 + block * 7));
        raw.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        raw.push(0xF7); // the RLE escape byte, literal
        for _ in 0..8 {
            raw.push((xorshift(&mut st) % 251) as u8);
        }
    }
    raw
}

/// Fixture layout: `uvarint n_symbols | uvarint len(codebook) | codebook |
/// uvarint len(payload) | payload`.
fn encode_fixture(symbols: &[u32], alphabet: usize) -> Vec<u8> {
    let mut hist = vec![0u64; alphabet];
    for &s in symbols {
        hist[s as usize] += 1;
    }
    let codec = HuffmanCodec::from_counts(&hist).expect("histogram");
    let book = codec.serialize_codebook();
    let payload = codec.encode(symbols).expect("encode");
    let mut out = Vec::new();
    put_uvarint(&mut out, symbols.len() as u64);
    put_uvarint(&mut out, book.len() as u64);
    out.extend_from_slice(&book);
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "tests/data".into());
    for (name, symbols, alphabet) in [
        ("skewed", skewed_symbols(), 1024),
        ("uniform", uniform_symbols(), 300),
        ("deep", deep_symbols(), 16),
        ("single", single_symbols(), 8),
    ] {
        let bytes = encode_fixture(&symbols, alphabet);
        let path = format!("{dir}/golden_huffman_{name}.bin");
        std::fs::write(&path, &bytes).expect("write fixture");
        println!("wrote {path}: {} symbols, {} bytes", symbols.len(), bytes.len());
    }

    let raw = lossless_raw();
    let comp = lossless_compress(&raw);
    let mut out = Vec::new();
    put_uvarint(&mut out, raw.len() as u64);
    out.extend_from_slice(&comp);
    let path = format!("{dir}/golden_lossless_rlelzss.bin");
    std::fs::write(&path, &out).expect("write fixture");
    println!("wrote {path}: {} raw bytes, {} bytes", raw.len(), out.len());
}
