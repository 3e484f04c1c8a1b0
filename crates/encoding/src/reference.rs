//! Pre-rework scalar reference kernels, kept alive as the oracle of the
//! differential tests.
//!
//! Every function and type here is a verbatim copy of the byte-at-a-time
//! implementation that shipped before the table-driven kernel rework
//! (PR 9). The fast paths in [`crate::bitio`], [`crate::huffman`],
//! [`crate::rle`] and [`crate::lzss`] must produce **byte-identical**
//! streams and decodes; `tests/kernel_differential.rs` asserts that
//! equivalence across distributions and buffer lengths.
//!
//! Do not "improve" this module — its value is that it does not change.

use crate::varint::{get_uvarint, put_uvarint};

// ---------------------------------------------------------------------------
// Bit I/O (pre-rework: 8-bit accumulator writer, per-byte cursor reader)
// ---------------------------------------------------------------------------

/// The original byte-at-a-time MSB-first bit writer.
#[derive(Default)]
pub struct RefBitWriter {
    buf: Vec<u8>,
    /// Bits currently staged in `acc` (0..8).
    nbits: u32,
    acc: u8,
}

impl RefBitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `len` bits of `code`, most significant first.
    #[inline]
    pub fn put_bits(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 64);
        // Feed from the top of the value down.
        let mut remaining = len;
        while remaining > 0 {
            let room = 8 - self.nbits;
            let take = room.min(remaining);
            let shift = remaining - take;
            let chunk = ((code >> shift) & ((1u64 << take) - 1)) as u8;
            self.acc = (((self.acc as u16) << take) as u8) | chunk;
            self.nbits += take;
            remaining -= take;
            if self.nbits == 8 {
                self.buf.push(self.acc);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    /// Append a single bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u64, 1);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + self.nbits as u64
    }

    /// Pad the final partial byte with zeros and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.acc <<= 8 - self.nbits;
            self.buf.push(self.acc);
        }
        self.buf
    }
}

/// The original per-byte-cursor MSB-first bit reader.
pub struct RefBitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: u64,
}

impl<'a> RefBitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        RefBitReader { buf, pos: 0 }
    }

    /// Total bits available.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8
    }

    /// Bits consumed so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Read `len` bits MSB-first; `None` if the buffer is exhausted.
    #[inline]
    pub fn get_bits(&mut self, len: u32) -> Option<u64> {
        debug_assert!(len <= 64);
        if self.pos + len as u64 > self.bit_len() {
            return None;
        }
        let mut out = 0u64;
        let mut remaining = len;
        while remaining > 0 {
            let byte = self.buf[(self.pos / 8) as usize];
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(remaining);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.pos += take as u64;
            remaining -= take;
        }
        Some(out)
    }

    /// Read a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Option<bool> {
        self.get_bits(1).map(|b| b == 1)
    }
}

// ---------------------------------------------------------------------------
// RLE (pre-rework: per-byte loops)
// ---------------------------------------------------------------------------

const ESCAPE: u8 = 0xF7;

/// The original per-byte [`crate::rle::rle_compress`].
pub fn rle_compress_ref(input: &[u8], marker: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        if b == marker {
            let start = i;
            while i < input.len() && input[i] == marker {
                i += 1;
            }
            out.push(ESCAPE);
            put_uvarint(&mut out, (i - start) as u64);
        } else {
            if b == ESCAPE {
                out.push(ESCAPE);
                put_uvarint(&mut out, 0); // run of zero markers = literal escape
            } else {
                out.push(b);
            }
            i += 1;
        }
    }
    out
}

/// The original per-byte [`crate::rle::rle_decompress_bounded`].
pub fn rle_decompress_bounded_ref(input: &[u8], marker: u8, max_len: usize) -> Option<Vec<u8>> {
    let cap = (max_len as u64).min(1 << 34);
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut pos = 0;
    while pos < input.len() {
        let b = input[pos];
        pos += 1;
        if b == ESCAPE {
            let run = get_uvarint(input, &mut pos)?;
            if run == 0 {
                out.push(ESCAPE);
            } else {
                if run > cap || out.len() as u64 + run > cap {
                    return None;
                }
                out.extend(std::iter::repeat_n(marker, run as usize));
            }
        } else {
            if out.len() as u64 >= cap {
                return None;
            }
            out.push(b);
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// LZSS (pre-rework: per-byte match compare, per-byte copy-out)
// ---------------------------------------------------------------------------

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// The original [`crate::lzss::lzss_compress`] with byte-loop match search.
pub fn lzss_compress_ref(input: &[u8]) -> Vec<u8> {
    let mut header = Vec::new();
    put_uvarint(&mut header, input.len() as u64);
    let mut w = RefBitWriter::new();

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len().max(1)];
    let mut i = 0;
    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash4(&input[i..]);
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < MAX_CHAIN {
                let dist = i - cand;
                if dist > WINDOW {
                    break;
                }
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && input[cand + l] == input[i + l] {
                    l += 1;
                }
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
            w.put_bit(false);
            w.put_bits((best_dist - 1) as u64, 16);
            w.put_bits((best_len - MIN_MATCH) as u64, 8);
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
            w.put_bit(true);
            w.put_bits(input[i] as u64, 8);
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

/// The original [`crate::lzss::lzss_decompress_bounded`] with per-byte
/// match copy-out.
pub fn lzss_decompress_bounded_ref(input: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut pos = 0;
    let n = get_uvarint(input, &mut pos)? as usize;
    if n > (1 << 34) || n > max_len {
        return None; // refuse absurd allocations from corrupt headers
    }
    let mut out = Vec::with_capacity(n);
    let mut r = RefBitReader::new(&input[pos..]);
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
            // Byte-by-byte: matches may overlap their own output.
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    out.truncate(n);
    Some(out)
}

// ---------------------------------------------------------------------------
// Lossless stage (pre-rework composition of the reference coders)
// ---------------------------------------------------------------------------

const FLAG_RLE: u8 = 0b01;
const FLAG_LZSS: u8 = 0b10;
const RLE_MARKER: u8 = 0x00;

/// [`crate::lossless::lossless_compress`] built from the reference coders.
pub fn lossless_compress_ref(input: &[u8]) -> Vec<u8> {
    let mut flags = 0u8;
    let mut cur: Vec<u8>;

    let rle = rle_compress_ref(input, RLE_MARKER);
    if rle.len() < input.len() {
        flags |= FLAG_RLE;
        cur = rle;
    } else {
        cur = input.to_vec();
    }

    let lz = lzss_compress_ref(&cur);
    if lz.len() < cur.len() {
        flags |= FLAG_LZSS;
        cur = lz;
    }

    let mut out = Vec::with_capacity(cur.len() + 1);
    out.push(flags);
    out.extend_from_slice(&cur);
    out
}

/// [`crate::lossless::lossless_decompress_bounded`] built from the
/// reference coders.
pub fn lossless_decompress_bounded_ref(input: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let (&flags, rest) = input.split_first()?;
    if flags & !(FLAG_RLE | FLAG_LZSS) != 0 {
        return None;
    }
    let mut cur = rest.to_vec();
    if flags & FLAG_LZSS != 0 {
        cur = lzss_decompress_bounded_ref(&cur, max_len)?;
    }
    if flags & FLAG_RLE != 0 {
        if cur.len() > max_len {
            return None;
        }
        cur = rle_decompress_bounded_ref(&cur, RLE_MARKER, max_len)?;
    }
    if cur.len() > max_len {
        return None;
    }
    Some(cur)
}
