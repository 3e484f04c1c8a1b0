//! Frozen scalar kernels: the oracle of `kernel_differential` and
//! `fuzz_container`, built on nothing but the crates' public API.
//!
//! The bit I/O, RLE, LZSS and lossless-stage functions are verbatim copies
//! of the byte-at-a-time coders the library shipped before its kernels were
//! reworked to table-driven / word-at-a-time loops. The Huffman coder is
//! the canonical code rebuilt from a codec's public code lengths, coded a
//! bit at a time, and the Lorenzo walk evaluates the public order-1 stencil
//! point by point. The ROLZ token pass is the encoder that compared every
//! slot of its context in full. The library must write and read exactly
//! what these do.
//!
//! Do not "improve" this module: its value is that it does not change.

#![allow(dead_code)] // each test binary uses its own part

use rqm::compress_crate::DecompressError;
use rqm::encoding::huffman::HuffmanCodec;
use rqm::encoding::varint::{get_uvarint, put_uvarint};
use rqm::grid::{Shape, MAX_DIMS};
use rqm::predict::lorenzo::LorenzoStencil;

// ---------------------------------------------------------------------------
// Bit I/O (8-bit accumulator writer, per-byte cursor reader)
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
// RLE (per-byte loops)
// ---------------------------------------------------------------------------

const ESCAPE: u8 = 0xF7;

/// The original per-byte `rle::rle_compress`.
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

/// The original per-byte `rle::rle_decompress_bounded`.
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
// LZSS (per-byte match compare, per-byte copy-out)
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

/// The original `lzss::lzss_compress` with byte-loop match search.
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

/// The original `lzss::lzss_decompress_bounded` with per-byte match
/// copy-out.
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
// Lossless stage (composition of the coders above)
// ---------------------------------------------------------------------------

const FLAG_RLE: u8 = 0b01;
const FLAG_LZSS: u8 = 0b10;
const RLE_MARKER: u8 = 0x00;

/// `lossless::lossless_compress` built from the frozen coders.
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

/// `lossless::lossless_decompress_bounded` built from the frozen coders.
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

// ---------------------------------------------------------------------------
// Huffman (canonical code from the code lengths, a bit at a time)
// ---------------------------------------------------------------------------

/// The canonical code of a [`HuffmanCodec`], rebuilt from its public code
/// lengths alone: codes are handed out in (length, symbol) order, which is
/// what makes a code canonical.
pub struct CanonicalCode {
    /// `(code, length)` per symbol of the alphabet; length 0: no code.
    codes: Vec<(u64, u32)>,
    /// Per code length: the first code of that length, the index of its
    /// symbol in `sorted`, and how many codes have that length.
    first: Vec<(u64, usize, usize)>,
    /// The symbols with a code, by (length, symbol).
    sorted: Vec<u32>,
}

impl CanonicalCode {
    pub fn of(codec: &HuffmanCodec) -> Self {
        let alphabet = codec.alphabet_len() as u32;
        let mut sorted: Vec<u32> = (0..alphabet).filter(|&s| codec.code_len(s) > 0).collect();
        sorted.sort_by_key(|&s| (codec.code_len(s), s));
        let max_len = sorted.last().map_or(0, |&s| codec.code_len(s));
        let mut codes = vec![(0u64, 0u32); alphabet as usize];
        let mut first = vec![(0u64, 0usize, 0usize); max_len as usize + 1];
        let (mut code, mut prev_len) = (0u64, 0u32);
        for (i, &s) in sorted.iter().enumerate() {
            let len = codec.code_len(s);
            code <<= len - prev_len;
            let f = &mut first[len as usize];
            if f.2 == 0 {
                (f.0, f.1) = (code, i);
            }
            f.2 += 1;
            codes[s as usize] = (code, len);
            code += 1;
            prev_len = len;
        }
        CanonicalCode { codes, first, sorted }
    }

    /// Encode with the byte-at-a-time bit writer.
    ///
    /// # Panics
    /// Panics on a symbol without a code.
    pub fn encode(&self, symbols: &[u32]) -> Vec<u8> {
        let mut w = RefBitWriter::new();
        for &s in symbols {
            let (code, len) = self.codes[s as usize];
            assert!(len > 0, "symbol {s} has no code");
            w.put_bits(code, len);
        }
        w.finish()
    }

    /// Decode `n` symbols a bit at a time: `None` where the payload runs
    /// out, or a prefix as long as the longest code matches none.
    pub fn decode(&self, bytes: &[u8], n: usize) -> Option<Vec<u32>> {
        let mut r = RefBitReader::new(bytes);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (mut code, mut len) = (0u64, 0usize);
            loop {
                code = (code << 1) | r.get_bit()? as u64;
                len += 1;
                let &(fc, fi, count) = self.first.get(len)?;
                if count > 0 && code >= fc && code < fc + count as u64 {
                    out.push(self.sorted[fi + (code - fc) as usize]);
                    break;
                }
            }
        }
        Some(out)
    }
}

// ---------------------------------------------------------------------------
// Lorenzo (the order-1 stencil, point by point)
// ---------------------------------------------------------------------------

/// The generic order-1 Lorenzo traversal: row-major, per-point stencil
/// evaluation with checked neighbor subtraction. `visit(lin, predicted)`
/// returns the reconstruction to store.
pub fn traverse_lorenzo1_generic(
    shape: Shape,
    mut visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    let stencil = LorenzoStencil::new(shape.ndim(), 1);
    let mut recon = vec![0f64; shape.len()];
    let nd = shape.ndim();
    let mut idx = [0usize; MAX_DIMS];
    let mut lin = 0usize;
    loop {
        let pred = stencil.predict(&recon, shape, &idx[..nd]);
        recon[lin] = visit(lin, pred)?;
        lin += 1;
        // Odometer advance, last axis fastest (matches linear order).
        let mut axis = nd;
        loop {
            if axis == 0 {
                return Ok(recon);
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < shape.dim(axis) {
                break;
            }
            idx[axis] = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// ROLZ token pass (naive 16-slot scan, `position` rank search)
// ---------------------------------------------------------------------------

/// The ROLZ encoder's token pass as the library shipped it before its match
/// finder learned to skip candidates: every slot of the context compared in
/// full, a literal's rank found by a linear `position` search. Only the
/// byte-level `common_prefix` is local here, a byte loop, so the oracle does
/// not lean on the kernel it checks.
pub mod rolz {
    const ROLZ_SLOTS: usize = 16;
    const ROLZ_CONTEXTS: usize = 256;
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = MIN_MATCH + 255;
    const SYMRANK_SIZE: usize = 64;
    const TOKEN_ESCAPE: u32 = SYMRANK_SIZE as u32;
    const TOKEN_MATCH0: u32 = TOKEN_ESCAPE + 1;
    const TOKEN_ALPHABET: usize = SYMRANK_SIZE + 1 + ROLZ_SLOTS;
    const EMPTY: u32 = u32::MAX;

    fn common_prefix(a: &[u8], b: &[u8], limit: usize) -> usize {
        let mut l = 0;
        while l < limit && a[l] == b[l] {
            l += 1;
        }
        l
    }

    struct RolzState {
        positions: Vec<u32>,
        heads: [u8; ROLZ_CONTEXTS],
        ranks: Vec<u8>,
    }

    impl RolzState {
        fn new() -> Self {
            let mut ranks = vec![0u8; ROLZ_CONTEXTS * SYMRANK_SIZE];
            for c in 0..ROLZ_CONTEXTS {
                for r in 0..SYMRANK_SIZE {
                    ranks[c * SYMRANK_SIZE + r] = r as u8;
                }
            }
            RolzState {
                positions: vec![EMPTY; ROLZ_CONTEXTS * ROLZ_SLOTS],
                heads: [0; ROLZ_CONTEXTS],
                ranks,
            }
        }

        #[inline]
        fn slot(&self, ctx: usize, s: usize) -> u32 {
            self.positions[ctx * ROLZ_SLOTS + s]
        }

        #[inline]
        fn insert(&mut self, ctx: usize, pos: usize) {
            let h = self.heads[ctx] as usize;
            self.positions[ctx * ROLZ_SLOTS + h] = pos as u32;
            self.heads[ctx] = ((h + 1) % ROLZ_SLOTS) as u8;
        }

        #[inline]
        fn rank_of(&self, ctx: usize, byte: u8) -> Option<usize> {
            self.ranks[ctx * SYMRANK_SIZE..(ctx + 1) * SYMRANK_SIZE]
                .iter()
                .position(|&b| b == byte)
        }

        #[inline]
        fn promote(&mut self, ctx: usize, r: usize) {
            let t = &mut self.ranks[ctx * SYMRANK_SIZE..(ctx + 1) * SYMRANK_SIZE];
            let b = t[r];
            let to = r / 2;
            for k in (to + 1..=r).rev() {
                t[k] = t[k - 1];
            }
            t[to] = b;
        }

        #[inline]
        fn adopt(&mut self, ctx: usize, byte: u8) {
            self.ranks[ctx * SYMRANK_SIZE + SYMRANK_SIZE - 1] = byte;
        }
    }

    #[inline]
    fn context(bytes: &[u8], pos: usize) -> usize {
        if pos == 0 {
            0
        } else {
            bytes[pos - 1] as usize
        }
    }

    /// The token streams of one pass: tokens, match lengths less
    /// `MIN_MATCH`, escaped raw bytes, and the token histogram.
    pub struct RolzTokens {
        pub tokens: Vec<u32>,
        pub histogram: Vec<u64>,
        pub lens: Vec<u8>,
        pub raws: Vec<u8>,
    }

    pub fn rolz_compress(bytes: &[u8]) -> RolzTokens {
        let n = bytes.len();
        let mut state = RolzState::new();
        let mut t = RolzTokens {
            tokens: Vec::with_capacity(n / 2 + 16),
            histogram: vec![0u64; TOKEN_ALPHABET],
            lens: Vec::new(),
            raws: Vec::new(),
        };
        let emit = |tok: u32, t: &mut RolzTokens| {
            t.tokens.push(tok);
            t.histogram[tok as usize] += 1;
        };
        let mut i = 0usize;
        while i < n {
            let ctx = context(bytes, i);
            let limit = MAX_MATCH.min(n - i);
            let (mut best_len, mut best_slot) = (0usize, 0usize);
            if limit >= MIN_MATCH {
                for s in 0..ROLZ_SLOTS {
                    let p = state.slot(ctx, s);
                    if p == EMPTY {
                        continue;
                    }
                    let p = p as usize;
                    // `p < i`, so both slices hold at least `limit` bytes.
                    let l = common_prefix(&bytes[p..], &bytes[i..], limit);
                    // Strict `>`: ties keep the lowest slot, deterministically.
                    if l > best_len {
                        best_len = l;
                        best_slot = s;
                    }
                }
            }
            // Every token start enters the ring — after the search, so a
            // match can never reference its own position. The decoder
            // mirrors this exactly.
            state.insert(ctx, i);
            if best_len >= MIN_MATCH {
                emit(TOKEN_MATCH0 + best_slot as u32, &mut t);
                t.lens.push((best_len - MIN_MATCH) as u8);
                i += best_len;
            } else {
                let b = bytes[i];
                match state.rank_of(ctx, b) {
                    Some(r) => {
                        emit(r as u32, &mut t);
                        state.promote(ctx, r);
                    }
                    None => {
                        emit(TOKEN_ESCAPE, &mut t);
                        t.raws.push(b);
                        state.adopt(ctx, b);
                    }
                }
                i += 1;
            }
        }
        t
    }
}
