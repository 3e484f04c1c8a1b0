//! Canonical Huffman codec over `u32` symbol alphabets.
//!
//! The compressor encodes quantization codes (an alphabet of
//! `2 * radius + 1` symbols plus the escape) with this codec; the
//! analytical model predicts its output bit-rate from the symbol histogram
//! alone (paper Eq. 1).
//!
//! Codes are canonical, so the serialized codebook is just the code length
//! of each symbol (zero-RLE compressed), independent of tree construction
//! order. Maximum code length is capped at [`MAX_CODE_LEN`]; if the optimal
//! tree exceeds it (possible only for astronomically skewed histograms) the
//! histogram is repeatedly square-rooted until the cap holds, which costs a
//! negligible fraction of a bit per symbol.
//!
//! A chunk uses some hundred of the 65 538 symbols its book declares, and a
//! codec is built per chunk, so a built [`HuffmanCodec`] is as large as the
//! symbols that *have* a code, never as the alphabet:
//!
//! * either way it holds the book — `(symbol, length, code)` of the present
//!   symbols, ascending — which answers [`HuffmanCodec::code_len`] by
//!   binary search and is what [`HuffmanCodec::serialize_codebook`] walks,
//!   and the decode side: the symbols in canonical order, the first code
//!   and count of each length, and the 2¹¹-entry flat table;
//! * built to **encode** ([`HuffmanCodec::from_counts`],
//!   [`HuffmanCodec::from_present`]) it also holds a direct-indexed encode
//!   table over `[first present symbol, last present symbol]`: one load per
//!   symbol in [`HuffmanCodec::encode`];
//! * built to **decode** ([`HuffmanCodec::deserialize_codebook`]) it has no
//!   such table — the distance from the first to the last symbol is
//!   whatever the bytes claim — so the cost of a book is bounded by its
//!   length in bytes, and encoding with it works through the binary search.

use crate::bitio::{BitReader, BitWriter};
use crate::reference::RefBitReader;
use crate::varint::{get_uvarint, put_uvarint};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Longest admissible canonical code, in bits.
pub const MAX_CODE_LEN: u32 = 32;

/// Width of the flat one-shot decode table: every code of at most this
/// many bits decodes with a single peek + indexed load. Codes longer than
/// this (rare by construction — they need Fibonacci-grade histogram skew)
/// fall back to the canonical first-code scan.
const TABLE_BITS: u32 = 11;

/// Errors surfaced by [`HuffmanCodec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The input histogram had no nonzero counts.
    EmptyHistogram,
    /// A symbol outside the codebook was passed to `encode`.
    UnknownSymbol(u32),
    /// The compressed stream was truncated or corrupt.
    Corrupt(&'static str),
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::EmptyHistogram => write!(f, "empty symbol histogram"),
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} has no code"),
            HuffmanError::Corrupt(what) => write!(f, "corrupt huffman stream: {what}"),
        }
    }
}

impl std::error::Error for HuffmanError {}

/// A built canonical Huffman code (what it holds: see the module doc).
#[derive(Clone, Debug)]
pub struct HuffmanCodec {
    /// Declared alphabet length: the first field of the serialized book.
    alphabet: usize,
    /// `(symbol, (code_len << 32) | code)` of every symbol with a code,
    /// ascending by symbol. No collision: `code < 2^len <= 2^32`.
    book: Vec<(u32, u64)>,
    /// Decode acceleration: symbols sorted by (length, symbol).
    sorted_symbols: Vec<u32>,
    /// `first_code[l]` = canonical code value of the first code of length l.
    first_code: Vec<u64>,
    /// `first_index[l]` = index into `sorted_symbols` of that first code.
    first_index: Vec<usize>,
    /// `len_count[l]` = number of codes of exact length l.
    len_count: Vec<usize>,
    /// Flat decode table, `1 << table_bits` entries indexed by the next
    /// `table_bits` bits of the stream. Entry = `(code_len << 32) | symbol`;
    /// `code_len == 0` marks a prefix of a longer-than-table code (decode
    /// falls back to the canonical scan) or an unassigned prefix (corrupt).
    table: Vec<u64>,
    /// Encode acceleration: the book's entry of symbol `enc_first + i`, `0`
    /// for absent symbols — one load in the encode hot loop. Empty in a
    /// codec built from a serialized book.
    enc_table: Vec<u64>,
    /// Symbol of `enc_table[0]`.
    enc_first: u32,
    /// Width of `table` in bits: `min(max code length, TABLE_BITS)`.
    table_bits: u32,
    /// Longest assigned code length.
    max_len: u32,
}

impl HuffmanCodec {
    /// Build a codec from per-symbol counts (`counts[s]` = frequency of
    /// symbol `s`): [`Self::from_present`] of the non-zero ones.
    pub fn from_counts(counts: &[u64]) -> Result<Self, HuffmanError> {
        // Mostly zeros, a block of them at a time: OR-ing a block is a
        // vector loop, testing each count is not.
        const BLOCK: usize = 16;
        let mut present: Vec<(u32, u64)> = Vec::new();
        for (b, block) in counts.chunks(BLOCK).enumerate() {
            if block.iter().fold(0, |any, &c| any | c) != 0 {
                let symbols = (b * BLOCK) as u32..;
                present.extend(symbols.zip(block).filter(|&(_, &c)| c > 0).map(|(s, &c)| (s, c)));
            }
        }
        Self::from_present(counts.len(), &present)
    }

    /// Build a codec for an alphabet of `alphabet` symbols from the
    /// `(symbol, count)` of those that occur, without a pass over the ones
    /// that do not. Same code as [`Self::from_counts`] of the dense
    /// histogram: same lengths, canonical codes and codebook bytes.
    ///
    /// # Panics
    /// Panics unless `present` is strictly ascending by symbol, inside the
    /// alphabet, and every count is non-zero.
    pub fn from_present(alphabet: usize, present: &[(u32, u64)]) -> Result<Self, HuffmanError> {
        assert!(
            present.windows(2).all(|w| w[0].0 < w[1].0)
                && present.last().is_none_or(|&(s, _)| (s as usize) < alphabet)
                && present.iter().all(|&(_, c)| c > 0),
            "present symbols must ascend inside the alphabet with non-zero counts"
        );
        if present.is_empty() {
            return Err(HuffmanError::EmptyHistogram);
        }
        let mut weights: Vec<u64> = present.iter().map(|&(_, c)| c).collect();
        loop {
            let lengths = build_code_lengths(&weights);
            if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
                let book = present.iter().zip(lengths).map(|(&(s, _), l)| (s, l)).collect();
                return Ok(Self::from_lengths(alphabet, book).with_encode_table());
            }
            // Flatten the histogram: sqrt keeps ordering but halves depth.
            for w in &mut weights {
                *w = (*w as f64).sqrt().ceil() as u64;
            }
        }
    }

    /// Assign canonical codes to `(symbol, code length)` pairs, ascending by
    /// symbol with every length non-zero, and build the decode side.
    fn from_lengths(alphabet: usize, lengths: Vec<(u32, u32)>) -> Self {
        let max_len = lengths.iter().map(|&(_, l)| l).max().unwrap_or(0) as usize;
        // Canonical order: by (length, symbol); `lengths` is by symbol.
        let mut order: Vec<u32> = (0..lengths.len() as u32).collect();
        order.sort_by_key(|&i| (lengths[i as usize].1, i));
        let sorted_symbols: Vec<u32> = order.iter().map(|&i| lengths[i as usize].0).collect();

        let mut book: Vec<(u32, u64)> = lengths.iter().map(|&(s, _)| (s, 0)).collect();
        let mut first_code = vec![0u64; max_len + 2];
        let mut first_index = vec![0usize; max_len + 2];
        let mut len_count = vec![0usize; max_len + 2];
        for &(_, len) in &lengths {
            len_count[len as usize] += 1;
        }
        // Flat decode table: every code of length <= table_bits owns the
        // contiguous run of table slots sharing its prefix. Slot ranges are
        // clamped to the table (an oversubscribed length set — rejected at
        // deserialization — could otherwise index past the end).
        let table_bits = (max_len as u32).clamp(1, TABLE_BITS);
        let cap = 1usize << table_bits;
        let mut table = vec![0u64; cap];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for (i, &at) in order.iter().enumerate() {
            let (symbol, len) = lengths[at as usize];
            code <<= len - prev_len;
            if len != prev_len || i == 0 {
                first_code[len as usize] = code;
                first_index[len as usize] = i;
            }
            book[at as usize].1 = ((len as u64) << 32) | code;
            if len <= table_bits {
                let lo = ((code << (table_bits - len)) as usize).min(cap);
                let hi = (((code + 1) << (table_bits - len)) as usize).min(cap);
                table[lo..hi].fill(((len as u64) << 32) | symbol as u64);
            }
            code += 1;
            prev_len = len;
        }

        HuffmanCodec {
            alphabet,
            book,
            sorted_symbols,
            first_code,
            first_index,
            len_count,
            table,
            enc_table: Vec::new(),
            enc_first: 0,
            table_bits,
            max_len: max_len as u32,
        }
    }

    /// Add the direct-indexed encode table, over the span from the first
    /// to the last symbol of the book.
    fn with_encode_table(mut self) -> Self {
        if let (Some(&(first, _)), Some(&(last, _))) = (self.book.first(), self.book.last()) {
            self.enc_first = first;
            self.enc_table = vec![0u64; (last - first) as usize + 1];
            for &(s, entry) in &self.book {
                self.enc_table[(s - first) as usize] = entry;
            }
        }
        self
    }

    /// The book's `(code_len << 32) | code` of `symbol`, `0` if it has no
    /// code: the encode table where there is one, the book otherwise.
    #[inline]
    fn entry(&self, symbol: u32) -> u64 {
        match self.enc_table.get(symbol.wrapping_sub(self.enc_first) as usize) {
            Some(&entry) => entry,
            None => self.entry_from_book(symbol),
        }
    }

    #[cold]
    fn entry_from_book(&self, symbol: u32) -> u64 {
        self.book.binary_search_by_key(&symbol, |&(s, _)| s).map_or(0, |at| self.book[at].1)
    }

    /// Length of the alphabet the book declares (symbols `0..alphabet_len()`
    /// may have a code; most do not).
    pub fn alphabet_len(&self) -> usize {
        self.alphabet
    }

    /// Number of symbols with a code.
    pub fn distinct_symbols(&self) -> usize {
        self.book.len()
    }

    /// Code length of `symbol` in bits (0 if absent).
    pub fn code_len(&self, symbol: u32) -> u32 {
        (self.entry(symbol) >> 32) as u32
    }

    /// Exact encoded payload size in bits for a histogram (excludes the
    /// codebook); the ground truth the model's Eq. 1 approximates.
    pub fn payload_bits(&self, counts: &[u64]) -> u64 {
        self.book
            .iter()
            .map(|&(s, entry)| counts.get(s as usize).copied().unwrap_or(0) * (entry >> 32))
            .sum()
    }

    /// Encode a symbol stream. The output does **not** include the codebook;
    /// call [`Self::serialize_codebook`] separately (the container stores
    /// them in distinct sections so the model can reason about each).
    pub fn encode(&self, symbols: &[u32]) -> Result<Vec<u8>, HuffmanError> {
        let mut w = BitWriter::new();
        for &s in symbols {
            let e = self.entry(s);
            if e == 0 {
                return Err(HuffmanError::UnknownSymbol(s));
            }
            w.put_bits(e & 0xFFFF_FFFF, (e >> 32) as u32);
        }
        Ok(w.finish())
    }

    /// Decode exactly `n` symbols from `bytes`.
    ///
    /// One table hit decodes any code of at most `TABLE_BITS` bits: peek
    /// `table_bits` bits, load symbol + length from the flat table, commit
    /// the length. Longer codes (zero-length entries) take the canonical
    /// first-code fallback walk (`decode_long`).
    ///
    /// The hot loop decodes **bursts of symbols per refill**: while at
    /// least 64 stream bits remain, one refill makes at least 56 bits
    /// visible, and five table hits consume at most `5 × TABLE_BITS = 55`
    /// of them — so each burst commits five symbols with the refill, the
    /// end-of-stream check, and the budget bookkeeping all hoisted out of
    /// the per-symbol path. The final symbols (and any stream too short
    /// to guarantee a burst) run the fully checked per-symbol path, which
    /// keeps accept/reject behavior identical to the reference decoder.
    pub fn decode(&self, bytes: &[u8], n: usize) -> Result<Vec<u32>, HuffmanError> {
        let mut r = BitReader::new(bytes);
        let mut out = vec![0u32; n];
        self.decode_into(&mut r, &mut out)?;
        Ok(out)
    }

    /// Decode exactly `out.len()` symbols from `r`, continuing wherever a
    /// previous call left the reader — the shared core of [`Self::decode`]
    /// and [`StreamingDecoder`]. Chunking a stream across calls yields the
    /// same symbols and the same per-position errors as one big call: the
    /// burst/tail split depends only on the reader's remaining bits.
    fn decode_into(&self, r: &mut BitReader, out: &mut [u32]) -> Result<(), HuffmanError> {
        let n = out.len();
        let tb = self.table_bits;
        debug_assert!(tb <= TABLE_BITS, "5-symbol bursts rely on 5 * tb <= 56");
        let table = self.table.as_slice();
        let mut i = 0usize;
        'bursts: while i + 5 <= n && r.remaining() >= 64 {
            r.refill(); // >= 56 bits visible: covers all five table hits
            for _ in 0..5 {
                // SAFETY: `peek(tb) < 2^tb == table.len()` — `from_lengths`
                // sizes the table as `1 << table_bits` and `peek` returns
                // at most `table_bits` bits; `i + 5 <= n == out.len()` is
                // the burst guard and at most five stores happen per burst
                // (audited; covered by tests/kernel_differential.rs).
                let entry = unsafe { *table.get_unchecked(r.peek(tb) as usize) };
                let len = (entry >> 32) as u32;
                if len == 0 {
                    // Longer-than-table code (or corrupt prefix): decode
                    // this one symbol on the fully checked path.
                    r.refill();
                    let s = self.decode_long(r)?;
                    unsafe { *out.get_unchecked_mut(i) = s };
                    i += 1;
                    continue 'bursts;
                }
                // In bounds: five hits consume <= 5 * tb = 55 of the
                // >= 64 remaining bits, each `len <= tb` of >= tb visible.
                r.consume(len);
                unsafe { *out.get_unchecked_mut(i) = entry as u32 };
                i += 1;
            }
        }
        while i < n {
            r.refill();
            let entry = self.table[r.peek(tb) as usize];
            let len = (entry >> 32) as u32;
            if len != 0 {
                if !r.try_consume(len) {
                    return Err(HuffmanError::Corrupt("truncated payload"));
                }
                out[i] = entry as u32;
            } else {
                out[i] = self.decode_long(r)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Fallback for codes longer than the flat table (and for unassigned
    /// prefixes of undersubscribed books): the canonical first-code scan,
    /// restricted to lengths the table cannot resolve. `peek` is
    /// zero-padded past end-of-stream, so a "match" formed from padding is
    /// refused by the consume check — reproducing the reference reader's
    /// truncation error.
    #[cold]
    fn decode_long(&self, r: &mut BitReader) -> Result<u32, HuffmanError> {
        let window = r.peek(self.max_len);
        for len in self.table_bits + 1..=self.max_len {
            let count = self.len_count[len as usize];
            if count == 0 {
                continue;
            }
            let code = window >> (self.max_len - len);
            let fc = self.first_code[len as usize];
            if code >= fc && code < fc + count as u64 {
                if !r.try_consume(len) {
                    return Err(HuffmanError::Corrupt("truncated payload"));
                }
                let fi = self.first_index[len as usize];
                return Ok(self.sorted_symbols[fi + (code - fc) as usize]);
            }
        }
        Err(HuffmanError::Corrupt("code longer than any in book"))
    }

    /// Encode with the pre-rework byte-at-a-time bit writer: the reference
    /// kernel `tests/kernel_differential.rs` holds [`Self::encode`] equal
    /// to.
    pub fn encode_reference(&self, symbols: &[u32]) -> Result<Vec<u8>, HuffmanError> {
        let mut w = crate::reference::RefBitWriter::new();
        for &s in symbols {
            let e = self.entry(s);
            if e == 0 {
                return Err(HuffmanError::UnknownSymbol(s));
            }
            w.put_bits(e & 0xFFFF_FFFF, (e >> 32) as u32);
        }
        Ok(w.finish())
    }

    /// Decode with the pre-rework bit-at-a-time canonical scan (reference
    /// kernel, see [`Self::encode_reference`]).
    pub fn decode_reference(&self, bytes: &[u8], n: usize) -> Result<Vec<u32>, HuffmanError> {
        let mut r = RefBitReader::new(bytes);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut code = 0u64;
            let mut len = 0u32;
            loop {
                let bit =
                    r.get_bit().ok_or(HuffmanError::Corrupt("truncated payload"))? as u64;
                code = (code << 1) | bit;
                len += 1;
                if len as usize >= self.first_code.len() {
                    return Err(HuffmanError::Corrupt("code longer than any in book"));
                }
                let fc = self.first_code[len as usize];
                let fi = self.first_index[len as usize];
                let count = self.len_count[len as usize];
                if count > 0 && code >= fc && code < fc + count as u64 {
                    out.push(self.sorted_symbols[fi + (code - fc) as usize]);
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Serialize the codebook: the alphabet length, then the code length
    /// of every symbol in order, each run of absent symbols as a `0` tag
    /// and the run's length.
    pub fn serialize_codebook(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, self.alphabet as u64);
        let mut next = 0usize;
        // The end of the alphabet closes the last run as a symbol would.
        let coded = self.book.iter().map(|&(s, entry)| (s as usize, entry >> 32));
        for (symbol, len) in coded.chain([(self.alphabet, 0)]) {
            if symbol > next {
                put_uvarint(&mut out, 0);
                put_uvarint(&mut out, (symbol - next) as u64);
            }
            if len > 0 {
                put_uvarint(&mut out, len);
            }
            next = symbol + 1;
        }
        out
    }

    /// Inverse of [`Self::serialize_codebook`]. Returns the codec and the
    /// number of bytes consumed.
    ///
    /// Time and memory are bounded by `bytes.len()`, not by the alphabet
    /// the book declares: runs of absent symbols are stepped over, and
    /// every structure built is sized by the symbols that have a code.
    pub fn deserialize_codebook(bytes: &[u8]) -> Result<(Self, usize), HuffmanError> {
        let mut pos = 0;
        let n = get_uvarint(bytes, &mut pos)
            .ok_or(HuffmanError::Corrupt("codebook header"))? as usize;
        if n > (1 << 28) {
            return Err(HuffmanError::Corrupt("absurd alphabet size"));
        }
        let mut lengths: Vec<(u32, u32)> = Vec::new();
        let mut next = 0usize;
        while next < n {
            let tag =
                get_uvarint(bytes, &mut pos).ok_or(HuffmanError::Corrupt("codebook entry"))?;
            if tag == 0 {
                let run =
                    get_uvarint(bytes, &mut pos).ok_or(HuffmanError::Corrupt("codebook run"))?;
                next = usize::try_from(run)
                    .ok()
                    .and_then(|run| next.checked_add(run))
                    .filter(|&end| end <= n)
                    .ok_or(HuffmanError::Corrupt("codebook run overflow"))?;
            } else {
                if tag > MAX_CODE_LEN as u64 {
                    return Err(HuffmanError::Corrupt("code length too large"));
                }
                lengths.push((next as u32, tag as u32));
                next += 1;
            }
        }
        if lengths.is_empty() {
            return Err(HuffmanError::Corrupt("all-zero codebook"));
        }
        // Kraft inequality: Σ 2^-len <= 1, computed exactly in units of
        // 2^-MAX_CODE_LEN (no overflow: <= 2^28 terms of <= 2^31 each). An
        // oversubscribed length set is not a prefix code — canonical code
        // assignment would overflow the bit width and the flat decode
        // table's slot ranges would collide — so reject it up front; such
        // books can only come from corrupt input. Undersubscribed books
        // (Kraft < 1) stay accepted as before: their unassigned prefixes
        // surface as a typed decode error only if the payload hits one.
        let kraft: u64 = lengths.iter().map(|&(_, l)| 1u64 << (MAX_CODE_LEN - l)).sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(HuffmanError::Corrupt("oversubscribed codebook"));
        }
        Ok((Self::from_lengths(n, lengths), pos))
    }

    /// Start handing out `n` symbols of `bytes` through a
    /// [`StreamingDecoder`] instead of materializing them all upfront.
    pub fn streaming_decoder<'a>(&'a self, bytes: &'a [u8], n: usize) -> StreamingDecoder<'a> {
        StreamingDecoder { codec: self, r: BitReader::new(bytes), undecoded: n }
    }
}

/// Hands out a payload's symbols in decode order, one table hit per
/// call — no whole-stream `Vec<u32>`. The chunk decoder fuses this with
/// its reconstruction traversal: the entropy decode's integer dependency
/// chain (accumulator → table load → code length → accumulator) and the
/// traversal's floating-point reconstruction chain are independent, so
/// interleaving them per symbol lets the core run both concurrently —
/// the table decode hides in the FP chain's stall slots instead of
/// running as a separate serial pass over a symbol slab.
///
/// Yields exactly the symbol sequence of [`HuffmanCodec::decode`] on the
/// same payload, and fails on exactly the payloads it rejects (at the
/// same symbol position — only the point in wall-clock time where the
/// error surfaces moves). The per-symbol steps are literally the checked
/// tail loop of [`HuffmanCodec::decode`], whose burst path is held
/// equivalent to it by construction.
pub struct StreamingDecoder<'a> {
    codec: &'a HuffmanCodec,
    r: BitReader<'a>,
    /// Symbols of the stream not yet handed out.
    undecoded: usize,
}

impl StreamingDecoder<'_> {
    /// The next symbol of the stream.
    ///
    /// # Errors
    /// Where [`HuffmanCodec::decode`] would fail on this payload: a
    /// truncated or corrupt code at this symbol's position — or asking
    /// for more symbols than the stream was opened with.
    #[inline]
    pub fn next_symbol(&mut self) -> Result<u32, HuffmanError> {
        if self.undecoded == 0 {
            return Err(HuffmanError::Corrupt("symbol stream exhausted"));
        }
        self.undecoded -= 1;
        self.r.refill();
        // SAFETY: `peek(tb) < 2^tb == table.len()` — `from_lengths` sizes
        // the table as `1 << table_bits` and `peek` returns at most
        // `table_bits` bits (audited; covered by the streaming-vs-upfront
        // equivalence test and tests/kernel_differential.rs).
        let entry =
            unsafe { *self.codec.table.get_unchecked(self.r.peek(self.codec.table_bits) as usize) };
        let len = (entry >> 32) as u32;
        if len != 0 {
            if !self.r.try_consume(len) {
                return Err(HuffmanError::Corrupt("truncated payload"));
            }
            Ok(entry as u32)
        } else {
            self.codec.decode_long(&mut self.r)
        }
    }
}

/// Package the weights of the present symbols (leaf `i` = the `i`-th of
/// them, ascending) into optimal prefix-free code lengths (classic heap
/// Huffman; ties go to the lighter, then the earlier node). A single
/// symbol gets length 1.
fn build_code_lengths(weights: &[u64]) -> Vec<u32> {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Node {
        weight: u64,
        id: usize,
    }

    let nsym = weights.len();
    if nsym == 1 {
        return vec![1];
    }
    // parent[i] for internal tree nodes; leaves are 0..nsym.
    let mut parent = vec![usize::MAX; 2 * nsym - 1];
    let mut heap: BinaryHeap<Reverse<Node>> =
        weights.iter().enumerate().map(|(id, &weight)| Reverse(Node { weight, id })).collect();
    let mut next_id = nsym;
    while heap.len() > 1 {
        let a = heap.pop().unwrap().0;
        let b = heap.pop().unwrap().0;
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Reverse(Node { weight: a.weight + b.weight, id: next_id }));
        next_id += 1;
    }
    (0..nsym)
        .map(|leaf| {
            let mut depth = 0u32;
            let mut node = leaf;
            while parent[node] != usize::MAX {
                node = parent[node];
                depth += 1;
            }
            depth
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(symbols: &[u32], alphabet: usize) -> Vec<u64> {
        let mut h = vec![0u64; alphabet];
        for &s in symbols {
            h[s as usize] += 1;
        }
        h
    }

    #[test]
    fn roundtrip_skewed_stream() {
        // Zero-dominated stream like real quantization codes.
        let mut symbols = Vec::new();
        for i in 0..10_000u32 {
            symbols.push(match i % 100 {
                0..=79 => 50,
                80..=89 => 49,
                90..=95 => 51,
                _ => i % 7,
            });
        }
        let h = histogram(&symbols, 101);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let bytes = codec.encode(&symbols).unwrap();
        let back = codec.decode(&bytes, symbols.len()).unwrap();
        assert_eq!(back, symbols);
        // Skewed stream must compress well below 8 bits/symbol.
        assert!((bytes.len() as f64) < symbols.len() as f64);
    }

    /// The streaming decoder must yield exactly the upfront decoder's
    /// symbol sequence — across batch boundaries, long codes, and an
    /// alphabet wide enough to exceed the flat table — and fail on
    /// exactly the payloads (truncations) the upfront decoder rejects.
    #[test]
    fn streaming_decoder_matches_upfront() {
        let mut st = 0xBEEF_CAFE_0123_4567u64;
        let mut xs = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        // Skewed stream over a big alphabet: short codes dominate, rare
        // symbols get longer-than-table codes.
        let alphabet = 1usize << 14;
        let symbols: Vec<u32> = (0..20_000)
            .map(|_| match xs() % 100 {
                0..=84 => 100,
                85..=94 => 99 + (xs() % 3) as u32,
                _ => (xs() % alphabet as u64) as u32,
            })
            .collect();
        let codec = HuffmanCodec::from_counts(&histogram(&symbols, alphabet)).unwrap();
        let bytes = codec.encode(&symbols).unwrap();

        for n in [0usize, 1, 4095, 4096, 4097, 20_000] {
            let upfront = codec.decode(&bytes, n).unwrap();
            let mut s = codec.streaming_decoder(&bytes, n);
            for (i, &want) in upfront.iter().enumerate() {
                assert_eq!(s.next_symbol().unwrap(), want, "n {n} sym {i}");
            }
            // Over-asking past the opened count is refused.
            assert!(s.next_symbol().is_err(), "n {n}: over-ask succeeded");
        }

        // Truncations: accept/reject must agree with the upfront decoder
        // at every cut (the error may just surface later in the drain).
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            let cut_bytes = &bytes[..cut];
            let upfront_ok = codec.decode(cut_bytes, symbols.len()).is_ok();
            let mut s = codec.streaming_decoder(cut_bytes, symbols.len());
            let mut streamed_ok = true;
            for _ in 0..symbols.len() {
                if s.next_symbol().is_err() {
                    streamed_ok = false;
                    break;
                }
            }
            assert_eq!(streamed_ok, upfront_ok, "cut {cut}");
        }
    }

    #[test]
    fn single_symbol_alphabet() {
        let h = histogram(&[7, 7, 7, 7], 8);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        assert_eq!(codec.code_len(7), 1);
        let bytes = codec.encode(&[7, 7, 7]).unwrap();
        assert_eq!(codec.decode(&bytes, 3).unwrap(), vec![7, 7, 7]);
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let h = histogram(&[0, 0, 0, 1], 2);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        assert_eq!(codec.code_len(0), 1);
        assert_eq!(codec.code_len(1), 1);
    }

    #[test]
    fn empty_histogram_rejected() {
        assert_eq!(HuffmanCodec::from_counts(&[0, 0]).unwrap_err(), HuffmanError::EmptyHistogram);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let codec = HuffmanCodec::from_counts(&[5, 5]).unwrap();
        assert!(matches!(codec.encode(&[3]), Err(HuffmanError::UnknownSymbol(3))));
    }

    #[test]
    fn codebook_roundtrip() {
        let mut h = vec![0u64; 1000];
        h[0] = 100_000;
        h[499] = 50;
        h[500] = 10_000;
        h[501] = 49;
        h[999] = 1;
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let book = codec.serialize_codebook();
        let (codec2, used) = HuffmanCodec::deserialize_codebook(&book).unwrap();
        assert_eq!(used, book.len());
        for s in 0..1000 {
            assert_eq!(codec.code_len(s), codec2.code_len(s), "symbol {s}");
        }
        // Codebook of a mostly-empty alphabet must be tiny thanks to RLE.
        assert!(book.len() < 40, "codebook {} bytes", book.len());
    }

    #[test]
    fn decode_with_deserialized_book() {
        let symbols: Vec<u32> = (0..500).map(|i| (i * i) % 37).collect();
        let h = histogram(&symbols, 37);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let bytes = codec.encode(&symbols).unwrap();
        let (codec2, _) = HuffmanCodec::deserialize_codebook(&codec.serialize_codebook()).unwrap();
        assert_eq!(codec2.decode(&bytes, symbols.len()).unwrap(), symbols);
    }

    #[test]
    fn payload_bits_matches_actual() {
        let symbols: Vec<u32> = (0..2000).map(|i| if i % 10 == 0 { 1 } else { 0 }).collect();
        let h = histogram(&symbols, 2);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let bytes = codec.encode(&symbols).unwrap();
        let bits = codec.payload_bits(&h);
        assert_eq!(bits.div_ceil(8), bytes.len() as u64);
    }

    #[test]
    fn kraft_inequality_holds() {
        // Random-ish histogram: code lengths must satisfy Kraft equality.
        let h: Vec<u64> = (0..200).map(|i| ((i * 7919) % 997 + 1) as u64).collect();
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let kraft: f64 =
            (0..200).map(|s| 2f64.powi(-(codec.code_len(s) as i32))).sum();
        assert!((kraft - 1.0).abs() < 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn optimality_beats_entropy_bound_within_one_bit() {
        let h: Vec<u64> = vec![900, 50, 25, 15, 10];
        let n: u64 = h.iter().sum();
        let entropy: f64 = h
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n as f64;
                -p * p.log2()
            })
            .sum();
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let avg = codec.payload_bits(&h) as f64 / n as f64;
        assert!(avg >= entropy - 1e-9);
        assert!(avg < entropy + 1.0);
    }

    /// The dense builder this module had before a codec was sized by its
    /// present symbols, frozen: every stage allocates and scans the whole
    /// alphabet. Returns the serialized codebook and the encoded payload.
    fn frozen_dense_codec(counts: &[u64], symbols: &[u32]) -> (Vec<u8>, Vec<u8>) {
        fn dense_code_lengths(counts: &[u64]) -> Vec<u32> {
            let present: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
            let mut lengths = vec![0u32; counts.len()];
            if present.len() == 1 {
                lengths[present[0]] = 1;
                return lengths;
            }
            let nsym = present.len();
            let mut parent = vec![usize::MAX; 2 * nsym - 1];
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                present.iter().enumerate().map(|(leaf, &s)| Reverse((counts[s], leaf))).collect();
            let mut next_id = nsym;
            while heap.len() > 1 {
                let a = heap.pop().unwrap().0;
                let b = heap.pop().unwrap().0;
                parent[a.1] = next_id;
                parent[b.1] = next_id;
                heap.push(Reverse((a.0 + b.0, next_id)));
                next_id += 1;
            }
            for (leaf, &s) in present.iter().enumerate() {
                let mut node = leaf;
                while parent[node] != usize::MAX {
                    node = parent[node];
                    lengths[s] += 1;
                }
            }
            lengths
        }

        let mut scaled = counts.to_vec();
        let lengths = loop {
            let lengths = dense_code_lengths(&scaled);
            if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
                break lengths;
            }
            for c in scaled.iter_mut().filter(|c| **c > 0) {
                *c = (*c as f64).sqrt().ceil() as u64;
            }
        };
        let mut canonical: Vec<u32> =
            (0..lengths.len() as u32).filter(|&s| lengths[s as usize] > 0).collect();
        canonical.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![0u64; lengths.len()];
        let (mut code, mut prev_len) = (0u64, 0u32);
        for &s in &canonical {
            code <<= lengths[s as usize] - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = lengths[s as usize];
        }

        let mut book = Vec::new();
        put_uvarint(&mut book, lengths.len() as u64);
        let mut i = 0;
        while i < lengths.len() {
            if lengths[i] == 0 {
                let start = i;
                while i < lengths.len() && lengths[i] == 0 {
                    i += 1;
                }
                put_uvarint(&mut book, 0);
                put_uvarint(&mut book, (i - start) as u64);
            } else {
                put_uvarint(&mut book, lengths[i] as u64);
                i += 1;
            }
        }
        let mut w = BitWriter::new();
        for &s in symbols {
            w.put_bits(codes[s as usize], lengths[s as usize]);
        }
        (book, w.finish())
    }

    /// Built over the present symbols only, the codec is the dense
    /// builder's: same codebook bytes, same payload, from either
    /// constructor, and the book it writes reads back to the same code.
    #[test]
    fn sparse_build_matches_the_frozen_dense_builder() {
        let mut st = 0x0DDB_A115_EED5_u64;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        let mut cases: Vec<Vec<u64>> = Vec::new();
        for alphabet in [2usize, 3, 17, 300, 4096, 65_537] {
            // One present symbol: first, last, somewhere.
            for at in [0, alphabet - 1, alphabet / 2] {
                let mut h = vec![0u64; alphabet];
                h[at] = 1 + next() % 1000;
                cases.push(h);
            }
            // Both ends present, around a cluster of random weights.
            for spread in [1usize, 40, 900] {
                let mut h = vec![0u64; alphabet];
                h[0] = 1 + next() % 50;
                h[alphabet - 1] = 1 + next() % 50;
                for _ in 0..spread.min(alphabet) {
                    let at = (alphabet / 2 + (next() % spread as u64) as usize) % alphabet;
                    h[at] += 1 + next() % (1 << (next() % 20));
                }
                cases.push(h);
            }
            // Dense and flat, ties everywhere.
            cases.push((0..alphabet.min(700)).map(|i| 1 + (i % 3) as u64).collect());
        }
        // Fibonacci weights, 45 deep: the optimal tree is a chain longer
        // than MAX_CODE_LEN, so the flattening loop runs.
        let mut fib = vec![0u64; 200];
        let (mut a, mut b) = (1u64, 1u64);
        for slot in fib.iter_mut().skip(100).take(45) {
            *slot = a;
            (a, b) = (b, a + b);
        }
        let chain = dense_depth(&fib);
        assert!(chain > MAX_CODE_LEN, "Fibonacci tree only {chain} deep");
        cases.push(fib);

        for counts in cases {
            let present: Vec<(u32, u64)> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (s as u32, c))
                .collect();
            // Every present symbol, then a run of draws among them.
            let mut symbols: Vec<u32> = present.iter().map(|&(s, _)| s).collect();
            symbols.extend((0..300).map(|_| present[(next() % present.len() as u64) as usize].0));
            let (book, payload) = frozen_dense_codec(&counts, &symbols);

            let what = format!("alphabet {}, {} present", counts.len(), present.len());
            let dense = HuffmanCodec::from_counts(&counts).unwrap();
            let sparse = HuffmanCodec::from_present(counts.len(), &present).unwrap();
            let (read, used) = HuffmanCodec::deserialize_codebook(&book).unwrap();
            assert_eq!(used, book.len(), "{what}");
            for codec in [&dense, &sparse, &read] {
                assert_eq!(codec.serialize_codebook(), book, "{what}");
                assert_eq!(codec.encode(&symbols).unwrap(), payload, "{what}");
                assert_eq!(codec.encode_reference(&symbols).unwrap(), payload, "{what}");
                assert_eq!(codec.decode(&payload, symbols.len()).unwrap(), symbols, "{what}");
                assert_eq!(codec.alphabet_len(), counts.len());
                assert_eq!(codec.distinct_symbols(), present.len());
                assert_eq!(codec.payload_bits(&counts), dense.payload_bits(&counts));
                assert!(codec.max_len <= MAX_CODE_LEN);
                // Absent symbols — beside, between and beyond the present
                // ones — have no code and do not encode.
                for absent in [counts.len() as u32, u32::MAX]
                    .into_iter()
                    .chain((0..counts.len() as u32).filter(|&s| counts[s as usize] == 0).take(3))
                {
                    assert_eq!(codec.code_len(absent), 0, "{what}: symbol {absent}");
                    assert_eq!(
                        codec.encode(&[absent]).unwrap_err(),
                        HuffmanError::UnknownSymbol(absent)
                    );
                }
            }
        }
    }

    /// Depth of the unrestricted Huffman tree of `counts`.
    fn dense_depth(counts: &[u64]) -> u32 {
        let weights: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        build_code_lengths(&weights).into_iter().max().unwrap()
    }

    /// A book costs what its bytes cost, whatever alphabet and whatever
    /// distance between symbols they claim.
    #[test]
    fn a_codec_read_from_a_book_is_sized_by_the_book() {
        for book in [
            // 2^28 symbols: a 1-bit code, 2^28 - 2 absent, a 1-bit code.
            [&[0x80, 0x80, 0x80, 0x80, 0x01, 1, 0][..], &[0xFE, 0xFF, 0xFF, 0x7F, 1]].concat(),
            // The same two symbols, nothing after the second.
            [&[0x80, 0x80, 0x80, 0x80, 0x01, 1, 0][..], &[0xFD, 0xFF, 0xFF, 0x7F, 1, 0, 1]]
                .concat(),
        ] {
            let (codec, used) = HuffmanCodec::deserialize_codebook(&book).unwrap();
            assert_eq!(used, book.len());
            assert_eq!(codec.alphabet_len(), 1 << 28);
            assert_eq!(codec.distinct_symbols(), 2);
            assert!(codec.enc_table.is_empty() && codec.sorted_symbols.len() == 2);
            assert_eq!(codec.serialize_codebook(), book);
            let far = codec.sorted_symbols[1];
            assert!(far >= (1 << 28) - 2);
            let bytes = codec.encode(&[0, far, far, 0]).unwrap();
            assert_eq!(codec.decode(&bytes, 4).unwrap(), vec![0, far, far, 0]);
        }
    }

    #[test]
    fn truncated_stream_is_error_not_panic() {
        let symbols: Vec<u32> = (0..100).map(|i| i % 5).collect();
        let h = histogram(&symbols, 5);
        let codec = HuffmanCodec::from_counts(&h).unwrap();
        let bytes = codec.encode(&symbols).unwrap();
        let r = codec.decode(&bytes[..bytes.len() / 2], symbols.len());
        assert!(r.is_err());
    }
}
