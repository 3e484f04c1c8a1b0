//! MSB-first bit-level I/O over byte buffers.
//!
//! Both endpoints run on 64-bit accumulators (the `bit_queue` scheme from
//! fast entropy coders): the writer stages up to 64 bits and flushes whole
//! bytes at once; the reader keeps the next bits *left-aligned* in a 64-bit
//! look-ahead register so a decoder can [`BitReader::peek`] a whole code's
//! worth of bits with one shift and commit with [`BitReader::try_consume`].
//! The byte stream produced and consumed is **identical** to the original
//! byte-at-a-time implementation (frozen in `tests/frozen_kernels` and held
//! equal by `tests/kernel_differential.rs`).
//!
//! Invariants of the reader's look-ahead register:
//! * `acc`'s most-significant `bits` bits are the next unconsumed payload
//!   bits in stream order; everything below is zero.
//! * after [`BitReader::refill`], `bits >= 56` or every remaining byte of
//!   the buffer has been loaded — so any `peek(n)` with `n <= 56` sees all
//!   bits that exist, zero-padded past end-of-stream.
//! * `position() + bits` never exceeds `bit_len()`: peeking is free but
//!   consuming past the end is refused, which is what keeps truncation
//!   detection byte-for-byte equal to the old reader.

/// Accumulates bits MSB-first into a byte vector.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits currently staged in the low end of `acc` (0..=64).
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move every whole staged byte from `acc` into the output buffer,
    /// leaving `nbits < 8`.
    #[inline]
    fn flush_whole_bytes(&mut self) {
        let whole = (self.nbits / 8) as usize;
        if whole > 0 {
            // Left-align the valid bits; stale bits above them shift out.
            let bytes = (self.acc << (64 - self.nbits)).to_be_bytes();
            self.buf.extend_from_slice(&bytes[..whole]);
            self.nbits -= whole as u32 * 8;
        }
    }

    /// Append the low `len` bits of `code`, most significant first.
    ///
    /// # Panics
    /// Panics (debug) if `len > 64`.
    #[inline]
    pub fn put_bits(&mut self, code: u64, len: u32) {
        debug_assert!(len <= 64);
        if len > 32 {
            // Two register-sized appends: the direct path below needs
            // `nbits + len <= 64` even right after a flush (nbits <= 7).
            self.put_bits(code >> 32, len - 32);
            self.put_bits(code & 0xFFFF_FFFF, 32);
            return;
        }
        if len == 0 {
            return;
        }
        if self.nbits + len > 64 {
            self.flush_whole_bytes();
        }
        self.acc = (self.acc << len) | (code & ((1u64 << len) - 1));
        self.nbits += len;
        if self.nbits >= 56 {
            self.flush_whole_bytes();
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
        self.flush_whole_bytes();
        if self.nbits > 0 {
            self.buf.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice through a 64-bit look-ahead
/// register.
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor (bits consumed so far).
    pos: u64,
    /// Next unconsumed bits, left-aligned; zero below the top `bits` bits.
    acc: u64,
    /// Valid bits in `acc`.
    bits: u32,
    /// Next byte of `buf` to load into `acc`.
    next: usize,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0, acc: 0, bits: 0, next: 0 }
    }

    /// Total bits available.
    pub fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8
    }

    /// Bits consumed so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Bits not yet consumed.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.bit_len() - self.pos
    }

    /// Top up the look-ahead register. Afterwards `bits >= 56` or the
    /// whole buffer tail is loaded.
    #[inline]
    pub fn refill(&mut self) {
        if self.next + 8 <= self.buf.len() {
            // Branch-light path: OR in a full word, advance by the bytes
            // that actually fit (`bits | 56 == bits + 8 * ((63 - bits) / 8)`
            // for `bits <= 63`; `bits == 64` is unreachable here because it
            // can only arise from the tail loop, after which no whole word
            // remains).
            let w = u64::from_be_bytes(self.buf[self.next..self.next + 8].try_into().unwrap());
            self.acc |= w >> self.bits;
            self.next += ((63 - self.bits) >> 3) as usize;
            self.bits |= 56;
        } else {
            while self.bits <= 56 && self.next < self.buf.len() {
                self.acc |= (self.buf[self.next] as u64) << (56 - self.bits);
                self.bits += 8;
                self.next += 1;
            }
        }
    }

    /// The next `n` bits without consuming them, zero-padded past the end
    /// of the stream. Requires a preceding [`Self::refill`] and `n <= 56`
    /// (and `n >= 1`).
    #[inline]
    pub fn peek(&self, n: u32) -> u64 {
        debug_assert!((1..=56).contains(&n));
        self.acc >> (64 - n)
    }

    /// Consume `n` bits if at least that many remain; `false` (and no
    /// state change) otherwise. `n` must not exceed the bits made visible
    /// by the last [`Self::refill`].
    #[inline]
    pub fn try_consume(&mut self, n: u32) -> bool {
        if self.pos + n as u64 > self.bit_len() {
            return false;
        }
        debug_assert!(n <= self.bits);
        self.acc <<= n;
        self.bits -= n;
        self.pos += n as u64;
        true
    }

    /// Read `len` bits MSB-first; `None` if the buffer is exhausted.
    #[inline]
    pub fn get_bits(&mut self, len: u32) -> Option<u64> {
        debug_assert!(len <= 64);
        if len > 32 {
            // Check the whole length upfront so a failing read never
            // consumes the first half (the reference reader refuses
            // atomically), then two register-sized reads; each is
            // <= 32 <= the post-refill look-ahead guarantee.
            if self.pos + len as u64 > self.bit_len() {
                return None;
            }
            let hi = self.get_bits(len - 32)?;
            let lo = self.get_bits(32)?;
            return Some((hi << 32) | lo);
        }
        if self.pos + len as u64 > self.bit_len() {
            return None;
        }
        if len == 0 {
            return Some(0);
        }
        self.refill();
        // `remaining >= len` and refill loaded min(57+, everything left),
        // so `bits >= len` here.
        let v = self.acc >> (64 - len);
        self.acc <<= len;
        self.bits -= len;
        self.pos += len as u64;
        Some(v)
    }

    /// Read a single bit.
    #[inline]
    pub fn get_bit(&mut self) -> Option<bool> {
        self.get_bits(1).map(|b| b == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_varied_widths() {
        let mut w = BitWriter::new();
        let items: Vec<(u64, u32)> =
            vec![(1, 1), (0b101, 3), (0xdead, 16), (0, 5), (u64::MAX >> 3, 61), (0b11, 2)];
        for &(v, l) in &items {
            w.put_bits(v, l);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, l) in &items {
            assert_eq!(r.get_bits(l), Some(v), "width {l}");
        }
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        w.put_bits(0b1, 1);
        w.put_bits(0b1010, 4);
        assert_eq!(w.bit_len(), 5);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1);
        // 1 1010 padded with three zeros => 0b11010000
        assert_eq!(bytes[0], 0b1101_0000);
    }

    #[test]
    fn reader_exhaustion() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(8), Some(0xff));
        assert_eq!(r.get_bits(1), None);
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        for i in 0..13 {
            w.put_bit(i % 3 == 0);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..13 {
            assert_eq!(r.get_bit(), Some(i % 3 == 0));
        }
    }

    #[test]
    fn sixty_four_bit_value() {
        let mut w = BitWriter::new();
        w.put_bits(u64::MAX, 64);
        w.put_bits(0, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(64), Some(u64::MAX));
        assert_eq!(r.get_bits(64), Some(0));
    }

    #[test]
    fn peek_is_zero_padded_and_consume_checked() {
        let bytes = [0b1010_0000u8];
        let mut r = BitReader::new(&bytes);
        r.refill();
        assert_eq!(r.peek(3), 0b101);
        // Peeking further than the stream pads with zeros...
        assert_eq!(r.peek(16), 0b1010_0000_0000_0000);
        // ...but consuming past the end is refused.
        assert!(r.try_consume(8));
        assert!(!r.try_consume(1));
        assert_eq!(r.position(), 8);
    }
}
