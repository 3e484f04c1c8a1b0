//! The embedded bitplane coder and the public compress/decompress API.
//!
//! Coefficients are coded in sign–magnitude form, one bitplane at a time
//! from the most significant plane down: a coefficient that becomes
//! significant at plane `k` emits a 1-flag plus its sign; already
//! significant coefficients emit their plane-`k` bit; insignificant ones a
//! 0-flag. Coding stops at the plane where the truncation error — after
//! worst-case amplification through the inverse transform — is below the
//! requested absolute bound, which is what makes the codec error-bounded.
//!
//! # A block's state
//!
//! One scratch per call (three stack arrays sized for the largest block: a
//! block's values, its fixed-point integers and its coefficient magnitudes)
//! and, per block, three `Mask`s over the coefficients in sequency order:
//! `sig` (significant so far), `neg` (negative) and, per plane `k`, `plane`
//! (bit `k` of the magnitude set). Nothing is allocated per block or per
//! plane; a chunk's heap traffic is its payload [`BitWriter`] and its header.
//!
//! * **Refinement** of plane `k` is the bits of `plane` at the positions of
//!   `sig`, ascending: gathered into a word and written by one `put_bits`
//!   per mask word (MSB-first, so the lowest position goes out first).
//! * **Significance** is event-coded over `insig`, the coefficients not yet
//!   significant that lie above the last event: no set bit of `plane` among
//!   them ends the plane with one 0-flag; otherwise the lowest one, `idx`, is
//!   an event — a 1-flag, the number of `insig` positions below `idx` in
//!   `ceil_log2(|insig|)` bits, and the sign — which is one `put_bits`. The
//!   event's coefficient moves to `sig` and `insig` keeps only what lies
//!   above `idx`: a coefficient that becomes significant during a plane is
//!   always below the cursor, so the mask is the list an explicit walk over
//!   the insignificant coefficients would keep.
//!
//! The decoder mirrors it with the same masks, and trusts nothing it reads:
//! the block flag, `e_max`, `top`, `k_min`, every refinement word, event
//! flag, offset and sign answer end-of-stream with [`ZfpError::Corrupt`], as
//! do `top > 62`, `k_min > top` and an offset at or past the insignificant
//! count; `parse_header` refuses a shape with more blocks than payload
//! bits before anything is allocated for it. Empty blocks store explicit
//! zeros, so a dirty destination is overwritten in full.

use crate::block::{
    extract_padded, from_fixed_point, store_block, to_fixed_point, BLOCK_MAX, BLOCK_SIDE, Q_BITS,
};
use crate::transform::{fwd_transform, inv_transform, sequency_order};
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_encoding::{BitReader, BitWriter};
use rq_grid::{BlockIter, NdArray, Scalar, Shape, MAX_DIMS};

const MAGIC: &[u8; 4] = b"RQZF";

/// Worst-case log2 amplification of a truncation error through the
/// inverse transform, per dimension. The lifting steps at most double an
/// error per axis pass plus carry mixing; 2 bits/dimension is conservative
/// (validated by the error-bound tests and proptests).
const GAIN_BITS_PER_DIM: i32 = 2;

/// Mask words of the largest block; a 1-D to 3-D block (at most 64
/// coefficients) takes one.
const WORDS_MAX: usize = BLOCK_MAX / 64;

/// Errors surfaced by the codec.
#[derive(Debug)]
pub enum ZfpError {
    /// The tolerance is not positive/finite.
    BadTolerance(f64),
    /// The buffer is not an RQZF container or is corrupt.
    Corrupt(&'static str),
    /// Scalar type mismatch.
    ScalarMismatch,
}

impl std::fmt::Display for ZfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZfpError::BadTolerance(t) => write!(f, "bad tolerance {t}"),
            ZfpError::Corrupt(w) => write!(f, "corrupt zfp stream: {w}"),
            ZfpError::ScalarMismatch => write!(f, "scalar tag mismatch"),
        }
    }
}

impl std::error::Error for ZfpError {}

/// A set of coefficient positions of one block, in sequency order: position
/// `i` is bit `i % 64` of word `i / 64`.
#[derive(Clone, Copy)]
struct Mask<const W: usize>([u64; W]);

impl<const W: usize> Mask<W> {
    const EMPTY: Self = Mask([0; W]);

    /// The positions `0..n`.
    fn first(n: usize) -> Self {
        let mut words = [0u64; W];
        for (w, word) in words.iter_mut().enumerate() {
            *word = match n.saturating_sub(64 * w) {
                0 => 0,
                m if m >= 64 => !0,
                m => (1 << m) - 1,
            };
        }
        Mask(words)
    }

    /// The positions whose magnitude has bit `k` set.
    #[inline]
    fn plane(mags: &[u64], k: i32) -> Self {
        let mut words = [0u64; W];
        for (word, mags) in words.iter_mut().zip(mags.chunks(64)) {
            for (i, &m) in mags.iter().enumerate() {
                *word |= ((m >> k) & 1) << i;
            }
        }
        Mask(words)
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    #[inline]
    fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// The positions in both masks.
    #[inline]
    fn and(self, other: Self) -> Self {
        Mask(std::array::from_fn(|w| self.0[w] & other.0[w]))
    }

    /// The positions of `self` that are not in `other`.
    #[inline]
    fn and_not(self, other: Self) -> Self {
        Mask(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }

    /// The lowest position, if any.
    #[inline]
    fn lowest(&self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(64 * w + self.0[w].trailing_zeros() as usize)
    }

    /// How many positions lie below `i`.
    #[inline]
    fn count_below(&self, i: usize) -> u32 {
        let below: u32 = self.0[..i / 64].iter().map(|w| w.count_ones()).sum();
        below + (self.0[i / 64] & ((1 << (i % 64)) - 1)).count_ones()
    }

    /// The `rank`-th position from the bottom (`rank < self.count()`).
    #[inline]
    fn select(&self, mut rank: u32) -> usize {
        for (w, &word) in self.0.iter().enumerate() {
            let here = word.count_ones();
            if rank < here {
                let mut word = word;
                for _ in 0..rank {
                    word &= word - 1;
                }
                return 64 * w + word.trailing_zeros() as usize;
            }
            rank -= here;
        }
        unreachable!("rank is below the mask's count")
    }

    /// Drop position `i` and every position below it.
    #[inline]
    fn remove_through(&mut self, i: usize) {
        self.0[..i / 64].fill(0);
        self.0[i / 64] &= (!1u64) << (i % 64);
    }
}

/// Compress `field` under a point-wise absolute error bound `tolerance`.
pub fn zfp_compress<T: Scalar>(
    field: &NdArray<T>,
    tolerance: f64,
) -> Result<Vec<u8>, ZfpError> {
    zfp_compress_slice(field.as_slice(), field.shape(), tolerance)
}

/// [`zfp_compress`] over a raw row-major slice (`data.len()` must equal
/// `shape.len()`); lets the chunk-parallel pipeline encode sub-slabs of a
/// larger buffer without copying.
pub fn zfp_compress_slice<T: Scalar>(
    data: &[T],
    shape: Shape,
    tolerance: f64,
) -> Result<Vec<u8>, ZfpError> {
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err(ZfpError::BadTolerance(tolerance));
    }
    debug_assert_eq!(data.len(), shape.len());
    let nd = shape.ndim();

    let mut header = Vec::new();
    header.extend_from_slice(MAGIC);
    header.push(T::TAG);
    header.push(nd as u8);
    for &d in shape.dims() {
        put_uvarint(&mut header, d as u64);
    }
    header.extend_from_slice(&tolerance.to_le_bytes());

    let mut w = BitWriter::new();
    if BLOCK_SIDE.pow(nd as u32) <= 64 {
        encode_payload::<T, 1>(data, shape, tolerance, &mut w);
    } else {
        encode_payload::<T, WORDS_MAX>(data, shape, tolerance, &mut w);
    }
    let payload = w.finish();
    put_uvarint(&mut header, payload.len() as u64);
    header.extend_from_slice(&payload);
    Ok(header)
}

/// Code every block of `data` into `w`; `W` mask words hold a block.
fn encode_payload<T: Scalar, const W: usize>(
    data: &[T],
    shape: Shape,
    tolerance: f64,
    w: &mut BitWriter,
) {
    let nd = shape.ndim();
    let n = BLOCK_SIDE.pow(nd as u32);
    debug_assert!(n <= 64 * W);
    let perm = &sequency_order(nd)[..n];
    let gain_bits = GAIN_BITS_PER_DIM * nd as i32;
    let all = Mask::<W>::first(n);
    // The call's scratch: one block's values, fixed-point integers and
    // coefficient magnitudes.
    let (mut values, mut ints, mut mags) = ([0f64; BLOCK_MAX], [0i64; BLOCK_MAX], [0u64; BLOCK_MAX]);
    let (values, ints, mags) = (&mut values[..n], &mut ints[..n], &mut mags[..n]);

    for block in BlockIter::new(shape, BLOCK_SIDE) {
        extract_padded(data, shape, block.origin_slice(), values);
        let e_max = to_fixed_point(values, ints);
        if e_max == i32::MIN {
            w.put_bit(false); // empty-block flag
            continue;
        }
        fwd_transform(ints, nd);
        let mut neg = Mask::<W>::EMPTY;
        let mut max_mag = 0u64;
        for (i, (mag, &p)) in mags.iter_mut().zip(perm).enumerate() {
            let c = ints[p as usize];
            *mag = c.unsigned_abs();
            max_mag = max_mag.max(*mag);
            if c < 0 {
                neg.insert(i);
            }
        }

        // Plane range: from the top set bit down to the tolerance floor.
        let top = 63 - max_mag.max(1).leading_zeros() as i32;
        // tol_fixed = tolerance · 2^(Q − e_max); keep planes ≥ k_min where
        // 2^k_min · 2^gain ≤ tol_fixed.
        let tol_log = (tolerance.log2() + (Q_BITS - e_max) as f64).floor() as i32;
        let k_min = (tol_log - gain_bits).max(0);
        if k_min > top {
            // Every coefficient lies below the tolerance floor: zeroing
            // the block keeps the (gain-amplified) truncation error under
            // the bound, exactly like an all-zero input block. This case
            // is real — tiny-but-nonzero data under a loose tolerance —
            // and must not reach the plane writer: 7-bit fields cannot
            // hold a k_min that can exceed 1000 for denormal-range blocks
            // (writing it truncated used to corrupt the stream).
            w.put_bit(false);
            continue;
        }
        w.put_bit(true);
        // Biased exponent in 12 bits covers f64's range.
        w.put_bits((e_max + 1100) as u64, 12);
        w.put_bits(top as u64, 7);
        w.put_bits(k_min as u64, 7);

        let mut sig = Mask::<W>::EMPTY;
        for k in (k_min..=top).rev() {
            let plane = Mask::<W>::plane(mags, k);
            // Refinement pass: one bit per already-significant coefficient.
            for (&bits, &at) in plane.0.iter().zip(&sig.0) {
                let mut word = 0u64;
                let mut rest = at;
                while rest != 0 {
                    word = (word << 1) | ((bits >> rest.trailing_zeros()) & 1);
                    rest &= rest - 1;
                }
                w.put_bits(word, at.count_ones());
            }
            // Significance pass: event-coded over the (sequency-ordered)
            // insignificant tail — one flag per event plus a binary offset,
            // so quiet planes cost a single bit.
            let mut insig = all.and_not(sig);
            while !insig.is_empty() {
                let Some(idx) = plane.and(insig).lowest() else {
                    w.put_bit(false);
                    break;
                };
                let width = ceil_log2(insig.count());
                let event = (1 << (width + 1))
                    | (u64::from(insig.count_below(idx)) << 1)
                    | u64::from(neg.contains(idx));
                w.put_bits(event, width + 2);
                sig.insert(idx);
                insig.remove_through(idx);
            }
        }
    }
}

/// Parsed RQZF stream header: shape plus the payload location.
struct ZfpHeader {
    scalar_tag: u8,
    shape: Shape,
    payload_start: usize,
    payload_len: usize,
}

/// Parse and validate the RQZF header prefix.
fn parse_header(bytes: &[u8]) -> Result<ZfpHeader, ZfpError> {
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(ZfpError::Corrupt("magic"));
    }
    let scalar_tag = bytes[4];
    let nd = bytes[5] as usize;
    if nd == 0 || nd > MAX_DIMS {
        return Err(ZfpError::Corrupt("ndim"));
    }
    let mut pos = 6;
    let mut dims = [0usize; MAX_DIMS];
    let mut len = 1usize;
    for d in dims.iter_mut().take(nd) {
        *d = get_uvarint(bytes, &mut pos).ok_or(ZfpError::Corrupt("dims"))? as usize;
        if *d == 0 || *d > (1 << 32) {
            return Err(ZfpError::Corrupt("bad dim extent"));
        }
        // A corrupt varint can encode extents whose product overflows.
        len = len.checked_mul(*d).ok_or(ZfpError::Corrupt("element count overflow"))?;
    }
    let shape = Shape::new(&dims[..nd]);
    if pos + 8 > bytes.len() {
        return Err(ZfpError::Corrupt("tolerance"));
    }
    let _tolerance = f64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    pos += 8;
    let payload_len =
        get_uvarint(bytes, &mut pos).ok_or(ZfpError::Corrupt("payload len"))? as usize;
    if pos.checked_add(payload_len).is_none_or(|end| end > bytes.len()) {
        return Err(ZfpError::Corrupt("payload"));
    }
    // Every block costs at least its flag bit, so a shape with more blocks
    // than payload bits cannot decode: refuse it here, before the decoder
    // walks the blocks a 25-byte header claims.
    if BlockIter::new(shape, BLOCK_SIDE).block_count().div_ceil(8) > payload_len {
        return Err(ZfpError::Corrupt("shape exceeds payload"));
    }
    Ok(ZfpHeader { scalar_tag, shape, payload_start: pos, payload_len })
}

/// Decompress an RQZF stream into a caller-provided slice, verifying the
/// stream describes exactly `shape` (`out.len() == shape.len()`). Lets the
/// chunk-parallel pipeline decode straight into disjoint slabs of the
/// output buffer — and, because the caller sizes the output and the
/// stream's shape must match it, a corrupt stream cannot trigger a huge
/// allocation.
pub fn zfp_decompress_into<T: Scalar>(
    bytes: &[u8],
    shape: Shape,
    out: &mut [T],
) -> Result<(), ZfpError> {
    debug_assert_eq!(out.len(), shape.len());
    let h = parse_header(bytes)?;
    if h.scalar_tag != T::TAG {
        return Err(ZfpError::ScalarMismatch);
    }
    if h.shape.dims() != shape.dims() {
        return Err(ZfpError::Corrupt("shape mismatch"));
    }
    decode_payload(&bytes[h.payload_start..h.payload_start + h.payload_len], shape, out)
}

/// Decode the bitplane payload into `out` (`out.len() == shape.len()`).
fn decode_payload<T: Scalar>(
    payload: &[u8],
    shape: Shape,
    out: &mut [T],
) -> Result<(), ZfpError> {
    if BLOCK_SIDE.pow(shape.ndim() as u32) <= 64 {
        decode_blocks::<T, 1>(payload, shape, out)
    } else {
        decode_blocks::<T, WORDS_MAX>(payload, shape, out)
    }
}

/// [`decode_payload`] with `W` mask words to a block.
fn decode_blocks<T: Scalar, const W: usize>(
    payload: &[u8],
    shape: Shape,
    out: &mut [T],
) -> Result<(), ZfpError> {
    let nd = shape.ndim();
    let n = BLOCK_SIDE.pow(nd as u32);
    debug_assert!(n <= 64 * W);
    let mut r = BitReader::new(payload);
    let perm = &sequency_order(nd)[..n];
    let all = Mask::<W>::first(n);
    // The call's scratch: one block's values, fixed-point integers and
    // coefficient magnitudes.
    let (mut values, mut ints, mut mags) = ([0f64; BLOCK_MAX], [0i64; BLOCK_MAX], [0u64; BLOCK_MAX]);
    let (values, ints, mags) = (&mut values[..n], &mut ints[..n], &mut mags[..n]);

    for block in BlockIter::new(shape, BLOCK_SIDE) {
        let nonempty = r.get_bit().ok_or(ZfpError::Corrupt("block flag"))?;
        if !nonempty {
            // Store explicit zeros: `out` may hold anything, so the
            // decoder overwrites every element rather than rely on a
            // pre-zeroed destination.
            store_block(out, shape, block.origin_slice(), &[0.0; BLOCK_MAX][..n]);
            continue;
        }
        let e_max = r.get_bits(12).ok_or(ZfpError::Corrupt("e_max"))? as i32 - 1100;
        let top = r.get_bits(7).ok_or(ZfpError::Corrupt("top"))? as i32;
        let k_min = r.get_bits(7).ok_or(ZfpError::Corrupt("k_min"))? as i32;
        if top > 62 || k_min > top {
            return Err(ZfpError::Corrupt("plane range"));
        }
        mags.fill(0);
        let mut sig = Mask::<W>::EMPTY;
        let mut neg = Mask::<W>::EMPTY;
        for k in (k_min..=top).rev() {
            // Refinement pass: each word's bits, scattered over the
            // significant positions from the lowest up.
            for (mags, &at) in mags.chunks_mut(64).zip(&sig.0) {
                let count = at.count_ones();
                if count == 0 {
                    continue;
                }
                let word = r.get_bits(count).ok_or(ZfpError::Corrupt("refinement bit"))?;
                let mut word = word << (64 - count);
                let mut rest = at;
                while rest != 0 {
                    mags[rest.trailing_zeros() as usize] |= (word >> 63) << k;
                    word <<= 1;
                    rest &= rest - 1;
                }
            }
            // Significance pass: an event is a 1-flag, an offset into the
            // insignificant tail and a sign, looked at together.
            let mut insig = all.and_not(sig);
            while !insig.is_empty() {
                let remaining = insig.count();
                let width = ceil_log2(remaining);
                r.refill();
                let event = r.peek(width + 2);
                if event >> (width + 1) == 0 {
                    if !r.try_consume(1) {
                        return Err(ZfpError::Corrupt("event flag"));
                    }
                    break;
                }
                let off = ((event >> 1) & ((1 << width) - 1)) as u32;
                if !r.try_consume(width + 2) {
                    // The stream ends inside the event: name the field
                    // that ran off it (the offset's bits are all there
                    // when only the sign is missing).
                    let left = r.remaining();
                    return Err(ZfpError::Corrupt(if left < 1 + u64::from(width) {
                        "event offset"
                    } else if off >= remaining {
                        "event offset range"
                    } else {
                        "sign bit"
                    }));
                }
                if off >= remaining {
                    return Err(ZfpError::Corrupt("event offset range"));
                }
                let idx = insig.select(off);
                sig.insert(idx);
                mags[idx] |= 1u64 << k;
                if event & 1 == 1 {
                    neg.insert(idx);
                }
                insig.remove_through(idx);
            }
        }
        // Undo the sequency permutation, then the transform.
        for (i, (&mag, &p)) in mags.iter().zip(perm).enumerate() {
            // Mid-point reconstruction of the truncated tail halves the
            // expected truncation error.
            let mut m = mag as i64;
            if sig.contains(i) && k_min > 0 {
                m += 1i64 << (k_min - 1);
            }
            ints[p as usize] = if neg.contains(i) { -m } else { m };
        }
        inv_transform(ints, nd);
        from_fixed_point(e_max, ints, values);
        store_block(out, shape, block.origin_slice(), values);
    }
    Ok(())
}

/// Bits needed to encode an offset in `0..n` (0 when `n == 1`).
#[inline]
fn ceil_log2(n: u32) -> u32 {
    debug_assert!(n >= 1);
    u32::BITS - (n - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> NdArray<f32> {
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.17 * (a + 1) as f64).sin() * 3.0 / (a + 1) as f64;
            }
            v as f32
        })
    }

    /// Decode `bytes` into a fresh field of the `shape` the caller expects.
    fn decode<T: Scalar>(bytes: &[u8], shape: Shape) -> Result<NdArray<T>, ZfpError> {
        let mut out = NdArray::<T>::zeros(shape);
        zfp_decompress_into(bytes, shape, out.as_mut_slice())?;
        Ok(out)
    }

    fn check_bound(a: &NdArray<f32>, b: &NdArray<f32>, tol: f64) {
        for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                ((x - y).abs() as f64) <= tol,
                "element {i}: |{x} - {y}| > {tol}"
            );
        }
    }

    #[test]
    fn roundtrip_1d_2d_3d_within_bound() {
        for (shape, tol) in [
            (Shape::d1(100), 1e-3),
            (Shape::d2(33, 47), 1e-3),
            (Shape::d3(20, 17, 25), 1e-2),
        ] {
            let f = smooth(shape);
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = decode::<f32>(&bytes, shape).unwrap();
            assert_eq!(back.shape().dims(), shape.dims());
            check_bound(&f, &back, tol);
        }
    }

    #[test]
    fn smooth_data_compresses() {
        let f = smooth(Shape::d3(32, 32, 32));
        let bytes = zfp_compress(&f, 1e-3).unwrap();
        let ratio = (f.len() * 4) as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "ratio {ratio:.2}");
    }

    #[test]
    fn tighter_tolerance_bigger_stream() {
        let f = smooth(Shape::d2(64, 64));
        let loose = zfp_compress(&f, 1e-1).unwrap().len();
        let tight = zfp_compress(&f, 1e-5).unwrap().len();
        assert!(tight > loose, "tight {tight} loose {loose}");
    }

    #[test]
    fn all_zero_field_is_tiny() {
        let f = NdArray::<f32>::zeros(Shape::d3(16, 16, 16));
        let bytes = zfp_compress(&f, 1e-6).unwrap();
        assert!(bytes.len() < 64, "{} bytes", bytes.len());
        let back = decode::<f32>(&bytes, f.shape()).unwrap();
        assert!(back.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f64_roundtrip() {
        let f = NdArray::<f64>::from_fn(Shape::d2(20, 20), |ix| {
            (ix[0] as f64 * 0.3).cos() * 7.0 + ix[1] as f64 * 1e-3
        });
        let bytes = zfp_compress(&f, 1e-6).unwrap();
        let back = decode::<f64>(&bytes, f.shape()).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn corrupt_streams_are_errors_not_panics() {
        let f = smooth(Shape::d2(16, 16));
        let bytes = zfp_compress(&f, 1e-3).unwrap();
        for cut in [3, 10, bytes.len() / 2] {
            assert!(decode::<f32>(&bytes[..cut], f.shape()).is_err());
        }
        assert!(decode::<f64>(&bytes, f.shape()).is_err(), "scalar mismatch");
        assert!(decode::<f32>(b"NOTZ", f.shape()).is_err());
    }

    #[test]
    fn negligible_blocks_truncate_to_zero_within_bound() {
        // Tiny-but-nonzero values far below the tolerance: the plane
        // range degenerates (k_min > top) and the block must be coded as
        // empty — this used to write a truncated 7-bit k_min and produce
        // a stream the decoder rejects as "plane range".
        for (amp, tol) in [(1e-20f64, 1e-4f64), (1e-300, 1e-3), (1e-9, 1.0)] {
            let f = NdArray::<f32>::from_fn(Shape::d3(9, 9, 9), |ix| {
                (amp * (1.0 + (ix[0] + ix[1] + ix[2]) as f64 * 0.01)) as f32
            });
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = decode::<f32>(&bytes, f.shape()).unwrap();
            check_bound(&f, &back, tol);
        }
        // A field mixing quiescent and live blocks (the RTM snapshot
        // pattern that exposed the bug).
        let f = NdArray::<f32>::from_fn(Shape::d2(32, 32), |ix| {
            if ix[0] < 16 {
                1e-18
            } else {
                ((ix[0] * 32 + ix[1]) as f32 * 0.37).sin() * 5.0
            }
        });
        let tol = 1e-3;
        let bytes = zfp_compress(&f, tol).unwrap();
        let back = decode::<f32>(&bytes, f.shape()).unwrap();
        check_bound(&f, &back, tol);
    }

    #[test]
    fn extreme_magnitudes() {
        let f = NdArray::<f32>::from_fn(Shape::d1(64), |ix| {
            if ix[0] % 2 == 0 {
                1e30
            } else {
                1e30 + 1e24
            }
        });
        let tol = 1e24;
        let bytes = zfp_compress(&f, tol).unwrap();
        let back = decode::<f32>(&bytes, f.shape()).unwrap();
        for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
            assert!(((a - b).abs() as f64) <= tol * 1.001);
        }
    }

    /// Seeded fuzz loop over random shapes/tolerances/noise fields
    /// (formerly a proptest property; the offline build cannot fetch
    /// proptest, so cases are drawn from a fixed xorshift stream).
    #[test]
    fn prop_error_bound_holds() {
        let mut s = 0x2FBE_44B0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for case in 0..40 {
            let d0 = 1 + (next() % 29) as usize;
            let d1 = 1 + (next() % 19) as usize;
            let tol_exp = -5.0 + 5.0 * ((next() >> 11) as f64 / (1u64 << 53) as f64);
            let tol = 10f64.powf(tol_exp);
            let mut v = next() | 1;
            let f = NdArray::<f32>::from_fn(Shape::d2(d0, d1), |_| {
                v ^= v << 13;
                v ^= v >> 7;
                v ^= v << 17;
                ((v >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0) as f32
            });
            let bytes = zfp_compress(&f, tol).unwrap();
            let back = decode::<f32>(&bytes, f.shape()).unwrap();
            for (&a, &b) in f.as_slice().iter().zip(back.as_slice()) {
                assert!(
                    ((a - b).abs() as f64) <= tol,
                    "case {case}: |{a} - {b}| > {tol}"
                );
            }
        }
    }
}
