//! The bit-mask plane coder is the coder it replaced.
//!
//! [`frozen`] is `rq-zfp` as it stood before its block loop moved onto the
//! stack — `zfp_compress_slice`, `zfp_decompress_into` and everything under
//! them, copied verbatim: a `Vec` per block and per plane, a list of
//! insignificant coefficients, one `put_bit` / `get_bit` per coded bit. It
//! lives here, in test code only, as the oracle: the production coder must
//! write its bytes, decode to its values, and refuse what it refuses.

use rq_grid::{Scalar, Shape};

#[allow(dead_code, clippy::all)]
mod frozen {
    use rq_encoding::varint::{get_uvarint, put_uvarint};
    use rq_encoding::{BitReader, BitWriter};
    use rq_grid::{Scalar, Shape, MAX_DIMS};
    use rq_zfp::ZfpError;

    /// Fixed-point fractional precision (bits below the block's max exponent).
    pub const Q_BITS: i32 = 40;

    /// Side length of a codec block.
    pub const BLOCK_SIDE: usize = 4;

    /// Extract the block at `origin` (block-aligned), replicate-padding past
    /// the boundary, as `f64` values in row-major 4^ndim order.
    ///
    /// Operates on a raw row-major slice so callers can encode sub-slabs of a
    /// larger buffer (the chunk-parallel pipeline) without copying.
    pub fn extract_padded<T: Scalar>(data: &[T], shape: Shape, origin: &[usize]) -> Vec<f64> {
        let nd = shape.ndim();
        let n = BLOCK_SIDE.pow(nd as u32);
        let mut out = Vec::with_capacity(n);
        let mut local = [0usize; MAX_DIMS];
        let mut idx = [0usize; MAX_DIMS];
        loop {
            for a in 0..nd {
                // Clamp = replicate padding.
                idx[a] = (origin[a] + local[a]).min(shape.dim(a) - 1);
            }
            out.push(data[shape.offset(&idx[..nd])].to_f64());
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < BLOCK_SIDE {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
        out
    }

    /// Write a decoded block back, ignoring padded lanes.
    pub fn store_block<T: Scalar>(
        data: &mut [T],
        shape: Shape,
        origin: &[usize],
        values: &[f64],
    ) {
        let nd = shape.ndim();
        let mut local = [0usize; MAX_DIMS];
        let mut idx = [0usize; MAX_DIMS];
        let mut pos = 0usize;
        loop {
            let mut in_range = true;
            for a in 0..nd {
                let c = origin[a] + local[a];
                if c >= shape.dim(a) {
                    in_range = false;
                    break;
                }
                idx[a] = c;
            }
            if in_range {
                data[shape.offset(&idx[..nd])] = T::from_f64(values[pos]);
            }
            pos += 1;
            let mut axis = nd;
            let mut done = false;
            loop {
                if axis == 0 {
                    done = true;
                    break;
                }
                axis -= 1;
                local[axis] += 1;
                if local[axis] < BLOCK_SIDE {
                    break;
                }
                local[axis] = 0;
            }
            if done {
                break;
            }
        }
    }

    /// Shared-exponent fixed-point encoding of a block.
    ///
    /// Returns `(e_max, ints)` with `ints[i] = round(v[i] · 2^(Q − e_max))`;
    /// an all-zero/non-finite block returns `e_max = i32::MIN` and zeros.
    pub fn to_fixed_point(values: &[f64]) -> (i32, Vec<i64>) {
        let mut e_max = i32::MIN;
        for &v in values {
            if v != 0.0 && v.is_finite() {
                let (_, e) = frexp(v.abs());
                e_max = e_max.max(e);
            }
        }
        if e_max == i32::MIN {
            return (e_max, vec![0; values.len()]);
        }
        let scale = exp2i(Q_BITS - e_max);
        let ints = values
            .iter()
            .map(|&v| {
                if v.is_finite() {
                    (v * scale).round() as i64
                } else {
                    0
                }
            })
            .collect();
        (e_max, ints)
    }

    /// Inverse of [`to_fixed_point`].
    pub fn from_fixed_point(e_max: i32, ints: &[i64]) -> Vec<f64> {
        if e_max == i32::MIN {
            return vec![0.0; ints.len()];
        }
        let scale = exp2i(e_max - Q_BITS);
        ints.iter().map(|&i| i as f64 * scale).collect()
    }

    /// `2^k` as f64 for |k| within f64 range.
    fn exp2i(k: i32) -> f64 {
        f64::from_bits((((1023 + k.clamp(-1022, 1023)) as u64) << 52).max(1))
    }

    /// Binary exponent of a positive finite f64 (`v = m·2^e`, `m ∈ [0.5, 1)`).
    fn frexp(v: f64) -> (f64, i32) {
        let bits = v.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        if raw_exp == 0 {
            // Subnormal: normalize by multiplying up.
            let scaled = v * exp2i(64);
            let (m, e) = frexp(scaled);
            return (m, e - 64);
        }
        let e = raw_exp - 1022;
        let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
        (m, e)
    }

    /// Forward lift of one 4-vector (in place).
    #[inline]
    pub fn fwd_lift(v: &mut [i64; 4]) {
        let [mut x, mut y, mut z, mut w] = *v;
        // zfp's forward lifting sequence.
        x += w;
        x >>= 1;
        w -= x;
        z += y;
        z >>= 1;
        y -= z;
        x += z;
        x >>= 1;
        z -= x;
        w += y;
        w >>= 1;
        y -= w;
        w += y >> 1;
        y -= w >> 1;
        *v = [x, y, z, w];
    }

    /// Inverse lift of one 4-vector (in place); inverse of [`fwd_lift`] up to
    /// the low bits the `>>1` steps drop (as in libzfp).
    #[inline]
    pub fn inv_lift(v: &mut [i64; 4]) {
        let [mut x, mut y, mut z, mut w] = *v;
        y += w >> 1;
        w -= y >> 1;
        y += w;
        w <<= 1;
        w -= y;
        z += x;
        x <<= 1;
        x -= z;
        y += z;
        z <<= 1;
        z -= y;
        w += x;
        x <<= 1;
        x -= w;
        *v = [x, y, z, w];
    }

    /// Apply the forward lift along every axis of a 4^d block (row-major,
    /// `4usize.pow(d)` elements).
    pub fn fwd_transform(block: &mut [i64], ndim: usize) {
        transform_axes(block, ndim, fwd_lift);
    }

    /// Apply the inverse lift along every axis, in reverse order.
    pub fn inv_transform(block: &mut [i64], ndim: usize) {
        // The per-axis lifts commute only approximately; invert in reverse
        // axis order to be exact.
        let n = block.len();
        let mut axes: Vec<usize> = (0..ndim).collect();
        axes.reverse();
        for &axis in &axes {
            for_each_line(n, ndim, axis, |idx| {
                let mut v = [block[idx[0]], block[idx[1]], block[idx[2]], block[idx[3]]];
                inv_lift(&mut v);
                for k in 0..4 {
                    block[idx[k]] = v[k];
                }
            });
        }
    }

    fn transform_axes(block: &mut [i64], ndim: usize, lift: impl Fn(&mut [i64; 4])) {
        let n = block.len();
        for axis in 0..ndim {
            for_each_line(n, ndim, axis, |idx| {
                let mut v = [block[idx[0]], block[idx[1]], block[idx[2]], block[idx[3]]];
                lift(&mut v);
                for k in 0..4 {
                    block[idx[k]] = v[k];
                }
            });
        }
    }

    /// Enumerate the 4-element lines along `axis` of a 4^ndim cube, invoking
    /// `f` with the four linear indices of each line.
    fn for_each_line(n: usize, ndim: usize, axis: usize, mut f: impl FnMut([usize; 4])) {
        // Row-major strides: last axis fastest.
        let stride = 4usize.pow((ndim - 1 - axis) as u32);
        let lines = n / 4;
        let mut count = 0;
        let mut base = 0usize;
        while count < lines {
            // Skip bases that are not the first element of a line along `axis`.
            if (base / stride).is_multiple_of(4) {
                f([base, base + stride, base + 2 * stride, base + 3 * stride]);
                count += 1;
                base += 1;
            } else {
                // Jump over the rest of this line group.
                base += 3 * stride;
            }
            if base >= n {
                break;
            }
        }
    }

    /// Total-sequency coefficient ordering: coefficients sorted by the sum of
    /// their per-axis indices (low frequencies first), ties broken row-major.
    /// Returns the permutation `perm` such that `reordered[i] = block[perm[i]]`.
    pub fn sequency_order(ndim: usize) -> Vec<usize> {
        let n = 4usize.pow(ndim as u32);
        let mut perm: Vec<usize> = (0..n).collect();
        let key = |lin: usize| -> (usize, usize) {
            let mut rem = lin;
            let mut total = 0;
            for a in (0..ndim).rev() {
                let _ = a;
                total += rem % 4;
                rem /= 4;
            }
            (total, lin)
        };
        perm.sort_by_key(|&l| key(l));
        perm
    }

    const MAGIC: &[u8; 4] = b"RQZF";

    /// Worst-case log2 amplification of a truncation error through the
    /// inverse transform, per dimension. The lifting steps at most double an
    /// error per axis pass plus carry mixing; 2 bits/dimension is conservative
    /// (validated by the error-bound tests and proptests).
    const GAIN_BITS_PER_DIM: i32 = 2;

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
        let perm = sequency_order(nd);
        let gain_bits = GAIN_BITS_PER_DIM * nd as i32;

        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.push(T::TAG);
        header.push(nd as u8);
        for &d in shape.dims() {
            put_uvarint(&mut header, d as u64);
        }
        header.extend_from_slice(&tolerance.to_le_bytes());

        let mut w = BitWriter::new();
        for origin in block_origins(shape) {
            let values = extract_padded(data, shape, &origin[..nd]);
            let (e_max, mut ints) = to_fixed_point(&values);
            if e_max == i32::MIN {
                w.put_bit(false); // empty-block flag
                continue;
            }
            fwd_transform(&mut ints, nd);
            let coeffs: Vec<i64> = perm.iter().map(|&i| ints[i]).collect();

            // Plane range: from the top set bit down to the tolerance floor.
            let max_mag = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
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

            let mut significant = vec![false; coeffs.len()];
            let mut k = top;
            while k >= k_min {
                // Refinement pass: one bit per already-significant coefficient.
                for (i, &c) in coeffs.iter().enumerate() {
                    if significant[i] {
                        w.put_bit((c.unsigned_abs() >> k) & 1 == 1);
                    }
                }
                // Significance pass: event-coded over the (sequency-ordered)
                // insignificant tail — one flag per event plus a binary offset,
                // so quiet planes cost a single bit.
                let insig: Vec<usize> =
                    (0..coeffs.len()).filter(|&i| !significant[i]).collect();
                let mut start = 0usize;
                loop {
                    let remaining = insig.len() - start;
                    if remaining == 0 {
                        break;
                    }
                    let next = insig[start..]
                        .iter()
                        .position(|&i| (coeffs[i].unsigned_abs() >> k) & 1 == 1);
                    match next {
                        None => {
                            w.put_bit(false);
                            break;
                        }
                        Some(off) => {
                            w.put_bit(true);
                            let width = ceil_log2(remaining);
                            w.put_bits(off as u64, width);
                            let idx = insig[start + off];
                            significant[idx] = true;
                            w.put_bit(coeffs[idx] < 0);
                            start += off + 1;
                        }
                    }
                }
                k -= 1;
            }
        }
        let payload = w.finish();
        put_uvarint(&mut header, payload.len() as u64);
        header.extend_from_slice(&payload);
        Ok(header)
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
        Ok(ZfpHeader { scalar_tag, shape, payload_start: pos, payload_len })
    }

    /// Decompress an RQZF stream into a caller-provided slice, verifying the
    /// stream describes exactly `shape` (`out.len() == shape.len()`). Lets the
    /// chunk-parallel pipeline decode straight into disjoint slabs of the
    /// output buffer — and, because the expected shape is checked *before*
    /// anything is allocated, a corrupt embedded stream cannot trigger a huge
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
        let nd = shape.ndim();
        let mut r = BitReader::new(payload);

        let perm = sequency_order(nd);
        let block_len = BLOCK_SIDE.pow(nd as u32);
        let zeros = vec![0f64; block_len];
        for origin in block_origins(shape) {
            let nonempty = r.get_bit().ok_or(ZfpError::Corrupt("block flag"))?;
            if !nonempty {
                // Store explicit zeros: `out` may be a recycled (dirty)
                // buffer, so the decoder must overwrite every element rather
                // than rely on a pre-zeroed destination.
                store_block(out, shape, &origin[..nd], &zeros);
                continue;
            }
            let e_max = r.get_bits(12).ok_or(ZfpError::Corrupt("e_max"))? as i32 - 1100;
            let top = r.get_bits(7).ok_or(ZfpError::Corrupt("top"))? as i32;
            let k_min = r.get_bits(7).ok_or(ZfpError::Corrupt("k_min"))? as i32;
            if top > 62 || k_min > top {
                return Err(ZfpError::Corrupt("plane range"));
            }
            let mut mags = vec![0u64; block_len];
            let mut neg = vec![false; block_len];
            let mut significant = vec![false; block_len];
            let mut k = top;
            while k >= k_min {
                for i in 0..block_len {
                    if significant[i] {
                        let bit = r.get_bit().ok_or(ZfpError::Corrupt("refinement bit"))?;
                        if bit {
                            mags[i] |= 1u64 << k;
                        }
                    }
                }
                let insig: Vec<usize> = (0..block_len).filter(|&i| !significant[i]).collect();
                let mut start = 0usize;
                loop {
                    let remaining = insig.len() - start;
                    if remaining == 0 {
                        break;
                    }
                    let more = r.get_bit().ok_or(ZfpError::Corrupt("event flag"))?;
                    if !more {
                        break;
                    }
                    let width = ceil_log2(remaining);
                    let off = r.get_bits(width).ok_or(ZfpError::Corrupt("event offset"))? as usize;
                    if off >= remaining {
                        return Err(ZfpError::Corrupt("event offset range"));
                    }
                    let idx = insig[start + off];
                    significant[idx] = true;
                    mags[idx] |= 1u64 << k;
                    neg[idx] = r.get_bit().ok_or(ZfpError::Corrupt("sign bit"))?;
                    start += off + 1;
                }
                k -= 1;
            }
            let mut coeffs = vec![0i64; block_len];
            for i in 0..block_len {
                // Mid-point reconstruction of the truncated tail halves the
                // expected truncation error.
                let mut m = mags[i] as i64;
                if significant[i] && k_min > 0 {
                    m += 1i64 << (k_min - 1);
                }
                coeffs[i] = if neg[i] { -m } else { m };
            }
            // Undo the sequency permutation, then the transform.
            let mut ints = vec![0i64; block_len];
            for (i, &p) in perm.iter().enumerate() {
                ints[p] = coeffs[i];
            }
            inv_transform(&mut ints, nd);
            let values = from_fixed_point(e_max, &ints);
            store_block(out, shape, &origin[..nd], &values);
        }
        Ok(())
    }

    /// Bits needed to encode an offset in `0..n` (0 when `n == 1`).
    #[inline]
    fn ceil_log2(n: usize) -> u32 {
        debug_assert!(n >= 1);
        usize::BITS - (n - 1).leading_zeros()
    }

    /// Block-aligned origins covering `shape`, row-major.
    fn block_origins(shape: Shape) -> Vec<[usize; MAX_DIMS]> {
        let nd = shape.ndim();
        let mut out = Vec::new();
        let mut origin = [0usize; MAX_DIMS];
        loop {
            out.push(origin);
            let mut axis = nd;
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                origin[axis] += BLOCK_SIDE;
                if origin[axis] < shape.dim(axis) {
                    break;
                }
                origin[axis] = 0;
            }
        }
    }
}

/// Deterministic uniform draws in `[0, 1)`.
struct XorShift(u64);

impl XorShift {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The field families of the differential, each with the magnitude its
/// tolerances are scaled by.
#[derive(Clone, Copy, Debug)]
enum Field {
    Smooth,
    Noise,
    Zero,
    /// Tiny values under tolerances sized for unit data: `k_min > top`,
    /// every block is coded as empty (true subnormals in `f64`).
    Negligible,
    /// 1e30-magnitude values, tolerances scaled to match.
    Huge,
    /// Smooth, with a NaN, a `+∞` and a `−∞` inside blocks.
    NonFinite,
}

const FIELDS: [Field; 6] =
    [Field::Smooth, Field::Noise, Field::Zero, Field::Negligible, Field::Huge, Field::NonFinite];

/// Tolerances (relative to the field's scale) that cost white noise about
/// 2, 12 and 24 bits a value ([`tolerances_span_the_rate_range`]).
const REL_TOLERANCES: [f64; 3] = [32.0, 0.35, 1.2e-4];

impl Field {
    fn scale(self) -> f64 {
        match self {
            Field::Huge => 1e30,
            _ => 1.0,
        }
    }

    fn generate<T: Scalar>(self, shape: Shape) -> Vec<T> {
        let n = shape.len();
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ n as u64);
        let smooth = |ix: &[usize]| -> f64 {
            ix.iter()
                .enumerate()
                .map(|(a, &c)| ((c as f64) * 0.17 * (a + 1) as f64).sin() * 3.0 / (a + 1) as f64)
                .sum()
        };
        let tiny = if T::BITS == 64 { 1e-310 } else { 1e-40 };
        let mut out: Vec<T> = shape
            .indices()
            .map(|ix| {
                let ix = &ix[..shape.ndim()];
                T::from_f64(match self {
                    Field::Smooth | Field::NonFinite => smooth(ix),
                    Field::Noise => rng.unit() * 8.0 - 4.0,
                    Field::Zero => 0.0,
                    Field::Negligible => tiny * (1.0 + rng.unit()),
                    Field::Huge => 1e30 * (1.0 + 0.5 * rng.unit()) * if rng.unit() < 0.5 { -1.0 } else { 1.0 },
                })
            })
            .collect();
        if matches!(self, Field::NonFinite) {
            for (at, v) in [(0, f64::NAN), (n / 2, f64::INFINITY), (n - 1, f64::NEG_INFINITY)] {
                out[at] = T::from_f64(v);
            }
        }
        out
    }
}

fn le_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * T::BYTES);
    for &v in values {
        v.write_le(&mut out);
    }
    out
}

/// A recycled destination: every element holds something else already.
fn dirty<T: Scalar>(n: usize) -> Vec<T> {
    vec![T::from_f64(-7.25); n]
}

/// Same stream bytes from both coders, and the same values, bit for bit,
/// from both decoders over a dirty buffer. Returns the stream.
fn assert_same_coder<T: Scalar>(field: Field, shape: Shape, rel_tol: f64) -> Vec<u8> {
    let what = format!("{field:?} {:?} f{} at {rel_tol:e}", shape.dims(), T::BITS);
    let data: Vec<T> = field.generate(shape);
    let tol = rel_tol * field.scale();
    let new = rq_zfp::zfp_compress_slice(&data, shape, tol).expect("valid tolerance");
    let old = frozen::zfp_compress_slice(&data, shape, tol).expect("valid tolerance");
    assert!(new == old, "{what}: stream bytes differ ({} vs {} B)", new.len(), old.len());
    let (mut a, mut b) = (dirty::<T>(shape.len()), dirty::<T>(shape.len()));
    rq_zfp::zfp_decompress_into(&new, shape, &mut a).expect("own stream");
    frozen::zfp_decompress_into(&new, shape, &mut b).expect("own stream");
    assert!(le_bytes(&a) == le_bytes(&b), "{what}: decoded values differ");
    if !matches!(field, Field::NonFinite) {
        for (i, (&x, &y)) in data.iter().zip(&a).enumerate() {
            let err = (x.to_f64() - y.to_f64()).abs();
            assert!(err <= tol, "{what}: element {i} is off by {err}");
        }
    }
    new
}

/// Every shape of `ndim` axes whose extents are drawn from `extents`.
fn shapes_of(ndim: usize, extents: &[usize]) -> Vec<Shape> {
    let mut out = Vec::new();
    let mut dims = vec![0usize; ndim];
    for code in 0..extents.len().pow(ndim as u32) {
        let mut rem = code;
        for d in dims.iter_mut() {
            *d = extents[rem % extents.len()];
            rem /= extents.len();
        }
        out.push(Shape::new(&dims));
    }
    out
}

const EXTENTS: [usize; 6] = [1, 2, 3, 4, 5, 17];

#[test]
fn tolerances_span_the_rate_range() {
    let shape = Shape::d3(17, 17, 17);
    let data: Vec<f32> = Field::Noise.generate(shape);
    for (rel_tol, want) in REL_TOLERANCES.into_iter().zip([2.0, 12.0, 24.0]) {
        let bytes = rq_zfp::zfp_compress_slice(&data, shape, rel_tol).unwrap();
        let rate = bytes.len() as f64 * 8.0 / shape.len() as f64;
        assert!((rate - want).abs() < 2.0, "tolerance {rel_tol:e}: {rate:.2} bits/value, want ≈ {want}");
    }
}

#[test]
fn same_bytes_and_values_on_1d_to_3d_shapes() {
    for ndim in 1..=3 {
        for shape in shapes_of(ndim, &EXTENTS) {
            for field in FIELDS {
                for rel_tol in REL_TOLERANCES {
                    assert_same_coder::<f32>(field, shape, rel_tol);
                    assert_same_coder::<f64>(field, shape, rel_tol);
                }
            }
        }
    }
}

#[test]
fn same_bytes_and_values_on_4d_shapes() {
    // 1 296 shapes of up to 17^4 values: each takes the next field, tolerance
    // and scalar in turn rather than all 36, so every combination still meets
    // every extent in every position many times over.
    for (i, shape) in shapes_of(4, &EXTENTS).into_iter().enumerate() {
        let field = FIELDS[i % FIELDS.len()];
        let rel_tol = REL_TOLERANCES[(i / FIELDS.len()) % REL_TOLERANCES.len()];
        if (i / (FIELDS.len() * REL_TOLERANCES.len())).is_multiple_of(2) {
            assert_same_coder::<f32>(field, shape, rel_tol);
        } else {
            assert_same_coder::<f64>(field, shape, rel_tol);
        }
    }
}

#[test]
fn same_bytes_and_values_on_the_archive_chunk_shapes() {
    // The slabs `--codec auto` hands the coder on the benchmark's recipe,
    // and a 4-D shape with no extent a multiple of the block side.
    for shape in [
        Shape::d3(8, 96, 96),
        Shape::d3(8, 128, 128),
        Shape::d2(8, 512),
        Shape::d4(3, 5, 6, 7),
    ] {
        for field in FIELDS {
            for rel_tol in REL_TOLERANCES {
                assert_same_coder::<f32>(field, shape, rel_tol);
                assert_same_coder::<f64>(field, shape, rel_tol);
            }
        }
    }
}

/// What a decoder makes of `bytes`: the values it wrote over a dirty buffer,
/// or its error.
fn outcome<T: Scalar>(
    decode: impl Fn(&[u8], Shape, &mut [T]) -> Result<(), rq_zfp::ZfpError>,
    bytes: &[u8],
    shape: Shape,
) -> Result<Vec<u8>, String> {
    let mut out = dirty::<T>(shape.len());
    decode(bytes, shape, &mut out).map(|()| le_bytes(&out)).map_err(|e| e.to_string())
}

/// Both decoders answer a hostile stream alike: the same error, or the same
/// values over a dirty buffer.
fn assert_same_answer<T: Scalar>(what: &str, bytes: &[u8], shape: Shape) {
    let new = outcome::<T>(rq_zfp::zfp_decompress_into, bytes, shape);
    let old = outcome::<T>(frozen::zfp_decompress_into, bytes, shape);
    match (&new, &old) {
        // The one check the frozen header parser does not have: it goes on
        // to fail on the shape or inside the payload instead.
        (Err(n), Err(_)) if n.ends_with("shape exceeds payload") => {}
        _ => assert!(new == old, "{what}: new {:?}, old {:?}", new.as_ref().err(), old.as_ref().err()),
    }
}

fn hostile<T: Scalar>(field: Field, shape: Shape, rel_tol: f64) {
    let stream = assert_same_coder::<T>(field, shape, rel_tol);
    let what = format!("{field:?} {:?}", shape.dims());
    for cut in 0..stream.len() {
        assert_same_answer::<T>(&format!("{what} cut to {cut} B"), &stream[..cut], shape);
    }
    // A cut payload under a header that still claims it whole is refused
    // by the header; shortening the claim as well reaches the plane reader.
    // Magic, scalar tag, ndim, one-byte extents, tolerance; then the claim.
    let header_len = 6 + shape.ndim() + 8;
    let payload_at = stream.len() - payload_len(&stream, header_len);
    for keep in 0..stream.len() - payload_at {
        let mut cut = stream[..header_len].to_vec();
        rq_encoding::varint::put_uvarint(&mut cut, keep as u64);
        cut.extend_from_slice(&stream[payload_at..payload_at + keep]);
        assert_same_answer::<T>(&format!("{what} payload cut to {keep} B"), &cut, shape);
    }
    let mut flipped = stream.clone();
    for bit in 0..stream.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_same_answer::<T>(&format!("{what} bit {bit} flipped"), &flipped, shape);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The payload length a stream's header declares (`header_len` bytes come
/// before the varint).
fn payload_len(stream: &[u8], header_len: usize) -> usize {
    let mut pos = header_len;
    rq_encoding::varint::get_uvarint(stream, &mut pos).unwrap() as usize
}

#[test]
fn hostile_streams_get_the_same_answer_from_both_decoders() {
    hostile::<f32>(Field::Smooth, Shape::d2(5, 6), REL_TOLERANCES[1]);
    hostile::<f64>(Field::Noise, Shape::d3(4, 5, 4), REL_TOLERANCES[2]);
    hostile::<f32>(Field::Noise, Shape::d4(2, 3, 5, 4), REL_TOLERANCES[1]);
}
