//! The ROLZ residual path as a [`ChunkCodec`]: reduced-offset LZ +
//! symbol ranking + static Huffman over the quantization-code byte
//! stream (container v2.4, codec tag 2).
//!
//! The SZ path Huffman-codes quantization symbols directly, which is
//! blind to *repeats*: residual streams from structured fields are full
//! of recurring short byte patterns (plateaus, periodic textures) that a
//! dictionary stage captures and an order-0 entropy coder cannot. This
//! backend, modeled on orz's pipeline, re-codes the symbol stream in
//! three stages:
//!
//! 1. **Byte serialization** — each quantization symbol is re-centered on
//!    the zero code and written as a zigzag LEB128 varint, so
//!    near-perfect predictions become single small bytes and the byte
//!    stream is dominated by a few values.
//! 2. **Reduced-offset LZ** — a match search over that byte stream where
//!    candidate positions come from a small per-context table (context =
//!    previous byte, `ROLZ_SLOTS` recent token-start positions per
//!    context). Matches are coded as `(slot, length)` — a 4-bit slot
//!    instead of a full offset — and literals fall through to stage 3.
//! 3. **Symbol ranking + static Huffman** — literal bytes pass through a
//!    64-entry per-context move-half-to-front rank table so hot bytes
//!    collapse onto low ranks, and the resulting token stream (ranks,
//!    rank escapes, match slots — `TOKEN_ALPHABET` symbols) goes
//!    through the same canonical static Huffman coder as the SZ path.
//!
//! Encoder and decoder run the identical context/rank state machine, so
//! the blob is a pure function of the input slab. Like the other codecs
//! the fast kernels (SWAR match extension, table-driven Huffman) have
//! scalar [`KernelPath::Reference`] twins held byte-identical by
//! `tests/kernel_differential.rs`.

use crate::codec::{ChunkCodec, ChunkStats};
use crate::config::LosslessStage;
use crate::container::{
    read_chunk_blob, write_chunk_blob, ChunkCodecKind, CompressError, DecompressError,
};
use crate::pipeline::{dequantize_stream, quantize_stream, KernelPath, Transform};
use rq_encoding::varint::{get_uvarint, put_uvarint};
use rq_encoding::{common_prefix, HuffmanCodec};
use rq_grid::{Scalar, Shape};
use rq_predict::interp::anchors;
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// Match-candidate positions remembered per context (a 4-bit "reduced
/// offset" replaces the full match offset of LZ77).
const ROLZ_SLOTS: usize = 16;
/// One context per possible previous byte.
const ROLZ_CONTEXTS: usize = 256;
/// Shortest match worth a `(slot, length)` token: below this a ranked
/// literal is cheaper than slot + length bytes.
const MIN_MATCH: usize = 4;
/// Longest match one token can carry (`length - MIN_MATCH` must fit the
/// one-byte raw length).
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Entries in each context's literal rank table.
const SYMRANK_SIZE: usize = 64;
/// Token emitted for a literal byte absent from its rank table; the raw
/// byte rides in a side array.
const TOKEN_ESCAPE: u32 = SYMRANK_SIZE as u32;
/// First match token; token `TOKEN_MATCH0 + s` means "copy from slot s".
const TOKEN_MATCH0: u32 = TOKEN_ESCAPE + 1;
/// Ranked literals + escape + match slots.
const TOKEN_ALPHABET: usize = SYMRANK_SIZE + 1 + ROLZ_SLOTS;

/// Ring value marking a never-filled slot.
const EMPTY: u32 = u32::MAX;

/// The shared encoder/decoder model: per-context position rings and
/// literal rank tables. Both sides mutate it identically token by token,
/// which is what lets a 4-bit slot stand in for a byte offset.
struct RolzState {
    /// `ROLZ_CONTEXTS × ROLZ_SLOTS` ring of recent token-start positions.
    positions: Vec<u32>,
    /// Next ring slot to overwrite, per context.
    heads: [u8; ROLZ_CONTEXTS],
    /// `ROLZ_CONTEXTS × SYMRANK_SIZE` literal rank tables, identity-
    /// initialized (ranks 0..63 hold bytes 0..63 — exactly the low varint
    /// bytes that dominate residual streams).
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

    /// Record a token-start position in the context's ring.
    #[inline]
    fn insert(&mut self, ctx: usize, pos: usize) {
        let h = self.heads[ctx] as usize;
        self.positions[ctx * ROLZ_SLOTS + h] = pos as u32;
        self.heads[ctx] = ((h + 1) % ROLZ_SLOTS) as u8;
    }

    /// Rank of `byte` in the context's table, if present.
    #[inline]
    fn rank_of(&self, ctx: usize, byte: u8) -> Option<usize> {
        self.ranks[ctx * SYMRANK_SIZE..(ctx + 1) * SYMRANK_SIZE]
            .iter()
            .position(|&b| b == byte)
    }

    /// Move the byte at rank `r` halfway to the front (orz-style gradual
    /// promotion — a straight move-to-front overreacts to one-off bytes).
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

    /// Adopt an escaped byte at the lowest rank, evicting the current
    /// occupant (uniqueness holds: the byte was absent, one leaves).
    #[inline]
    fn adopt(&mut self, ctx: usize, byte: u8) {
        self.ranks[ctx * SYMRANK_SIZE + SYMRANK_SIZE - 1] = byte;
    }
}

/// Context of the byte at `pos`: the previous byte (0 at the start).
#[inline]
fn context(bytes: &[u8], pos: usize) -> usize {
    if pos == 0 {
        0
    } else {
        bytes[pos - 1] as usize
    }
}

/// Scalar twin of [`common_prefix`] for the reference kernel path.
#[inline]
fn common_prefix_ref(a: &[u8], b: &[u8], limit: usize) -> usize {
    let mut l = 0;
    while l < limit && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Serialize quantization symbols as zigzag LEB128 varints re-centered on
/// the zero code, so perfect predictions become byte 0.
fn symbols_to_bytes(symbols: &[u32], zero: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(symbols.len() + symbols.len() / 2);
    for &s in symbols {
        let delta = s as i64 - zero as i64;
        put_uvarint(&mut out, ((delta << 1) ^ (delta >> 63)) as u64);
    }
    out
}

/// Inverse of [`symbols_to_bytes`]: must consume `bytes` exactly and
/// yield exactly `n_symbols` in-alphabet symbols.
fn bytes_to_symbols(
    bytes: &[u8],
    n_symbols: usize,
    zero: u32,
    escape: u32,
) -> Result<Vec<u32>, DecompressError> {
    let mut symbols = Vec::with_capacity(n_symbols);
    let mut pos = 0usize;
    for _ in 0..n_symbols {
        let z = get_uvarint(bytes, &mut pos)
            .ok_or(DecompressError::Corrupt("rolz symbol varint"))?;
        let delta = (z >> 1) as i64 ^ -((z & 1) as i64);
        let sym = zero as i64 + delta;
        if sym < 0 || sym > escape as i64 {
            return Err(DecompressError::Corrupt("rolz symbol out of alphabet"));
        }
        symbols.push(sym as u32);
    }
    if pos != bytes.len() {
        return Err(DecompressError::Corrupt("trailing bytes in rolz code stream"));
    }
    Ok(symbols)
}

/// The ROLZ token streams for one chunk, pre-entropy.
struct RolzTokens {
    /// Token per literal/match decision, in [`TOKEN_ALPHABET`].
    tokens: Vec<u32>,
    /// Token histogram for the Huffman stage.
    histogram: Vec<u64>,
    /// `match length - MIN_MATCH` per match token, in token order.
    lens: Vec<u8>,
    /// Raw byte per escape token, in token order.
    raws: Vec<u8>,
}

/// Run the ROLZ model forward over the code byte stream.
fn rolz_compress(bytes: &[u8], path: KernelPath) -> RolzTokens {
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
                let l = match path {
                    KernelPath::Fast => common_prefix(&bytes[p..], &bytes[i..], limit),
                    KernelPath::Reference => common_prefix_ref(&bytes[p..], &bytes[i..], limit),
                };
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

/// Replay a token stream through the model, reproducing exactly
/// `n_bytes` code bytes or failing with a typed error.
fn rolz_decompress(
    tokens: impl Iterator<Item = Result<u32, DecompressError>>,
    lens: &[u8],
    raws: &[u8],
    n_bytes: usize,
) -> Result<Vec<u8>, DecompressError> {
    let mut state = RolzState::new();
    let mut out = Vec::with_capacity(n_bytes);
    let (mut next_len, mut next_raw) = (0usize, 0usize);
    for tok in tokens {
        let tok = tok?;
        if out.len() >= n_bytes {
            return Err(DecompressError::Corrupt("rolz tokens overrun code stream"));
        }
        let i = out.len();
        let ctx = context(&out, i);
        if tok < TOKEN_ESCAPE {
            // Ranked literal.
            let r = tok as usize;
            let b = state.ranks[ctx * SYMRANK_SIZE + r];
            state.insert(ctx, i);
            state.promote(ctx, r);
            out.push(b);
        } else if tok == TOKEN_ESCAPE {
            let b = *raws
                .get(next_raw)
                .ok_or(DecompressError::Corrupt("rolz raw literals exhausted"))?;
            next_raw += 1;
            state.insert(ctx, i);
            state.adopt(ctx, b);
            out.push(b);
        } else {
            let s = (tok - TOKEN_MATCH0) as usize;
            if s >= ROLZ_SLOTS {
                return Err(DecompressError::Corrupt("rolz token out of alphabet"));
            }
            let p = state.slot(ctx, s);
            if p == EMPTY {
                return Err(DecompressError::Corrupt("rolz match references empty slot"));
            }
            let p = p as usize;
            let len = MIN_MATCH
                + *lens
                    .get(next_len)
                    .ok_or(DecompressError::Corrupt("rolz match lengths exhausted"))?
                    as usize;
            next_len += 1;
            if out.len() + len > n_bytes {
                return Err(DecompressError::Corrupt("rolz match overruns code stream"));
            }
            state.insert(ctx, i);
            // Byte-by-byte: matches may self-overlap (p + len > i), the
            // standard LZ copy semantics.
            for k in 0..len {
                let b = out[p + k];
                out.push(b);
            }
        }
    }
    if out.len() != n_bytes {
        return Err(DecompressError::Corrupt("rolz tokens underrun code stream"));
    }
    if next_len != lens.len() || next_raw != raws.len() {
        return Err(DecompressError::Corrupt("unused rolz side arrays"));
    }
    Ok(out)
}

/// The ROLZ path as a [`ChunkCodec`]. Mirrors [`crate::SzChunkCodec`]'s
/// quantization front end (same predictor/quantizer/transform semantics,
/// including the log transform for point-wise relative bounds) but
/// replaces the entropy back end with the ROLZ pipeline.
#[derive(Clone, Copy, Debug)]
pub struct RolzChunkCodec {
    /// Predictor family for the causal traversal.
    pub predictor: PredictorKind,
    /// Quantizer (absolute bound + radius).
    pub quantizer: LinearQuantizer,
    /// Value-domain transform (identity, or log for point-wise relative
    /// bounds).
    pub(crate) transform: Transform,
    /// Which kernel implementations to run (production is always
    /// [`KernelPath::Fast`]).
    pub(crate) path: KernelPath,
}

impl RolzChunkCodec {
    /// Codec for a resolved absolute bound with the identity transform.
    pub fn new(predictor: PredictorKind, quantizer: LinearQuantizer) -> Self {
        RolzChunkCodec {
            predictor,
            quantizer,
            transform: Transform::Identity,
            path: KernelPath::Fast,
        }
    }

    /// Same, with an explicit transform (crate-internal: the transform
    /// enum is not public API).
    pub(crate) fn with_transform(mut self, transform: Transform) -> Self {
        self.transform = transform;
        self
    }

    /// Same, forcing a kernel path (crate-internal: the differential
    /// harness asserts both paths produce identical containers).
    pub(crate) fn with_kernel_path(mut self, path: KernelPath) -> Self {
        self.path = path;
        self
    }
}

impl<T: Scalar> ChunkCodec<T> for RolzChunkCodec {
    fn kind(&self) -> ChunkCodecKind {
        ChunkCodecKind::Rolz
    }

    fn encode(&self, data: &[T], shape: Shape) -> Result<(Vec<u8>, ChunkStats), CompressError> {
        let q = quantize_stream(data, shape, self.predictor, self.quantizer, self.transform, self.path);
        let code_bytes = symbols_to_bytes(&q.symbols, self.quantizer.zero_symbol());
        let t = rolz_compress(&code_bytes, self.path);

        let (codebook, token_payload) = if t.tokens.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let codec = HuffmanCodec::from_counts(&t.histogram)?;
            let payload = match self.path {
                KernelPath::Fast => codec.encode(&t.tokens)?,
                KernelPath::Reference => codec.encode_reference(&t.tokens)?,
            };
            (codec.serialize_codebook(), payload)
        };

        let mut payload = Vec::with_capacity(
            token_payload.len() + t.lens.len() + t.raws.len() + 24,
        );
        put_uvarint(&mut payload, code_bytes.len() as u64);
        put_uvarint(&mut payload, t.tokens.len() as u64);
        put_uvarint(&mut payload, t.lens.len() as u64);
        put_uvarint(&mut payload, t.raws.len() as u64);
        put_uvarint(&mut payload, token_payload.len() as u64);
        payload.extend_from_slice(&token_payload);
        payload.extend_from_slice(&t.lens);
        payload.extend_from_slice(&t.raws);

        let blob =
            write_chunk_blob::<T>(LosslessStage::None, &codebook, &payload, &q.verbatim, &q.side);
        let stats = ChunkStats {
            n_symbols: q.symbols.len(),
            n_escapes: q.n_escapes,
            n_anchors: q.n_anchors,
            huffman_bytes: token_payload.len(),
            encoded_bytes: payload.len(),
            codebook_bytes: codebook.len(),
            side_bytes: q.side.len(),
            histogram: q.histogram,
        };
        Ok((blob, stats))
    }

    fn decode(
        &self,
        blob: &[u8],
        shape: Shape,
        out: &mut [T],
    ) -> Result<(), DecompressError> {
        let (_lossless, body) = read_chunk_blob::<T>(blob)?;
        let n_anchors =
            if self.predictor == PredictorKind::Interpolation { anchors(shape).len() } else { 0 };
        let n_symbols = shape.len() - n_anchors;

        let p = &body.payload[..];
        let mut pos = 0usize;
        let n_bytes =
            get_uvarint(p, &mut pos).ok_or(DecompressError::Corrupt("rolz byte count"))? as usize;
        let n_tokens =
            get_uvarint(p, &mut pos).ok_or(DecompressError::Corrupt("rolz token count"))? as usize;
        let n_lens =
            get_uvarint(p, &mut pos).ok_or(DecompressError::Corrupt("rolz match count"))? as usize;
        let n_raws =
            get_uvarint(p, &mut pos).ok_or(DecompressError::Corrupt("rolz raw count"))? as usize;
        let token_bytes = get_uvarint(p, &mut pos)
            .ok_or(DecompressError::Corrupt("rolz token payload len"))? as usize;
        // A zigzag varint of an in-alphabet symbol takes at most 5 bytes,
        // and every token yields at least one byte: corrupt counts must
        // not drive huge upfront allocations.
        if n_bytes > n_symbols.saturating_mul(5) {
            return Err(DecompressError::Corrupt("rolz code stream exceeds symbol budget"));
        }
        if n_tokens > n_bytes || n_lens > n_tokens || n_raws > n_tokens {
            return Err(DecompressError::Corrupt("rolz stream counts inconsistent"));
        }
        let end = pos
            .checked_add(token_bytes)
            .and_then(|e| e.checked_add(n_lens))
            .and_then(|e| e.checked_add(n_raws))
            .filter(|&e| e <= p.len())
            .ok_or(DecompressError::Corrupt("rolz payload overruns buffer"))?;
        if end != p.len() {
            return Err(DecompressError::Corrupt("trailing bytes in rolz payload"));
        }
        let token_payload = &p[pos..pos + token_bytes];
        let lens = &p[pos + token_bytes..pos + token_bytes + n_lens];
        let raws = &p[pos + token_bytes + n_lens..end];

        let code_bytes = if n_tokens == 0 {
            if n_bytes != 0 {
                return Err(DecompressError::Corrupt("rolz tokens underrun code stream"));
            }
            Vec::new()
        } else {
            // Every Huffman code is at least one bit.
            if n_tokens > token_payload.len().saturating_mul(8) {
                return Err(DecompressError::Corrupt("rolz token count exceeds payload"));
            }
            let codec = HuffmanCodec::deserialize_codebook(&body.codebook)?.0;
            if codec.alphabet_len() > TOKEN_ALPHABET {
                return Err(DecompressError::Corrupt("rolz codebook alphabet exceeds the token set"));
            }
            match self.path {
                KernelPath::Fast => {
                    let mut dec = codec.streaming_decoder(token_payload, n_tokens);
                    rolz_decompress(
                        std::iter::from_fn(|| Some(dec.next_symbol().map_err(Into::into)))
                            .take(n_tokens),
                        lens,
                        raws,
                        n_bytes,
                    )?
                }
                KernelPath::Reference => {
                    let tokens = codec.decode_reference(token_payload, n_tokens)?;
                    rolz_decompress(tokens.into_iter().map(Ok), lens, raws, n_bytes)?
                }
            }
        };

        let symbols = bytes_to_symbols(
            &code_bytes,
            n_symbols,
            self.quantizer.zero_symbol(),
            self.quantizer.alphabet_size() as u32,
        )?;
        dequantize_stream(
            &symbols,
            &body.verbatim,
            &body.side,
            shape,
            self.predictor,
            self.quantizer,
            self.transform,
            self.path,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_quant::DEFAULT_RADIUS;

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn rolz_bytes_roundtrip() {
        let mut rng = xorshift(0xC0FF_EE00_D15E_A5E5);
        for trial in 0..40 {
            let n = (trial * 37) % 3000;
            // Skewed bytes with planted repeats, like a residual stream.
            let mut bytes: Vec<u8> = (0..n).map(|_| (rng() % 7) as u8).collect();
            if n > 64 {
                for k in 0..32 {
                    bytes[n / 2 + k] = bytes[k];
                }
            }
            for path in [KernelPath::Fast, KernelPath::Reference] {
                let t = rolz_compress(&bytes, path);
                let back = rolz_decompress(
                    t.tokens.iter().map(|&x| Ok(x)),
                    &t.lens,
                    &t.raws,
                    bytes.len(),
                )
                .unwrap();
                assert_eq!(back, bytes, "trial {trial} path {path:?}");
            }
        }
    }

    #[test]
    fn fast_and_reference_tokens_identical() {
        let mut rng = xorshift(0xDEAD_10CC);
        let bytes: Vec<u8> = (0..4096).map(|_| (rng() % 9) as u8).collect();
        let f = rolz_compress(&bytes, KernelPath::Fast);
        let r = rolz_compress(&bytes, KernelPath::Reference);
        assert_eq!(f.tokens, r.tokens);
        assert_eq!(f.lens, r.lens);
        assert_eq!(f.raws, r.raws);
    }

    #[test]
    fn symbol_varints_roundtrip() {
        let q = LinearQuantizer::new(1e-3, DEFAULT_RADIUS);
        let zero = q.zero_symbol();
        let escape = q.alphabet_size() as u32;
        let symbols: Vec<u32> =
            vec![zero, zero + 1, zero - 1, 0, escape - 1, escape, zero, zero];
        let bytes = symbols_to_bytes(&symbols, zero);
        let back = bytes_to_symbols(&bytes, symbols.len(), zero, escape).unwrap();
        assert_eq!(back, symbols);
        // Out-of-alphabet and trailing-bytes corruption is typed.
        assert!(bytes_to_symbols(&bytes, symbols.len() - 1, zero, escape).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(bytes_to_symbols(&long, symbols.len(), zero, escape).is_err());
    }

    #[test]
    fn rolz_codec_roundtrips_within_bound() {
        let eb = 1e-3;
        let shape = Shape::d2(24, 40);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(((ix[0] as f32) * 0.4).sin() * 3.0 + (ix[1] as f32) * 0.05);
        }
        for pred in PredictorKind::all() {
            let codec = RolzChunkCodec::new(pred, LinearQuantizer::new(eb, DEFAULT_RADIUS));
            let (blob, stats) = ChunkCodec::<f32>::encode(&codec, &data, shape).unwrap();
            assert_eq!(stats.n_symbols + stats.n_anchors, shape.len());
            let mut out = vec![0f32; shape.len()];
            ChunkCodec::<f32>::decode(&codec, &blob, shape, &mut out).unwrap();
            for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
                assert!(
                    ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                    "pred {pred:?} element {i}: |{a} - {b}| > {eb}"
                );
            }
        }
    }

    #[test]
    fn repetitive_field_beats_sz_ratio() {
        // A strict period-8 texture: the residual stream repeats exactly
        // row over row, which ROLZ folds into matches while the SZ path's
        // order-0 Huffman (and its byte-aligned LZSS stage, blind to the
        // bit-packed symbol boundaries) cannot.
        let shape = Shape::d2(48, 64);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push(((ix[0] + 3 * ix[1]) % 8) as f32 * 0.37);
        }
        let q = LinearQuantizer::new(1e-4, DEFAULT_RADIUS);
        let rolz = RolzChunkCodec::new(PredictorKind::Lorenzo, q);
        let sz = crate::SzChunkCodec::new(
            PredictorKind::Lorenzo,
            q,
            LosslessStage::RleLzss,
        );
        let (rolz_blob, _) = ChunkCodec::<f32>::encode(&rolz, &data, shape).unwrap();
        let (sz_blob, _) = ChunkCodec::<f32>::encode(&sz, &data, shape).unwrap();
        assert!(
            rolz_blob.len() < sz_blob.len(),
            "rolz {} >= sz {}",
            rolz_blob.len(),
            sz_blob.len()
        );
        let mut out = vec![0f32; shape.len()];
        ChunkCodec::<f32>::decode(&rolz, &rolz_blob, shape, &mut out).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            assert!(((a - b).abs() as f64) <= 1e-4 * (1.0 + 1e-6));
        }
    }

    #[test]
    fn corrupt_rolz_blobs_error_not_panic() {
        let shape = Shape::d2(16, 16);
        let mut data = Vec::with_capacity(shape.len());
        for ix in shape.indices() {
            data.push((ix[0] as f32 * 0.7).sin() + ix[1] as f32 * 0.01);
        }
        let codec =
            RolzChunkCodec::new(PredictorKind::Lorenzo, LinearQuantizer::new(1e-3, DEFAULT_RADIUS));
        let (blob, _) = ChunkCodec::<f32>::encode(&codec, &data, shape).unwrap();
        let mut out = vec![0f32; shape.len()];
        for cut in 1..blob.len().min(40) {
            let _ = ChunkCodec::<f32>::decode(&codec, &blob[..blob.len() - cut], shape, &mut out);
        }
        let mut rng = xorshift(0x0DD5_EED5);
        for _ in 0..200 {
            let mut m = blob.clone();
            let at = (rng() as usize) % m.len();
            m[at] ^= (rng() % 255 + 1) as u8;
            let _ = ChunkCodec::<f32>::decode(&codec, &m, shape, &mut out); // must not panic
        }
    }
}
