//! The compression/decompression pipeline.
//!
//! Compression walks the field in the predictor's causal traversal order,
//! quantizing each prediction error (paper §II-B). The *reconstructed*
//! value — exactly what the decompressor will later see, including the
//! rounding to the target scalar type — is written back into the traversal
//! buffer so compressor and decompressor predictions never diverge.
//!
//! The causal walk over one stream is factored into `encode_stream` /
//! `decode_stream`: the **chunk kernel**. The archive engine
//! ([`crate::stream`]) runs it once per axis-0 slab on worker threads;
//! because the kernel starts every stream with an empty history,
//! predictor stencils reset at slab boundaries and each chunk round-trips
//! independently. The one-shot [`compress`] / [`decompress`] at the bottom
//! of this module are that engine over an in-memory sink and source.
//!
//! Interpolation — the predictor of the paper's in-situ use-case — is
//! walked a *line* at a time (`interp_lines`, over
//! [`rq_predict::interp::Pass::lines`]): no target of a (level, axis) pass
//! is a source of that pass, so a whole line is predicted before any of it
//! is reconstructed. Under the identity transform the encoder then
//! quantizes the line in one branch-free loop
//! ([`rq_quant::LinearQuantizer::quantize_line`]) and commits it. A line
//! with a point that must escape is *dirty* and is redone whole, point by
//! point: escapes enter the verbatim stream in traversal order, so the
//! clean points before one cannot be committed ahead of it, and redoing
//! them changes nothing — a point's symbol and reconstruction are a
//! function of its original and its prediction, both already fixed. The
//! log transform (escapes are routine, the bound check is a ratio) sends
//! every line down that per-point route; decode walks the same lines and
//! replays each point from its ready prediction.
//!
//! `tests/kernel_differential.rs` pins the blobs this kernel writes and the
//! values it decodes them to, byte for byte.
//!
//! Point-wise relative bounds are realized by a log transform
//! (Liang et al. \[35\]): values are compressed as `ln(v)` under an absolute
//! bound of `ln(1 + ratio)`; non-positive values take the verbatim escape
//! path since the transform is undefined there.

use crate::codec::SymbolWindow;
use crate::config::{CompressorConfig, LosslessStage};
use crate::container::{CompressError, DecompressError, SectionsBody};
use crate::report::{CompressedOutput, CompressionReport};
use crate::stream::{ArchiveReader, ArchiveWriter};
use rq_encoding::{lossless_compress, lossless_decompress_bounded, HuffmanCodec};
use rq_grid::{BlockIter, NdArray, Scalar, Shape, MAX_DIMS};
use rq_predict::interp::{anchors, passes, Line};
use rq_predict::lorenzo::LorenzoStencil;
use rq_predict::regression::{fit_block, BlockCoeffs, REGRESSION_BLOCK_SIDE};
use rq_predict::PredictorKind;
use rq_quant::LinearQuantizer;

/// Stand-in reconstruction value (log domain) for non-positive values in
/// point-wise relative mode; only used for predicting neighbors.
const LOG_FLOOR: f64 = -745.0; // ≈ ln(f64::MIN_POSITIVE)

/// Value-domain transform applied before quantization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Transform {
    Identity,
    /// `ln(v)`; `ratio` retained for the final bound check.
    Log { ratio: f64 },
}

impl Transform {
    #[inline]
    fn forward(self, v: f64) -> f64 {
        match self {
            Transform::Identity => v,
            Transform::Log { .. } => {
                if v > 0.0 {
                    v.ln()
                } else {
                    LOG_FLOOR
                }
            }
        }
    }
}

/// Resolve the user bound against the field's value range: the absolute
/// quantizer bound plus the value-domain transform.
pub(crate) fn resolve_bound(
    cfg: &CompressorConfig,
    value_range: f64,
) -> Result<(f64, Transform), CompressError> {
    let abs_eb = std::panic::catch_unwind(|| cfg.bound.absolute(value_range))
        .map_err(|_| CompressError::InvalidBound(format!("{:?} on range {value_range}", cfg.bound)))?;
    let transform = if cfg.bound.needs_log_transform() {
        let ratio = match cfg.bound {
            rq_quant::ErrorBoundMode::PointwiseRelative(r) => r,
            _ => unreachable!(),
        };
        Transform::Log { ratio }
    } else {
        Transform::Identity
    };
    Ok((abs_eb, transform))
}

/// Shared quantize-and-collect state for the compression passes.
struct QuantEncoder<T: Scalar> {
    quantizer: LinearQuantizer,
    transform: Transform,
    escape_symbol: u32,
    symbols: Vec<u32>,
    verbatim: Vec<T>,
    /// Counts of the quantized symbols; escapes are `n_escapes`.
    histogram: SymbolWindow,
    n_escapes: usize,
    /// [`Self::encode_line`]'s buffers, one slot per point of a line: the
    /// originals, and what the line quantizer makes of them.
    line_work: Vec<f64>,
    line_symbols: Vec<u32>,
    line_stored: Vec<f64>,
}

impl<T: Scalar> QuantEncoder<T> {
    fn new(quantizer: LinearQuantizer, transform: Transform, n_hint: usize) -> Self {
        QuantEncoder {
            quantizer,
            transform,
            escape_symbol: quantizer.alphabet_size() as u32,
            symbols: Vec::with_capacity(n_hint),
            verbatim: Vec::new(),
            histogram: SymbolWindow::default(),
            n_escapes: 0,
            line_work: Vec::new(),
            line_symbols: Vec::new(),
            line_stored: Vec::new(),
        }
    }

    /// Store `original` verbatim (anchor or forced escape) and return the
    /// working-domain reconstruction.
    fn store_verbatim(&mut self, original: T) -> f64 {
        self.verbatim.push(original);
        self.transform.forward(original.to_f64())
    }

    /// Escape through the symbol stream (records the escape symbol too).
    fn escape(&mut self, original: T) -> f64 {
        self.symbols.push(self.escape_symbol);
        self.n_escapes += 1;
        self.store_verbatim(original)
    }

    /// Quantize one point. Returns the working-domain reconstruction that
    /// the decompressor will reproduce bit-for-bit.
    ///
    /// The working-domain value is derived here (`transform.forward` is a
    /// pure function of `original`) rather than read from a precomputed
    /// slab, which would stream an extra 8 bytes/point through memory.
    #[inline]
    fn encode_point(&mut self, original: T, predicted: f64) -> f64 {
        // Non-positive values cannot live in the log domain.
        if matches!(self.transform, Transform::Log { .. }) && original.to_f64() <= 0.0 {
            return self.escape(original);
        }
        let work = self.transform.forward(original.to_f64());
        let Some((code, recon_work)) = self.quantizer.quantize_value(work, predicted) else {
            return self.escape(original);
        };
        let (ok, recon_stored) = match self.transform {
            Transform::Identity => {
                // The decompressor rounds through T; verify with that value.
                let stored = T::from_f64(recon_work).to_f64();
                ((work - stored).abs() <= self.quantizer.error_bound() * (1.0 + 1e-9), stored)
            }
            Transform::Log { ratio } => {
                let out = T::from_f64(recon_work.exp()).to_f64();
                let orig = original.to_f64();
                ((out - orig).abs() <= ratio * orig.abs() * (1.0 + 1e-6), recon_work)
            }
        };
        if !ok {
            return self.escape(original);
        }
        let sym = self.quantizer.code_to_symbol(code);
        self.symbols.push(sym);
        self.histogram.bump(sym);
        recon_stored
    }

    /// [`Self::encode_point`] for every point of `line`, in order, given
    /// their predictions; reconstructions go to `recon`. Under the identity
    /// transform a clean line is quantized and committed whole; a dirty one
    /// — any point of it must escape — and every line under the log
    /// transform go point by point (why that changes no byte: module doc).
    fn encode_line(&mut self, orig: &[T], line: Line, predicted: &[f64], recon: &mut [f64]) {
        if self.transform == Transform::Identity {
            let n = line.len;
            if self.line_work.len() < n {
                self.line_work.resize(n, 0.0);
                self.line_symbols.resize(n, 0);
                self.line_stored.resize(n, 0.0);
            }
            let (work, symbols, stored) =
                (&mut self.line_work[..n], &mut self.line_symbols[..n], &mut self.line_stored[..n]);
            for (w, lin) in work.iter_mut().zip(line.targets()) {
                *w = orig[lin].to_f64();
            }
            let through_t = |r: f64| T::from_f64(r).to_f64();
            if self.quantizer.quantize_line(work, predicted, through_t, symbols, stored) {
                self.symbols.extend_from_slice(symbols);
                for &sym in symbols.iter() {
                    self.histogram.bump(sym);
                }
                for (lin, &v) in line.targets().zip(stored.iter()) {
                    recon[lin] = v;
                }
                return;
            }
        }
        for (lin, &pred) in line.targets().zip(predicted) {
            recon[lin] = self.encode_point(orig[lin], pred);
        }
    }
}

/// Where [`QuantDecoder`] pulls its symbol stream from.
///
/// An SZ chunk streams symbols straight out of the Huffman payload as the
/// traversal consumes them, so the entropy decode's integer work overlaps
/// the reconstruction's serial floating-point chain (and the whole-stream
/// `Vec<u32>` never exists). A slab decoded upfront — the ROLZ codec's
/// recovered symbols, or no symbols at all — is drained instead.
enum SymbolSource<'a> {
    Upfront(std::slice::Iter<'a, u32>),
    Streaming(rq_encoding::huffman::StreamingDecoder<'a>),
}

impl SymbolSource<'_> {
    #[inline]
    fn next(&mut self) -> Result<u32, DecompressError> {
        match self {
            SymbolSource::Upfront(it) => {
                it.next().copied().ok_or(DecompressError::Corrupt("symbol stream exhausted"))
            }
            SymbolSource::Streaming(s) => s.next_symbol().map_err(Into::into),
        }
    }
}

/// Decode-side mirror of [`QuantEncoder`], writing into a caller-provided
/// output slab (so chunked decompression can decode straight into disjoint
/// slices of the final buffer).
struct QuantDecoder<'a, T: Scalar> {
    quantizer: LinearQuantizer,
    transform: Transform,
    escape_symbol: u32,
    symbols: SymbolSource<'a>,
    verbatim: std::slice::Iter<'a, T>,
    /// Output values in the original domain.
    out: &'a mut [T],
}

impl<'a, T: Scalar> QuantDecoder<'a, T> {
    /// Store into the output slab. `lin` comes from a traversal over
    /// `shape`, and `decode_stream` asserts `out.len() == shape.len()`.
    #[inline]
    fn put(&mut self, lin: usize, v: T) {
        // SAFETY: `lin < shape.len() == self.out.len()` (hard-asserted at
        // decode_stream entry; every traversal visits only in-shape
        // points). Audited, covered by tests/kernel_differential.rs.
        unsafe { *self.out.get_unchecked_mut(lin) = v };
    }

    fn take_verbatim(&mut self, lin: usize) -> Result<f64, DecompressError> {
        let v = *self
            .verbatim
            .next()
            .ok_or(DecompressError::Corrupt("verbatim stream exhausted"))?;
        self.put(lin, v);
        Ok(self.transform.forward(v.to_f64()))
    }

    /// Replay one point: consume a symbol, produce the output value and
    /// the working-domain reconstruction for future predictions.
    #[inline]
    fn decode_point(&mut self, lin: usize, predicted: f64) -> Result<f64, DecompressError> {
        let sym = self.symbols.next()?;
        if sym >= self.escape_symbol {
            if sym == self.escape_symbol {
                return self.take_verbatim(lin);
            }
            return Err(DecompressError::Corrupt("symbol out of alphabet"));
        }
        let code = self.quantizer.symbol_to_code(sym);
        let recon_work = predicted + self.quantizer.reconstruct(code);
        Ok(match self.transform {
            Transform::Identity => {
                let t = T::from_f64(recon_work);
                self.put(lin, t);
                t.to_f64()
            }
            Transform::Log { .. } => {
                self.put(lin, T::from_f64(recon_work.exp()));
                recon_work
            }
        })
    }
}

/// Row-major Lorenzo traversal shared by the compressor and decompressor.
/// `visit(lin, predicted)` returns the reconstruction to store.
///
/// Order 1 (every Lorenzo/TemporalDelta stream) takes the row-specialized
/// walk, which reorders no floating-point additions of the per-point
/// stencil walk (see [`traverse_lorenzo1_fast`]); order 2 takes the
/// stencil walk itself.
pub(crate) fn traverse_lorenzo(
    shape: Shape,
    order: usize,
    visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    if order == 1 {
        traverse_lorenzo1_fast(shape, visit)
    } else {
        traverse_lorenzo_generic(shape, order, visit)
    }
}

/// The generic traversal: per-point stencil evaluation with checked
/// neighbor subtraction.
fn traverse_lorenzo_generic(
    shape: Shape,
    order: usize,
    mut visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    let stencil = LorenzoStencil::new(shape.ndim(), order);
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

/// Row-specialized order-1 Lorenzo traversal.
///
/// The order-1 stencil's taps, in the exact enumeration order of
/// [`LorenzoStencil::new`] (axis 0 fastest), are the non-empty subsets of
/// axes read as binary: first every tap with offset 0 along the
/// contiguous axis (ascending leading-axis subset mask `m`, weight
/// `(-1)^(popcount(m)+1)`), then the same subsets with contiguous offset
/// 1 (pure-x first, each weight negated). That split is what this
/// function exploits:
///
/// * the `dx=0` taps only read *previous rows*, so their partial sums are
///   hoisted into a per-row `scratch` pass with no feedback dependence —
///   plain slice loops the compiler unrolls and vectorizes;
/// * the `dx=1` taps and the serial `visit` feedback run per point.
///
/// Floating-point addition order is preserved exactly: `scratch[j]`
/// accumulates per-subset in ascending mask order (the generic per-point
/// order), and the per-point tail adds the pure-x and `dx=1` terms in the
/// same sequence the generic walk would. Weights are ±1, so `w * r`
/// equals `r`/`-r` exactly and the specialized add/sub loops round
/// identically. Boundary rows simply drop the subsets whose axes sit at
/// coordinate 0 — the same taps the generic walk's `checked_sub` skips.
fn traverse_lorenzo1_fast(
    shape: Shape,
    mut visit: impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<Vec<f64>, DecompressError> {
    let nd = shape.ndim();
    let n = shape.len();
    let mut recon = vec![0f64; n];
    if n == 0 {
        return Ok(recon);
    }
    let w = shape.dim(nd - 1);
    let strides = shape.strides();
    let nlead = nd - 1;
    let nmask = 1usize << nlead;
    debug_assert!(nmask <= 8, "MAX_DIMS grew past 4: widen the subset tables");
    // Per leading-axis subset: linear offset and tap weight.
    let mut off = [0usize; 8];
    let mut wgt = [0f64; 8];
    for m in 1..nmask {
        for (a, &stride) in strides[..nlead].iter().enumerate() {
            if m & (1 << a) != 0 {
                off[m] += stride;
            }
        }
        wgt[m] = if m.count_ones() & 1 == 1 { 1.0 } else { -1.0 };
    }
    let mut scratch = vec![0f64; w];
    let mut coord = [0usize; MAX_DIMS];
    let mut row = 0usize;
    loop {
        // Subsets valid on this row: every member axis at coordinate >= 1.
        // Ascending mask order = the generic tap enumeration order.
        let mut avail = 0usize;
        for (a, &c) in coord[..nlead].iter().enumerate() {
            if c >= 1 {
                avail |= 1 << a;
            }
        }
        let mut taps = [(0usize, 0f64); 7];
        let mut ntaps = 0;
        for m in 1..nmask {
            if m & !avail == 0 {
                taps[ntaps] = (off[m], wgt[m]);
                ntaps += 1;
            }
        }
        let taps = &taps[..ntaps];

        // dx=0 prefix sums for the whole row, one subset at a time (the
        // per-element addition order this produces is exactly the generic
        // per-point order). No feedback: these loops vectorize.
        scratch.fill(0.0);
        for &(o, wg) in taps {
            let src = &recon[row - o..row - o + w];
            if wg == 1.0 {
                for (d, &s) in scratch.iter_mut().zip(src) {
                    *d += s;
                }
            } else {
                for (d, &s) in scratch.iter_mut().zip(src) {
                    *d -= s;
                }
            }
        }

        // Column 0: the dx=1 taps (including pure-x) are all invalid.
        recon[row] = visit(row, scratch[0])?;
        // The tap count per row is `2^popcount(avail) - 1` — dispatch to a
        // monomorphized tail so the per-point tap loop fully unrolls.
        match ntaps {
            0 => lorenzo1_row_tail::<0>(&mut recon, row, w, taps, &scratch, &mut visit)?,
            1 => lorenzo1_row_tail::<1>(&mut recon, row, w, taps, &scratch, &mut visit)?,
            3 => lorenzo1_row_tail::<3>(&mut recon, row, w, taps, &scratch, &mut visit)?,
            _ => {
                debug_assert_eq!(ntaps, 7);
                lorenzo1_row_tail::<7>(&mut recon, row, w, taps, &scratch, &mut visit)?
            }
        }

        row += w;
        // Odometer over the leading axes, last fastest (row-major order).
        let mut axis = nlead;
        loop {
            if axis == 0 {
                return Ok(recon);
            }
            axis -= 1;
            coord[axis] += 1;
            if coord[axis] < shape.dim(axis) {
                break;
            }
            coord[axis] = 0;
        }
    }
}

/// Serial tail of one [`traverse_lorenzo1_fast`] row: the pure-x tap
/// (weight +1) then the `NT` dx=1 subset taps (each the negated dx=0
/// weight), in subset order — the feedback part that cannot be hoisted.
/// `NT` is a compile-time tap count so the loop unrolls with the offsets
/// held in registers; floating-point order is identical to the dynamic
/// loop it replaces.
#[inline(always)]
fn lorenzo1_row_tail<const NT: usize>(
    recon: &mut [f64],
    row: usize,
    w: usize,
    taps: &[(usize, f64)],
    scratch: &[f64],
    visit: &mut impl FnMut(usize, f64) -> Result<f64, DecompressError>,
) -> Result<(), DecompressError> {
    debug_assert_eq!(taps.len(), NT);
    debug_assert!(scratch.len() >= w);
    for j in 1..w {
        let lin = row + j;
        // SAFETY (audited, covered by tests/kernel_differential.rs):
        // `j < w <= scratch.len()`; `lin < recon.len()` because the caller
        // guarantees `row + w <= recon.len()`; every `o` satisfies
        // `o <= row` (its axes all have coordinate >= 1), so `1 + o <= lin`
        // and the subtractions cannot wrap; `taps.len() == NT` is asserted.
        let acc = unsafe {
            let mut acc = *scratch.get_unchecked(j) + *recon.get_unchecked(lin - 1);
            for k in 0..NT {
                let (o, wg) = *taps.get_unchecked(k);
                acc += -wg * *recon.get_unchecked(lin - 1 - o);
            }
            acc
        };
        let v = visit(lin, acc)?;
        // SAFETY: `lin < recon.len()` as above.
        unsafe { *recon.get_unchecked_mut(lin) = v };
    }
    Ok(())
}

/// The interpolation traversal, over non-anchor points a line at a time
/// (the caller has already written the anchor reconstructions into
/// `recon`): `visit(line, predicted, recon)` gets a line of
/// [`rq_predict::interp::Pass::lines`] with the predictions of its targets
/// and stores their reconstructions.
fn interp_lines(
    shape: Shape,
    recon: &mut [f64],
    mut visit: impl FnMut(Line, &[f64], &mut [f64]) -> Result<(), DecompressError>,
) -> Result<(), DecompressError> {
    // No line is longer than the last axis.
    let mut predicted = vec![0f64; shape.dim(shape.ndim() - 1)];
    for pass in passes(shape) {
        for line in pass.lines() {
            let predicted = &mut predicted[..line.len];
            pass.predict_line(line, recon, predicted);
            visit(line, predicted, recon)?;
        }
    }
    Ok(())
}

/// Iterate the elements of one block in row-major (block-local) order.
fn for_each_in_block(
    shape: Shape,
    block: &rq_grid::BlockSpec,
    mut f: impl FnMut(usize, &[usize]),
) {
    let strides = shape.strides();
    let nd = block.ndim;
    let mut local = [0usize; MAX_DIMS];
    loop {
        let mut lin = 0usize;
        for a in 0..nd {
            lin += (block.origin[a] + local[a]) * strides[a];
        }
        f(lin, &local[..nd]);
        let mut axis = nd;
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            local[axis] += 1;
            if local[axis] < block.size[axis] {
                break;
            }
            local[axis] = 0;
        }
    }
}

/// One fully-encoded stream (a whole field, or one chunk of it).
pub(crate) struct EncodedStream<T> {
    pub codebook: Vec<u8>,
    /// Entropy-coded payload, after the optional lossless stage.
    pub payload: Vec<u8>,
    /// Whether the lossless stage was kept (only when it shrank the
    /// payload).
    pub lossless_applied: LosslessStage,
    pub verbatim: Vec<T>,
    pub side: Vec<u8>,
    /// Counts of the quantized symbols (escapes are `n_escapes`).
    pub histogram: SymbolWindow,
    pub n_symbols: usize,
    pub n_escapes: usize,
    pub n_anchors: usize,
    /// Payload size before the optional lossless stage.
    pub huffman_bytes: usize,
}

/// The traversal half of the encode kernel: symbols, verbatim values,
/// side channel and histogram, before any entropy stage. Shared by the
/// SZ path (which Huffman-codes the symbols directly) and the ROLZ codec
/// (which re-codes the symbol bytes through reduced-offset LZ first).
pub(crate) struct QuantizedStream<T> {
    /// Quantization symbols in traversal order (escape bin included).
    pub symbols: Vec<u32>,
    pub verbatim: Vec<T>,
    pub side: Vec<u8>,
    /// Counts of the quantized symbols (escapes are `n_escapes`).
    pub histogram: SymbolWindow,
    pub n_escapes: usize,
    pub n_anchors: usize,
}

/// Whether [`quantize_stream`] can fill a mirror: its traversal keeps the
/// reconstruction of every point (not the regression walk's), in the value
/// domain the decoder writes (the identity transform's).
pub(crate) fn keeps_mirror(predictor: PredictorKind, transform: Transform) -> bool {
    transform == Transform::Identity && predictor != PredictorKind::Regression
}

/// Run the predictor's causal traversal over `orig`, quantizing every
/// prediction error — the encode kernel minus entropy coding.
///
/// `orig.len()` must equal `shape.len()`. The stream starts with empty
/// history, so running the kernel on an axis-0 slab yields exactly the
/// symbols a standalone field of that slab's shape would produce.
///
/// With a `mirror` (`mirror.len() == shape.len()`, and only where
/// [`keeps_mirror`] holds) the traversal's own reconstruction is written
/// into it after the walk: the values the decoder will write, bit for bit
/// (see [`fill_mirror`]).
pub(crate) fn quantize_stream<T: Scalar>(
    orig: &[T],
    shape: Shape,
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
    transform: Transform,
    mirror: Option<&mut [T]>,
) -> QuantizedStream<T> {
    // Hard assert (not debug): the Lorenzo walk's unchecked loads rely on
    // it, and `ChunkCodec::encode` is public.
    assert_eq!(orig.len(), shape.len(), "quantize_stream input slab size mismatch");
    let n = shape.len();
    assert!(
        mirror.as_ref().is_none_or(|m| m.len() == n && keeps_mirror(predictor, transform)),
        "quantize_stream cannot fill this mirror"
    );

    let mut enc = QuantEncoder::<T>::new(quantizer, transform, n);
    let mut side = Vec::new();
    let mut n_anchors = 0usize;

    match predictor {
        // TemporalDelta streams hold residuals against the previous time
        // step (the catalog layer does the subtraction); within the field
        // they traverse exactly like order-1 Lorenzo.
        PredictorKind::Lorenzo | PredictorKind::Lorenzo2 | PredictorKind::TemporalDelta => {
            let order = if predictor == PredictorKind::Lorenzo2 { 2 } else { 1 };
            let recon = traverse_lorenzo(shape, order, |lin, pred| {
                // SAFETY: the traversal visits each `lin < shape.len()`
                // exactly once, and `orig.len() == shape.len()` (asserted
                // above); audited, covered by tests/kernel_differential.rs.
                let o = unsafe { *orig.get_unchecked(lin) };
                Ok(enc.encode_point(o, pred))
            })
            .expect("compression traversal cannot fail");
            if let Some(mirror) = mirror {
                // Row-major order is the traversal's.
                fill_mirror(mirror, &recon, &enc, 0, 0..n);
            }
        }
        PredictorKind::Interpolation => {
            let mut recon = vec![0f64; n];
            for a in anchors(shape) {
                n_anchors += 1;
                recon[a] = enc.store_verbatim(orig[a]);
            }
            interp_lines(shape, &mut recon, |line, predicted, recon| {
                enc.encode_line(orig, line, predicted, recon);
                Ok(())
            })
            .expect("compression traversal cannot fail");
            if let Some(mirror) = mirror {
                let anchors = anchors(shape);
                for (&a, &v) in anchors.iter().zip(&enc.verbatim) {
                    mirror[a] = v;
                }
                let passes = passes(shape);
                let targets = passes.iter().flat_map(|p| p.lines()).flat_map(|l| l.targets());
                fill_mirror(mirror, &recon, &enc, anchors.len(), targets);
            }
        }
        PredictorKind::Regression => {
            // The regression fitter is the one consumer that needs the
            // working-domain originals as a whole slab.
            let work: Vec<f64> = orig.iter().map(|&v| transform.forward(v.to_f64())).collect();
            for block in BlockIter::new(shape, REGRESSION_BLOCK_SIDE) {
                let coeffs = fit_block(&work, shape, &block);
                coeffs.write(&mut side);
                for_each_in_block(shape, &block, |lin, local| {
                    let pred = coeffs.predict(local);
                    enc.encode_point(orig[lin], pred);
                });
            }
        }
    }

    QuantizedStream {
        symbols: enc.symbols,
        verbatim: enc.verbatim,
        side,
        histogram: enc.histogram,
        n_escapes: enc.n_escapes,
        n_anchors,
    }
}

/// Write what the decoder writes for each point into `mirror`, from an
/// identity-transform traversal's reconstruction `recon`: `order` yields the
/// linear index of each symbol of `enc`'s stream, in stream order, and the
/// verbatim values from `first_escape` on are the escapes, in that order.
///
/// A quantized point is `T::from_f64(recon)` — the walk kept the value
/// already rounded through `T`, so rounding it again changes no bit. An
/// escape is its verbatim `T` itself, never a round trip through `f64`: an
/// `f32` signalling NaN comes back from `f64` quieted.
fn fill_mirror<T: Scalar>(
    mirror: &mut [T],
    recon: &[f64],
    enc: &QuantEncoder<T>,
    first_escape: usize,
    order: impl Iterator<Item = usize>,
) {
    let mut escapes = enc.verbatim[first_escape..].iter();
    for (lin, &sym) in order.zip(&enc.symbols) {
        mirror[lin] = if sym == enc.escape_symbol {
            *escapes.next().expect("an escape symbol has its verbatim value")
        } else {
            T::from_f64(recon[lin])
        };
    }
}

/// The chunk kernel, encode side: one causal traversal over `orig`
/// (row-major, laid out as `shape`), producing a self-contained stream;
/// with a `mirror`, also the values its decode will yield
/// ([`quantize_stream`]).
pub(crate) fn encode_stream<T: Scalar>(
    orig: &[T],
    shape: Shape,
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
    transform: Transform,
    lossless: LosslessStage,
    mirror: Option<&mut [T]>,
) -> Result<EncodedStream<T>, CompressError> {
    let q = quantize_stream(orig, shape, predictor, quantizer, transform, mirror);

    // Entropy coding.
    let (codebook, huffman_payload) = if q.symbols.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        // The escape symbol is the alphabet's last, past every code's.
        let mut present: Vec<(u32, u64)> = q.histogram.present().collect();
        if q.n_escapes > 0 {
            present.push((quantizer.alphabet_size() as u32, q.n_escapes as u64));
        }
        let codec = HuffmanCodec::from_present(quantizer.alphabet_size() + 1, &present)?;
        (codec.serialize_codebook(), codec.encode(&q.symbols)?)
    };
    let huffman_bytes = huffman_payload.len();
    let (payload, lossless_applied) = match lossless {
        LosslessStage::None => (huffman_payload, LosslessStage::None),
        LosslessStage::RleLzss => {
            let ll = lossless_compress(&huffman_payload);
            if ll.len() < huffman_bytes {
                (ll, LosslessStage::RleLzss)
            } else {
                (huffman_payload, LosslessStage::None)
            }
        }
    };

    Ok(EncodedStream {
        codebook,
        payload,
        lossless_applied,
        verbatim: q.verbatim,
        side: q.side,
        histogram: q.histogram,
        n_symbols: q.symbols.len(),
        n_escapes: q.n_escapes,
        n_anchors: q.n_anchors,
        huffman_bytes,
    })
}

/// The chunk kernel, decode side: replay one stream into `out`
/// (`out.len() == shape.len()`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn decode_stream<T: Scalar>(
    body: &SectionsBody<T>,
    lossless: LosslessStage,
    shape: Shape,
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
    transform: Transform,
    out: &mut [T],
) -> Result<(), DecompressError> {
    // Hard assert (not debug): QuantDecoder's unchecked stores rely on
    // `lin < shape.len() == out.len()` for every traversal-visited `lin`.
    assert_eq!(out.len(), shape.len(), "decode_stream output slab size mismatch");
    let n = shape.len();

    let n_anchors =
        if predictor == PredictorKind::Interpolation { anchors(shape).len() } else { 0 };
    let n_symbols = n - n_anchors;

    // Owned storage the symbol source borrows from; each is initialized
    // only when the payload has symbols.
    let payload: std::borrow::Cow<'_, [u8]>;
    let codec: HuffmanCodec;
    let source = if n_symbols == 0 {
        SymbolSource::Upfront([].iter())
    } else {
        payload = if lossless == LosslessStage::RleLzss {
            // A Huffman code is at most 64 bits, so the decoded payload
            // can never legitimately exceed 8 bytes/symbol — bounding the
            // lossless stage here keeps corrupt run lengths from forcing
            // huge allocations.
            let max_payload = n_symbols.saturating_mul(8).saturating_add(16);
            lossless_decompress_bounded(&body.payload, max_payload)
                .ok_or(DecompressError::Corrupt("lossless stage"))?
                .into()
        } else {
            (&body.payload[..]).into()
        };
        // Every Huffman code is at least one bit, so a corrupt header
        // cannot demand more symbols than the payload can hold; checking
        // here keeps a hostile symbol count from driving a huge upfront
        // allocation in the decoder.
        if n_symbols > payload.len().saturating_mul(8) {
            return Err(DecompressError::Corrupt("symbol count exceeds payload"));
        }
        codec = HuffmanCodec::deserialize_codebook(&body.codebook)?.0;
        if codec.alphabet_len() > quantizer.alphabet_size() + 1 {
            return Err(DecompressError::Corrupt("codebook alphabet exceeds the quantizer's"));
        }
        SymbolSource::Streaming(codec.streaming_decoder(&payload, n_symbols))
    };

    let dec = QuantDecoder::<T> {
        quantizer,
        transform,
        escape_symbol: quantizer.alphabet_size() as u32,
        symbols: source,
        verbatim: body.verbatim.iter(),
        out,
    };
    decode_traversal(dec, shape, predictor, &body.side)
}

/// The traversal half of the decode kernel: replay `dec`'s symbol source
/// through the predictor walk into its output slab. Shared by
/// [`decode_stream`] and the ROLZ codec (which decodes its symbols
/// upfront from the ROLZ token stream).
fn decode_traversal<T: Scalar>(
    mut dec: QuantDecoder<'_, T>,
    shape: Shape,
    predictor: PredictorKind,
    side: &[u8],
) -> Result<(), DecompressError> {
    match predictor {
        PredictorKind::Lorenzo | PredictorKind::Lorenzo2 | PredictorKind::TemporalDelta => {
            let order = if predictor == PredictorKind::Lorenzo2 { 2 } else { 1 };
            traverse_lorenzo(shape, order, |lin, pred| dec.decode_point(lin, pred))?;
        }
        PredictorKind::Interpolation => {
            let mut recon = vec![0f64; shape.len()];
            for a in anchors(shape) {
                recon[a] = dec.take_verbatim(a)?;
            }
            interp_lines(shape, &mut recon, |line, predicted, recon| {
                for (lin, &pred) in line.targets().zip(predicted) {
                    recon[lin] = dec.decode_point(lin, pred)?;
                }
                Ok(())
            })?;
        }
        PredictorKind::Regression => {
            let nd = shape.ndim();
            let mut side_pos = 0usize;
            for block in BlockIter::new(shape, REGRESSION_BLOCK_SIDE) {
                let (coeffs, used) = BlockCoeffs::read(&side[side_pos..], nd)
                    .ok_or(DecompressError::Corrupt("regression side channel"))?;
                side_pos += used;
                let mut err = None;
                for_each_in_block(shape, &block, |lin, local| {
                    if err.is_some() {
                        return;
                    }
                    let pred = coeffs.predict(local);
                    if let Err(e) = dec.decode_point(lin, pred) {
                        err = Some(e);
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
    }
    Ok(())
}

/// Replay an upfront symbol slab through the predictor walk into `out` —
/// the decode kernel minus the entropy stage ([`quantize_stream`]'s
/// inverse). The ROLZ codec feeds its recovered symbols through this.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dequantize_stream<T: Scalar>(
    symbols: &[u32],
    verbatim: &[T],
    side: &[u8],
    shape: Shape,
    predictor: PredictorKind,
    quantizer: LinearQuantizer,
    transform: Transform,
    out: &mut [T],
) -> Result<(), DecompressError> {
    // Hard assert (not debug): QuantDecoder's unchecked stores rely on
    // `lin < shape.len() == out.len()` for every traversal-visited `lin`.
    assert_eq!(out.len(), shape.len(), "dequantize_stream output slab size mismatch");
    let dec = QuantDecoder::<T> {
        quantizer,
        transform,
        escape_symbol: quantizer.alphabet_size() as u32,
        symbols: SymbolSource::Upfront(symbols.iter()),
        verbatim: verbatim.iter(),
        out,
    };
    decode_traversal(dec, shape, predictor, side)
}

/// Compress `field` under `cfg` into one in-memory archive.
///
/// The bound is resolved against the whole field (so value-range-relative
/// bounds work here, unlike in a streaming session), then the field goes
/// through an [`ArchiveWriter`] over a `Vec` as a single slab — encoded
/// straight from `field`'s storage, chunk-parallel, never copied. A
/// [`Chunking::Serial`](crate::Chunking::Serial) config is one
/// whole-field chunk.
pub fn compress<T: Scalar>(
    field: &NdArray<T>,
    cfg: &CompressorConfig,
) -> Result<CompressedOutput, CompressError> {
    compress_with_report(field, cfg).map(|(out, _)| out)
}

/// Compress and return the per-stage measurements alongside the output.
pub fn compress_with_report<T: Scalar>(
    field: &NdArray<T>,
    cfg: &CompressorConfig,
) -> Result<(CompressedOutput, CompressionReport), CompressError> {
    cfg.validate().map_err(CompressError::InvalidConfig)?;
    let (abs_eb, transform) = resolve_bound(cfg, field.value_range())?;
    let mut writer =
        ArchiveWriter::create_resolved(Vec::new(), field.shape(), cfg, abs_eb, transform, None)?;
    writer.write_slab(field)?;
    let done = writer.finalize()?;
    let out =
        CompressedOutput { bytes: done.sink, n_elements: field.len(), original_bits: T::BITS };
    Ok((out, done.report))
}

/// Compress `field` as one slab — the archive [`ArchiveWriter::create`],
/// one [`ArchiveWriter::write_slab`] and [`ArchiveWriter::finalize`] write,
/// so the bound must not be value-range-relative — and also return the
/// field a decode of that archive yields, bit for bit.
///
/// The returned field is the encoders' own reconstruction
/// ([`ChunkCodec::encode_mirrored`](crate::ChunkCodec::encode_mirrored)):
/// SZ and ROLZ chunks under the identity transform, except regression
/// ones, decode nothing; the other chunks are decoded once. A writer that
/// must track its reader's state (a time-delta catalog) takes it instead
/// of decoding the archive.
pub fn compress_mirrored<T: Scalar>(
    field: &NdArray<T>,
    cfg: &CompressorConfig,
) -> Result<(CompressedOutput, CompressionReport, NdArray<T>), CompressError> {
    let shape = field.shape();
    let mut writer = ArchiveWriter::create(Vec::new(), shape, cfg)?;
    let mut mirror = vec![T::zero(); field.len()];
    // The whole field is one batch of whole chunks: what `write_slab`
    // encodes from a fresh session's only slab.
    writer.encode_rows(field.as_slice(), shape.dim(0), Some(&mut mirror))?;
    let done = writer.finalize()?;
    let out =
        CompressedOutput { bytes: done.sink, n_elements: field.len(), original_bits: T::BITS };
    Ok((out, done.report, NdArray::from_vec(shape, mirror)))
}

/// Decompress a container of any generation held in memory, chunk-parallel
/// with one worker per available CPU; use [`ArchiveReader::with_threads`]
/// to control the worker count, or [`crate::decompress_chunk`] for random
/// access to a single slab.
pub fn decompress<T: Scalar>(bytes: &[u8]) -> Result<NdArray<T>, DecompressError> {
    ArchiveReader::open(std::io::Cursor::new(bytes))?.with_threads(0).read_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_quant::ErrorBoundMode;

    fn wavy(shape: Shape) -> NdArray<f32> {
        // Smooth multi-frequency base plus deterministic fine-scale
        // "turbulence" so prediction residuals are real signal, not just
        // quantization feedback.
        let mut lin = 0u64;
        NdArray::from_fn(shape, |ix| {
            let mut v = 0.0f64;
            for (a, &c) in ix.iter().enumerate() {
                v += ((c as f64) * 0.11 * (a + 1) as f64).sin() * (10.0 / (a + 1) as f64);
            }
            lin += 1;
            // murmur3 finalizer: proper avalanche, unlike a Weyl sequence
            // (which is locally linear and thus invisible to Lorenzo).
            let mut h = lin;
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51afd7ed558ccd);
            h ^= h >> 33;
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
            v += ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.04;
            v as f32
        })
    }

    fn assert_bounded(orig: &NdArray<f32>, recon: &NdArray<f32>, eb: f64) {
        for (i, (&a, &b)) in orig.as_slice().iter().zip(recon.as_slice()).enumerate() {
            let err = (a as f64 - b as f64).abs();
            assert!(err <= eb * (1.0 + 1e-6), "element {i}: |{a} - {b}| = {err} > {eb}");
        }
    }

    fn roundtrip(pred: PredictorKind, shape: Shape, eb: f64) {
        let field = wavy(shape);
        let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_eq!(back.shape().dims(), shape.dims());
        assert_bounded(&field, &back, eb);
    }

    #[test]
    fn lorenzo_roundtrip_1d_2d_3d() {
        roundtrip(PredictorKind::Lorenzo, Shape::d1(1000), 1e-3);
        roundtrip(PredictorKind::Lorenzo, Shape::d2(37, 53), 1e-3);
        roundtrip(PredictorKind::Lorenzo, Shape::d3(20, 25, 30), 1e-2);
    }

    #[test]
    fn lorenzo2_roundtrip() {
        roundtrip(PredictorKind::Lorenzo2, Shape::d2(40, 40), 1e-3);
        roundtrip(PredictorKind::Lorenzo2, Shape::d3(16, 16, 16), 1e-2);
    }

    #[test]
    fn interpolation_roundtrip() {
        roundtrip(PredictorKind::Interpolation, Shape::d1(777), 1e-3);
        roundtrip(PredictorKind::Interpolation, Shape::d2(33, 65), 1e-3);
        roundtrip(PredictorKind::Interpolation, Shape::d3(17, 20, 23), 1e-2);
    }

    #[test]
    fn regression_roundtrip() {
        roundtrip(PredictorKind::Regression, Shape::d2(40, 41), 1e-2);
        roundtrip(PredictorKind::Regression, Shape::d3(13, 14, 15), 1e-2);
    }

    #[test]
    fn four_dimensional_field() {
        roundtrip(PredictorKind::Lorenzo, Shape::d4(6, 7, 8, 9), 1e-2);
        roundtrip(PredictorKind::Interpolation, Shape::d4(6, 7, 8, 9), 1e-2);
    }

    #[test]
    fn value_range_relative_bound() {
        let field = wavy(Shape::d2(50, 50));
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::ValueRangeRelative(1e-3),
        );
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let abs = 1e-3 * field.value_range();
        assert_bounded(&field, &back, abs);
    }

    #[test]
    fn pointwise_relative_bound_positive_data() {
        let field = NdArray::<f32>::from_fn(Shape::d2(40, 40), |ix| {
            (1.0 + (ix[0] as f64 * 0.2).sin().abs() * 100.0 + ix[1] as f64) as f32
        });
        let ratio = 1e-3;
        let cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::PointwiseRelative(ratio));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            let rel = ((a - b).abs() as f64) / (a.abs() as f64);
            assert!(rel <= ratio * (1.0 + 1e-5), "rel err {rel}");
        }
    }

    #[test]
    fn pointwise_relative_with_nonpositive_values() {
        // Zeros and negatives must round-trip exactly (escape path).
        let field = NdArray::<f32>::from_fn(Shape::d1(200), |ix| {
            let i = ix[0] as i64;
            if i % 7 == 0 {
                0.0
            } else if i % 5 == 0 {
                -(i as f32)
            } else {
                i as f32
            }
        });
        let cfg = CompressorConfig::new(
            PredictorKind::Lorenzo,
            ErrorBoundMode::PointwiseRelative(1e-2),
        );
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            if a <= 0.0 {
                assert_eq!(a, b, "non-positive values must be exact");
            } else {
                assert!(((a - b).abs() / a.abs()) <= 1e-2 * 1.00001);
            }
        }
    }

    #[test]
    fn f64_roundtrip() {
        let field = NdArray::<f64>::from_fn(Shape::d2(30, 30), |ix| {
            (ix[0] as f64 * 0.3).cos() * 5.0 + ix[1] as f64 * 0.01
        });
        let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1e-6));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f64>(&out.bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn smooth_fields_compress_well() {
        let field = wavy(Shape::d3(32, 32, 32));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-2));
        let out = compress(&field, &cfg).unwrap();
        assert!(out.ratio() > 8.0, "ratio {}", out.ratio());
    }

    #[test]
    fn higher_eb_gives_higher_ratio() {
        // On a small field the fixed container overhead caps the ratio at
        // very high bounds, so monotonicity is only asserted over the range
        // where the payload dominates.
        let field = wavy(Shape::d3(24, 24, 24));
        let ratio_at = |eb: f64| {
            let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
            compress(&field, &cfg).unwrap().ratio()
        };
        let mut prev_ratio = 0.0;
        for eb in [1e-5, 1e-4, 1e-3, 1e-2] {
            let r = ratio_at(eb);
            assert!(r >= prev_ratio * 0.95, "eb {eb}: ratio {r} < prev {prev_ratio}");
            prev_ratio = r;
        }
        assert!(ratio_at(1e-1) > ratio_at(1e-5));
    }

    #[test]
    fn report_is_self_consistent() {
        let field = wavy(Shape::d2(64, 64));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(2e-2));
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.n_elements, 64 * 64);
        assert_eq!(rep.container_bytes, out.bytes.len());
        assert_eq!(rep.n_quantized + rep.n_unpredictable, rep.n_elements);
        let hist_total: u64 = rep.symbol_histogram.iter().sum();
        assert_eq!(hist_total as usize, rep.n_quantized);
        assert!(rep.p0() > 0.1);
        assert!(rep.encoded_bytes <= rep.huffman_bytes);
        assert_eq!(rep.n_chunks, 1);
    }

    #[test]
    fn constant_field_compresses_extremely() {
        let field = NdArray::<f32>::from_fn(Shape::d2(100, 100), |_| 3.25);
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-5));
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert!(out.ratio() > 100.0, "ratio {}", out.ratio());
        assert!(rep.p0() > 0.99);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-5);
    }

    #[test]
    fn random_noise_survives_roundtrip() {
        // Worst case: codes spread over many bins, many escapes possible.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 1e4
        };
        let field = NdArray::<f32>::from_fn(Shape::d1(5000), |_| next() as f32);
        for pred in PredictorKind::all() {
            let cfg = CompressorConfig::new(pred, ErrorBoundMode::Abs(0.5));
            let out = compress(&field, &cfg).unwrap();
            let back = decompress::<f32>(&out.bytes).unwrap();
            assert_bounded(&field, &back, 0.5);
        }
    }

    #[test]
    fn tiny_fields() {
        for pred in PredictorKind::all() {
            roundtrip(pred, Shape::d1(1), 1e-3);
            roundtrip(pred, Shape::d1(2), 1e-3);
            roundtrip(pred, Shape::d2(1, 3), 1e-3);
            roundtrip(pred, Shape::d3(2, 1, 2), 1e-3);
        }
    }

    #[test]
    fn corrupt_stream_is_error_not_panic() {
        let field = wavy(Shape::d2(20, 20));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        let out = compress(&field, &cfg).unwrap();
        for cut in [10, out.bytes.len() / 2, out.bytes.len() - 3] {
            let _ = decompress::<f32>(&out.bytes[..cut]); // must not panic
        }
        let mut mangled = out.bytes.clone();
        let mid = mangled.len() / 2;
        mangled[mid] ^= 0xff;
        let _ = decompress::<f32>(&mangled); // must not panic
    }

    #[test]
    fn wrong_scalar_type_rejected() {
        let field = wavy(Shape::d2(10, 10));
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3));
        let out = compress(&field, &cfg).unwrap();
        assert!(matches!(
            decompress::<f64>(&out.bytes),
            Err(DecompressError::ScalarMismatch { .. })
        ));
    }

    #[test]
    fn huffman_only_mode_no_lossless_flag() {
        let field = wavy(Shape::d2(50, 50));
        let cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-1)).huffman_only();
        let (out, rep) = compress_with_report(&field, &cfg).unwrap();
        assert_eq!(rep.huffman_bytes, rep.encoded_bytes);
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_bounded(&field, &back, 1e-1);
    }
}
