//! The §IV workflow as one session: fit the model, plan the bounds,
//! compress once, and only rarely compress again.
//!
//! [`TargetSession::fit`] builds one deterministic model per chunk;
//! [`TargetSession::run`] plans per-chunk bounds for a [`Target`], hands
//! them to the caller's `attempt` closure (the only I/O: it writes one
//! archive and reports what came out, see [`measure_archive`]) and
//! re-plans from that report while the attempt landed outside the
//! target's band. The policy lives here and nowhere else:
//!
//! * **PSNR floor `T`**: attempt 1 is planned uncorrected at `T` + the
//!   predictor's margin (2.5 dB interpolation, 1.5 dB otherwise). While
//!   the latest attempt measured outside `[T, T + 0.75]` and fewer than 3
//!   attempts ran, re-plan at `T + 0.35` with the [`PlanCorrection`] of
//!   the latest attempt. The smallest attempt that met `T` is kept.
//! * **Byte ceiling `B`**: plan at 80 % of `B` ([`plan_budget`]); while the
//!   latest attempt overflowed, lower the planning budget by the observed
//!   overshoot (`⌊budget / (bytes / B)⌋`), under the same cap of 3. The
//!   first attempt that fits is kept; its quality is never measured.
//!
//! No attempt met the target → [`TargetError::Missed`], never a silently
//! missed floor or an oversized archive.

use super::insitu::{optimize_partitions_corrected, PartitionPlan, PlanCorrection, PlanError};
use super::memory_budget::plan_budget;
use crate::model::RqModel;
use rq_compress::{ArchiveReader, DecompressError};
use rq_grid::{NdArray, Scalar};
use rq_predict::PredictorKind;
use std::borrow::Borrow;

/// Error-sample budget per chunk (deterministic strided sampling — a few
/// % of typical chunk sizes, in the spirit of the paper's 1 % pass).
const SAMPLES_PER_CHUNK: usize = 4096;
/// Candidate error bounds per chunk on the planners' grids.
const GRID_POINTS: usize = 32;
/// Compressions a session may spend on one target.
const MAX_ATTEMPTS: usize = 3;
/// A PSNR attempt within this many dB above the floor is final; beyond
/// it, a corrected attempt hands the surplus quality back as bytes.
const PSNR_BAND_DB: f64 = 0.75;
/// Where corrected attempts aim: just above the floor, so model noise
/// cannot drop the delivered quality below it.
const PSNR_REAIM_DB: f64 = 0.35;

/// Margin (dB) the uncorrected first attempt plans above a PSNR floor: the
/// floor binds the *measured* quality, so the plan aims above it by the
/// model's known PSNR-error band. The interpolation predictor's
/// multi-level reconstruction feedback is the hardest part of the quality
/// model (its cascade correction is calibrated, not derived), so it gets
/// the widest band.
fn first_margin_db(predictor: PredictorKind) -> f64 {
    match predictor {
        PredictorKind::Interpolation => 2.5,
        _ => 1.5,
    }
}

/// What a session's archive must honor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Target {
    /// The measured aggregate PSNR must be at least this many dB.
    PsnrFloor(f64),
    /// The archive must be at most this many bytes.
    ByteCeiling(usize),
}

/// What one attempt produced, as reported by the caller's closure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measured {
    /// Size of everything the attempt wrote, in bytes.
    pub bytes: usize,
    /// Mean squared error per chunk. A byte ceiling never reads it, so an
    /// attempt at one may leave it empty ([`Measured::size_only`]).
    pub sigma2: Vec<f64>,
    /// Compressed bits per value per chunk; empty with `sigma2`.
    pub bits: Vec<f64>,
}

impl Measured {
    /// An attempt whose quality was not measured.
    pub fn size_only(bytes: usize) -> Self {
        Measured { bytes, ..Measured::default() }
    }

    /// Account for one chunk: its original and decoded values and the
    /// bytes it compressed to (added to [`Self::bytes`]).
    ///
    /// # Panics
    /// Panics if the two shapes differ.
    pub fn push_chunk<T: Scalar>(
        &mut self,
        original: &NdArray<T>,
        decoded: &NdArray<T>,
        compressed_bytes: usize,
    ) {
        self.bytes += compressed_bytes;
        self.sigma2.push(rq_analysis::mse(original, decoded));
        self.bits.push(compressed_bytes as f64 * 8.0 / original.len() as f64);
    }
}

/// Measure a written archive of `archive_bytes` bytes chunk by chunk
/// against the slabs it was compressed from (`originals`: the archive's
/// chunk partition, in order). Decoding goes through
/// [`ArchiveReader::read_chunk`], so one chunk of each is resident.
pub fn measure_archive<T: Scalar, A: Borrow<NdArray<T>>, R: std::io::Read + std::io::Seek>(
    reader: &mut ArchiveReader<R>,
    archive_bytes: usize,
    originals: impl IntoIterator<Item = std::io::Result<A>>,
) -> Result<Measured, DecompressError> {
    let mut measured = Measured::default();
    let mut originals = originals.into_iter();
    for chunk in 0..reader.n_chunks() {
        let original = originals
            .next()
            .ok_or(DecompressError::Corrupt("more chunks than original slabs"))??;
        let (_, decoded) = reader.read_chunk::<T>(chunk)?;
        if decoded.shape() != original.borrow().shape() {
            return Err(DecompressError::Corrupt("chunk and original slab differ in shape"));
        }
        measured.push_chunk(original.borrow(), &decoded, reader.entries()[chunk].len);
    }
    measured.bytes = archive_bytes;
    Ok(measured)
}

/// A finished session: the attempt that was kept.
#[derive(Clone, Debug)]
pub struct TargetOutcome {
    /// The plan the kept attempt was written under.
    pub plan: PartitionPlan,
    /// Index of the kept attempt, as passed to the closure.
    pub kept: usize,
    /// How many attempts ran.
    pub attempts: usize,
    /// Size of the kept attempt in bytes.
    pub bytes: usize,
    /// Measured aggregate PSNR of the kept attempt (dB); `None` when the
    /// attempt reported only its size.
    pub psnr: Option<f64>,
}

/// Why a session produced no archive.
#[derive(Clone, Debug, PartialEq)]
pub enum TargetError<E> {
    /// Planning failed: malformed inputs, a floor above what the tightest
    /// bounds deliver, a budget below the smallest archive.
    Plan(PlanError),
    /// No attempt met the target.
    Missed {
        /// What was asked for.
        target: Target,
        /// The closest any attempt came: its measured PSNR in dB for a
        /// floor, its size in bytes for a ceiling.
        best: f64,
        /// How many attempts ran.
        attempts: usize,
    },
    /// The caller's `attempt` closure failed; its error, unchanged.
    Attempt(E),
}

impl<E: std::fmt::Display> std::fmt::Display for TargetError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetError::Plan(e) => e.fmt(f),
            TargetError::Attempt(e) => e.fmt(f),
            TargetError::Missed { target: Target::PsnrFloor(t), best, attempts } => write!(
                f,
                "measured {best:.2} dB at best after {attempts} attempt(s), under the PSNR \
                 floor of {t} dB"
            ),
            TargetError::Missed { target: Target::ByteCeiling(b), best, attempts } => write!(
                f,
                "archive is {best} B at best after {attempts} attempt(s), over the size \
                 ceiling of {b} B"
            ),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for TargetError<E> {}

/// One ratio-quality model per chunk of a field, ready to be driven to a
/// [`Target`].
#[derive(Clone, Debug)]
pub struct TargetSession {
    models: Vec<RqModel>,
    sizes: Vec<usize>,
    value_range: f64,
    predictor: PredictorKind,
}

impl TargetSession {
    /// Fit one deterministic model ([`RqModel::build_strided`]: strided
    /// sampling, no RNG, so plans and bytes are reproducible) per slab and
    /// track the value range of them all. `slabs` must be the partition
    /// the attempts will encode — one slab per chunk, in order. A source
    /// error ends the pass and is returned unchanged.
    pub fn fit<T: Scalar, A: Borrow<NdArray<T>>>(
        slabs: impl IntoIterator<Item = std::io::Result<A>>,
        predictor: PredictorKind,
    ) -> std::io::Result<Self> {
        let (mut models, mut sizes) = (Vec::new(), Vec::new());
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for slab in slabs {
            let slab = slab?;
            let (data, shape) = (slab.borrow().as_slice(), slab.borrow().shape());
            for v in data.iter().map(|v| v.to_f64()).filter(|v| !v.is_nan()) {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            models.push(RqModel::build_strided(data, shape, predictor, SAMPLES_PER_CHUNK));
            sizes.push(data.len());
        }
        // No finite value at all: a range the planners refuse by name.
        let value_range = if lo <= hi { hi - lo } else { f64::NAN };
        Ok(TargetSession { models, sizes, value_range, predictor })
    }

    /// The per-chunk models, in chunk order.
    pub fn models(&self) -> &[RqModel] {
        &self.models
    }

    /// Element count per chunk.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Value range (max − min, NaNs ignored) over every chunk.
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Drive the field to `target` under the module's one policy:
    /// `attempt(k, ebs)` must write attempt `k` (0-based) with one bound
    /// per chunk and report what came out; the session decides whether to
    /// try again and which attempt to keep. The closure is called at most
    /// 3 times; whatever it wrote under an index other than
    /// [`TargetOutcome::kept`] — or at all, on `Err` — is the caller's to
    /// discard.
    ///
    /// # Panics
    /// Panics if an attempt at a [`Target::PsnrFloor`] does not report
    /// `sigma2` and `bits` for every chunk.
    pub fn run<E>(
        &self,
        target: Target,
        mut attempt: impl FnMut(usize, &[f64]) -> Result<Measured, E>,
    ) -> Result<TargetOutcome, TargetError<E>> {
        let (models, sizes, range) = (&self.models[..], &self.sizes[..], self.value_range);
        let total: f64 = sizes.iter().map(|&s| s as f64).sum();
        let plan_for = |aim: f64, correction: Option<&PlanCorrection>| match target {
            Target::PsnrFloor(_) => {
                optimize_partitions_corrected(models, sizes, range, aim, GRID_POINTS, correction)
            }
            Target::ByteCeiling(_) => plan_budget(models, sizes, range, aim as usize, GRID_POINTS),
        };
        // What the next plan aims at: dB for a floor, bytes for a ceiling.
        let mut aim = match target {
            Target::PsnrFloor(t) => t + first_margin_db(self.predictor),
            Target::ByteCeiling(b) => b as f64,
        };
        let mut correction = None;
        let mut kept: Option<TargetOutcome> = None;
        let mut best = f64::NAN;
        let mut attempts = 0;
        for k in 0..MAX_ATTEMPTS {
            let plan = plan_for(aim, correction.as_ref()).map_err(TargetError::Plan)?;
            let m = attempt(k, &plan.ebs).map_err(TargetError::Attempt)?;
            attempts = k + 1;
            let psnr = (m.sigma2.len() == sizes.len()).then(|| {
                let sq: f64 = m.sigma2.iter().zip(sizes).map(|(s2, &n)| s2 * n as f64).sum();
                crate::quality::psnr_model(range, sq / total)
            });
            // `met`: the attempt honors the target. `settled`: it does,
            // closely enough that another compression is not worth it.
            let (met, settled);
            match target {
                Target::PsnrFloor(t) => {
                    let p = psnr.expect("a PSNR-floor attempt reports sigma2 for every chunk");
                    best = best.max(p);
                    met = p >= t;
                    settled = met && p <= t + PSNR_BAND_DB;
                    aim = t + PSNR_REAIM_DB;
                    correction =
                        Some(PlanCorrection::from_measured(models, &plan.ebs, &m.sigma2, &m.bits));
                }
                Target::ByteCeiling(b) => {
                    best = best.min(m.bytes as f64);
                    met = m.bytes <= b;
                    settled = met;
                    aim = (aim / (m.bytes as f64 / b as f64)).floor().max(1.0);
                }
            }
            if met && kept.as_ref().is_none_or(|smallest| m.bytes <= smallest.bytes) {
                kept = Some(TargetOutcome { plan, kept: k, attempts, bytes: m.bytes, psnr });
            }
            if settled {
                break;
            }
        }
        match kept {
            Some(kept) => Ok(TargetOutcome { attempts, ..kept }),
            None => Err(TargetError::Missed { target, best, attempts }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::insitu::optimize_partitions;
    use super::*;
    use rq_compress::{compress, ArchiveWriter, CompressorConfig};
    use rq_grid::Shape;
    use rq_quant::ErrorBoundMode;

    /// Three 24 × 32 slabs of one field, quiet to noisy.
    fn slabs() -> Vec<NdArray<f32>> {
        let mut state = 0x7A56u64;
        (0..3)
            .map(|part| {
                let amp = 0.02 * 6f64.powi(part);
                NdArray::<f32>::from_fn(Shape::d2(24, 32), |ix| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (((part * 24 + ix[0] as i32) as f64 * 0.1).sin() * 3.0 + noise * amp) as f32
                })
            })
            .collect()
    }

    fn session(predictor: PredictorKind) -> TargetSession {
        TargetSession::fit(slabs().iter().map(Ok), predictor).unwrap()
    }

    /// Run `target` against canned attempts — `(aggregate PSNR in dB,
    /// archive bytes)` each, the PSNR spread evenly over the chunks — and
    /// return the outcome with the bounds every attempt was handed.
    /// Running past the script is a failure.
    fn scripted(
        s: &TargetSession,
        target: Target,
        script: &[(f64, usize)],
    ) -> (Result<TargetOutcome, TargetError<String>>, Vec<Vec<f64>>) {
        let mut handed = Vec::new();
        let result = s.run(target, |k, ebs| {
            assert_eq!(k, handed.len(), "attempts are numbered in order");
            handed.push(ebs.to_vec());
            let &(psnr, bytes) = script.get(k).expect("the session ran past the script");
            let sigma2 = crate::quality::sigma2_for_psnr(s.value_range(), psnr);
            let n = s.sizes().len();
            Ok(Measured { bytes, sigma2: vec![sigma2; n], bits: vec![2.0; n] })
        });
        (result, handed)
    }

    const T: f64 = 60.0;

    #[test]
    fn first_attempt_in_band_is_final() {
        let s = session(PredictorKind::Lorenzo);
        for psnr in [T, T + 0.4, T + PSNR_BAND_DB] {
            let (out, handed) = scripted(&s, Target::PsnrFloor(T), &[(psnr, 900)]);
            let out = out.unwrap();
            assert_eq!((out.kept, out.attempts, out.bytes), (0, 1, 900), "{psnr} dB");
            assert!((out.psnr.unwrap() - psnr).abs() < 1e-9);
            assert_eq!(out.plan.ebs, handed[0]);
        }
    }

    #[test]
    fn first_attempt_is_planned_uncorrected_above_the_floor_by_the_predictor_margin() {
        for (predictor, margin) in
            [(PredictorKind::Lorenzo, 1.5), (PredictorKind::Interpolation, 2.5)]
        {
            let s = session(predictor);
            let (_, handed) = scripted(&s, Target::PsnrFloor(T), &[(T + 0.1, 900)]);
            let plan = optimize_partitions(s.models(), s.sizes(), s.value_range(), T + margin, 32)
                .unwrap();
            assert_eq!(handed[0], plan.ebs, "{predictor:?}");
        }
    }

    #[test]
    fn overshoot_is_loosened_and_the_smaller_attempt_that_meets_the_floor_is_kept() {
        let s = session(PredictorKind::Lorenzo);
        // Just outside the band: a corrected attempt at T + 0.35 follows.
        let first = (T + PSNR_BAND_DB + 0.01, 1000);
        let (out, handed) = scripted(&s, Target::PsnrFloor(T), &[first, (T + 0.3, 800)]);
        let out = out.unwrap();
        assert_eq!((out.kept, out.attempts, out.bytes), (1, 2, 800));
        let n = s.sizes().len();
        let sigma2 = vec![crate::quality::sigma2_for_psnr(s.value_range(), first.0); n];
        let corr = PlanCorrection::from_measured(s.models(), &handed[0], &sigma2, &vec![2.0; n]);
        let replanned = optimize_partitions_corrected(
            s.models(),
            s.sizes(),
            s.value_range(),
            T + 0.35,
            32,
            Some(&corr),
        )
        .unwrap();
        assert_eq!(handed[1], replanned.ebs, "re-aim is T + 0.35 under the latest correction");
        assert_eq!(out.plan.ebs, handed[1]);

        // An equally large loosened attempt still wins; a larger one does not.
        let (out, _) = scripted(&s, Target::PsnrFloor(T), &[first, (T + 0.3, 1000)]);
        assert_eq!(out.unwrap().kept, 1);
        let (out, _) = scripted(&s, Target::PsnrFloor(T), &[first, (T + 0.3, 1001)]);
        let out = out.unwrap();
        assert_eq!((out.kept, out.attempts, out.bytes), (0, 2, 1000));
    }

    #[test]
    fn loosening_that_undershoots_keeps_the_first_attempt() {
        let s = session(PredictorKind::Lorenzo);
        let script = [(T + 3.0, 1000), (T - 0.2, 700), (T - 0.01, 720)];
        let (out, handed) = scripted(&s, Target::PsnrFloor(T), &script);
        let out = out.unwrap();
        assert_eq!((out.kept, out.attempts, out.bytes), (0, 3, 1000));
        assert_eq!(out.plan.ebs, handed[0]);
        assert!((out.psnr.unwrap() - (T + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn miss_miss_hit_keeps_the_third_attempt() {
        let s = session(PredictorKind::Lorenzo);
        let script = [(T - 2.0, 500), (T - 0.5, 600), (T + 1.9, 700)];
        let (out, handed) = scripted(&s, Target::PsnrFloor(T), &script);
        let out = out.unwrap();
        // The third attempt overshot the band, but the cap is three.
        assert_eq!((out.kept, out.attempts, out.bytes), (2, 3, 700));
        assert_eq!(handed.len(), 3);
    }

    #[test]
    fn three_misses_are_a_typed_error_naming_the_best() {
        let s = session(PredictorKind::Lorenzo);
        let script = [(T - 2.0, 500), (T - 0.25, 600), (T - 0.5, 700)];
        let (out, handed) = scripted(&s, Target::PsnrFloor(T), &script);
        assert_eq!(handed.len(), 3, "never more than three attempts");
        let err = out.unwrap_err();
        assert_eq!(
            err.to_string(),
            "measured 59.75 dB at best after 3 attempt(s), under the PSNR floor of 60 dB"
        );
        match err {
            TargetError::Missed { target, best, attempts } => {
                assert_eq!(target, Target::PsnrFloor(T));
                assert!((best - (T - 0.25)).abs() < 1e-9, "best {best}");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected Missed, got {other:?}"),
        }
    }

    #[test]
    fn ceiling_fits_overflows_and_misses() {
        let s = session(PredictorKind::Lorenzo);
        let n: usize = s.sizes().iter().sum();
        let b = n / 2; // 4 bits/value
        let plan_at = |bytes| plan_budget(s.models(), s.sizes(), s.value_range(), bytes, 32);
        let attempt_sizes = |script: &[usize]| {
            let script: Vec<(f64, usize)> = script.iter().map(|&bytes| (0.0, bytes)).collect();
            scripted(&s, Target::ByteCeiling(b), &script)
        };

        let (out, handed) = attempt_sizes(&[b]);
        let out = out.unwrap();
        assert_eq!((out.kept, out.attempts, out.bytes), (0, 1, b));
        assert_eq!(handed[0], plan_at(b).unwrap().ebs, "attempt 1 plans for the ceiling itself");

        // Overflow by 1/8: re-planned for ⌊B / overshoot⌋, and again from there.
        let over = b + b / 8;
        let (out, handed) = attempt_sizes(&[over, over, b - 1]);
        let out = out.unwrap();
        assert_eq!((out.kept, out.attempts, out.bytes), (2, 3, b - 1));
        let lowered = (b as f64 / (over as f64 / b as f64)).floor();
        assert_eq!(handed[1], plan_at(lowered as usize).unwrap().ebs);
        let lowered = (lowered / (over as f64 / b as f64)).floor();
        assert_eq!(handed[2], plan_at(lowered as usize).unwrap().ebs);

        let (out, handed) = attempt_sizes(&[over + 9, b + 1, over]);
        assert_eq!(handed.len(), 3, "never more than three attempts");
        let err = out.unwrap_err();
        assert!(err.to_string().ends_with("over the size ceiling of 1152 B"), "{err}");
        assert_eq!(
            err,
            TargetError::Missed {
                target: Target::ByteCeiling(b),
                best: (b + 1) as f64,
                attempts: 3
            }
        );
    }

    #[test]
    fn plan_and_attempt_errors_pass_through() {
        let s = session(PredictorKind::Lorenzo);
        let never =
            |_: usize, _: &[f64]| -> Result<Measured, String> { panic!("nothing to attempt") };
        assert!(matches!(
            s.run(Target::PsnrFloor(100_000.0), never),
            Err(TargetError::Plan(PlanError::UnreachableTarget { .. }))
        ));
        assert!(matches!(
            s.run(Target::ByteCeiling(8), never),
            Err(TargetError::Plan(PlanError::BudgetTooSmall { .. }))
        ));
        assert!(matches!(
            s.run(Target::ByteCeiling(0), never),
            Err(TargetError::Plan(PlanError::InvalidTarget(_)))
        ));
        let mut calls = 0;
        let out = s.run(Target::PsnrFloor(T), |_, _| {
            calls += 1;
            Err::<Measured, _>("disk full")
        });
        assert_eq!(out.unwrap_err(), TargetError::Attempt("disk full"));
        assert_eq!(calls, 1);
        // A field with no finite value has no range to plan against.
        let nan = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| f32::NAN);
        let s = TargetSession::fit([Ok(&nan)], PredictorKind::Lorenzo).unwrap();
        assert!(matches!(
            s.run(Target::PsnrFloor(T), never),
            Err(TargetError::Plan(PlanError::InvalidTarget(_)))
        ));
    }

    #[test]
    fn fit_passes_a_source_error_through() {
        let parts = slabs();
        let source = [Ok(&parts[0]), Err(std::io::Error::other("short read")), Ok(&parts[1])];
        let err = TargetSession::fit(source, PredictorKind::Lorenzo).unwrap_err();
        assert_eq!(err.to_string(), "short read");
    }

    #[test]
    fn measure_archive_agrees_with_a_full_decode() {
        let parts = slabs();
        let field = NdArray::from_vec(
            Shape::d2(72, 32),
            parts.iter().flat_map(|p| p.as_slice().iter().copied()).collect(),
        );
        let cfg =
            CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0)).chunked(24);
        let ebs = vec![1e-3, 5e-3, 2e-2];
        let mut w =
            ArchiveWriter::<f32, _>::create_planned(Vec::new(), field.shape(), &cfg, ebs).unwrap();
        w.write_slab(&field).unwrap();
        let bytes = w.finalize().unwrap().sink;
        let mut reader = ArchiveReader::open(std::io::Cursor::new(&bytes[..])).unwrap();
        let m = measure_archive(&mut reader, bytes.len(), parts.iter().map(Ok)).unwrap();
        assert_eq!(m.bytes, bytes.len());
        let table = rq_compress::chunk_table(&bytes).unwrap();
        for (bits, e) in m.bits.iter().zip(&table.entries) {
            assert_eq!(*bits, e.len as f64 * 8.0 / (24.0 * 32.0));
        }
        let back = rq_compress::decompress::<f32>(&bytes).unwrap();
        let mse = m.sigma2.iter().sum::<f64>() / 3.0;
        let psnr = crate::quality::psnr_model(field.value_range(), mse);
        assert!((psnr - rq_analysis::psnr(&field, &back)).abs() < 1e-9, "{psnr}");
        // Too few originals is an error, not a short measurement.
        assert!(measure_archive(&mut reader, bytes.len(), parts[..2].iter().map(Ok)).is_err());
    }

    /// §IV-B on one partition with real compression: every budget is met,
    /// without wasting it, in at most two attempts on this field.
    #[test]
    fn one_partition_budgets_fit_with_real_compression() {
        let mut state = 0x5EEDu64;
        let f = NdArray::<f32>::from_fn(Shape::d2(128, 128), |ix| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            ((ix[0] as f64 * 0.15).sin() * 4.0 + noise * 0.5) as f32
        });
        for (predictor, rates) in [
            (PredictorKind::Lorenzo, &[2.2, 4.0][..]),
            (PredictorKind::Interpolation, &[1.5, 2.0, 3.0, 6.0]),
        ] {
            let s = TargetSession::fit([Ok(&f)], predictor).unwrap();
            let cfg = CompressorConfig::new(predictor, ErrorBoundMode::Abs(1.0));
            for &bits in rates {
                let budget = (f.len() as f64 * bits / 8.0) as usize;
                let out = s
                    .run(Target::ByteCeiling(budget), |_, ebs| {
                        assert_eq!(ebs.len(), 1);
                        compress(&f, &cfg.with_bound(ErrorBoundMode::Abs(ebs[0])))
                            .map(|out| Measured::size_only(out.bytes.len()))
                    })
                    .unwrap();
                let utilization = out.bytes as f64 / budget as f64;
                assert!(out.bytes <= budget, "{predictor:?} {bits} bits/value: {utilization}");
                assert!(
                    utilization > 0.3,
                    "{predictor:?} {bits}: wastes the budget: {utilization}"
                );
                assert!(out.attempts <= 2, "{predictor:?} {bits}: {} attempts", out.attempts);
                assert_eq!(out.psnr, None);
            }
        }
    }
}
