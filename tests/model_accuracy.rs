//! End-to-end model-accuracy tests: the paper's central claim (Table II)
//! is that the model predicts measured ratio and quality from a 1 %
//! sample. These tests enforce that property on synthetic fields with
//! loose-but-meaningful tolerances (the paper reports ~93 % average
//! accuracy; we gate at roughly 75–80 % so statistical wobble on small
//! debug-size fields cannot flake), and on the whole Table I registry as
//! Table II itself.

use rqm::prelude::*;

/// The paper's accuracy statistic (Eq. 20) for a set of
/// (measured, estimated) pairs.
fn eq20_error(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(m, e)| m / e - 1.0).collect();
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let var =
        ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / ratios.len() as f64;
    1.0 - 1.0 / (1.0 + var.sqrt())
}

#[test]
fn eq20_error_measures_scatter_not_bias() {
    assert!(eq20_error(&[(1.0, 1.0), (2.0, 2.0), (5.0, 5.0)]) < 1e-12);
    // A constant bias is not an error: Eq. 20 is the spread of the ratio.
    assert!(eq20_error(&[(1.1, 1.0), (2.2, 2.0), (5.5, 5.0)]) < 1e-12);
    let tight = eq20_error(&[(1.0, 1.02), (1.0, 0.98)]);
    let loose = eq20_error(&[(1.0, 1.5), (1.0, 0.6)]);
    assert!(loose > tight);
}

/// Table II: the 17 fields of the Table I registry (1-D → Lorenzo, else
/// interpolation), a 1 % model, and the Eq. 20 error of each estimate
/// over four bounds log-spaced 1e-5 … 1e-2 × range. The six column
/// averages are held under ceilings ~25 % above what this code measures
/// (with six bounds it measures 0.14 / 5.42 / 9.63 / 9.68 / 1.06 / 0.04 %;
/// four keep a debug build under a minute). `-- --nocapture` prints the
/// table.
///
/// The sampling column is the model's own 1 % sample against the exhaustive
/// one. A uniform stride reaches the few coarse-level interpolation targets,
/// whose errors are the largest, by luck, so the column reads higher than
/// under the level-aware sampler it replaced (0.135 % then, ceiling
/// 0.170 %); PR 21 re-set this one ceiling for the strided sampler, 25 %
/// above what it measures like the others.
///
/// The Huffman and Huffman+LL columns came down when the model's Eq. 1 got
/// the saturation corrections the scheduler's estimate had kept to itself
/// (PR 22: 5.76 → 4.09 % and 10.16 → 8.42 %, on the fields whose tightest
/// bound spreads the sample over as many bins as it has points); their
/// ceilings followed, 7.2 → 5.1 % and 12.3 → 10.5 %. Ceilings only go down.
#[test]
fn table2_column_averages_stay_under_their_ceilings() {
    use rqm::predict::sample_prediction_errors;
    const POINTS: usize = 4;
    // (column, ceiling, measured here, paper's Table II average)
    let columns = [
        ("sample", 0.0023, 0.00183, 0.0012),
        ("Huffman", 0.051, 0.0409, 0.0516),
        ("lossless", 0.120, 0.0961, 0.0621),
        ("Huffman+LL", 0.105, 0.0842, 0.0653),
        ("PSNR", 0.0125, 0.0099, 0.0272),
        ("SSIM", 0.00062, 0.00049, 0.0559),
    ];
    let mut sums = [0.0f64; 6];
    let mut counts = [0usize; 6];
    // (measured bits/value, est/measured − 1 of [`bit_rate`, `bit_rate_huffman`])
    let mut rate_errors: Vec<(f64, [f64; 2])> = Vec::new();
    for spec in rqm::datagen::all_datasets().iter().flat_map(|ds| &ds.fields) {
        let field = spec.generate();
        let ndim = field.shape().ndim();
        let kind = if ndim == 1 { PredictorKind::Lorenzo } else { PredictorKind::Interpolation };
        let range = field.value_range();
        // Sampling error: |sampled std − full std| / range (§V-B1).
        let model = RqModel::build(&field, kind, 0.01, 2);
        let full =
            sample_prediction_errors(field.as_slice(), field.shape(), kind, field.len()).std();
        let sampled = model.sample().std();
        let (mut huff, mut lossless, mut overall, mut quality, mut ssim) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..POINTS {
            let eb = range * 10f64.powf(-5.0 + 3.0 * i as f64 / (POINTS - 1) as f64);
            let est = model.estimate(eb);
            let cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(eb));
            let (out, rep) = compress_with_report(&field, &cfg).unwrap();
            huff.push((rep.huffman_bit_rate(), est.bit_rate_huffman));
            // The extra ratio delivered by the optional lossless stage.
            lossless.push((
                rep.huffman_bytes as f64 / rep.encoded_bytes.max(1) as f64,
                (est.bit_rate_huffman / est.bit_rate).max(1.0),
            ));
            overall.push((out.bit_rate(), est.bit_rate));
            rate_errors.push((
                out.bit_rate(),
                [
                    est.bit_rate / out.bit_rate() - 1.0,
                    est.bit_rate_huffman / rep.huffman_bit_rate() - 1.0,
                ],
            ));
            let back = decompress::<f32>(&out.bytes).unwrap();
            quality.push((psnr(&field, &back), est.psnr));
            if ndim >= 2 {
                ssim.push((global_ssim(&field, &back), est.ssim));
            }
        }
        let row = [
            Some((sampled - full).abs() / range.max(f64::MIN_POSITIVE)),
            Some(eq20_error(&huff)),
            Some(eq20_error(&lossless)),
            Some(eq20_error(&overall)),
            Some(eq20_error(&quality)),
            (!ssim.is_empty()).then(|| eq20_error(&ssim)),
        ];
        let cells = row.map(|e| e.map_or("-".into(), |e| format!("{:.2}", e * 100.0)));
        println!("{:<22} {} (% per column)", spec.label(), cells.join(" "));
        for (i, err) in row.into_iter().enumerate() {
            if let Some(err) = err {
                sums[i] += err;
                counts[i] += 1;
            }
        }
    }
    for (i, (column, ceiling, measured, paper)) in columns.into_iter().enumerate() {
        let avg = sums[i] / counts[i] as f64;
        println!("average {column} error: {:.3} %", avg * 100.0);
        assert!(
            avg <= ceiling,
            "Table II {column} error averages {:.3} % over {} fields: ceiling {:.3} %, \
             measured {:.3} % when the ceiling was set, paper {:.2} %",
            avg * 100.0,
            counts[i],
            ceiling * 100.0,
            measured * 100.0,
            paper * 100.0
        );
    }

    // The accuracy map: Eq. 20 is the scatter of measured/estimated and is
    // blind to a constant bias (`eq20_error_measures_scatter_not_bias`), so
    // the same 68 runs are also read as plain relative errors of the two
    // rates, by measured bits/value. Ceilings as above: ~25 % over what
    // this code measures, [`bit_rate`, `bit_rate_huffman`] per bin.
    // It measures 92.7 / 7.5, 17.6 / 9.2, 3.1 / 2.9, 4.5 / 4.5 and 2.4 /
    // 2.4 %: under 2 bits/value `bit_rate` is the lossless model's (ROADMAP
    // item 3); at 8 and over it read 8.1 / 8.0 %, all of it bias, before
    // the model had the saturation corrections (PR 22).
    let bins = [
        ("< 1", 0.0, 1.0, [1.16, 0.094]),
        ("1–2", 1.0, 2.0, [0.22, 0.115]),
        ("2–4", 2.0, 4.0, [0.039, 0.036]),
        ("4–8", 4.0, 8.0, [0.056, 0.056]),
        ("≥ 8", 8.0, f64::INFINITY, [0.030, 0.030]),
    ];
    println!("measured bits/value: n, bit_rate bias / |error|, bit_rate_huffman bias / |error| (%)");
    for (label, lo, hi, ceilings) in bins {
        let inside: Vec<[f64; 2]> =
            rate_errors.iter().filter(|e| lo <= e.0 && e.0 < hi).map(|e| e.1).collect();
        let n = inside.len() as f64;
        let mean = |rate: usize, of: fn(f64) -> f64| {
            inside.iter().map(|e| of(e[rate])).sum::<f64>() * 100.0 / n
        };
        let (bias, abs) = ([0, 1].map(|r| mean(r, |e| e)), [0, 1].map(|r| mean(r, f64::abs)));
        println!(
            "{label:>4}: {n:>2} {:>6.1} / {:>5.1} {:>6.1} / {:>5.1}",
            bias[0], abs[0], bias[1], abs[1]
        );
        assert!(
            abs[0] <= ceilings[0] * 100.0 && abs[1] <= ceilings[1] * 100.0,
            "at {label} bits/value the rates are off by {:.1} % / {:.1} % on average: ceilings \
             {:.1} % / {:.1} %",
            abs[0],
            abs[1],
            ceilings[0] * 100.0,
            ceilings[1] * 100.0
        );
    }
}

fn test_field() -> NdArray<f32> {
    // Smooth structure + genuine noise: representative of scientific data.
    let mut state = 0x1CDEu64;
    NdArray::from_fn(Shape::d3(48, 48, 48), |ix| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        ((ix[0] as f64 * 0.13).sin() * 4.0
            + (ix[1] as f64 * 0.07).cos() * 2.0
            + (ix[2] as f64 * 0.19).sin()
            + noise * 0.15) as f32
    })
}

fn eb_grid(field: &NdArray<f32>) -> Vec<f64> {
    // Relative bounds 3e-6 .. 3e-2 of the range — the regime the paper's
    // Fig. 5 evaluates (bit-rates ≈ 0.2 .. 13). Beyond that the payload is
    // smaller than fixed container overheads and no model (including the
    // paper's) is meaningful.
    let r = field.value_range();
    (0..5).map(|i| r * 1e-5 * 10f64.powi(i) / 3.0).collect()
}

#[test]
fn bit_rate_estimates_track_measurements_lorenzo() {
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.02, 1);
    let mut pairs = Vec::new();
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
        let (out, _rep) = compress_with_report(&field, &cfg).unwrap();
        pairs.push((out.bit_rate(), est.bit_rate));
    }
    let err = eq20_error(&pairs);
    assert!(err < 0.25, "Eq.20 error {err:.3} too high: {pairs:?}");
}

#[test]
fn bit_rate_estimates_track_measurements_interpolation() {
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Interpolation, 0.02, 2);
    let mut pairs = Vec::new();
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        let cfg =
            CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        pairs.push((out.bit_rate(), est.bit_rate));
    }
    let err = eq20_error(&pairs);
    assert!(err < 0.25, "Eq.20 error {err:.3} too high: {pairs:?}");
}

#[test]
fn huffman_only_estimates_track_measurements() {
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.02, 3);
    let mut pairs = Vec::new();
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
            .huffman_only();
        let (_, rep) = compress_with_report(&field, &cfg).unwrap();
        pairs.push((rep.huffman_bit_rate(), est.bit_rate_huffman));
    }
    let err = eq20_error(&pairs);
    assert!(err < 0.2, "Eq.20 error {err:.3} too high: {pairs:?}");
}

#[test]
fn psnr_estimates_within_one_db_mostly() {
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.02, 4);
    let mut worst: f64 = 0.0;
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let measured = psnr(&field, &back);
        worst = worst.max((measured - est.psnr).abs());
    }
    assert!(worst < 3.0, "worst PSNR deviation {worst:.2} dB");
}

#[test]
fn ssim_estimates_track_measurements() {
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.02, 5);
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let measured = global_ssim(&field, &back);
        assert!(
            (measured - est.ssim).abs() < 0.05,
            "eb {eb:.2e}: measured SSIM {measured:.4} vs est {:.4}",
            est.ssim
        );
    }
}

#[test]
fn refined_distribution_beats_uniform_across_sweep() {
    // The Fig. 6 claim: the refined Eq. 11 distribution predicts PSNR at
    // least as well as the uniform Eq. 10 across the evaluated range
    // (aggregate |error|). At pathological bounds (eb ≳ 5% of range) both
    // diverge — the paper's Fig. 6 shows the same — so the sweep covers
    // the paper's regime.
    let field = test_field();
    let model = RqModel::build(&field, PredictorKind::Interpolation, 0.05, 6);
    let cfg = |eb| CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb));
    let mut sum_refined = 0.0;
    let mut sum_uniform = 0.0;
    let mut saw_high_p0 = false;
    for eb in eb_grid(&field) {
        let est = model.estimate(eb);
        saw_high_p0 |= est.p0 > 0.8;
        let out = compress(&field, &cfg(eb)).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        let measured = psnr(&field, &back);
        sum_refined += (measured - est.psnr).abs();
        sum_uniform += (measured - est.psnr_uniform).abs();
    }
    assert!(saw_high_p0, "sweep never reached the high-p0 regime");
    assert!(
        sum_refined <= sum_uniform + 0.3,
        "refined total {sum_refined:.2} dB vs uniform {sum_uniform:.2} dB"
    );
}

// ---------------------------------------------------------------------------
// Codec-grid PSNR accuracy and quality-targeted (planned) archives
// ---------------------------------------------------------------------------

/// Tolerances for the codec × bound grid below, stated once:
///
/// * **sz** — the model describes exactly this path, so the measured PSNR
///   must track `psnr_model` (Eq. 12) *two-sidedly* within 4 dB (the
///   paper's Fig. 6 band on hard fields, widened for debug-size grids
///   and the knee regime of half-noise fields, where the feedback
///   correction is calibrated rather than derived).
/// * **zfp / auto** — both honor the same absolute bound, but the
///   transform path usually lands *above* the modeled PSNR (bitplane
///   truncation stops strictly inside the tolerance), so the check is
///   one-sided: measured must never fall below the model's floor by more
///   than the same 4 dB.
const PSNR_TOL_DB: f64 = 4.0;

#[test]
fn measured_psnr_tracks_model_across_codecs() {
    let fields: Vec<(&str, NdArray<f32>)> = vec![
        ("noisy_waves", test_field()),
        (
            "mixed",
            rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(32, 16, 16), 16, 20.0),
        ),
    ];
    for (name, field) in &fields {
        let model = RqModel::build(field, PredictorKind::Lorenzo, 0.02, 21);
        let r = field.value_range();
        for eb in [r * 1e-4, r * 1e-3, r * 1e-2] {
            let est = model.estimate(eb);
            for codec in [CodecChoice::Sz, CodecChoice::Zfp, CodecChoice::Auto] {
                let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
                    .chunked(16)
                    .with_codec(codec);
                let out = compress(field, &cfg).unwrap();
                let back = decompress::<f32>(&out.bytes).unwrap();
                let measured = psnr(field, &back);
                assert!(
                    measured >= est.psnr - PSNR_TOL_DB,
                    "{name} {codec:?} eb {eb:.2e}: measured {measured:.2} dB below model \
                     {:.2} dB - {PSNR_TOL_DB}",
                    est.psnr
                );
                if codec == CodecChoice::Sz {
                    assert!(
                        (measured - est.psnr).abs() <= PSNR_TOL_DB,
                        "{name} sz eb {eb:.2e}: measured {measured:.2} vs model {:.2}",
                        est.psnr
                    );
                }
            }
        }
    }
}

/// The §IV-A/C acceptance loop end to end on eight RTM snapshots stacked
/// along axis 0 (early quiet, late dense) under a 59.5 dB floor, through
/// the session `rqm compress --target-psnr` runs
/// (`rq_core::usecases::TargetSession`): per-chunk strided models →
/// water-filling plan → planned adaptive archive → measured verification
/// → corrected re-plan. The only thing this test supplies is the
/// in-memory writer; every planning constant and the keep rule are the
/// session's, so the gates bind what ships.
///
/// Asserted: the floor is met (re-measured here on a full decode) within
/// two compression passes (where an exhaustive search for the best single
/// bound needs 18 trials); a loosening attempt never grows the archive;
/// the result stays within 1.25× of that 18-trial oracle, the headroom
/// paying for the guard band the oracle does not keep. Measured: attempt 1
/// misses the floor, attempt 2 delivers 59.94 dB in 26 793 B = 1.18× the
/// oracle's 22 714 B.
#[test]
fn target_psnr_planned_archive_meets_measured_floor() {
    use rqm::compress_crate::{resolved_chunk_rows, ArchiveReader, ArchiveWriter};
    use rqm::core_model::usecases::{measure_archive, Target, TargetSession};
    use rqm::grid::slab_chunks;

    let side = 32;
    let mut sim = rqm::datagen::RtmSimulator::new([side, side, side]);
    let mut data = Vec::new();
    for step in [12, 30, 60, 90, 120, 150, 200, 240] {
        data.extend_from_slice(sim.snapshot_at(step).as_slice());
    }
    let field = NdArray::from_vec(Shape::d3(8 * side, side, side), data);

    let floor = 59.5;
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
        .chunked(side)
        .with_codec(CodecChoice::Auto);
    assert_eq!(resolved_chunk_rows(&cfg, field.shape()), side);
    let slabs: Vec<NdArray<f32>> = slab_chunks(field.shape(), side)
        .iter()
        .map(|c| NdArray::from_vec(c.shape, field.as_slice()[c.offset..c.offset + c.len].to_vec()))
        .collect();
    let session = TargetSession::fit(slabs.iter().map(Ok), cfg.predictor).unwrap();
    let range = field.value_range();

    // One attempt: a planned archive in memory, measured chunk by chunk.
    let mut archives: Vec<Vec<u8>> = Vec::new();
    let mut plans: Vec<Vec<f64>> = Vec::new();
    let outcome = session
        .run(Target::PsnrFloor(floor), |_, ebs| -> Result<_, std::convert::Infallible> {
            let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
                Vec::new(),
                field.shape(),
                &cfg,
                ebs.to_vec(),
            )
            .unwrap();
            w.write_slab(&field).unwrap();
            let bytes = w.finalize().unwrap().sink;
            assert_eq!(rqm::compress_crate::peek_header(&bytes).unwrap().version, 6);
            let mut reader = ArchiveReader::open(std::io::Cursor::new(&bytes[..])).unwrap();
            let measured = measure_archive(&mut reader, bytes.len(), slabs.iter().map(Ok)).unwrap();
            archives.push(bytes);
            plans.push(ebs.to_vec());
            Ok(measured)
        })
        .unwrap();
    let passes = archives.len();
    assert_eq!(outcome.attempts, passes);
    let delivered = |bytes: &[u8]| psnr(&field, &decompress::<f32>(bytes).unwrap());
    let planned_bytes = archives[outcome.kept].len();
    assert_eq!(outcome.bytes, planned_bytes);
    let measured = delivered(&archives[outcome.kept]);
    let psnr1 = delivered(&archives[0]);
    assert!(
        measured >= floor,
        "planned archive delivers {measured:.2} dB < floor {floor:.1} dB (attempt 1 {psnr1:.2})"
    );
    assert!(
        (measured - outcome.psnr.unwrap()).abs() < 1e-6,
        "the session measured {:?} dB, a full decode {measured} dB",
        outcome.psnr
    );
    assert!(passes <= 2, "took {passes} compression passes");
    assert!(
        psnr1 < floor || planned_bytes <= archives[0].len(),
        "the loosening attempt grew the archive: {planned_bytes} B > {} B",
        archives[0].len()
    );
    let plan1 = &plans[0];
    // The plan must exploit the heterogeneity: quiet early snapshots get
    // different bounds from the dense late ones.
    assert!(
        plan1.iter().any(|&e| e != plan1[0]),
        "per-chunk plan degenerated to uniform: {plan1:?}"
    );

    // The oracle: the smallest single-bound archive meeting the floor,
    // found by measured bisection — the trial-and-error loop the model
    // replaces.
    let single_bound = |eb: f64| -> (usize, f64) {
        let out = compress(&field, &cfg.with_bound(ErrorBoundMode::Abs(eb))).unwrap();
        (out.bytes.len(), psnr(&field, &decompress::<f32>(&out.bytes).unwrap()))
    };
    let (mut lo_eb, mut hi_eb) = (range * 1e-8, range * 0.3);
    for _ in 0..18 {
        let mid = (lo_eb * hi_eb).sqrt();
        if single_bound(mid).1 >= floor {
            lo_eb = mid;
        } else {
            hi_eb = mid;
        }
    }
    let (oracle_bytes, oracle_psnr) = single_bound(lo_eb);
    assert!(oracle_psnr >= floor, "oracle bisection ended at {oracle_psnr:.2} dB");
    assert!(
        planned_bytes as f64 <= oracle_bytes as f64 * 1.25,
        "planned archive ({planned_bytes} B, {measured:.2} dB) exceeds 1.25x the oracle single \
         bound ({oracle_bytes} B, {oracle_psnr:.2} dB)"
    );
}

/// Fig. 9 as a standing test: planning a dump with the model — build it,
/// invert it for a PSNR floor — costs a fraction of the compression it
/// plans. On a noisy 64³ RTM snapshot, best of five each, against a
/// one-thread interpolation `compress` at the planned bound: the ratio is
/// ≈ 0.2 in both profiles here (it was ≈ 1.8 while every probe re-quantized
/// the sample and every build walked the traversal twice); 0.5 is the gate.
#[test]
fn model_overhead_is_a_fraction_of_compression() {
    use std::time::{Duration, Instant};
    let mut field = rqm::datagen::rtm::rtm_steps(20220509, 7, [64, 64, 64]).pop().unwrap();
    let half_width = 1e-3 * field.value_range();
    let mut state = 0x0F19_0009u64;
    for v in field.as_mut_slice() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        *v += (unit * half_width) as f32;
    }
    let timed = |f: &mut dyn FnMut()| -> Duration {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    // Plan and compress take turns, so a busy spell of the machine (the
    // other tests of this file run beside this one) slows both.
    let (mut plan, mut write) = (Duration::MAX, Duration::MAX);
    let mut eb = 0.0;
    for _ in 0..5 {
        plan = plan.min(timed(&mut || {
            let model = RqModel::build(&field, PredictorKind::Interpolation, 0.01, 9);
            eb = model.error_bound_for_psnr(80.0);
        }));
        let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb))
            .with_threads(1);
        write = write.min(timed(&mut || {
            std::hint::black_box(compress(&field, &cfg).unwrap());
        }));
    }
    let ratio = plan.as_secs_f64() / write.as_secs_f64();
    println!("plan {plan:?} / compress {write:?} = {ratio:.3} (eb {eb:e})");
    assert!(ratio <= 0.5, "model {plan:?} against {write:?} of compression: {ratio:.2}");
}

#[test]
fn model_works_on_real_catalog_field() {
    // One genuine Table I stand-in end to end (QMCPACK: small and cheap).
    let field = rqm::datagen::fields::qmcpack_einspline();
    let model = RqModel::build(&field, PredictorKind::Interpolation, 0.01, 7);
    let eb = field.value_range() * 1e-3;
    let est = model.estimate(eb);
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(eb));
    let out = compress(&field, &cfg).unwrap();
    let rel = (est.bit_rate - out.bit_rate()).abs() / out.bit_rate();
    assert!(rel < 0.3, "relative bit-rate error {rel:.3}");
}
