//! Quality-targeted compression ablation: planned per-chunk bounds
//! (the `rqm compress --target-psnr` pipeline) versus
//! single-global-bound baselines at the same measured PSNR floor, on a
//! mixed RTM field (early quiet snapshots, late dense ones, stacked along
//! axis 0).
//!
//! What the model-driven pipeline is for — and what this bench gates:
//!
//! * **No trial-and-error.** The floor is met in at most **2**
//!   compression passes (one planned shot from the sampled models plus at
//!   most one measured-feedback round). The oracle baseline below needs
//!   ~18 full compress+decompress trials to locate its bound.
//! * **The floor holds.** Measured PSNR ≥ T − 0.5 dB.
//! * **The feedback round pays.** The corrected second round never
//!   produces a larger archive than the margin-only first shot.
//! * **Near-oracle size.** The planned archive stays within a small
//!   factor of the *oracle* single bound (the smallest global-bound
//!   archive meeting the floor, found by exhaustive measured bisection).
//!
//! Honest reproduction note: on this repository's synthetic wavefields
//! the paper's §IV-C claim of *beating* the best single bound via
//! fine-grained per-partition bounds does not materialize in measured
//! terms — `fig12_insitu` documents the same (its measured equal-quality
//! gain is negative while the model-space gain is positive). The
//! measured rate-distortion slopes of noise-like chunks are equal at a
//! common bound, which makes the uniform assignment near-optimal; the
//! paper's gains rely on per-partition knees that the Lorenzo feedback
//! of this codebase largely erases. What survives reproduction — and
//! what this bench asserts — is the headline §IV-A workflow: state a
//! quality target, get a floor-respecting archive in one or two shots.
//!
//! ```sh
//! cargo run --release -p rq-bench --bin target_psnr
//! ```

use rq_analysis::psnr;
use rq_bench::{f, Table};
use rq_compress::{
    chunk_table, decompress, resolved_chunk_rows, ArchiveWriter, CodecChoice, CompressorConfig,
};
use rq_core::usecases::{
    optimize_partitions, optimize_partitions_corrected, uniform_eb_for_target, PlanCorrection,
};
use rq_core::RqModel;
use rq_datagen::RtmSimulator;
use rq_grid::{NdArray, Shape};
use rq_predict::PredictorKind;
use rq_quant::ErrorBoundMode;

/// Planning safety margin (dB) — the CLI's Lorenzo-family value.
const PLAN_MARGIN_DB: f64 = 1.5;

/// Acceptance slack below the floor.
const FLOOR_SLACK_DB: f64 = 0.5;

/// Feedback round aims this far above the floor.
const AIM_GUARD_DB: f64 = 0.3;

/// Size ceiling relative to the 18-trial oracle single bound (a
/// regression tripwire on the planner's efficiency, with headroom for the
/// guard band above the floor that the oracle does not pay).
const ORACLE_SIZE_FACTOR: f64 = 1.25;

fn main() {
    println!("# Quality-targeted compression — planned per-chunk bounds vs single-bound baselines\n");
    let (side, steps): (usize, Vec<usize>) = if rq_bench::quick() {
        (24, vec![12, 30, 60, 90, 150, 240])
    } else {
        (32, vec![12, 30, 60, 90, 120, 150, 200, 240])
    };
    let mut sim = RtmSimulator::new([side, side, side]);
    let mut data = Vec::new();
    for &s in &steps {
        data.extend_from_slice(sim.snapshot_at(s).as_slice());
    }
    let n_chunks = steps.len();
    let field = NdArray::from_vec(Shape::d3(n_chunks * side, side, side), data);
    let target = 60.0;
    let floor = target - FLOOR_SLACK_DB;
    println!(
        "field: {:?} ({} RTM snapshots of {side}³, steps {steps:?})\nPSNR target {target} dB, floor {floor} dB\n",
        field.shape(),
        n_chunks
    );

    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1.0))
        .chunked(side)
        .with_codec(CodecChoice::Auto);
    assert_eq!(resolved_chunk_rows(&cfg, field.shape()), side);
    let row_elems = side * side;

    // The streaming pre-pass: deterministic per-chunk models.
    let mut models = Vec::new();
    let mut sizes = Vec::new();
    for c in 0..n_chunks {
        let lo = c * side * row_elems;
        let slab = &field.as_slice()[lo..lo + side * row_elems];
        models.push(RqModel::build_strided(slab, Shape::d3(side, side, side), cfg.predictor, 4096));
        sizes.push(slab.len());
    }
    let range = field.value_range();

    // One planned compression pass: archive bytes, measured PSNR, and the
    // per-chunk measured/modeled correction factors.
    let mut passes = 0usize;
    let mut planned_pass = |ebs: &[f64]| -> (Vec<u8>, f64, PlanCorrection) {
        passes += 1;
        let mut w = ArchiveWriter::<f32, Vec<u8>>::create_planned(
            Vec::new(),
            field.shape(),
            &cfg,
            ebs.to_vec(),
        )
        .unwrap();
        w.write_slab(&field).unwrap();
        let bytes = w.finalize().unwrap().sink;
        let back = decompress::<f32>(&bytes).unwrap();
        let table = chunk_table(&bytes).unwrap();
        let mut measured_sigma2 = Vec::new();
        let mut measured_bits = Vec::new();
        for entry in &table.entries {
            let lo = entry.start_row * row_elems;
            let hi = (entry.start_row + entry.rows) * row_elems;
            let sq: f64 = field.as_slice()[lo..hi]
                .iter()
                .zip(&back.as_slice()[lo..hi])
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum();
            measured_sigma2.push(sq / (hi - lo) as f64);
            measured_bits.push(entry.len as f64 * 8.0 / (hi - lo) as f64);
        }
        let corr = PlanCorrection::from_measured(&models, ebs, &measured_sigma2, &measured_bits);
        (bytes, psnr(&field, &back), corr)
    };

    // Round 1: margin-only plan. Round 2: measured-feedback correction
    // (shared `PlanCorrection::from_measured`) aiming just above the
    // floor — the `rqm compress --target-psnr` workflow, with the bench's
    // guard band stated against the acceptance floor T − 0.5 rather than
    // the CLI's own floor T.
    let plan1 = optimize_partitions(&models, &sizes, range, target + PLAN_MARGIN_DB, 32)
        .expect("floor reachable");
    let (bytes1, psnr1, corr) = planned_pass(&plan1.ebs);
    println!("round 1 (margin-only plan): {} B, measured {psnr1:.2} dB", bytes1.len());
    // Outside the [floor, floor + 2·guard] band, one corrected round
    // re-aims just above the floor: tightening rescues a missed floor,
    // loosening hands back overshot quality.
    let (bytes2, psnr2) = if psnr1 < floor || psnr1 > floor + 2.0 * AIM_GUARD_DB {
        let plan2 = optimize_partitions_corrected(
            &models,
            &sizes,
            range,
            floor + AIM_GUARD_DB,
            32,
            Some(&corr),
        )
        .expect("floor reachable");
        let (b2, p2, _) = planned_pass(&plan2.ebs);
        println!("round 2 (measured feedback):  {} B, measured {p2:.2} dB", b2.len());
        if p2 >= floor && (psnr1 < floor || b2.len() <= bytes1.len()) {
            (b2, p2)
        } else {
            println!("round 2 did not improve on round 1; keeping round 1");
            (bytes1.clone(), psnr1)
        }
    } else {
        (bytes1.clone(), psnr1)
    };

    let mut t = Table::new(&["chunk (step)", "planned eb", "codec", "bytes"]);
    for (i, e) in chunk_table(&bytes2).unwrap().entries.iter().enumerate() {
        t.row(&[
            format!("{i} ({})", steps[i]),
            format!("{:.3e}", e.eb),
            e.codec.name().to_string(),
            e.len.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nplanned: {} B, measured {psnr2:.2} dB, {passes} compression pass(es)",
        bytes2.len()
    );

    // Baseline A: the model-driven single bound (what `rqm estimate` +
    // `--abs` gives a careful user in one shot).
    let global = |eb: f64| -> (usize, f64) {
        let out =
            rq_compress::compress(&field, &cfg.with_bound(ErrorBoundMode::Abs(eb))).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        (out.bytes.len(), psnr(&field, &back))
    };
    let (uni_eb, _) = uniform_eb_for_target(&models, &sizes, range, target + PLAN_MARGIN_DB);
    let (uni_bytes, uni_psnr) = global(uni_eb);
    println!(
        "model-driven single bound (1 trial): eb {uni_eb:.3e}, {uni_bytes} B, {uni_psnr:.2} dB{}",
        if uni_psnr < floor { "  ← misses the floor" } else { "" }
    );

    // Baseline B: the oracle single bound — exhaustive measured bisection
    // to the smallest archive meeting the floor (the trial-and-error loop
    // the model replaces).
    let mut oracle_trials = 0usize;
    let (mut lo_eb, mut hi_eb) = (range * 1e-8, range * 0.3);
    for _ in 0..18 {
        oracle_trials += 1;
        let mid = ((lo_eb.ln() + hi_eb.ln()) * 0.5).exp();
        if global(mid).1 >= floor {
            lo_eb = mid;
        } else {
            hi_eb = mid;
        }
    }
    let (oracle_bytes, oracle_psnr) = global(lo_eb);
    println!(
        "oracle single bound ({oracle_trials} trials): eb {lo_eb:.3e}, {oracle_bytes} B, {oracle_psnr:.2} dB"
    );
    println!(
        "\nplanned / oracle size: {} ({:+.1}%), using {passes} passes instead of {oracle_trials} trials",
        f(bytes2.len() as f64 / oracle_bytes as f64, 3),
        (bytes2.len() as f64 / oracle_bytes as f64 - 1.0) * 100.0
    );

    // The CI gates (see the module docs for what each one means).
    assert!(
        psnr2 >= floor,
        "planned archive misses the floor: {psnr2:.2} dB < {floor:.2} dB"
    );
    assert!(passes <= 2, "quality-targeted mode took {passes} compression passes");
    // The loosening direction must never grow the archive; the tightening
    // direction (round 1 below the floor) necessarily does.
    assert!(
        psnr1 < floor || bytes2.len() <= bytes1.len(),
        "feedback round grew the archive: {} B > {} B",
        bytes2.len(),
        bytes1.len()
    );
    assert!(oracle_psnr >= floor, "oracle bisection failed to meet the floor");
    assert!(
        (bytes2.len() as f64) <= oracle_bytes as f64 * ORACLE_SIZE_FACTOR,
        "planned archive ({} B) exceeds {ORACLE_SIZE_FACTOR}x the oracle single bound ({} B)",
        bytes2.len(),
        oracle_bytes
    );
    println!("\nOK: floor met in ≤ 2 passes, size within {ORACLE_SIZE_FACTOR}x of the {oracle_trials}-trial oracle.");
}
