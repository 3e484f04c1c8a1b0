//! Use-case 3 (paper §IV-C / Fig. 12): fine-grained per-timestep error
//! bounds for an RTM snapshot series, versus one uniform bound.
//!
//! ```sh
//! cargo run --release --example insitu_rtm
//! ```
//!
//! Exits non-zero if the delivered aggregate PSNR is under the target the
//! example prints.

use rqm::core_model::usecases::uniform_eb_for_target;
use rqm::datagen::RtmSimulator;
use rqm::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Eight snapshots of the evolving wavefield: early ones are quiet,
    // late ones are dense with reflections.
    let mut sim = RtmSimulator::new([48, 48, 48]);
    let steps: Vec<usize> = (1..=8).map(|i| i * 60).collect();
    let snapshots: Vec<NdArray<f32>> =
        steps.iter().map(|&s| sim.snapshot_at(s)).collect();

    // One model per partition (timestep).
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1.0));
    let session = TargetSession::fit(snapshots.iter().map(Ok), cfg.predictor)
        .expect("the snapshots are in memory");
    let (models, sizes, value_range) = (session.models(), session.sizes(), session.value_range());
    println!("{} snapshots of {:?}, combined range {value_range:.3e}\n", steps.len(), [48, 48, 48]);

    // What the model alone says: tuned against uniform at the same target.
    let target_psnr = 70.0;
    let plan = optimize_partitions(models, sizes, value_range, target_psnr, 40)
        .expect("the PSNR floor is reachable on this series");
    let (uni_eb, uniform) = uniform_eb_for_target(models, sizes, value_range, target_psnr);

    println!("target aggregate PSNR: {target_psnr} dB");
    println!("{:>6} {:>12} {:>12}", "step", "tuned eb", "uniform eb");
    for (i, &step) in steps.iter().enumerate() {
        println!("{:>6} {:>12.3e} {:>12.3e}", step, plan.ebs[i], uni_eb);
    }
    println!(
        "\nestimated bit-rate: tuned {:.3} vs uniform {:.3} ({:+.1}% bits)",
        plan.est_bit_rate,
        uniform.est_bit_rate,
        (plan.est_bit_rate / uniform.est_bit_rate - 1.0) * 100.0
    );
    println!(
        "estimated PSNR:     tuned {:.1} dB vs uniform {:.1} dB",
        plan.est_psnr, uniform.est_psnr
    );

    // Deliver it with real compression: the session plans with a margin,
    // measures every attempt and re-plans until the floor is met.
    let result = session.run(Target::PsnrFloor(target_psnr), |_, ebs| {
        let mut measured = Measured::default();
        for (snap, &eb) in snapshots.iter().zip(ebs) {
            let out = compress(snap, &cfg.with_bound(ErrorBoundMode::Abs(eb)))
                .map_err(|e| e.to_string())?;
            let back = decompress::<f32>(&out.bytes).map_err(|e| e.to_string())?;
            measured.push_chunk(snap, &back, out.bytes.len());
        }
        Ok::<_, String>(measured)
    });
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("the {target_psnr} dB target was not delivered: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n_total: usize = sizes.iter().sum();
    let measured_psnr = outcome.psnr.expect("every attempt was measured");
    println!(
        "\nmeasured (attempt {} of {} kept): {:.3} bits/value, aggregate PSNR {:.1} dB",
        outcome.kept + 1,
        outcome.attempts,
        outcome.bytes as f64 * 8.0 / n_total as f64,
        measured_psnr
    );
    if measured_psnr < target_psnr {
        eprintln!("delivered {measured_psnr:.2} dB under the {target_psnr} dB target");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
