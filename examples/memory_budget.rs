//! Use-case 2 (paper §IV-B / Fig. 11): compress into a fixed memory
//! budget, aiming at 80 % utilization, recompressing only on overflow.
//!
//! ```sh
//! cargo run --release --example memory_budget
//! ```
//!
//! Exits non-zero if a row contradicts what the example claims: a ratio
//! up to 32× must fit its budget, and whatever is delivered must fit.

use rqm::core_model::usecases::TargetError;
use rqm::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let field = rqm::datagen::fields::miranda_vx();
    let raw = field.len() * 4;
    println!("Miranda-like turbulence field: {:?} ({} MiB raw)\n", field.shape(), raw >> 20);

    // The whole field is one partition: one model, one bound per attempt.
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, ErrorBoundMode::Abs(1.0));
    let session = TargetSession::fit([Ok(&field)], cfg.predictor).expect("the slab is in memory");

    println!("{:>12} {:>12} {:>11} {:>8}", "budget", "final bytes", "utilization", "attempts");
    let (mut refused, mut contradicted) = (0, false);
    for ratio in [8.0, 16.0, 32.0, 64.0] {
        let budget = (raw as f64 / ratio) as usize;
        let result = session.run(Target::ByteCeiling(budget), |_, ebs| {
            compress(&field, &cfg.with_bound(ErrorBoundMode::Abs(ebs[0])))
                .map(|out| Measured::size_only(out.bytes.len()))
        });
        match result {
            Ok(outcome) => {
                println!(
                    "{budget:>12} {:>12} {:>10.1}% {:>8}",
                    outcome.bytes,
                    outcome.bytes as f64 / budget as f64 * 100.0,
                    outcome.attempts
                );
                contradicted |= outcome.bytes > budget;
            }
            Err(TargetError::Attempt(e)) => panic!("compression failed: {e}"),
            // A ceiling the model cannot honor is refused, not overrun.
            Err(e) => {
                println!("{budget:>12} refused: {e}");
                refused += 1;
                contradicted |= ratio <= 32.0;
            }
        }
    }

    if refused == 0 {
        println!(
            "\nAll budgets satisfied with ≤3 compressions each — the trial-and-error\n\
             alternative would need one compression per candidate bound per budget."
        );
    } else {
        println!(
            "\n{refused} budget(s) refused with a typed error, the rest satisfied with ≤3\n\
             compressions each; no archive ever exceeds its budget."
        );
    }
    if contradicted {
        eprintln!("a row above contradicts the example's claims");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
