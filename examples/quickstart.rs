//! Quickstart: predict compression ratio and quality without compressing,
//! then verify against an actual compression run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rqm::prelude::*;

fn main() {
    // A QMCPACK-like orbital field (69×69×115, the paper's Table I extents).
    let field = rqm::datagen::fields::qmcpack_einspline();
    println!("field: {:?}, range {:.3}", field.shape(), field.value_range());

    // 1. Build the ratio-quality model: ONE 1% sampling pass.
    let model = RqModel::build(&field, PredictorKind::Lorenzo, 0.01, 42);
    println!(
        "model built in {:?} (sampled {} points)\n",
        model.build_time(),
        model.sample().errors.len()
    );

    // 2. Ask the model about any error bound — microseconds each.
    println!(
        "{:>10} | {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8}",
        "error", "est bits", "act bits", "est PSNR", "act PSNR", "est SSIM", "act SSIM"
    );
    for eb in [1e-4, 1e-3, 1e-2, 1e-1] {
        let est = model.estimate(eb);

        // 3. Verify by really compressing (this is what the model avoids).
        let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).expect("compression failed");
        let back = decompress::<f32>(&out.bytes).expect("decompression failed");
        let act_psnr = psnr(&field, &back);
        let act_ssim = global_ssim(&field, &back);

        println!(
            "{eb:>10.0e} | {:>9.3} {:>9.3} | {:>9.2} {:>9.2} | {:>8.5} {:>8.5}",
            est.bit_rate,
            out.bit_rate(),
            est.psnr,
            act_psnr,
            est.ssim,
            act_ssim
        );
    }

    // 4. Inversion: which bound hits a 16:1 ratio? A 60 dB floor?
    let eb_ratio = model.error_bound_for_ratio(16.0);
    let eb_psnr = model.error_bound_for_psnr(60.0);
    println!(
        "\nerror bound for ratio 16:1  → {eb_ratio:.3e} (est ratio {:.1})",
        model.estimate(eb_ratio).ratio
    );
    println!(
        "error bound for PSNR 60 dB → {eb_psnr:.3e} (est PSNR {:.1})",
        model.estimate(eb_psnr).psnr
    );
}
