//! Integration tests for the ZFP-style comparator codec, exercised
//! end-to-end against the model and the SZ-style compressor. A standalone
//! RQZF stream is decoded into a field of the shape its caller expects,
//! as every chunk codec decodes one.

use rqm::prelude::*;
use rqm::quant::ErrorBoundMode as EB;
use rq_zfp::{zfp_compress, zfp_decompress_into, ZfpError};

/// Decode `bytes` into a fresh field shaped like `like`.
fn zfp_decode(bytes: &[u8], like: &NdArray<f32>) -> Result<NdArray<f32>, ZfpError> {
    let mut out = NdArray::zeros(like.shape());
    zfp_decompress_into(bytes, like.shape(), out.as_mut_slice())?;
    Ok(out)
}

#[test]
fn zfp_respects_bound_on_catalog_field() {
    let field = rqm::datagen::fields::qmcpack_einspline();
    let tol = field.value_range() * 1e-4;
    let bytes = zfp_compress(&field, tol).unwrap();
    let back = zfp_decode(&bytes, &field).unwrap();
    for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
        assert!(((a - b).abs() as f64) <= tol, "|{a} - {b}| > {tol}");
    }
    let ratio = (field.len() * 4) as f64 / bytes.len() as f64;
    assert!(ratio > 2.0, "zfp ratio {ratio:.2}");
}

#[test]
fn sz_beats_zfp_on_structured_field_at_equal_bound() {
    // The literature result the model-driven selector exploits.
    let field = rqm::datagen::fields::rtm_snapshot(250);
    let eb = field.value_range() * 1e-3;
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, EB::Abs(eb));
    let sz = compress(&field, &cfg).unwrap().bytes.len();
    let zf = zfp_compress(&field, eb).unwrap().len();
    assert!(sz < zf, "sz {sz} vs zfp {zf}");
}

#[test]
fn model_guides_codec_choice() {
    // Put the pieces together: the model picks a bound for a PSNR target,
    // both codecs honor it, and the SZ-style pipeline (which the model
    // describes) lands closer to the target bit budget.
    let field = rqm::datagen::fields::miranda_vx();
    let model = RqModel::build(&field, PredictorKind::Interpolation, 0.01, 4);
    let eb = model.error_bound_for_psnr(70.0);
    let cfg = CompressorConfig::new(PredictorKind::Interpolation, EB::Abs(eb));
    let out = compress(&field, &cfg).unwrap();
    let back = decompress::<f32>(&out.bytes).unwrap();
    assert!(psnr(&field, &back) >= 68.5);
    let zf = zfp_compress(&field, eb).unwrap();
    let zback = zfp_decode(&zf, &field).unwrap();
    assert!(psnr(&field, &zback) >= 68.5, "zfp also bounded => PSNR floor holds");
}
