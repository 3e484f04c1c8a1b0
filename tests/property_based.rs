//! Cross-crate randomized tests: the error-bound invariant, recompression
//! stability and the model's ordering must hold for arbitrary fields and
//! configurations.
//!
//! These were originally `proptest` properties; the build environment has
//! no network access, so they run as deterministic seeded fuzz loops
//! instead — same invariants, fixed case counts, reproducible failures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqm::prelude::*;

/// Deterministic case generator for fuzz-style loops, backed by the
/// workspace's `rand` shim.
struct Fuzz(StdRng);

impl Fuzz {
    fn new(seed: u64) -> Self {
        Fuzz(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0.gen()
    }

    /// Uniform integer in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..hi)
    }
}

const CASES: usize = 48;

fn arb_field(fz: &mut Fuzz) -> NdArray<f32> {
    let nd = fz.range(1, 4);
    let (d0, d1, d2) = (fz.range(2, 40), fz.range(2, 20), fz.range(2, 12));
    let shape = match nd {
        1 => Shape::d1(d0 * 8),
        2 => Shape::d2(d0, d1 * 2),
        _ => Shape::d3(d0.min(16), d1, d2),
    };
    let mut s = fz.next_u64() | 1;
    NdArray::from_fn(shape, |ix| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        ((ix[0] as f64 * 0.21).sin() * 3.0 + noise) as f32
    })
}

fn arb_predictor(fz: &mut Fuzz) -> PredictorKind {
    PredictorKind::all()[fz.range(0, 4)]
}

#[test]
fn prop_error_bound_invariant() {
    let mut fz = Fuzz::new(0xE44B0);
    for case in 0..CASES {
        let field = arb_field(&mut fz);
        let kind = arb_predictor(&mut fz);
        let eb = 10f64.powf(-4.0 + 4.5 * fz.unit());
        let cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(eb));
        let out = compress(&field, &cfg).unwrap();
        let back = decompress::<f32>(&out.bytes).unwrap();
        assert_eq!(back.shape(), field.shape());
        for (&a, &b) in field.as_slice().iter().zip(back.as_slice()) {
            assert!(
                ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
                "case {case} ({}, eb {eb:.3e}): |{a} - {b}| > {eb}",
                kind.name()
            );
        }
    }
}

#[test]
fn prop_double_compression_is_stable() {
    // Compressing already-reconstructed data at the same bound must keep
    // the result within 2×eb of the original (idempotence-ish).
    let mut fz = Fuzz::new(0xD0B1E);
    for case in 0..CASES {
        let field = arb_field(&mut fz);
        let kind = arb_predictor(&mut fz);
        let eb = 0.05f64;
        let cfg = CompressorConfig::new(kind, ErrorBoundMode::Abs(eb));
        let once = decompress::<f32>(&compress(&field, &cfg).unwrap().bytes).unwrap();
        let twice = decompress::<f32>(&compress(&once, &cfg).unwrap().bytes).unwrap();
        for (&a, &b) in field.as_slice().iter().zip(twice.as_slice()) {
            assert!(
                ((a - b).abs() as f64) <= 2.0 * eb * (1.0 + 1e-6),
                "case {case} ({})",
                kind.name()
            );
        }
    }
}

#[test]
fn prop_model_estimates_are_finite_and_ordered() {
    let mut fz = Fuzz::new(0x0DE1);
    for case in 0..CASES {
        let field = arb_field(&mut fz);
        let kind = arb_predictor(&mut fz);
        let model = RqModel::build(&field, kind, 0.2, 11);
        let small = model.estimate(1e-4);
        let large = model.estimate(1.0);
        assert!(small.bit_rate.is_finite() && large.bit_rate.is_finite(), "case {case}");
        assert!(small.bit_rate >= large.bit_rate - 1e-9, "case {case}");
        assert!(small.psnr >= large.psnr - 1e-9, "case {case}");
        assert!(small.ratio > 0.0 && large.ratio > 0.0, "case {case}");
        assert!((0.0..=1.0).contains(&small.p0), "case {case}");
        assert!((0.0..=1.0).contains(&large.p0), "case {case}");
    }
}
