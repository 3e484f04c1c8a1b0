//! The generators' streams, pinned: every accuracy and rate number in the
//! repository is measured on fields from this crate, so a change to the
//! seeded generator or to any draw site must show here first.
//!
//! Each test folds what the generators return into one FNV-1a digest of
//! the values' bits. `draw_sites_are_pinned` reaches every draw site on
//! small instances (the `[0, 1)` draws of `hacc_xx`, `qmcpack_einspline`
//! and `exafel_raw` only through those fields); the full Table I set takes
//! 27 s in a debug build, so `every_table1_field_is_pinned` runs in
//! release only: `cargo test --release -p rq-datagen --test stream_pins`.

use rq_datagen::grf::{grf_1d, grf_2d, grf_3d};
use rq_datagen::rng::{fill_normal, normal, seeded};
use rq_datagen::{all_datasets, fields, rtm_steps};
use rq_grid::NdArray;

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn f32_field(&mut self, label: &str, field: &NdArray<f32>) {
        self.bytes(label.as_bytes());
        for &d in field.shape().dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        for v in field.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn f64_field(&mut self, field: &NdArray<f64>) {
        for &d in field.shape().dims() {
            self.bytes(&(d as u64).to_le_bytes());
        }
        self.f64s(field.as_slice());
    }
}

#[test]
fn draw_sites_are_pinned() {
    let mut d = Digest::new();

    let mut rng = seeded(1);
    let draws: Vec<f64> = (0..1000).map(|_| normal(&mut rng)).collect();
    d.f64s(&draws);
    let mut buf = vec![0.0; 257];
    fill_normal(&mut seeded(2), &mut buf);
    d.f64s(&buf);

    // One generator through all three, as the fields chain them.
    let mut rng = seeded(3);
    d.f64_field(&grf_1d(1024, 1.5, &mut rng));
    d.f64_field(&grf_2d([16, 32], 2.5, &mut rng));
    d.f64_field(&grf_3d([8, 16, 32], 5.0 / 3.0, &mut rng));

    for (i, step) in rtm_steps(7, 6, [16, 16, 16]).iter().enumerate() {
        d.f32_field(&format!("rtm t{i}"), step);
    }
    d.f32_field("HACC/xx", &fields::hacc_xx());
    d.f32_field("QMCPACK/einspline", &fields::qmcpack_einspline());
    d.f32_field("EXAFEL/raw", &fields::exafel_raw());

    assert_eq!(d.0, 0x99f7_e363_37b3_5e94, "draw-site digest {:016x}", d.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "all 17 Table I fields: run it in release")]
fn every_table1_field_is_pinned() {
    let mut d = Digest::new();
    for spec in all_datasets() {
        for f in &spec.fields {
            d.f32_field(&f.label(), &f.generate());
        }
    }
    assert_eq!(d.0, 0xa5a3_1af0_4f21_8168, "Table I digest {:016x}", d.0);
}
