//! The correctness oracle, run once per process outside every timed region.
//!
//! It decodes the staged artifact in full, checks every element against
//! the field it came from and the bound it was stored with, and keeps that
//! pristine decode: every later operation must reproduce it exactly. The
//! quality metrics (`bits_per_value`, `psnr_db`) and the paper's model
//! accuracy (Eq. 20) come from the same decode.

use crate::adapter::{self, Catalog, ChunkKind, ChunkRow, Field, Model, Reader};
use crate::stats::eq20_error;
use crate::workloads::{max_abs_err, Env, Layout, Spec, Staged, ValueSum, BOUND_SLACK, MODEL_RATE};

type Res<T> = Result<T, String>;

/// Bound factors the model is audited at, around each field's own bound.
const MODEL_FACTORS: [f64; 3] = [1.0, 4.0, 0.25];

pub struct Oracle {
    /// The staged artifact decoded, one field per stored field.
    pub pristine: Vec<Field>,
    /// `ValueSum` of each pristine field.
    pub sums: Vec<u64>,
    pub bits_per_value: f64,
    /// Mean PSNR over the stored fields.
    pub psnr_db: f64,
    /// `1 − Eq. 20 error` of estimated against measured bits per value.
    pub model_ratio_accuracy: f64,
    /// The same for PSNR.
    pub model_psnr_accuracy: f64,
    /// Chunk table of each staged archive (empty for a catalog).
    pub tables: Vec<Vec<ChunkRow>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    /// Share of the stored values each codec encoded: (sz, zfp, rolz).
    /// Counted in values, not chunks, because chunks of different fields
    /// differ in size.
    pub fn codec_shares(&self) -> [f64; 3] {
        let mut n = [0usize; 3];
        for (table, field) in self.tables.iter().zip(&self.pristine) {
            let row_elems = field.len() / field.shape().dim(0);
            for row in table {
                n[match row.kind {
                    ChunkKind::Sz => 0,
                    ChunkKind::Zfp => 1,
                    ChunkKind::Rolz => 2,
                }] += row.rows * row_elems;
            }
        }
        let total = n.iter().sum::<usize>();
        if total == 0 {
            return [1.0, 0.0, 0.0]; // a catalog's segments are SZ throughout
        }
        n.map(|k| k as f64 / total as f64)
    }

    /// Archive bytes that are not chunk payload, as a share of all bytes.
    pub fn container_overhead_frac(&self, staged: &Staged) -> f64 {
        let blobs: usize = self.tables.iter().flatten().map(|r| r.blob_len).sum();
        if blobs == 0 {
            return 0.0;
        }
        1.0 - blobs as f64 / staged.stored.bytes() as f64
    }
}

/// Store `field` alone at bound `eb`, decode it, and return its measured
/// (bits per value, PSNR) and whether every element kept the bound.
fn measure(spec: &Spec, env: &Env, field: &Field, eb: f64) -> Res<(f64, f64, bool)> {
    let path = env.dir.join("oracle.rqc");
    let slab_rows = field.shape().dim(0);
    let written = adapter::write_archive(&path, field, eb, &spec.store, slab_rows)?;
    let decoded = Reader::open(&path, env.threads)?.read_all()?;
    let ok = max_abs_err(field.as_slice(), decoded.as_slice()) <= eb * BOUND_SLACK;
    Ok((
        written.bytes as f64 * 8.0 / field.len() as f64,
        adapter::psnr(field, &decoded),
        ok,
    ))
}

pub fn run(spec: &Spec, env: &Env, staged: &Staged) -> Res<Oracle> {
    let n = spec.fields.len();
    let mut o = Oracle {
        pristine: Vec::with_capacity(n),
        sums: Vec::with_capacity(n),
        bits_per_value: staged.stored.bytes() as f64 * 8.0 / spec.values() as f64,
        psnr_db: 0.0,
        model_ratio_accuracy: 0.0,
        model_psnr_accuracy: 0.0,
        tables: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // Pristine decode, element-wise bound check, PSNR.
    let mut catalog = match spec.layout {
        Layout::Catalog { .. } => Some(Catalog::open(&staged.stored.paths[0])?),
        Layout::Archives => None,
    };
    let mut psnrs = Vec::with_capacity(n);
    for (i, field) in spec.fields.iter().enumerate() {
        let decoded = match &mut catalog {
            Some(cat) => cat.read_step(i)?,
            None => {
                let mut reader = Reader::open(&staged.stored.paths[i], env.threads)?;
                o.tables.push(reader.chunk_table());
                reader.read_all()?
            }
        };
        o.attempted += 1;
        o.failed += (decoded.len() != field.len()
            || max_abs_err(field.as_slice(), decoded.as_slice())
                > staged.stored.ebs[i] * BOUND_SLACK) as u64;
        psnrs.push(adapter::psnr(field, &decoded));
        o.sums.push(ValueSum::of(decoded.as_slice()));
        o.pristine.push(decoded);
    }
    o.psnr_db = psnrs.iter().sum::<f64>() / n as f64;

    // Model audit: estimated against measured, at and around each bound. A
    // catalog is audited on its keyframe steps, stored as plain archives —
    // the model describes one field, not a delta chain.
    let audited: Vec<usize> = match spec.layout {
        Layout::Archives => (0..n).collect(),
        Layout::Catalog { keyframe_every } => (0..n).step_by(keyframe_every).collect(),
    };
    let (mut bits, mut quality) = (Vec::new(), Vec::new());
    for &i in &audited {
        let field = &spec.fields[i];
        let model = Model::build(field, spec.store.predictor, MODEL_RATE, env.seed);
        for factor in MODEL_FACTORS {
            let eb = staged.stored.ebs[i] * factor;
            let (est_bits, est_psnr) = model.estimate(eb);
            let (got_bits, got_psnr) = if factor == 1.0 && catalog.is_none() {
                (
                    staged.stored.sizes[i] as f64 * 8.0 / field.len() as f64,
                    psnrs[i],
                )
            } else {
                let (b, p, ok) = measure(spec, env, field, eb)?;
                o.attempted += 1;
                o.failed += !ok as u64;
                (b, p)
            };
            bits.push((got_bits, est_bits));
            // A bound below the data's own precision decodes exactly: its
            // PSNR is infinite and says nothing about the model.
            if got_psnr.is_finite() && est_psnr.is_finite() {
                quality.push((got_psnr, est_psnr));
            }
        }
    }
    o.model_ratio_accuracy = 1.0 - eq20_error(&bits);
    o.model_psnr_accuracy = 1.0 - eq20_error(&quality);
    Ok(o)
}
