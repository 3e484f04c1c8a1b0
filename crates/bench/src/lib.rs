//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (§V) has a binary in
//! `src/bin/`. Set `RQM_QUICK=1` to shrink workloads (useful in CI or
//! debug builds).

use rq_grid::{NdArray, Scalar};

/// Whether quick mode is enabled (`RQM_QUICK=1`).
pub fn quick() -> bool {
    std::env::var("RQM_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Format a float for the hand-rolled `BENCH_*.json` reports: fixed
/// `decimals` when finite, and [`rq_compress::json_f64`]'s `null` when
/// not (a PSNR of a lossless reconstruction is `inf`, which is not JSON).
pub fn jf(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        rq_compress::json_f64(v)
    }
}

/// The paper's accuracy/error statistic (Eq. 20):
/// `E = 1 − (1 + STD(R/R' − 1))⁻¹` over measured `R` and estimated `R'`.
/// Returned as the *error rate* in `[0, 1)`; accuracy = 1 − error.
pub fn eq20_error(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|&&(_, e)| e.abs() > 1e-300)
        .map(|&(m, e)| m / e - 1.0)
        .collect();
    if ratios.is_empty() {
        return 1.0;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / ratios.len() as f64;
    1.0 - 1.0 / (1.0 + var.sqrt())
}

/// Log-spaced error-bound grid covering relative bounds
/// `lo_rel..hi_rel` of `range`.
pub fn eb_grid(range: f64, lo_rel: f64, hi_rel: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2 && hi_rel > lo_rel);
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            range * (lo_rel.ln() + t * (hi_rel.ln() - lo_rel.ln())).exp()
        })
        .collect()
}

/// Exhaustive prediction-error standard deviation (sampling rate 1.0) —
/// the Fig. 4 reference value.
pub fn full_error_std<T: Scalar>(
    field: &NdArray<T>,
    kind: rq_predict::PredictorKind,
) -> f64 {
    rq_core::sample_errors(field, kind, 1.0, 0).weighted_std()
}

/// Minimal fixed-width table printer for benchmark outputs.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.headers);
        let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Peak resident set size (`VmHWM`) in bytes, if the platform exposes
/// it. Shared by the memory-footprint benches (`streaming_vs_inmemory`,
/// `decode_scaling`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Reset the peak-RSS counter (writing "5" to `/proc/self/clear_refs`
/// clears the HWM counters). Returns whether the reset took, so monotone
/// readings can be flagged.
pub fn reset_peak_rss() -> bool {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .write(true)
        .open("/proc/self/clear_refs")
        .and_then(|mut f| f.write_all(b"5"))
        .is_ok()
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Convenience: format a `f64` with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Convenience: format a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq20_zero_for_perfect_estimates() {
        let pairs = vec![(1.0, 1.0), (2.0, 2.0), (5.0, 5.0)];
        assert!(eq20_error(&pairs) < 1e-12);
    }

    #[test]
    fn eq20_zero_for_consistent_bias() {
        // Eq. 20 measures *spread* of the ratio, not bias — as in the paper.
        let pairs = vec![(1.1, 1.0), (2.2, 2.0), (5.5, 5.0)];
        assert!(eq20_error(&pairs) < 1e-12);
    }

    #[test]
    fn eq20_grows_with_scatter() {
        let tight = vec![(1.0, 1.02), (1.0, 0.98)];
        let loose = vec![(1.0, 1.5), (1.0, 0.6)];
        assert!(eq20_error(&loose) > eq20_error(&tight));
    }

    #[test]
    fn grid_is_log_spaced() {
        let g = eb_grid(100.0, 1e-4, 1e-2, 3);
        assert_eq!(g.len(), 3);
        assert!((g[0] - 1e-2).abs() < 1e-9);
        assert!((g[1] - 1e-1).abs() < 1e-6);
        assert!((g[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn table_renders_without_panic() {
        let mut t = Table::new(&["a", "long header"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }
}
