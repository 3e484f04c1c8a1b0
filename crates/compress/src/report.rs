//! Compression outcome descriptors — and the two ways a value becomes JSON
//! text here (the CLI's hand-rolled `--json` documents): a float through
//! [`json_f64`], a string through [`json_escape`].

/// Format a float for a hand-rolled JSON document.
///
/// JSON has no NaN/Infinity literals — Rust's `{}` formatting of
/// non-finite floats (`NaN`, `inf`) silently produces invalid JSON that
/// strict parsers reject. Every float written by the CLI's `--json`
/// modes must go through here: non-finite values become `null`, finite
/// values keep their shortest roundtrip form.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escape a string for a JSON string literal of a hand-rolled document:
/// quote, backslash and the control characters; everything else, non-ASCII
/// included, passes through (JSON text is UTF-8).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod json_tests {
    use super::{json_escape, json_f64};

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(-0.25), "-0.25");
        assert_eq!(json_f64(1e300).parse::<f64>().unwrap(), 1e300);
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped_for_a_json_literal() {
        assert_eq!(json_escape("plain/path.rqc"), "plain/path.rqc");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\r\tend"), "l1\\nl2\\r\\tend");
        assert_eq!(json_escape("\u{0}\u{1f}\u{7f}"), "\\u0000\\u001f\u{7f}");
        // Non-ASCII is valid JSON text as it is.
        assert_eq!(json_escape("größe/データ"), "größe/データ");
    }
}

/// The compressed bytes plus summary metrics.
#[derive(Clone, Debug)]
pub struct CompressedOutput {
    /// The self-describing container.
    pub bytes: Vec<u8>,
    /// Number of elements in the original field.
    pub n_elements: usize,
    /// Bits of the original scalar type.
    pub original_bits: u32,
}

impl CompressedOutput {
    /// Compression ratio = original size / compressed size.
    pub fn ratio(&self) -> f64 {
        (self.n_elements as f64 * self.original_bits as f64 / 8.0) / self.bytes.len() as f64
    }

    /// Bit-rate = average compressed bits per element — the x-axis of the
    /// paper's rate-distortion plots.
    pub fn bit_rate(&self) -> f64 {
        self.bytes.len() as f64 * 8.0 / self.n_elements as f64
    }
}

/// Detailed per-stage measurements used to validate the analytical model.
///
/// The paper's model predicts each of these quantities *without* running
/// compression; this struct is the ground truth it is scored against
/// (Table II).
#[derive(Clone, Debug)]
pub struct CompressionReport {
    /// Histogram of quantization symbols (index = shifted code).
    pub symbol_histogram: Vec<u64>,
    /// Number of quantized elements (excludes verbatim escapes/anchors).
    pub n_quantized: usize,
    /// Number of unpredictable (escape) values.
    pub n_unpredictable: usize,
    /// Number of verbatim anchors (interpolation only).
    pub n_anchors: usize,
    /// Huffman payload size in bytes (before the optional lossless stage).
    pub huffman_bytes: usize,
    /// Payload size after the optional lossless stage (equals
    /// `huffman_bytes` when the stage is disabled or not profitable).
    pub encoded_bytes: usize,
    /// Serialized codebook size in bytes.
    pub codebook_bytes: usize,
    /// Side-channel size in bytes (regression coefficients).
    pub side_bytes: usize,
    /// Total container size in bytes.
    pub container_bytes: usize,
    /// Number of elements in the field.
    pub n_elements: usize,
    /// Bits of the original scalar type.
    pub original_bits: u32,
    /// Number of independently-coded chunks (1 for the serial pipeline).
    pub n_chunks: usize,
    /// Codec that coded each chunk, in slab order (all
    /// [`ChunkCodecKind::Sz`](crate::container::ChunkCodecKind::Sz)
    /// outside the adaptive pipeline). The symbol
    /// histogram and element accounting above cover SZ-coded chunks only;
    /// ZFP chunks contribute only container bytes.
    pub chunk_codecs: Vec<crate::container::ChunkCodecKind>,
}

impl CompressionReport {
    /// Bit-rate after Huffman only (excluding the lossless stage but
    /// including codebook, verbatim and side-channel overheads) — the
    /// quantity of the paper's Fig. 5 "Huffman" series.
    pub fn huffman_bit_rate(&self) -> f64 {
        let verbatim = (self.n_unpredictable + self.n_anchors) * self.original_bits as usize / 8;
        let total = self.huffman_bytes + self.codebook_bytes + self.side_bytes + verbatim;
        total as f64 * 8.0 / self.n_elements as f64
    }

    /// Overall container bit-rate (lossless stage included).
    pub fn overall_bit_rate(&self) -> f64 {
        self.container_bytes as f64 * 8.0 / self.n_elements as f64
    }

    /// Overall compression ratio.
    pub fn overall_ratio(&self) -> f64 {
        (self.n_elements as f64 * self.original_bits as f64 / 8.0) / self.container_bytes as f64
    }

    /// Fraction of quantized elements that landed in the zero bin — the
    /// model's `p0`.
    pub fn p0(&self) -> f64 {
        if self.n_quantized == 0 {
            return 0.0;
        }
        let zero_idx = (self.symbol_histogram.len() - 1) / 2;
        self.symbol_histogram[zero_idx] as f64 / self.n_quantized as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_bit_rate_consistent() {
        let out = CompressedOutput { bytes: vec![0; 1000], n_elements: 4000, original_bits: 32 };
        assert!((out.ratio() - 16.0).abs() < 1e-12);
        assert!((out.bit_rate() - 2.0).abs() < 1e-12);
        assert!((out.ratio() * out.bit_rate() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn p0_reads_central_bin() {
        let mut hist = vec![0u64; 5];
        hist[2] = 75;
        hist[1] = 15;
        hist[3] = 10;
        let rep = CompressionReport {
            symbol_histogram: hist,
            n_quantized: 100,
            n_unpredictable: 0,
            n_anchors: 0,
            huffman_bytes: 10,
            encoded_bytes: 10,
            codebook_bytes: 2,
            side_bytes: 0,
            container_bytes: 20,
            n_elements: 100,
            original_bits: 32,
            n_chunks: 1,
            chunk_codecs: vec![crate::container::ChunkCodecKind::Sz],
        };
        assert!((rep.p0() - 0.75).abs() < 1e-12);
    }
}
