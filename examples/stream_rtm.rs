//! Streaming archive sessions on an RTM wavefield snapshot.
//!
//! Demonstrates (and asserts, so CI can run it as a check) the
//! `ArchiveWriter`/`ArchiveReader` API: a multi-slab field is compressed
//! incrementally through the writer — axis-0 slabs cut from the snapshot,
//! chunk index landing in the trailer — then read back three ways:
//!
//! * whole-field `read_all`, compared element-wise against the original
//!   under the error bound,
//! * random-access `read_rows` over a sweep of ranges, compared for exact
//!   equality against the matching rows of a full decompression,
//! * the reader's decode counters, proving each region read touched only
//!   the chunks that intersect it.
//!
//! ```sh
//! cargo run --release --example stream_rtm
//! ```

use rqm::compress_crate::{ArchiveReader, ArchiveWriter};
use rqm::datagen::RtmSimulator;
use rqm::prelude::*;
use std::io::Cursor;

fn main() {
    let eb = 1e-4;
    let chunk_rows = 8;
    let slab_rows = 12; // deliberately misaligned with the chunk size
    let mut sim = RtmSimulator::new([64, 64, 64]);
    let snap = sim.snapshot_at(160);
    let shape = snap.shape();
    let row_elems: usize = shape.dims()[1..].iter().product();

    // --- write: feed axis-0 slabs of the snapshot into the session ---
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(eb))
        .chunked(chunk_rows)
        .with_codec(CodecChoice::Auto)
        .with_threads(4);
    let mut writer =
        ArchiveWriter::<f32, Vec<u8>>::create(Vec::new(), shape, &cfg).expect("writer open");
    let mut n_slabs = 0;
    for rows in snap.as_slice().chunks(slab_rows * row_elems) {
        let dims = Shape::d3(rows.len() / row_elems, shape.dim(1), shape.dim(2));
        let slab = NdArray::from_vec(dims, rows.to_vec());
        writer.write_slab(&slab).expect("write_slab");
        n_slabs += 1;
    }
    let finished = writer.finalize().expect("finalize");
    let archive = finished.sink;
    println!(
        "wrote {n_slabs} slabs of {slab_rows} rows -> {} chunks, {} bytes (ratio {:.2})",
        finished.report.n_chunks,
        archive.len(),
        finished.report.overall_ratio()
    );
    assert_eq!(finished.bytes_written as usize, archive.len());

    // --- read_all: bound must hold everywhere ---
    let mut reader = ArchiveReader::open(Cursor::new(&archive[..])).expect("reader open");
    assert_eq!(reader.header().shape.dims(), shape.dims());
    let restored = reader.read_all::<f32>().expect("read_all");
    for (i, (&a, &b)) in snap.as_slice().iter().zip(restored.as_slice()).enumerate() {
        assert!(
            ((a - b).abs() as f64) <= eb * (1.0 + 1e-6),
            "element {i} broke the bound: |{a} - {b}| > {eb}"
        );
    }
    println!("read_all: {} values inside the bound", restored.len());

    // --- read_rows: exact equality with the full decompression, and
    //     only intersecting chunks decoded ---
    let full = decompress::<f32>(&archive).expect("full decompress");
    let d0 = shape.dim(0);
    let mut decoded_before = reader.stats().chunks_decoded;
    for (start, end) in [(0, 5), (7, 9), (8, 16), (13, 47), (56, 64), (0, 64)] {
        let part = reader.read_rows::<f32>(start..end).expect("read_rows");
        assert_eq!(part.shape().dims()[0], end - start);
        assert_eq!(
            part.as_slice(),
            &full.as_slice()[start * row_elems..end * row_elems],
            "rows {start}..{end} diverged from the full decompression"
        );
        // Chunks intersecting [start, end) for the fixed 8-row partition.
        let expect_chunks = (end.div_ceil(chunk_rows)).min(d0.div_ceil(chunk_rows))
            - start / chunk_rows;
        let decoded = reader.stats().chunks_decoded - decoded_before;
        assert_eq!(
            decoded as usize, expect_chunks,
            "rows {start}..{end}: decoded {decoded} chunks, expected {expect_chunks}"
        );
        decoded_before = reader.stats().chunks_decoded;
        println!(
            "read_rows {start:>2}..{end:<2}: {expect_chunks} chunk(s) decoded, {} values exact",
            part.len()
        );
    }
    println!("stream_rtm: all assertions passed");
}
