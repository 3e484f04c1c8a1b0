//! Concurrency differential for `rqm serve`: 64 client threads fire
//! randomized, overlapping `READ_ROWS`/`READ_CHUNK` requests at one
//! server and every reply must be byte-identical to a precomputed
//! serial `ArchiveReader` decode — across every container generation
//! (v1–v2.3 from the committed fixtures, v2.4 from the live writer) ×
//! cache budgets {0, tiny, unbounded}.
//!
//! The cache budget is an implementation detail the wire must not leak:
//! pass-through (0), constant-thrash (tiny) and all-resident
//! (unbounded) servers answer every request with the same bytes.

use rqm::prelude::*;
use std::io::Cursor;
use std::sync::{Arc, Barrier};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The served generations: v1 through v2.3 from the committed fixtures
/// (no writer emits them any more) and a live v2.4 archive — planned,
/// three-way adaptive codecs, including rolz chunks.
fn archive_matrix(field: &NdArray<f32>) -> Vec<(String, u8, Vec<u8>)> {
    let adaptive = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3))
        .chunked(5)
        .with_codec(CodecChoice::Auto);
    let n_chunks = field.shape().dim(0).div_ceil(5);
    let plan: Vec<f64> = (0..n_chunks).map(|i| 1e-3 * (1.0 + i as f64)).collect();
    let mut w =
        ArchiveWriter::<f32, Vec<u8>>::create_planned(Vec::new(), field.shape(), &adaptive, plan)
            .unwrap();
    w.write_slab(field).unwrap();
    vec![
        ("v1".into(), 1, include_bytes!("data/golden_v1.rqc").to_vec()),
        ("v2".into(), 2, include_bytes!("data/golden_v2.rqc").to_vec()),
        ("v2.1".into(), 3, include_bytes!("data/golden_v21.rqc").to_vec()),
        ("v2.2".into(), 4, include_bytes!("data/golden_v22.rqc").to_vec()),
        ("v2.3".into(), 5, include_bytes!("data/golden_v23.rqc").to_vec()),
        ("v2.4".into(), 6, w.finalize().unwrap().sink),
    ]
}

#[test]
fn sixty_four_clients_match_the_serial_decode_across_generations_and_budgets() {
    let field = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(23, 8, 6), 11, 30.0);
    // Decoded chunks are 960 B (live) to 1.6–2.3 KB (fixtures): "tiny"
    // holds one or two of them, or none.
    let budgets: [(&str, u64); 3] = [("0", 0), ("tiny", 2_000), ("unbounded", u64::MAX)];
    const CLIENTS: usize = 64;
    const OPS: usize = 6;

    for (name, version, bytes) in archive_matrix(&field) {
        assert_eq!(
            rqm::compress_crate::peek_header(&bytes).unwrap().version,
            version,
            "{name}: fixture has the wrong container generation"
        );
        // The serial reference decode, once per generation.
        let serial = ArchiveReader::open(Cursor::new(&bytes[..])).unwrap();
        let reference = Arc::new(serial.read_all::<f32>().unwrap());
        let row_elems = reference.len() / reference.shape().dim(0);
        let chunk_starts: Vec<(usize, usize)> = rqm::compress_crate::chunk_table(&bytes)
            .unwrap()
            .entries
            .iter()
            .map(|e| (e.start_row, e.rows))
            .collect();

        for (budget_name, budget) in budgets {
            let what = format!("{name} / cache={budget_name}");
            let cfg = ServeConfig { cache_bytes: budget, ..ServeConfig::default() };
            let server =
                Arc::new(Server::bind_bytes("127.0.0.1:0", bytes.clone(), cfg).unwrap());
            let barrier = Arc::new(Barrier::new(CLIENTS));
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client_id| {
                    let server = Arc::clone(&server);
                    let barrier = Arc::clone(&barrier);
                    let reference = Arc::clone(&reference);
                    let chunk_starts = chunk_starts.clone();
                    let what = what.clone();
                    std::thread::spawn(move || {
                        let mut rng = Rng(0x5EED ^ (client_id as u64) << 17 | 1);
                        let mut c = Client::connect(server.local_addr()).unwrap();
                        let rows = c.info().rows();
                        let n_chunks = c.info().n_chunks;
                        assert_eq!(n_chunks, chunk_starts.len(), "{what}: chunk table mismatch");
                        barrier.wait();
                        for _ in 0..OPS {
                            if rng.below(3) < 2 {
                                // Random overlapping row range.
                                let a = rng.below(rows);
                                let b = (a + 1 + rng.below(rows - a)).min(rows);
                                let slab = c.read_rows::<f32>(a..b).unwrap();
                                let want = &reference.as_slice()[a * row_elems..b * row_elems];
                                assert_eq!(
                                    slab.as_slice(),
                                    want,
                                    "{what}: rows {a}..{b} diverge from the serial decode"
                                );
                            } else {
                                let idx = rng.below(n_chunks);
                                let (start, slab) = c.read_chunk::<f32>(idx).unwrap();
                                let (want_start, want_rows) = chunk_starts[idx];
                                assert_eq!(start, want_start, "{what}: chunk {idx} start row");
                                let want = &reference.as_slice()
                                    [start * row_elems..(start + want_rows) * row_elems];
                                assert_eq!(
                                    slab.as_slice(),
                                    want,
                                    "{what}: chunk {idx} diverges from the serial decode"
                                );
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }

            let s = server.stats();
            assert_eq!(s.errors, 0, "{what}: no request may fail");
            assert_eq!(s.connections, CLIENTS as u64, "{what}");
            // Every client also did one INFO at connect time.
            assert_eq!(s.requests, (CLIENTS * (OPS + 1)) as u64, "{what}");
            match budget {
                0 => assert_eq!(
                    (s.cache.hits, s.cache.bytes_peak),
                    (0, 0),
                    "{what}: a zero budget cannot produce hits"
                ),
                u64::MAX => assert_eq!(
                    s.cache.evictions, 0,
                    "{what}: an unbounded budget cannot evict"
                ),
                b => assert!(
                    s.cache.bytes_peak <= b,
                    "{what}: peak {} over budget {b}",
                    s.cache.bytes_peak
                ),
            }
            assert_eq!(
                s.chunks_decoded, s.cache.misses,
                "{what}: decode count must equal cache misses (single flight)"
            );
        }
    }
}

#[test]
fn max_connections_holds_a_second_client_until_the_first_leaves() {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::time::Duration;

    let field = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(12, 8, 6), 11, 30.0);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(4);
    let bytes = compress(&field, &cfg).unwrap().bytes;
    let reference = decompress::<f32>(&bytes).unwrap();
    let serve = ServeConfig { max_connections: 1, ..ServeConfig::default() };
    let server = Server::bind_bytes("127.0.0.1:0", bytes, serve).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    let (tx, rx) = channel();
    let second = std::thread::spawn(move || {
        // `connect` waits for the INFO reply, which the server sends only
        // once it has accepted the connection.
        let _ = tx.send(Client::connect(addr));
    });
    // At the cap, the second client gets no reply while the first stays.
    assert!(
        matches!(rx.recv_timeout(Duration::from_millis(300)), Err(RecvTimeoutError::Timeout)),
        "a second client was served past max_connections = 1"
    );
    assert_eq!(first.read_rows::<f32>(0..3).unwrap().as_slice(), &reference.as_slice()[..3 * 48]);

    drop(first);
    let mut late = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the second client is served once the first leaves")
        .unwrap();
    second.join().unwrap();
    assert_eq!(late.read_rows::<f32>(0..12).unwrap().as_slice(), reference.as_slice());
    assert_eq!(server.stats().connections, 2);
}
