//! Protocol-v2 differential for served catalogs: 64 client threads fire
//! randomized `READ_STEP_ROWS` (plus v1 ops against the flattened
//! default dataset) at one server over an `RQCAT` file, and every reply
//! must be byte-identical to a local `CatalogReader::read_step` decode —
//! across cache budgets {0, tiny, unbounded}. Also pins the v2 contract
//! for plain archives (one pseudo-dataset), the typed out-of-range error
//! codes, and that a plain archive and a one-step catalog of the same
//! field are one thing on the wire.

use rqm::catalog::{CatalogReader, CatalogWriter};
use rqm::prelude::*;
use rqm::serve::protocol::{
    encode_request, read_frame, write_frame, Frame, Request, MAX_RESPONSE_BODY,
};
use rqm::serve::{ClientError, ErrorCode, SINGLE_ARCHIVE_DATASET};
use std::io::{BufReader, Cursor};
use std::net::{SocketAddr, TcpStream};
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

const DIMS: [usize; 3] = [12, 8, 8];
const N_STEPS: usize = 6;
const EB: f64 = 1e-3;

/// A two-dataset RTM catalog: f32 pressure + f64 energy, cadence 3.
fn catalog_bytes() -> Vec<u8> {
    let steps32 = rqm::datagen::rtm_steps(0xD1FF, N_STEPS, DIMS);
    let steps64: Vec<NdArray<f64>> = steps32
        .iter()
        .map(|s| {
            NdArray::from_vec(
                s.shape(),
                s.as_slice().iter().map(|&v| v as f64 * 2.0 - 0.5).collect(),
            )
        })
        .collect();
    let cfg32 = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(4);
    let cfg64 = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB));
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg32, 3, &steps32).unwrap();
    w.write_dataset("energy", &cfg64, 3, &steps64).unwrap();
    w.finalize().unwrap().sink
}

/// Each file gets a directory of its own: the tests run on parallel
/// threads and every one removes the directory it wrote.
fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqm_serve_cat_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn sixty_four_clients_match_the_local_catalog_decode_across_budgets() {
    let bytes = catalog_bytes();
    let path = write_temp("diff.rqc", &bytes);

    // The local reference: every step of both datasets, decoded once.
    let local = CatalogReader::open(Cursor::new(bytes)).unwrap();
    let ref32: Vec<Arc<Vec<f32>>> = (0..N_STEPS)
        .map(|t| Arc::new(local.read_step::<f32>("pressure", t).unwrap().into_vec()))
        .collect();
    let ref64: Vec<Arc<Vec<f64>>> = (0..N_STEPS)
        .map(|t| Arc::new(local.read_step::<f64>("energy", t).unwrap().into_vec()))
        .collect();
    let ref32 = Arc::new(ref32);
    let ref64 = Arc::new(ref64);
    let row_elems = DIMS[1] * DIMS[2];

    const CLIENTS: usize = 64;
    const OPS: usize = 6;
    // A decoded f32 chunk ≈ 4 × 48 × 4 = 768 bytes: "tiny" thrashes.
    for (budget_name, budget) in [("0", 0u64), ("tiny", 2_000), ("unbounded", u64::MAX)] {
        let what = format!("cache={budget_name}");
        let cfg = ServeConfig { cache_bytes: budget, ..ServeConfig::default() };
        let server = Arc::new(Server::bind_path("127.0.0.1:0", &path, cfg).unwrap());
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_id| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                let ref32 = Arc::clone(&ref32);
                let ref64 = Arc::clone(&ref64);
                let what = what.clone();
                std::thread::spawn(move || {
                    let mut rng = Rng(0xCA7A ^ (client_id as u64) << 13 | 1);
                    let mut c = Client::connect(server.local_addr()).unwrap();
                    let ds = c.list_datasets().unwrap();
                    assert_eq!(ds.len(), 2, "{what}: dataset listing");
                    assert_eq!(ds[0].name, "pressure");
                    assert_eq!(ds[1].name, "energy");
                    assert_eq!(ds[0].step_dims, DIMS.to_vec());
                    assert_eq!(ds[0].n_steps, N_STEPS as u64);
                    assert_eq!(ds[0].keyframe_every, 3);
                    barrier.wait();
                    for _ in 0..OPS {
                        let t = rng.below(N_STEPS);
                        let a = rng.below(DIMS[0]);
                        let b = (a + 1 + rng.below(DIMS[0] - a)).min(DIMS[0]);
                        if rng.below(2) == 0 {
                            let slab = c.read_step_rows::<f32>(&ds[0], t as u64, a..b).unwrap();
                            let want = &ref32[t][a * row_elems..b * row_elems];
                            assert_eq!(
                                slab.as_slice(),
                                want,
                                "{what}: pressure step {t} rows {a}..{b} diverge"
                            );
                        } else {
                            let slab = c.read_step_rows::<f64>(&ds[1], t as u64, a..b).unwrap();
                            let want = &ref64[t][a * row_elems..b * row_elems];
                            assert_eq!(
                                slab.as_slice(),
                                want,
                                "{what}: energy step {t} rows {a}..{b} diverge"
                            );
                        }
                    }
                    // The v1 ops keep working against a catalog: they see
                    // dataset 0 flattened time-major, so a row range may
                    // cross a step boundary and chunk indices run on past
                    // the first step's.
                    let chunks_per_step = ds[0].chunks_per_step as usize;
                    let flat_rows = N_STEPS * DIMS[0];
                    let a = rng.below(flat_rows - 1);
                    let b = (a + 1 + rng.below(2 * DIMS[0])).min(flat_rows);
                    let rows32 = |r: std::ops::Range<usize>| -> Vec<f32> {
                        r.flat_map(|row| {
                            let at = row % DIMS[0] * row_elems;
                            ref32[row / DIMS[0]][at..at + row_elems].iter().copied()
                        })
                        .collect()
                    };
                    for r in [0..DIMS[0], DIMS[0] - 2..DIMS[0] + 3, a..b] {
                        let flat = c.read_rows::<f32>(r.clone()).unwrap();
                        assert_eq!(
                            flat.as_slice(),
                            rows32(r.clone()),
                            "{what}: READ_ROWS {r:?} must serve dataset 0 flattened"
                        );
                    }
                    let idx = chunks_per_step + rng.below((N_STEPS - 1) * chunks_per_step);
                    let (start, chunk) = c.read_chunk::<f32>(idx).unwrap();
                    let want_start = idx / chunks_per_step * DIMS[0] + idx % chunks_per_step * 4;
                    assert_eq!(start, want_start, "{what}: READ_CHUNK {idx} start row");
                    assert_eq!(
                        chunk.as_slice(),
                        rows32(start..start + chunk.shape().dim(0)),
                        "{what}: READ_CHUNK {idx} must serve a later step's chunk"
                    );
                    // One past either flattened extent is a typed refusal
                    // that keeps the connection.
                    for (err, want) in [
                        (
                            c.read_rows::<f32>(flat_rows - 1..flat_rows + 1).unwrap_err(),
                            ErrorCode::RowsOutOfRange,
                        ),
                        (
                            c.read_chunk::<f32>(N_STEPS * chunks_per_step).unwrap_err(),
                            ErrorCode::ChunkOutOfRange,
                        ),
                    ] {
                        match err {
                            ClientError::Server { code, .. } => assert_eq!(code, want, "{what}"),
                            other => panic!("{what}: expected a typed error, got {other}"),
                        }
                    }
                    c.ping().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = server.stats();
        assert_eq!(s.errors, 2 * CLIENTS as u64, "{what}: only the two refusals may fail");
        assert_eq!(s.connections, CLIENTS as u64, "{what}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn plain_archives_answer_v2_with_one_pseudo_dataset() {
    let field = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(20, 8, 6), 10, 30.0);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(5);
    let bytes = compress(&field, &cfg).unwrap().bytes;
    let server = Server::bind_bytes("127.0.0.1:0", bytes.clone(), ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let ds = c.list_datasets().unwrap();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].name, SINGLE_ARCHIVE_DATASET);
    assert_eq!(ds[0].step_dims, vec![20, 8, 6]);
    assert_eq!((ds[0].n_steps, ds[0].keyframe_every), (1, 1));
    assert_eq!(ds[0].scalar_tag, 0x04);

    // Step 0 of the pseudo-dataset is the archive itself.
    let local = decompress::<f32>(&bytes).unwrap();
    let slab = c.read_step_rows::<f32>(&ds[0], 0, 3..11).unwrap();
    assert_eq!(slab.as_slice(), &local.as_slice()[3 * 48..11 * 48]);
}

/// Send `script` down one raw connection; the reply bodies (id, status,
/// payload) in order.
fn raw_replies(addr: SocketAddr, script: &[Request]) -> Vec<Vec<u8>> {
    let mut writer = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    script
        .iter()
        .zip(1..)
        .map(|(req, id)| {
            write_frame(&mut writer, &encode_request(id, req)).unwrap();
            match read_frame(&mut reader, MAX_RESPONSE_BODY).unwrap() {
                Frame::Body(body) => body,
                _ => panic!("no reply to {req:?}"),
            }
        })
        .collect()
}

/// The same field under the same config, served as a plain archive and
/// as a catalog of one dataset named like the pseudo-dataset with one
/// keyframe step, is one thing on the wire: every reply — payloads and
/// refusals — is byte-identical, and the counters agree.
fn plain_archive_and_one_step_catalog_agree<T: rqm::grid::Scalar>(what: &str, field: &NdArray<T>) {
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(5);
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset(SINGLE_ARCHIVE_DATASET, &cfg, 1, std::slice::from_ref(field)).unwrap();
    let path = write_temp(&format!("one_{what}.rqc"), &w.finalize().unwrap().sink);
    let archive = compress(field, &cfg).unwrap().bytes;
    let plain = Server::bind_bytes("127.0.0.1:0", archive, ServeConfig::default()).unwrap();
    let catalog = Server::bind_path("127.0.0.1:0", &path, ServeConfig::default()).unwrap();

    let served = [
        Request::Ping,
        Request::Info,
        Request::ListDatasets,
        Request::rows(3..11),
        Request::ReadChunk { idx: 0 },
        Request::ReadChunk { idx: 3 },
        Request::step_rows(0, 0, 7..20),
        Request::rows(0..20),
    ];
    let refused = [
        Request::rows(15..21),
        Request::ReadChunk { idx: 4 },
        Request::step_rows(0, 1, 0..1),
        Request::step_rows(1, 0, 0..1),
    ];
    let script: Vec<Request> =
        served.iter().chain(&refused).cloned().chain([Request::Stats]).collect();
    let from_plain = raw_replies(plain.local_addr(), &script);
    let from_catalog = raw_replies(catalog.local_addr(), &script);
    let (stats_plain, replies_plain) = from_plain.split_last().unwrap();
    let (stats_catalog, replies_catalog) = from_catalog.split_last().unwrap();
    for (i, (a, b)) in replies_plain.iter().zip(replies_catalog).enumerate() {
        assert_eq!(a, b, "{what}: replies to {:?} differ", script[i]);
        assert_eq!(a[8] != 0, i >= served.len(), "{what}: status of the reply to {:?}", script[i]);
    }
    let a = ServeStats::parse(&stats_plain[9..]).unwrap();
    let b = ServeStats::parse(&stats_catalog[9..]).unwrap();
    assert_eq!(a.cache, b.cache, "{what}: cache counters");
    assert_eq!(a.chunks_decoded, b.chunks_decoded, "{what}: chunks decoded");
    assert_eq!((a.cache.misses, a.chunks_decoded, a.errors), (4, 4, 4), "{what}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn a_plain_archive_is_a_one_step_catalog_on_the_wire() {
    let f32s = rqm::datagen::fields::mixed_smooth_turbulent(Shape::d3(20, 8, 6), 10, 30.0);
    let f64s = NdArray::from_vec(
        f32s.shape(),
        f32s.as_slice().iter().map(|&v| v as f64 * 2.0 - 0.5).collect::<Vec<f64>>(),
    );
    plain_archive_and_one_step_catalog_agree("f32", &f32s);
    plain_archive_and_one_step_catalog_agree("f64", &f64s);
}

#[test]
fn out_of_range_steps_and_datasets_get_typed_errors() {
    let bytes = catalog_bytes();
    let path = write_temp("err.rqc", &bytes);
    let server = Server::bind_path("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let ds = c.list_datasets().unwrap();

    let mut bad_ds = ds[0].clone();
    bad_ds.index = 7;
    let cases: Vec<(&str, ClientError, ErrorCode)> = vec![
        (
            "dataset past catalog",
            c.read_step_rows::<f32>(&bad_ds, 0, 0..1).unwrap_err(),
            ErrorCode::DatasetOutOfRange,
        ),
        (
            "step past extent",
            c.read_step_rows::<f32>(&ds[0], N_STEPS as u64, 0..1).unwrap_err(),
            ErrorCode::StepOutOfRange,
        ),
        (
            "rows past step extent",
            c.read_step_rows::<f32>(&ds[0], 0, 0..DIMS[0] + 1).unwrap_err(),
            ErrorCode::RowsOutOfRange,
        ),
        (
            "empty range",
            c.read_step_rows::<f32>(&ds[0], 0, 4..4).unwrap_err(),
            ErrorCode::RowsOutOfRange,
        ),
    ];
    for (what, err, want) in cases {
        match err {
            ClientError::Server { code, .. } => assert_eq!(code, want, "{what}"),
            other => panic!("{what}: expected a typed server error, got {other}"),
        }
    }
    // None of these kill the connection.
    c.ping().unwrap();
    let slab = c.read_step_rows::<f32>(&ds[0], N_STEPS as u64 - 1, 0..2).unwrap();
    assert_eq!(slab.shape().dim(0), 2);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Descriptors of this process open on `path` (`/proc/self/fd` links;
/// the other tests of this binary open files of their own concurrently,
/// so only links to the catalog count).
#[cfg(target_os = "linux")]
fn fds_open_on(path: &std::path::Path) -> usize {
    let path = path.canonicalize().unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| *target == path)
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn serving_a_catalog_holds_one_descriptor() {
    // Three datasets are served through the catalog's one open file, not
    // one descriptor each; every dataset still reads as the local decode.
    let steps = rqm::datagen::rtm_steps(0x0FD3, 4, DIMS);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(EB)).chunked(4);
    let names = ["pressure", "velocity", "density"];
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    for (k, name) in names.iter().enumerate() {
        w.write_dataset(name, &cfg, k + 1, &steps).unwrap();
    }
    let bytes = w.finalize().unwrap().sink;
    let path = write_temp("three.rqc", &bytes);

    let before = fds_open_on(&path);
    let server = Server::bind_path("127.0.0.1:0", &path, ServeConfig::default()).unwrap();
    let grown = fds_open_on(&path) - before;
    assert_eq!(grown, 1, "serving a 3-dataset catalog holds {grown} descriptors on it");

    let local = CatalogReader::open(Cursor::new(bytes)).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let ds = c.list_datasets().unwrap();
    assert_eq!(ds.len(), names.len());
    for (info, name) in ds.iter().zip(names) {
        assert_eq!(info.name, name);
        let want = local.read_step::<f32>(name, 3).unwrap();
        let got = c.read_step_rows::<f32>(info, 3, 0..DIMS[0]).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "{name}: step 3 differs");
    }
    drop(server);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
