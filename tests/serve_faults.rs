//! Faults under a running `rqm serve`: a served file that changes under
//! the server must cost one request a typed error frame, never the
//! daemon. `cp new.rqc a.rqc` truncates the file in place while the
//! server holds it open with the old index; a later read past the new end
//! is a `DECODE` error on that request, the connection still answers a
//! PING, and the listener still takes new clients. Plain archives and
//! catalogs fail the same way.

use rqm::catalog::{CatalogReader, CatalogWriter};
use rqm::prelude::*;
use rqm::serve::{ClientError, ErrorCode};

/// Each file gets a directory of its own: the tests run on parallel
/// threads and every one removes the directory it wrote.
fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqm_serve_faults_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Truncate `path` in place to 200 bytes, as an in-place copy of a smaller
/// file does.
fn truncate_to_200(path: &std::path::Path) {
    std::fs::OpenOptions::new().write(true).open(path).unwrap().set_len(200).unwrap();
}

/// The request failed with one typed `DECODE` frame carrying the reader's
/// I/O error (the short read).
fn assert_decode_error<T: std::fmt::Debug>(got: Result<T, ClientError>) {
    match got {
        Err(ClientError::Server { code: ErrorCode::Decode, message }) => {
            assert!(message.starts_with("input stream failed"), "{message}")
        }
        other => panic!("expected a DECODE error frame, got {other:?}"),
    }
}

/// The connection that saw the error still answers, and the listener
/// still takes a new client that lists the datasets.
fn assert_server_survives(client: &mut Client, server: &Server) {
    client.ping().unwrap();
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(!fresh.list_datasets().unwrap().is_empty());
    fresh.ping().unwrap();
}

#[test]
fn archive_truncated_under_the_server_is_a_typed_error() {
    // Rough enough that chunk 5 (rows 40..48) starts pages past the cut:
    // a fetch there reads no byte of the file's last page.
    let field = NdArray::<f32>::from_fn(Shape::d3(64, 16, 16), |ix| {
        let mut h = (((ix[0] * 16 + ix[1]) * 16 + ix[2]) as u32).wrapping_mul(0x9E37_79B9);
        h ^= h >> 15;
        h = h.wrapping_mul(0x85EB_CA6B);
        h ^= h >> 13;
        (ix[0] as f32 * 0.13).sin() * 3.0 + (h >> 22) as f32 * 1e-3
    });
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-4)).chunked(8);
    let bytes = compress(&field, &cfg).unwrap().bytes;
    let entries = chunk_table(&bytes).unwrap().entries;
    assert_eq!(entries.len(), 8);
    assert!(entries[5].offset >= 3 * 4096, "chunk 5 at {}", entries[5].offset);
    let path = write_temp("a.rqc", &bytes);

    let cfg = ServeConfig { cache_bytes: 0, ..ServeConfig::default() };
    let server = Server::bind_path("127.0.0.1:0", &path, cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let head = c.read_rows::<f32>(0..8).unwrap();
    assert_eq!(head.shape().dims(), &[8, 16, 16]);

    truncate_to_200(&path);
    assert_decode_error(c.read_rows::<f32>(40..48));
    assert_server_survives(&mut c, &server);
    assert_eq!(server.stats().errors, 1);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn catalog_truncated_under_the_server_is_a_typed_error() {
    let steps = rqm::datagen::rtm_steps(0xFA17, 4, [16, 8, 8]);
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(4);
    let mut w = CatalogWriter::create(Vec::new()).unwrap();
    w.write_dataset("pressure", &cfg, 1, &steps).unwrap();
    let bytes = w.finalize().unwrap().sink;
    let last =
        CatalogReader::open(std::io::Cursor::new(&bytes[..])).unwrap().index().datasets[0].steps[3];
    assert!(last.keyframe && last.offset >= 200, "step 3 must be a keyframe past the cut");
    let path = write_temp("many.rqc", &bytes);

    let cfg = ServeConfig { cache_bytes: 0, ..ServeConfig::default() };
    let server = Server::bind_path("127.0.0.1:0", &path, cfg).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let ds = c.list_datasets().unwrap();
    let head = c.read_step_rows::<f32>(&ds[0], 0, 0..8).unwrap();
    assert_eq!(head.shape().dims(), &[8, 8, 8]);

    truncate_to_200(&path);
    assert_decode_error(c.read_step_rows::<f32>(&ds[0], 3, 8..16));
    assert_server_survives(&mut c, &server);
    assert_eq!(server.stats().errors, 1);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
