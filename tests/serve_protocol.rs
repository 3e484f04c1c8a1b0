//! Adversarial wire-protocol tests for `rqm serve`.
//!
//! The server's contract under hostile or broken input: every violation
//! gets either a **typed error reply** or a **clean close** — never a
//! panic, never a hang, never a dead server. After each abuse the
//! listener must still answer a fresh, well-formed client.

use rqm::prelude::*;
use rqm::serve::protocol::{encode_request, FRAME_PREFIX, MAGIC, PROTOCOL_VERSION};
use rqm::serve::{ClientError, ErrorCode, Request};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A small chunked archive (v2, 5-row chunks, 20×30 f32).
fn archive() -> Vec<u8> {
    let field = NdArray::<f32>::from_fn(Shape::d2(20, 30), |ix| {
        ((ix[0] as f32) * 0.3).sin() + ix[1] as f32 * 0.05
    });
    let cfg = CompressorConfig::new(PredictorKind::Lorenzo, ErrorBoundMode::Abs(1e-3)).chunked(5);
    compress(&field, &cfg).unwrap().bytes
}

fn server() -> Server {
    Server::bind_bytes("127.0.0.1:0", archive(), ServeConfig::default()).unwrap()
}

/// Prove the server survived: a fresh client can still round-trip.
fn assert_alive(server: &Server) {
    let mut c = Client::connect(server.local_addr()).expect("server no longer accepts");
    c.ping().expect("server no longer answers");
}

/// Hand-rolled frame with arbitrary magic/version/length/body, for
/// sending what the real client never would.
fn raw_frame(magic: &[u8; 3], version: u8, len_override: Option<u32>, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::new();
    f.extend_from_slice(magic);
    f.push(version);
    let len = len_override.unwrap_or(body.len() as u32);
    f.extend_from_slice(&len.to_le_bytes());
    f.extend_from_slice(body);
    f
}

/// Read one reply off a raw socket: `(id, status, payload)`.
fn read_reply(stream: &mut TcpStream) -> std::io::Result<(u64, u8, Vec<u8>)> {
    let mut prefix = [0u8; FRAME_PREFIX];
    stream.read_exact(&mut prefix)?;
    assert_eq!(&prefix[..3], &MAGIC, "reply must carry the protocol magic");
    assert_eq!(prefix[3], PROTOCOL_VERSION);
    let len = u32::from_le_bytes(prefix[4..8].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    assert!(body.len() >= 9, "reply body must carry id + status");
    let id = u64::from_le_bytes(body[..8].try_into().unwrap());
    Ok((id, body[8], body[9..].to_vec()))
}

/// A valid request body for op/operands, wrapped by the caller.
fn request_body(id: u64, op: u8, operands: &[u64]) -> Vec<u8> {
    let mut b = id.to_le_bytes().to_vec();
    b.push(op);
    for &v in operands {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}

fn connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// The stream must be closed: reads drain to EOF without hanging.
fn assert_closed(stream: &mut TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected clean close, got {e}"),
        }
    }
}

#[test]
fn bad_magic_gets_typed_error_then_close() {
    let server = server();
    let mut s = connect(&server);
    s.write_all(&raw_frame(b"XQS", PROTOCOL_VERSION, None, &request_body(7, 0x01, &[]))).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!(id, 0, "no id can be salvaged from an unframed stream");
    assert_eq!(status, ErrorCode::BadMagic as u8);
    assert_closed(&mut s);
    assert_alive(&server);
}

#[test]
fn bad_version_gets_typed_error_then_close() {
    let server = server();
    let mut s = connect(&server);
    s.write_all(&raw_frame(&MAGIC, 99, None, &request_body(7, 0x01, &[]))).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (0, ErrorCode::BadVersion as u8));
    assert_closed(&mut s);
    assert_alive(&server);
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let server = server();
    for huge in [u32::MAX, 1 << 30, 257] {
        let mut s = connect(&server);
        // Claim a huge body but send none; the server must reply from
        // the prefix alone instead of waiting for (or allocating) it.
        s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, Some(huge), &[])).unwrap();
        let (id, status, _) = read_reply(&mut s).unwrap();
        assert_eq!((id, status), (0, ErrorCode::Oversized as u8), "length {huge}");
        assert_closed(&mut s);
    }
    assert_alive(&server);
}

#[test]
fn truncated_frames_and_mid_request_disconnects_are_survived() {
    let server = server();
    // Cut the stream at every interesting boundary: inside the magic,
    // inside the length, inside the body.
    let full = raw_frame(&MAGIC, PROTOCOL_VERSION, None, &request_body(3, 0x03, &[0, 5]));
    for cut in [1, 3, 5, FRAME_PREFIX, full.len() - 4] {
        let mut s = connect(&server);
        s.write_all(&full[..cut]).unwrap();
        drop(s); // disconnect mid-request
    }
    assert_alive(&server);
}

#[test]
fn malformed_bodies_get_typed_errors_and_keep_the_connection() {
    let server = server();
    let mut s = connect(&server);

    // Empty body: not even an id.
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &[])).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (0, ErrorCode::Malformed as u8));

    // Id but no opcode.
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &11u64.to_le_bytes())).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (11, ErrorCode::Malformed as u8));

    // READ_ROWS with a truncated operand.
    let mut body = request_body(12, 0x03, &[4]);
    body.truncate(body.len() - 3);
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &body)).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (12, ErrorCode::Malformed as u8));

    // Trailing garbage after a complete PING.
    let mut body = request_body(13, 0x01, &[]);
    body.push(0xEE);
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &body)).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (13, ErrorCode::Malformed as u8));

    // Unknown opcode.
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &request_body(14, 0x7F, &[]))).unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (14, ErrorCode::UnknownOp as u8));

    // The frame boundary was never lost: the same connection still
    // serves a valid request.
    s.write_all(&raw_frame(&MAGIC, PROTOCOL_VERSION, None, &request_body(15, 0x01, &[]))).unwrap();
    let (id, status, payload) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (15, 0));
    assert!(payload.is_empty());
    assert_alive(&server);
}

#[test]
fn out_of_range_requests_get_typed_errors_and_keep_the_connection() {
    let server = server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let rows = c.info().rows();
    let n_chunks = c.info().n_chunks;

    let cases: Vec<(&str, ClientError)> = vec![
        ("end past extent", c.read_rows::<f32>(0..rows + 1).unwrap_err()),
        ("start past extent", c.read_rows::<f32>(rows..rows + 1).unwrap_err()),
        ("empty range", c.read_rows::<f32>(5..5).unwrap_err()),
        ("chunk past table", c.read_chunk::<f32>(n_chunks).unwrap_err()),
        ("chunk far past table", c.read_chunk::<f32>(usize::MAX).unwrap_err()),
    ];
    for (what, err) in cases {
        match err {
            ClientError::Server { code, .. } => assert!(
                code == ErrorCode::RowsOutOfRange || code == ErrorCode::ChunkOutOfRange,
                "{what}: unexpected code {code:?}"
            ),
            other => panic!("{what}: expected a typed server error, got {other}"),
        }
    }
    // Range errors are not fatal: the same client keeps working.
    c.ping().unwrap();
    let slab = c.read_rows::<f32>(0..3).unwrap();
    assert_eq!(slab.shape().dim(0), 3);

    // Wraparound bait: start+count overflows u64. Raw frame because the
    // typed client cannot express it.
    let mut s = connect(&server);
    s.write_all(&raw_frame(
        &MAGIC,
        PROTOCOL_VERSION,
        None,
        &request_body(77, 0x03, &[u64::MAX - 1, 5]),
    ))
    .unwrap();
    let (id, status, _) = read_reply(&mut s).unwrap();
    assert_eq!((id, status), (77, ErrorCode::RowsOutOfRange as u8));
    assert_alive(&server);
}

/// A chunk that fails to decode is found only after the reply's frame
/// has been started and the operands echoed into it: the client must
/// still see exactly one frame — a typed `Decode` error — and the
/// connection must stay in step for the next request.
#[test]
fn a_decode_error_mid_reply_is_one_typed_error_frame() {
    let mut bytes = archive();
    let doomed = chunk_table(&bytes).unwrap().entries[2];
    bytes[doomed.offset..doomed.offset + doomed.len].fill(0xFF);
    assert!(decompress::<f32>(&bytes).is_err(), "the wrecked chunk must not decode locally");
    let server = Server::bind_bytes("127.0.0.1:0", bytes, ServeConfig::default()).unwrap();

    let mut s = connect(&server);
    // Rows 8..12 span chunk 1, which decodes, and chunk 2, which fails.
    let doomed_requests =
        [Request::rows(8..12), Request::ReadChunk { idx: 2 }, Request::step_rows(0, 0, 10..11)];
    for (req, id) in doomed_requests.iter().zip(1..) {
        s.write_all(&encode_request(id, req)).unwrap();
        let (echo, status, message) = read_reply(&mut s).unwrap();
        assert_eq!((echo, status), (id, ErrorCode::Decode as u8), "{req:?}");
        assert!(std::str::from_utf8(&message).is_ok(), "{req:?}: a message, not scalars");
        s.write_all(&encode_request(90 + id, &Request::Ping)).unwrap();
        let (echo, status, payload) = read_reply(&mut s).unwrap();
        assert_eq!((echo, status, payload.len()), (90 + id, 0, 0), "PING after {req:?}");
    }
    // The chunks around the wrecked one are still served.
    let mut c = Client::connect(server.local_addr()).unwrap();
    assert_eq!(c.read_rows::<f32>(5..10).unwrap().shape().dim(0), 5);
    assert_eq!(server.stats().errors, 3);
}

#[test]
fn well_formed_session_round_trips() {
    let server = server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    let info = c.info().clone();
    assert_eq!(info.dims, vec![20, 30]);
    assert_eq!(info.chunk_rows, 5);
    assert_eq!(info.n_chunks, 4);
    assert_eq!(info.scalar_tag, 0x04);
    assert!((info.abs_eb - 1e-3).abs() < 1e-12);

    // Served rows must match a local decode of the same archive.
    let local = decompress::<f32>(&archive()).unwrap();
    let slab = c.read_rows::<f32>(3..17).unwrap();
    assert_eq!(slab.as_slice(), &local.as_slice()[3 * 30..17 * 30]);
    let (start, chunk) = c.read_chunk::<f32>(2).unwrap();
    assert_eq!(start, 10);
    assert_eq!(chunk.as_slice(), &local.as_slice()[10 * 30..15 * 30]);

    // Stats must reflect the session: every request counted, no errors.
    let stats = c.stats().unwrap();
    assert!(stats.requests >= 4, "requests={}", stats.requests);
    assert_eq!(stats.errors, 0);
    assert!(stats.bytes_out > 0);
    assert!(stats.chunks_decoded > 0);
}

#[test]
fn scalar_mismatch_is_caught_client_side() {
    let server = server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    match c.read_rows::<f64>(0..2) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected a protocol error, got {other:?}"),
    }
    c.ping().unwrap();
}

#[test]
fn garbage_flood_never_kills_the_server() {
    let server = server();
    // A few connections each spray random bytes and hang up.
    let mut state = 0x9E3779B97F4A7C15u64;
    for _ in 0..8 {
        let mut s = connect(&server);
        let mut junk = vec![0u8; 512];
        for b in junk.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = state as u8;
        }
        let _ = s.write_all(&junk);
        drop(s);
    }
    assert_alive(&server);
}
