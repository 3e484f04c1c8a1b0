//! The `rqm serve` wire protocol: length-prefixed binary frames over TCP.
//!
//! The byte-exact layout lives in `docs/PROTOCOL.md`; this module is its
//! single implementation, shared by the server and the client so the two
//! cannot drift. In brief, every frame — request or response — is
//!
//! ```text
//! offset  size  field
//! 0       3     magic  b"RQS"
//! 3       1     protocol version (2)
//! 4       4     u32 LE body length
//! 8       n     body
//! ```
//!
//! A request body is `request id (u64 LE) + opcode (u8) + operands`; a
//! response body is `request id (u64 LE) + status (u8) + payload`, where
//! status `0` is success and anything else is a typed [`ErrorCode`] whose
//! payload is a UTF-8 message. Integers are little-endian throughout, as
//! everywhere else in the container formats.

use std::io::{self, Read, Write};
use std::ops::Range;

/// Frame magic: the first three bytes of every request and response.
pub const MAGIC: [u8; 3] = *b"RQS";

/// Protocol version carried in byte 3 of every frame. Version 2 added
/// the catalog opcodes `LIST_DATASETS` and `READ_STEP_ROWS` (and their
/// range error codes); v1 peers are refused with `BadVersion` rather
/// than silently missing datasets.
pub const PROTOCOL_VERSION: u8 = 2;

/// Fixed frame prefix size: magic + version + body length.
pub const FRAME_PREFIX: usize = 8;

/// Upper bound on a *request* body. Requests carry at most an id, an
/// opcode and a handful of fixed-width operands, so anything bigger is
/// hostile or garbage and is rejected with [`ErrorCode::Oversized`]
/// before allocation.
pub const MAX_REQUEST_BODY: u32 = 256;

/// Upper bound on a *response* body the client will accept (1 GiB):
/// large enough for any realistic row range, small enough that a
/// malicious length prefix cannot make the client allocate unboundedly.
pub const MAX_RESPONSE_BODY: u32 = 1 << 30;

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Liveness probe; empty reply.
    Ping = 0x01,
    /// Archive metadata (shape, scalar, chunking, bound).
    Info = 0x02,
    /// Decode an axis-0 row range.
    ReadRows = 0x03,
    /// Decode one whole chunk.
    ReadChunk = 0x04,
    /// Server counters snapshot.
    Stats = 0x05,
    /// Enumerate the catalog's datasets (v2; single archives report one
    /// pseudo-dataset).
    ListDatasets = 0x06,
    /// Decode an axis-0 row range of one `(dataset, step)` (v2).
    ReadStepRows = 0x07,
}

/// Typed error codes carried in a response's status byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Frame did not start with `RQS`.
    BadMagic = 0x01,
    /// Unknown protocol version byte.
    BadVersion = 0x02,
    /// Request body length over [`MAX_REQUEST_BODY`].
    Oversized = 0x03,
    /// Body shorter than its opcode requires, or trailing bytes.
    Malformed = 0x04,
    /// Unknown opcode.
    UnknownOp = 0x05,
    /// Row range outside the field's axis-0 extent.
    RowsOutOfRange = 0x06,
    /// Chunk index outside the chunk table.
    ChunkOutOfRange = 0x07,
    /// The archive failed to decode (corrupt container, I/O failure).
    Decode = 0x08,
    /// Dataset index outside the catalog (v2).
    DatasetOutOfRange = 0x09,
    /// Step index outside the dataset's step count (v2).
    StepOutOfRange = 0x0a,
}

impl ErrorCode {
    /// Decode a status byte (`0` is success, not an error code).
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            0x01 => ErrorCode::BadMagic,
            0x02 => ErrorCode::BadVersion,
            0x03 => ErrorCode::Oversized,
            0x04 => ErrorCode::Malformed,
            0x05 => ErrorCode::UnknownOp,
            0x06 => ErrorCode::RowsOutOfRange,
            0x07 => ErrorCode::ChunkOutOfRange,
            0x08 => ErrorCode::Decode,
            0x09 => ErrorCode::DatasetOutOfRange,
            0x0a => ErrorCode::StepOutOfRange,
            _ => return None,
        })
    }

    /// Stable lower-case name (used in error messages and logs).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::RowsOutOfRange => "rows-out-of-range",
            ErrorCode::ChunkOutOfRange => "chunk-out-of-range",
            ErrorCode::Decode => "decode",
            ErrorCode::DatasetOutOfRange => "dataset-out-of-range",
            ErrorCode::StepOutOfRange => "step-out-of-range",
        }
    }

    /// Whether the server can keep the connection after replying: once
    /// framing itself is in doubt (wrong magic/version, a length the
    /// server refused to read), the stream cannot be resynchronized and
    /// the reply is followed by a close. Body-level errors leave the
    /// frame boundary intact, so the connection survives.
    pub fn is_fatal(self) -> bool {
        matches!(self, ErrorCode::BadMagic | ErrorCode::BadVersion | ErrorCode::Oversized)
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Archive metadata.
    Info,
    /// Rows `start..start + count`.
    ReadRows {
        /// First axis-0 row.
        start: u64,
        /// Number of rows.
        count: u64,
    },
    /// Chunk `idx`, whole.
    ReadChunk {
        /// Chunk index in slab order.
        idx: u64,
    },
    /// Server counters snapshot.
    Stats,
    /// Enumerate datasets.
    ListDatasets,
    /// Rows `start..start + count` of one `(dataset, step)`.
    ReadStepRows {
        /// Dataset index in catalog order.
        dataset: u32,
        /// Time step within the dataset.
        step: u64,
        /// First axis-0 row of the step.
        start: u64,
        /// Number of rows.
        count: u64,
    },
}

impl Request {
    /// Convenience constructor from a row range.
    pub fn rows(r: Range<usize>) -> Request {
        Request::ReadRows { start: r.start as u64, count: (r.end - r.start) as u64 }
    }

    /// Convenience constructor from a `(dataset, step)` row range.
    pub fn step_rows(dataset: u32, step: u64, r: Range<usize>) -> Request {
        Request::ReadStepRows {
            dataset,
            step,
            start: r.start as u64,
            count: (r.end - r.start) as u64,
        }
    }
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian f64.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A little-endian cursor over a response/request body, with typed
/// underrun errors instead of panics.
pub struct Take<'a>(pub &'a [u8]);

impl<'a> Take<'a> {
    /// Next u8.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let (&b, rest) = self.0.split_first().ok_or(WireError::Short)?;
        self.0 = rest;
        Ok(b)
    }

    /// Next little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Next little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Next little-endian f64.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Short);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// The body must be fully consumed (trailing bytes are malformed).
    pub fn finish(self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

/// Body-level parse failures (both map to [`ErrorCode::Malformed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Body ended before a required field.
    Short,
    /// Unconsumed bytes after the last field.
    Trailing,
}

/// Start a frame in place: the prefix with the body length left open,
/// then the id every body begins with. The caller appends the tag byte
/// (a request's opcode, a reply's status) and the rest of the body, and
/// seals it with [`end_frame`] — so a frame is written once, in the
/// buffer it is sent from.
pub(crate) fn begin_frame(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    put_u32(&mut out, 0);
    put_u64(&mut out, id);
    out
}

/// Seal a frame started by [`begin_frame`]: patch the body length in.
pub(crate) fn end_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let body_len = (frame.len() - FRAME_PREFIX) as u32;
    frame[4..FRAME_PREFIX].copy_from_slice(&body_len.to_le_bytes());
    frame
}

/// Encode one request frame.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = begin_frame(id);
    match *req {
        Request::Ping => out.push(Op::Ping as u8),
        Request::Info => out.push(Op::Info as u8),
        Request::ReadRows { start, count } => {
            out.push(Op::ReadRows as u8);
            put_u64(&mut out, start);
            put_u64(&mut out, count);
        }
        Request::ReadChunk { idx } => {
            out.push(Op::ReadChunk as u8);
            put_u64(&mut out, idx);
        }
        Request::Stats => out.push(Op::Stats as u8),
        Request::ListDatasets => out.push(Op::ListDatasets as u8),
        Request::ReadStepRows { dataset, step, start, count } => {
            out.push(Op::ReadStepRows as u8);
            put_u32(&mut out, dataset);
            put_u64(&mut out, step);
            put_u64(&mut out, start);
            put_u64(&mut out, count);
        }
    }
    end_frame(out)
}

/// Encode a typed error response frame: echoed id (0 when the request
/// was too broken to carry one), the error code as the status byte, and
/// the message as the payload.
pub fn encode_err(id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = begin_frame(id);
    out.push(code as u8);
    out.extend_from_slice(message.as_bytes());
    end_frame(out)
}

/// Parse a request body (everything after the frame prefix) into its id
/// and [`Request`]. On failure returns the id that could be salvaged
/// (for echoing) and the [`ErrorCode`] to reply with.
pub fn parse_request(body: &[u8]) -> Result<(u64, Request), (u64, ErrorCode)> {
    let mut t = Take(body);
    let id = t.u8_body_id()?;
    let op = t.u8().map_err(|_| (id, ErrorCode::Malformed))?;
    let done = |id, t: Take<'_>, req| -> Result<(u64, Request), (u64, ErrorCode)> {
        t.finish().map_err(|_| (id, ErrorCode::Malformed))?;
        Ok((id, req))
    };
    match op {
        x if x == Op::Ping as u8 => done(id, t, Request::Ping),
        x if x == Op::Info as u8 => done(id, t, Request::Info),
        x if x == Op::ReadRows as u8 => {
            let start = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            let count = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            done(id, t, Request::ReadRows { start, count })
        }
        x if x == Op::ReadChunk as u8 => {
            let idx = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            done(id, t, Request::ReadChunk { idx })
        }
        x if x == Op::Stats as u8 => done(id, t, Request::Stats),
        x if x == Op::ListDatasets as u8 => done(id, t, Request::ListDatasets),
        x if x == Op::ReadStepRows as u8 => {
            let dataset = t.u32().map_err(|_| (id, ErrorCode::Malformed))?;
            let step = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            let start = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            let count = t.u64().map_err(|_| (id, ErrorCode::Malformed))?;
            done(id, t, Request::ReadStepRows { dataset, step, start, count })
        }
        _ => Err((id, ErrorCode::UnknownOp)),
    }
}

impl<'a> Take<'a> {
    /// The leading request id, or `(0, Malformed)` when the body cannot
    /// even carry one.
    fn u8_body_id(&mut self) -> Result<u64, (u64, ErrorCode)> {
        self.u64().map_err(|_| (0, ErrorCode::Malformed))
    }
}

/// What [`read_frame`] saw on the wire.
pub enum Frame {
    /// A complete body (magic and version already validated and
    /// stripped).
    Body(Vec<u8>),
    /// The peer closed cleanly at a frame boundary.
    Eof,
    /// A framing violation: reply with the code (echoing id 0) and close.
    Bad(ErrorCode),
}

/// Read one frame off `src`, enforcing `max_body`. Returns [`Frame::Eof`]
/// only when the stream ends *between* frames; a stream that dies inside
/// a frame surfaces as an [`io::Error`] (for the server: a mid-request
/// disconnect, logged and dropped, never a panic).
pub fn read_frame<R: Read>(src: &mut R, max_body: u32) -> io::Result<Frame> {
    let mut prefix = [0u8; FRAME_PREFIX];
    // Distinguish clean EOF (0 bytes) from a truncated prefix.
    let mut got = 0usize;
    while got < FRAME_PREFIX {
        match src.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(Frame::Eof),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame prefix",
                ))
            }
            n => got += n,
        }
    }
    if prefix[..3] != MAGIC {
        return Ok(Frame::Bad(ErrorCode::BadMagic));
    }
    if prefix[3] != PROTOCOL_VERSION {
        return Ok(Frame::Bad(ErrorCode::BadVersion));
    }
    let len = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
    if len > max_body {
        return Ok(Frame::Bad(ErrorCode::Oversized));
    }
    let mut body = vec![0u8; len as usize];
    src.read_exact(&mut body)?;
    Ok(Frame::Body(body))
}

/// Write one already-encoded frame.
pub fn write_frame<W: Write>(dst: &mut W, frame: &[u8]) -> io::Result<()> {
    dst.write_all(frame)?;
    dst.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        for req in [
            Request::Ping,
            Request::Info,
            Request::Stats,
            Request::ReadRows { start: 3, count: 17 },
            Request::ReadChunk { idx: 9 },
            Request::ListDatasets,
            Request::ReadStepRows { dataset: 2, step: 5, start: 3, count: 17 },
        ] {
            let f = encode_request(42, &req);
            assert_eq!(&f[..3], &MAGIC);
            assert_eq!(f[3], PROTOCOL_VERSION);
            let len = u32::from_le_bytes(f[4..8].try_into().unwrap()) as usize;
            assert_eq!(len, f.len() - FRAME_PREFIX);
            let (id, back) = parse_request(&f[FRAME_PREFIX..]).unwrap();
            assert_eq!(id, 42);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn parse_rejects_malformed_bodies() {
        // Too short for an id.
        assert_eq!(parse_request(&[1, 2, 3]), Err((0, ErrorCode::Malformed)));
        // Id but no opcode.
        assert_eq!(parse_request(&7u64.to_le_bytes()), Err((7, ErrorCode::Malformed)));
        // Unknown opcode echoes the id.
        let mut b = 7u64.to_le_bytes().to_vec();
        b.push(0x7f);
        assert_eq!(parse_request(&b), Err((7, ErrorCode::UnknownOp)));
        // Truncated operands.
        let mut b = 7u64.to_le_bytes().to_vec();
        b.push(Op::ReadRows as u8);
        b.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(parse_request(&b), Err((7, ErrorCode::Malformed)));
        // Trailing garbage after a complete request.
        let mut b = encode_request(7, &Request::Ping)[FRAME_PREFIX..].to_vec();
        b.push(0);
        assert_eq!(parse_request(&b), Err((7, ErrorCode::Malformed)));
    }

    #[test]
    fn read_frame_flags_framing_violations() {
        use std::io::Cursor;
        // Clean EOF at a boundary.
        assert!(matches!(read_frame(&mut Cursor::new(b"".to_vec()), 256).unwrap(), Frame::Eof));
        // Truncated prefix is an I/O error, not Eof.
        assert!(read_frame(&mut Cursor::new(b"RQS".to_vec()), 256).is_err());
        // Bad magic.
        let mut f = encode_request(1, &Request::Ping);
        f[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(f), 256).unwrap(),
            Frame::Bad(ErrorCode::BadMagic)
        ));
        // Bad version.
        let mut f = encode_request(1, &Request::Ping);
        f[3] = 9;
        assert!(matches!(
            read_frame(&mut Cursor::new(f), 256).unwrap(),
            Frame::Bad(ErrorCode::BadVersion)
        ));
        // Oversized length prefix is refused before any allocation.
        let mut f = encode_request(1, &Request::Ping);
        f[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(f), 256).unwrap(),
            Frame::Bad(ErrorCode::Oversized)
        ));
        // Truncated body is an I/O error.
        let f = encode_request(1, &Request::ReadRows { start: 0, count: 1 });
        let cut = f.len() - 3;
        assert!(read_frame(&mut Cursor::new(f[..cut].to_vec()), 256).is_err());
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::Oversized,
            ErrorCode::Malformed,
            ErrorCode::UnknownOp,
            ErrorCode::RowsOutOfRange,
            ErrorCode::ChunkOutOfRange,
            ErrorCode::Decode,
            ErrorCode::DatasetOutOfRange,
            ErrorCode::StepOutOfRange,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(0xff), None);
        assert!(ErrorCode::BadMagic.is_fatal());
        assert!(ErrorCode::Oversized.is_fatal());
        assert!(!ErrorCode::RowsOutOfRange.is_fatal());
        assert!(!ErrorCode::Malformed.is_fatal());
    }
}
