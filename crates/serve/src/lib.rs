//! Archive read service: serve a compressed archive to many clients
//! over TCP, decoding each chunk at most once per residency.
//!
//! Three layers, each usable on its own:
//!
//! - [`protocol`] — the length-prefixed binary wire format
//!   (`docs/PROTOCOL.md` is the byte-level spec; this module is the
//!   shared implementation).
//! - [`cache`] — [`ChunkCache`], a byte-budgeted LRU of decoded chunks
//!   with single-flight coalescing, implementing the same
//!   [`ChunkSource`](rq_compress::ChunkSource) trait it wraps.
//! - [`server`] / [`client`] — the thread-per-connection daemon behind
//!   `rqm serve` and the blocking [`Client`] behind `rqm read --addr`.
//!   The server knows one representation: a list of datasets, each a
//!   [`ChunkCache`] over a flattened, time-major chunk source — a plain
//!   archive is the one-dataset, one-step case — and writes every reply
//!   once, in its frame.
//!
//! ```no_run
//! use rq_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::bind_path(
//!     "127.0.0.1:0",
//!     std::path::Path::new("field.rqm"),
//!     ServeConfig::default(),
//! ).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let rows = client.read_rows::<f32>(10..20).unwrap();
//! assert_eq!(rows.shape().dim(0), 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ChunkCache};
pub use client::{ArchiveInfo, Client, ClientError, DatasetInfo};
pub use protocol::{ErrorCode, Request};
pub use server::{ServeConfig, ServeStats, Server, SINGLE_ARCHIVE_DATASET};
