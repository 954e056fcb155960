//! The pbdmm network tier: a deployable server for the batch-dynamic
//! matching service.
//!
//! PRs 3–5 made the structure *servable in process* — group-commit
//! coalescing, a durable WAL, epoch-snapshot reads. This crate is the layer
//! that lets clients live **outside** the process:
//!
//! * [`proto`] — the versioned, length-prefixed wire protocol: an 8-byte
//!   magic/version handshake, then [`proto::Request`] /
//!   [`proto::Response`] frames with a streaming decoder that treats torn
//!   and hostile input with the WAL reader's rigor (lengths bounds-checked
//!   before buffering, truncation detected, never a panic).
//! * [`daemon`] — a std-only TCP daemon (one reader/writer thread pair per
//!   connection, no async runtime) funneling every connection into one
//!   [`ServiceHandle`]/[`QueryHandle`], so coalescing, WAL durability,
//!   epoch snapshots, and read-your-writes come for free; the wire tier
//!   adds admission control (connection cap + bounded per-connection
//!   in-flight window → [`proto::ErrorCode::Overloaded`], never an
//!   unbounded queue) and fault isolation (a protocol violation closes
//!   *that* connection only).
//! * [`client`] — a small blocking client: the handshake, pipelined
//!   request submission, and response correlation (delta-event frames may
//!   interleave with responses; the client surfaces both).
//! * [`load`] — the multi-connection load generator behind `pbdmm load`:
//!   M concurrent connections drive the daemon with the same synthetic
//!   workload family as the in-process `pbdmm serve`, reporting the same
//!   throughput / ticket-latency / snapshot-staleness metrics so
//!   in-process vs over-the-wire overhead is directly comparable.
//!
//! # Quickstart (loopback)
//!
//! ```
//! use pbdmm_net::client::Client;
//! use pbdmm_net::daemon::{Daemon, DaemonConfig};
//! use pbdmm_matching::DynamicMatching;
//!
//! let daemon = Daemon::start(DynamicMatching::with_seed(7), DaemonConfig::default()).unwrap();
//! let addr = daemon.local_addr();
//! let stop = daemon.stop_handle();
//! let server = std::thread::spawn(move || daemon.run());
//!
//! let mut c = Client::connect(addr).unwrap();
//! let done = c.submit_updates(vec![pbdmm_graph::Update::Insert(vec![0, 1])]).unwrap();
//! assert_eq!(done.results.len(), 1);
//! let q = c.point_query(0).unwrap();
//! assert!(q.epoch >= done.epoch); // read your writes, over the wire
//!
//! stop.stop();
//! let report = server.join().unwrap();
//! assert_eq!(report.structure.num_edges(), 1);
//! ```
//!
//! [`ServiceHandle`]: pbdmm_service::ServiceHandle
//! [`QueryHandle`]: pbdmm_service::QueryHandle

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod load;
pub mod proto;

pub use client::{Client, Mirror};
pub use daemon::{Daemon, DaemonConfig, DaemonReport, StopHandle, WireCounters};
pub use load::{run_load, LoadConfig, LoadReport};
pub use proto::{ErrorCode, FrameError, Request, Response, UpdateResult, WireStats};
