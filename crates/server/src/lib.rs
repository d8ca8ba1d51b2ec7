#![forbid(unsafe_code)]
//! # bst-server — the networked sampling/reconstruction service
//!
//! `bst-shard` gives one process a mutable, sharded BloomSampleTree
//! engine; this crate puts that engine behind a socket. A `bst-server`
//! process owns one [`bst_shard::ShardedBstSystem`] and serves the full
//! facade over a small framed binary protocol: set lifecycle
//! (CREATE / INSERT_KEYS / REMOVE_KEYS / DROP_SET), occupancy churn
//! (OCC_INSERT / OCC_REMOVE), the query surface (SAMPLE, SAMPLE_MANY,
//! RECONSTRUCT, RECONSTRUCT_RANGE, BATCH — stored ids and ad-hoc
//! filters both), whole-engine snapshots (SAVE / LOAD), and a METRICS
//! scrape: the full [`bst_obs::MetricsRegistry`] as a Prometheus text
//! page, the one stats surface (engine shape, weight-cache
//! effectiveness, cumulative engine OpStats, per-op latency
//! percentiles, serving counters). [`bst_obs::expo::scrape`] reads a
//! single value back off the page.
//!
//! ## Layering
//!
//! * [`frame`] — length-prefixed framing over any byte stream.
//! * [`protocol`] — typed [`protocol::Request`] / [`protocol::Response`]
//!   / [`protocol::WireError`] enums and their deterministic codec,
//!   following the `bst_core::persistence` conventions.
//! * [`session`] — per-connection caches of open
//!   [`bst_shard::ShardQuery`] handles, so repeat queries ride the
//!   engine's warm path across the wire; epoch-flushed when a wire
//!   `LOAD` swaps the engine.
//! * [`handler`] — request dispatch onto the engine facade.
//! * [`server`] — the accept loop, worker threads, backpressure
//!   (max-connections → typed `Busy`, max-frame-size → drain +
//!   `FrameTooLarge`), and clean shutdown.
//! * [`client`] — a small blocking client used by the CLI, the
//!   `tcp_service` example, and the e2e tests.
//! * [`stats`] — the operation classes that per-op latency is
//!   accounted under (`bst_server_request_latency_us{op=…}`).
//!
//! ## Observability
//!
//! Every server owns one [`bst_obs::MetricsRegistry`] (server counters,
//! engine shape, weight-cache outcomes, batch-phase timings, request
//! latency summaries) and one [`bst_obs::RingRecorder`] installed as
//! the engine's tracer, so core query spans and shard batch spans are
//! inspectable in-process via `ServerState::trace_dump`. Engine-shape
//! series read through a weak reference at scrape time and therefore
//! follow the engine across wire `LOAD` swaps.
//!
//! ## Determinism across the wire
//!
//! Sampling commands carry a client-chosen RNG seed and the server
//! draws from a fresh seeded generator per request, so a wire sample
//! against a given engine state is bit-identical to an in-process
//! `StdRng::seed_from_u64(seed)` draw against the same state — warm or
//! cold, local or remote. The e2e tests pin exactly that.
//!
//! ```no_run
//! use bst_server::client::Client;
//! use bst_server::protocol::Target;
//! use bst_server::server::{serve, ServerConfig};
//! use bst_shard::ShardedBstSystem;
//!
//! let engine = ShardedBstSystem::builder(65_536).shards(4).build();
//! let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let set = client.create((0..512u64).collect()).unwrap();
//! let key = client.sample(Target::Stored(set), 42).unwrap();
//! assert!(key < 65_536);
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod handler;
pub mod protocol;
pub mod server;
pub mod session;
pub mod stats;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response, Target, WireError};
pub use server::{serve, ServerConfig, ServerHandle};
