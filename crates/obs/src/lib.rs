#![forbid(unsafe_code)]
//! # bst-obs — the unified observability substrate
//!
//! Every layer of the BloomSampleTree stack produces numbers worth
//! watching: the paper's own evaluation units (§7.1 — intersections and
//! memberships, threaded through `bst_core::metrics::OpStats`), the
//! sharded engine's weight-cache hit/repair/miss outcomes and two-phase
//! batch timings, and the server's per-op latency histograms and
//! connection gauges. Before this crate each of those was its own silo;
//! `bst-obs` gives them one registry and one tracing facade.
//!
//! ## Two surfaces
//!
//! * **Metrics** ([`metrics`]): a [`MetricsRegistry`] of named series.
//!   Handles ([`Counter`], [`Gauge`], [`AtomicHistogram`]) are cheap
//!   `Arc`-of-atomics clones — recording is lock-free; the registry
//!   lock is touched only at registration and render time. Series that
//!   must survive engine swaps (a wire `LOAD` replaces the whole
//!   engine) register as *callbacks* that read the live value at scrape
//!   time instead of pinning a dead handle.
//! * **Tracing** ([`trace`]): a [`Tracer`] facade costing one relaxed
//!   atomic load (plus a branch) per operation while disabled. When a
//!   [`Recorder`] is installed, operations emit [`SpanEvent`]s — name,
//!   wall duration, and a small set of `u64` attributes (the `OpStats`
//!   deltas, batch slot counts, …). [`RingRecorder`] keeps a bounded
//!   in-memory ring of the most recent spans for post-hoc debugging of
//!   slow operations; [`NoopRecorder`] measures the enabled-path
//!   overhead without retaining anything.
//!
//! ## Exposition
//!
//! [`expo::render`] serialises a registry in the Prometheus text
//! format (counters, gauges, and summary-style quantile/`_sum`/`_count`
//! rows for histograms); [`expo::validate`] is the matching
//! well-formedness checker the CLI and CI smoke test reuse, so a
//! malformed scrape fails loudly instead of rotting silently, and
//! [`expo::scrape`] reads one series' value back off a page.
//!
//! "Zero-dependency" here means: nothing beyond the sanctioned vendored
//! `parking_lot` locks — no new third-party surface.

#![warn(missing_docs)]

pub mod expo;
pub mod metrics;
pub mod trace;
pub mod wal;

pub use metrics::{
    AtomicHistogram, Counter, Gauge, HistogramSnapshot, MetricsRegistry, Observation, Sample,
};
pub use trace::{NoopRecorder, Recorder, RingRecorder, SpanEvent, Tracer};
pub use wal::WalObs;
