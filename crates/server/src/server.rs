//! The TCP service: accept loop, worker threads, backpressure, and
//! clean shutdown.
//!
//! One thread per connection over a nonblocking accept loop — no async
//! runtime in the vendor set, and the engine's scatter-gather already
//! spreads a single request across cores, so connection concurrency is
//! the right (and sufficient) unit of parallelism here.
//!
//! ## Backpressure
//!
//! * **Connections:** at most [`ServerConfig::max_connections`] workers
//!   at once. An arrival beyond that is answered with a typed
//!   [`WireError::Busy`] frame and closed immediately — the client gets
//!   a verdict, not a hang.
//! * **Frames:** a request frame declaring more than
//!   [`ServerConfig::max_frame`] payload bytes is drained off the socket
//!   (bounded scratch, nothing allocated at the declared size) and
//!   answered with [`WireError::FrameTooLarge`]; the connection stays
//!   usable for well-formed follow-ups.
//!
//! ## Shutdown
//!
//! A single `AtomicBool` is observed by the accept loop and by every
//! worker's read poll (sockets run with short read timeouts, so no
//! thread ever blocks past the poll interval). Shutdown arrives either
//! in-process via [`ServerHandle::shutdown`] or over the wire via the
//! `SHUTDOWN` opcode, which replies `Ok` first and then raises the flag.

use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use bst_core::OpStats;
use bst_obs::{
    AtomicHistogram, Counter, Gauge, MetricsRegistry, Recorder, RingRecorder, SpanEvent,
};
use bst_shard::{BatchObs, DurableBstSystem, ShardedBstSystem};

use crate::frame::write_frame;
use crate::handler;
use crate::protocol::{self, WireError};
use crate::session::Session;
use crate::stats::OpClass;

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// Accept-loop idle backoff: first retry after an empty accept. Arrivals
/// during a quiet spell wait at most the current backoff, so the floor
/// keeps post-idle connection latency in the sub-millisecond range.
const ACCEPT_IDLE_MIN: Duration = Duration::from_micros(200);

/// Accept-loop idle backoff ceiling. A long-idle listener burns one poll
/// every 5ms instead of spinning, and still answers a new connection
/// within 5ms worst-case.
const ACCEPT_IDLE_MAX: Duration = Duration::from_millis(5);

/// Spans kept by the server's trace ring (oldest evicted first).
const TRACE_RING_CAP: usize = 1024;

/// Serving limits; the defaults suit tests and small deployments.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Connections served concurrently before arrivals get `Busy`.
    pub max_connections: usize,
    /// Largest accepted request payload, in bytes. Must cover the
    /// snapshots `LOAD` ships; the 64 MiB default fits engines far past
    /// the test sizes.
    pub max_frame: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_frame: 64 << 20,
        }
    }
}

/// The engine behind the service, swap-able as a unit by wire `LOAD`.
pub struct Engine {
    /// Bumped on every engine swap; sessions compare-and-flush.
    pub epoch: u64,
    /// The sharded system itself.
    pub system: ShardedBstSystem,
}

/// Cumulative engine-side [`OpStats`] totals, drained from every served
/// query (handles and batches both). Server-owned, so they survive a
/// wire `LOAD` swapping the engine.
#[derive(Default)]
pub struct EngineOpTotals {
    /// Bloom probe intersections (paper §7.1 units).
    pub intersections: Counter,
    /// Individual membership tests.
    pub memberships: Counter,
    /// Tree nodes visited.
    pub nodes_visited: Counter,
    /// Sampling descent backtracks.
    pub backtracks: Counter,
}

impl EngineOpTotals {
    fn note(&self, stats: OpStats) {
        self.intersections.add(stats.intersections);
        self.memberships.add(stats.memberships);
        self.nodes_visited.add(stats.nodes_visited);
        self.backtracks.add(stats.backtracks);
    }
}

/// State shared by the accept loop and every worker.
pub struct ServerState {
    /// The served engine, behind a read-write lock: requests take read,
    /// only `LOAD` takes write.
    pub engine: RwLock<Engine>,
    /// Served request latency in microseconds, indexed by
    /// `OpClass as usize`.
    pub latency: [AtomicHistogram; OpClass::ALL.len()],
    /// The unified metrics registry behind the `METRICS` opcode and the
    /// `bst-server metrics` CLI scrape.
    pub metrics: MetricsRegistry,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    sessions_served: Counter,
    sessions_refused: Counter,
    frames_served: Counter,
    /// Frames refused before dispatch: zero-length, over-limit, or
    /// undecodable payloads.
    frame_errors: Counter,
    /// Warm [`Session`] handle slots currently held across all live
    /// connections (stored + ad-hoc caches).
    session_slots: Gauge,
    pub(crate) engine_ops: EngineOpTotals,
    pub(crate) trace: Arc<RingRecorder>,
    pub(crate) batch_obs: Arc<BatchObs>,
    /// The durability layer, when serving with a WAL directory: every
    /// mutation routes through it (logged before the ack), `SAVE` maps
    /// to checkpoint + log truncation, and `LOAD` with an empty body
    /// maps to recovery from disk.
    pub(crate) durable: Option<DurableBstSystem>,
}

impl ServerState {
    fn new(system: ShardedBstSystem, cfg: ServerConfig, durable: Option<DurableBstSystem>) -> Self {
        ServerState {
            engine: RwLock::new(Engine { epoch: 0, system }),
            latency: OpClass::ALL.map(|_| AtomicHistogram::new()),
            metrics: MetricsRegistry::new(),
            cfg,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            sessions_served: Counter::new(),
            sessions_refused: Counter::new(),
            frames_served: Counter::new(),
            frame_errors: Counter::new(),
            session_slots: Gauge::new(),
            engine_ops: EngineOpTotals::default(),
            trace: Arc::new(RingRecorder::new(TRACE_RING_CAP)),
            batch_obs: Arc::new(BatchObs::unregistered()),
            durable,
        }
    }

    /// The durability layer, if this server was started with one
    /// ([`serve_durable`]) — test and embedding visibility.
    pub fn durable(&self) -> Option<&DurableBstSystem> {
        self.durable.as_ref()
    }

    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown; every loop exits within its poll interval.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u32 {
        self.active.load(Ordering::Relaxed) as u32
    }

    /// Folds one served query's drained [`OpStats`] into the cumulative
    /// engine totals (`bst_engine_ops_total`).
    pub(crate) fn note_engine_stats(&self, stats: OpStats) {
        self.engine_ops.note(stats);
    }

    /// The most recent spans emitted by the engine's tracer (core query
    /// ops and shard batches), oldest first — the in-process trace-dump
    /// surface for embedders and tests.
    pub fn trace_dump(&self) -> Vec<SpanEvent> {
        self.trace.recent()
    }

    /// Installs the trace ring and batch-phase histograms into `system`
    /// — called at startup and again after every wire `LOAD`, so a
    /// replacement engine keeps reporting into the same sinks.
    pub(crate) fn instrument_engine(&self, system: &ShardedBstSystem) {
        system.set_recorder(Some(self.trace.clone() as Arc<dyn Recorder>));
        system.set_batch_obs(Some(Arc::clone(&self.batch_obs)));
    }
}

/// Registers every server- and engine-level series on `state.metrics`.
/// Engine-shape and weight-cache series read through a [`Weak`] back
/// into the state at scrape time, so they follow the engine across wire
/// `LOAD` swaps instead of pinning a dead engine's counters.
fn install_metrics(state: &Arc<ServerState>) {
    let m = &state.metrics;
    let weak = |f: fn(&ServerState) -> f64| {
        let w = std::sync::Arc::downgrade(state);
        move || w.upgrade().map_or(0.0, |s| f(&s))
    };

    m.gauge_fn(
        "bst_server_active_connections",
        "Connections currently being served",
        &[],
        weak(|s| s.active_connections() as f64),
    );
    for (name, help, handle) in [
        (
            "bst_server_sessions_served_total",
            "Connections accepted and served since startup",
            &state.sessions_served,
        ),
        (
            "bst_server_sessions_refused_total",
            "Connections refused by the max-connections policy",
            &state.sessions_refused,
        ),
        (
            "bst_server_frames_served_total",
            "Frames processed since startup",
            &state.frames_served,
        ),
    ] {
        m.register_counter(name, help, &[], handle.clone());
    }
    m.register_counter(
        "bst_server_frame_errors_total",
        "Frames refused before dispatch (zero-length, over-limit, or undecodable)",
        &[],
        state.frame_errors.clone(),
    );
    m.register_gauge(
        "bst_server_session_slots",
        "Warm query-handle slots held across all live sessions",
        &[],
        state.session_slots.clone(),
    );
    for (class, hist) in OpClass::ALL.iter().zip(&state.latency) {
        m.register_histogram(
            "bst_server_request_latency_us",
            "Served request latency in microseconds, by operation class",
            &[("op", class.name())],
            hist.clone(),
        );
    }
    for (kind, handle) in [
        ("intersections", &state.engine_ops.intersections),
        ("memberships", &state.engine_ops.memberships),
        ("nodes_visited", &state.engine_ops.nodes_visited),
        ("backtracks", &state.engine_ops.backtracks),
    ] {
        m.register_counter(
            "bst_engine_ops_total",
            "Cumulative engine OpStats drained from served queries (paper \u{a7}7.1 units)",
            &[("kind", kind)],
            handle.clone(),
        );
    }
    m.register_counter(
        "bst_engine_batches_total",
        "Two-phase scatter-gather batches served",
        &[],
        state.batch_obs.batches.clone(),
    );
    m.register_histogram(
        "bst_engine_batch_weigh_us",
        "Batch phase-1 (weighing) wall time in microseconds",
        &[],
        state.batch_obs.weigh_us.clone(),
    );
    m.register_histogram(
        "bst_engine_batch_sample_us",
        "Batch phase-2 (sampling) wall time in microseconds",
        &[],
        state.batch_obs.sample_us.clone(),
    );
    for (name, help, read) in [
        (
            "bst_engine_namespace",
            "Namespace size M",
            (|s: &ServerState| s.engine.read().system.namespace() as f64)
                as fn(&ServerState) -> f64,
        ),
        ("bst_engine_shards", "Shard count S", |s| {
            s.engine.read().system.shard_count() as f64
        }),
        ("bst_engine_sets", "Registered stored sets", |s| {
            s.engine.read().system.len() as f64
        }),
        ("bst_engine_occupied", "Occupied namespace ids", |s| {
            s.engine.read().system.occupied_count() as f64
        }),
        (
            "bst_engine_epoch",
            "Engine epoch (bumps on every wire LOAD)",
            |s| s.engine.read().epoch as f64,
        ),
    ] {
        m.gauge_fn(name, help, &[], weak(read));
    }
    for (kind, read) in [
        (
            "hits",
            (|s: &ServerState| s.engine.read().system.weight_cache_stats().hits)
                as fn(&ServerState) -> u64,
        ),
        ("misses", |s| {
            s.engine.read().system.weight_cache_stats().misses
        }),
        ("repairs", |s| {
            s.engine.read().system.weight_cache_stats().repairs
        }),
    ] {
        let w = std::sync::Arc::downgrade(state);
        m.counter_fn(
            "bst_engine_weight_cache_total",
            "Persistent weight-cache probe outcomes (follows the engine across LOAD)",
            &[("kind", kind)],
            move || w.upgrade().map_or(0, |s| read(&s)),
        );
    }
}

/// A running server: its bound address and the means to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state — test and embedding visibility.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Signals shutdown and joins the accept loop (which joins all
    /// workers). Idempotent.
    pub fn shutdown(&mut self) {
        self.state.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops — e.g. a client sent `SHUTDOWN`.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts serving `system` on a background accept
/// thread. Returns once the listener is bound and accepting.
pub fn serve<A: ToSocketAddrs>(
    system: ShardedBstSystem,
    addr: A,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_inner(system, None, addr, cfg)
}

/// Like [`serve`], but crash-safe: serves the engine recovered inside
/// `durable` and routes every mutation through its write-ahead log.
/// `SAVE` becomes "checkpoint + truncate the log" and `LOAD` with an
/// empty body becomes "recover from disk"; the WAL metrics bundle joins
/// the `METRICS` exposition page.
pub fn serve_durable<A: ToSocketAddrs>(
    durable: DurableBstSystem,
    addr: A,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let system = durable.system();
    serve_inner(system, Some(durable), addr, cfg)
}

fn serve_inner<A: ToSocketAddrs>(
    system: ShardedBstSystem,
    durable: Option<DurableBstSystem>,
    addr: A,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(system, cfg, durable));
    state.instrument_engine(&state.engine.read().system);
    install_metrics(&state);
    if let Some(durable) = &state.durable {
        // WAL series are owned by the durability layer, not the engine,
        // so plain handle registration survives LOAD engine swaps.
        durable.obs().register(&state.metrics);
    }
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("bst-server-accept".into())
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
    })
}

/// Sleeps `total` in short slices, returning early the moment shutdown
/// is requested — the accept loop's backoff must never delay shutdown.
fn idle_sleep(state: &ServerState, total: Duration) {
    const SLICE: Duration = Duration::from_millis(1);
    let mut left = total;
    while !left.is_zero() && !state.shutting_down() {
        let nap = left.min(SLICE);
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    // Exponential idle backoff instead of a fixed 20ms nap: a fresh
    // arrival after a quiet spell is picked up within ACCEPT_IDLE_MIN..
    // ACCEPT_IDLE_MAX rather than a full fixed poll interval, and a
    // long-idle listener still converges to one syscall per 5ms.
    let mut idle = ACCEPT_IDLE_MIN;
    while !state.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle = ACCEPT_IDLE_MIN;
                workers.retain(|w| !w.is_finished());
                // Accepted sockets inherit the listener's nonblocking
                // flag on some platforms; workers use timeout-based
                // polling instead.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                if state.active.load(Ordering::Relaxed) >= state.cfg.max_connections {
                    refuse_busy(stream, &state);
                    continue;
                }
                state.active.fetch_add(1, Ordering::Relaxed);
                state.sessions_served.inc();
                let worker_state = Arc::clone(&state);
                let spawned = std::thread::Builder::new()
                    .name("bst-server-conn".into())
                    .spawn(move || {
                        let _ = connection_loop(stream, &worker_state);
                        worker_state.active.fetch_sub(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(handle) => workers.push(handle),
                    Err(_) => {
                        // Spawn failure: undo the accounting; the
                        // stream drops and the client sees a reset.
                        state.active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                idle_sleep(&state, idle);
                idle = (idle * 2).min(ACCEPT_IDLE_MAX);
            }
            // Transient accept errors (per-connection resets) do not
            // take the listener down.
            Err(_) => idle_sleep(&state, POLL),
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Answers an over-limit arrival with a typed `Busy` frame and closes.
fn refuse_busy(mut stream: TcpStream, state: &ServerState) {
    state.sessions_refused.inc();
    let e = WireError::Busy {
        active: state.active_connections(),
        max: state.cfg.max_connections as u32,
    };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(&mut stream, &protocol::encode_error(&e));
}

/// Reads exactly `buf.len()` bytes, polling the shutdown flag across
/// read-timeout ticks. `Ok(false)` reports a clean EOF before the first
/// byte (only possible when `eof_ok`); mid-buffer EOF is an error.
fn poll_read_exact(
    stream: &mut TcpStream,
    state: &ServerState,
    buf: &mut [u8],
    eof_ok: bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if state.shutting_down() {
            return Err(io::Error::other("server shutting down"));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Discards `len` bytes from the stream through a bounded scratch
/// buffer — the oversized-frame drain.
fn drain(stream: &mut TcpStream, state: &ServerState, mut len: u64) -> io::Result<()> {
    let mut scratch = [0u8; 8192];
    while len > 0 {
        let take = scratch.len().min(len as usize);
        if !poll_read_exact(stream, state, &mut scratch[..take], false)? {
            // With eof_ok = false the helper reports EOF as an error,
            // but keep this arm total rather than panicking the worker.
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-drain",
            ));
        }
        len -= take as u64;
    }
    Ok(())
}

/// Keeps the shared session-slot gauge honest for one connection: holds
/// the slots this session last reported and gives them back when the
/// connection ends on any path (EOF, shutdown, socket error).
struct SlotGuard<'a> {
    gauge: &'a Gauge,
    held: i64,
}

impl SlotGuard<'_> {
    fn update(&mut self, session: &Session) {
        let (stored, adhoc) = session.cached();
        let now = (stored + adhoc) as i64;
        self.gauge.add(now - self.held);
        self.held = now;
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.gauge.add(-self.held);
    }
}

/// Serves one connection until EOF, shutdown, or a fatal socket error.
fn connection_loop(mut stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut session = Session::new(state.engine.read().epoch);
    let mut slots = SlotGuard {
        gauge: &state.session_slots,
        held: 0,
    };
    loop {
        // Frame header.
        let mut header = [0u8; 4];
        if !poll_read_exact(&mut stream, state, &mut header, true)? {
            return Ok(()); // clean EOF between frames
        }
        let len = u32::from_le_bytes(header) as u64;
        if len == 0 {
            state.frame_errors.inc();
            write_frame(
                &mut stream,
                &protocol::encode_error(&WireError::Malformed {
                    context: "zero-length frame".into(),
                }),
            )?;
            continue;
        }
        if len > state.cfg.max_frame {
            state.frame_errors.inc();
            drain(&mut stream, state, len)?;
            write_frame(
                &mut stream,
                &protocol::encode_error(&WireError::FrameTooLarge {
                    declared: len,
                    max: state.cfg.max_frame,
                }),
            )?;
            continue;
        }
        let mut payload = vec![0u8; len as usize];
        poll_read_exact(&mut stream, state, &mut payload, false)?;
        state.frames_served.inc();

        if state.shutting_down() {
            write_frame(
                &mut stream,
                &protocol::encode_error(&WireError::ShuttingDown),
            )?;
            return Ok(());
        }

        // Decode, dispatch, time, record, reply.
        let reply_bytes = match protocol::decode_request(&payload) {
            Err(e) => {
                state.frame_errors.inc();
                protocol::encode_error(&e)
            }
            Ok(req) => {
                let class = OpClass::classify(&req);
                let started = Instant::now();
                let outcome = handler::handle(state, &mut session, req);
                state.latency[class as usize].record(started.elapsed().as_secs_f64() * 1e6);
                slots.update(&session);
                let bytes = match &outcome.reply {
                    Ok(resp) => protocol::encode_response(resp),
                    Err(e) => protocol::encode_error(e),
                };
                if outcome.shutdown_after {
                    write_frame(&mut stream, &bytes)?;
                    state.request_shutdown();
                    return Ok(());
                }
                bytes
            }
        };
        write_frame(&mut stream, &reply_bytes)?;
    }
}
