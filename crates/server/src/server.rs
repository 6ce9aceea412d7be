//! The serving engine: one acceptor, a fixed worker pool, a bounded
//! hand-off queue in between.
//!
//! The shape follows the paper's deployment story — one resident
//! database, many analysts' viewers hitting it — under this repo's
//! offline constraint (no async runtime, `std::net` only):
//!
//! * the **acceptor** owns the listening socket. Each accepted
//!   connection is offered to the workers through a *bounded*
//!   [`std::sync::mpsc::sync_channel`]; when every worker is busy and
//!   the queue is full, the acceptor writes one `BUSY` frame and closes
//!   the socket — admission control as fast-reject, so overload sheds
//!   arrivals in microseconds instead of stacking them into a latency
//!   cliff;
//! * each **worker** owns one connection at a time, plus a persistent
//!   [`QuerySession`] and read/write buffers that live across
//!   connections — after warmup, serving a range/count/knn request
//!   performs **zero heap allocations** end to end (decode borrows from
//!   the read buffer, the session rebinds per request, results stream
//!   from the session's reused buffer straight into the write buffer);
//! * per-tenant [`QueryStats`] totals accumulate under a mutex keyed by
//!   the request's tenant id and are served back by the `STATS` opcode.
//!
//! Predicates cannot cross the wire, so filters are *named*: the host
//! registers `(id, predicate)` pairs in a [`FilterRegistry`] and clients
//! reference them by id in the request envelope.
//!
//! [`serve_with`] runs the whole arrangement inside a
//! [`std::thread::scope`], so the server borrows the database directly
//! — no `Arc`, no `'static` — and shutdown is a join, not a leak.

use crate::protocol::{self as p, ProtocolError, RequestView};
use neurospatial::model::{NavigationPath, NeuronSegment};
use neurospatial::obs::{self, Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use neurospatial::{
    NeuroDb, NeuroError, Plan, QuerySession, QueryStats, SegmentPredicate, WalkthroughMethod,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// A server-registered predicate, shareable across worker threads.
pub type ServerPredicate = dyn Fn(&NeuronSegment) -> bool + Send + Sync;

/// Named predicates clients can reference by id (`FLAG_FILTER`).
#[derive(Default)]
pub struct FilterRegistry<'a> {
    entries: Vec<(u32, &'a ServerPredicate)>,
}

impl<'a> FilterRegistry<'a> {
    pub fn new() -> Self {
        FilterRegistry { entries: Vec::new() }
    }

    /// Register `pred` under `id` (last registration wins on duplicate
    /// ids).
    pub fn register(&mut self, id: u32, pred: &'a ServerPredicate) -> &mut Self {
        self.entries.retain(|(i, _)| *i != id);
        self.entries.push((id, pred));
        self
    }

    fn get(&self, id: u32) -> Option<&'a ServerPredicate> {
        self.entries.iter().find(|(i, _)| *i == id).map(|(_, p)| *p)
    }
}

/// Knobs for [`serve_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads — the in-flight connection ceiling. These block on
    /// socket I/O, not CPU, so the count may exceed the core count
    /// (cf. `Executor::io_bound`).
    pub workers: usize,
    /// Accepted-but-unclaimed connections the hand-off queue holds; 0
    /// means a connection is admitted only if a worker is already
    /// waiting. `workers + queue` is the admission ceiling — everything
    /// beyond it is fast-rejected with `BUSY`.
    pub queue: usize,
    /// Segments per streamed response chunk.
    pub chunk: usize,
    /// Idle-read poll interval: how often parked workers re-check the
    /// shutdown flag. Bounds shutdown latency, not request latency.
    pub poll: Duration,
    /// Ceiling on wall-clock spent reading a *single frame* once its
    /// first byte has arrived (a connection may idle between frames
    /// indefinitely). A client that trickles a frame byte-by-byte — the
    /// slow-loris shape — is evicted when the ceiling trips, freeing the
    /// worker.
    pub read_deadline: Duration,
    /// Write timeout on the response socket: a client that stops
    /// draining its receive window is disconnected instead of pinning
    /// the worker.
    pub write_deadline: Duration,
    /// Per-request execution budget. A range stream that exceeds it is
    /// cut short: the segments already encoded are sent, terminated by a
    /// typed `TIMEOUT` frame (in place of `DONE`) carrying the partial
    /// stats.
    pub request_budget: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 16,
            chunk: p::SEGMENT_CHUNK,
            poll: Duration::from_millis(25),
            read_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(5),
            request_budget: Duration::from_secs(5),
        }
    }
}

/// Request-opcode families, indexed by [`op_index`]; each gets its own
/// per-server latency histogram.
const OP_LATENCY_NAMES: [&str; 11] = [
    "server_range_latency_ns",
    "server_count_latency_ns",
    "server_knn_latency_ns",
    "server_touching_latency_ns",
    "server_walkthrough_latency_ns",
    "server_explain_latency_ns",
    "server_stats_latency_ns",
    "server_health_latency_ns",
    "server_insert_latency_ns",
    "server_remove_latency_ns",
    "server_metrics_latency_ns",
];

/// Which [`OP_LATENCY_NAMES`] slot a request bills its service time to.
fn op_index(req: &RequestView<'_>) -> usize {
    match req {
        RequestView::Range { .. } => 0,
        RequestView::Count { .. } => 1,
        RequestView::Knn { .. } => 2,
        RequestView::Touching { .. } => 3,
        RequestView::Walkthrough { .. } => 4,
        RequestView::Explain(_) => 5,
        RequestView::Stats { .. } => 6,
        RequestView::Health => 7,
        RequestView::Insert { .. } => 8,
        RequestView::Remove { .. } => 9,
        RequestView::Metrics => 10,
    }
}

/// Monotonic serving counters, readable while the server runs.
///
/// Since the observability subsystem landed, these are handles into a
/// per-server [`MetricsRegistry`] (so every server instance starts from
/// zero) rather than ad-hoc atomics; the field names and the
/// [`Counter::load`] shim keep existing call sites source-compatible.
/// A `METRICS` scrape merges this registry with the process-wide
/// [`obs::global`] one.
pub struct ServerMetrics {
    registry: MetricsRegistry,
    /// Connections handed to a worker.
    pub accepted: Arc<Counter>,
    /// Connections shed with `BUSY` by admission control.
    pub rejected: Arc<Counter>,
    /// Requests executed (any outcome).
    pub requests: Arc<Counter>,
    /// Frames that failed to decode (connection dropped after reply).
    pub protocol_errors: Arc<Counter>,
    /// Connections evicted by the slow-loris read deadline.
    pub read_timeouts: Arc<Counter>,
    /// Requests cut short by the per-request execution budget
    /// (answered with a `TIMEOUT` frame).
    pub request_timeouts: Arc<Counter>,
    /// Service-time histogram per request opcode family.
    op_latency: [Arc<Histogram>; OP_LATENCY_NAMES.len()],
}

impl Default for ServerMetrics {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let accepted = registry.counter("server_connections_accepted_total");
        let rejected = registry.counter("server_connections_rejected_total");
        let requests = registry.counter("server_requests_total");
        let protocol_errors = registry.counter("server_protocol_errors_total");
        let read_timeouts = registry.counter("server_read_timeouts_total");
        let request_timeouts = registry.counter("server_request_timeouts_total");
        let op_latency = OP_LATENCY_NAMES.map(|name| registry.histogram(name));
        ServerMetrics {
            registry,
            accepted,
            rejected,
            requests,
            protocol_errors,
            read_timeouts,
            request_timeouts,
            op_latency,
        }
    }
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("accepted", &self.accepted.get())
            .field("rejected", &self.rejected.get())
            .field("requests", &self.requests.get())
            .field("protocol_errors", &self.protocol_errors.get())
            .field("read_timeouts", &self.read_timeouts.get())
            .field("request_timeouts", &self.request_timeouts.get())
            .finish()
    }
}

impl ServerMetrics {
    /// Snapshot of this server's private registry (counters above plus
    /// the per-opcode latency histograms).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// What the host callback sees while the server is live.
pub struct ServerHandle<'s> {
    addr: SocketAddr,
    metrics: &'s ServerMetrics,
    stop: &'s AtomicBool,
}

impl ServerHandle<'_> {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics(&self) -> &ServerMetrics {
        self.metrics
    }

    /// Request shutdown before the callback returns (it is also
    /// requested automatically when the callback exits).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Per-tenant accounting: `queries` counts executed requests, the rest
/// are field-wise [`QueryStats`] sums.
#[derive(Debug, Clone, Copy, Default)]
struct TenantAccount {
    queries: u64,
    stats: QueryStats,
}

struct Shared<'s> {
    db: &'s NeuroDb,
    filters: &'s FilterRegistry<'s>,
    cfg: &'s ServerConfig,
    metrics: &'s ServerMetrics,
    tenants: Mutex<HashMap<u32, TenantAccount>>,
    stop: AtomicBool,
}

/// Run the server over `db` until the callback returns: bind, spawn the
/// acceptor and `cfg.workers` workers inside a [`std::thread::scope`],
/// call `f` with the live [`ServerHandle`], then shut down and join
/// everything before returning `f`'s result.
pub fn serve_with<R>(
    db: &NeuroDb,
    filters: &FilterRegistry<'_>,
    cfg: &ServerConfig,
    f: impl FnOnce(&ServerHandle<'_>) -> R,
) -> io::Result<R> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = ServerMetrics::default();
    let shared = Shared {
        db,
        filters,
        cfg,
        metrics: &metrics,
        tenants: Mutex::new(HashMap::new()),
        stop: AtomicBool::new(false),
    };
    let workers = cfg.workers.max(1);
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue);
    let rx = Mutex::new(rx);

    let result = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared, &rx));
        }
        let acceptor = {
            let (shared, listener, tx) = (&shared, &listener, tx.clone());
            scope.spawn(move || acceptor_loop(shared, listener, &tx))
        };
        drop(tx); // workers exit once the acceptor's clone is gone

        let handle = ServerHandle { addr, metrics: &metrics, stop: &shared.stop };

        // Shutdown must fire even if the callback panics — otherwise the
        // scope would join workers that never see the stop flag and the
        // unwind deadlocks instead of propagating.
        struct StopGuard<'a> {
            stop: &'a AtomicBool,
            addr: std::net::SocketAddr,
        }
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.stop.store(true, Ordering::Release);
                // Unblock a parked `accept` with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
            }
        }
        let guard = StopGuard { stop: &shared.stop, addr };
        let result = f(&handle);

        drop(guard);
        let _ = acceptor.join();
        result
    });
    Ok(result)
}

fn acceptor_loop(shared: &Shared<'_>, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    // Prebuilt BUSY frame: rejection must not allocate.
    let mut busy = Vec::new();
    p::encode_busy(&mut busy);
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _admission = obs::span!(obs::Stage::Admission);
        match tx.try_send(stream) {
            Ok(()) => {
                shared.metrics.accepted.inc();
            }
            Err(TrySendError::Full(mut stream)) => {
                shared.metrics.rejected.inc();
                let _ = stream.write_all(&busy);
                // Drop closes the socket; the client sees BUSY then EOF.
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
}

fn worker_loop<'db>(shared: &Shared<'db>, rx: &Mutex<Receiver<TcpStream>>) {
    // Worker-lifetime state, reused across every connection this worker
    // serves: the query session (scratch + result buffers) and the
    // frame buffers.
    let mut session = shared.db.query().session();
    let mut read_buf: Vec<u8> = Vec::with_capacity(4096);
    let mut write_buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    loop {
        // Take the receiver lock only long enough to claim one
        // connection; time out to observe shutdown.
        let claimed = {
            let rx = rx.lock().expect("receiver lock");
            rx.recv_timeout(shared.cfg.poll)
        };
        match claimed {
            Ok(stream) => {
                if let Err(e) =
                    serve_connection(shared, stream, &mut session, &mut read_buf, &mut write_buf)
                {
                    if e.kind() == io::ErrorKind::TimedOut {
                        shared.metrics.read_timeouts.inc();
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// `read_exact` that survives read timeouts without losing its place,
/// so the idle poll can observe shutdown between (but never inside)
/// frames. Returns `Ok(false)` on clean end-of-stream or shutdown
/// *before any byte* when `idle` (frame-boundary) reads are allowed to
/// give up.
///
/// The `deadline` bounds wall-clock from the first byte of this read to
/// its completion — a connection may sit idle between frames forever,
/// but once a frame has started arriving it must finish within the
/// deadline or the connection is evicted (`TimedOut`). This is the
/// slow-loris defense: trickling one byte per poll interval no longer
/// pins a worker.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle: bool,
    deadline: Duration,
) -> io::Result<bool> {
    let mut off = 0;
    // The clock starts when the read stops being idle: immediately for
    // mid-frame (body) reads, at the first byte for header reads.
    let mut started: Option<Instant> = if idle { None } else { Some(Instant::now()) };
    while off < buf.len() {
        if let Some(start) = started {
            if start.elapsed() > deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
        match stream.read(&mut buf[off..]) {
            Ok(0) => {
                return if off == 0 && idle {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => {
                off += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) && off == 0 && idle {
                    return Ok(false);
                }
                if stop.load(Ordering::Acquire) {
                    return Err(e); // mid-frame at shutdown: abandon
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn serve_connection<'db>(
    shared: &Shared<'db>,
    mut stream: TcpStream,
    session: &mut QuerySession<'db>,
    read_buf: &mut Vec<u8>,
    write_buf: &mut Vec<u8>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.cfg.poll))?;
    stream.set_write_timeout(Some(shared.cfg.write_deadline))?;
    let deadline = shared.cfg.read_deadline;
    loop {
        // Frame header.
        let mut header = [0u8; 4];
        if !read_full(&mut stream, &mut header, &shared.stop, true, deadline)? {
            return Ok(()); // clean EOF or shutdown at a frame boundary
        }
        let len = u32::from_le_bytes(header) as usize;
        if len == 0 || len > p::MAX_FRAME {
            shared.metrics.protocol_errors.inc();
            write_buf.clear();
            p::encode_error(p::ERR_PROTOCOL, "frame length out of range", write_buf);
            let _ = stream.write_all(write_buf);
            return Ok(());
        }
        read_buf.resize(len, 0);
        if !read_full(&mut stream, read_buf, &shared.stop, false, deadline)? {
            return Ok(());
        }
        let (opcode, payload) = (read_buf[0], &read_buf[1..]);
        let decoded = {
            let _decode = obs::span!(obs::Stage::Decode);
            p::decode_request_view(opcode, payload)
        };
        match decoded {
            Ok(req) => {
                shared.metrics.requests.inc();
                write_buf.clear();
                let served = Instant::now();
                serve_request(shared, session, &req, write_buf);
                shared.metrics.op_latency[op_index(&req)].record_duration(served.elapsed());
                let _encode = obs::span!(obs::Stage::Encode);
                stream.write_all(write_buf)?;
            }
            Err(err) => {
                // A connection that desynchronized its framing cannot be
                // trusted further: reply, then close.
                shared.metrics.protocol_errors.inc();
                write_buf.clear();
                p::encode_error(p::ERR_PROTOCOL, protocol_error_name(err), write_buf);
                let _ = stream.write_all(write_buf);
                return Ok(());
            }
        }
    }
}

/// Static description for the error frame — no `format!` on the reply
/// path.
fn protocol_error_name(err: ProtocolError) -> &'static str {
    match err {
        ProtocolError::Truncated => "truncated frame",
        ProtocolError::UnknownOpcode(_) => "unknown opcode",
        ProtocolError::FrameTooLarge(_) => "frame length out of range",
        ProtocolError::Malformed(what) => what,
    }
}

/// Bind the session to a request's envelope. On failure the session is
/// left cleared (not carrying a stale binding) and an error frame is
/// already in `out`.
fn bind_session<'db>(
    session: &mut QuerySession<'db>,
    shared: &Shared<'db>,
    desc: &p::QueryDescView<'_>,
    out: &mut Vec<u8>,
) -> bool {
    if session.set_population(desc.population).is_err() {
        p::encode_error(p::ERR_UNKNOWN_POPULATION, "unknown population", out);
        return false;
    }
    let filter = match desc.filter_id {
        None => None,
        Some(id) => match shared.filters.get(id) {
            Some(pred) => {
                let pred: &SegmentPredicate<'db> = pred;
                Some(pred)
            }
            None => {
                p::encode_error(p::ERR_UNKNOWN_FILTER, "unknown filter id", out);
                return false;
            }
        },
    };
    session.set_filter(filter);
    session.set_limit(desc.limit.map(|l| l as usize));
    true
}

fn account(shared: &Shared<'_>, tenant: u32, stats: &QueryStats) {
    let mut tenants = shared.tenants.lock().expect("tenant lock");
    let acct = tenants.entry(tenant).or_default();
    acct.queries += 1;
    acct.stats.merge(stats);
}

fn serve_request<'db>(
    shared: &Shared<'db>,
    session: &mut QuerySession<'db>,
    req: &RequestView<'_>,
    out: &mut Vec<u8>,
) {
    match req {
        RequestView::Range { desc, region } => {
            if !bind_session(session, shared, desc, out) {
                return;
            }
            let deadline = Instant::now() + shared.cfg.request_budget;
            match session
                .try_range_budgeted(region, desc.allow_partial, || Instant::now() < deadline)
            {
                Ok((segments, stats, completed)) => {
                    for chunk in segments.chunks(shared.cfg.chunk.max(1)) {
                        p::encode_segment_chunk(chunk, out);
                    }
                    if completed {
                        p::encode_done(&stats, out);
                    } else {
                        shared.metrics.request_timeouts.inc();
                        p::encode_timeout(&stats, out);
                    }
                    account(shared, desc.tenant, &stats);
                }
                Err(err) => encode_neuro_error(&err, out),
            }
        }
        RequestView::Count { desc, region } => {
            if !bind_session(session, shared, desc, out) {
                return;
            }
            match session.try_count(region, desc.allow_partial) {
                Ok(stats) => {
                    p::encode_count(stats.results, &stats, out);
                    account(shared, desc.tenant, &stats);
                }
                Err(err) => encode_neuro_error(&err, out),
            }
        }
        RequestView::Knn { desc, p: point, k } => {
            if !bind_session(session, shared, desc, out) {
                return;
            }
            match session.try_knn(*point, *k as usize, desc.allow_partial) {
                Ok((neighbors, stats)) => {
                    for chunk in neighbors.chunks(shared.cfg.chunk.max(1)) {
                        p::encode_neighbor_chunk(chunk, out);
                    }
                    p::encode_done(&stats, out);
                    account(shared, desc.tenant, &stats);
                }
                Err(err) => encode_neuro_error(&err, out),
            }
        }
        RequestView::Touching { desc, other, epsilon } => {
            serve_touching(shared, desc, other, *epsilon, out);
        }
        RequestView::Walkthrough { tenant, method, path } => {
            serve_walkthrough(shared, *tenant, *method, path, out);
        }
        RequestView::Explain(inner) => serve_explain(shared, inner, out),
        RequestView::Insert { tenant, segment } => {
            serve_write(shared, *tenant, shared.db.insert_segment(*segment), out);
        }
        RequestView::Remove { tenant, id } => {
            serve_write(shared, *tenant, shared.db.remove_segment(*id), out);
        }
        RequestView::Health => {
            let mut report = match shared.db.paged_index() {
                Some(paged) => {
                    let quarantined = paged.quarantined_pages();
                    p::HealthReport {
                        paged: true,
                        degraded: !quarantined.is_empty(),
                        quarantined,
                        wal: None,
                    }
                }
                None => p::HealthReport::default(),
            };
            report.wal = shared.db.wal_health().map(|w| p::WalWire {
                last_lsn: w.last_lsn,
                wal_bytes: w.wal_bytes,
                pending_ops: w.pending_ops,
                epoch: w.epoch,
                replayed_ops: w.replayed_ops,
                checkpoints: w.checkpoints,
                recovered_torn_tail: w.recovered_torn_tail,
            });
            p::encode_health(&report, out);
        }
        RequestView::Stats { tenant } => {
            let tenants = shared.tenants.lock().expect("tenant lock");
            let acct = tenants.get(tenant).copied().unwrap_or_default();
            p::encode_stats_result(
                &p::TenantTotals {
                    tenant: *tenant,
                    queries: acct.queries,
                    results: acct.stats.results,
                    nodes_read: acct.stats.nodes_read,
                    objects_tested: acct.stats.objects_tested,
                    reseeds: acct.stats.reseeds,
                },
                out,
            );
        }
        RequestView::Metrics => {
            // Process-wide series (query/storage/scout) merged with the
            // per-server registry (connection/request counters, per-op
            // latency). Name sets are disjoint, so merge never sums
            // across the two sources.
            let mut snap = obs::global().snapshot();
            snap.merge(&shared.metrics.snapshot());
            p::encode_metrics_result(&snap, out);
        }
    }
}

/// The write path: the ack frame is encoded only after
/// `insert_segment` / `remove_segment` returned — i.e. after the WAL
/// commit record is on stable storage. A failed write encodes a typed
/// error instead; [`p::ERR_WRITE_REJECTED`] guarantees nothing was
/// logged. After a successful write the worker runs the re-freeze check
/// inline: swaps are rare (threshold-gated) and concurrent readers are
/// never blocked by one.
fn serve_write(
    shared: &Shared<'_>,
    tenant: u32,
    result: Result<neurospatial::WriteAck, NeuroError>,
    out: &mut Vec<u8>,
) {
    match result {
        Ok(ack) => {
            p::encode_write_ack(&p::WriteAckWire { lsn: ack.lsn, pending: ack.pending }, out);
            account(shared, tenant, &QueryStats::default());
            let _ = shared.db.maybe_refreeze();
        }
        Err(err) => encode_neuro_error(&err, out),
    }
}

/// The ε-join path. Joins materialize pair sets and rebuild per-call
/// structures — they are the analytical lane, not the steady-state one,
/// so this allocates freely via the builder API.
fn serve_touching(
    shared: &Shared<'_>,
    desc: &p::QueryDescView<'_>,
    other: &str,
    epsilon: f64,
    out: &mut Vec<u8>,
) {
    let filter = match desc.filter_id {
        None => None,
        Some(id) => match shared.filters.get(id) {
            Some(pred) => Some(pred),
            None => {
                p::encode_error(p::ERR_UNKNOWN_FILTER, "unknown filter id", out);
                return;
            }
        },
    };
    let wrapped = filter.map(|f| move |s: &NeuronSegment| f(s));
    let mut q = shared.db.query().touching(other, epsilon);
    if let Some(name) = desc.population {
        q = q.in_population(name);
    }
    if let Some(w) = &wrapped {
        q = q.filter(w);
    }
    if let Some(limit) = desc.limit {
        q = q.limit(limit as usize);
    }
    match q.collect() {
        Ok(result) => {
            for chunk in result.pairs.chunks(shared.cfg.chunk.max(1)) {
                p::encode_pair_chunk(chunk, out);
            }
            let stats = QueryStats {
                results: result.stats.results,
                nodes_read: 0,
                objects_tested: result.stats.filter_comparisons + result.stats.refine_comparisons,
                ..QueryStats::default()
            };
            p::encode_done(&stats, out);
            account(shared, desc.tenant, &stats);
        }
        Err(err) => encode_neuro_error(&err, out),
    }
}

fn serve_walkthrough(
    shared: &Shared<'_>,
    tenant: u32,
    method: WalkthroughMethod,
    path: &NavigationPath,
    out: &mut Vec<u8>,
) {
    match shared.db.query().along_path(path).method(method).run() {
        Ok(stats) => {
            p::encode_walk(
                &p::WalkSummary {
                    steps: stats.steps.len() as u32,
                    total_stall_ms: stats.total_stall_ms,
                    demand_misses: stats.total_demand_misses,
                    demand_hits: stats.total_demand_hits,
                    prefetched: stats.total_prefetched,
                    useful_prefetched: stats.useful_prefetched,
                },
                out,
            );
            account(shared, tenant, &QueryStats::default());
        }
        Err(err) => encode_neuro_error(&err, out),
    }
}

fn serve_explain(shared: &Shared<'_>, inner: &RequestView<'_>, out: &mut Vec<u8>) {
    let db = shared.db;
    let plan: Plan = match inner {
        RequestView::Range { desc, region } | RequestView::Count { desc, region } => {
            let filter = desc.filter_id.and_then(|id| shared.filters.get(id));
            let wrapped = filter.map(|f| move |s: &NeuronSegment| f(s));
            let mut q = db.query().range(*region);
            if let Some(name) = desc.population {
                q = q.in_population(name);
            }
            if let Some(w) = &wrapped {
                q = q.filter(w);
            }
            if let Some(limit) = desc.limit {
                q = q.limit(limit as usize);
            }
            q.explain()
        }
        RequestView::Knn { desc, p: point, k } => {
            let filter = desc.filter_id.and_then(|id| shared.filters.get(id));
            let wrapped = filter.map(|f| move |s: &NeuronSegment| f(s));
            let mut q = db.query().knn(*point, *k as usize);
            if let Some(name) = desc.population {
                q = q.in_population(name);
            }
            if let Some(w) = &wrapped {
                q = q.filter(w);
            }
            if let Some(limit) = desc.limit {
                q = q.limit(limit as usize);
            }
            q.explain()
        }
        RequestView::Touching { desc, other, epsilon } => {
            let mut q = db.query().touching(other, *epsilon);
            if let Some(name) = desc.population {
                q = q.in_population(name);
            }
            if let Some(limit) = desc.limit {
                q = q.limit(limit as usize);
            }
            q.explain()
        }
        RequestView::Walkthrough { method, path, .. } => {
            db.query().along_path(path).method(*method).explain()
        }
        RequestView::Explain(_)
        | RequestView::Stats { .. }
        | RequestView::Health
        | RequestView::Metrics
        | RequestView::Insert { .. }
        | RequestView::Remove { .. } => {
            p::encode_error(p::ERR_PROTOCOL, "EXPLAIN cannot wrap this opcode", out);
            return;
        }
    };
    p::encode_plan(
        &p::PlanWire {
            operation: plan.operation.to_string(),
            backend: plan.backend.to_string(),
            shards_total: plan.shards_total as u32,
            shards_probed: plan.shards_probed as u32,
            estimated_reads: plan.estimated_reads,
            pushdown_filter: plan.pushdown_filter,
            pushdown_limit: plan.pushdown_limit.map(|l| l as u32),
            population: plan.population,
        },
        out,
    );
}

fn encode_neuro_error(err: &NeuroError, out: &mut Vec<u8>) {
    let (code, msg): (u16, &str) = match err {
        NeuroError::UnknownPopulation { .. } => (p::ERR_UNKNOWN_POPULATION, "unknown population"),
        NeuroError::WalkthroughUnsupported { .. } => {
            (p::ERR_UNSUPPORTED, "walkthrough requires a paged (FLAT) backend")
        }
        NeuroError::WriteUnsupported => {
            (p::ERR_UNSUPPORTED, "writes need a live (WAL-backed) database")
        }
        NeuroError::WriteRejected { reason } => (p::ERR_WRITE_REJECTED, reason.as_str()),
        NeuroError::DegradedResult { .. } => (
            p::ERR_DEGRADED,
            "query needs quarantined pages; retry with allow_partial for labeled partial results",
        ),
        _ => (p::ERR_INTERNAL, "request failed"),
    };
    p::encode_error(code, msg, out);
}
