//! A blocking client for the wire protocol, built for serving loops:
//! one connection, reused frame buffers, results decoded into
//! caller-provided warm vectors — after the first few requests the
//! range/count/knn paths allocate nothing on either side of the socket.
//!
//! A request is one `send`. Its answer is parsed out of one
//! [`FrameReader`](p::FrameReader) that lives as long as the client, so
//! an answer the server wrote at once (a range's chunks and its `DONE`)
//! is taken in with one `recv` when it fits the buffer.

use crate::protocol::{self as p, HealthReport, PlanWire, ProtocolError, Request, WalkSummary};
use neurospatial::geom::{Aabb, Vec3};
use neurospatial::model::{NavigationPath, NeuronSegment};
use neurospatial::obs::MetricsSnapshot;
use neurospatial::{Neighbor, QueryStats, WalkthroughMethod};
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed, from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server vanishing mid-response).
    Io(io::Error),
    /// The server's bytes did not decode.
    Protocol(ProtocolError),
    /// Admission control shed this connection (`BUSY`): retry later,
    /// on a new connection.
    Busy,
    /// The server's per-request budget expired mid-stream: everything
    /// received before the cut is a valid prefix, and `stats` covers
    /// exactly the work delivered. Retryable — later attempts may land
    /// on a less loaded worker or a warmer cache.
    Timeout { stats: QueryStats },
    /// The server executed nothing and answered with an application
    /// error frame.
    Server { code: u16, message: String },
    /// A write was validated and refused before anything reached the
    /// WAL (`ERR_WRITE_REJECTED`): duplicate id, unknown removal
    /// target, or non-finite geometry. Deterministic — retrying the
    /// identical write fails identically, so this is never retryable.
    WriteRejected { message: String },
    /// A frame that cannot answer the request that was sent (protocol
    /// confusion; the connection should be abandoned).
    Unexpected(u8),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy => write!(f, "server busy (admission control)"),
            ClientError::Timeout { stats } => {
                write!(f, "request budget expired after {} results", stats.results)
            }
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::WriteRejected { message } => {
                write!(f, "write rejected (nothing was logged): {message}")
            }
            ClientError::Unexpected(op) => write!(f, "unexpected response opcode 0x{op:02X}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether a fresh attempt could plausibly succeed: overload sheds
    /// (`Busy`), budget expiries (`Timeout`) and transient transport
    /// kinds retry; application errors, protocol confusion and hard I/O
    /// failures never do — retrying a permanent error only duplicates
    /// load.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Busy | ClientError::Timeout { .. } => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            ClientError::Protocol(_)
            | ClientError::Server { .. }
            | ClientError::WriteRejected { .. }
            | ClientError::Unexpected(_) => false,
        }
    }

    /// Whether the server *provably did not execute* the request this
    /// error answers — the precondition for safely resending a write.
    ///
    /// Only two shapes qualify: a `BUSY` shed (admission control ran
    /// before the request was read) and [`WriteRejected`]
    /// (validation refused the write before anything reached the WAL).
    /// Everything else — a timeout, a torn connection, a decode failure
    /// mid-response — leaves the acknowledgement status *unknown*: the
    /// server may have committed the write and the ack was lost in
    /// flight. Resending then would double-apply it.
    ///
    /// [`WriteRejected`]: ClientError::WriteRejected
    pub fn write_definitely_not_executed(&self) -> bool {
        matches!(self, ClientError::Busy | ClientError::WriteRejected { .. })
    }
}

/// Client-side retry policy: capped attempts with derandomised
/// decorrelated-jitter backoff. The backoff sequence is a pure function
/// of `(salt, attempt)`, so tests replay it without sleeping and two
/// clients with different salts don't thundering-herd in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// First backoff, in milliseconds.
    pub base_ms: u64,
    /// Ceiling every backoff is clamped to, in milliseconds.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_ms: 10, cap_ms: 1_000 }
    }
}

/// The same splitmix64 finalizer the storage fault layer uses — good
/// avalanche, no dependencies, fully deterministic.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Never retry: one attempt, no backoff.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_ms: 0, cap_ms: 0 }
    }

    /// The backoff (milliseconds) to sleep *after* failed attempt
    /// `attempt` (0-based). Decorrelated jitter: each step draws
    /// uniformly from `[base, min(3 * prev, cap)]`, derandomised through
    /// `salt` so the whole schedule replays. Always within
    /// `[base_ms, cap_ms]`.
    pub fn backoff_ms(&self, salt: u64, attempt: u32) -> u64 {
        if self.cap_ms == 0 || self.cap_ms <= self.base_ms {
            return self.base_ms.min(self.cap_ms);
        }
        let mut prev = self.base_ms;
        for k in 0..=u64::from(attempt) {
            let hi = prev.saturating_mul(3).min(self.cap_ms).max(self.base_ms);
            let span = hi - self.base_ms + 1;
            let draw = mix64(salt ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93)) % span;
            prev = self.base_ms + draw;
        }
        prev
    }
}

/// Run `op` under `policy`: retryable failures ([`ClientError::Busy`],
/// [`ClientError::Timeout`], transient transport kinds) back off and
/// retry until the attempt budget is spent; permanent errors return
/// immediately. `op` receives the 0-based attempt number — use it to
/// [`Client::reconnect`] on `Busy`, whose shed closes the connection.
/// `salt` decorrelates the jitter schedule between callers (any
/// per-client value: a connection id, a PID). `sleep` receives each
/// backoff so tests can record instead of sleeping (production passes
/// `|d| std::thread::sleep(d)`).
pub fn retry_request<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut(u32) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                sleep(Duration::from_millis(policy.backoff_ms(salt, attempt)));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run a *write* under `policy` with **at-most-once** semantics: an
/// attempt is retried only when the failure proves the server never
/// executed it ([`ClientError::write_definitely_not_executed`] — in
/// practice a `BUSY` shed, which happens before the request is read).
///
/// This is deliberately stricter than [`retry_request`]: a read that
/// times out can be resent freely, but a write whose acknowledgement
/// status is unknown (timeout, torn connection, garbled response) must
/// **not** be resent — the commit may have landed and the ack been lost,
/// and resending would apply the write twice. Such failures return
/// immediately; the caller reconciles by querying
/// (the `db_wal_last_lsn` gauge of [`Client::metrics`], or a read of the
/// written id) before deciding to resend.
///
/// `sleep` receives each backoff so tests can record instead of
/// sleeping, exactly as in [`retry_request`].
pub fn retry_write<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut sleep: impl FnMut(Duration),
    mut op: impl FnMut(u32) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(ClientError::Busy) if attempt + 1 < attempts => {
                sleep(Duration::from_millis(policy.backoff_ms(salt, attempt)));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// One protocol connection. Dropping it closes the socket.
pub struct Client {
    stream: TcpStream,
    /// The resolved peer, kept so [`reconnect`](Self::reconnect) can
    /// re-establish the connection after a `BUSY` shed closes it.
    addr: SocketAddr,
    reader: p::FrameReader,
    write_buf: Vec<u8>,
}

impl Client {
    /// Connect and prepare frame buffers. Note a `BUSY` shed surfaces on
    /// the *first request*, not here — the TCP handshake itself is
    /// completed by the kernel before admission control runs.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            reader: p::FrameReader::new(),
            write_buf: Vec::with_capacity(4096),
        })
    }

    /// Re-establish the connection to the same resolved peer — a `BUSY`
    /// shed closes the socket server-side, so a retry loop reconnects
    /// before its next attempt. The frame buffers (and their warmth)
    /// survive, emptied of anything the old socket sent; the read
    /// timeout does not.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.reader.clear();
        Ok(())
    }

    /// Bound how long a response read may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send whatever `write_buf` holds; a connection torn down by a
    /// `BUSY` shed is reported as [`ClientError::Busy`] rather than a
    /// raw broken pipe.
    fn send(&mut self) -> Result<(), ClientError> {
        match self.stream.write_all(&self.write_buf) {
            Ok(()) => Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::BrokenPipe
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                ) =>
            {
                match self.reader.read_frame(&mut self.stream) {
                    Ok((p::OP_BUSY, _)) => Err(ClientError::Busy),
                    _ => Err(ClientError::Io(e)),
                }
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    /// Range query: matching segments are appended to `out` (cleared
    /// first), the traversal's statistics returned.
    pub fn range(
        &mut self,
        desc: &p::QueryDescView<'_>,
        region: &Aabb,
        out: &mut Vec<NeuronSegment>,
    ) -> Result<QueryStats, ClientError> {
        out.clear();
        self.write_buf.clear();
        p::encode_range_request(desc, region, &mut self.write_buf);
        self.send()?;
        loop {
            let (op, payload) = self.reader.read_frame(&mut self.stream)?;
            match op {
                p::OP_SEGMENT_CHUNK => p::decode_segment_chunk_into(payload, out)?,
                p::OP_DONE => return Ok(p::decode_done(payload)?),
                other => return Err(terminal_error(other, payload)),
            }
        }
    }

    /// Count-only range query.
    pub fn count(
        &mut self,
        desc: &p::QueryDescView<'_>,
        region: &Aabb,
    ) -> Result<(u64, QueryStats), ClientError> {
        self.write_buf.clear();
        p::encode_count_request(desc, region, &mut self.write_buf);
        self.send()?;
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_COUNT_RESULT => Ok(p::decode_count(payload)?),
            other => Err(terminal_error(other, payload)),
        }
    }

    /// K nearest neighbours appended to `out` (cleared first).
    pub fn knn(
        &mut self,
        desc: &p::QueryDescView<'_>,
        point: Vec3,
        k: u32,
        out: &mut Vec<Neighbor>,
    ) -> Result<QueryStats, ClientError> {
        out.clear();
        self.write_buf.clear();
        p::encode_knn_request(desc, point, k, &mut self.write_buf);
        self.send()?;
        loop {
            let (op, payload) = self.reader.read_frame(&mut self.stream)?;
            match op {
                p::OP_NEIGHBOR_CHUNK => p::decode_neighbor_chunk_into(payload, out)?,
                p::OP_DONE => return Ok(p::decode_done(payload)?),
                other => return Err(terminal_error(other, payload)),
            }
        }
    }

    /// ε-distance join pairs appended to `out` (cleared first).
    pub fn touching(
        &mut self,
        desc: &p::QueryDescView<'_>,
        other: &str,
        epsilon: f64,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<QueryStats, ClientError> {
        out.clear();
        let req = Request::Touching { desc: desc.into_owned(), other: other.to_string(), epsilon };
        self.write_buf.clear();
        p::encode_request(&req, &mut self.write_buf);
        self.send()?;
        loop {
            let (op, payload) = self.reader.read_frame(&mut self.stream)?;
            match op {
                p::OP_PAIR_CHUNK => p::decode_pair_chunk_into(payload, out)?,
                p::OP_DONE => return Ok(p::decode_done(payload)?),
                other => return Err(terminal_error(other, payload)),
            }
        }
    }

    /// Replay a walkthrough server-side (FLAT servers only).
    pub fn walkthrough(
        &mut self,
        tenant: u32,
        method: WalkthroughMethod,
        path: &NavigationPath,
    ) -> Result<WalkSummary, ClientError> {
        let req = Request::Walkthrough { tenant, method, path: path.clone() };
        self.write_buf.clear();
        p::encode_request(&req, &mut self.write_buf);
        self.send()?;
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_WALK_RESULT => match p::decode_response(op, payload)? {
                p::Response::Walkthrough(w) => Ok(w),
                _ => Err(ClientError::Unexpected(op)),
            },
            other => Err(terminal_error(other, payload)),
        }
    }

    /// Ask the server to plan (not run) `req`.
    pub fn explain(&mut self, req: &Request) -> Result<PlanWire, ClientError> {
        let wrapped = Request::Explain(Box::new(req.clone()));
        self.write_buf.clear();
        p::encode_request(&wrapped, &mut self.write_buf);
        self.send()?;
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_PLAN_RESULT => match p::decode_response(op, payload)? {
                p::Response::Plan(plan) => Ok(plan),
                _ => Err(ClientError::Unexpected(op)),
            },
            other => Err(terminal_error(other, payload)),
        }
    }

    /// Durably insert one segment (live servers only). Returns only
    /// after the server's WAL commit is fsync'd — the returned ack's
    /// `lsn` is proof the write survives any crash from here on. Any
    /// error except [`ClientError::Busy`] / [`ClientError::WriteRejected`]
    /// leaves the ack status unknown; use [`retry_write`], never
    /// [`retry_request`], to wrap this.
    pub fn insert(
        &mut self,
        tenant: u32,
        segment: &NeuronSegment,
    ) -> Result<p::WriteAckWire, ClientError> {
        self.write_buf.clear();
        p::encode_insert_request(tenant, segment, &mut self.write_buf);
        self.send()?;
        self.read_write_ack()
    }

    /// Durably remove a segment by id (live servers only). Same
    /// durability and retry contract as [`insert`](Self::insert).
    pub fn remove(&mut self, tenant: u32, id: u64) -> Result<p::WriteAckWire, ClientError> {
        self.write_buf.clear();
        p::encode_remove_request(tenant, id, &mut self.write_buf);
        self.send()?;
        self.read_write_ack()
    }

    fn read_write_ack(&mut self) -> Result<p::WriteAckWire, ClientError> {
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_WRITE_ACK => Ok(p::decode_write_ack(payload)?),
            other => Err(terminal_error(other, payload)),
        }
    }

    /// The server's serving-health snapshot: whether the database is
    /// paged, whether it is degraded, and which pages are quarantined.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        self.write_buf.clear();
        p::encode_request(&Request::Health, &mut self.write_buf);
        self.send()?;
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_HEALTH_RESULT => match p::decode_response(op, payload)? {
                p::Response::Health(h) => Ok(h),
                _ => Err(ClientError::Unexpected(op)),
            },
            other => Err(terminal_error(other, payload)),
        }
    }

    /// The server's metrics snapshot: every counter, gauge, and latency
    /// histogram registered across the process (query pipeline, storage,
    /// prefetch) merged with the per-server serving counters and, for a
    /// live database, its WAL state as `db_*` gauges.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.write_buf.clear();
        p::encode_request(&Request::Metrics, &mut self.write_buf);
        self.send()?;
        let (op, payload) = self.reader.read_frame(&mut self.stream)?;
        match op {
            p::OP_METRICS_RESULT => match p::decode_response(op, payload)? {
                p::Response::Metrics(snap) => Ok(snap),
                _ => Err(ClientError::Unexpected(op)),
            },
            other => Err(terminal_error(other, payload)),
        }
    }
}

/// Interpret a non-answer frame on a response stream.
fn terminal_error(op: u8, payload: &[u8]) -> ClientError {
    match op {
        p::OP_BUSY => ClientError::Busy,
        p::OP_TIMEOUT => match p::decode_done(payload) {
            Ok(stats) => ClientError::Timeout { stats },
            Err(e) => ClientError::Protocol(e),
        },
        p::OP_ERROR => match p::decode_response(op, payload) {
            Ok(p::Response::Error { code, message }) if code == p::ERR_WRITE_REJECTED => {
                ClientError::WriteRejected { message }
            }
            Ok(p::Response::Error { code, message }) => ClientError::Server { code, message },
            Ok(_) => ClientError::Unexpected(op),
            Err(e) => ClientError::Protocol(e),
        },
        other => ClientError::Unexpected(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_err() -> ClientError {
        ClientError::Server { code: p::ERR_INTERNAL, message: "boom".into() }
    }

    #[test]
    fn retryability_classifies_by_recoverability() {
        assert!(ClientError::Busy.is_retryable());
        assert!(ClientError::Timeout { stats: QueryStats::default() }.is_retryable());
        assert!(ClientError::Io(io::ErrorKind::TimedOut.into()).is_retryable());
        assert!(ClientError::Io(io::ErrorKind::Interrupted.into()).is_retryable());
        assert!(!ClientError::Io(io::ErrorKind::BrokenPipe.into()).is_retryable());
        assert!(!server_err().is_retryable());
        assert!(!ClientError::Protocol(ProtocolError::Truncated).is_retryable());
        assert!(!ClientError::Unexpected(0xEE).is_retryable());
    }

    #[test]
    fn retry_stops_at_the_attempt_cap_without_sleeping_for_real() {
        let policy = RetryPolicy { max_attempts: 4, base_ms: 10, cap_ms: 500 };
        let mut slept = Vec::new();
        let mut calls = 0u32;
        let res: Result<(), _> = retry_request(
            &policy,
            7,
            |d| slept.push(d),
            |attempt| {
                assert_eq!(attempt, calls);
                calls += 1;
                Err(ClientError::Busy)
            },
        );
        assert!(matches!(res, Err(ClientError::Busy)));
        assert_eq!(calls, 4, "exactly max_attempts attempts");
        assert_eq!(slept.len(), 3, "a backoff between attempts, none after the last");
        for d in &slept {
            let ms = d.as_millis() as u64;
            assert!((10..=500).contains(&ms), "backoff {ms}ms escaped [base, cap]");
        }
    }

    #[test]
    fn permanent_errors_return_immediately() {
        let policy = RetryPolicy::default();
        let mut slept = 0usize;
        let mut calls = 0u32;
        let res: Result<(), _> = retry_request(
            &policy,
            1,
            |_| slept += 1,
            |_| {
                calls += 1;
                Err(server_err())
            },
        );
        assert!(matches!(res, Err(ClientError::Server { .. })));
        assert_eq!(calls, 1, "permanent errors must not burn the attempt budget");
        assert_eq!(slept, 0);
    }

    #[test]
    fn success_after_transient_failures_stops_the_loop() {
        let policy = RetryPolicy { max_attempts: 5, base_ms: 1, cap_ms: 50 };
        let mut calls = 0u32;
        let res = retry_request(
            &policy,
            3,
            |_| {},
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err(ClientError::Timeout { stats: QueryStats::default() })
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(res.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_salt_decorrelated() {
        let policy = RetryPolicy { max_attempts: 8, base_ms: 20, cap_ms: 800 };
        for salt in [0u64, 1, 42, u64::MAX] {
            for attempt in 0..8 {
                let a = policy.backoff_ms(salt, attempt);
                let b = policy.backoff_ms(salt, attempt);
                assert_eq!(a, b, "same inputs, same backoff");
                assert!((20..=800).contains(&a), "backoff {a}ms outside bounds");
            }
        }
        // Different salts must not produce identical schedules.
        let schedule = |salt| (0..8).map(|a| policy.backoff_ms(salt, a)).collect::<Vec<_>>();
        assert_ne!(schedule(1), schedule(2), "salts should decorrelate jitter");
    }

    #[test]
    fn none_policy_is_a_single_attempt() {
        let mut calls = 0u32;
        let res: Result<(), _> = retry_request(
            &RetryPolicy::none(),
            0,
            |_| {},
            |_| {
                calls += 1;
                Err(ClientError::Busy)
            },
        );
        assert!(matches!(res, Err(ClientError::Busy)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn write_rejected_is_never_retryable() {
        let e = ClientError::WriteRejected { message: "duplicate id".into() };
        assert!(!e.is_retryable());
        assert!(e.write_definitely_not_executed(), "rejection happens before the WAL");
        assert!(ClientError::Busy.write_definitely_not_executed());
        // Ack-unknown shapes: the commit may have landed.
        assert!(
            !ClientError::Timeout { stats: QueryStats::default() }.write_definitely_not_executed()
        );
        assert!(!ClientError::Io(io::ErrorKind::TimedOut.into()).write_definitely_not_executed());
        assert!(!ClientError::Io(io::ErrorKind::BrokenPipe.into()).write_definitely_not_executed());
    }

    #[test]
    fn retry_write_retries_busy_only() {
        let policy = RetryPolicy { max_attempts: 5, base_ms: 10, cap_ms: 500 };
        // Busy sheds (request never read) retry until success.
        let mut slept = Vec::new();
        let mut calls = 0u32;
        let res = retry_write(
            &policy,
            11,
            |d| slept.push(d),
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err(ClientError::Busy)
                } else {
                    Ok(p::WriteAckWire { lsn: 7, pending: 1 })
                }
            },
        );
        assert_eq!(res.unwrap().lsn, 7);
        assert_eq!(calls, 3);
        assert_eq!(slept.len(), 2, "one backoff per Busy shed");
        for d in &slept {
            let ms = d.as_millis() as u64;
            assert!((10..=500).contains(&ms), "backoff {ms}ms escaped [base, cap]");
        }
    }

    #[test]
    fn retry_write_never_resends_on_ack_unknown_failures() {
        let policy = RetryPolicy { max_attempts: 5, base_ms: 1, cap_ms: 50 };
        // A timeout is retryable for reads — but for a write the ack
        // status is unknown, so exactly one attempt is made.
        for err in [
            ClientError::Timeout { stats: QueryStats::default() },
            ClientError::Io(io::ErrorKind::TimedOut.into()),
            ClientError::Io(io::ErrorKind::BrokenPipe.into()),
            ClientError::Protocol(ProtocolError::Truncated),
            ClientError::WriteRejected { message: "dup".into() },
        ] {
            let mut calls = 0u32;
            let mut slept = 0usize;
            let mut err = Some(err);
            let res: Result<p::WriteAckWire, _> = retry_write(
                &policy,
                2,
                |_| slept += 1,
                |_| {
                    calls += 1;
                    Err(err.take().expect("called once"))
                },
            );
            assert!(res.is_err());
            assert_eq!(calls, 1, "ack-unknown failure must not be resent");
            assert_eq!(slept, 0);
        }
    }

    #[test]
    fn degenerate_policies_do_not_panic_or_escape_bounds() {
        let zero = RetryPolicy { max_attempts: 0, base_ms: 0, cap_ms: 0 };
        assert_eq!(zero.backoff_ms(9, 0), 0);
        let mut calls = 0u32;
        let _: Result<(), _> = retry_request(
            &zero,
            0,
            |_| {},
            |_| {
                calls += 1;
                Err(ClientError::Busy)
            },
        );
        assert_eq!(calls, 1, "max_attempts 0 still makes one attempt");

        let flat = RetryPolicy { max_attempts: 3, base_ms: 100, cap_ms: 100 };
        assert_eq!(flat.backoff_ms(5, 2), 100, "cap == base pins the backoff");
    }
}
