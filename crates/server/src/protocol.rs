//! The wire protocol: compact little-endian binary frames mirroring the
//! [`neurospatial::Query`] builder.
//!
//! Every frame is `[u32 len][u8 opcode][payload]` where `len` counts the
//! opcode byte plus the payload (so an empty-payload frame has
//! `len == 1`). Requests carry a [`QueryDesc`] envelope — tenant id plus
//! the builder's pushdown composition (population / filter-id / limit as
//! presence-flagged optionals) — followed by the operation's operands.
//! Responses stream: a range query answers with zero or more
//! segment-chunk frames followed by one `DONE` frame carrying the
//! traversal's [`QueryStats`]; aggregates and errors are single frames.
//!
//! Two decoding surfaces share one layout:
//!
//! * [`RequestView`] borrows variable-length fields (population names)
//!   straight out of the read buffer — the server's steady-state path,
//!   which must not allocate per request;
//! * [`Request`] / [`Response`] own their fields — the round-trip form
//!   the property tests and the in-process client exercise.
//!
//! Every decoder is total: malformed input returns a typed
//! [`ProtocolError`], never a panic, and counts are validated against
//! the bytes actually present before any buffer is sized from them.

use neurospatial::geom::{Aabb, Segment, Vec3};
use neurospatial::model::{NavigationPath, NeuronSegment};
use neurospatial::obs::MetricsSnapshot;
use neurospatial::{Neighbor, QueryStats, WalkthroughMethod};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's `len` header: a corrupt or hostile length
/// prefix must not size a buffer. 16 MiB holds ~220k segment results per
/// chunk — far above [`SEGMENT_CHUNK`]-sized frames.
pub const MAX_FRAME: usize = 1 << 24;

/// Segments per streamed response chunk (~39 KiB frames).
pub const SEGMENT_CHUNK: usize = 512;

// Request opcodes.
pub const OP_RANGE: u8 = 0x01;
pub const OP_COUNT: u8 = 0x02;
pub const OP_KNN: u8 = 0x03;
pub const OP_TOUCHING: u8 = 0x04;
pub const OP_WALKTHROUGH: u8 = 0x05;
pub const OP_EXPLAIN: u8 = 0x06;
pub const OP_STATS: u8 = 0x07;
pub const OP_HEALTH: u8 = 0x08;
/// Durable insert (live servers only): `u32 tenant` + one 76-byte
/// segment; answered with one `WRITE_ACK` frame after the WAL commit.
pub const OP_INSERT: u8 = 0x09;
/// Durable remove (live servers only): `u32 tenant` + `u64 id`;
/// answered with one `WRITE_ACK` frame after the WAL commit.
pub const OP_REMOVE: u8 = 0x0A;
/// Observability scrape: no payload; answered with one
/// `METRICS_RESULT` frame carrying a versioned
/// [`MetricsSnapshot`] (process-wide registry merged with the server's
/// per-listener registry).
pub const OP_METRICS: u8 = 0x0B;

// Response opcodes.
pub const OP_SEGMENT_CHUNK: u8 = 0x81;
pub const OP_NEIGHBOR_CHUNK: u8 = 0x82;
pub const OP_PAIR_CHUNK: u8 = 0x83;
pub const OP_DONE: u8 = 0x84;
pub const OP_COUNT_RESULT: u8 = 0x85;
pub const OP_PLAN_RESULT: u8 = 0x86;
pub const OP_STATS_RESULT: u8 = 0x87;
pub const OP_ERROR: u8 = 0x88;
pub const OP_BUSY: u8 = 0x89;
pub const OP_WALK_RESULT: u8 = 0x8A;
pub const OP_HEALTH_RESULT: u8 = 0x8B;
/// A stream cut short by the server's per-request time budget: takes the
/// place of `DONE`, carrying the statistics of the work actually done.
/// Everything streamed before it is valid but incomplete.
pub const OP_TIMEOUT: u8 = 0x8C;
/// Durability acknowledgement for `INSERT` / `REMOVE`: sent only after
/// the write's commit record is fsync'd to the WAL. Carries the commit
/// LSN and the delta ops still pending a re-freeze.
pub const OP_WRITE_ACK: u8 = 0x8D;
/// Answer to `METRICS`: the payload is exactly the versioned binary
/// encoding produced by [`MetricsSnapshot::encode_into`]
/// (self-describing, version-checked on decode).
pub const OP_METRICS_RESULT: u8 = 0x8E;

// QueryDesc presence flags.
pub const FLAG_POPULATION: u8 = 1;
pub const FLAG_FILTER: u8 = 2;
pub const FLAG_LIMIT: u8 = 4;
/// Accept partial results from a degraded (quarantined-page) database;
/// a pure flag — no payload bytes follow it.
pub const FLAG_PARTIAL: u8 = 8;

// HealthReport flag bits.
pub const HEALTH_PAGED: u8 = 1;
pub const HEALTH_DEGRADED: u8 = 2;
/// The served database is live (WAL-backed): a [`WalWire`] block
/// follows the quarantine list in the `HEALTH_RESULT` payload.
pub const HEALTH_WAL: u8 = 4;
/// The last recovery truncated a torn WAL tail (uncommitted bytes from
/// a crash mid-append). Informational: the acknowledged prefix is
/// intact. Only valid alongside [`HEALTH_WAL`].
pub const HEALTH_WAL_TORN: u8 = 8;

// Application error codes carried by `OP_ERROR` frames.
pub const ERR_UNKNOWN_POPULATION: u16 = 1;
pub const ERR_UNKNOWN_FILTER: u16 = 2;
pub const ERR_PROTOCOL: u16 = 3;
pub const ERR_UNSUPPORTED: u16 = 4;
pub const ERR_INTERNAL: u16 = 5;
/// The query needed quarantined pages and did not set `FLAG_PARTIAL`.
pub const ERR_DEGRADED: u16 = 6;
/// A write was validated and refused before anything reached the WAL
/// (duplicate id, unknown removal target, non-finite geometry). Nothing
/// was logged; retrying the same write will fail the same way.
pub const ERR_WRITE_REJECTED: u16 = 7;

/// Why a frame failed to decode. Decoders return these — they never
/// panic, whatever the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before a fixed-width field or declared count
    /// was satisfied.
    Truncated,
    /// The frame's opcode byte is not one this protocol defines (or not
    /// one valid in this position).
    UnknownOpcode(u8),
    /// The `len` header exceeds [`MAX_FRAME`] (or is zero, which cannot
    /// even hold the opcode byte).
    FrameTooLarge(u64),
    /// Structurally invalid payload: bad flag bits, non-UTF-8 name,
    /// out-of-range enum index, count disagreeing with the bytes
    /// present, or trailing garbage after a complete body.
    Malformed(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame payload truncated"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02X}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame length {n} outside 1..={MAX_FRAME}")
            }
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The request envelope: who is asking (tenant, for the per-tenant
/// accounting behind `STATS`) and the pushdown composition every
/// operation shares. Owned form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryDesc {
    /// Accounting key; `STATS` reports per-tenant totals.
    pub tenant: u32,
    /// Restrict to one named population (`FLAG_POPULATION`).
    pub population: Option<String>,
    /// Server-registered predicate id (`FLAG_FILTER`) — predicates
    /// cannot cross the wire, so clients name them.
    pub filter_id: Option<u32>,
    /// Stop the traversal after this many results (`FLAG_LIMIT`).
    pub limit: Option<u32>,
    /// Accept labeled partial results from a degraded paged database
    /// (`FLAG_PARTIAL`); the loss is reported in
    /// `QueryStats::pages_quarantined` on the `DONE` frame.
    pub allow_partial: bool,
}

/// [`QueryDesc`] with the population name borrowed from the read buffer
/// — the server's per-request decode allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryDescView<'a> {
    pub tenant: u32,
    pub population: Option<&'a str>,
    pub filter_id: Option<u32>,
    pub limit: Option<u32>,
    pub allow_partial: bool,
}

impl QueryDescView<'_> {
    /// The owning form. (Named to dodge the blanket
    /// [`ToOwned::to_owned`], which would clone the view instead.)
    pub fn into_owned(self) -> QueryDesc {
        QueryDesc {
            tenant: self.tenant,
            population: self.population.map(str::to_string),
            filter_id: self.filter_id,
            limit: self.limit,
            allow_partial: self.allow_partial,
        }
    }
}

impl QueryDesc {
    pub fn tenant(tenant: u32) -> Self {
        QueryDesc { tenant, ..QueryDesc::default() }
    }

    fn view(&self) -> QueryDescView<'_> {
        QueryDescView {
            tenant: self.tenant,
            population: self.population.as_deref(),
            filter_id: self.filter_id,
            limit: self.limit,
            allow_partial: self.allow_partial,
        }
    }
}

/// A decoded request, owned — what the client encodes and the property
/// tests round-trip.
#[derive(Debug, Clone)]
pub enum Request {
    /// Range query: stream matching segments, then `DONE`.
    Range { desc: QueryDesc, region: Aabb },
    /// Count-only range query: one `COUNT_RESULT` frame, nothing
    /// materialized server-side (the [`neurospatial::RangeQuery::count`]
    /// terminal).
    Count { desc: QueryDesc, region: Aabb },
    /// K nearest neighbours: neighbour chunks, then `DONE`.
    Knn { desc: QueryDesc, p: Vec3, k: u32 },
    /// ε-distance join against population `other`: pair chunks, then
    /// `DONE`.
    Touching { desc: QueryDesc, other: String, epsilon: f64 },
    /// Walkthrough replay with paged I/O (monolithic FLAT servers only):
    /// one `WALK_RESULT` frame.
    Walkthrough { tenant: u32, method: WalkthroughMethod, path: NavigationPath },
    /// Plan the wrapped request without executing it: one `PLAN_RESULT`
    /// frame. Not nestable; cannot wrap `Stats`.
    Explain(Box<Request>),
    /// Per-tenant accounting snapshot: one `STATS_RESULT` frame.
    Stats { tenant: u32 },
    /// Serving-health probe (quarantine / degraded state): one
    /// `HEALTH_RESULT` frame. No payload.
    Health,
    /// Durable insert (live servers only): one `WRITE_ACK` frame after
    /// the WAL commit, or an `ERROR` frame (nothing was logged).
    Insert { tenant: u32, segment: NeuronSegment },
    /// Durable remove by segment id (live servers only).
    Remove { tenant: u32, id: u64 },
    /// Observability scrape: one `METRICS_RESULT` frame with the live
    /// metrics snapshot. No payload.
    Metrics,
}

/// A decoded request borrowing its variable-length fields from the read
/// buffer — the server's allocation-free decode for the hot operations.
/// (`Walkthrough` owns its path: replays are not the steady-state path
/// and the path's vectors cannot be borrowed.)
#[derive(Debug, Clone)]
pub enum RequestView<'a> {
    Range { desc: QueryDescView<'a>, region: Aabb },
    Count { desc: QueryDescView<'a>, region: Aabb },
    Knn { desc: QueryDescView<'a>, p: Vec3, k: u32 },
    Touching { desc: QueryDescView<'a>, other: &'a str, epsilon: f64 },
    Walkthrough { tenant: u32, method: WalkthroughMethod, path: NavigationPath },
    Explain(Box<RequestView<'a>>),
    Stats { tenant: u32 },
    Health,
    Insert { tenant: u32, segment: NeuronSegment },
    Remove { tenant: u32, id: u64 },
    Metrics,
}

impl RequestView<'_> {
    /// The owning form (named to dodge the blanket [`ToOwned`]).
    pub fn into_owned(self) -> Request {
        match self {
            RequestView::Range { desc, region } => {
                Request::Range { desc: desc.into_owned(), region }
            }
            RequestView::Count { desc, region } => {
                Request::Count { desc: desc.into_owned(), region }
            }
            RequestView::Knn { desc, p, k } => Request::Knn { desc: desc.into_owned(), p, k },
            RequestView::Touching { desc, other, epsilon } => {
                Request::Touching { desc: desc.into_owned(), other: other.to_string(), epsilon }
            }
            RequestView::Walkthrough { tenant, method, path } => {
                Request::Walkthrough { tenant, method, path }
            }
            RequestView::Explain(inner) => Request::Explain(Box::new((*inner).into_owned())),
            RequestView::Stats { tenant } => Request::Stats { tenant },
            RequestView::Health => Request::Health,
            RequestView::Insert { tenant, segment } => Request::Insert { tenant, segment },
            RequestView::Remove { tenant, id } => Request::Remove { tenant, id },
            RequestView::Metrics => Request::Metrics,
        }
    }

    /// The tenant this request bills to (`HEALTH` carries none: 0).
    pub fn tenant(&self) -> u32 {
        match self {
            RequestView::Range { desc, .. }
            | RequestView::Count { desc, .. }
            | RequestView::Knn { desc, .. }
            | RequestView::Touching { desc, .. } => desc.tenant,
            RequestView::Walkthrough { tenant, .. }
            | RequestView::Stats { tenant }
            | RequestView::Insert { tenant, .. }
            | RequestView::Remove { tenant, .. } => *tenant,
            RequestView::Explain(inner) => inner.tenant(),
            RequestView::Health | RequestView::Metrics => 0,
        }
    }
}

/// The [`neurospatial::Plan`] fields in wire form (owned strings instead
/// of `&'static str` / backend enums, so plans decode without the
/// catalogue).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanWire {
    pub operation: String,
    pub backend: String,
    pub shards_total: u32,
    pub shards_probed: u32,
    pub estimated_reads: u64,
    pub pushdown_filter: bool,
    pub pushdown_limit: Option<u32>,
    pub population: Option<String>,
}

/// One tenant's accumulated serving totals, as reported by `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantTotals {
    pub tenant: u32,
    /// Requests served (accepted and executed, successfully or not).
    pub queries: u64,
    /// Field-wise sums of every served query's [`QueryStats`].
    pub results: u64,
    pub nodes_read: u64,
    pub objects_tested: u64,
    pub reseeds: u64,
}

/// The server's serving-health snapshot, as reported by `HEALTH`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Whether the served database is paged (quarantine state only
    /// exists for paged backends).
    pub paged: bool,
    /// At least one page has been quarantined: strict queries touching
    /// those pages fail with [`ERR_DEGRADED`], everything else serves
    /// normally.
    pub degraded: bool,
    /// The quarantined page indices, ascending.
    pub quarantined: Vec<u64>,
    /// Write-ahead-log state; `Some` only for live (WAL-backed) servers
    /// (`HEALTH_WAL` flag on the wire).
    pub wal: Option<WalWire>,
}

/// A live server's WAL / recovery state in wire form — the
/// `neurospatial` crate's `WalHealth` without the epoch-internal fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWire {
    /// LSN of the most recent commit or checkpoint record.
    pub last_lsn: u64,
    /// Current log size in bytes (drops at each checkpoint).
    pub wal_bytes: u64,
    /// Delta ops applied since the last re-freeze.
    pub pending_ops: u64,
    /// Snapshot-swap generation (0 = the recovery/boot build).
    pub epoch: u64,
    /// Ops replayed from the log tail when the database was opened.
    pub replayed_ops: u64,
    /// Checkpoints written over the database's lifetime.
    pub checkpoints: u64,
    /// Whether recovery truncated a torn (uncommitted) tail.
    pub recovered_torn_tail: bool,
}

/// The payload of a `WRITE_ACK` frame: proof of durability for one
/// acknowledged write batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteAckWire {
    /// LSN of the commit record covering the write; the write survives
    /// any crash after this frame is received.
    pub lsn: u64,
    /// Delta ops pending a background re-freeze after this write.
    pub pending: u64,
}

/// A walkthrough replay's summary statistics in wire form.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalkSummary {
    pub steps: u32,
    pub total_stall_ms: f64,
    pub demand_misses: u64,
    pub demand_hits: u64,
    pub prefetched: u64,
    pub useful_prefetched: u64,
}

/// A decoded response frame, owned — the client/test surface. The
/// server encodes chunks directly from its reused buffers via the
/// `encode_*` free functions instead of building these.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A batch of result segments (one of several, order preserved).
    Segments(Vec<NeuronSegment>),
    /// A batch of KNN neighbours.
    Neighbors(Vec<Neighbor>),
    /// A batch of join index pairs.
    Pairs(Vec<(u32, u32)>),
    /// End of stream: the traversal's statistics.
    Done(QueryStats),
    /// A count-only answer.
    Count {
        count: u64,
        stats: QueryStats,
    },
    Plan(PlanWire),
    Stats(TenantTotals),
    /// Application-level failure (unknown population/filter, unsupported
    /// operation, protocol violation). The connection stays usable.
    Error {
        code: u16,
        message: String,
    },
    /// Admission control shed this connection before any request was
    /// read; the server closes the socket after sending it.
    Busy,
    Walkthrough(WalkSummary),
    /// Serving-health snapshot (quarantine / degraded state).
    Health(HealthReport),
    /// The per-request time budget expired mid-stream: everything
    /// already streamed is valid but the result set is incomplete. Takes
    /// the place of `Done`, carrying the work actually performed.
    Timeout(QueryStats),
    /// Durability acknowledgement: the write's commit record is on
    /// stable storage.
    WriteAck(WriteAckWire),
    /// The live metrics snapshot answering a `METRICS` scrape.
    Metrics(MetricsSnapshot),
}

// ---------------------------------------------------------------------
// Primitive cursor
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over one frame payload.
struct Rd<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, off: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.off
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn vec3(&mut self) -> Result<Vec3, ProtocolError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    fn aabb(&mut self) -> Result<Aabb, ProtocolError> {
        Ok(Aabb { lo: self.vec3()?, hi: self.vec3()? })
    }

    fn str(&mut self) -> Result<&'a str, ProtocolError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| ProtocolError::Malformed("non-UTF-8 name"))
    }

    /// A `u32` element count, validated against the bytes actually
    /// remaining *before* anything is sized from it.
    fn count(&mut self, elem_size: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.checked_mul(elem_size).is_none_or(|need| need > self.remaining()) {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    /// Declare the body complete: trailing bytes are an error.
    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::Malformed("trailing bytes after frame body"));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f64(out, v.x);
    put_f64(out, v.y);
    put_f64(out, v.z);
}

fn put_aabb(out: &mut Vec<u8>, a: &Aabb) {
    put_vec3(out, a.lo);
    put_vec3(out, a.hi);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long for wire");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Begin a frame in `out`: reserve the length header, write the opcode,
/// and return the offset to patch with [`end_frame`].
fn begin_frame(out: &mut Vec<u8>, opcode: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0, opcode]);
    at
}

/// Patch the length header of the frame begun at `at`.
fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Read one complete frame into `buf` (reused across calls — the steady
/// state allocates nothing once the buffer has grown). Returns the
/// opcode and the payload slice. Corrupt length headers surface as
/// [`io::ErrorKind::InvalidData`] carrying the [`ProtocolError`].
pub fn read_frame<'a>(r: &mut impl Read, buf: &'a mut Vec<u8>) -> io::Result<(u8, &'a [u8])> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge(len as u64),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok((buf[0], &buf[1..]))
}

/// Write bytes previously produced by the `encode_*` functions.
pub fn write_all(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

// ---------------------------------------------------------------------
// Request encoding / decoding
// ---------------------------------------------------------------------

fn put_desc(out: &mut Vec<u8>, desc: &QueryDescView<'_>) {
    put_u32(out, desc.tenant);
    let mut flags = 0u8;
    if desc.population.is_some() {
        flags |= FLAG_POPULATION;
    }
    if desc.filter_id.is_some() {
        flags |= FLAG_FILTER;
    }
    if desc.limit.is_some() {
        flags |= FLAG_LIMIT;
    }
    if desc.allow_partial {
        flags |= FLAG_PARTIAL;
    }
    out.push(flags);
    if let Some(name) = desc.population {
        put_str(out, name);
    }
    if let Some(id) = desc.filter_id {
        put_u32(out, id);
    }
    if let Some(limit) = desc.limit {
        put_u32(out, limit);
    }
}

fn read_desc<'a>(rd: &mut Rd<'a>) -> Result<QueryDescView<'a>, ProtocolError> {
    let tenant = rd.u32()?;
    let flags = rd.u8()?;
    if flags & !(FLAG_POPULATION | FLAG_FILTER | FLAG_LIMIT | FLAG_PARTIAL) != 0 {
        return Err(ProtocolError::Malformed("unknown QueryDesc flag bits"));
    }
    let population = if flags & FLAG_POPULATION != 0 { Some(rd.str()?) } else { None };
    let filter_id = if flags & FLAG_FILTER != 0 { Some(rd.u32()?) } else { None };
    let limit = if flags & FLAG_LIMIT != 0 { Some(rd.u32()?) } else { None };
    let allow_partial = flags & FLAG_PARTIAL != 0;
    Ok(QueryDescView { tenant, population, filter_id, limit, allow_partial })
}

/// Append a range-request frame without an owned [`Request`] — the
/// client's allocation-free send path.
pub fn encode_range_request(desc: &QueryDescView<'_>, region: &Aabb, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_RANGE);
    put_desc(out, desc);
    put_aabb(out, region);
    end_frame(out, at);
}

/// Append a count-request frame (allocation-free form).
pub fn encode_count_request(desc: &QueryDescView<'_>, region: &Aabb, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_COUNT);
    put_desc(out, desc);
    put_aabb(out, region);
    end_frame(out, at);
}

/// Append a KNN-request frame (allocation-free form).
pub fn encode_knn_request(desc: &QueryDescView<'_>, p: Vec3, k: u32, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_KNN);
    put_desc(out, desc);
    put_vec3(out, p);
    put_u32(out, k);
    end_frame(out, at);
}

/// Append a durable-insert request frame (allocation-free form).
pub fn encode_insert_request(tenant: u32, segment: &NeuronSegment, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_INSERT);
    put_u32(out, tenant);
    put_segment(out, segment);
    end_frame(out, at);
}

/// Append a durable-remove request frame (allocation-free form).
pub fn encode_remove_request(tenant: u32, id: u64, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_REMOVE);
    put_u32(out, tenant);
    put_u64(out, id);
    end_frame(out, at);
}

/// Append a metrics-scrape request frame (no payload).
pub fn encode_metrics_request(out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_METRICS);
    end_frame(out, at);
}

fn method_index(method: WalkthroughMethod) -> u8 {
    WalkthroughMethod::ALL.iter().position(|m| *m == method).expect("every method is in ALL") as u8
}

/// Append `req` to `out` as one complete frame (header included).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    fn body(req: &Request, out: &mut Vec<u8>) {
        match req {
            Request::Range { desc, region } | Request::Count { desc, region } => {
                put_desc(out, &desc.view());
                put_aabb(out, region);
            }
            Request::Knn { desc, p, k } => {
                put_desc(out, &desc.view());
                put_vec3(out, *p);
                put_u32(out, *k);
            }
            Request::Touching { desc, other, epsilon } => {
                put_desc(out, &desc.view());
                put_str(out, other);
                put_f64(out, *epsilon);
            }
            Request::Walkthrough { tenant, method, path } => {
                put_u32(out, *tenant);
                out.push(method_index(*method));
                put_u32(out, path.neuron);
                put_u32(out, path.sections.len() as u32);
                for s in &path.sections {
                    put_u32(out, *s);
                }
                put_u32(out, path.waypoints.len() as u32);
                for w in &path.waypoints {
                    put_vec3(out, *w);
                }
                put_u32(out, path.queries.len() as u32);
                for q in &path.queries {
                    put_aabb(out, q);
                }
                put_f64(out, path.view_radius);
            }
            Request::Stats { tenant } => put_u32(out, *tenant),
            Request::Health | Request::Metrics => {}
            Request::Insert { tenant, segment } => {
                put_u32(out, *tenant);
                put_segment(out, segment);
            }
            Request::Remove { tenant, id } => {
                put_u32(out, *tenant);
                put_u64(out, *id);
            }
            Request::Explain(inner) => {
                out.push(request_opcode(inner));
                body(inner, out);
            }
        }
    }
    let at = begin_frame(out, request_opcode(req));
    body(req, out);
    end_frame(out, at);
}

/// The opcode an owned request encodes under.
pub fn request_opcode(req: &Request) -> u8 {
    match req {
        Request::Range { .. } => OP_RANGE,
        Request::Count { .. } => OP_COUNT,
        Request::Knn { .. } => OP_KNN,
        Request::Touching { .. } => OP_TOUCHING,
        Request::Walkthrough { .. } => OP_WALKTHROUGH,
        Request::Explain(_) => OP_EXPLAIN,
        Request::Stats { .. } => OP_STATS,
        Request::Health => OP_HEALTH,
        Request::Insert { .. } => OP_INSERT,
        Request::Remove { .. } => OP_REMOVE,
        Request::Metrics => OP_METRICS,
    }
}

/// Decode a request payload into the borrowing view. `explainable`
/// gates recursion: an `EXPLAIN` body may hold any plannable request but
/// not another `EXPLAIN` (or `STATS`).
fn decode_request_inner<'a>(
    opcode: u8,
    rd: &mut Rd<'a>,
    explainable: bool,
) -> Result<RequestView<'a>, ProtocolError> {
    match opcode {
        OP_RANGE => Ok(RequestView::Range { desc: read_desc(rd)?, region: rd.aabb()? }),
        OP_COUNT => Ok(RequestView::Count { desc: read_desc(rd)?, region: rd.aabb()? }),
        OP_KNN => Ok(RequestView::Knn { desc: read_desc(rd)?, p: rd.vec3()?, k: rd.u32()? }),
        OP_TOUCHING => {
            Ok(RequestView::Touching { desc: read_desc(rd)?, other: rd.str()?, epsilon: rd.f64()? })
        }
        OP_WALKTHROUGH => {
            let tenant = rd.u32()?;
            let mi = rd.u8()?;
            let method = *WalkthroughMethod::ALL
                .get(mi as usize)
                .ok_or(ProtocolError::Malformed("walkthrough method out of range"))?;
            let neuron = rd.u32()?;
            let n = rd.count(4)?;
            let mut sections = Vec::with_capacity(n);
            for _ in 0..n {
                sections.push(rd.u32()?);
            }
            let n = rd.count(24)?;
            let mut waypoints = Vec::with_capacity(n);
            for _ in 0..n {
                waypoints.push(rd.vec3()?);
            }
            let n = rd.count(48)?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                queries.push(rd.aabb()?);
            }
            let view_radius = rd.f64()?;
            Ok(RequestView::Walkthrough {
                tenant,
                method,
                path: NavigationPath { neuron, sections, waypoints, queries, view_radius },
            })
        }
        OP_STATS => Ok(RequestView::Stats { tenant: rd.u32()? }),
        OP_HEALTH => Ok(RequestView::Health),
        OP_METRICS => Ok(RequestView::Metrics),
        OP_INSERT => Ok(RequestView::Insert { tenant: rd.u32()?, segment: read_segment(rd)? }),
        OP_REMOVE => Ok(RequestView::Remove { tenant: rd.u32()?, id: rd.u64()? }),
        OP_EXPLAIN if explainable => {
            let inner_op = rd.u8()?;
            if inner_op == OP_STATS {
                return Err(ProtocolError::Malformed("EXPLAIN cannot wrap STATS"));
            }
            if inner_op == OP_HEALTH {
                return Err(ProtocolError::Malformed("EXPLAIN cannot wrap HEALTH"));
            }
            if inner_op == OP_INSERT || inner_op == OP_REMOVE {
                return Err(ProtocolError::Malformed("EXPLAIN cannot wrap a write"));
            }
            if inner_op == OP_METRICS {
                return Err(ProtocolError::Malformed("EXPLAIN cannot wrap METRICS"));
            }
            let inner = decode_request_inner(inner_op, rd, false)?;
            Ok(RequestView::Explain(Box::new(inner)))
        }
        OP_EXPLAIN => Err(ProtocolError::Malformed("EXPLAIN cannot nest")),
        other => Err(ProtocolError::UnknownOpcode(other)),
    }
}

/// Decode a request frame body (opcode + payload as returned by
/// [`read_frame`]) into the allocation-free view.
pub fn decode_request_view(opcode: u8, payload: &[u8]) -> Result<RequestView<'_>, ProtocolError> {
    let mut rd = Rd::new(payload);
    let req = decode_request_inner(opcode, &mut rd, true)?;
    rd.finish()?;
    Ok(req)
}

/// Decode a request frame body into the owned form.
pub fn decode_request(opcode: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    Ok(decode_request_view(opcode, payload)?.into_owned())
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

fn put_segment(out: &mut Vec<u8>, s: &NeuronSegment) {
    put_u64(out, s.id);
    put_u32(out, s.neuron);
    put_u32(out, s.section);
    put_u32(out, s.index_on_section);
    put_vec3(out, s.geom.p0);
    put_vec3(out, s.geom.p1);
    put_f64(out, s.geom.radius);
}

fn read_segment(rd: &mut Rd<'_>) -> Result<NeuronSegment, ProtocolError> {
    Ok(NeuronSegment {
        id: rd.u64()?,
        neuron: rd.u32()?,
        section: rd.u32()?,
        index_on_section: rd.u32()?,
        geom: Segment { p0: rd.vec3()?, p1: rd.vec3()?, radius: rd.f64()? },
    })
}

fn put_stats(out: &mut Vec<u8>, stats: &QueryStats) {
    put_u64(out, stats.results);
    put_u64(out, stats.nodes_read);
    put_u64(out, stats.objects_tested);
    put_u64(out, stats.reseeds);
    put_u64(out, stats.cache_hits);
    put_u64(out, stats.cache_misses);
    put_u64(out, stats.cache_evictions);
    put_u64(out, stats.retries);
    put_u64(out, stats.pages_quarantined);
}

fn read_stats(rd: &mut Rd<'_>) -> Result<QueryStats, ProtocolError> {
    Ok(QueryStats {
        results: rd.u64()?,
        nodes_read: rd.u64()?,
        objects_tested: rd.u64()?,
        reseeds: rd.u64()?,
        cache_hits: rd.u64()?,
        cache_misses: rd.u64()?,
        cache_evictions: rd.u64()?,
        retries: rd.u64()?,
        pages_quarantined: rd.u64()?,
    })
}

/// Append one segment-chunk frame.
pub fn encode_segment_chunk(segments: &[NeuronSegment], out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_SEGMENT_CHUNK);
    put_u32(out, segments.len() as u32);
    for s in segments {
        put_segment(out, s);
    }
    end_frame(out, at);
}

/// Append one neighbour-chunk frame.
pub fn encode_neighbor_chunk(neighbors: &[Neighbor], out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_NEIGHBOR_CHUNK);
    put_u32(out, neighbors.len() as u32);
    for n in neighbors {
        put_segment(out, &n.segment);
        put_f64(out, n.distance);
    }
    end_frame(out, at);
}

/// Append one pair-chunk frame.
pub fn encode_pair_chunk(pairs: &[(u32, u32)], out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_PAIR_CHUNK);
    put_u32(out, pairs.len() as u32);
    for (a, b) in pairs {
        put_u32(out, *a);
        put_u32(out, *b);
    }
    end_frame(out, at);
}

/// Append the end-of-stream frame.
pub fn encode_done(stats: &QueryStats, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_DONE);
    put_stats(out, stats);
    end_frame(out, at);
}

/// Append a count-only answer.
pub fn encode_count(count: u64, stats: &QueryStats, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_COUNT_RESULT);
    put_u64(out, count);
    put_stats(out, stats);
    end_frame(out, at);
}

/// Append a plan answer.
pub fn encode_plan(plan: &PlanWire, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_PLAN_RESULT);
    put_str(out, &plan.operation);
    put_str(out, &plan.backend);
    put_u32(out, plan.shards_total);
    put_u32(out, plan.shards_probed);
    put_u64(out, plan.estimated_reads);
    let mut flags = 0u8;
    if plan.pushdown_filter {
        flags |= FLAG_FILTER;
    }
    if plan.pushdown_limit.is_some() {
        flags |= FLAG_LIMIT;
    }
    if plan.population.is_some() {
        flags |= FLAG_POPULATION;
    }
    out.push(flags);
    if let Some(name) = &plan.population {
        put_str(out, name);
    }
    if let Some(limit) = plan.pushdown_limit {
        put_u32(out, limit);
    }
    end_frame(out, at);
}

/// Append a per-tenant totals answer.
pub fn encode_stats_result(t: &TenantTotals, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_STATS_RESULT);
    put_u32(out, t.tenant);
    put_u64(out, t.queries);
    put_u64(out, t.results);
    put_u64(out, t.nodes_read);
    put_u64(out, t.objects_tested);
    put_u64(out, t.reseeds);
    end_frame(out, at);
}

/// Append an application error frame.
pub fn encode_error(code: u16, message: &str, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_ERROR);
    put_u16(out, code);
    put_str(out, message);
    end_frame(out, at);
}

/// Append the admission-control rejection frame.
pub fn encode_busy(out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_BUSY);
    end_frame(out, at);
}

/// Append a metrics-snapshot answer.
pub fn encode_metrics_result(snap: &MetricsSnapshot, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_METRICS_RESULT);
    snap.encode_into(out);
    end_frame(out, at);
}

/// Append a serving-health answer.
pub fn encode_health(h: &HealthReport, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_HEALTH_RESULT);
    let mut flags = 0u8;
    if h.paged {
        flags |= HEALTH_PAGED;
    }
    if h.degraded {
        flags |= HEALTH_DEGRADED;
    }
    if h.wal.is_some() {
        flags |= HEALTH_WAL;
    }
    if h.wal.is_some_and(|w| w.recovered_torn_tail) {
        flags |= HEALTH_WAL_TORN;
    }
    out.push(flags);
    put_u32(out, h.quarantined.len() as u32);
    for page in &h.quarantined {
        put_u64(out, *page);
    }
    if let Some(w) = &h.wal {
        put_u64(out, w.last_lsn);
        put_u64(out, w.wal_bytes);
        put_u64(out, w.pending_ops);
        put_u64(out, w.epoch);
        put_u64(out, w.replayed_ops);
        put_u64(out, w.checkpoints);
    }
    end_frame(out, at);
}

/// Append a durability acknowledgement.
pub fn encode_write_ack(ack: &WriteAckWire, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_WRITE_ACK);
    put_u64(out, ack.lsn);
    put_u64(out, ack.pending);
    end_frame(out, at);
}

/// Decode a `WRITE_ACK` payload.
pub fn decode_write_ack(payload: &[u8]) -> Result<WriteAckWire, ProtocolError> {
    let mut rd = Rd::new(payload);
    let ack = WriteAckWire { lsn: rd.u64()?, pending: rd.u64()? };
    rd.finish()?;
    Ok(ack)
}

/// Append the budget-expired terminator (in place of `DONE`).
pub fn encode_timeout(stats: &QueryStats, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_TIMEOUT);
    put_stats(out, stats);
    end_frame(out, at);
}

/// Append a walkthrough summary.
pub fn encode_walk(w: &WalkSummary, out: &mut Vec<u8>) {
    let at = begin_frame(out, OP_WALK_RESULT);
    put_u32(out, w.steps);
    put_f64(out, w.total_stall_ms);
    put_u64(out, w.demand_misses);
    put_u64(out, w.demand_hits);
    put_u64(out, w.prefetched);
    put_u64(out, w.useful_prefetched);
    end_frame(out, at);
}

/// Append an owned response as one frame — the test/round-trip surface;
/// the server streams through the specific `encode_*` functions.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Segments(s) => encode_segment_chunk(s, out),
        Response::Neighbors(n) => encode_neighbor_chunk(n, out),
        Response::Pairs(p) => encode_pair_chunk(p, out),
        Response::Done(stats) => encode_done(stats, out),
        Response::Count { count, stats } => encode_count(*count, stats, out),
        Response::Plan(plan) => encode_plan(plan, out),
        Response::Stats(t) => encode_stats_result(t, out),
        Response::Error { code, message } => encode_error(*code, message, out),
        Response::Busy => encode_busy(out),
        Response::Walkthrough(w) => encode_walk(w, out),
        Response::Health(h) => encode_health(h, out),
        Response::Timeout(stats) => encode_timeout(stats, out),
        Response::WriteAck(ack) => encode_write_ack(ack, out),
        Response::Metrics(snap) => encode_metrics_result(snap, out),
    }
}

// ---------------------------------------------------------------------
// Response decoding
// ---------------------------------------------------------------------

/// Decode a segment chunk into a caller-provided (warm) buffer — the
/// client's allocation-free receive path. Appends; does not clear.
pub fn decode_segment_chunk_into(
    payload: &[u8],
    out: &mut Vec<NeuronSegment>,
) -> Result<(), ProtocolError> {
    let mut rd = Rd::new(payload);
    let n = rd.count(76)?;
    out.reserve(n);
    for _ in 0..n {
        out.push(read_segment(&mut rd)?);
    }
    rd.finish()
}

/// Decode a neighbour chunk into a caller-provided buffer.
pub fn decode_neighbor_chunk_into(
    payload: &[u8],
    out: &mut Vec<Neighbor>,
) -> Result<(), ProtocolError> {
    let mut rd = Rd::new(payload);
    let n = rd.count(84)?;
    out.reserve(n);
    for _ in 0..n {
        let segment = read_segment(&mut rd)?;
        out.push(Neighbor { segment, distance: rd.f64()? });
    }
    rd.finish()
}

/// Decode a pair chunk into a caller-provided buffer.
pub fn decode_pair_chunk_into(
    payload: &[u8],
    out: &mut Vec<(u32, u32)>,
) -> Result<(), ProtocolError> {
    let mut rd = Rd::new(payload);
    let n = rd.count(8)?;
    out.reserve(n);
    for _ in 0..n {
        let a = rd.u32()?;
        let b = rd.u32()?;
        out.push((a, b));
    }
    rd.finish()
}

/// Decode a `DONE` payload.
pub fn decode_done(payload: &[u8]) -> Result<QueryStats, ProtocolError> {
    let mut rd = Rd::new(payload);
    let stats = read_stats(&mut rd)?;
    rd.finish()?;
    Ok(stats)
}

/// Decode a `COUNT_RESULT` payload.
pub fn decode_count(payload: &[u8]) -> Result<(u64, QueryStats), ProtocolError> {
    let mut rd = Rd::new(payload);
    let count = rd.u64()?;
    let stats = read_stats(&mut rd)?;
    rd.finish()?;
    Ok((count, stats))
}

/// Stable reason strings for metrics-snapshot decode failures.
fn metrics_decode_reason(e: &neurospatial::obs::SnapshotDecodeError) -> &'static str {
    use neurospatial::obs::SnapshotDecodeError as E;
    match e {
        E::Truncated => "metrics snapshot truncated",
        E::UnsupportedVersion(_) => "unsupported metrics snapshot version",
        E::BadName => "metrics snapshot name not UTF-8",
        E::TrailingBytes(_) => "trailing bytes after metrics snapshot",
    }
}

/// Decode any response frame body into the owned form.
pub fn decode_response(opcode: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut rd = Rd::new(payload);
    let resp = match opcode {
        OP_SEGMENT_CHUNK => {
            let mut v = Vec::new();
            decode_segment_chunk_into(payload, &mut v)?;
            return Ok(Response::Segments(v));
        }
        OP_NEIGHBOR_CHUNK => {
            let mut v = Vec::new();
            decode_neighbor_chunk_into(payload, &mut v)?;
            return Ok(Response::Neighbors(v));
        }
        OP_PAIR_CHUNK => {
            let mut v = Vec::new();
            decode_pair_chunk_into(payload, &mut v)?;
            return Ok(Response::Pairs(v));
        }
        OP_DONE => Response::Done(read_stats(&mut rd)?),
        OP_COUNT_RESULT => Response::Count { count: rd.u64()?, stats: read_stats(&mut rd)? },
        OP_PLAN_RESULT => {
            let operation = rd.str()?.to_string();
            let backend = rd.str()?.to_string();
            let shards_total = rd.u32()?;
            let shards_probed = rd.u32()?;
            let estimated_reads = rd.u64()?;
            let flags = rd.u8()?;
            if flags & !(FLAG_POPULATION | FLAG_FILTER | FLAG_LIMIT) != 0 {
                return Err(ProtocolError::Malformed("unknown plan flag bits"));
            }
            let population =
                if flags & FLAG_POPULATION != 0 { Some(rd.str()?.to_string()) } else { None };
            let pushdown_limit = if flags & FLAG_LIMIT != 0 { Some(rd.u32()?) } else { None };
            Response::Plan(PlanWire {
                operation,
                backend,
                shards_total,
                shards_probed,
                estimated_reads,
                pushdown_filter: flags & FLAG_FILTER != 0,
                pushdown_limit,
                population,
            })
        }
        OP_STATS_RESULT => Response::Stats(TenantTotals {
            tenant: rd.u32()?,
            queries: rd.u64()?,
            results: rd.u64()?,
            nodes_read: rd.u64()?,
            objects_tested: rd.u64()?,
            reseeds: rd.u64()?,
        }),
        OP_ERROR => Response::Error { code: rd.u16()?, message: rd.str()?.to_string() },
        OP_BUSY => Response::Busy,
        OP_WALK_RESULT => Response::Walkthrough(WalkSummary {
            steps: rd.u32()?,
            total_stall_ms: rd.f64()?,
            demand_misses: rd.u64()?,
            demand_hits: rd.u64()?,
            prefetched: rd.u64()?,
            useful_prefetched: rd.u64()?,
        }),
        OP_HEALTH_RESULT => {
            let flags = rd.u8()?;
            if flags & !(HEALTH_PAGED | HEALTH_DEGRADED | HEALTH_WAL | HEALTH_WAL_TORN) != 0 {
                return Err(ProtocolError::Malformed("unknown health flag bits"));
            }
            if flags & HEALTH_WAL_TORN != 0 && flags & HEALTH_WAL == 0 {
                return Err(ProtocolError::Malformed("torn-tail flag without WAL block"));
            }
            let n = rd.count(8)?;
            let mut quarantined = Vec::with_capacity(n);
            for _ in 0..n {
                quarantined.push(rd.u64()?);
            }
            let wal = if flags & HEALTH_WAL != 0 {
                Some(WalWire {
                    last_lsn: rd.u64()?,
                    wal_bytes: rd.u64()?,
                    pending_ops: rd.u64()?,
                    epoch: rd.u64()?,
                    replayed_ops: rd.u64()?,
                    checkpoints: rd.u64()?,
                    recovered_torn_tail: flags & HEALTH_WAL_TORN != 0,
                })
            } else {
                None
            };
            Response::Health(HealthReport {
                paged: flags & HEALTH_PAGED != 0,
                degraded: flags & HEALTH_DEGRADED != 0,
                quarantined,
                wal,
            })
        }
        OP_TIMEOUT => Response::Timeout(read_stats(&mut rd)?),
        OP_WRITE_ACK => Response::WriteAck(WriteAckWire { lsn: rd.u64()?, pending: rd.u64()? }),
        OP_METRICS_RESULT => {
            // The snapshot codec is self-delimiting and rejects both
            // truncation and trailing bytes, so it consumes the payload.
            return MetricsSnapshot::decode(payload)
                .map(Response::Metrics)
                .map_err(|e| ProtocolError::Malformed(metrics_decode_reason(&e)));
        }
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    rd.finish()?;
    Ok(resp)
}
