//! Out-of-core FLAT: the paged engine over the storage stack, and the
//! one engine every walkthrough runs on.
//!
//! A built [`FlatIndex`] is serialized to a page file
//! ([`write_flat_index`]) — per-page MBRs, the neighborhood CSR and the
//! build parameters in the metadata blob, each page's segments as its
//! page payload — and [`OocFlatIndex`] queries it back through a pinning
//! [`FramePool`] with a configurable frame budget, so the dataset no
//! longer has to fit in RAM.
//!
//! ## Equivalence contract
//!
//! The paged engine replays FLAT's seed-and-crawl *exactly*: the seed
//! tree is rebuilt from the persisted page MBRs with the persisted
//! fan-out (bit-identical input ⇒ identical STR structure ⇒ identical
//! descent), and the crawl follows the persisted CSR in the same order
//! under the same three rules:
//!
//! - a page whose MBR lies wholly inside the query is emitted without
//!   testing its objects (other pages are decoded and tested object by
//!   object; the `f32` lanes of the in-memory index are not persisted);
//! - a neighbour page's MBR is tested the first time a link reaches it
//!   and the verdict kept, rejection included, for the rest of the query;
//! - the final re-seed check is skipped once a page whose MBR contains
//!   the query `q` has been read. Every page `v` meeting `q` meets that
//!   page `u`'s MBR inside `q`, so `inflate(mbr(u), ε)` meets `mbr(v)`
//!   for any `ε ≥ 0`. That is the link rule, so `v` was admitted when
//!   `u` was read. The skip is gated on `neighbor_epsilon >= 0`, which
//!   the reader already demands of the file.
//!
//! Results, emission order and the logical query statistics are
//! byte-identical to the in-memory index the file was written from — the
//! property `tests/ooc_equivalence.rs` proves under proptest — and mean
//! the same: `objects_tested` counts the objects on the pages read,
//! accepted pages included, and `links_rejected` the distinct pages
//! examined through a link and rejected; `seed_nodes_read`, `pages_read`,
//! `results` and `reseeds` are what they say. What differs is the
//! [`OocIoTrace`]: cache hits, misses and real wall-clock stall.
//!
//! ## Real background prefetching
//!
//! With `prefetch_workers > 0`, the index keeps that many background
//! workers ([`Executor::io_bound`]), each taking one page at a time from
//! a shared queue and loading it into the pool. Two producers feed the
//! queue ahead of the demand stream:
//!
//! - the **crawl frontier**: pages newly admitted to the BFS queue are
//!   enqueued the moment they are discovered, so their reads overlap
//!   with scanning the pages ahead of them in the queue. A query is
//!   waiting for these, so workers take them first;
//! - the **exploration cursor** ([`OocCursor`]): after each
//!   walkthrough step, the configured [`Prefetcher`] policy (SCOUT,
//!   Hilbert, …) predicts the next regions and their pages are fetched
//!   during the user's think time.
//!
//! A cursor's plan is one hand-off. The page ids are checked before they
//! are queued: ids past the end of the file, ids the up-to-8 overlapping
//! regions repeat and pages the step itself just read are dropped, and
//! only then is the plan cut to its cap, so every queued id is a read
//! worth issuing. And a new plan **replaces** whatever the workers have
//! not yet taken of the previous one: those pages were predicted for a
//! step that has already been answered, and a worker that manages six or
//! seven reads per think time must not spend them on a stale prediction
//! while the fresh one waits behind it.
//!
//! A demand read that catches an in-flight prefetch waits only for the
//! remainder of that read — the pool's loading protocol — which is the
//! stall-hiding effect `--scenario=ooc` measures.
//!
//! ## The modelled device
//!
//! [`OocFlatIndex::view`] runs the same engine over an index that is in
//! memory: pages are encoded as they are read, through a
//! [`ModelledDevice`] that charges each read to its own clock under a
//! [`CostModel`](neurospatial_storage::CostModel) instead of waiting.
//! Which way think time is spent follows from the device, not from an
//! option. On a real file time passes by itself and the workers use it.
//! On a device that keeps a clock only a read moves time, so a view has
//! no workers: the cursor reads its plan on the calling thread until the
//! clock has advanced by the session's think time, and a step's stall
//! is the clock's advance over its demand phase. Every count and every
//! millisecond is then a function of the reads alone, which is what the
//! paper tables (E4, A3–A5) and the in-memory database's walkthroughs
//! are made of.

use crate::prefetch::{PrefetchContext, Prefetcher};
use crate::session::{QueryTrace, SessionConfig};
use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatQueryStats, PackingStrategy};
use neurospatial_geom::{Aabb, Executor, Flow, Vec3};
use neurospatial_model::NeuronSegment;
use neurospatial_rtree::{EpochMarks, RTree, RTreeObject, RTreeParams, TraversalScratch};
use neurospatial_storage::{
    with_retry_sleeping, EvictionPolicy, FramePool, ModelledDevice, PageFile, PageFileWriter,
    PageIo, RetryPolicy, StorageError, PAGE_HEADER_BYTES,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Magic of the FLAT metadata blob inside a page file.
pub const FLAT_META_MAGIC: [u8; 4] = *b"FLTM";
/// Version of the FLAT metadata layout.
pub const FLAT_META_VERSION: u32 = 1;
/// Bytes per serialized segment record (same layout as `model::io`):
/// id, neuron, section, index, reserved, then 7 `f64` geometry fields.
pub const SEGMENT_RECORD_BYTES: usize = 8 + 4 + 4 + 4 + 4 + 7 * 8;

// --- Serialization ------------------------------------------------------

fn encode_segment(s: &NeuronSegment, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.id.to_le_bytes());
    out.extend_from_slice(&s.neuron.to_le_bytes());
    out.extend_from_slice(&s.section.to_le_bytes());
    out.extend_from_slice(&s.index_on_section.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // reserved
    for v in [
        s.geom.p0.x,
        s.geom.p0.y,
        s.geom.p0.z,
        s.geom.p1.x,
        s.geom.p1.y,
        s.geom.p1.z,
        s.geom.radius,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append page `page`'s payload: its segments as fixed-size records.
fn encode_page(index: &FlatIndex<NeuronSegment>, page: u32, out: &mut Vec<u8>) {
    for s in index.page_objects(page) {
        encode_segment(s, out);
    }
}

/// Bytes of one page of an index built with `params`, header included.
fn page_size_of(params: &FlatBuildParams) -> usize {
    PAGE_HEADER_BYTES + params.page_capacity * SEGMENT_RECORD_BYTES
}

/// Cursor over a byte slice with total (never-panicking) primitive reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StorageError::Corrupt("metadata ends mid-field".to_string()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn decode_page_segments(
    payload: &[u8],
    page: u64,
    out: &mut Vec<NeuronSegment>,
) -> Result<(), StorageError> {
    out.clear();
    if !payload.len().is_multiple_of(SEGMENT_RECORD_BYTES) {
        return Err(StorageError::Corrupt(format!(
            "page {page}: payload of {} bytes is not a whole number of records",
            payload.len()
        )));
    }
    let mut r = Reader::new(payload);
    for i in 0..payload.len() / SEGMENT_RECORD_BYTES {
        let id = r.u64()?;
        let neuron = r.u32()?;
        let section = r.u32()?;
        let index_on_section = r.u32()?;
        let _reserved = r.u32()?;
        let p0 = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        let p1 = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
        let radius = r.f64()?;
        let geom = neurospatial_geom::Segment { p0, p1, radius };
        if !geom.is_valid() {
            return Err(StorageError::Corrupt(format!(
                "page {page}: record {i} has non-finite geometry"
            )));
        }
        out.push(NeuronSegment { id, neuron, section, index_on_section, geom });
    }
    Ok(())
}

/// Serialize a built FLAT index to a page file at `path`.
///
/// Page `p` of the file holds page `p`'s segments as fixed-size records
/// ([`SEGMENT_RECORD_BYTES`] each);
/// the metadata blob holds the build parameters, every page MBR and the
/// neighborhood CSR — everything [`OocFlatIndex::open`] needs to replay
/// queries without the in-memory index.
pub fn write_flat_index(index: &FlatIndex<NeuronSegment>, path: &Path) -> Result<(), StorageError> {
    let params = index.params();
    let page_size = page_size_of(params);
    let mut w = PageFileWriter::create(path, page_size)?;
    let mut payload = Vec::with_capacity(page_size);
    for page in 0..index.page_count() as u32 {
        payload.clear();
        encode_page(index, page, &mut payload);
        w.append_page(&payload)?;
    }

    let (offsets, ids) = index.neighbor_csr();
    let mut meta = Vec::new();
    meta.extend_from_slice(&FLAT_META_MAGIC);
    meta.extend_from_slice(&FLAT_META_VERSION.to_le_bytes());
    meta.extend_from_slice(&(params.page_capacity as u32).to_le_bytes());
    meta.extend_from_slice(&(params.seed_fanout as u32).to_le_bytes());
    meta.extend_from_slice(&params.hilbert_bits.to_le_bytes());
    let packing: u32 = match params.packing {
        PackingStrategy::Hilbert => 0,
        PackingStrategy::Morton => 1,
        PackingStrategy::CoordinateSort => 2,
    };
    meta.extend_from_slice(&packing.to_le_bytes());
    meta.extend_from_slice(&params.neighbor_epsilon.to_le_bytes());
    meta.extend_from_slice(&(index.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(index.page_count() as u64).to_le_bytes());
    for page in 0..index.page_count() as u32 {
        let mbr = index.page_mbr(page);
        for v in [mbr.lo.x, mbr.lo.y, mbr.lo.z, mbr.hi.x, mbr.hi.y, mbr.hi.z] {
            meta.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &o in offsets {
        meta.extend_from_slice(&o.to_le_bytes());
    }
    for &n in ids {
        meta.extend_from_slice(&n.to_le_bytes());
    }
    w.finish(&meta)
}

/// Read and decode every page of `file`, retrying transient faults
/// under `retry`: the number of records the pages hold. The sweep never
/// stops at a bad page: all of them are collected, so the error
/// ([`StorageError::BadPages`]) reports the full blast radius. Only a
/// transient error that outlasts its retries aborts it.
fn sweep_pages(file: &dyn PageIo, retry: &RetryPolicy) -> Result<u64, StorageError> {
    let mut buf = Vec::new();
    let mut segs = Vec::new();
    let mut total = 0u64;
    let mut bad_pages = Vec::new();
    for page in 0..file.page_count() {
        let (res, _retries) =
            with_retry_sleeping(retry, page, || file.read_page_into(page, &mut buf));
        match res.and_then(|()| decode_page_segments(&buf, page, &mut segs)) {
            Ok(()) => total += segs.len() as u64,
            Err(e) if e.is_transient() => return Err(e),
            Err(_) => bad_pages.push(page),
        }
    }
    if bad_pages.is_empty() {
        Ok(total)
    } else {
        Err(StorageError::BadPages { pages: bad_pages })
    }
}

// --- Configuration ------------------------------------------------------

/// How to open an [`OocFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocConfig {
    /// Buffer-pool budget in frames (pages held in RAM at once).
    /// `0` means "all pages" — a fully cached, still checksum-verified
    /// run.
    pub frame_budget: usize,
    /// Replacement policy of the frame pool.
    pub eviction: EvictionPolicy,
    /// Background prefetch workers. `0` disables prefetching entirely
    /// (every page read is a demand read).
    pub prefetch_workers: usize,
    /// Verify every page's checksum once at open (in addition to the
    /// always-on per-read verification). Keeps the infallible facade
    /// honest: with this on, a corrupt file cannot get past `open`.
    /// The sweep covers the *whole* file and reports every bad page in
    /// one [`StorageError::BadPages`], so operators see the full blast
    /// radius in a single pass.
    pub validate_pages: bool,
    /// Bounded-retry policy for transient page-read failures (`EINTR`,
    /// `EWOULDBLOCK`, timeouts). Permanent errors — checksum mismatches,
    /// structural corruption — are never retried.
    pub retry: RetryPolicy,
}

impl Default for OocConfig {
    fn default() -> Self {
        OocConfig {
            frame_budget: 0,
            eviction: EvictionPolicy::Clock,
            prefetch_workers: 0,
            validate_pages: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl OocConfig {
    /// Set the frame budget (in frames).
    pub fn with_frame_budget(mut self, frames: usize) -> Self {
        self.frame_budget = frames;
        self
    }

    /// Set the eviction policy.
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Set the number of background prefetch workers.
    pub fn with_prefetch_workers(mut self, workers: usize) -> Self {
        self.prefetch_workers = workers;
        self
    }

    /// Set the transient-I/O retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

// --- The paged index ----------------------------------------------------

/// Seed-tree entry: one page's MBR (mirror of the in-memory index's
/// private `PageEntry`).
#[derive(Debug, Clone, Copy)]
struct OocPageEntry {
    mbr: Aabb,
    page: u32,
}

impl RTreeObject for OocPageEntry {
    fn aabb(&self) -> Aabb {
        self.mbr
    }
}

/// Real I/O counters of one paged query — the part of the statistics
/// that legitimately differs from the in-memory engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocIoTrace {
    /// Wall-clock nanoseconds the query spent blocked on page reads
    /// (demand misses plus waits for in-flight prefetches).
    pub stall_ns: u64,
    /// Demand page requests served from the frame pool.
    pub cache_hits: u64,
    /// Demand page requests that went to disk.
    pub cache_misses: u64,
    /// Demand hits whose frame had been loaded by a prefetch.
    pub prefetch_hits: u64,
    /// Frames evicted while this query ran (pool-wide, so concurrent
    /// background prefetching is included).
    pub evictions: u64,
    /// Pages handed to the background prefetcher by the crawl frontier.
    pub prefetch_enqueued: u64,
    /// Transient page-read failures recovered by the bounded-retry
    /// path during this query.
    pub retries: u64,
    /// Quarantined pages this query skipped (only in
    /// partial-results mode; a strict query fails instead).
    pub pages_quarantined: u64,
}

/// Statistics of one paged query: FLAT's logical counters (byte-identical
/// to the in-memory engine) plus the real I/O trace.
#[derive(Debug, Clone, Default)]
pub struct OocQueryStats {
    /// The logical seed-and-crawl counters.
    pub flat: FlatQueryStats,
    /// The physical I/O counters.
    pub io: OocIoTrace,
}

/// Reusable per-query state of the paged engine: crawl front, visited
/// marks, seed-tree scratch and the page-decode buffer.
#[derive(Debug, Default)]
pub struct OocScratch {
    queue: VecDeque<u32>,
    visited: EpochMarks,
    seed: TraversalScratch,
    segs: Vec<NeuronSegment>,
    frontier: Vec<u32>,
}

impl OocScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Debug, Default)]
struct PrefetchQueue {
    /// Crawl-frontier pages: a running query is about to demand them.
    frontier: VecDeque<u32>,
    /// What is left of the latest think-time plan.
    plan: VecDeque<u32>,
    shutdown: bool,
}

struct PrefetchShared {
    queue: Mutex<PrefetchQueue>,
    ready: Condvar,
}

impl PrefetchShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PrefetchQueue> {
        // Every update leaves the queue valid, so a worker's panic does
        // not poison it for the others.
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Cap on the frontier backlog: beyond this, newly discovered pages are
/// dropped rather than queued — a prefetcher that cannot keep up must
/// not grow an unbounded queue of stale predictions.
const PREFETCH_QUEUE_CAP: usize = 4096;

/// Process-wide prefetch dispatch counters (page-level load outcomes
/// live under `storage_frame_*`; these count the hand-off itself).
struct ScoutPrefetchObs {
    enqueued: std::sync::Arc<neurospatial_obs::Counter>,
    dropped: std::sync::Arc<neurospatial_obs::Counter>,
}

fn scout_prefetch_obs() -> &'static ScoutPrefetchObs {
    static OBS: std::sync::OnceLock<ScoutPrefetchObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ScoutPrefetchObs {
        enqueued: neurospatial_obs::global().counter("scout_prefetch_enqueued_total"),
        dropped: neurospatial_obs::global().counter("scout_prefetch_dropped_total"),
    })
}

struct PrefetchHandle {
    shared: Arc<PrefetchShared>,
    /// The thread the workers' scope lives on.
    workers: Option<std::thread::JoinHandle<()>>,
}

impl PrefetchHandle {
    fn spawn(workers: usize, file: Arc<dyn PageIo>, pool: Arc<FramePool>) -> Self {
        let shared = Arc::new(PrefetchShared {
            queue: Mutex::new(PrefetchQueue::default()),
            ready: Condvar::new(),
        });
        let shared2 = Arc::clone(&shared);
        // Each worker takes one page at a time, so a page counts as
        // issued only once a worker is reading it and everything still
        // queued can be replaced.
        let thread = std::thread::spawn(move || {
            Executor::io_bound(workers).map_chunks(workers, |_| loop {
                let page = {
                    let mut q = shared2.lock();
                    loop {
                        if q.shutdown {
                            return;
                        }
                        if let Some(p) = q.frontier.pop_front().or_else(|| q.plan.pop_front()) {
                            break p;
                        }
                        q = shared2.ready.wait(q).unwrap_or_else(|p| p.into_inner());
                    }
                };
                // A real background page read. Best-effort: a corrupt
                // page is simply not cached — the demand path will
                // surface the typed error.
                let _ = pool.prefetch(u64::from(page), file.as_ref());
            });
        });
        PrefetchHandle { shared, workers: Some(thread) }
    }

    /// Queue crawl-frontier pages for background loading; returns how
    /// many were accepted (the backlog cap may drop the rest).
    fn enqueue_frontier(&self, pages: &[u32]) -> u64 {
        if pages.is_empty() {
            return 0;
        }
        let mut q = self.shared.lock();
        let room = PREFETCH_QUEUE_CAP.saturating_sub(q.frontier.len());
        let accepted = pages.len().min(room);
        q.frontier.extend(&pages[..accepted]);
        drop(q);
        self.hand_off(accepted, pages.len() - accepted)
    }

    /// Make `pages` the think-time plan, in place of whatever is left of
    /// the previous one; returns how many were queued (all of them).
    fn replace_plan(&self, pages: &[u32]) -> u64 {
        let mut q = self.shared.lock();
        q.plan.clear();
        q.plan.extend(pages);
        drop(q);
        self.hand_off(pages.len(), 0)
    }

    fn hand_off(&self, accepted: usize, dropped: usize) -> u64 {
        scout_prefetch_obs().enqueued.add(accepted as u64);
        scout_prefetch_obs().dropped.add(dropped as u64);
        if accepted > 0 {
            self.shared.ready.notify_all();
        }
        accepted as u64
    }
}

impl Drop for PrefetchHandle {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        if let Some(h) = self.workers.take() {
            let _ = h.join();
        }
    }
}

/// The out-of-core FLAT index: queries a page file through a pinning
/// frame pool, optionally with real background prefetching.
///
/// Results and logical statistics are byte-identical to the
/// [`FlatIndex`] the file was written from (see the [module
/// docs](self)); all fallible surface area is typed — a corrupt file
/// fails [`open`](Self::open), and a page that rots afterwards fails
/// the individual query with [`StorageError::PageChecksum`].
pub struct OocFlatIndex {
    file: Arc<dyn PageIo>,
    pool: Arc<FramePool>,
    params: FlatBuildParams,
    object_count: u64,
    page_mbrs: Vec<Aabb>,
    neighbor_offsets: Vec<u32>,
    neighbor_ids: Vec<u32>,
    seed_tree: RTree<OocPageEntry>,
    prefetch: Option<PrefetchHandle>,
    retry: RetryPolicy,
    /// Think time a cursor spends reading its plan itself, where the
    /// device keeps a clock ([`view`](Self::view)); zero on a file.
    think_ns: u64,
    path: PathBuf,
    delete_on_drop: bool,
}

/// What a paged index keeps in memory of the index it serves.
struct FlatMeta {
    params: FlatBuildParams,
    object_count: u64,
    page_mbrs: Vec<Aabb>,
    neighbor_offsets: Vec<u32>,
    neighbor_ids: Vec<u32>,
}

/// The pages of an index that is in memory, each encoded when it is
/// read: what [`write_flat_index`] would have put in the file, without
/// the file and without a second copy of the data.
struct MemoryPages {
    index: Arc<FlatIndex<NeuronSegment>>,
}

impl PageIo for MemoryPages {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        buf.clear();
        let count = self.page_count();
        if page >= count {
            return Err(StorageError::PageOutOfRange { page, count });
        }
        encode_page(&self.index, page as u32, buf);
        Ok(())
    }

    fn page_count(&self) -> u64 {
        self.index.page_count() as u64
    }

    fn page_size(&self) -> usize {
        page_size_of(self.index.params())
    }

    fn meta(&self) -> &[u8] {
        &[]
    }
}

impl std::fmt::Debug for OocFlatIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocFlatIndex")
            .field("path", &self.path)
            .field("objects", &self.object_count)
            .field("pages", &self.page_mbrs.len())
            .field("frame_budget", &self.pool.capacity())
            .field("eviction", &self.pool.policy())
            .field("prefetch", &self.prefetch.is_some())
            .finish()
    }
}

impl OocFlatIndex {
    /// Open a page file written by [`write_flat_index`].
    ///
    /// Total on untrusted input: any structural problem — page-file
    /// corruption, a foreign metadata blob, inconsistent CSR, and (with
    /// [`OocConfig::validate_pages`]) any corrupt page — returns a typed
    /// [`StorageError`].
    pub fn open(path: &Path, config: OocConfig) -> Result<Self, StorageError> {
        Self::open_with(path, config, |file| Arc::new(file))
    }

    /// Like [`open`](Self::open), but page reads go through the
    /// [`PageIo`] returned by `wrap` instead of the raw [`PageFile`] —
    /// the seam the chaos suite uses to interpose a fault-injecting
    /// [`FaultFile`](neurospatial_storage::FaultFile). Header and
    /// metadata parsing always read the real file (they happen before
    /// `wrap` runs); the open-time validation sweep, demand reads and
    /// prefetches all go through the wrapper.
    pub fn open_with<W>(path: &Path, config: OocConfig, wrap: W) -> Result<Self, StorageError>
    where
        W: FnOnce(PageFile) -> Arc<dyn PageIo>,
    {
        let file = PageFile::open(path)?;
        let mut r = Reader::new(file.meta());
        if r.take(4)? != FLAT_META_MAGIC {
            return Err(StorageError::Corrupt("not a FLAT metadata blob".to_string()));
        }
        let version = r.u32()?;
        if version != FLAT_META_VERSION {
            return Err(StorageError::BadVersion(version));
        }
        let page_capacity = r.u32()? as usize;
        let seed_fanout = r.u32()? as usize;
        let hilbert_bits = r.u32()?;
        let packing = match r.u32()? {
            0 => PackingStrategy::Hilbert,
            1 => PackingStrategy::Morton,
            2 => PackingStrategy::CoordinateSort,
            other => {
                return Err(StorageError::Corrupt(format!("unknown packing strategy {other}")))
            }
        };
        let neighbor_epsilon = r.f64()?;
        let object_count = r.u64()?;
        let page_count = r.u64()?;
        if page_count != file.page_count() {
            return Err(StorageError::Corrupt(format!(
                "metadata declares {page_count} pages, file holds {}",
                file.page_count()
            )));
        }
        if page_count > (1 << 32) - 1 {
            return Err(StorageError::Corrupt(format!("{page_count} pages exceed u32 ids")));
        }
        if page_capacity == 0
            || !(1..=64).contains(&hilbert_bits)
            || seed_fanout < 2
            || !neighbor_epsilon.is_finite()
            || neighbor_epsilon < 0.0
        {
            return Err(StorageError::Corrupt("implausible build parameters".to_string()));
        }
        let n = page_count as usize;
        let mut page_mbrs = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
            let hi = Vec3::new(r.f64()?, r.f64()?, r.f64()?);
            // Exact roundtrip: the writer dumped lo/hi verbatim, so the
            // struct literal (no re-ordering) reproduces the original
            // bits.
            page_mbrs.push(Aabb { lo, hi });
        }
        let mut neighbor_offsets = Vec::with_capacity(n + 1);
        for _ in 0..n + 1 {
            neighbor_offsets.push(r.u32()?);
        }
        let link_count = *neighbor_offsets.last().unwrap_or(&0) as usize;
        if neighbor_offsets.first().copied().unwrap_or(0) != 0
            || neighbor_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(StorageError::Corrupt("neighbor offsets not monotonic".to_string()));
        }
        let mut neighbor_ids = Vec::with_capacity(link_count);
        for _ in 0..link_count {
            let id = r.u32()?;
            if u64::from(id) >= page_count {
                return Err(StorageError::Corrupt(format!("neighbor id {id} out of range")));
            }
            neighbor_ids.push(id);
        }
        if r.pos != file.meta().len() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing metadata bytes",
                file.meta().len() - r.pos
            )));
        }

        let params =
            FlatBuildParams { page_capacity, packing, neighbor_epsilon, hilbert_bits, seed_fanout };
        let meta = FlatMeta { params, object_count, page_mbrs, neighbor_offsets, neighbor_ids };
        let file: Arc<dyn PageIo> = wrap(file);

        if config.validate_pages {
            // One sequential checksum pass over every page, and a record
            // count cross-check against the declared object count. After
            // this, only post-open rot or OS-level I/O failure can make
            // a query fail.
            let total = sweep_pages(file.as_ref(), &config.retry)?;
            if total != object_count {
                return Err(StorageError::Corrupt(format!(
                    "pages hold {total} records, metadata declares {object_count}"
                )));
            }
        }

        Ok(Self::assemble(file, meta, &config, path.to_path_buf()))
    }

    /// The same engine over an index that is in memory, on a modelled
    /// device: what every walkthrough that has no page file runs on.
    ///
    /// Page MBRs, the neighborhood CSR and the parameters are taken from
    /// `index` and the seed tree is built as [`open`](Self::open) builds
    /// it, so results, crawl order and logical statistics are those of
    /// `index`. A page is encoded when it is read; nothing touches disk.
    /// The pool holds `session.buffer_pages` frames under
    /// [`EvictionPolicy::Lru`] and starts cold; each read costs what
    /// `session.cost` says, on the device's clock and in no real time;
    /// there are no workers, and a cursor spends
    /// `session.think_time_ms` of that clock on its plan after each step
    /// (see the [module docs](self)). A view is cheap next to the index
    /// (metadata only) and owns all of its state: one per walkthrough
    /// makes every walkthrough deterministic and independent of the
    /// others.
    pub fn view(index: Arc<FlatIndex<NeuronSegment>>, session: &SessionConfig) -> Self {
        let (offsets, ids) = index.neighbor_csr();
        let meta = FlatMeta {
            params: *index.params(),
            object_count: index.len() as u64,
            page_mbrs: (0..index.page_count() as u32).map(|p| index.page_mbr(p)).collect(),
            neighbor_offsets: offsets.to_vec(),
            neighbor_ids: ids.to_vec(),
        };
        let config = OocConfig {
            frame_budget: session.buffer_pages.max(1),
            eviction: EvictionPolicy::Lru,
            prefetch_workers: 0,
            validate_pages: false,
            retry: RetryPolicy::default(),
        };
        let file = Arc::new(ModelledDevice::new(MemoryPages { index }, session.cost));
        let mut view = Self::assemble(file, meta, &config, PathBuf::new());
        view.think_ns = (session.think_time_ms * 1e6).round() as u64;
        view
    }

    /// Everything behind the metadata: seed tree, frame pool, workers.
    fn assemble(file: Arc<dyn PageIo>, meta: FlatMeta, config: &OocConfig, path: PathBuf) -> Self {
        let FlatMeta { params, object_count, page_mbrs, neighbor_offsets, neighbor_ids } = meta;

        // Rebuild the seed tree exactly as the in-memory build does:
        // same entries, same order, same fan-out, frozen — so seed
        // descents and re-seed scans visit the same nodes and return the
        // same counters.
        let entries: Vec<OocPageEntry> = page_mbrs
            .iter()
            .enumerate()
            .map(|(i, &mbr)| OocPageEntry { mbr, page: i as u32 })
            .collect();
        let mut seed_tree =
            RTree::bulk_load(entries, RTreeParams::with_max_entries(params.seed_fanout));
        seed_tree.freeze();

        let frames =
            if config.frame_budget == 0 { page_mbrs.len().max(1) } else { config.frame_budget };
        let pool = Arc::new(FramePool::new(frames, config.eviction));
        let prefetch = (config.prefetch_workers > 0).then(|| {
            PrefetchHandle::spawn(config.prefetch_workers, Arc::clone(&file), Arc::clone(&pool))
        });

        OocFlatIndex {
            file,
            pool,
            params,
            object_count,
            page_mbrs,
            neighbor_offsets,
            neighbor_ids,
            seed_tree,
            prefetch,
            retry: config.retry,
            think_ns: 0,
            path,
            delete_on_drop: false,
        }
    }

    /// Re-validate every page through the current I/O stack, reporting
    /// *all* bad pages in one [`StorageError::BadPages`] — the
    /// blast-radius sweep operators run after suspected rot. Transient
    /// failures are retried under the configured policy; an
    /// unrecoverable transient error aborts the sweep.
    pub fn validate_pages(&self) -> Result<(), StorageError> {
        sweep_pages(self.file.as_ref(), &self.retry).map(|_records| ())
    }

    /// Pages the pool has quarantined after permanent read failures,
    /// ascending. Queries in partial mode skip these; strict queries
    /// touching them fail with [`StorageError::Quarantined`].
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.pool.quarantined()
    }

    /// Delete the page file when this index is dropped (used for
    /// facade-managed temporary spill files).
    pub fn set_delete_on_drop(&mut self, delete: bool) {
        self.delete_on_drop = delete;
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.object_count as usize
    }

    /// True when the index holds no objects.
    pub fn is_empty(&self) -> bool {
        self.object_count == 0
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.page_mbrs.len()
    }

    /// Bounding box of all objects (seed-tree root MBR).
    pub fn bounds(&self) -> Aabb {
        self.seed_tree.root_mbr()
    }

    /// The persisted build parameters.
    pub fn params(&self) -> &FlatBuildParams {
        &self.params
    }

    /// The backing page file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The frame pool (budget, policy, counters).
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    /// Whether background prefetch workers are running.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch.is_some()
    }

    /// Seed-tree height (the seed phase cost bound).
    pub fn seed_tree_height(&self) -> usize {
        self.seed_tree.height()
    }

    /// Ids of all pages whose MBR intersects `q` (metadata only — no
    /// page I/O). Prefetch policies use this to translate predicted
    /// regions into pages.
    pub fn pages_intersecting(&self, q: &Aabb) -> Vec<u32> {
        let mut pages = Vec::new();
        self.pages_intersecting_into(q, &mut TraversalScratch::default(), &mut pages);
        pages
    }

    /// [`pages_intersecting`](Self::pages_intersecting) into `out`
    /// (cleared first), the seed-tree traversal running on `scratch`:
    /// with warm buffers nothing is allocated.
    pub fn pages_intersecting_into(
        &self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.seed_tree.range_query_stream(q, scratch, |entry| {
            out.push(entry.page);
            Flow::Emit
        });
    }

    /// Resident memory of the paged engine: frames + metadata + seed
    /// tree (the segments themselves live on disk).
    pub fn memory_bytes(&self) -> usize {
        self.pool.capacity() * self.file.page_size()
            + self.page_mbrs.capacity() * std::mem::size_of::<Aabb>()
            + (self.neighbor_offsets.capacity() + self.neighbor_ids.capacity()) * 4
            + self.seed_tree.memory_bytes()
    }

    fn neighbors_of(&self, page: u32) -> &[u32] {
        let a = self.neighbor_offsets[page as usize] as usize;
        let b = self.neighbor_offsets[page as usize + 1] as usize;
        &self.neighbor_ids[a..b]
    }

    /// Streaming seed-and-crawl over the page file — the paged
    /// equivalent of [`FlatIndex::range_query_stream`]. `on_page` fires
    /// once per data page in crawl order; `sink` controls the stream
    /// ([`Flow::Emit`]/[`Flow::Skip`]/[`Flow::Last`]).
    pub fn range_query_stream<F, S>(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        on_page: F,
        sink: S,
    ) -> Result<OocQueryStats, StorageError>
    where
        F: FnMut(u32),
        S: FnMut(&NeuronSegment) -> Flow,
    {
        self.range_query_stream_partial(q, scratch, false, on_page, sink)
    }

    /// [`range_query_stream`](Self::range_query_stream) with an explicit
    /// degradation mode. With `allow_partial = false` a page that fails
    /// permanently (after transient retries) is quarantined and the
    /// query fails with the typed error. With `allow_partial = true` the
    /// failed page's objects are skipped but its neighbor links are
    /// still crawled (the CSR lives in RAM), the query completes, and
    /// `io.pages_quarantined` reports how many pages were lost — a
    /// correctly-labeled partial result instead of a failure.
    pub fn range_query_stream_partial<F, S>(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        allow_partial: bool,
        mut on_page: F,
        mut sink: S,
    ) -> Result<OocQueryStats, StorageError>
    where
        F: FnMut(u32),
        S: FnMut(&NeuronSegment) -> Flow,
    {
        let mut stats = OocQueryStats::default();
        if self.page_mbrs.is_empty() {
            return Ok(stats);
        }
        let pool_before = self.pool.stats();
        let mut stall_ns = 0u64;
        scratch.queue.clear();
        scratch.visited.begin(self.page_mbrs.len());
        scratch.frontier.clear();
        let OocScratch { queue, visited, seed, segs, frontier } = scratch;

        let finish = |mut stats: OocQueryStats, stall_ns: u64, pool: &FramePool, enq: u64| {
            let after = pool.stats();
            stats.io.stall_ns = stall_ns;
            stats.io.cache_hits = after.hits - pool_before.hits;
            stats.io.cache_misses = after.misses - pool_before.misses;
            stats.io.prefetch_hits = after.prefetch_hits - pool_before.prefetch_hits;
            stats.io.evictions = after.evictions - pool_before.evictions;
            stats.io.prefetch_enqueued = enq;
            stats
        };
        let mut enqueued = 0u64;

        // --- Seed ---------------------------------------------------------
        let (seed_hit, seed_counters) = self.seed_tree.first_hit_scratch(q, seed);
        stats.flat.seed_nodes_read += seed_counters.nodes_visited;
        let Some(first) = seed_hit else {
            return Ok(finish(stats, stall_ns, &self.pool, enqueued));
        };
        visited.mark(first.page as usize);
        queue.push_back(first.page);

        // --- Crawl (with exactness-preserving re-seeding) ------------------
        let may_skip = self.params.neighbor_epsilon >= 0.0;
        // A read page whose MBR contains q links to every page meeting q
        // (module doc), so the re-seed check cannot find one.
        let mut covered = false;
        loop {
            while let Some(page) = queue.pop_front() {
                stats.flat.pages_read += 1;
                on_page(page);
                covered |= may_skip && self.page_mbrs[page as usize].contains(q);

                // The real page read: pin (retrying transient faults
                // under the configured policy), decode, scan. The pin is
                // held only while the page is scanned, so even a
                // one-frame budget can execute any query.
                let t = Instant::now();
                let (res, tries) = with_retry_sleeping(&self.retry, u64::from(page), || {
                    self.pool.get(u64::from(page), self.file.as_ref())
                });
                stall_ns += t.elapsed().as_nanos() as u64;
                stats.io.retries += u64::from(tries);
                let decoded =
                    res.and_then(|guard| decode_page_segments(&guard, u64::from(page), segs));
                if let Err(e) = decoded {
                    if e.is_transient() {
                        // Retries exhausted or frame-budget pressure:
                        // not the page's fault, never quarantine.
                        return Err(e);
                    }
                    // Permanent: quarantine so later demands fail fast
                    // instead of re-reading known-bad bytes.
                    self.pool.quarantine_page(u64::from(page));
                    if !allow_partial {
                        return Err(e);
                    }
                    stats.io.pages_quarantined += 1;
                    segs.clear();
                }

                // A decoded page is scanned object by object (there are
                // no lanes on disk), but a page wholly inside `q` is
                // emitted untested as in memory: every decoded box is
                // finite and non-empty, so `q` contains it.
                let whole = q.contains(&self.page_mbrs[page as usize]);
                stats.flat.objects_tested += segs.len() as u64;
                for o in segs.iter() {
                    if whole || o.aabb().intersects(q) {
                        match sink(o) {
                            Flow::Emit => stats.flat.results += 1,
                            Flow::Skip => {}
                            Flow::Last => {
                                stats.flat.results += 1;
                                return Ok(finish(stats, stall_ns, &self.pool, enqueued));
                            }
                        }
                    }
                }
                // Each page's MBR is tested once per query: the mark
                // remembers a rejection as well as an admission.
                frontier.clear();
                for &n in self.neighbors_of(page) {
                    if visited.mark(n as usize) {
                        if self.page_mbrs[n as usize].intersects(q) {
                            queue.push_back(n);
                            frontier.push(n);
                        } else {
                            stats.flat.links_rejected += 1;
                        }
                    }
                }
                // Crawl-frontier prefetch: the pages just admitted to the
                // BFS queue are read in the background while the queue
                // ahead of them is scanned.
                if let Some(h) = &self.prefetch {
                    enqueued += h.enqueue_frontier(frontier);
                }
            }

            if covered {
                break;
            }
            let mut reseeded = false;
            let reseed_counters = self.seed_tree.range_query_stream(q, seed, |entry| {
                if visited.mark(entry.page as usize) {
                    queue.push_back(entry.page);
                    reseeded = true;
                }
                Flow::Emit
            });
            stats.flat.seed_nodes_read += reseed_counters.nodes_visited;
            if reseeded {
                stats.flat.reseeds += 1;
            } else {
                break;
            }
        }

        Ok(finish(stats, stall_ns, &self.pool, enqueued))
    }

    /// Range query collecting owned copies into `out` (cleared first).
    pub fn range_query_into(
        &self,
        q: &Aabb,
        scratch: &mut OocScratch,
        out: &mut Vec<NeuronSegment>,
    ) -> Result<OocQueryStats, StorageError> {
        out.clear();
        self.range_query_stream(
            q,
            scratch,
            |_| {},
            |s| {
                out.push(*s);
                Flow::Emit
            },
        )
    }

    /// A step-wise walkthrough cursor with the given prefetch policy.
    ///
    /// Policy predictions are translated to pages and fetched during
    /// think time, each step's plan replacing what is left of the one
    /// before: by the background workers, or on a [`view`](Self::view)
    /// by the cursor itself against the device's clock (see the [module
    /// docs](self)). On a file without workers the policy still runs
    /// (its predictions are simply dropped), so traces stay comparable.
    pub fn cursor(&self, prefetcher: Box<dyn Prefetcher>) -> OocCursor<'_> {
        OocCursor::new(Held::Lent(self), prefetcher)
    }

    /// [`cursor`](Self::cursor) that owns the index: for a
    /// [`view`](Self::view) made for one walkthrough and dropped with it.
    pub fn into_cursor(self, prefetcher: Box<dyn Prefetcher>) -> OocCursor<'static> {
        OocCursor::new(Held::Owned(Box::new(self)), prefetcher)
    }

    /// The device's clock, where a cursor has to spend think time
    /// itself: the device keeps one and no worker is there to read
    /// while the caller thinks.
    fn caller_clock(&self) -> Option<u64> {
        if self.prefetch.is_some() {
            return None;
        }
        self.file.clock_ns()
    }
}

impl Drop for OocFlatIndex {
    fn drop(&mut self) {
        // Stop the prefetch workers before the file handle goes away.
        self.prefetch = None;
        if self.delete_on_drop {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// The index a cursor walks: its owner's, or a view of its own.
enum Held<'a> {
    Lent(&'a OocFlatIndex),
    Owned(Box<OocFlatIndex>),
}

impl std::ops::Deref for Held<'_> {
    type Target = OocFlatIndex;

    fn deref(&self) -> &OocFlatIndex {
        match self {
            Held::Lent(index) => index,
            Held::Owned(index) => index,
        }
    }
}

/// Step-wise exploration over an [`OocFlatIndex`]: each
/// [`step`](Self::step) answers one moving-range query through the
/// frame pool, then lets the prefetch policy schedule reads for the
/// predicted next step.
pub struct OocCursor<'a> {
    index: Held<'a>,
    prefetcher: Box<dyn Prefetcher>,
    /// Centres of the last two views: all any policy reads of the past.
    recent: [Vec3; 2],
    /// Steps since the last [`reset`](Self::reset).
    steps: usize,
    scratch: OocScratch,
    result: Vec<NeuronSegment>,
    pages_read: Vec<u32>,
    plan_pages: Vec<u32>,
}

/// Cap on pages scheduled per think-time prefetch plan, applied to the
/// pages worth reading (in range, not repeated, not just read). Bounds
/// wasted bandwidth when a policy predicts a huge region.
const CURSOR_PREFETCH_CAP: usize = 256;

impl<'a> OocCursor<'a> {
    fn new(index: Held<'a>, prefetcher: Box<dyn Prefetcher>) -> Self {
        OocCursor {
            index,
            prefetcher,
            recent: [Vec3::ZERO; 2],
            steps: 0,
            scratch: OocScratch::default(),
            result: Vec::new(),
            pages_read: Vec::new(),
            plan_pages: Vec::new(),
        }
    }

    /// Execute the next query of the walkthrough; returns its trace.
    /// `stall_ms` is wall-clock stall on a file and the clock's advance
    /// on a device that keeps one.
    pub fn step(&mut self, q: &Aabb) -> Result<QueryTrace, StorageError> {
        self.step_partial(q, false)
    }

    /// [`step`](Self::step) with the degradation mode of
    /// [`OocFlatIndex::range_query_stream_partial`]: with
    /// `allow_partial` a page that fails permanently is skipped, not an
    /// error, and the walkthrough goes on over the pages that survive.
    pub fn step_partial(
        &mut self,
        q: &Aabb,
        allow_partial: bool,
    ) -> Result<QueryTrace, StorageError> {
        let index: &OocFlatIndex = &self.index;
        self.result.clear();
        self.pages_read.clear();
        let result = &mut self.result;
        let pages_read = &mut self.pages_read;
        let started = index.caller_clock();
        let stats = index.range_query_stream_partial(
            q,
            &mut self.scratch,
            allow_partial,
            |p| pages_read.push(p),
            |s| {
                result.push(*s);
                Flow::Emit
            },
        )?;
        let answered = index.caller_clock();
        self.recent = [self.recent[1], q.center()];
        self.steps += 1;

        // Think-time prefetch: plan from the step's content, translate
        // regions to pages, hand them to whoever reads during think
        // time.
        let refs: Vec<&NeuronSegment> = self.result.iter().collect();
        let plan = self.prefetcher.plan(&PrefetchContext {
            query: q,
            result: &refs,
            history: &self.recent[2 - self.steps.min(2)..],
            pages_read: &self.pages_read,
        });
        let mut prefetched = 0;
        if index.prefetch.is_some() || answered.is_some() {
            let page_count = index.page_count();
            // Mark the pages this step read, so that marking a planned
            // page tells both whether the step read it and whether the
            // plan already has it. (The crawl's own marks will not do:
            // they also cover the neighbours it rejected, which are the
            // pages a plan is most likely to want.)
            let OocScratch { visited, seed, frontier, .. } = &mut self.scratch;
            visited.begin(page_count);
            for &p in &self.pages_read {
                visited.mark(p as usize);
            }
            let pages = &mut self.plan_pages;
            pages.clear();
            let mut accept = |candidates: &[u32]| {
                for &p in candidates {
                    if (p as usize) < page_count && visited.mark(p as usize) {
                        pages.push(p);
                    }
                }
                pages.len() < CURSOR_PREFETCH_CAP
            };
            let mut room = accept(&plan.pages);
            for region in &plan.regions {
                if !room {
                    break;
                }
                index.pages_intersecting_into(region, seed, frontier);
                room = accept(frontier);
            }
            pages.truncate(CURSOR_PREFETCH_CAP);
            if let Some(handle) = &index.prefetch {
                prefetched = handle.replace_plan(pages);
            } else if let Some(answered) = answered {
                // Only a read moves this clock: the think time is spent
                // here, on the plan, and what is left of the plan when
                // it is used up is dropped.
                let deadline = answered.saturating_add(index.think_ns);
                for &p in pages.iter() {
                    if index.file.clock_ns() >= Some(deadline) {
                        break;
                    }
                    // As a worker would: a page that does not load is
                    // not cached, and the demand path says why.
                    let read = index.pool.prefetch(u64::from(p), index.file.as_ref());
                    prefetched += u64::from(matches!(read, Ok(true)));
                }
            }
        }

        let stall_ns = match (started, answered) {
            (Some(started), Some(answered)) => answered - started,
            _ => stats.io.stall_ns,
        };
        Ok(QueryTrace {
            pages_demanded: stats.flat.pages_read,
            demand_hits: stats.io.cache_hits,
            demand_misses: stats.io.cache_misses,
            stall_ms: stall_ns as f64 / 1e6,
            prefetched,
            results: stats.flat.results,
        })
    }

    /// The last step's result set.
    pub fn last_result(&self) -> &[NeuronSegment] {
        &self.result
    }

    /// The index this cursor walks.
    pub fn index(&self) -> &OocFlatIndex {
        &self.index
    }

    /// Forget per-walkthrough state (history and the policy's memory).
    pub fn reset(&mut self) {
        self.steps = 0;
        self.prefetcher.reset();
    }
}

impl std::fmt::Debug for OocCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocCursor")
            .field("policy", &self.prefetcher.name())
            .field("steps", &self.steps)
            .finish()
    }
}

/// A frame budget of `percent` of `page_count` pages, at least one
/// frame: how the tests and `--scenario=ooc` size a pool to a file.
pub fn frame_budget_for(page_count: usize, percent: u32) -> usize {
    ((page_count * percent as usize) / 100).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_model::CircuitBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ooc-test-{}-{tag}-{n}.flat", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn circuit(neurons: u32) -> Vec<NeuronSegment> {
        CircuitBuilder::new(7).neurons(neurons).build().into_segments()
    }

    fn build(segments: Vec<NeuronSegment>, cap: usize) -> FlatIndex<NeuronSegment> {
        FlatIndex::build(segments, FlatBuildParams::default().with_page_capacity(cap))
    }

    #[test]
    fn roundtrip_preserves_results_and_stats() {
        let segs = circuit(12);
        let mem = Arc::new(build(segs, 32));
        let t = TempFile(temp_path("roundtrip"));
        write_flat_index(&mem, &t.0).expect("write");
        // The page file, and the same pages encoded as they are read.
        let from_file = OocFlatIndex::open(&t.0, OocConfig::default()).expect("open");
        let view = OocFlatIndex::view(Arc::clone(&mem), &SessionConfig::default());
        for ooc in [from_file, view] {
            roundtrips(&mem, &ooc);
        }
    }

    fn roundtrips(mem: &FlatIndex<NeuronSegment>, ooc: &OocFlatIndex) {
        assert_eq!(ooc.len(), mem.len());
        assert_eq!(ooc.page_count(), mem.page_count());
        assert_eq!(ooc.bounds(), mem.bounds());
        assert_eq!(ooc.params(), mem.params());

        let mut scratch = OocScratch::default();
        let mut fscratch = neurospatial_flat::FlatScratch::default();
        for q in [
            ooc.bounds(),
            Aabb::cube(ooc.bounds().center(), 40.0),
            Aabb::cube(Vec3::new(1e6, 1e6, 1e6), 1.0),
        ] {
            let mut want: Vec<NeuronSegment> = Vec::new();
            let mut want_pages = Vec::new();
            let want_stats = mem.range_query_stream(
                &q,
                &mut fscratch,
                |p| want_pages.push(p),
                |s| {
                    want.push(*s);
                    Flow::Emit
                },
            );
            let mut got: Vec<NeuronSegment> = Vec::new();
            let mut got_pages = Vec::new();
            let got_stats = ooc
                .range_query_stream(
                    &q,
                    &mut scratch,
                    |p| got_pages.push(p),
                    |s| {
                        got.push(*s);
                        Flow::Emit
                    },
                )
                .expect("paged query");
            assert_eq!(got, want, "result set at {q}");
            assert_eq!(got_pages, want_pages, "crawl order at {q}");
            assert_eq!(got_stats.flat, want_stats, "stats at {q}");
        }
    }

    #[test]
    fn one_frame_budget_is_exact() {
        let segs = circuit(8);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("oneframe"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc =
            OocFlatIndex::open(&t.0, OocConfig::default().with_frame_budget(1)).expect("open");
        let q = Aabb::cube(mem.bounds().center(), 60.0);
        let (want, _) = mem.range_query(&q);
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query");
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a == *b));
        assert_eq!(stats.io.cache_hits + stats.io.cache_misses, stats.flat.pages_read);
    }

    #[test]
    fn background_prefetch_keeps_queries_exact() {
        let segs = circuit(10);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("prefetch"));
        write_flat_index(&mem, &t.0).expect("write");
        let budget = frame_budget_for(mem.page_count(), 10);
        for workers in [1, 2] {
            let ooc = OocFlatIndex::open(
                &t.0,
                OocConfig::default().with_frame_budget(budget).with_prefetch_workers(workers),
            )
            .expect("open");
            let mut scratch = OocScratch::default();
            let mut got = Vec::new();
            for step in 0..12 {
                let c = mem.bounds().center();
                let q = Aabb::cube(Vec3::new(c.x + step as f64 * 3.0, c.y, c.z), 25.0);
                let (want, want_stats) = mem.range_query(&q);
                let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query");
                assert_eq!(got.len(), want.len(), "step {step}");
                assert!(got.iter().zip(&want).all(|(a, b)| a == *b), "step {step}");
                assert_eq!(stats.flat.results, want_stats.results);
                assert_eq!(stats.flat.pages_read, want_stats.pages_read);
            }
        }
    }

    /// A policy beside a twin that is shown every view centre of the
    /// walkthrough, as a cursor used to keep them: the cursor's last two
    /// must make the same plan.
    struct BesideFullHistory<P> {
        policy: P,
        twin: P,
        centres: Vec<Vec3>,
    }

    impl<P: Prefetcher> Prefetcher for BesideFullHistory<P> {
        fn name(&self) -> &'static str {
            self.policy.name()
        }

        fn plan(&mut self, ctx: &PrefetchContext<'_>) -> crate::prefetch::PrefetchPlan {
            self.centres.push(ctx.query.center());
            assert_eq!(ctx.history, &self.centres[self.centres.len().saturating_sub(2)..]);
            let plan = self.policy.plan(ctx);
            let want = self.twin.plan(&PrefetchContext { history: &self.centres, ..*ctx });
            assert_eq!((&plan.regions, &plan.pages), (&want.regions, &want.pages));
            plan
        }

        fn reset(&mut self) {
            self.policy.reset();
            self.twin.reset();
            self.centres.clear();
        }
    }

    fn beside_full_history<P: Prefetcher + Default + 'static>() -> Box<dyn Prefetcher> {
        Box::new(BesideFullHistory { policy: P::default(), twin: P::default(), centres: vec![] })
    }

    #[test]
    fn cursor_walkthrough_traces() {
        use crate::prefetch::{ExtrapolationPrefetcher, ScoutPrefetcher};
        let circuit = CircuitBuilder::new(7).neurons(8).build();
        let path = neurospatial_model::NavigationPath::along_random_branch(&circuit, 1, 20.0, 8.0)
            .expect("the circuit has branches");
        let mem = build(circuit.into_segments(), 16);
        let t = TempFile(temp_path("cursor"));
        write_flat_index(&mem, &t.0).expect("write");
        for (workers, policy) in [
            (1, beside_full_history::<ScoutPrefetcher>()),
            (2, beside_full_history::<ExtrapolationPrefetcher>()),
        ] {
            let ooc = OocFlatIndex::open(
                &t.0,
                OocConfig::default()
                    .with_frame_budget(frame_budget_for(mem.page_count(), 50))
                    .with_prefetch_workers(workers),
            )
            .expect("open");
            let mut cur = ooc.cursor(policy);
            let (mut total_results, mut planned) = (0, 0);
            for (step, q) in path.queries.iter().enumerate() {
                let trace = cur.step(q).expect("step");
                assert_eq!(trace.demand_hits + trace.demand_misses, trace.pages_demanded);
                assert_eq!(trace.results as usize, cur.last_result().len());
                assert!(
                    cur.last_result().iter().eq(mem.range_query(q).0),
                    "step {step} with {workers} workers differs from the in-memory index"
                );
                total_results += trace.results;
                planned += trace.prefetched;
            }
            assert!(total_results > 0, "walkthrough crossed data");
            assert!(planned > 0, "the policy planned pages, so plans were compared");
        }
    }

    /// Page I/O that records every read made off the thread that opened
    /// it (the prefetch workers' reads; demand reads and the open-time
    /// sweep run on the test's thread) and makes reads of `held` pages
    /// wait until the gate opens, so a test can look at the prefetch
    /// queue while the workers are stuck mid-read.
    struct GateIo {
        file: PageFile,
        owner: std::thread::ThreadId,
        held: Vec<u32>,
        gate: Arc<Gate>,
    }

    #[derive(Default)]
    struct Gate {
        /// (gate open, pages read off the owner thread, in order).
        state: Mutex<(bool, Vec<u64>)>,
        changed: Condvar,
    }

    impl Gate {
        fn open(&self) {
            self.state.lock().expect("gate").0 = true;
            self.changed.notify_all();
        }

        /// The worker reads of pages in `of` so far, once there are at
        /// least `n` of them (a worker may also read a crawl-frontier
        /// page before the query gets to it).
        fn reads(&self, n: usize, of: &[u32]) -> Vec<u32> {
            let among = |log: &[u64]| -> Vec<u32> {
                log.iter()
                    .filter_map(|&p| of.iter().copied().find(|&o| u64::from(o) == p))
                    .collect()
            };
            let (state, timeout) = self
                .changed
                .wait_timeout_while(
                    self.state.lock().expect("gate"),
                    std::time::Duration::from_secs(20),
                    |s| among(&s.1).len() < n,
                )
                .expect("gate");
            assert!(!timeout.timed_out(), "workers read {:?}, expected {n} of {of:?}", state.1);
            among(&state.1)
        }
    }

    impl PageIo for GateIo {
        fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
            if std::thread::current().id() != self.owner {
                let mut state = self.gate.state.lock().expect("gate");
                state.1.push(page);
                self.gate.changed.notify_all();
                if self.held.iter().any(|&h| u64::from(h) == page) {
                    drop(self.gate.changed.wait_while(state, |s| !s.0).expect("gate"));
                }
            }
            self.file.read_page_into(page, buf)
        }

        fn page_count(&self) -> u64 {
            self.file.page_count()
        }

        fn page_size(&self) -> usize {
            self.file.page_size()
        }

        fn meta(&self) -> &[u8] {
            self.file.meta()
        }
    }

    fn open_gated(path: &Path, config: OocConfig, held: &[u32]) -> (OocFlatIndex, Arc<Gate>) {
        let gate = Arc::new(Gate::default());
        let io_gate = Arc::clone(&gate);
        let owner = std::thread::current().id();
        let held = held.to_vec();
        let ooc = OocFlatIndex::open_with(path, config, move |file| {
            Arc::new(GateIo { file, owner, held, gate: io_gate })
        })
        .expect("open");
        (ooc, gate)
    }

    /// A policy that plans the page lists it was given, one per step.
    struct Scripted(VecDeque<Vec<u32>>);

    impl Prefetcher for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn plan(&mut self, _ctx: &PrefetchContext<'_>) -> crate::prefetch::PrefetchPlan {
            crate::prefetch::PrefetchPlan {
                regions: Vec::new(),
                pages: self.0.pop_front().unwrap_or_default(),
            }
        }

        fn reset(&mut self) {}
    }

    fn queued_plan(ooc: &OocFlatIndex) -> Vec<u32> {
        let handle = ooc.prefetch.as_ref().expect("prefetch workers are running");
        let plan = handle.shared.lock().plan.iter().copied().collect();
        plan
    }

    /// A box that is small next to a page, around page `page`'s first
    /// object, and the pages a query on it reads.
    fn probe(mem: &FlatIndex<NeuronSegment>, page: u32) -> (Aabb, Vec<u32>) {
        let q = Aabb::cube(mem.page_objects(page)[0].aabb().center(), 1.0);
        let mut pages = Vec::new();
        let mut scratch = neurospatial_flat::FlatScratch::default();
        mem.range_query_stream(&q, &mut scratch, |p| pages.push(p), |_| Flow::Emit);
        (q, pages)
    }

    #[test]
    fn a_new_plan_replaces_the_unissued_rest_of_the_last_one() {
        let mem = build(circuit(10), 8);
        let t = TempFile(temp_path("handoff"));
        write_flat_index(&mem, &t.0).expect("write");
        let pages = mem.page_count() as u32;
        let (q1, read1) = probe(&mem, 0);
        let (q2, read2) = probe(&mem, pages / 2);
        // Pages neither step reads: only a plan can ask for them.
        let spare: Vec<u32> =
            (0..pages).filter(|p| !read1.contains(p) && !read2.contains(p)).collect();
        assert!(spare.len() >= 9, "the file is much larger than two probes");
        let (first, second) = (&spare[..6], &spare[6..9]);

        for workers in [1, 2] {
            let config = OocConfig::default().with_prefetch_workers(workers);
            let (ooc, gate) = open_gated(&t.0, config, &spare);
            // Each plan also names a page its step reads, a page twice
            // and pages past the end of the file.
            let mut plan1 = vec![read1[0], first[0], first[0], pages, u32::MAX];
            plan1.extend(&first[1..]);
            let mut plan2 = vec![second[0], read2[0], second[1], second[0], pages + 7, second[2]];
            plan2.extend(&second[..2]);
            let mut cur = ooc.cursor(Box::new(Scripted(VecDeque::from([plan1, plan2]))));

            let trace = cur.step(&q1).expect("step 1");
            assert_eq!(trace.prefetched, 6, "unread, unrepeated, in-range pages of plan 1");
            assert!(cur.last_result().iter().eq(mem.range_query(&q1).0));
            // Every worker is stuck reading one page of plan 1; the rest
            // is still queued.
            let mut issued = gate.reads(workers, &spare);
            issued.sort_unstable();
            assert_eq!(issued, first[..workers]);
            assert_eq!(queued_plan(&ooc), first[workers..]);

            let trace = cur.step(&q2).expect("step 2");
            assert_eq!(trace.prefetched, 3);
            assert!(cur.last_result().iter().eq(mem.range_query(&q2).0));
            assert_eq!(queued_plan(&ooc), second, "plan 2 in place of the rest of plan 1");

            // Let the workers go: they read plan 2 and nothing else.
            gate.open();
            let mut after = gate.reads(workers + 3, &spare).split_off(workers);
            after.sort_unstable();
            assert_eq!(after, second);
            assert!(queued_plan(&ooc).is_empty());
        }
    }

    #[test]
    fn plans_past_the_end_of_the_file_never_reach_the_pool() {
        let mem = build(circuit(10), 8);
        let t = TempFile(temp_path("lastpages"));
        write_flat_index(&mem, &t.0).expect("write");
        let pages = mem.page_count() as u32;
        let config = OocConfig::default().with_frame_budget(4).with_prefetch_workers(1);
        let (ooc, gate) = open_gated(&t.0, config, &[]);

        // Walk up to the last page with the storage-order policy, whose
        // window reaches two ids past it.
        let mut cur = ooc.cursor(Box::new(crate::prefetch::HilbertPrefetcher { window: 2 }));
        let mut planned = 0;
        for page in pages - 6..pages {
            planned += cur.step(&probe(&mem, page).0).expect("step").prefetched;
        }
        assert!(planned > 0, "the policy planned something");
        // The last plan is taken whole once the queue is empty, and a
        // worker reads what it takes before it looks at the queue again.
        while !queued_plan(&ooc).is_empty() {
            std::thread::yield_now();
        }

        // On a full pool, a plan of nothing but ids past the end costs
        // no frame.
        let last = probe(&mem, pages - 1).0;
        cur = ooc.cursor(Box::new(Scripted(VecDeque::from([vec![pages, pages + 1, u32::MAX]]))));
        cur.step(&last).expect("warm the last page");
        let before = ooc.pool().stats();
        assert_eq!(ooc.pool().resident(), 4, "the pool is full");
        assert_eq!(cur.step(&last).expect("step").prefetched, 0);
        assert!(queued_plan(&ooc).is_empty());
        assert_eq!(ooc.pool().stats().evictions, before.evictions);

        drop(cur);
        let pool = Arc::clone(&ooc.pool);
        drop(ooc); // joins the worker
        let reads = gate.state.lock().expect("gate").1.clone();
        assert!(reads.iter().all(|&p| p < u64::from(pages)), "read past the end: {reads:?}");
        assert_eq!(pool.stats().prefetched, reads.len() as u64, "a prefetch read failed");
    }

    #[test]
    fn empty_index_roundtrips() {
        let mem = build(Vec::new(), 16);
        let t = TempFile(temp_path("empty"));
        write_flat_index(&mem, &t.0).expect("write");
        let ooc = OocFlatIndex::open(&t.0, OocConfig::default()).expect("open");
        assert!(ooc.is_empty());
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc
            .range_query_into(&Aabb::cube(Vec3::ZERO, 5.0), &mut scratch, &mut got)
            .expect("query");
        assert!(got.is_empty());
        assert_eq!(stats.flat, FlatQueryStats::default());
    }

    #[test]
    fn foreign_meta_is_rejected() {
        let t = TempFile(temp_path("foreign"));
        let mut w = PageFileWriter::create(&t.0, 1040).expect("create");
        w.append_page(&[0u8; 64]).expect("page");
        w.finish(b"not flat metadata").expect("finish");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("foreign");
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn bit_flipped_page_fails_open_validation() {
        let segs = circuit(4);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("flip"));
        write_flat_index(&mem, &t.0).expect("write");
        let mut bytes = std::fs::read(&t.0).expect("read");
        // Flip a payload bit of page 0.
        bytes[neurospatial_storage::FILE_HEADER_BYTES + PAGE_HEADER_BYTES + 9] ^= 0x04;
        std::fs::write(&t.0, &bytes).expect("write");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("corrupt page");
        assert_eq!(err, StorageError::BadPages { pages: vec![0] });
        // Lazy open defers the error to the query that touches the page.
        let lazy = OocConfig { validate_pages: false, ..OocConfig::default() };
        let ooc = OocFlatIndex::open(&t.0, lazy).expect("lazy open");
        let mut scratch = OocScratch::default();
        let mut out = Vec::new();
        let err = ooc
            .range_query_into(&ooc.bounds(), &mut scratch, &mut out)
            .expect_err("query hits the bad page");
        assert!(matches!(err, StorageError::PageChecksum { .. }));
        // The failed page is now quarantined: the re-query fails fast
        // with the quarantine error, and the standalone sweep reports it.
        assert_eq!(ooc.quarantined_pages(), vec![0]);
        let err =
            ooc.range_query_into(&ooc.bounds(), &mut scratch, &mut out).expect_err("still refused");
        assert_eq!(err, StorageError::Quarantined { pages: vec![0] });
        assert_eq!(ooc.validate_pages(), Err(StorageError::BadPages { pages: vec![0] }));
    }

    #[test]
    fn validation_sweep_reports_every_bad_page_at_once() {
        let segs = circuit(10);
        let mem = build(segs, 8);
        let t = TempFile(temp_path("sweep"));
        write_flat_index(&mem, &t.0).expect("write");
        assert!(mem.page_count() >= 4, "need several pages to tear");
        neurospatial_storage::tear_page(&t.0, 1).expect("tear 1");
        neurospatial_storage::tear_page(&t.0, 3).expect("tear 3");
        let err = OocFlatIndex::open(&t.0, OocConfig::default()).expect_err("two bad pages");
        assert_eq!(err, StorageError::BadPages { pages: vec![1, 3] });
    }

    #[test]
    fn transient_faults_recover_to_byte_identical_results() {
        use neurospatial_storage::{FaultFile, FaultPlan};
        let segs = circuit(10);
        let mem = build(segs, 16);
        let t = TempFile(temp_path("transient"));
        write_flat_index(&mem, &t.0).expect("write");
        // Every read window faults, bursts up to 2 — the default
        // 4-attempt policy always recovers.
        let plan = FaultPlan::new(11).with_transient_permille(1000).with_max_consecutive(2);
        let ooc = OocFlatIndex::open_with(&t.0, OocConfig::default().with_frame_budget(2), |f| {
            Arc::new(FaultFile::new(f, plan))
        })
        .expect("open recovers transient faults during validation");
        let q = Aabb::cube(mem.bounds().center(), 60.0);
        let (want, _) = mem.range_query(&q);
        let mut scratch = OocScratch::default();
        let mut got = Vec::new();
        let stats = ooc.range_query_into(&q, &mut scratch, &mut got).expect("query recovers");
        assert_eq!(got.len(), want.len());
        assert!(got.iter().zip(&want).all(|(a, b)| a == *b), "byte-identical despite faults");
        assert!(stats.io.retries > 0, "the fault storm forced retries");
        assert_eq!(stats.io.pages_quarantined, 0);
        assert!(ooc.quarantined_pages().is_empty());
    }

    #[test]
    fn partial_mode_skips_quarantined_pages_and_labels_the_result() {
        use neurospatial_storage::{FaultFile, FaultPlan};
        let segs = circuit(10);
        let mem = build(segs, 8);
        let t = TempFile(temp_path("partial"));
        write_flat_index(&mem, &t.0).expect("write");
        assert!(mem.page_count() >= 3);
        let plan = FaultPlan::new(5).with_corrupt_pages(vec![1]);
        let lazy = OocConfig { validate_pages: false, ..OocConfig::default() };
        let ooc = OocFlatIndex::open_with(&t.0, lazy, |f| Arc::new(FaultFile::new(f, plan)))
            .expect("lazy open");
        let q = ooc.bounds();
        let mut scratch = OocScratch::default();

        // Strict mode: typed failure, page quarantined.
        let mut out = Vec::new();
        let err = ooc.range_query_into(&q, &mut scratch, &mut out).expect_err("strict fails");
        assert_eq!(err, StorageError::PageChecksum { page: 1 });
        assert_eq!(ooc.quarantined_pages(), vec![1]);

        // Partial mode: completes, labels the loss, and returns exactly
        // the objects of the surviving pages in crawl order.
        let mut got = Vec::new();
        let stats = ooc
            .range_query_stream_partial(
                &q,
                &mut scratch,
                true,
                |_| {},
                |s| {
                    got.push(*s);
                    Flow::Emit
                },
            )
            .expect("partial completes");
        assert_eq!(stats.io.pages_quarantined, 1);
        let lost: Vec<u64> = mem.page_objects(1).iter().map(|s| s.id).collect();
        let (all, _) = mem.range_query(&q);
        assert_eq!(got.len(), all.len() - lost.len(), "lost exactly page 1's objects");
        assert!(got.iter().all(|s| !lost.contains(&s.id)));
    }
}
