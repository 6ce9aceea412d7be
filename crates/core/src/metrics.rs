//! Query-pipeline observability handles.
//!
//! One process-wide set of handles in [`neurospatial_obs::global`],
//! registered eagerly when a database is built (so the first measured
//! query pays zero registration allocations). Every range/KNN funnel in
//! [`crate::query`] bumps the exact traversal counter, folds its
//! [`QueryStats`] into per-thread cells (flushed to the shared work
//! counters every `SAMPLE_EVERY` traversals and at thread exit), and
//! times the traversal into the latency histogram (a
//! [`neurospatial_obs::Histogram::timer`] guard) on a sampled subset of
//! calls — a single-digit nanosecond steady-state tax on sub-microsecond
//! selective queries.

use crate::index::QueryStats;
use neurospatial_obs::{global, Counter, Gauge, Histogram};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::thread::LocalKey;

/// Sampling/batching period for the query funnels: a monotonic clock
/// read costs tens of nanoseconds and a shared-line RMW a handful more,
/// a measurable tax on sub-microsecond selective queries, so the
/// traversal timer (two clock reads + a histogram record) is opened on
/// one call in `SAMPLE_EVERY` per thread, and the work-stat folds are
/// batched through thread-local cells flushed on the same period. The
/// first call on every thread always samples *and* flushes, so even a
/// handful of queries populates the latency histograms and counters;
/// `query_ranges_total` / `query_knns_total` are bumped exactly on
/// every call; and the heavyweight stages (page I/O, WAL commit) are
/// always timed — a clock pair is noise against real I/O.
pub(crate) const SAMPLE_EVERY: u32 = 32;

thread_local! {
    static RANGE_TICK: Cell<u32> = const { Cell::new(0) };
    static KNN_TICK: Cell<u32> = const { Cell::new(0) };
}

#[inline]
fn tick(key: &'static LocalKey<Cell<u32>>) -> bool {
    key.with(|t| {
        let v = t.get();
        t.set(v.wrapping_add(1));
        v % SAMPLE_EVERY == 0
    })
}

/// Whether this range traversal should be timed.
#[inline]
pub(crate) fn sample_range_latency() -> bool {
    tick(&RANGE_TICK)
}

/// Whether this KNN search should be timed.
#[inline]
pub(crate) fn sample_knn_latency() -> bool {
    tick(&KNN_TICK)
}

/// Registry handles for the query pipeline.
pub(crate) struct QueryObs {
    /// Wall time of one range traversal (any terminal), ns.
    pub range_latency: Arc<Histogram>,
    /// Wall time of one KNN search, ns.
    pub knn_latency: Arc<Histogram>,
    /// Range traversals started.
    pub ranges: Arc<Counter>,
    /// KNN searches started.
    pub knns: Arc<Counter>,
    /// Segments delivered to sinks.
    pub results: Arc<Counter>,
    /// Index nodes / pages visited.
    pub nodes_read: Arc<Counter>,
    /// Segments tested against predicates.
    pub objects_tested: Arc<Counter>,
    /// Quarantined pages skipped by partial-tolerant traversals.
    pub pages_quarantined: Arc<Counter>,
}

/// Per-thread staging for the work counters: cache-local `Cell` adds on
/// the hot path, a shared-atomic flush every [`SAMPLE_EVERY`] folds.
/// The `Drop` impl makes totals exact at thread exit; between flushes
/// the shared counters lag by at most `SAMPLE_EVERY - 1` traversals of
/// work per live thread. `since_flush` starts one short of the period
/// so the very first fold on a thread flushes through immediately.
struct PendingStats {
    results: Cell<u64>,
    nodes_read: Cell<u64>,
    objects_tested: Cell<u64>,
    pages_quarantined: Cell<u64>,
    since_flush: Cell<u32>,
}

impl PendingStats {
    fn flush(&self) {
        let qobs = query_obs();
        let take = |c: &Cell<u64>, into: &Counter| {
            let v = c.replace(0);
            if v != 0 {
                into.add(v);
            }
        };
        take(&self.results, &qobs.results);
        take(&self.nodes_read, &qobs.nodes_read);
        take(&self.objects_tested, &qobs.objects_tested);
        take(&self.pages_quarantined, &qobs.pages_quarantined);
        self.since_flush.set(0);
    }
}

impl Drop for PendingStats {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static PENDING: PendingStats = const {
        PendingStats {
            results: Cell::new(0),
            nodes_read: Cell::new(0),
            objects_tested: Cell::new(0),
            pages_quarantined: Cell::new(0),
            since_flush: Cell::new(SAMPLE_EVERY - 1),
        }
    };
}

impl QueryObs {
    /// Folds one traversal's stats into the cumulative counters,
    /// staged through [`PendingStats`]. Falls back to direct atomic
    /// adds if the thread-local is already torn down.
    #[inline]
    pub fn observe(&self, stats: &QueryStats) {
        let staged = PENDING.try_with(|p| {
            p.results.set(p.results.get() + stats.results);
            p.nodes_read.set(p.nodes_read.get() + stats.nodes_read);
            p.objects_tested.set(p.objects_tested.get() + stats.objects_tested);
            p.pages_quarantined.set(p.pages_quarantined.get() + stats.pages_quarantined);
            let n = p.since_flush.get() + 1;
            if n >= SAMPLE_EVERY {
                p.flush();
            } else {
                p.since_flush.set(n);
            }
        });
        if staged.is_err() {
            self.results.add(stats.results);
            self.nodes_read.add(stats.nodes_read);
            self.objects_tested.add(stats.objects_tested);
            if stats.pages_quarantined != 0 {
                self.pages_quarantined.add(stats.pages_quarantined);
            }
        }
    }
}

static QUERY_OBS: OnceLock<QueryObs> = OnceLock::new();

/// The query-pipeline handles (registered on first call).
pub(crate) fn query_obs() -> &'static QueryObs {
    QUERY_OBS.get_or_init(|| {
        let r = global();
        QueryObs {
            range_latency: r.histogram("query_range_latency_ns"),
            knn_latency: r.histogram("query_knn_latency_ns"),
            ranges: r.counter("query_ranges_total"),
            knns: r.counter("query_knns_total"),
            results: r.counter("query_results_total"),
            nodes_read: r.counter("query_nodes_read_total"),
            objects_tested: r.counter("query_objects_tested_total"),
            pages_quarantined: r.counter("query_pages_quarantined_total"),
        }
    })
}

static GENERATIONS_ALIVE: OnceLock<Arc<Gauge>> = OnceLock::new();

/// Frozen generations of live databases built and not yet freed, summed
/// over every live database in the process (`core_generations_alive`;
/// one database's own count is `WalHealth::generations_alive`). It reads
/// one per open live database at rest; a level that climbs with the
/// swap count means something is holding generations.
pub(crate) fn generations_alive() -> &'static Gauge {
    GENERATIONS_ALIVE.get_or_init(|| global().gauge("core_generations_alive"))
}

/// Eagerly registers every query-pipeline metric (and the storage-layer
/// handles the paged backends use), so hot paths never pay first-use
/// registration. Called from database construction; cheap and idempotent.
pub fn warm_metrics() {
    let _ = query_obs();
    let _ = generations_alive();
    let _ = neurospatial_storage::metrics::frame_obs();
    let _ = neurospatial_storage::metrics::wal_obs();
    let _ = neurospatial_storage::metrics::fault_obs();
}
