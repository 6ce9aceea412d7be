//! Observability handles for the storage layer.
//!
//! All handles live in the process-wide [`neurospatial_obs::global`]
//! registry and are registered lazily, once, on first touch — always from
//! a construction or I/O path, never inside the lock-free fast paths.
//! Recording through them is a relaxed atomic op and does not allocate,
//! preserving the storage layer's alloc-free steady-state guarantees.

use neurospatial_obs::{global, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Frame-pool counters mirrored from [`crate::FrameStats`], plus demand
/// read latency. Cumulative across every pool in the process (per-pool
/// numbers stay available via [`crate::FramePool::stats`]).
pub struct FrameObs {
    /// Demand requests served without a disk read.
    pub hits: Arc<Counter>,
    /// Demand hits that waited for an in-flight load.
    pub waits: Arc<Counter>,
    /// Demand requests that paid a disk read.
    pub misses: Arc<Counter>,
    /// Frames dropped to make room.
    pub evictions: Arc<Counter>,
    /// Pages loaded by background prefetch.
    pub prefetched: Arc<Counter>,
    /// Demand hits on prefetched frames (useful prefetch).
    pub prefetch_hits: Arc<Counter>,
    /// Pages moved into the quarantine set.
    pub quarantined: Arc<Counter>,
    /// Resident pages in the most recently active pool.
    pub resident: Arc<Gauge>,
    /// Demand-miss page read latency (load closure wall time), ns.
    pub read_latency: Arc<Histogram>,
}

/// WAL durability counters and latency/size distributions. Cumulative
/// across every [`crate::Wal`] in the process.
pub struct WalObs {
    /// Successful group commits.
    pub commits: Arc<Counter>,
    /// Checkpoint rewrites.
    pub checkpoints: Arc<Counter>,
    /// fsync calls issued by commits and checkpoints.
    pub fsyncs: Arc<Counter>,
    /// Wall time of one commit (batch append + fsync), ns.
    pub commit_latency: Arc<Histogram>,
    /// Bytes handed to the log per commit batch.
    pub append_bytes: Arc<Histogram>,
    /// DATA records riding each COMMIT (group-commit size).
    pub group_records: Arc<Histogram>,
}

/// Fault-injection and retry counters from the I/O resilience layer.
pub struct FaultObs {
    /// Transient I/O failures absorbed by a retry loop.
    pub retries: Arc<Counter>,
    /// Operations that exhausted retries or failed permanently.
    pub exhausted: Arc<Counter>,
}

static FRAME_OBS: OnceLock<FrameObs> = OnceLock::new();
static WAL_OBS: OnceLock<WalObs> = OnceLock::new();
static FAULT_OBS: OnceLock<FaultObs> = OnceLock::new();

/// Frame-pool handles (registered on first call).
pub fn frame_obs() -> &'static FrameObs {
    FRAME_OBS.get_or_init(|| {
        let r = global();
        FrameObs {
            hits: r.counter("storage_frame_hits_total"),
            waits: r.counter("storage_frame_waits_total"),
            misses: r.counter("storage_frame_misses_total"),
            evictions: r.counter("storage_frame_evictions_total"),
            prefetched: r.counter("storage_frame_prefetched_total"),
            prefetch_hits: r.counter("storage_frame_prefetch_hits_total"),
            quarantined: r.counter("storage_pages_quarantined_total"),
            resident: r.gauge("storage_frames_resident"),
            read_latency: r.histogram("storage_page_read_latency_ns"),
        }
    })
}

/// WAL handles (registered on first call).
pub fn wal_obs() -> &'static WalObs {
    WAL_OBS.get_or_init(|| {
        let r = global();
        WalObs {
            commits: r.counter("wal_commits_total"),
            checkpoints: r.counter("wal_checkpoints_total"),
            fsyncs: r.counter("wal_fsyncs_total"),
            commit_latency: r.histogram("wal_commit_latency_ns"),
            append_bytes: r.histogram("wal_append_bytes"),
            group_records: r.histogram("wal_group_commit_records"),
        }
    })
}

/// Retry/fault handles (registered on first call).
pub fn fault_obs() -> &'static FaultObs {
    FAULT_OBS.get_or_init(|| {
        let r = global();
        FaultObs {
            retries: r.counter("storage_io_retries_total"),
            exhausted: r.counter("storage_io_retry_exhausted_total"),
        }
    })
}
