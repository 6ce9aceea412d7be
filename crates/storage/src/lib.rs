//! # neurospatial-storage
//!
//! The paged-storage layer: an on-disk page format with a pinning
//! buffer pool, a write-ahead log, and a modelled device to time them
//! against.
//!
//! ## The out-of-core stack
//!
//! Datasets larger than RAM live in a *page file* ([`PageFile`], written
//! by [`PageFileWriter`]): a versioned, checksummed array of fixed-size
//! pages plus an index-specific metadata blob (byte layout in the
//! [`mod@file`] module docs). Query engines read pages through a
//! [`FramePool`] — a bounded set of in-memory frames with CLOCK or LRU
//! eviction ([`EvictionPolicy`]), pin guards ([`FrameGuard`]) that make
//! eviction of in-use pages impossible, and hit/miss/eviction/prefetch
//! counters ([`FrameStats`]) that surface in the facade's query
//! statistics. Every failure mode — corrupt bytes, truncation, version
//! skew, an exhausted frame budget — is a typed [`StorageError`], never
//! a panic.
//!
//! The out-of-core FLAT engine built on this stack lives in
//! `neurospatial-scout` (the serializer needs the FLAT index types);
//! this crate owns the format and the buffer manager.
//!
//! ## Durability — the write-ahead log
//!
//! Live ingest writes through a [`Wal`] (module [`mod@wal`]):
//! FNV-1a-checksummed records with monotonic LSNs, group commit with
//! one fsync per commit, atomic checkpoints that bound replay, and
//! torn-tail detection on open. Writes flow through the [`LogIo`] seam
//! so [`FaultLog`] can inject crashes at exact byte offsets and bit
//! flips into acknowledged history, under the same seeded [`FaultPlan`]
//! replay discipline as the read path.
//!
//! ## The modelled device — the measurement instrument
//!
//! The demo's live statistics panels (Figures 3 and 6 of the paper)
//! show *disk pages retrieved* and *time* while queries execute. To
//! report the same quantities reproducibly on any machine, the
//! cost-model experiments run the same [`FramePool`] over a
//! [`ModelledDevice`]: a [`PageIo`] wrapper that charges every read to
//! its own clock under a two-parameter random/sequential [`CostModel`]
//! instead of waiting. Only a read moves that clock, so stall and
//! think time measured against it depend on the reads alone; on a real
//! file the same code measures wall-clock stalls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod fault;
pub mod file;
pub mod frame;
pub mod metrics;
pub mod wal;

pub use disk::{CostModel, ModelledDevice};
pub use fault::{
    tear_page, with_retry, with_retry_sleeping, FaultFile, FaultLog, FaultPlan, PageIo, RetryPolicy,
};
pub use file::{checksum64, Checksum64, PageFile, PageFileWriter, StorageError};
pub use file::{FILE_HEADER_BYTES, PAGE_FILE_MAGIC, PAGE_FILE_VERSION, PAGE_HEADER_BYTES};
pub use frame::{EvictionPolicy, FrameGuard, FramePool, FrameStats, Served};
pub use wal::{FileLog, LogIo, Wal, WalRecovery};
