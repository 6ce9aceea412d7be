//! The benchmark's own implementations of the two storage seams: a page
//! reader that behaves like a device, and a log that counts and times
//! what the WAL does to it.

use crate::trace::{self, Tracer};
use neurospatial::storage::{FileLog, LogIo, PageFile, PageIo, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters shared between a wrapper the engine owns and the workload.
/// Relaxed everywhere: each is a statistic and publishes nothing.
#[derive(Debug, Default)]
pub struct IoCounters {
    pub calls: AtomicU64,
    pub bytes: AtomicU64,
    pub nanos: AtomicU64,
    pub syncs: AtomicU64,
}

impl IoCounters {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    fn add(&self, bytes: u64, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Run `f` as a span under whatever the calling thread is inside (the
/// engine calls the wrappers, so the parent cannot be passed in).
fn span_around<R>(tracer: &Option<Arc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(tracer) = tracer else { return f() };
    let (parent, op_id) = trace::current();
    let open = tracer.open(name, parent, op_id);
    let out = f();
    tracer.record(open);
    out
}

/// A [`PageFile`] that costs what a device costs. The sandbox's page
/// cache answers a read in about a microsecond, so without the stated
/// `device_read` wait no miss would ever cost anything and prefetching
/// could never pay. The wait spins: a sleep of 150 µs overshoots by 60 to
/// 200 µs depending on what else the host runs, which put the host's
/// scheduling noise into every miss (the median step moved by 30 %
/// between two studies). The stepping thread and the one prefetch worker
/// are the only runnable threads, one per core, so spinning takes no core
/// from anyone. Counts and times every read; in a traced run each read is
/// a span under whatever the calling thread is inside.
pub struct DevicePageIo {
    file: PageFile,
    device_read: Duration,
    pub counters: Arc<IoCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl DevicePageIo {
    pub fn new(file: PageFile, device_read: Duration, tracer: Option<Arc<Tracer>>) -> Self {
        DevicePageIo { file, device_read, counters: Arc::default(), tracer }
    }
}

impl PageIo for DevicePageIo {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        let started = Instant::now();
        let result = span_around(&self.tracer, "storage.page_read", || {
            while started.elapsed() < self.device_read {
                std::hint::spin_loop();
            }
            self.file.read_page_into(page, buf)
        });
        self.counters.add(buf.len() as u64, started);
        result
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

/// A [`FileLog`] that counts bytes written and fsyncs; in a traced run
/// appends and syncs are spans under the current write.
pub struct TimingLogIo {
    log: FileLog,
    /// Appends and checkpoint replacements (`calls`, `bytes`, `nanos`)
    /// and syncs (`syncs`).
    pub counters: Arc<IoCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl TimingLogIo {
    pub fn new(log: FileLog, tracer: Option<Arc<Tracer>>) -> Self {
        TimingLogIo { log, counters: Arc::default(), tracer }
    }
}

impl LogIo for TimingLogIo {
    fn read_all(&mut self, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.log.read_all(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let started = Instant::now();
        let log = &mut self.log;
        let result = span_around(&self.tracer, "storage.wal_append", || log.append(bytes));
        self.counters.add(bytes.len() as u64, started);
        result
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let log = &mut self.log;
        let result = span_around(&self.tracer, "storage.wal_sync", || log.sync());
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.log.truncate(len)
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StorageError> {
        let started = Instant::now();
        let result = self.log.replace(contents);
        self.counters.add(contents.len() as u64, started);
        result
    }

    fn len(&self) -> u64 {
        self.log.len()
    }
}
