//! Deterministic fault injection and bounded-retry recovery.
//!
//! The pager detects corruption ([`crate::PageFile`] re-verifies every
//! checksum on every read) but detection alone is not resilience: a
//! production service must *recover* from transient I/O hiccups and
//! *degrade* — not die — on permanent ones. This module supplies both
//! halves plus the instrument that proves them:
//!
//! - [`PageIo`] is the injectable read seam behind the pager. The
//!   production implementation is [`PageFile`] itself (a passthrough);
//!   [`FaultFile`] wraps any inner reader and injects faults from a
//!   seeded, replayable [`FaultPlan`].
//! - [`RetryPolicy`] + [`with_retry`] give transient errors (classified
//!   by [`StorageError::is_transient`]) a bounded number of attempts
//!   with decorrelated-jitter backoff. Permanent errors are returned on
//!   the first attempt, untouched.
//! - [`tear_page`] physically corrupts a page *on disk* — the torn-write
//!   scenario — so the real checksum machinery (not a simulated error)
//!   produces the failure.
//!
//! ## Determinism
//!
//! Every injection decision is a pure function of
//! `(plan.seed, page, logical read index of that page)` — independent of
//! thread interleaving, wall-clock time and the order *different* pages
//! are read in. Replaying the same plan against the same access pattern
//! injects the same faults, which is what lets the chaos suite shrink a
//! red run to a seed. Transient faults come in bursts of at most
//! [`FaultPlan::max_consecutive`] consecutive failures per page, so any
//! retry policy with `max_attempts > max_consecutive` is *guaranteed* to
//! recover from a transient-only plan — the property the chaos suite's
//! byte-identical assertion rests on.

use crate::file::{PageFile, StorageError, FILE_HEADER_BYTES, PAGE_HEADER_BYTES};
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Positioned page reads — the seam between the frame pool / scout
/// engine and the physical file, so tests can interpose a fault
/// injector without touching production code paths.
///
/// Implemented by [`PageFile`] (the production passthrough),
/// [`FaultFile`] (the chaos harness) and
/// [`ModelledDevice`](crate::ModelledDevice) (the cost-model clock).
pub trait PageIo: Send + Sync {
    /// Read page `page`'s payload into `buf` (cleared and refilled).
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError>;

    /// Number of pages in the file.
    fn page_count(&self) -> u64;

    /// The page size (including the per-page header).
    fn page_size(&self) -> usize;

    /// The file's metadata blob.
    fn meta(&self) -> &[u8];

    /// The device's own clock in nanoseconds, if it keeps one. A real
    /// file keeps none (`None`: time passes by itself while it reads); a
    /// [`ModelledDevice`](crate::ModelledDevice) reports the modelled
    /// cost of every read so far, and only a read moves it.
    fn clock_ns(&self) -> Option<u64> {
        None
    }
}

impl PageIo for PageFile {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        PageFile::read_page_into(self, page, buf)
    }

    fn page_count(&self) -> u64 {
        PageFile::page_count(self)
    }

    fn page_size(&self) -> usize {
        PageFile::page_size(self)
    }

    fn meta(&self) -> &[u8] {
        PageFile::meta(self)
    }
}

/// SplitMix64 — the deterministic decision hash behind every injection.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded, replayable fault schedule for a [`FaultFile`].
///
/// The plan is pure data: two plans with equal fields inject identical
/// faults against identical access patterns. [`dump`](Self::dump)
/// serialises it to a line CI can archive next to a red run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Probability (in permille, 0..=1000) that a given per-page read
    /// *window* carries a transient-fault burst.
    pub transient_permille: u32,
    /// Longest transient burst: at most this many consecutive failures
    /// of one page before a read of it succeeds. Retry policies with
    /// `max_attempts > max_consecutive` always recover.
    pub max_consecutive: u32,
    /// Injected latency per faulted attempt, in microseconds (0 = none)
    /// — models a disk that is slow *and* flaky, and exercises the
    /// server's time budgets.
    pub latency_us: u64,
    /// Pages whose reads fail **permanently** with
    /// [`StorageError::PageChecksum`] — targeted bit-rot. Sorted,
    /// deduplicated on construction.
    pub corrupt_pages: Vec<u64>,
    /// Write-side crash point for [`FaultLog`]: after this many bytes
    /// have been appended through the wrapper, everything else is
    /// dropped on the floor — the write that straddles the offset
    /// persists only its prefix (a torn record), and every later write
    /// or sync fails permanently, as if the process had died.
    /// `None` = never crash.
    pub write_crash_at: Option<u64>,
    /// Write-side bit flips for [`FaultLog`]: `(offset, mask)` pairs,
    /// where `offset` counts bytes appended through the wrapper and the
    /// byte landing there is XORed with `mask` *before* it reaches the
    /// disk — silent media corruption inside acknowledged history.
    /// Sorted by offset, deduplicated on construction.
    pub write_flips: Vec<(u64, u8)>,
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_permille: 0,
            max_consecutive: 2,
            latency_us: 0,
            corrupt_pages: Vec::new(),
            write_crash_at: None,
            write_flips: Vec::new(),
        }
    }

    /// Set the transient-fault rate in permille (clamped to 1000).
    pub fn with_transient_permille(mut self, permille: u32) -> Self {
        self.transient_permille = permille.min(1000);
        self
    }

    /// Set the longest transient burst (clamped to at least 1).
    pub fn with_max_consecutive(mut self, n: u32) -> Self {
        self.max_consecutive = n.max(1);
        self
    }

    /// Set the injected latency per faulted attempt.
    pub fn with_latency_us(mut self, us: u64) -> Self {
        self.latency_us = us;
        self
    }

    /// Set the permanently corrupt pages (sorted and deduplicated).
    pub fn with_corrupt_pages(mut self, mut pages: Vec<u64>) -> Self {
        pages.sort_unstable();
        pages.dedup();
        self.corrupt_pages = pages;
        self
    }

    /// Set the write-side crash point in appended bytes (see
    /// [`write_crash_at`](Self::write_crash_at)).
    pub fn with_write_crash_at(mut self, offset: u64) -> Self {
        self.write_crash_at = Some(offset);
        self
    }

    /// Add a write-side bit flip at appended-byte `offset` (XOR `mask`,
    /// clamped to nonzero so every flip actually corrupts).
    pub fn with_write_flip(mut self, offset: u64, mask: u8) -> Self {
        self.write_flips.push((offset, mask.max(1)));
        self.write_flips.sort_unstable();
        self.write_flips.dedup();
        self
    }

    /// Whether this plan contains only recoverable (transient) faults.
    pub fn is_transient_only(&self) -> bool {
        self.corrupt_pages.is_empty()
            && self.write_crash_at.is_none()
            && self.write_flips.is_empty()
    }

    /// One-line replayable description — what CI archives when a chaos
    /// run fails, so the failure replays from the artifact alone.
    pub fn dump(&self) -> String {
        format!(
            "FaultPlan {{ seed: {}, transient_permille: {}, max_consecutive: {}, \
             latency_us: {}, corrupt_pages: {:?}, write_crash_at: {:?}, \
             write_flips: {:?} }}",
            self.seed,
            self.transient_permille,
            self.max_consecutive,
            self.latency_us,
            self.corrupt_pages,
            self.write_crash_at,
            self.write_flips
        )
    }

    /// The transient-burst length for `page`'s read window `window`:
    /// `0` (no fault) or `1..=max_consecutive`.
    fn burst_len(&self, page: u64, window: u64) -> u64 {
        if self.transient_permille == 0 {
            return 0;
        }
        let h = splitmix64(
            self.seed
                ^ page.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ window.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        if (h % 1000) as u32 >= self.transient_permille {
            return 0;
        }
        1 + (h >> 32) % u64::from(self.max_consecutive)
    }

    /// The flavour of the `k`-th transient failure of (`page`,
    /// `window`): rotates through the `EINTR`-class error kinds plus a
    /// short read, all of which classify as transient.
    fn transient_error(&self, page: u64, window: u64, k: u64) -> StorageError {
        let h = splitmix64(
            self.seed ^ splitmix64(page) ^ window ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let (kind, context) = match h % 4 {
            0 => (std::io::ErrorKind::Interrupted, "read page (injected EINTR)"),
            1 => (std::io::ErrorKind::WouldBlock, "read page (injected EWOULDBLOCK)"),
            2 => (std::io::ErrorKind::TimedOut, "read page (injected timeout)"),
            _ => (std::io::ErrorKind::Interrupted, "read page (injected short read)"),
        };
        StorageError::Io { kind, context }
    }
}

/// A [`PageIo`] that wraps an inner reader and injects the faults a
/// [`FaultPlan`] schedules. Header and metadata reads (done at open,
/// before a `FaultFile` exists) are unaffected; only page reads fault.
///
/// Thread-safe: per-page logical read indices are kept under a mutex,
/// so concurrent readers of different pages do not perturb each other's
/// schedules.
pub struct FaultFile<F: PageIo> {
    inner: F,
    plan: FaultPlan,
    /// page → logical read index (how many reads of it were attempted).
    reads: Mutex<HashMap<u64, u64>>,
    injected: AtomicU64,
}

impl<F: PageIo> FaultFile<F> {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        FaultFile { inner, plan, reads: Mutex::new(HashMap::new()), injected: AtomicU64::new(0) }
    }

    /// The plan driving this file.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far (transient and permanent).
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The wrapped reader.
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: PageIo> PageIo for FaultFile<F> {
    fn read_page_into(&self, page: u64, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        // Claim this read's logical index first, so concurrent readers
        // of the same page each get a distinct, deterministic slot.
        let idx = {
            let mut reads = self.reads.lock().unwrap_or_else(|p| p.into_inner());
            let c = reads.entry(page).or_insert(0);
            let idx = *c;
            *c += 1;
            idx
        };
        if self.plan.latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.plan.latency_us));
        }
        if self.plan.corrupt_pages.binary_search(&page).is_ok() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::PageChecksum { page });
        }
        // Group reads of one page into windows of max_consecutive + 1
        // attempts; a faulty window fails its first `burst` attempts and
        // then succeeds, bounding any burst below the window size.
        let window_size = u64::from(self.plan.max_consecutive) + 1;
        let (window, offset) = (idx / window_size, idx % window_size);
        let burst = self.plan.burst_len(page, window);
        if offset < burst {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(self.plan.transient_error(page, window, offset));
        }
        self.inner.read_page_into(page, buf)
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn meta(&self) -> &[u8] {
        self.inner.meta()
    }

    fn clock_ns(&self) -> Option<u64> {
        self.inner.clock_ns()
    }
}

/// Physically corrupt page `page` of the page file at `path`, emulating
/// a torn write: the tail half of the page is overwritten with garbage
/// while its stored checksum stays stale, so the next read of that page
/// fails with [`StorageError::PageChecksum`] through the *real*
/// verification path. The header, every other page and the metadata
/// blob are untouched.
pub fn tear_page<P: AsRef<Path>>(path: P, page: u64) -> Result<(), StorageError> {
    let err = |context: &'static str| {
        move |e: std::io::Error| StorageError::Io { kind: e.kind(), context }
    };
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(err("open for tear"))?;
    let mut header = [0u8; FILE_HEADER_BYTES];
    file.read_exact(&mut header).map_err(err("read header"))?;
    let page_size = u64::from(u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")));
    let page_count = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if page_size == 0 || page >= page_count {
        return Err(StorageError::PageOutOfRange { page, count: page_count });
    }
    // Overwrite the back half of the *actual* payload (the checksum only
    // covers `payload_len` bytes — trailing padding is free real estate):
    // a write that made it through the header but died before the
    // payload finished. Empty payloads get their stored checksum torn.
    let page_start = FILE_HEADER_BYTES as u64 + page * page_size;
    let mut page_header = [0u8; PAGE_HEADER_BYTES];
    file.seek(SeekFrom::Start(page_start)).map_err(err("seek page header"))?;
    file.read_exact(&mut page_header).map_err(err("read page header"))?;
    let payload_len = u64::from(u32::from_le_bytes(page_header[0..4].try_into().expect("4 bytes")));
    let (torn_from, torn_len) = if payload_len == 0 {
        (page_start + 8, 8) // the stored checksum field
    } else {
        (page_start + PAGE_HEADER_BYTES as u64 + payload_len / 2, payload_len - payload_len / 2)
    };
    // Inverting the original bytes guarantees the torn region differs.
    let mut garbage = vec![0u8; torn_len as usize];
    file.seek(SeekFrom::Start(torn_from)).map_err(err("seek to tear"))?;
    file.read_exact(&mut garbage).map_err(err("read tear region"))?;
    for b in &mut garbage {
        *b = !*b;
    }
    file.seek(SeekFrom::Start(torn_from)).map_err(err("seek to tear"))?;
    file.write_all(&garbage).map_err(err("tear page"))?;
    file.sync_all().map_err(err("sync tear"))?;
    Ok(())
}

/// Bounded retry with decorrelated-jitter backoff for transient I/O.
///
/// All durations are integer microseconds so the policy is `Copy + Eq`
/// and testable without a clock. The backoff sequence follows the
/// decorrelated-jitter scheme: each delay is drawn (deterministically,
/// from the attempt's hash) between `base_us` and three times the
/// previous delay, capped at `cap_us` — spreading concurrent retriers
/// out instead of synchronising them into retry storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Lower bound of every backoff delay, in microseconds.
    pub base_us: u64,
    /// Upper bound of every backoff delay, in microseconds.
    pub cap_us: u64,
}

impl Default for RetryPolicy {
    /// 4 attempts, 50 µs base, 5 ms cap: recovers any transient burst of
    /// up to 3 consecutive failures while bounding the worst-case added
    /// latency of a single page read to ~15 ms.
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_us: 50, cap_us: 5_000 }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_us: 0, cap_us: 0 }
    }

    /// The deterministic backoff delay before retry attempt `attempt`
    /// (1-based: the delay slept after the `attempt`-th failure), for a
    /// retrier identified by `salt`. Always within
    /// `base_us..=cap_us` (and exactly 0 when both bounds are 0).
    pub fn backoff_us(&self, salt: u64, attempt: u32) -> u64 {
        if self.cap_us <= self.base_us {
            return self.base_us;
        }
        // Decorrelated jitter, derandomised: prev grows like base·3^k
        // but each step re-draws uniformly from [base, prev·3].
        let mut prev = self.base_us;
        let mut draw = 0u64;
        for k in 1..=attempt {
            let hi = prev.saturating_mul(3).clamp(self.base_us + 1, self.cap_us);
            let h = splitmix64(salt ^ u64::from(k).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            draw = self.base_us + h % (hi - self.base_us + 1);
            prev = draw;
        }
        draw.min(self.cap_us)
    }
}

/// Run `op`, retrying transient failures under `policy`, sleeping via
/// `sleep` (microseconds) between attempts. Returns the final result
/// plus the number of retries performed (0 = first attempt succeeded or
/// failed permanently). Permanent errors short-circuit immediately.
///
/// `salt` decorrelates concurrent retriers' backoff sequences (use the
/// page index); `sleep` is injectable so unit tests record delays
/// instead of paying them.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut sleep: impl FnMut(u64),
    mut op: impl FnMut() -> Result<T, StorageError>,
) -> (Result<T, StorageError>, u32) {
    let attempts = policy.max_attempts.max(1);
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(v) => return (Ok(v), retries),
            Err(e) if e.is_transient() && retries + 1 < attempts => {
                retries += 1;
                crate::metrics::fault_obs().retries.inc();
                let delay = policy.backoff_us(salt, retries);
                if delay > 0 {
                    sleep(delay);
                }
            }
            Err(e) => {
                crate::metrics::fault_obs().exhausted.inc();
                return (Err(e), retries);
            }
        }
    }
}

/// [`with_retry`] with a real `std::thread::sleep` — the production
/// sleeper used by the paged engine's demand reads.
pub fn with_retry_sleeping<T>(
    policy: &RetryPolicy,
    salt: u64,
    op: impl FnMut() -> Result<T, StorageError>,
) -> (Result<T, StorageError>, u32) {
    with_retry(policy, salt, |us| std::thread::sleep(std::time::Duration::from_micros(us)), op)
}

// ---------------------------------------------------------------------
// Write-side injection: the WAL's chaos harness
// ---------------------------------------------------------------------

/// The error a [`FaultLog`] returns once its crash point is reached.
/// Deliberately permanent ([`StorageError::is_transient`] = false): a
/// dead process does not come back because the caller retried.
fn crash_error() -> StorageError {
    StorageError::Io {
        kind: std::io::ErrorKind::BrokenPipe,
        context: "injected crash: log writes dropped",
    }
}

/// A [`LogIo`](crate::wal::LogIo) wrapper that injects **write-side**
/// faults from a [`FaultPlan`] — the mirror image of [`FaultFile`] for
/// the WAL's append path.
///
/// Two fault families, both deterministic functions of the plan:
///
/// - **Crash at byte offset** ([`FaultPlan::write_crash_at`]): the
///   append that crosses the offset persists only its prefix — a torn
///   record for replay to find — and every subsequent write, sync or
///   replace fails with a permanent error, exactly like a process that
///   died mid-write. A whole-file [`replace`](crate::wal::LogIo::replace)
///   that would cross the offset persists *nothing* (the temp-file +
///   rename idiom is all-or-nothing), modelling a crash before the
///   rename.
/// - **Bit flips** ([`FaultPlan::write_flips`]): bytes at the given
///   appended-byte offsets are XORed before they reach the inner log —
///   silent corruption *inside* acknowledged history, which replay must
///   refuse rather than truncate.
///
/// Offsets count bytes appended through this wrapper since it was
/// constructed (reads and the open-time truncate do not advance them),
/// so a chaos test can aim a crash at any byte of the op stream it is
/// about to write.
pub struct FaultLog<L: crate::wal::LogIo> {
    inner: L,
    plan: FaultPlan,
    appended: u64,
    crashed: bool,
}

impl<L: crate::wal::LogIo> FaultLog<L> {
    /// Wrap `inner`, injecting write faults from `plan`.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        FaultLog { inner, plan, appended: 0, crashed: false }
    }

    /// Whether the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The plan driving this log.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Apply the plan's bit flips to the bytes about to occupy appended
    /// offsets `[start, start + bytes.len())`.
    fn flipped(&self, start: u64, bytes: &[u8]) -> Option<Vec<u8>> {
        let end = start + bytes.len() as u64;
        let mut owned: Option<Vec<u8>> = None;
        for &(off, mask) in &self.plan.write_flips {
            if off >= start && off < end {
                let buf = owned.get_or_insert_with(|| bytes.to_vec());
                buf[(off - start) as usize] ^= mask;
            }
        }
        owned
    }
}

impl<L: crate::wal::LogIo> crate::wal::LogIo for FaultLog<L> {
    fn read_all(&mut self, buf: &mut Vec<u8>) -> Result<(), StorageError> {
        self.inner.read_all(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        if self.crashed {
            return Err(crash_error());
        }
        let start = self.appended;
        let keep = match self.plan.write_crash_at {
            Some(at) if at <= start => {
                self.crashed = true;
                return Err(crash_error());
            }
            Some(at) if at < start + bytes.len() as u64 => (at - start) as usize,
            _ => bytes.len(),
        };
        let flipped = self.flipped(start, bytes);
        let to_write = &flipped.as_deref().unwrap_or(bytes)[..keep];
        self.inner.append(to_write)?;
        self.appended = start + keep as u64;
        if keep < bytes.len() {
            // The tail of this write is lost; flush the surviving torn
            // prefix so recovery has something real to truncate.
            let _ = self.inner.sync();
            self.crashed = true;
            return Err(crash_error());
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if self.crashed {
            return Err(crash_error());
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        if self.crashed {
            return Err(crash_error());
        }
        self.inner.truncate(len)
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), StorageError> {
        if self.crashed {
            return Err(crash_error());
        }
        let start = self.appended;
        let end = start + contents.len() as u64;
        if let Some(at) = self.plan.write_crash_at {
            if at <= start || at < end {
                // Crash anywhere inside the replace window: the rename
                // never happens, the old file stays fully intact.
                self.crashed = true;
                return Err(crash_error());
            }
        }
        let flipped = self.flipped(start, contents);
        self.inner.replace(flipped.as_deref().unwrap_or(contents))?;
        self.appended = end;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFileWriter;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("nspf-fault-{}-{tag}-{n}", std::process::id()))
    }

    struct TempFile(PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample(path: &Path, pages: usize) -> PageFile {
        let mut w = PageFileWriter::create(path, 64).expect("create");
        for i in 0..pages {
            w.append_page(format!("payload-{i}").as_bytes()).expect("append");
        }
        w.finish(b"meta").expect("finish");
        PageFile::open(path).expect("open")
    }

    #[test]
    fn transient_classification() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::WouldBlock,
            std::io::ErrorKind::TimedOut,
        ] {
            assert!(StorageError::Io { kind, context: "t" }.is_transient());
        }
        assert!(StorageError::FrameBudgetExhausted { frames: 1 }.is_transient());
        for permanent in [
            StorageError::Io { kind: std::io::ErrorKind::NotFound, context: "t" },
            StorageError::BadMagic,
            StorageError::PageChecksum { page: 0 },
            StorageError::HeaderChecksum,
            StorageError::Quarantined { pages: vec![1] },
            StorageError::BadPages { pages: vec![0, 2] },
            StorageError::Corrupt("x".into()),
        ] {
            assert!(!permanent.is_transient(), "{permanent:?}");
        }
    }

    #[test]
    fn zero_rate_plan_is_a_passthrough() {
        let t = TempFile(temp_path("passthrough"));
        let file = sample(&t.0, 3);
        let faulted = FaultFile::new(file, FaultPlan::new(42));
        let mut buf = Vec::new();
        for page in 0..3u64 {
            for _ in 0..5 {
                faulted.read_page_into(page, &mut buf).expect("no faults scheduled");
                assert_eq!(buf, format!("payload-{page}").as_bytes());
            }
        }
        assert_eq!(faulted.injected_faults(), 0);
    }

    #[test]
    fn bursts_are_bounded_and_replayable() {
        let t = TempFile(temp_path("burst"));
        let file = sample(&t.0, 4);
        let plan = FaultPlan::new(7).with_transient_permille(1000).with_max_consecutive(3);
        let faulted = FaultFile::new(file, plan.clone());
        let mut buf = Vec::new();
        // Under a 100% fault rate every window starts with a burst, but a
        // read never fails more than max_consecutive times in a row.
        let mut sequences: Vec<Vec<bool>> = Vec::new();
        for page in 0..4u64 {
            let mut seq = Vec::new();
            let mut consecutive = 0u32;
            for _ in 0..40 {
                match faulted.read_page_into(page, &mut buf) {
                    Ok(()) => {
                        consecutive = 0;
                        seq.push(true);
                    }
                    Err(e) => {
                        assert!(e.is_transient(), "only transient faults scheduled: {e:?}");
                        consecutive += 1;
                        assert!(consecutive <= 3, "burst exceeded max_consecutive");
                        seq.push(false);
                    }
                }
            }
            assert!(seq.iter().any(|ok| !ok), "100% windows must fault");
            assert!(seq.iter().any(|ok| *ok), "every window must also succeed");
            sequences.push(seq);
        }
        // Replay: an identical plan over an identical access pattern
        // yields the identical fault sequence.
        let faulted2 = FaultFile::new(PageFile::open(&t.0).expect("reopen"), plan);
        for (page, want) in sequences.iter().enumerate() {
            for &ok in want {
                assert_eq!(faulted2.read_page_into(page as u64, &mut buf).is_ok(), ok);
            }
        }
    }

    #[test]
    fn corrupt_pages_fail_permanently_and_spare_the_rest() {
        let t = TempFile(temp_path("corrupt"));
        let file = sample(&t.0, 4);
        let plan = FaultPlan::new(1).with_corrupt_pages(vec![2, 2, 0]);
        assert_eq!(plan.corrupt_pages, vec![0, 2], "sorted and deduplicated");
        assert!(!plan.is_transient_only());
        let faulted = FaultFile::new(file, plan);
        let mut buf = Vec::new();
        for _ in 0..3 {
            assert_eq!(
                faulted.read_page_into(0, &mut buf),
                Err(StorageError::PageChecksum { page: 0 }),
                "corrupt page fails every attempt"
            );
        }
        faulted.read_page_into(1, &mut buf).expect("healthy page");
        assert_eq!(buf, b"payload-1");
    }

    #[test]
    fn tear_page_breaks_exactly_one_page_through_real_checksums() {
        let t = TempFile(temp_path("tear"));
        drop(sample(&t.0, 3));
        tear_page(&t.0, 1).expect("tear");
        let file = PageFile::open(&t.0).expect("header and meta intact");
        let mut buf = Vec::new();
        file.read_page_into(0, &mut buf).expect("page 0 intact");
        assert_eq!(file.read_page_into(1, &mut buf), Err(StorageError::PageChecksum { page: 1 }));
        file.read_page_into(2, &mut buf).expect("page 2 intact");
        assert!(matches!(tear_page(&t.0, 99), Err(StorageError::PageOutOfRange { page: 99, .. })));
    }

    #[test]
    fn retry_recovers_transient_bursts_within_the_attempt_budget() {
        let fails = AtomicU32::new(3);
        let policy = RetryPolicy::default(); // 4 attempts > 3 failures
        let mut slept = Vec::new();
        let (res, retries) = with_retry(
            &policy,
            9,
            |us| slept.push(us),
            || {
                if fails
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| f.checked_sub(1))
                    .is_ok()
                {
                    Err(StorageError::Io { kind: std::io::ErrorKind::Interrupted, context: "t" })
                } else {
                    Ok(123u32)
                }
            },
        );
        assert_eq!(res, Ok(123));
        assert_eq!(retries, 3);
        assert_eq!(slept.len(), 3);
        for &us in &slept {
            assert!((policy.base_us..=policy.cap_us).contains(&us), "delay {us} out of bounds");
        }
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let policy = RetryPolicy { max_attempts: 3, base_us: 10, cap_us: 100 };
        let mut calls = 0u32;
        let (res, retries) = with_retry(
            &policy,
            0,
            |_| {},
            || {
                calls += 1;
                Err::<(), _>(StorageError::Io {
                    kind: std::io::ErrorKind::WouldBlock,
                    context: "t",
                })
            },
        );
        assert!(res.is_err());
        assert_eq!((calls, retries), (3, 2), "max_attempts bounds total calls");
    }

    #[test]
    fn permanent_errors_never_retry() {
        let mut calls = 0u32;
        let (res, retries) = with_retry(
            &RetryPolicy::default(),
            0,
            |_| panic!("no sleep"),
            || {
                calls += 1;
                Err::<(), _>(StorageError::PageChecksum { page: 7 })
            },
        );
        assert_eq!(res, Err(StorageError::PageChecksum { page: 7 }));
        assert_eq!((calls, retries), (1, 0));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy { max_attempts: 8, base_us: 100, cap_us: 2_000 };
        for salt in [0u64, 1, 99, u64::MAX] {
            for attempt in 1..8u32 {
                let a = policy.backoff_us(salt, attempt);
                let b = policy.backoff_us(salt, attempt);
                assert_eq!(a, b, "same inputs, same delay");
                assert!((100..=2_000).contains(&a), "salt {salt} attempt {attempt}: {a}");
            }
        }
        // Different salts decorrelate (at least one attempt differs).
        let diverge = (1..8u32).any(|k| policy.backoff_us(1, k) != policy.backoff_us(2, k));
        assert!(diverge, "salts must decorrelate the sequences");
        assert_eq!(RetryPolicy::none().backoff_us(5, 1), 0);
    }

    #[test]
    fn plan_dump_is_replayable_documentation() {
        let plan = FaultPlan::new(3)
            .with_transient_permille(50)
            .with_max_consecutive(2)
            .with_latency_us(10)
            .with_corrupt_pages(vec![4]);
        let d = plan.dump();
        for needle in ["seed: 3", "transient_permille: 50", "max_consecutive: 2", "[4]"] {
            assert!(d.contains(needle), "{d}");
        }
    }
}
