//! The pinning buffer pool: a bounded set of in-memory page frames over
//! a [`crate::PageFile`].
//!
//! This is the one buffer manager: the paged database serves through
//! it over a real file, and the cost-model walkthroughs run it over a
//! [`ModelledDevice`](crate::ModelledDevice). A [`FramePool`] owns a
//! fixed budget of frames; [`get`](FramePool::get) returns a [`FrameGuard`]
//! that **pins** the frame for as long as the guard lives, and
//! [`prefetch_with`](FramePool::prefetch_with) loads pages in the
//! background without pinning them.
//!
//! ## Frame bodies
//!
//! A frame holds a `B: Default`, by default the page's payload bytes,
//! which [`get`](FramePool::get) reads from a [`PageIo`]. The loader of
//! [`get_with`](FramePool::get_with) and
//! [`prefetch_with`](FramePool::prefetch_with) fills a fresh body with
//! whatever the caller makes of the page (the paged FLAT engine decodes
//! it once, there, and keeps no bytes). A failed load caches nothing.
//!
//! ## Pin-guard invariants
//!
//! - A pinned frame is **never** evicted: victim selection skips any
//!   frame with a nonzero pin count (and any frame mid-load).
//! - Dropping the guard unpins. Guards also hold their own reference to
//!   the frame's data (`Arc`), so even a hypothetical eviction bug could
//!   not invalidate the bytes a guard dereferences — the safety story
//!   needs no `unsafe`.
//! - If every frame is pinned and a new page is demanded, `get` fails
//!   with [`StorageError::FrameBudgetExhausted`] rather than deadlock:
//!   the budget bounds how many pages a caller may hold pinned at once.
//!   (FLAT's crawl pins exactly one page at a time, which is why even a
//!   one-frame budget executes queries correctly.)
//!
//! ## Eviction
//!
//! Two policies, chosen at construction ([`EvictionPolicy`]):
//!
//! - **CLOCK** (the default): frames get a reference bit on every hit;
//!   the clock hand sweeps, clearing bits, and evicts the first
//!   unreferenced, unpinned frame. One bit per frame, no list
//!   maintenance on the hit path — the classic second-chance
//!   approximation of LRU.
//! - **LRU**: exact least-recently-used by access tick, `O(frames)` per
//!   eviction. The reference policy in tests, and the policy of the
//!   cost-model walkthroughs.
//!
//! ## Concurrent loading
//!
//! A frame being filled from disk is marked *loading*; the lock is
//! **not** held across the read. A second thread demanding the same
//! page waits on a condvar instead of issuing a duplicate read — this
//! is also how a demand read overlaps with an in-flight prefetch of the
//! same page (the demand request waits only for the remainder of the
//! read, which is the stall-hiding effect the SCOUT benchmarks
//! measure).
//!
//! The guard says how its demand was served ([`Served`]): resident, a
//! wait on an in-flight load, or a read. That is the pool's own
//! classification, the one [`FrameStats`] counts, so a caller can keep
//! per-query counts that add up to the pool's however many threads share
//! it. The guard also says how long its demand was blocked
//! ([`FrameGuard::blocked`]); a resident page is served without reading
//! the clock.

use crate::fault::PageIo;
use crate::file::StorageError;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Replacement policy of a [`FramePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Second-chance CLOCK sweep (default).
    #[default]
    Clock,
    /// Exact least-recently-used.
    Lru,
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::Clock => write!(f, "clock"),
            EvictionPolicy::Lru => write!(f, "lru"),
        }
    }
}

impl std::str::FromStr for EvictionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "clock" => Ok(EvictionPolicy::Clock),
            "lru" => Ok(EvictionPolicy::Lru),
            other => Err(format!("unknown eviction policy `{other}` (expected clock|lru)")),
        }
    }
}

/// Cumulative counters of a [`FramePool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Demand requests served without a disk read (resident or
    /// already in flight).
    pub hits: u64,
    /// The hits that found their page in flight and waited for the
    /// rest of its load: a stall, though no read of the caller's.
    pub waits: u64,
    /// Demand requests that had to read from disk.
    pub misses: u64,
    /// Resident pages dropped to make room.
    pub evictions: u64,
    /// Pages loaded by [`FramePool::prefetch_with`] (not counted as hits or
    /// misses).
    pub prefetched: u64,
    /// Demand hits whose frame was originally loaded by a prefetch —
    /// the "useful prefetch" count (each prefetched frame is counted at
    /// most once).
    pub prefetch_hits: u64,
}

#[derive(Debug)]
struct Frame<B> {
    page: u64,
    /// The frame's body; `None` while loading.
    data: Option<Arc<B>>,
    pins: u32,
    /// CLOCK reference bit.
    referenced: bool,
    /// LRU access tick.
    used: u64,
    loading: bool,
    /// Set when the frame was filled by a prefetch and not yet claimed
    /// by a demand hit.
    from_prefetch: bool,
}

#[derive(Debug, Default)]
struct Inner<B> {
    /// page id → frame slot.
    map: HashMap<u64, usize>,
    frames: Vec<Frame<B>>,
    /// Slots never used or fully released.
    free: Vec<usize>,
    /// CLOCK hand.
    hand: usize,
    /// LRU tick source.
    tick: u64,
    /// Every counter but `evictions`, which the pool keeps outside the
    /// lock.
    stats: FrameStats,
    /// Pages that failed permanently: demands are refused with
    /// [`StorageError::Quarantined`] instead of re-reading known-bad
    /// bytes, and prefetch skips them. Populated explicitly by the
    /// engine above (the pool never self-quarantines — a failed load
    /// may be transient, and retrying it is the caller's decision).
    quarantined: HashSet<u64>,
    /// Callers blocked on the pool's condvar: an unpin wakes them only
    /// if there are some.
    waiters: usize,
}

/// How [`FramePool::get`] served a demand, as [`FrameStats`] counts it:
/// by what the call found when it first looked for the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The page was resident: a hit.
    Resident,
    /// Another load of the page (a prefetch, usually) was in flight, and
    /// the call waited for it: a hit and a wait. (Should that load fail,
    /// or its page be evicted before the call wakes, the call reads the
    /// page itself; it stays counted as a wait.)
    Waited,
    /// The page was neither resident nor in flight: a miss, which the
    /// call read itself.
    Read,
}

/// A pinning buffer pool with a fixed frame budget, whose frames hold a
/// `B` each: the page's bytes by default, or whatever its loader makes
/// of them (see the [module docs](self)).
///
/// See the [module docs](self) for the invariants. All methods take
/// `&self`; the pool is safe to share across threads (`Arc<FramePool>`).
#[derive(Debug)]
pub struct FramePool<B = Vec<u8>> {
    inner: Mutex<Inner<B>>,
    /// [`FrameStats::evictions`]: bumped under the lock, read without it.
    evictions: AtomicU64,
    loaded: Condvar,
    policy: EvictionPolicy,
    capacity: usize,
}

impl<B: Default> FramePool<B> {
    /// A pool of `frames` frames (clamped to at least 1) using `policy`.
    pub fn new(frames: usize, policy: EvictionPolicy) -> Self {
        FramePool {
            inner: Mutex::new(Inner::default()),
            evictions: AtomicU64::new(0),
            loaded: Condvar::new(),
            policy,
            capacity: frames.max(1),
        }
    }

    /// The frame budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> FrameStats {
        let inner = self.lock();
        FrameStats { evictions: self.evictions(), ..inner.stats }
    }

    /// [`FrameStats::evictions`] so far, without taking the pool's lock.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of resident (loaded) pages.
    pub fn resident(&self) -> usize {
        self.lock().map.len()
    }

    fn lock(&self) -> MutexGuard<'_, Inner<B>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until a load ends or a frame is unpinned, counted in
    /// `waiters`.
    fn wait<'a>(&self, mut inner: MutexGuard<'a, Inner<B>>) -> MutexGuard<'a, Inner<B>> {
        inner.waiters += 1;
        let mut inner = self.loaded.wait(inner).unwrap_or_else(|p| p.into_inner());
        inner.waiters -= 1;
        inner
    }

    /// Move `page` into the quarantine set: subsequent demands fail fast
    /// with [`StorageError::Quarantined`] and prefetch skips it. Any
    /// resident unpinned copy is dropped (a pinned copy stays valid for
    /// its guards and is refused to *new* demands).
    pub fn quarantine_page(&self, page: u64) {
        let mut inner = self.lock();
        if !inner.quarantined.insert(page) {
            return;
        }
        crate::metrics::frame_obs().quarantined.inc();
        if let Some(&slot) = inner.map.get(&page) {
            if inner.frames[slot].pins == 0 && !inner.frames[slot].loading {
                inner.map.remove(&page);
                inner.frames[slot].data = None;
                inner.free.push(slot);
            }
        }
    }

    /// Whether `page` is quarantined.
    pub fn is_quarantined(&self, page: u64) -> bool {
        self.lock().quarantined.contains(&page)
    }

    /// The quarantined pages, ascending. Empty in a healthy pool.
    pub fn quarantined(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.lock().quarantined.iter().copied().collect();
        pages.sort_unstable();
        pages
    }

    /// Pin `page`, filling a fresh frame body with `load` on a miss (the
    /// lock is not held while it runs). A body `load` fails on is
    /// dropped, and the error returned: such a page is never cached. The
    /// returned guard dereferences to the body and unpins on drop.
    pub fn get_with<'p, F>(&'p self, page: u64, load: F) -> Result<FrameGuard<'p, B>, StorageError>
    where
        F: FnOnce(&mut B) -> Result<(), StorageError>,
    {
        let mut inner = self.lock();
        if inner.quarantined.contains(&page) {
            return Err(StorageError::Quarantined { pages: vec![page] });
        }
        // Classify exactly once, on first observation, and report that
        // on the guard: a page awaited may be evicted before the call
        // wakes, and is then read by it, but was counted as a wait.
        let found = inner.map.get(&page).copied();
        let served = match found {
            Some(slot) if inner.frames[slot].loading => Served::Waited,
            Some(_) => Served::Resident,
            None => Served::Read,
        };
        let obs = crate::metrics::frame_obs();
        if served == Served::Read {
            inner.stats.misses += 1;
            obs.misses.inc();
        } else {
            inner.stats.hits += 1;
            obs.hits.inc();
        }
        if let (Served::Resident, Some(slot)) = (served, found) {
            return Ok(self.pin(&mut inner, slot, served, None));
        }
        if served == Served::Waited {
            inner.stats.waits += 1;
            obs.waits.inc();
        }
        // Only a demand that blocks reads the clock.
        let started = Instant::now();
        loop {
            if let Some(&slot) = inner.map.get(&page) {
                if inner.frames[slot].loading {
                    // Someone else (a prefetch worker, usually) is mid-read:
                    // wait for the remainder instead of duplicating the I/O.
                    inner = self.wait(inner);
                    continue;
                }
                return Ok(self.pin(&mut inner, slot, served, Some(started)));
            }
            match self.acquire_slot(&mut inner) {
                Slot::Free(slot) => {
                    // Reserve the slot as loading, read without the lock.
                    inner.frames[slot].page = page;
                    inner.frames[slot].loading = true;
                    inner.frames[slot].data = None;
                    inner.map.insert(page, slot);
                    drop(inner);

                    let mut buf = B::default();
                    let res = {
                        let _io = obs.read_latency.timer();
                        load(&mut buf)
                    };
                    let mut inner = self.lock();
                    match res {
                        Ok(()) => {
                            let fr = &mut inner.frames[slot];
                            fr.data = Some(Arc::new(buf));
                            fr.loading = false;
                            fr.from_prefetch = false;
                            let guard = self.pin(&mut inner, slot, served, Some(started));
                            drop(inner);
                            self.loaded.notify_all();
                            return Ok(guard);
                        }
                        Err(e) => {
                            inner.map.remove(&page);
                            let fr = &mut inner.frames[slot];
                            fr.loading = false;
                            fr.data = None;
                            inner.free.push(slot);
                            drop(inner);
                            self.loaded.notify_all();
                            return Err(e);
                        }
                    }
                }
                Slot::Wait => {
                    inner = self.wait(inner);
                }
                Slot::Exhausted => {
                    return Err(StorageError::FrameBudgetExhausted { frames: self.capacity });
                }
            }
        }
    }

    /// Load `page` into the pool with `load`, as [`get_with`](Self::get_with)
    /// does, without pinning it — best-effort, for background prefetch
    /// workers. Returns `Ok(true)` if a load ran and succeeded,
    /// `Ok(false)` if the page was already resident/in flight or no frame
    /// could be reclaimed without waiting (prefetching never waits and
    /// never evicts under pressure it cannot see). A failed load caches
    /// nothing.
    pub fn prefetch_with<F>(&self, page: u64, load: F) -> Result<bool, StorageError>
    where
        F: FnOnce(&mut B) -> Result<(), StorageError>,
    {
        let mut inner = self.lock();
        if inner.quarantined.contains(&page) || inner.map.contains_key(&page) {
            return Ok(false);
        }
        let slot = match self.acquire_slot(&mut inner) {
            Slot::Free(slot) => slot,
            Slot::Wait | Slot::Exhausted => return Ok(false),
        };
        inner.frames[slot].page = page;
        inner.frames[slot].loading = true;
        inner.frames[slot].data = None;
        inner.map.insert(page, slot);
        drop(inner);

        let mut buf = B::default();
        let res = load(&mut buf);
        let mut inner = self.lock();
        match res {
            Ok(()) => {
                inner.stats.prefetched += 1;
                let fobs = crate::metrics::frame_obs();
                fobs.prefetched.inc();
                fobs.resident.set(inner.map.len() as i64);
                inner.tick += 1;
                let tick = inner.tick;
                let fr = &mut inner.frames[slot];
                fr.data = Some(Arc::new(buf));
                fr.loading = false;
                fr.from_prefetch = true;
                fr.referenced = true;
                fr.used = tick;
                drop(inner);
                self.loaded.notify_all();
                Ok(true)
            }
            Err(e) => {
                inner.map.remove(&page);
                let fr = &mut inner.frames[slot];
                fr.loading = false;
                fr.data = None;
                inner.free.push(slot);
                drop(inner);
                self.loaded.notify_all();
                Err(e)
            }
        }
    }

    /// Pin the loaded frame in `slot` for a demand served as `served`,
    /// blocked since `blocked` unless the page was resident.
    fn pin<'p>(
        &'p self,
        inner: &mut Inner<B>,
        slot: usize,
        served: Served,
        blocked: Option<Instant>,
    ) -> FrameGuard<'p, B> {
        let obs = crate::metrics::frame_obs();
        obs.resident.set(inner.map.len() as i64);
        inner.tick += 1;
        let tick = inner.tick;
        let fr = &mut inner.frames[slot];
        fr.pins += 1;
        fr.referenced = true;
        fr.used = tick;
        let prefetch_hit = std::mem::take(&mut fr.from_prefetch);
        let data = Arc::clone(fr.data.as_ref().expect("pinning a loaded frame"));
        if prefetch_hit {
            inner.stats.prefetch_hits += 1;
            obs.prefetch_hits.inc();
        }
        let blocked = blocked.map_or(Duration::ZERO, |t| t.elapsed());
        FrameGuard { pool: self, slot, data, served, prefetch_hit, blocked }
    }

    /// Find a frame to (re)use: a never-used slot, a freed slot, or an
    /// evicted victim.
    fn acquire_slot(&self, inner: &mut Inner<B>) -> Slot {
        if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                page: 0,
                data: None,
                pins: 0,
                referenced: false,
                used: 0,
                loading: false,
                from_prefetch: false,
            });
            return Slot::Free(inner.frames.len() - 1);
        }
        if let Some(slot) = inner.free.pop() {
            return Slot::Free(slot);
        }
        let victim = match self.policy {
            EvictionPolicy::Clock => Self::clock_victim(inner),
            EvictionPolicy::Lru => Self::lru_victim(inner),
        };
        match victim {
            Some(slot) => {
                let page = inner.frames[slot].page;
                inner.map.remove(&page);
                inner.frames[slot].data = None;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                crate::metrics::frame_obs().evictions.inc();
                Slot::Free(slot)
            }
            None => {
                // Nothing evictable. If a load is in flight it will finish
                // and become evictable; otherwise every frame is pinned.
                if inner.frames.iter().any(|f| f.loading) {
                    Slot::Wait
                } else {
                    Slot::Exhausted
                }
            }
        }
    }

    fn clock_victim(inner: &mut Inner<B>) -> Option<usize> {
        let n = inner.frames.len();
        // Two full sweeps: the first clears reference bits, the second
        // must then find any evictable frame.
        for _ in 0..2 * n {
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let fr = &mut inner.frames[slot];
            if fr.pins > 0 || fr.loading || fr.data.is_none() {
                continue;
            }
            if fr.referenced {
                fr.referenced = false;
            } else {
                return Some(slot);
            }
        }
        None
    }

    fn lru_victim(inner: &mut Inner<B>) -> Option<usize> {
        inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pins == 0 && !f.loading && f.data.is_some())
            .min_by_key(|(_, f)| f.used)
            .map(|(slot, _)| slot)
    }
}

impl FramePool {
    /// Pin `page`, reading its payload from `file` on a miss. The
    /// returned guard dereferences to the payload bytes and unpins on
    /// drop.
    ///
    /// `file` is any [`PageIo`] — the production [`crate::PageFile`] or a
    /// fault-injecting wrapper.
    pub fn get<'p, F>(&'p self, page: u64, file: &F) -> Result<FrameGuard<'p>, StorageError>
    where
        F: PageIo + ?Sized,
    {
        self.get_with(page, |buf| file.read_page_into(page, buf))
    }
}

enum Slot {
    Free(usize),
    Wait,
    Exhausted,
}

/// A pinned page: dereferences to the frame's body, unpins on drop.
///
/// The guard owns its own `Arc` to the body, so the data it exposes
/// stays valid for the guard's whole lifetime regardless of what the
/// pool does (the pin additionally guarantees the pool keeps the page
/// *resident*, so re-`get`ting it is free).
#[derive(Debug)]
pub struct FrameGuard<'p, B = Vec<u8>> {
    pool: &'p FramePool<B>,
    slot: usize,
    data: Arc<B>,
    served: Served,
    prefetch_hit: bool,
    blocked: Duration,
}

impl<B> FrameGuard<'_, B> {
    /// How the pool served the demand that pinned this frame.
    pub fn served(&self) -> Served {
        self.served
    }

    /// Whether this demand was the first to use a frame a prefetch
    /// loaded: one of [`FrameStats::prefetch_hits`].
    pub fn prefetch_hit(&self) -> bool {
        self.prefetch_hit
    }

    /// How long the demand was blocked: its own load, or its wait for
    /// another's. Zero when the page was resident, which is served
    /// without reading the clock.
    pub fn blocked(&self) -> Duration {
        self.blocked
    }
}

impl<B> Deref for FrameGuard<'_, B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.data
    }
}

impl<B> Drop for FrameGuard<'_, B> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().unwrap_or_else(|p| p.into_inner());
        let fr = &mut inner.frames[self.slot];
        fr.pins = fr.pins.saturating_sub(1);
        let waiting = inner.waiters > 0;
        drop(inner);
        // A waiter blocked on Slot::Wait may now find an evictable frame.
        // (Waking no one still costs a system call.)
        if waiting {
            self.pool.loaded.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_ok(bytes: &'static [u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<(), StorageError> {
        move |buf| {
            buf.clear();
            buf.extend_from_slice(bytes);
            Ok(())
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = FramePool::new(4, EvictionPolicy::Clock);
        {
            let g = pool.get_with(7, load_ok(b"seven")).expect("load");
            assert_eq!(&*g, b"seven");
        }
        let g = pool.get_with(7, load_ok(b"must not reload")).expect("hit");
        assert_eq!(&*g, b"seven", "hit serves the cached bytes");
        drop(g);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
    }

    #[test]
    fn eviction_never_reclaims_a_pinned_frame() {
        for policy in [EvictionPolicy::Clock, EvictionPolicy::Lru] {
            let pool = FramePool::new(2, policy);
            let pinned = pool.get_with(0, load_ok(b"pinned")).expect("load");
            // Cycle many pages through the remaining frame.
            for page in 1..20u64 {
                let g = pool.get_with(page, load_ok(b"transient")).expect("load");
                drop(g);
            }
            // The pinned page never left the pool: re-get is a hit.
            assert_eq!(&*pinned, b"pinned");
            let before = pool.stats().misses;
            let again = pool.get_with(0, load_ok(b"reload means eviction happened")).expect("hit");
            assert_eq!(&*again, b"pinned", "policy {policy}");
            assert_eq!(pool.stats().misses, before, "no reload for the pinned page");
            assert_eq!(pool.stats().evictions, 18, "the transient pages evicted each other");
        }
    }

    #[test]
    fn all_pinned_is_a_typed_error_not_a_deadlock() {
        let pool = FramePool::new(1, EvictionPolicy::Clock);
        let _g = pool.get_with(0, load_ok(b"only frame")).expect("load");
        let err = pool.get_with(1, load_ok(b"no room")).expect_err("budget exhausted");
        assert_eq!(err, StorageError::FrameBudgetExhausted { frames: 1 });
        // After unpinning, the demand succeeds.
        drop(_g);
        assert!(pool.get_with(1, load_ok(b"fits now")).is_ok());
    }

    #[test]
    fn budget_of_one_frame_still_serves_sequential_demands() {
        let pool = FramePool::new(1, EvictionPolicy::Lru);
        for page in 0..10u64 {
            let g = pool.get_with(page, load_ok(b"x")).expect("load");
            drop(g);
        }
        let s = pool.stats();
        assert_eq!(s.misses, 10);
        assert_eq!(s.evictions, 9);
    }

    #[test]
    fn failed_load_propagates_and_frees_the_slot() {
        let pool = FramePool::new(2, EvictionPolicy::Clock);
        let err = pool
            .get_with(5, |_| Err(StorageError::PageChecksum { page: 5 }))
            .expect_err("load fails");
        assert_eq!(err, StorageError::PageChecksum { page: 5 });
        assert_eq!(pool.resident(), 0);
        // The slot is reusable and a later load of the same page retries.
        let g = pool.get_with(5, load_ok(b"second try")).expect("retry");
        assert_eq!(&*g, b"second try");
    }

    #[test]
    fn prefetch_counts_separately_and_turns_misses_into_hits() {
        let pool = FramePool::new(4, EvictionPolicy::Clock);
        assert!(pool.prefetch_with(3, load_ok(b"pre")).expect("prefetch"));
        assert!(!pool.prefetch_with(3, load_ok(b"dup")).expect("resident skip"));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetched), (0, 0, 1));
        let g = pool.get_with(3, load_ok(b"never runs")).expect("hit");
        assert_eq!(&*g, b"pre");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetch_hits), (1, 0, 1));
        drop(g);
        // A second demand hit is no longer a *prefetch* hit.
        let _ = pool.get_with(3, load_ok(b"never")).expect("hit");
        assert_eq!(pool.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_never_errors_on_a_full_pinned_pool() {
        let pool = FramePool::new(1, EvictionPolicy::Clock);
        let _g = pool.get_with(0, load_ok(b"pinned")).expect("load");
        assert!(!pool.prefetch_with(1, load_ok(b"skip")).expect("best effort"));
        assert_eq!(pool.stats().prefetched, 0);
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let pool = FramePool::new(2, EvictionPolicy::Clock);
        drop(pool.get_with(0, load_ok(b"a")).expect("load"));
        drop(pool.get_with(1, load_ok(b"b")).expect("load"));
        // Re-reference page 0, then demand page 2: the sweep clears both
        // bits and evicts page... the first unreferenced slot after the
        // hand. Re-referencing 0 means 1 is evicted first under LRU; the
        // CLOCK result depends on the hand, so just assert the pinned
        // invariant indirectly: page 0 stays when it is the only
        // referenced one at sweep start.
        drop(pool.get_with(0, load_ok(b"a")).expect("hit"));
        drop(pool.get_with(2, load_ok(b"c")).expect("load"));
        // Pool holds 2 of {0, 1, 2}; exactly one eviction happened.
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let pool = FramePool::new(2, EvictionPolicy::Lru);
        drop(pool.get_with(0, load_ok(b"a")).expect("load"));
        drop(pool.get_with(1, load_ok(b"b")).expect("load"));
        drop(pool.get_with(0, load_ok(b"a")).expect("hit")); // 1 is now LRU
        drop(pool.get_with(2, load_ok(b"c")).expect("load")); // evicts 1
        let before = pool.stats().misses;
        drop(pool.get_with(0, load_ok(b"a")).expect("still a hit"));
        assert_eq!(pool.stats().misses, before, "page 0 survived the eviction");
    }

    #[test]
    fn concurrent_same_page_demands_read_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool: Arc<FramePool> = Arc::new(FramePool::new(4, EvictionPolicy::Clock));
        let reads = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                let reads = Arc::clone(&reads);
                scope.spawn(move || {
                    let g = pool
                        .get_with(9, |buf| {
                            reads.fetch_add(1, Ordering::Relaxed);
                            // Make the load window wide enough to overlap.
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            buf.extend_from_slice(b"once");
                            Ok(())
                        })
                        .expect("load");
                    assert_eq!(&*g, b"once");
                });
            }
        });
        assert_eq!(reads.load(Ordering::Relaxed), 1, "one read served all eight threads");
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn quarantined_pages_fail_fast_and_are_never_prefetched() {
        let pool = FramePool::new(4, EvictionPolicy::Clock);
        drop(pool.get_with(2, load_ok(b"resident")).expect("load"));
        pool.quarantine_page(2);
        pool.quarantine_page(2); // idempotent
        assert!(pool.is_quarantined(2));
        assert_eq!(pool.quarantined(), vec![2]);
        assert_eq!(pool.resident(), 0, "the resident copy was dropped");
        let err = pool
            .get_with(2, |_| panic!("quarantine must refuse before loading"))
            .expect_err("quarantined");
        assert_eq!(err, StorageError::Quarantined { pages: vec![2] });
        assert!(
            !pool.prefetch_with(2, |_| panic!("prefetch must skip")).expect("best effort"),
            "prefetch silently skips quarantined pages"
        );
        // Healthy pages are unaffected.
        assert_eq!(&*pool.get_with(3, load_ok(b"fine")).expect("load"), b"fine");
    }

    #[test]
    fn quarantine_keeps_pinned_frames_valid_for_existing_guards() {
        let pool = FramePool::new(2, EvictionPolicy::Clock);
        let g = pool.get_with(0, load_ok(b"pinned")).expect("load");
        pool.quarantine_page(0);
        assert_eq!(&*g, b"pinned", "existing guards keep their bytes");
        // New demands are refused even while the old guard lives.
        assert_eq!(
            pool.get_with(0, load_ok(b"no")).expect_err("refused"),
            StorageError::Quarantined { pages: vec![0] }
        );
        drop(g);
    }

    #[test]
    fn prefetch_yields_silently_while_every_frame_is_pinned() {
        // Satellite contract: background prefetch against a fully pinned
        // pool must neither error the foreground query nor deadlock — it
        // yields, and the stats prove nothing was force-loaded.
        let pool = Arc::new(FramePool::new(2, EvictionPolicy::Clock));
        let g0 = pool.get_with(0, load_ok(b"zero")).expect("load");
        let g1 = pool.get_with(1, load_ok(b"one")).expect("load");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for page in 2..12u64 {
                        let issued = pool
                            .prefetch_with(page ^ (t << 32), load_ok(b"never loads"))
                            .expect("prefetch never errors under pinning pressure");
                        assert!(!issued, "no frame was reclaimable");
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.prefetched, 0, "nothing was loaded");
        assert_eq!(s.evictions, 0, "nothing was evicted");
        // The foreground guards were untouched throughout.
        assert_eq!((&g0[..], &g1[..]), (&b"zero"[..], &b"one"[..]));
        drop((g0, g1));
        // Once pins release, prefetch works again.
        assert!(pool.prefetch_with(2, load_ok(b"pre")).expect("prefetch"));
        assert_eq!(pool.stats().prefetched, 1);
    }

    #[test]
    fn each_guard_says_how_its_demand_was_served() {
        let pool: FramePool = FramePool::new(4, EvictionPolicy::Clock);
        std::thread::scope(|scope| {
            // A prefetch whose read lasts until a demand waits for it.
            scope.spawn(|| {
                pool.prefetch_with(5, |buf| {
                    while pool.stats().waits == 0 {
                        std::thread::yield_now();
                    }
                    buf.extend_from_slice(b"late");
                    Ok(())
                })
            });
            while pool.resident() == 0 {
                std::thread::yield_now();
            }
            let g = pool.get_with(5, |_| panic!("in flight: not read again")).expect("wait");
            assert_eq!(
                (&g[..], g.served(), g.prefetch_hit()),
                (&b"late"[..], Served::Waited, true)
            );
        });
        let g = pool.get_with(5, load_ok(b"never runs")).expect("hit");
        assert_eq!((g.served(), g.prefetch_hit()), (Served::Resident, false));
        let g = pool.get_with(6, load_ok(b"six")).expect("miss");
        assert_eq!((g.served(), g.prefetch_hit()), (Served::Read, false));
        let s = pool.stats();
        assert_eq!((s.hits, s.waits, s.misses, s.prefetch_hits), (2, 1, 1, 1));
    }

    #[test]
    fn a_prefetch_evicted_unread_is_never_a_prefetch_hit() {
        let pool = FramePool::new(1, EvictionPolicy::Lru);
        assert!(pool.prefetch_with(3, load_ok(b"pre")).expect("prefetch"));
        drop(pool.get_with(4, load_ok(b"evicts 3")).expect("load"));
        assert_eq!(pool.stats().evictions, 1);
        // Page 3 comes back by demand: a miss, then a plain hit.
        drop(pool.get_with(3, load_ok(b"demand")).expect("reload"));
        drop(pool.get_with(3, load_ok(b"never runs")).expect("hit"));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.prefetched, s.prefetch_hits), (1, 2, 1, 0));
    }
}
