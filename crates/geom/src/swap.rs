//! Atomic snapshot swap — the epoch/arc-swap primitive on `std::sync`.
//!
//! Live ingest keeps queries running against a *frozen* snapshot while
//! a background task builds its replacement. The handoff needs exactly
//! two properties: readers always see a complete snapshot (never a
//! half-installed one), and installing a new snapshot never blocks on
//! readers that are still traversing the old one. [`Swap`] provides
//! both with nothing but `Mutex<Arc<T>>` plus an epoch counter: readers
//! clone the `Arc` under a lock held for nanoseconds and then traverse
//! lock-free; writers store a new `Arc` and bump the epoch.
//!
//! Who keeps a snapshot alive: the swap holds one strong reference, to
//! the *current* snapshot only, and every [`load`](Swap::load) hands its
//! caller another. [`store`](Swap::store) gives the swap's reference to
//! the replaced snapshot back to the caller, so a replaced snapshot
//! lives exactly as long as the readers that loaded it (and the caller
//! of `store`, until it drops what it was handed) and is freed by
//! whichever of them lets go last. The swap keeps no history.
//!
//! This is the `std`-only analogue of the `arc-swap` crate — a mutex
//! instead of hazard pointers, which is the right trade here: loads are
//! off the per-object hot path (one per *query*, not one per segment),
//! and the workspace stays dependency-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically swappable shared snapshot with an epoch counter.
///
/// ```
/// use std::sync::Arc;
/// use neurospatial_geom::Swap;
///
/// let s = Swap::new(Arc::new(vec![1, 2, 3]));
/// let reader = s.load();          // cheap Arc clone
/// s.store(Arc::new(vec![4]));     // readers of the old Arc unaffected
/// assert_eq!(*reader, vec![1, 2, 3]);
/// assert_eq!(*s.load(), vec![4]);
/// assert_eq!(s.epoch(), 1);
/// ```
#[derive(Debug)]
pub struct Swap<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> Swap<T> {
    /// A swap holding `value` at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        Swap { current: Mutex::new(value), epoch: AtomicU64::new(0) }
    }

    /// The current snapshot (an `Arc` clone; the lock is held only for
    /// the clone). The returned `Arc` stays valid across any number of
    /// subsequent [`store`](Self::store)s.
    pub fn load(&self) -> Arc<T> {
        self.current.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Install `value` as the current snapshot, bump the epoch, and
    /// return the previous snapshot. Readers holding the old `Arc`
    /// finish undisturbed; new loads see `value`. The returned `Arc` is
    /// the reference the swap held: dropping it frees the old snapshot
    /// unless a reader still holds it, so a caller that stores under a
    /// lock of its own should drop it after releasing that lock.
    pub fn store(&self, value: Arc<T>) -> Arc<T> {
        let mut cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        let old = std::mem::replace(&mut *cur, value);
        self.epoch.fetch_add(1, Ordering::Release);
        old
    }

    /// Number of [`store`](Self::store)s so far — the generation
    /// counter surfaced in ingest health reports.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_epoch() {
        let s = Swap::new(Arc::new(10u32));
        assert_eq!(s.epoch(), 0);
        assert_eq!(*s.load(), 10);
        let old = s.store(Arc::new(20));
        assert_eq!(*old, 10);
        assert_eq!(*s.load(), 20);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn store_hands_back_the_only_other_reference() {
        let s = Swap::new(Arc::new(vec![1, 2, 3]));
        let first = Arc::downgrade(&s.load());
        let reader = s.load();
        let replaced = s.store(Arc::new(vec![4]));
        assert!(Arc::ptr_eq(&replaced, &reader), "store returns the previous snapshot");
        // The swap kept nothing: the caller of `store` and the reader
        // are the only holders, and the last of them frees it.
        assert_eq!(Arc::strong_count(&replaced), 2);
        drop(replaced);
        assert!(first.upgrade().is_some(), "the reader still holds it");
        drop(reader);
        assert!(first.upgrade().is_none(), "freed with its last holder");
        // With no reader, dropping what `store` returns frees at once.
        let second = Arc::downgrade(&s.load());
        drop(s.store(Arc::new(vec![5])));
        assert!(second.upgrade().is_none());
    }

    #[test]
    fn readers_keep_their_snapshot_across_swaps() {
        let s = Swap::new(Arc::new(vec![1, 2, 3]));
        let held = s.load();
        for gen in 0..5u64 {
            s.store(Arc::new(vec![gen as i32]));
        }
        assert_eq!(*held, vec![1, 2, 3], "old snapshot survives while held");
        assert_eq!(s.epoch(), 5);
    }

    #[test]
    fn concurrent_loads_always_see_a_complete_snapshot() {
        let s = Arc::new(Swap::new(Arc::new((0u64, 0u64))));
        std::thread::scope(|scope| {
            let writer = {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 1..=1000u64 {
                        // Both halves always equal: a torn install would
                        // expose a mismatched pair.
                        s.store(Arc::new((i, i)));
                    }
                })
            };
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        let snap = s.load();
                        assert_eq!(snap.0, snap.1, "snapshot must be atomic");
                    }
                });
            }
            writer.join().expect("writer");
        });
    }
}
