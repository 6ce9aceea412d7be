//! Property tests: the frame pool's LRU policy behaves exactly like a
//! reference LRU, and the cost model prefers sequential scans.

use neurospatial_storage::{CostModel, EvictionPolicy, FramePool, StorageError};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Straightforward reference implementation: a deque of page ids, most
/// recent at the front.
struct RefLru {
    cap: usize,
    q: VecDeque<u64>,
}

impl RefLru {
    fn new(cap: usize) -> Self {
        RefLru { cap, q: VecDeque::new() }
    }
    /// Returns true on hit.
    fn access(&mut self, p: u64) -> bool {
        if let Some(pos) = self.q.iter().position(|&x| x == p) {
            self.q.remove(pos);
            self.q.push_front(p);
            true
        } else {
            if self.q.len() == self.cap {
                self.q.pop_back();
            }
            self.q.push_front(p);
            false
        }
    }
}

fn load(buf: &mut Vec<u8>) -> Result<(), StorageError> {
    buf.push(0);
    Ok(())
}

proptest! {
    #[test]
    fn pool_matches_reference_lru(
        cap in 1usize..16,
        accesses in prop::collection::vec(0u64..32, 0..400),
    ) {
        let pool = FramePool::new(cap, EvictionPolicy::Lru);
        let mut reference = RefLru::new(cap);
        let mut reads = 0u64;
        for &a in &accesses {
            let expect_hit = reference.access(a);
            let before = pool.stats();
            drop(pool.get_with(a, |buf| { reads += 1; load(buf) }).unwrap());
            let after = pool.stats();
            prop_assert_eq!(after.hits - before.hits, u64::from(expect_hit), "page {}", a);
            prop_assert_eq!(after.misses - before.misses, u64::from(!expect_hit), "page {}", a);
            prop_assert_eq!(pool.resident(), reference.q.len());
        }
        // Reads equal misses exactly.
        prop_assert_eq!(reads, pool.stats().misses);
    }

    #[test]
    fn interleaved_prefetch_preserves_capacity(
        cap in 1usize..12,
        ops in prop::collection::vec((any::<bool>(), 0u64..24), 0..300),
    ) {
        let pool = FramePool::new(cap, EvictionPolicy::Lru);
        let mut reads = 0u64;
        for &(is_prefetch, page) in &ops {
            if is_prefetch {
                pool.prefetch_with(page, |buf| { reads += 1; load(buf) }).unwrap();
            } else {
                drop(pool.get_with(page, |buf| { reads += 1; load(buf) }).unwrap());
            }
            prop_assert!(pool.resident() <= cap);
        }
        // Every miss and every effective prefetch read exactly once.
        let s = pool.stats();
        prop_assert_eq!(reads, s.misses + s.prefetched);
        prop_assert!(s.prefetch_hits <= s.prefetched);
    }

    #[test]
    fn sequential_scan_costs_less_than_random(
        start in 0u64..1000,
        len in 2u64..64,
    ) {
        let cost = CostModel::default();
        let scan = |stride: u64| {
            let (mut prev, mut ns) = (None, 0u64);
            for i in 0..len {
                let page = start + i * stride;
                ns += cost.read_ns(prev, page);
                prev = Some(page);
            }
            ns
        };
        // Gaps make every read random.
        prop_assert!(scan(1) < scan(2));
        prop_assert_eq!(scan(1), 8_000_000 + (len - 1) * 100_000);
        prop_assert_eq!(scan(2), len * 8_000_000);
    }
}
