//! Join execution statistics — the demo's runtime charts: "time spent on
//! the join, memory footprint as well as the number of pairwise
//! comparisons" (§4.2) — plus the shared per-phase [`PhaseTimer`] and the
//! process-wide allocation probe behind the `allocations` column.

use std::sync::OnceLock;
use std::time::Instant;

/// Statistics of one join execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JoinStats {
    /// AABB filter tests performed.
    pub filter_comparisons: u64,
    /// Exact geometry tests performed (survivors of the filter).
    pub refine_comparisons: u64,
    /// Qualifying pairs.
    pub results: u64,
    /// Time building auxiliary structures (trees, grids, sorted copies).
    pub build_ms: f64,
    /// Time assigning/partitioning objects into buckets or cells (0 for
    /// algorithms without a distinct assignment phase).
    pub assign_ms: f64,
    /// Time in the per-bucket/leaf join phase proper.
    pub join_ms: f64,
    /// Time in the probe/sweep/traversal phase (assign + join for
    /// bucket-based algorithms; kept alongside the finer breakdown so
    /// existing consumers stay meaningful).
    pub probe_ms: f64,
    /// Total wall time.
    pub total_ms: f64,
    /// Estimated peak *auxiliary* memory (bytes): everything allocated on
    /// top of the two input slices and the output vector, which all
    /// algorithms share. Replication-based algorithms (PBSM) pay here.
    pub aux_memory_bytes: u64,
    /// Objects discarded by TOUCH's empty-space filtering (0 for others).
    pub filtered_out: u64,
    /// Work units the join phase was cut into (TOUCH: runs of bucket
    /// slots pulled by the workers; 0 for algorithms without a
    /// task-parallel join phase).
    pub join_tasks: u64,
    /// The busiest join worker's time in tasks over the mean of all join
    /// workers: 1.0 is a perfect split (and what a sequential join
    /// reports), `threads` means one worker did everything. 0 for
    /// algorithms without a task-parallel join phase.
    pub join_imbalance: f64,
    /// Heap allocations performed during the join, as reported by the
    /// registered [`allocation probe`](register_allocation_probe);
    /// 0 when no probe is installed.
    pub allocations: u64,
}

impl JoinStats {
    /// All pairwise comparisons (filter + refine) — the demo's headline
    /// comparison counter.
    pub fn total_comparisons(&self) -> u64 {
        self.filter_comparisons + self.refine_comparisons
    }
}

/// Process-wide allocation counter hook. A binary owning a counting
/// global allocator (the `experiments` harness) registers its reader
/// here once; every join algorithm then snapshots it around execution
/// and reports the delta in [`JoinStats::allocations`]. Without a
/// registered probe the snapshots read 0 and the delta stays 0.
static ALLOCATION_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Register the process's allocation counter. Idempotent: the first
/// registration wins (later calls are ignored, matching `OnceLock`).
pub fn register_allocation_probe(probe: fn() -> u64) {
    let _ = ALLOCATION_PROBE.set(probe);
}

/// Current allocation count (0 without a registered probe).
pub fn allocation_count() -> u64 {
    ALLOCATION_PROBE.get().map_or(0, |probe| probe())
}

/// Wall-clock phase timer shared by every join algorithm: one `start`,
/// one `lap` per phase boundary, one `total_ms` at the end — instead of
/// each algorithm juggling its own ad-hoc `Instant` pairs. Also
/// snapshots the allocation probe so `finish` can fill
/// [`JoinStats::allocations`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer {
    t0: Instant,
    last: Instant,
    allocs0: u64,
}

impl PhaseTimer {
    /// Start timing (and snapshot the allocation counter).
    pub fn start() -> Self {
        let now = Instant::now();
        PhaseTimer { t0: now, last: now, allocs0: allocation_count() }
    }

    /// Milliseconds since the previous `lap` (or `start`), advancing the
    /// phase boundary.
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let ms = now.duration_since(self.last).as_secs_f64() * 1e3;
        self.last = now;
        ms
    }

    /// Milliseconds since `start` (does not advance the boundary).
    pub fn total_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    /// Write the totals into `stats`: `total_ms` and the allocation delta
    /// since `start`.
    pub fn finish(&self, stats: &mut JoinStats) {
        stats.total_ms = self.total_ms();
        stats.allocations = allocation_count().saturating_sub(self.allocs0);
    }
}

/// Result of a join: qualifying index pairs plus statistics.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// Pairs `(index into A, index into B)`.
    pub pairs: Vec<(u32, u32)>,
    pub stats: JoinStats,
}

impl JoinResult {
    /// Pairs sorted lexicographically — for comparing algorithms in tests.
    pub fn sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut p = self.pairs.clone();
        p.sort_unstable();
        p
    }

    /// True if no pair appears twice (duplicate-freedom invariant).
    pub fn is_duplicate_free(&self) -> bool {
        let mut p = self.pairs.clone();
        p.sort_unstable();
        let n = p.len();
        p.dedup();
        p.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = JoinStats { filter_comparisons: 10, refine_comparisons: 4, ..Default::default() };
        assert_eq!(s.total_comparisons(), 14);
    }

    #[test]
    fn phase_timer_laps_partition_the_total() {
        let mut t = PhaseTimer::start();
        let a = t.lap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.lap();
        let mut s = JoinStats::default();
        t.finish(&mut s);
        assert!(a >= 0.0 && b >= 2.0 * 0.9, "lap b measured the sleep: {b}");
        assert!(s.total_ms >= a + b - 1e-6);
        // No probe registered in unit tests: allocation delta reads 0.
        assert_eq!(s.allocations, 0);
    }

    #[test]
    fn duplicate_detection() {
        let ok = JoinResult { pairs: vec![(0, 1), (1, 0), (0, 2)], ..Default::default() };
        assert!(ok.is_duplicate_free());
        let bad = JoinResult { pairs: vec![(0, 1), (0, 1)], ..Default::default() };
        assert!(!bad.is_duplicate_free());
        assert_eq!(ok.sorted_pairs(), vec![(0, 1), (0, 2), (1, 0)]);
    }
}
