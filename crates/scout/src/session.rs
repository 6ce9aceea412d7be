//! The walkthrough's plain data: what a session is configured with, one
//! step's trace and the demo's Figure 6 statistics.
//!
//! Timing model: each step of the walkthrough issues a range query whose
//! *demand misses* stall the user (charged with the disk cost model).
//! Between steps the user inspects the visualisation for
//! [`SessionConfig::think_time_ms`]; the prefetcher may use exactly that
//! much background disk time — a prefetcher that requests more than fits
//! the budget gets cut off, so over-eager policies are penalised
//! naturally rather than by fiat. The engine is
//! [`OocCursor`](crate::OocCursor) over
//! [`OocFlatIndex::view`](crate::OocFlatIndex::view).

use neurospatial_storage::CostModel;

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Disk cost model.
    pub cost: CostModel,
    /// User think time between steps (ms) — the prefetch budget.
    pub think_time_ms: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { buffer_pages: 256, cost: CostModel::default(), think_time_ms: 150.0 }
    }
}

/// Per-step record.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryTrace {
    /// Pages the query demanded.
    pub pages_demanded: u64,
    /// Demand accesses satisfied by the pool.
    pub demand_hits: u64,
    /// Demand accesses that had to stall on the disk.
    pub demand_misses: u64,
    /// Stall time of this step (ms).
    pub stall_ms: f64,
    /// Pages prefetched for the next step. On a device that keeps a
    /// clock (a [`view`](crate::OocFlatIndex::view)), the pages the
    /// cursor read after this step, in its think time. With prefetch
    /// workers, a worker makes each step's plan after the step returns,
    /// so this is the number of pages the *previous* step's plan queued;
    /// it is 0 when that plan was still queued as this step was answered
    /// and the cursor made it itself, dropping its pages. On a file
    /// without workers, 0.
    pub prefetched: u64,
    /// Result size of the step's query.
    pub results: u64,
}

/// Aggregate walkthrough statistics — the numbers the demo shows live.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    pub method: String,
    pub steps: Vec<QueryTrace>,
    /// Total stall time the user experienced (ms).
    pub total_stall_ms: f64,
    /// Total pages fetched on demand (misses).
    pub total_demand_misses: u64,
    /// Total demand hits.
    pub total_demand_hits: u64,
    /// Total pages prefetched ("how much data was prefetched in total"):
    /// the sum of the steps' [`QueryTrace::prefetched`]. With prefetch
    /// workers that is the pages queued by every plan a worker made but
    /// the last step's.
    pub total_prefetched: u64,
    /// Prefetched pages that a later query actually demanded ("how much
    /// was correctly prefetched").
    pub useful_prefetched: u64,
}

impl SessionStats {
    /// Fold one step's trace into the running totals
    /// (`useful_prefetched` is the frame pool's count, not a step's).
    pub fn record(&mut self, trace: QueryTrace) {
        self.total_stall_ms += trace.stall_ms;
        self.total_demand_misses += trace.demand_misses;
        self.total_demand_hits += trace.demand_hits;
        self.total_prefetched += trace.prefetched;
        self.steps.push(trace);
    }

    /// Demand hit ratio over the whole walkthrough.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.total_demand_hits + self.total_demand_misses;
        if total == 0 {
            0.0
        } else {
            self.total_demand_hits as f64 / total as f64
        }
    }

    /// Fraction of prefetched pages that were later used.
    pub fn prefetch_precision(&self) -> f64 {
        if self.total_prefetched == 0 {
            0.0
        } else {
            self.useful_prefetched as f64 / self.total_prefetched as f64
        }
    }

    /// Walkthrough speedup relative to a baseline run (stall time ratio).
    pub fn speedup_over(&self, baseline: &SessionStats) -> f64 {
        if self.total_stall_ms <= 0.0 {
            return f64::INFINITY;
        }
        baseline.total_stall_ms / self.total_stall_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooc::OocFlatIndex;
    use crate::prefetch::{
        ExtrapolationPrefetcher, HilbertPrefetcher, NoPrefetch, Prefetcher, ScoutPrefetcher,
    };
    use neurospatial_flat::{FlatBuildParams, FlatIndex};
    use neurospatial_model::{CircuitBuilder, MorphologyParams, NavigationPath, NeuronSegment};
    use std::sync::Arc;

    type Flat = Arc<FlatIndex<NeuronSegment>>;

    fn flat(segments: Vec<NeuronSegment>) -> Flat {
        Arc::new(FlatIndex::build(segments, FlatBuildParams::default().with_page_capacity(32)))
    }

    /// Replay `path` cold: a fresh view (pool and device clock) of `flat`.
    fn run<P: Prefetcher + Default + 'static>(
        flat: &Flat,
        config: &SessionConfig,
        path: &NavigationPath,
    ) -> SessionStats {
        let view = OocFlatIndex::view(Arc::clone(flat), config);
        let mut cursor = view.cursor(Box::new(P::default()));
        let mut stats = SessionStats::default();
        for q in &path.queries {
            stats.record(cursor.step(q).expect("pages in memory always read"));
        }
        stats.useful_prefetched = view.pool().stats().prefetch_hits;
        stats
    }

    fn setup() -> (Flat, SessionConfig, NavigationPath) {
        // Seeds chosen so the walkthrough is long (17 steps) and its
        // working set exceeds the pool — the regime where prefetch
        // accuracy decides stall time, as on the demo machine.
        let circuit =
            CircuitBuilder::new(11).neurons(12).morphology(MorphologyParams::small()).build();
        let path = NavigationPath::along_random_branch(&circuit, 1, 20.0, 8.0)
            .expect("circuit has branches");
        let config = SessionConfig { buffer_pages: 48, ..Default::default() };
        (flat(circuit.into_segments()), config, path)
    }

    #[test]
    fn no_prefetch_baseline_misses_everything_first_touch() {
        let (flat, config, path) = setup();
        let stats = run::<NoPrefetch>(&flat, &config, &path);
        assert_eq!(stats.total_prefetched, 0);
        assert!(stats.total_demand_misses > 0);
        assert!(stats.total_stall_ms > 0.0);
        assert_eq!(stats.steps.len(), path.queries.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let (flat, config, path) = setup();
        let a = run::<ScoutPrefetcher>(&flat, &config, &path);
        let b = run::<ScoutPrefetcher>(&flat, &config, &path);
        assert_eq!(a.total_stall_ms, b.total_stall_ms);
        assert_eq!(a.total_prefetched, b.total_prefetched);
        assert_eq!(a.useful_prefetched, b.useful_prefetched);
    }

    #[test]
    fn scout_beats_no_prefetching() {
        let (flat, config, path) = setup();
        let none = run::<NoPrefetch>(&flat, &config, &path);
        let scout = run::<ScoutPrefetcher>(&flat, &config, &path);
        assert!(
            scout.total_stall_ms < none.total_stall_ms,
            "scout stall {} should beat none {}",
            scout.total_stall_ms,
            none.total_stall_ms
        );
        assert!(scout.speedup_over(&none) > 1.0);
        assert!(scout.prefetch_precision() > 0.0);
    }

    #[test]
    fn scout_stalls_less_than_location_only_policies() {
        // The paper's claim (§3): content-aware prediction beats both
        // storage-order and camera-extrapolation prefetching on jagged
        // branch-following walkthroughs. Compare aggregate stall over a
        // few paths to smooth out per-path noise.
        let circuit =
            CircuitBuilder::new(11).neurons(16).morphology(MorphologyParams::small()).build();
        let flat = flat(circuit.segments().to_vec());
        let config = SessionConfig::default();
        let (mut s_scout, mut s_hilbert, mut s_extra) = (0.0, 0.0, 0.0);
        for seed in 0..6 {
            if let Some(path) = NavigationPath::along_random_branch(&circuit, seed, 18.0, 7.0) {
                s_scout += run::<ScoutPrefetcher>(&flat, &config, &path).total_stall_ms;
                s_hilbert += run::<HilbertPrefetcher>(&flat, &config, &path).total_stall_ms;
                s_extra += run::<ExtrapolationPrefetcher>(&flat, &config, &path).total_stall_ms;
            }
        }
        assert!(s_scout < s_hilbert, "scout {s_scout} should stall less than hilbert {s_hilbert}");
        assert!(
            s_scout < s_extra,
            "scout {s_scout} should stall less than extrapolation {s_extra}"
        );
    }

    #[test]
    fn prefetch_budget_limits_background_io() {
        let (flat, config, path) = setup();
        let none = SessionConfig { think_time_ms: 0.0, ..config };
        let stats = run::<ScoutPrefetcher>(&flat, &none, &path);
        assert_eq!(stats.total_prefetched, 0, "zero think time forbids prefetching");
        // A budget below the cost of one read is spent by the first one.
        let cost = CostModel { random_read_ms: 8.0, sequential_read_ms: 8.0 };
        let tight = SessionConfig { think_time_ms: 1.0, cost, ..config };
        let stats = run::<ScoutPrefetcher>(&flat, &tight, &path);
        assert!(stats.total_prefetched > 0);
        assert!(stats.steps.iter().all(|t| t.prefetched <= 1), "the plan is cut off");
    }

    #[test]
    fn query_results_unaffected_by_prefetching() {
        let (flat, config, path) = setup();
        let a = run::<NoPrefetch>(&flat, &config, &path);
        let b = run::<ScoutPrefetcher>(&flat, &config, &path);
        let ra: Vec<u64> = a.steps.iter().map(|t| t.results).collect();
        let rb: Vec<u64> = b.steps.iter().map(|t| t.results).collect();
        assert_eq!(ra, rb, "prefetching must not change query semantics");
    }

    #[test]
    fn stats_derivations() {
        let s = SessionStats {
            total_demand_hits: 30,
            total_demand_misses: 10,
            total_prefetched: 40,
            useful_prefetched: 30,
            total_stall_ms: 50.0,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((s.prefetch_precision() - 0.75).abs() < 1e-12);
        let base = SessionStats { total_stall_ms: 500.0, ..Default::default() };
        assert!((s.speedup_over(&base) - 10.0).abs() < 1e-12);
        let zero = SessionStats::default();
        assert_eq!(zero.hit_ratio(), 0.0);
        assert!(zero.speedup_over(&base).is_infinite());
    }
}
