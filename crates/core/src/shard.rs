//! The sharded parallel query executor.
//!
//! The demo paper's pitch is *interactive* spatial analytics over
//! brain-scale circuits, which only holds up if queries saturate the
//! hardware. A [`ShardedIndex`] space-partitions one dataset into K
//! shards by Hilbert order (consecutive Hilbert codes are spatially
//! adjacent, so each contiguous run of segments is a compact region of
//! tissue), builds one monolithic index per shard (FLAT, in memory or
//! paged), and fans
//! query work out over a scoped-thread worker pool
//! ([`neurospatial_geom::Executor`] — the same primitive the TOUCH join
//! uses for its parallel probe phase).
//!
//! The worker pool is used where a dispatch pays for itself:
//!
//! * **build** constructs the K shard indexes concurrently;
//! * **batched queries** ([`SpatialIndex::range_query_many`]) split the
//!   *batch* across workers, each worker probing the shards for its
//!   share of the queries with its own scratch — the throughput
//!   configuration the `experiments --scenario=throughput` race measures.
//!
//! A **single query** is not fanned out: the intersecting shards are
//! probed inline, on the caller's thread with the caller's scratch, in
//! partition order. A dispatch costs more than a typical query does
//! (README, "Parallel execution", has the measured pair), and the inline lane is
//! the one that pushes a [`Flow::Last`] verdict all the way down: later
//! shards are not even probed, and nothing is allocated. KNN rides the
//! same lane through the trait's one expanding-cube search.
//!
//! Because the shards partition the segments (every segment lives in
//! exactly one shard), concatenating per-shard results needs no
//! deduplication, and summing per-shard [`QueryStats`] yields costs
//! directly comparable to a monolithic run. The equivalence suite in
//! `tests/model.rs` property-tests that a sharded executor over FLAT, in
//! memory and paged, returns the model's result sets, and the order and logical
//! statistics it returns at one thread at two.
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(3).neurons(8).build();
//! let params = IndexParams::with_page_capacity(64).sharded(4).threaded(2);
//! let sharded = ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(
//!     circuit.segments().to_vec(),
//!     &params,
//! );
//! let q = Aabb::cube(circuit.bounds().center(), 30.0);
//! let mono: FlatIndex<NeuronSegment> = SpatialIndex::build(circuit.segments().to_vec(), &params);
//! let want = SpatialIndex::range_query(&mono, &q).sorted_ids();
//! assert_eq!(sharded.range_query(&q).sorted_ids(), want);
//! ```

use crate::error::NeuroError;
use crate::index::{
    range_query_batch, IndexParams, IndexPlan, QueryOutput, QueryScratch, QueryStats, SpatialIndex,
};
use neurospatial_geom::{Aabb, Executor, Flow, HilbertSorter};
use neurospatial_model::NeuronSegment;

/// K indexes over a Hilbert space partition of one dataset, built
/// and batch-queried by a scoped-thread worker pool.
///
/// Built via [`build_with`](Self::build_with) (or the [`SpatialIndex`]
/// trait constructor, [`NeuroDbBuilder`](crate::NeuroDbBuilder)'s
/// `.shards(k).threads(t)` or `.backend_named("sharded:flat")`). Shard
/// and thread counts come from
/// [`IndexParams::shards`] / [`IndexParams::threads`].
pub struct ShardedIndex<I> {
    shards: Vec<I>,
    /// `shard_bounds[i]` = `shards[i].bounds()`, cached so a query can
    /// prune non-intersecting shards without touching the shard.
    shard_bounds: Vec<Aabb>,
    executor: Executor,
    len: usize,
    bounds: Aabb,
}

impl<I: SpatialIndex> ShardedIndex<I> {
    /// Hilbert-sort `segments`, split them into `params.shards` balanced
    /// contiguous shards, and build one `I` per shard (shard builds run
    /// on the worker pool).
    pub fn build_with(mut segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        let k = params.shards.max(1);
        let executor = Executor::new(params.threads);
        // Hilbert-order by segment centre so each contiguous run — and
        // therefore each shard — is a spatially compact region.
        let centers = Aabb::from_points(segments.iter().map(|s| s.geom.center()));
        if segments.len() > 1 {
            let sorter = HilbertSorter::new(centers);
            // Cached keys: a 21-bit key is 21 dependent table lookups,
            // far too slow to recompute per comparison.
            segments.sort_by_cached_key(|s| sorter.key(s.geom.center()));
        }
        let bounds = segments.iter().fold(Aabb::EMPTY, |acc, s| acc.union(&s.aabb()));
        let n = segments.len();
        let segments = &segments;
        // Balanced split: shard i holds segments[i*n/k .. (i+1)*n/k]
        // (sizes differ by at most one; shards beyond n are empty).
        let shards: Vec<I> = executor
            .map_chunks(k, |shard_range| {
                shard_range
                    .map(|i| I::build(segments[i * n / k..(i + 1) * n / k].to_vec(), params))
                    .collect::<Vec<I>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let shard_bounds = shards.iter().map(|s| s.bounds()).collect();
        ShardedIndex { shards, shard_bounds, executor, len: n, bounds }
    }

    /// Number of indexed segments across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used for the build and for batched queries.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The per-shard indexes, in Hilbert partition order.
    pub fn shards(&self) -> &[I] {
        &self.shards
    }

    /// Segment counts per shard (sums to [`len`](SpatialIndex::len)).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }
}

impl<I: SpatialIndex> SpatialIndex for ShardedIndex<I> {
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        ShardedIndex::build_with(segments, params)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Probe the intersecting shards inline, in partition order, on the
    /// caller's thread with the caller's scratch. Shards whose bounds
    /// miss the region are pruned without being touched, so a
    /// well-partitioned dataset answers a local query from one or two
    /// shards; a [`Flow::Last`] verdict stops before later shards are
    /// probed. Because the shards partition the segments, per-shard
    /// statistics simply sum.
    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        let mut stats = QueryStats::default();
        let mut stopped = false;
        for (shard, bounds) in self.shards.iter().zip(&self.shard_bounds) {
            if !bounds.intersects(region) {
                continue;
            }
            stats.merge(&shard.try_for_each_in_range(
                region,
                scratch,
                allow_partial,
                &mut |o| {
                    let flow = sink(o);
                    stopped |= flow == Flow::Last;
                    flow
                },
            )?);
            if stopped {
                break;
            }
        }
        Ok(stats)
    }

    /// Real shard-pruning numbers for [`crate::query::RangeQuery::explain`]:
    /// how many of the K shards the region actually touches, and the sum
    /// of their per-shard read estimates.
    fn plan_range(&self, region: &Aabb) -> IndexPlan {
        let mut plan =
            IndexPlan { shards_total: self.shards.len(), shards_probed: 0, estimated_reads: 0 };
        for (shard, bounds) in self.shards.iter().zip(&self.shard_bounds) {
            if bounds.intersects(region) {
                plan.shards_probed += 1;
                plan.estimated_reads += shard.plan_range(region).estimated_reads;
            }
        }
        plan
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// Batched execution splits the *batch* across workers; each worker
    /// answers its share of the queries as a single caller would, reusing
    /// **one** [`QueryScratch`] across it. Outputs keep the input order.
    fn range_query_many(&self, regions: &[Aabb]) -> Vec<QueryOutput> {
        self.executor
            .map_chunks(regions.len(), |r| range_query_batch(self, &regions[r]))
            .into_iter()
            .flatten()
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum::<usize>()
            + self.shards.len() * std::mem::size_of::<I>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_flat::FlatIndex;
    use neurospatial_geom::Vec3;
    use neurospatial_model::CircuitBuilder;
    use neurospatial_scout::OocFlatIndex;

    type Flat = FlatIndex<NeuronSegment>;

    fn circuit_segments() -> Vec<NeuronSegment> {
        CircuitBuilder::new(17).neurons(8).build().segments().to_vec()
    }

    fn params(shards: usize, threads: usize) -> IndexParams {
        IndexParams::with_page_capacity(32).sharded(shards).threaded(threads)
    }

    #[test]
    fn shards_partition_the_dataset() {
        let segments = circuit_segments();
        for k in [1usize, 2, 3, 7, 16] {
            let idx = ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(
                segments.clone(),
                &params(k, 2),
            );
            assert_eq!(idx.shard_count(), k);
            assert_eq!(idx.shard_lens().iter().sum::<usize>(), segments.len());
            assert_eq!(idx.len(), segments.len());
            // Balanced: sizes differ by at most one.
            let lens = idx.shard_lens();
            let (min, max) =
                (lens.iter().min().expect("k >= 1"), lens.iter().max().expect("k >= 1"));
            assert!(max - min <= 1, "k={k} lens={lens:?}");
        }
    }

    #[test]
    fn matches_monolithic_on_every_backend() {
        let segments = circuit_segments();
        let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
        let queries = [
            Aabb::cube(bounds.center(), 30.0),
            Aabb::cube(bounds.lo, 15.0),
            bounds,                            // everything
            Aabb::cube(Vec3::splat(1e6), 5.0), // nothing
        ];
        let p = params(5, 3);
        let mono = <Flat as SpatialIndex>::build(segments.clone(), &p);
        let in_memory = ShardedIndex::<Flat>::build_with(segments.clone(), &p);
        let paged = ShardedIndex::<OocFlatIndex>::build_with(segments.clone(), &p);
        for (form, sharded) in [("memory", &in_memory as &dyn SpatialIndex), ("paged", &paged)] {
            assert_eq!(sharded.len(), mono.len(), "{form}");
            assert_eq!(sharded.bounds(), SpatialIndex::bounds(&mono), "{form} bounds");
            for q in &queries {
                assert_eq!(
                    sharded.range_query(q).sorted_ids(),
                    SpatialIndex::range_query(&mono, q).sorted_ids(),
                    "{form} at {q}"
                );
            }
        }
    }

    #[test]
    fn batched_queries_match_singles_and_keep_order() {
        let segments = circuit_segments();
        let idx = ShardedIndex::<Flat>::build_with(segments.clone(), &params(4, 4));
        let regions: Vec<Aabb> =
            (0..9).map(|i| Aabb::cube(segments[i * 13].geom.center(), 8.0 + i as f64)).collect();
        let batch = idx.range_query_many(&regions);
        assert_eq!(batch.len(), regions.len());
        for (out, q) in batch.iter().zip(&regions) {
            assert_eq!(out.sorted_ids(), idx.range_query(q).sorted_ids());
            assert_eq!(out.stats, idx.range_query(q).stats, "stats deterministic");
        }
    }

    #[test]
    fn knn_matches_monolithic_across_thread_counts() {
        let segments = circuit_segments();
        let mono = ShardedIndex::<Flat>::build_with(segments.clone(), &params(1, 1));
        let p = segments[7].geom.center() + Vec3::splat(3.0);
        for (k_shards, threads) in [(2usize, 1usize), (5, 4), (9, 2)] {
            let sharded =
                ShardedIndex::<Flat>::build_with(segments.clone(), &params(k_shards, threads));
            for k in [1usize, 4, 25] {
                let (got, stats) = sharded.knn(p, k);
                let (want, _) = mono.knn(p, k);
                let got_ids: Vec<u64> = got.iter().map(|n| n.segment.id).collect();
                let want_ids: Vec<u64> = want.iter().map(|n| n.segment.id).collect();
                assert_eq!(got_ids, want_ids, "shards={k_shards} k={k}");
                assert_eq!(stats.results as usize, got.len());
            }
        }
    }

    /// What each shard reports when it is asked directly — the breakdown
    /// a sharded query's statistics must be the sum of. Shards whose
    /// bounds miss the region are pruned: all-zero statistics.
    fn per_shard<I: SpatialIndex>(idx: &ShardedIndex<I>, q: &Aabb) -> Vec<QueryStats> {
        idx.shards()
            .iter()
            .map(|shard| {
                if shard.bounds().intersects(q) {
                    shard.range_query(q).stats
                } else {
                    QueryStats::default()
                }
            })
            .collect()
    }

    /// Sharded statistics must sum consistently across K ∈ {1, 2, 7}
    /// shards, including shards that hold no segments.
    #[test]
    fn stats_merge_consistently_across_shard_counts() {
        let segments = circuit_segments();
        let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
        let q = Aabb::cube(bounds.center(), 40.0);
        for k in [1usize, 2, 7] {
            let idx = ShardedIndex::<Flat>::build_with(segments.clone(), &params(k, 2));
            let breakdown = per_shard(&idx, &q);
            assert_eq!(breakdown.len(), k);
            let out = idx.range_query(&q);
            assert_eq!(QueryStats::merged(&breakdown), out.stats, "k={k}: shards sum to the whole");
            assert_eq!(out.stats.results as usize, out.segments.len(), "k={k}");
        }
    }

    #[test]
    fn empty_shards_contribute_zero_stats() {
        // 3 segments over 7 shards: four shards are empty.
        let segments: Vec<NeuronSegment> = circuit_segments().into_iter().take(3).collect();
        let idx =
            ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(segments.clone(), &params(7, 3));
        assert_eq!(idx.shard_count(), 7);
        assert_eq!(idx.shard_lens().iter().filter(|&&l| l == 0).count(), 4);
        let q = idx.bounds();
        let breakdown = per_shard(&idx, &q);
        let out = idx.range_query(&q);
        assert_eq!(out.segments.len(), segments.len());
        assert_eq!(QueryStats::merged(&breakdown), out.stats);
        for (lens, stats) in idx.shard_lens().iter().zip(&breakdown) {
            if *lens == 0 {
                assert_eq!(*stats, QueryStats::default(), "empty shard reports zero work");
            }
        }
    }

    /// A limit is pushed all the way down: the traversal stops inside the
    /// shard that delivers the last result and later shards are not
    /// probed.
    #[test]
    fn a_limit_stops_before_later_shards() {
        let segments = circuit_segments();
        let idx = ShardedIndex::<Flat>::build_with(segments.clone(), &params(4, 2));
        let everything = Aabb::cube(Vec3::ZERO, 1e6);
        let run = |limit: usize| {
            let mut ids = Vec::new();
            let stats = idx
                .try_for_each_in_range(&everything, &mut QueryScratch::new(), false, &mut |s| {
                    ids.push(s.id);
                    if ids.len() == limit {
                        Flow::Last
                    } else {
                        Flow::Emit
                    }
                })
                .expect("in-memory shards do not fail");
            (ids, stats)
        };
        let (all, full) = run(usize::MAX);
        assert_eq!(all.len(), segments.len());
        let (first, capped) = run(5);
        assert_eq!(first, all[..5], "a limit emits a prefix of the full order");
        assert_eq!(capped.results, 5);
        assert!(capped.nodes_read < full.nodes_read / 2, "three of four shards never probed");
    }

    #[test]
    fn empty_dataset_and_zero_shards_are_total() {
        // shards = 0 clamps to 1; an empty dataset builds K empty shards.
        let empty = ShardedIndex::<Flat>::build_with(Vec::new(), &params(0, 0));
        assert_eq!(empty.shard_count(), 1);
        assert!(empty.is_empty());
        let idx = ShardedIndex::<Flat>::build_with(Vec::new(), &params(4, 2));
        assert_eq!(idx.shard_count(), 4);
        assert!(idx.range_query(&Aabb::cube(Vec3::ZERO, 10.0)).is_empty());
        assert!(idx.knn(Vec3::ZERO, 5).0.is_empty());
    }
}
