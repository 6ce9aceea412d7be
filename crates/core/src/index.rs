//! The pluggable spatial-index backend API.
//!
//! The demo paper's first act is a *race* between storage designs: FLAT
//! against R-Tree variants on the same range queries (§2). This module
//! turns that race into an API: every backend implements [`SpatialIndex`]
//! with one result type ([`QueryOutput`]) and one statistics type
//! ([`QueryStats`]), and callers select backends by value
//! ([`IndexBackend`]) or by name (via [`FromStr`] or a
//! [`BackendRegistry`], which also accepts custom factories).
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(1).neurons(4).build();
//! let params = IndexParams::default();
//! for backend in IndexBackend::ALL {
//!     let index = backend.build(circuit.segments().to_vec(), &params);
//!     let out = index.range_query(&Aabb::cube(circuit.bounds().center(), 20.0));
//!     assert_eq!(out.stats.results as usize, out.segments.len());
//! }
//! ```

use crate::error::NeuroError;
use crate::shard::ShardedIndex;
use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatQueryStats, FlatScratch, PageGraph};
use neurospatial_geom::{Aabb, Flow, Vec3};
use neurospatial_model::NeuronSegment;
use neurospatial_rtree::{RPlusTree, RTree, RTreeParams, TraversalCounters, TraversalScratch};
use std::any::Any;
use std::fmt;
use std::str::FromStr;

/// Reusable per-query state for
/// [`SpatialIndex::try_for_each_in_range`] and everything built on it:
/// create one per worker thread, reuse it across an entire batch. After
/// the first few queries have grown the buffers, steady-state queries
/// perform **zero** heap allocations (held per backend by the
/// `zero_alloc` test in `neurospatial-bench`).
///
/// Fields are public so custom [`SpatialIndex`] implementations can use
/// the same buffers in their own traversal.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// R-Tree-family traversal state (visit stack, best-first candidate
    /// buffer, epoch-stamped de-duplication marks).
    pub tree: TraversalScratch,
    /// FLAT seed-and-crawl state (crawl front, visited-page marks, seed
    /// tree scratch).
    pub flat: FlatScratch,
    /// Out-of-core FLAT state (crawl front, visited marks, page-decode
    /// buffer) for the paged backend.
    pub paged: neurospatial_scout::OocScratch,
    /// KNN: the candidates of the current expanding-cube iteration,
    /// awaiting the canonical sort.
    pub knn_candidates: Vec<Neighbor>,
}

impl QueryScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl From<TraversalCounters> for QueryStats {
    /// Lift the R-Tree family's flat scratch counters into the unified
    /// schema.
    fn from(c: TraversalCounters) -> Self {
        QueryStats {
            results: c.results,
            nodes_read: c.nodes_visited,
            objects_tested: c.leaf_entries_tested,
            ..QueryStats::default()
        }
    }
}

/// Backend-independent build parameters.
///
/// Each backend maps `page_capacity` onto its own granularity knob: FLAT
/// page size, R-Tree node fan-out, R+-Tree leaf capacity — the quantity
/// the paper's experiments vary to equalise "objects per disk page".
/// Values below a backend's structural minimum (1 for FLAT and the
/// R+-Tree, 4 for the R-Tree fan-out) are clamped, so every build entry
/// point is total; [`crate::NeuroDbBuilder`] additionally validates and
/// reports out-of-range values as [`NeuroError::InvalidConfig`].
///
/// `shards` and `threads` only affect the sharded executor
/// ([`ShardedIndex`], or the registry's `sharded:<backend>` names): the
/// monolithic backends ignore them, so the same parameter block can
/// configure both sides of a sharded-vs-monolithic race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexParams {
    /// Objects per page / node (per shard, when sharded).
    pub page_capacity: usize,
    /// Space partitions for [`ShardedIndex`] (clamped to >= 1; monolithic
    /// backends ignore it).
    pub shards: usize,
    /// Worker threads for sharded query execution (clamped to >= 1;
    /// monolithic backends ignore it).
    pub threads: usize,
}

impl Default for IndexParams {
    fn default() -> Self {
        IndexParams { page_capacity: 64, shards: 1, threads: 1 }
    }
}

impl IndexParams {
    /// Parameters with everything default but the page capacity.
    pub fn with_page_capacity(page_capacity: usize) -> Self {
        IndexParams { page_capacity, ..IndexParams::default() }
    }

    /// Set the shard count (builder-style).
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the query worker-thread count (builder-style).
    pub fn threaded(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Unified per-query statistics, comparable across backends — the demo's
/// "disk pages retrieved" panel, one schema for every index design.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Objects returned.
    pub results: u64,
    /// Index pages/nodes read: data pages + seed-tree nodes for FLAT,
    /// tree nodes for the R-Tree family. The cross-backend cost proxy.
    pub nodes_read: u64,
    /// Objects tested against the query region (filter work).
    pub objects_tested: u64,
    /// FLAT only: crawl-front re-seeds (0 for other backends, and almost
    /// always 0 for FLAT on dense data).
    pub reseeds: u64,
    /// Paged (out-of-core) backends only: demand page reads served from
    /// the buffer pool without touching the disk. 0 for in-memory
    /// backends.
    pub cache_hits: u64,
    /// Paged backends only: demand page reads that stalled on the disk.
    /// 0 for in-memory backends.
    pub cache_misses: u64,
    /// Paged backends only: frames evicted from the buffer pool while
    /// this query ran. 0 for in-memory backends.
    pub cache_evictions: u64,
    /// Paged backends only: transient page-read failures recovered by
    /// the bounded-retry path. 0 for in-memory backends and on healthy
    /// media.
    pub retries: u64,
    /// Paged backends only: quarantined pages this query skipped. Always
    /// 0 unless the query ran in partial-results mode
    /// ([`crate::query::RangeQuery::allow_partial`]); a nonzero value
    /// marks the result set as degraded.
    pub pages_quarantined: u64,
}

impl QueryStats {
    /// Filter precision: results per object tested (1.0 = no wasted work).
    pub fn test_precision(&self) -> f64 {
        if self.objects_tested == 0 {
            0.0
        } else {
            self.results as f64 / self.objects_tested as f64
        }
    }

    /// Accumulate another query's statistics into this one (plain field
    /// sums). This is the merge the sharded executor applies to per-shard
    /// statistics, and it is what makes cross-shard costs comparable to a
    /// monolithic run: K shards that together read N nodes report exactly
    /// N nodes read.
    pub fn merge(&mut self, other: &QueryStats) {
        self.results += other.results;
        self.nodes_read += other.nodes_read;
        self.objects_tested += other.objects_tested;
        self.reseeds += other.reseeds;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.retries += other.retries;
        self.pages_quarantined += other.pages_quarantined;
    }

    /// Accumulate another traversal's *work* — every counter but
    /// `results`. A search made of several range traversals (KNN's
    /// expanding cubes) sums what they read and tested, physical I/O
    /// included, and stamps its own result count at the end.
    pub fn merge_work(&mut self, other: &QueryStats) {
        let results = self.results;
        self.merge(other);
        self.results = results;
    }

    /// The field-wise sum of an iterator of statistics.
    pub fn merged<'a, I: IntoIterator<Item = &'a QueryStats>>(stats: I) -> QueryStats {
        let mut out = QueryStats::default();
        for s in stats {
            out.merge(s);
        }
        out
    }
}

impl From<&FlatQueryStats> for QueryStats {
    fn from(s: &FlatQueryStats) -> Self {
        QueryStats {
            results: s.results,
            nodes_read: s.pages_read + s.seed_nodes_read,
            objects_tested: s.objects_tested,
            reseeds: s.reseeds,
            ..QueryStats::default()
        }
    }
}

/// Lightweight planner metadata behind [`crate::query::Plan`]: what an
/// executor *would* touch for a region, without running the query.
/// Produced by [`SpatialIndex::plan_range`]; the sharded executor fills
/// in real shard-pruning counts, FLAT counts the actual pages the region
/// overlaps, and the default is a cheap volume-fraction heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexPlan {
    /// Shards the executor manages (1 for monolithic backends).
    pub shards_total: usize,
    /// Shards whose bounds intersect the region (the rest are pruned
    /// without being touched).
    pub shards_probed: usize,
    /// Estimated index pages/nodes the query would read.
    pub estimated_reads: u64,
}

/// A range query's result set plus its unified statistics.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Matching segments (owned copies; `NeuronSegment` is `Copy`).
    pub segments: Vec<NeuronSegment>,
    pub stats: QueryStats,
}

impl QueryOutput {
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Result ids in ascending order — the canonical form for comparing
    /// backends against each other or against a scan.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.segments.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }
}

/// One k-nearest-neighbour result: a segment and its distance from the
/// query point (AABB minimum distance, consistently with the rest of the
/// filter/refine pipeline — exact capsule refinement is the caller's
/// concern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub segment: NeuronSegment,
    pub distance: f64,
}

/// Canonical neighbour order: ascending distance, ties broken by segment
/// id. A total deterministic order makes KNN answers identical across
/// backends and across shard counts, which is what the equivalence suite
/// asserts.
fn neighbor_order(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance
        .partial_cmp(&b.distance)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.segment.id.cmp(&b.segment.id))
}

/// Sort `candidates` canonically, keep the first `k`, stamp the result
/// count and append them to `out` — the tail of every KNN search.
pub(crate) fn finish_knn(
    candidates: &mut Vec<Neighbor>,
    k: usize,
    stats: &mut QueryStats,
    out: &mut Vec<Neighbor>,
) {
    candidates.sort_by(neighbor_order);
    candidates.truncate(k);
    stats.results = candidates.len() as u64;
    out.extend_from_slice(candidates);
}

/// The initial expanding-cube radius and its upper bound for a KNN
/// search: the distance to the data plus a cube sized to hold ~k objects
/// under a uniform-density estimate, capped by the farthest corner of the
/// data bounds (every indexed AABB lies inside the bounds, so no AABB
/// distance exceeds it).
pub(crate) fn knn_radii<I: SpatialIndex + ?Sized>(index: &I, p: Vec3, k: usize) -> (f64, f64) {
    let bounds = index.bounds();
    let far = Vec3::new(
        (p.x - bounds.lo.x).abs().max((p.x - bounds.hi.x).abs()),
        (p.y - bounds.lo.y).abs().max((p.y - bounds.hi.y).abs()),
        (p.z - bounds.lo.z).abs().max((p.z - bounds.hi.z).abs()),
    )
    .norm();
    let ext = bounds.extent();
    let frac = (k as f64 / index.len().max(1) as f64).cbrt().min(1.0);
    let guess = ext.x.max(ext.y).max(ext.z) * frac * 0.5;
    let r = (bounds.min_distance_to_point(p) + guess).max(1e-9).min(far.max(1e-9));
    (r, far)
}

/// The exact expanding-cube search behind every KNN, written once over
/// the range primitive: a cube of half-extent `r` centred on `p` contains
/// every segment whose AABB lies within Euclidean distance `r` of `p`, so
/// once at least `k` candidates that pass `keep` sit within the ball of
/// radius `r` the answer is among them. The radius starts from
/// [`knn_radii`]'s density-scaled guess and doubles until the ball holds
/// `k` candidates or the cube swallows the dataset.
///
/// Leaves the last cube's candidates, unsorted, in
/// `scratch.knn_candidates` for [`finish_knn`] (callers with a second
/// tier — a live database's delta — add its candidates in between), and
/// returns the work of every cube traversed.
pub(crate) fn knn_candidates<I: SpatialIndex + ?Sized>(
    index: &I,
    p: Vec3,
    k: usize,
    scratch: &mut QueryScratch,
    allow_partial: bool,
    mut keep: impl FnMut(&NeuronSegment) -> bool,
) -> Result<QueryStats, NeuroError> {
    let mut stats = QueryStats::default();
    scratch.knn_candidates.clear();
    if k == 0 || index.is_empty() {
        return Ok(stats);
    }
    let (mut r, far) = knn_radii(index, p, k);
    // Taken out of the scratch so the borrow checker sees the buffer as
    // disjoint from the scratch handed to the range traversal.
    let mut candidates = std::mem::take(&mut scratch.knn_candidates);
    let result = loop {
        candidates.clear();
        let cube =
            index.try_for_each_in_range(&Aabb::cube(p, r), scratch, allow_partial, &mut |s| {
                if !keep(s) {
                    return Flow::Skip;
                }
                let distance = s.aabb().min_distance_to_point(p);
                if distance <= r {
                    candidates.push(Neighbor { segment: *s, distance });
                }
                Flow::Emit
            });
        match cube {
            Ok(s) => stats.merge_work(&s),
            Err(e) => break Err(e),
        }
        if candidates.len() >= k || r >= far {
            break Ok(stats);
        }
        r = (r * 2.0).min(far);
    };
    scratch.knn_candidates = candidates;
    result
}

/// One [`QueryOutput`] per region, in input order, one [`QueryScratch`]
/// reused across the slice — the body of
/// [`SpatialIndex::range_query_many`], and of each worker's share when the
/// sharded executor splits a batch.
pub(crate) fn range_query_batch<I: SpatialIndex + ?Sized>(
    index: &I,
    regions: &[Aabb],
) -> Vec<QueryOutput> {
    let mut scratch = QueryScratch::new();
    regions
        .iter()
        .map(|r| {
            let mut segments = Vec::new();
            let stats = index.range_query_into_scratch(r, &mut scratch, &mut segments);
            QueryOutput { segments, stats }
        })
        .collect()
}

/// Unwrap the range primitive for the infallible provided methods — the
/// one place they can panic. In-memory backends never fail; a paged
/// index validates its whole file at open, so an error here means the
/// file rotted or was truncated *while the database was serving*.
/// Callers that must survive that use
/// [`try_for_each_in_range`](SpatialIndex::try_for_each_in_range) or the
/// fallible query terminals in [`crate::query`].
pub(crate) fn infallible<T>(result: Result<T, NeuroError>) -> T {
    result.unwrap_or_else(|e| {
        panic!("range traversal failed on an infallible query method (did a page file change while serving?): {e}")
    })
}

/// A queryable spatial index over neuron segments.
///
/// Implemented by FLAT (in memory and paged), the dynamic R-Tree, the
/// R+-Tree, the STR-packed R-Tree and the sharded executor over any of
/// them; every implementation must return exactly the segments a
/// brute-force scan would (property-tested in
/// `tests/backend_equivalence.rs` and `tests/hotpath_equivalence.rs`).
///
/// A backend implements **one** range traversal,
/// [`try_for_each_in_range`](Self::try_for_each_in_range). Collecting,
/// batching, KNN and planning are provided methods written once on top of
/// it, so a fix or a counter added to the primitive reaches every query
/// form. Override a provided method only to change *how the work is
/// scheduled or estimated*, never what it returns: the sharded executor
/// splits a [`range_query_many`](Self::range_query_many) batch over its
/// workers, and it and FLAT (in memory and paged) report real pruning and
/// page counts from [`plan_range`](Self::plan_range).
pub trait SpatialIndex: Send + Sync + 'static {
    /// Build the index over `segments`.
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self
    where
        Self: Sized;

    /// Downcast escape hatch: the concrete backend behind a
    /// `&dyn SpatialIndex`, reachable generically instead of through
    /// per-backend accessors on the facade. `self` in every
    /// implementation.
    ///
    /// ```
    /// use neurospatial::prelude::*;
    ///
    /// let idx = IndexBackend::RPlus.build(Vec::new(), &IndexParams::default());
    /// assert!(idx.as_any().downcast_ref::<RPlusTree<NeuronSegment>>().is_some());
    /// assert!(idx.as_any().downcast_ref::<FlatIndex<NeuronSegment>>().is_none());
    /// ```
    fn as_any(&self) -> &dyn std::any::Any;

    /// Number of indexed segments.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounding box of the indexed data (`Aabb::EMPTY` when empty).
    fn bounds(&self) -> Aabb;

    /// The range traversal — the only query method a backend implements.
    /// Every segment intersecting `region` is offered to `sink` exactly
    /// once, in the backend's canonical emission order; the sink's
    /// [`Flow`] verdict decides whether it counts as a result
    /// ([`Flow::Emit`]), is filtered out below the traversal
    /// ([`Flow::Skip`] — not counted in `stats.results`), or ends the
    /// traversal immediately ([`Flow::Last`] — how a pushed-down limit
    /// stops reading index pages it no longer needs). Nothing is
    /// materialized, and all per-query working state (visit stacks, crawl
    /// queues, visited marks) lives in `scratch`.
    ///
    /// In-memory backends cannot fail and ignore `allow_partial`. The
    /// paged backend surfaces storage failures as typed errors, or, with
    /// `allow_partial`, skips quarantined pages and labels the loss in
    /// `stats.pages_quarantined`.
    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError>;

    /// Append every segment intersecting `region` to `out` and return
    /// the query statistics — the allocation-free collecting form hot
    /// loops use. Panics where the primitive fails: only on a paged index
    /// whose file changed while serving.
    fn range_query_into_scratch(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        out: &mut Vec<NeuronSegment>,
    ) -> QueryStats {
        infallible(self.try_for_each_in_range(region, scratch, false, &mut |s| {
            out.push(*s);
            Flow::Emit
        }))
    }

    /// All segments intersecting `region`, with unified statistics, on a
    /// fresh scratch and a fresh vector.
    fn range_query(&self, region: &Aabb) -> QueryOutput {
        let mut segments = Vec::new();
        let stats = self.range_query_into_scratch(region, &mut QueryScratch::new(), &mut segments);
        QueryOutput { segments, stats }
    }

    /// Batched queries — one call, one output per region, in input
    /// order, with one [`QueryScratch`] reused across the batch. The
    /// sharded executor overrides this to split the batch over its
    /// worker pool (one scratch per worker).
    fn range_query_many(&self, regions: &[Aabb]) -> Vec<QueryOutput> {
        range_query_batch(self, regions)
    }

    /// The `k` segments nearest to `p` (AABB minimum distance), in
    /// canonical order: ascending distance, ties broken by segment id.
    /// One exact expanding-cube search over the range primitive serves
    /// every backend, which keeps answers byte-identical across backends
    /// and shard counts.
    fn knn(&self, p: Vec3, k: usize) -> (Vec<Neighbor>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.knn_into_scratch(p, k, &mut QueryScratch::new(), &mut out);
        (out, stats)
    }

    /// Allocation-free [`knn`](Self::knn): the candidate buffer comes
    /// from `scratch`, results append to `out` in the same canonical
    /// order.
    fn knn_into_scratch(
        &self,
        p: Vec3,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) -> QueryStats {
        let mut stats = infallible(knn_candidates(self, p, k, scratch, false, |_| true));
        finish_knn(&mut scratch.knn_candidates, k, &mut stats, out);
        stats
    }

    /// Planner metadata for a region — what [`crate::query::RangeQuery::explain`]
    /// reports without executing anything. The default is a cheap
    /// volume-fraction heuristic over the data bounds; FLAT counts the
    /// pages the region actually overlaps, and the sharded executor
    /// reports real shard-pruning numbers.
    fn plan_range(&self, region: &Aabb) -> IndexPlan {
        let bounds = self.bounds();
        if self.is_empty() || !bounds.intersects(region) {
            return IndexPlan { shards_total: 1, shards_probed: 0, estimated_reads: 0 };
        }
        let vol = bounds.volume();
        let frac = if vol > 0.0 {
            (region.intersection(&bounds).volume() / vol).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let pages = (self.len() as f64 / 64.0).ceil();
        IndexPlan {
            shards_total: 1,
            shards_probed: 1,
            estimated_reads: (frac * pages).ceil().max(1.0) as u64,
        }
    }

    /// Approximate resident size in bytes (for the demo's memory panels).
    fn memory_bytes(&self) -> usize;
}

impl SpatialIndex for FlatIndex<NeuronSegment> {
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        FlatIndex::build(
            segments,
            FlatBuildParams::default().with_page_capacity(params.page_capacity.max(1)),
        )
    }

    fn len(&self) -> usize {
        FlatIndex::len(self)
    }

    fn bounds(&self) -> Aabb {
        FlatIndex::bounds(self)
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        _allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        let stats = FlatIndex::range_query_stream(self, region, &mut scratch.flat, |_| {}, sink);
        Ok((&stats).into())
    }

    fn plan_range(&self, region: &Aabb) -> IndexPlan {
        flat_plan(self.graph(), region)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        FlatIndex::memory_bytes(self)
    }
}

/// FLAT's plan, in memory or paged: the page MBRs are metadata, so the
/// plan counts the exact data pages the region meets, plus a seed
/// descent, and reads no page.
pub(crate) fn flat_plan(graph: &PageGraph, region: &Aabb) -> IndexPlan {
    let mut pages = Vec::new();
    graph.pages_intersecting(region, &mut TraversalScratch::default(), &mut pages);
    let reads = if pages.is_empty() { 0 } else { pages.len() + graph.seed_tree_height() };
    IndexPlan {
        shards_total: 1,
        shards_probed: usize::from(!pages.is_empty()),
        estimated_reads: reads as u64,
    }
}

/// STR-packed (bulk-loaded) R-Tree backend.
impl SpatialIndex for RTree<NeuronSegment> {
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        let mut tree =
            RTree::bulk_load(segments, RTreeParams::with_max_entries(params.page_capacity.max(4)));
        // This tree serves scratch queries: freeze the SoA lanes.
        tree.freeze();
        tree
    }

    fn len(&self) -> usize {
        RTree::len(self)
    }

    fn bounds(&self) -> Aabb {
        self.root_mbr()
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        _allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        Ok(RTree::range_query_stream(self, region, &mut scratch.tree, sink).into())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        RTree::memory_bytes(self)
    }
}

/// The dynamically grown R-Tree: same structure as the STR-packed tree
/// but built by one-at-a-time insertion, which is what degrades its leaf
/// overlap on dense data (§2.2 of the paper).
pub struct DynamicRTree(pub RTree<NeuronSegment>);

impl SpatialIndex for DynamicRTree {
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        let mut tree = RTree::new(RTreeParams::with_max_entries(params.page_capacity.max(4)));
        for s in segments {
            tree.insert(s);
        }
        // Build complete: freeze the SoA traversal layout so scratch
        // queries scan contiguous MBR lanes. The *structure* stays the
        // insertion-grown one — freezing changes the memory layout, not
        // the tree, so the paper's overlap-degradation story is intact.
        tree.freeze();
        DynamicRTree(tree)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn bounds(&self) -> Aabb {
        self.0.root_mbr()
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        _allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        Ok(self.0.range_query_stream(region, &mut scratch.tree, sink).into())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

impl SpatialIndex for RPlusTree<NeuronSegment> {
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        RPlusTree::build(segments, params.page_capacity.max(1))
    }

    fn len(&self) -> usize {
        RPlusTree::len(self)
    }

    fn bounds(&self) -> Aabb {
        RPlusTree::bounds(self)
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        _allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        Ok(RPlusTree::range_query_stream(self, region, &mut scratch.tree, sink).into())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        // Arena nodes are private; approximate with the object store plus
        // one u32 per stored (possibly replicated) leaf entry.
        self.len() * std::mem::size_of::<NeuronSegment>() + self.stored_entries() as usize * 4
    }
}

/// The built-in index backends, selectable by value or by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexBackend {
    /// FLAT seed-and-crawl (density-independent; the paper's design).
    Flat,
    /// Dynamically grown R-Tree (insertion splits; degrades with density).
    RTree,
    /// R+-Tree (overlap-free, replicates entries).
    RPlus,
    /// STR bulk-loaded R-Tree (tight static packing).
    StrPacked,
}

impl IndexBackend {
    /// All built-in backends, in the order the experiment tables report.
    pub const ALL: [IndexBackend; 4] =
        [IndexBackend::Flat, IndexBackend::RTree, IndexBackend::RPlus, IndexBackend::StrPacked];

    /// Canonical name (the one [`fmt::Display`] prints and
    /// [`FromStr`] round-trips).
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Flat => "flat",
            IndexBackend::RTree => "rtree",
            IndexBackend::RPlus => "rplus",
            IndexBackend::StrPacked => "str-packed",
        }
    }

    /// Build a boxed index of this backend over `segments`.
    pub fn build(
        &self,
        segments: Vec<NeuronSegment>,
        params: &IndexParams,
    ) -> Box<dyn SpatialIndex> {
        match self {
            IndexBackend::Flat => {
                Box::new(<FlatIndex<NeuronSegment> as SpatialIndex>::build(segments, params))
            }
            IndexBackend::RTree => Box::new(DynamicRTree::build(segments, params)),
            IndexBackend::RPlus => {
                Box::new(<RPlusTree<NeuronSegment> as SpatialIndex>::build(segments, params))
            }
            IndexBackend::StrPacked => {
                Box::new(<RTree<NeuronSegment> as SpatialIndex>::build(segments, params))
            }
        }
    }

    /// Build a boxed **sharded** executor over this backend:
    /// `params.shards` Hilbert-ordered space partitions, each holding one
    /// monolithic index of this backend, queried with `params.threads`
    /// workers. Registered in [`BackendRegistry::with_builtins`] under
    /// `sharded:<name>`.
    pub fn build_sharded(
        &self,
        segments: Vec<NeuronSegment>,
        params: &IndexParams,
    ) -> Box<dyn SpatialIndex> {
        match self {
            IndexBackend::Flat => Box::new(
                <ShardedIndex<FlatIndex<NeuronSegment>> as SpatialIndex>::build(segments, params),
            ),
            IndexBackend::RTree => {
                Box::new(<ShardedIndex<DynamicRTree> as SpatialIndex>::build(segments, params))
            }
            IndexBackend::RPlus => Box::new(
                <ShardedIndex<RPlusTree<NeuronSegment>> as SpatialIndex>::build(segments, params),
            ),
            IndexBackend::StrPacked => Box::new(
                <ShardedIndex<RTree<NeuronSegment>> as SpatialIndex>::build(segments, params),
            ),
        }
    }

    /// The registry name of the sharded executor over this backend.
    pub fn sharded_name(&self) -> String {
        format!("sharded:{}", self.name())
    }
}

impl fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for IndexBackend {
    type Err = NeuroError;

    /// Case-insensitive; accepts the canonical names plus common aliases
    /// (`r-tree`, `dynamic`, `r+`, `rplustree`, `str`, `packed`).
    fn from_str(s: &str) -> Result<Self, NeuroError> {
        match s.to_ascii_lowercase().replace(['_', ' '], "-").as_str() {
            "flat" => Ok(IndexBackend::Flat),
            "rtree" | "r-tree" | "dynamic" | "dynamic-rtree" => Ok(IndexBackend::RTree),
            "rplus" | "r+" | "r-plus" | "rplustree" | "r+-tree" => Ok(IndexBackend::RPlus),
            "str-packed" | "str" | "packed" | "strpacked" => Ok(IndexBackend::StrPacked),
            _ => Err(NeuroError::UnknownBackend {
                given: s.to_string(),
                known: IndexBackend::ALL.iter().map(|b| b.name().to_string()).collect(),
            }),
        }
    }
}

/// Factory signature for registry entries.
pub type BackendFactory = fn(Vec<NeuronSegment>, &IndexParams) -> Box<dyn SpatialIndex>;

/// A name → factory table: the built-in backends plus anything callers
/// register (an experimental index, an instrumented wrapper, …).
///
/// ```
/// use neurospatial::prelude::*;
///
/// let mut registry = BackendRegistry::with_builtins();
/// registry.register("my-flat", |segs, p| IndexBackend::Flat.build(segs, p));
/// let idx = registry.build("my-flat", Vec::new(), &IndexParams::default()).unwrap();
/// assert!(idx.is_empty());
/// ```
pub struct BackendRegistry {
    entries: Vec<(String, BackendFactory)>,
}

impl BackendRegistry {
    /// A registry containing the four built-in backends under their
    /// canonical names, plus a sharded executor for each of them under
    /// `sharded:<name>` (shard and thread counts come from the
    /// [`IndexParams`] passed at build time).
    pub fn with_builtins() -> Self {
        let mut r = BackendRegistry { entries: Vec::new() };
        for b in IndexBackend::ALL {
            // `IndexBackend::build` needs the variant; capture it by
            // monomorphising through a small fn per variant.
            let factory: BackendFactory = match b {
                IndexBackend::Flat => |s, p| IndexBackend::Flat.build(s, p),
                IndexBackend::RTree => |s, p| IndexBackend::RTree.build(s, p),
                IndexBackend::RPlus => |s, p| IndexBackend::RPlus.build(s, p),
                IndexBackend::StrPacked => |s, p| IndexBackend::StrPacked.build(s, p),
            };
            r.entries.push((b.name().to_string(), factory));
        }
        for b in IndexBackend::ALL {
            // Selecting a `sharded:` name is an explicit request for
            // sharding, so (exactly like `NeuroDbBuilder::backend_named`)
            // a default/unset shard count is raised to the smallest
            // genuinely sharded layout instead of silently building a
            // 1-shard wrapper.
            let factory: BackendFactory = match b {
                IndexBackend::Flat => {
                    |s, p| IndexBackend::Flat.build_sharded(s, &p.sharded(p.shards.max(2)))
                }
                IndexBackend::RTree => {
                    |s, p| IndexBackend::RTree.build_sharded(s, &p.sharded(p.shards.max(2)))
                }
                IndexBackend::RPlus => {
                    |s, p| IndexBackend::RPlus.build_sharded(s, &p.sharded(p.shards.max(2)))
                }
                IndexBackend::StrPacked => {
                    |s, p| IndexBackend::StrPacked.build_sharded(s, &p.sharded(p.shards.max(2)))
                }
            };
            r.entries.push((b.sharded_name(), factory));
        }
        r
    }

    /// Register (or replace) a backend under `name`.
    pub fn register<S: Into<String>>(&mut self, name: S, factory: BackendFactory) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = factory;
        } else {
            self.entries.push((name, factory));
        }
    }

    /// Registered names, registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Build the backend registered under `name`.
    pub fn build(
        &self,
        name: &str,
        segments: Vec<NeuronSegment>,
        params: &IndexParams,
    ) -> Result<Box<dyn SpatialIndex>, NeuroError> {
        match self.entries.iter().find(|(n, _)| n == name) {
            Some((_, factory)) => Ok(factory(segments, params)),
            None => Err(NeuroError::UnknownBackend {
                given: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            }),
        }
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_model::CircuitBuilder;

    #[test]
    fn backend_names_round_trip() {
        for b in IndexBackend::ALL {
            assert_eq!(b.name().parse::<IndexBackend>().expect("round trip"), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!("R-Tree".parse::<IndexBackend>().unwrap(), IndexBackend::RTree);
        assert_eq!("STR".parse::<IndexBackend>().unwrap(), IndexBackend::StrPacked);
        assert!(matches!("btree".parse::<IndexBackend>(), Err(NeuroError::UnknownBackend { .. })));
    }

    #[test]
    fn all_backends_agree_with_scan() {
        let c = CircuitBuilder::new(5).neurons(6).build();
        let q = Aabb::cube(c.bounds().center(), 30.0);
        let want: Vec<u64> = {
            let mut ids: Vec<u64> =
                c.segments().iter().filter(|s| s.aabb().intersects(&q)).map(|s| s.id).collect();
            ids.sort_unstable();
            ids
        };
        for b in IndexBackend::ALL {
            let idx = b.build(c.segments().to_vec(), &IndexParams::default());
            assert_eq!(idx.len(), c.segments().len(), "{b}");
            let out = idx.range_query(&q);
            assert_eq!(out.sorted_ids(), want, "{b} disagrees with scan");
            assert_eq!(out.stats.results as usize, out.len(), "{b} stats");
            assert!(idx.bounds().contains(&q.intersection(&idx.bounds())), "{b} bounds");
        }
    }

    #[test]
    fn batched_queries_match_single_queries() {
        let c = CircuitBuilder::new(9).neurons(4).build();
        let idx = IndexBackend::Flat.build(c.segments().to_vec(), &IndexParams::default());
        let regions: Vec<Aabb> = (0..5)
            .map(|i| Aabb::cube(c.segments()[i * 7].geom.center(), 10.0 + i as f64))
            .collect();
        let batch = idx.range_query_many(&regions);
        assert_eq!(batch.len(), regions.len());
        for (out, r) in batch.iter().zip(&regions) {
            assert_eq!(out.sorted_ids(), idx.range_query(r).sorted_ids());
        }
    }

    #[test]
    fn registry_builds_by_name_and_rejects_unknowns() {
        let registry = BackendRegistry::with_builtins();
        // Four monolithic backends plus their four sharded executors.
        assert_eq!(registry.names().len(), 8);
        let idx =
            registry.build("flat", Vec::new(), &IndexParams::default()).expect("flat registered");
        assert!(idx.is_empty());
        assert!(registry.build("nope", Vec::new(), &IndexParams::default()).is_err());
    }

    #[test]
    fn registry_sharded_names_agree_with_monolithic() {
        let registry = BackendRegistry::with_builtins();
        let c = CircuitBuilder::new(11).neurons(5).build();
        let q = Aabb::cube(c.bounds().center(), 25.0);
        let params = IndexParams::with_page_capacity(32).sharded(3).threaded(2);
        for b in IndexBackend::ALL {
            let mono = registry.build(b.name(), c.segments().to_vec(), &params).expect("builtin");
            let sharded = registry
                .build(&b.sharded_name(), c.segments().to_vec(), &params)
                .expect("sharded builtin");
            assert_eq!(sharded.len(), mono.len(), "{b}");
            assert_eq!(sharded.range_query(&q).sorted_ids(), mono.range_query(&q).sorted_ids());
        }
    }

    #[test]
    fn knn_default_matches_brute_force_on_every_backend() {
        let c = CircuitBuilder::new(4).neurons(6).build();
        let segments = c.segments().to_vec();
        for b in IndexBackend::ALL {
            let idx = b.build(segments.clone(), &IndexParams::default());
            for (p, k) in [
                (c.bounds().center(), 5usize),
                (c.bounds().lo, 1),
                (c.bounds().hi + Vec3::splat(100.0), 12), // outside the data
                (segments[3].geom.center(), 3),
            ] {
                let (got, stats) = idx.knn(p, k);
                assert_eq!(got.len(), k.min(segments.len()), "{b} k={k}");
                assert_eq!(stats.results as usize, got.len(), "{b} stats");
                // Distances ascend; ties ascend by id.
                for w in got.windows(2) {
                    assert!(
                        (w[0].distance, w[0].segment.id) < (w[1].distance, w[1].segment.id),
                        "{b} canonical order"
                    );
                }
                // The k-th reported distance matches the brute-force k-th.
                let mut want: Vec<f64> =
                    segments.iter().map(|s| s.aabb().min_distance_to_point(p)).collect();
                want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.distance - w).abs() < 1e-9, "{b} distance mismatch at k={k}");
                }
            }
        }
    }

    #[test]
    fn knn_edge_cases() {
        let c = CircuitBuilder::new(4).neurons(2).build();
        let idx = IndexBackend::Flat.build(c.segments().to_vec(), &IndexParams::default());
        assert!(idx.knn(Vec3::ZERO, 0).0.is_empty());
        let (all, _) = idx.knn(Vec3::ZERO, c.segments().len() + 10);
        assert_eq!(all.len(), c.segments().len(), "k > n returns everything");
        let empty = IndexBackend::Flat.build(Vec::new(), &IndexParams::default());
        assert!(empty.knn(Vec3::ZERO, 3).0.is_empty());
    }
}
