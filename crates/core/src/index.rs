//! The spatial-index API behind [`crate::NeuroDb`].
//!
//! A database indexes its segments with FLAT, in one of four forms: in
//! memory, on pages ([`OocFlatIndex`]), live behind a write-ahead log,
//! or split into Hilbert shards ([`ShardedIndex`]). Each form
//! implements [`SpatialIndex`], with one result type ([`QueryOutput`])
//! and one statistics type ([`QueryStats`]). The R-Tree family the paper
//! races FLAT against lives in [`neurospatial_rtree`] and is called
//! there directly.
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(1).neurons(4).build();
//! let params = IndexParams::default().sharded(2);
//! let q = Aabb::cube(circuit.bounds().center(), 20.0);
//! let segments = circuit.segments().to_vec();
//! let mono: FlatIndex<NeuronSegment> = SpatialIndex::build(segments.clone(), &params);
//! let sharded = ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(segments, &params);
//! let out = SpatialIndex::range_query(&mono, &q);
//! assert_eq!(out.stats.results as usize, out.segments.len());
//! assert_eq!(out.sorted_ids(), sharded.range_query(&q).sorted_ids());
//! ```

use crate::error::NeuroError;
#[cfg(doc)]
use crate::shard::ShardedIndex;
use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatQueryStats, FlatScratch, PageGraph};
use neurospatial_geom::{Aabb, Flow, Vec3};
use neurospatial_model::NeuronSegment;
use neurospatial_scout::{write_flat_index, OocConfig, OocFlatIndex};
use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable per-query state for
/// [`SpatialIndex::try_for_each_in_range`] and everything built on it:
/// create one per worker thread, reuse it across an entire batch. After
/// the first few queries have grown the buffers, steady-state queries
/// perform **zero** heap allocations (held by the `zero_alloc` test in
/// `neurospatial-bench`).
///
/// Fields are public so custom [`SpatialIndex`] implementations can use
/// the same buffers in their own traversal.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// FLAT seed-and-crawl state (crawl front, visited-page marks, seed
    /// tree scratch).
    pub flat: FlatScratch,
    /// Out-of-core FLAT state (crawl front, visited marks, page-decode
    /// buffer) for the paged index.
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

/// Build parameters of a FLAT index.
///
/// `page_capacity` is FLAT's objects per page, the quantity the paper's
/// experiments vary to equalise "objects per disk page". A value of 0 is
/// clamped to 1, so every build entry point is total;
/// [`crate::NeuroDbBuilder`] reports it as [`NeuroError::InvalidConfig`]
/// instead.
///
/// `shards` and `threads` only affect the sharded executor
/// ([`ShardedIndex`]): a monolithic index ignores them, so the same
/// parameter block can configure both sides of a sharded-vs-monolithic
/// race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexParams {
    /// Objects per page (per shard, when sharded).
    pub page_capacity: usize,
    /// Space partitions for [`ShardedIndex`] (clamped to >= 1; a
    /// monolithic index ignores it).
    pub shards: usize,
    /// Worker threads for sharded query execution (clamped to >= 1; a
    /// monolithic index ignores it).
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

/// Unified per-query statistics, one schema for every form of the index —
/// the demo's "disk pages retrieved" panel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Objects returned.
    pub results: u64,
    /// Index pages read: FLAT's data pages. The cost proxy the paper's
    /// tables compare.
    pub nodes_read: u64,
    /// Objects tested against the query region (filter work).
    pub objects_tested: u64,
    /// Reserved: always 0. FLAT's crawl reaches every page it must read
    /// from one seed, so it never re-seeds; the field stays because each
    /// `DONE` frame of the wire protocol carries it.
    pub reseeds: u64,
    /// Paged (out-of-core) index only: demand page reads served from
    /// the buffer pool without touching the disk. 0 in memory.
    pub cache_hits: u64,
    /// Paged index only: demand page reads that stalled on the disk. 0
    /// in memory.
    pub cache_misses: u64,
    /// Paged index only: frames evicted from the buffer pool while this
    /// query ran. 0 in memory.
    pub cache_evictions: u64,
    /// Paged index only: transient page-read failures recovered by the
    /// bounded-retry path. 0 in memory and on healthy media.
    pub retries: u64,
    /// Paged index only: quarantined pages this query skipped. Always
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
            nodes_read: s.pages_read,
            objects_tested: s.objects_tested,
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
    /// Shards the executor manages (1 for a monolithic index).
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
    /// indexes against each other or against a scan.
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
/// the forms of the index and across shard counts, which is what the equivalence suite
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
/// one place they can panic. An in-memory index never fails; a paged
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
/// Implemented by FLAT in memory and paged, and by the sharded executor
/// over either; every implementation must return exactly the segments a
/// brute-force scan would (property-tested in `tests/model.rs`).
///
/// An index implements **one** range traversal,
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

    /// Downcast escape hatch: the concrete index behind a
    /// `&dyn SpatialIndex`. `self` in every implementation.
    ///
    /// ```
    /// use neurospatial::prelude::*;
    ///
    /// let c = CircuitBuilder::new(1).neurons(3).build();
    /// let db = NeuroDb::builder().circuit(&c).shards(2).build().unwrap();
    /// let idx = db.index();
    /// assert!(idx.as_any().downcast_ref::<ShardedIndex<FlatIndex<NeuronSegment>>>().is_some());
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

    /// The range traversal — the only query method an index implements.
    /// Every segment intersecting `region` is offered to `sink` exactly
    /// once, in the index's canonical emission order; the sink's
    /// [`Flow`] verdict decides whether it counts as a result
    /// ([`Flow::Emit`]), is filtered out below the traversal
    /// ([`Flow::Skip`] — not counted in `stats.results`), or ends the
    /// traversal immediately ([`Flow::Last`] — how a pushed-down limit
    /// stops reading index pages it no longer needs). Nothing is
    /// materialized, and all per-query working state (visit stacks, crawl
    /// queues, visited marks) lives in `scratch`.
    ///
    /// An in-memory index cannot fail and ignores `allow_partial`. The
    /// paged index surfaces storage failures as typed errors, or, with
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
    /// every form of the index, which keeps answers byte-identical across
    /// forms and shard counts.
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
    /// reports without executing anything. FLAT counts the pages the
    /// region actually overlaps, and the sharded executor reports real
    /// shard-pruning numbers.
    fn plan_range(&self, region: &Aabb) -> IndexPlan;

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

/// FLAT's plan, in memory or paged: the page MBRs and links are
/// metadata, so the plan walks them to count the exact data pages the
/// region meets, and reads no page.
pub(crate) fn flat_plan(graph: &PageGraph, region: &Aabb) -> IndexPlan {
    let mut pages = Vec::new();
    graph.pages_intersecting(region, &mut FlatScratch::default(), &mut pages);
    IndexPlan {
        shards_total: 1,
        shards_probed: usize::from(!pages.is_empty()),
        estimated_reads: pages.len() as u64,
    }
}

/// Out-of-core FLAT: the in-memory index's results and logical statistics
/// from a page file and a bounded frame pool. `cache_*` are this query's
/// page hits and misses and the pool's evictions while it ran.
impl SpatialIndex for OocFlatIndex {
    /// Spills to a temp page file; panics if it cannot be written
    /// ([`crate::NeuroDbBuilder::paged`] returns that error).
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        spill_flat(segments, params.page_capacity, None, OocConfig::default())
            .unwrap_or_else(|e| panic!("paged FLAT build: cannot write the temp page file: {e}"))
    }

    fn len(&self) -> usize {
        OocFlatIndex::len(self)
    }

    fn bounds(&self) -> Aabb {
        OocFlatIndex::bounds(self)
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        let s = self.range_query_stream_partial(
            region,
            &mut scratch.paged,
            allow_partial,
            |_| {},
            sink,
        )?;
        Ok(QueryStats {
            cache_hits: s.io.cache_hits,
            cache_misses: s.io.cache_misses,
            cache_evictions: s.io.evictions,
            retries: s.io.retries,
            pages_quarantined: s.io.pages_quarantined,
            ..(&s.flat).into()
        })
    }

    fn plan_range(&self, region: &Aabb) -> IndexPlan {
        flat_plan(self.graph(), region)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        OocFlatIndex::memory_bytes(self)
    }
}

/// Build FLAT over `segments`, write it to `file` and reopen it
/// out-of-core. With no `file` it goes to a process-unique file in the
/// system temp directory, deleted when the index drops.
pub(crate) fn spill_flat(
    segments: Vec<NeuronSegment>,
    page_capacity: usize,
    file: Option<&std::path::Path>,
    config: OocConfig,
) -> Result<OocFlatIndex, NeuroError> {
    static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
    let n = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
    let temp = std::env::temp_dir()
        .join(format!("neurospatial-paged-{}-{n}.flatpages", std::process::id()));
    let path = file.unwrap_or(&temp);
    let params = FlatBuildParams::default().with_page_capacity(page_capacity.max(1));
    write_flat_index(&FlatIndex::build(segments, params), path)?;
    let mut paged = OocFlatIndex::open(path, config)?;
    paged.set_delete_on_drop(file.is_none());
    Ok(paged)
}

/// The index a [`crate::NeuroDb`] is built on. FLAT is the only one:
/// the R-Tree family stays in [`neurospatial_rtree`], as FLAT's
/// baselines in the paper's tables and as TOUCH's A-side tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexBackend {
    /// FLAT seed-and-crawl (density-independent; the paper's design).
    Flat,
}

impl IndexBackend {
    /// Canonical name (the one [`fmt::Display`] prints).
    pub fn name(&self) -> &'static str {
        match self {
            IndexBackend::Flat => "flat",
        }
    }
}

impl fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedIndex;
    use neurospatial_model::CircuitBuilder;

    fn flat(segments: Vec<NeuronSegment>) -> FlatIndex<NeuronSegment> {
        SpatialIndex::build(segments, &IndexParams::default())
    }

    /// FLAT in each form a frozen database can hold it: in memory,
    /// sharded, and paged over a pool smaller than the file.
    fn forms(segments: &[NeuronSegment]) -> [(&'static str, Box<dyn SpatialIndex>); 3] {
        let params = IndexParams::with_page_capacity(32).sharded(3).threaded(2);
        [
            ("flat", Box::new(flat(segments.to_vec()))),
            (
                "sharded:flat",
                Box::new(ShardedIndex::<FlatIndex<_>>::build_with(segments.to_vec(), &params)),
            ),
            ("paged", Box::new(spill(segments.to_vec(), 3))),
        ]
    }

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(IndexBackend::Flat.name(), "flat");
        assert_eq!(IndexBackend::Flat.to_string(), IndexBackend::Flat.name());
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
        for (b, idx) in forms(c.segments()) {
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
        let idx = flat(c.segments().to_vec());
        let regions: Vec<Aabb> = (0..5)
            .map(|i| Aabb::cube(c.segments()[i * 7].geom.center(), 10.0 + i as f64))
            .collect();
        let batch = idx.range_query_many(&regions);
        assert_eq!(batch.len(), regions.len());
        for (out, r) in batch.iter().zip(&regions) {
            assert_eq!(out.sorted_ids(), SpatialIndex::range_query(&idx, r).sorted_ids());
        }
    }

    #[test]
    fn knn_default_matches_brute_force_on_every_backend() {
        let c = CircuitBuilder::new(4).neurons(6).build();
        let segments = c.segments().to_vec();
        for (b, idx) in forms(&segments) {
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

    fn spill(segments: Vec<NeuronSegment>, budget: usize) -> OocFlatIndex {
        let config = OocConfig::default().with_frame_budget(budget);
        spill_flat(segments, 32, None, config).expect("temp page file")
    }

    #[test]
    fn paged_flat_matches_in_memory_flat_exactly() {
        let segs = CircuitBuilder::new(11).neurons(10).build().into_segments();
        let mem: FlatIndex<NeuronSegment> =
            FlatIndex::build(segs.clone(), FlatBuildParams::default().with_page_capacity(32));
        let paged = spill(segs, 3);
        for r in [5.0, 20.0, 60.0] {
            let q = Aabb::cube(mem.bounds().center(), r);
            let want = SpatialIndex::range_query(&mem, &q);
            let got = paged.range_query(&q);
            assert_eq!(want.sorted_ids(), got.sorted_ids());
            // Logical counters agree field by field; only cache_* differ.
            assert_eq!(want.stats.results, got.stats.results);
            assert_eq!(want.stats.nodes_read, got.stats.nodes_read);
            assert_eq!(want.stats.objects_tested, got.stats.objects_tested);
            assert_eq!(want.stats.reseeds, got.stats.reseeds);
            assert_eq!(want.stats.cache_hits + want.stats.cache_misses, 0);
            assert!(got.stats.cache_hits + got.stats.cache_misses > 0);
        }
    }

    #[test]
    fn paged_flat_scratch_and_plan_paths_work() {
        let paged = spill(CircuitBuilder::new(11).neurons(8).build().into_segments(), 2);
        let q = Aabb::cube(paged.bounds().center(), 30.0);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let s1 = paged.range_query_into_scratch(&q, &mut scratch, &mut out);
        let buffered = paged.range_query(&q);
        assert_eq!(out.len(), buffered.segments.len());
        assert_eq!(s1.results, buffered.stats.results);
        let plan = paged.plan_range(&q);
        assert!(plan.estimated_reads > 0);
        // KNN rides the trait default over the paged range path.
        let (nn, _) = paged.knn(paged.bounds().center(), 5);
        assert_eq!(nn.len(), 5.min(paged.len()));
    }

    #[test]
    fn knn_edge_cases() {
        let c = CircuitBuilder::new(4).neurons(2).build();
        let idx = flat(c.segments().to_vec());
        assert!(idx.knn(Vec3::ZERO, 0).0.is_empty());
        let (all, _) = idx.knn(Vec3::ZERO, c.segments().len() + 10);
        assert_eq!(all.len(), c.segments().len(), "k > n returns everything");
        let empty = flat(Vec::new());
        assert!(empty.knn(Vec3::ZERO, 3).0.is_empty());
    }
}
