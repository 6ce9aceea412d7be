//! The out-of-core FLAT backend: FLAT's page neighborhoods on the real
//! pager, behind the same [`SpatialIndex`] trait as every in-memory
//! backend.
//!
//! [`PagedFlatIndex`] wraps the scout crate's paged engine
//! ([`OocFlatIndex`]): segments live in a checksummed page file on disk,
//! a bounded frame pool keeps a configurable number of pages resident,
//! and background workers prefetch pages ahead of the crawl. Logical
//! results and seed-and-crawl statistics are **byte-identical** to the
//! in-memory [`FlatIndex`] (property-tested in
//! `tests/ooc_equivalence.rs`); the physical I/O counters surface
//! through the `cache_*` fields of [`QueryStats`].
//!
//! ## Fallibility
//!
//! Disk-backed queries can fail in ways in-memory queries cannot:
//!
//! * **Open-time**: [`PagedFlatIndex::open`] / [`PagedFlatIndex::create`] validate the
//!   header, metadata and — with [`OocConfig::validate_pages`] (the
//!   default) — every page checksum, returning typed
//!   [`NeuroError::Storage`] errors. A corrupt file never constructs an
//!   index.
//! * **Query-time**: [`SpatialIndex::try_for_each_in_range`] returns a
//!   typed error, which after a validated open can only mean the file
//!   rotted or was truncated *while the database was serving*; with
//!   `allow_partial` it skips quarantined pages and labels the loss. The
//!   trait's infallible provided methods (`range_query`, `knn`, …) panic
//!   on that error at one site; callers that want to survive post-open
//!   media failure use the primitive or the fallible terminals of
//!   [`crate::query`].

use crate::error::NeuroError;
use crate::index::{IndexParams, IndexPlan, QueryScratch, QueryStats, SpatialIndex};
use neurospatial_flat::{FlatBuildParams, FlatIndex};
use neurospatial_geom::{Aabb, Flow};
use neurospatial_model::NeuronSegment;
use neurospatial_scout::{write_flat_index, OocConfig, OocFlatIndex, OocQueryStats};
use neurospatial_storage::FrameStats;
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lift a paged query's statistics into the unified schema: the logical
/// counters map exactly as the in-memory FLAT conversion does, and the
/// physical I/O counters land in the `cache_*` fields.
pub(crate) fn unified_stats(s: &OocQueryStats) -> QueryStats {
    QueryStats {
        results: s.flat.results,
        nodes_read: s.flat.pages_read + s.flat.seed_nodes_read,
        objects_tested: s.flat.objects_tested,
        reseeds: s.flat.reseeds,
        cache_hits: s.io.cache_hits,
        cache_misses: s.io.cache_misses,
        cache_evictions: s.io.evictions,
        retries: s.io.retries,
        pages_quarantined: s.io.pages_quarantined,
    }
}

/// A page file written by [`PagedFlatIndex::create`] into the system
/// temp directory gets a process-unique name, so concurrent test
/// processes (and concurrent builds within one process) never collide.
fn temp_page_file() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("neurospatial-paged-{}-{n}.flatpages", std::process::id()))
}

/// Out-of-core FLAT: the seed-and-crawl engine over a disk-resident
/// page file and a bounded buffer pool.
///
/// ```
/// use neurospatial::paged::PagedFlatIndex;
/// use neurospatial::prelude::*;
/// use neurospatial::scout::OocConfig;
///
/// let circuit = CircuitBuilder::new(7).neurons(8).build();
/// // Spill to a temp page file, keep at most 4 pages in RAM.
/// let paged = PagedFlatIndex::create_temp(
///     circuit.segments().to_vec(),
///     FlatBuildParams::default().with_page_capacity(32),
///     OocConfig::default().with_frame_budget(4),
/// )
/// .expect("temp dir is writable");
/// let q = Aabb::cube(circuit.bounds().center(), 20.0);
/// let out = paged.range_query(&q);
/// assert_eq!(out.stats.results as usize, out.segments.len());
/// // Physical I/O shows up in the unified statistics.
/// assert!(out.stats.cache_hits + out.stats.cache_misses >= out.stats.nodes_read / 2);
/// ```
pub struct PagedFlatIndex {
    ooc: OocFlatIndex,
}

impl std::fmt::Debug for PagedFlatIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedFlatIndex").field("ooc", &self.ooc).finish()
    }
}

impl PagedFlatIndex {
    /// Build an in-memory FLAT index over `segments`, persist it to
    /// `path` and reopen it out-of-core. The file stays on disk after
    /// drop — this is the "index once, explore many sessions" lane.
    pub fn create(
        segments: Vec<NeuronSegment>,
        params: FlatBuildParams,
        path: &Path,
        config: OocConfig,
    ) -> Result<Self, NeuroError> {
        let index = FlatIndex::build(segments, params);
        write_flat_index(&index, path)?;
        drop(index); // spill complete: RAM cost is now frames + metadata
        Self::open(path, config)
    }

    /// [`create`](Self::create) into a process-unique file in the system
    /// temp directory; the file is deleted when the index drops.
    pub fn create_temp(
        segments: Vec<NeuronSegment>,
        params: FlatBuildParams,
        config: OocConfig,
    ) -> Result<Self, NeuroError> {
        let path = temp_page_file();
        let mut paged = Self::create(segments, params, &path, config)?;
        paged.ooc.set_delete_on_drop(true);
        Ok(paged)
    }

    /// Open an existing page file written by
    /// [`write_flat_index`] / [`create`](Self::create). Corrupt,
    /// truncated or foreign files are rejected with a typed
    /// [`NeuroError::Storage`] — never a panic.
    pub fn open(path: &Path, config: OocConfig) -> Result<Self, NeuroError> {
        Ok(PagedFlatIndex { ooc: OocFlatIndex::open(path, config)? })
    }

    /// The underlying paged engine (frame pool, prefetcher, page-file
    /// metadata).
    pub fn ooc(&self) -> &OocFlatIndex {
        &self.ooc
    }

    /// Snapshot of the frame pool's cumulative counters.
    pub fn frame_stats(&self) -> FrameStats {
        self.ooc.pool().stats()
    }

    /// The backing page file's path.
    pub fn path(&self) -> &Path {
        self.ooc.path()
    }

    /// Number of data pages in the page file.
    pub fn page_count(&self) -> usize {
        self.ooc.page_count()
    }

    /// Pages quarantined after permanent read failures, ascending.
    /// Non-empty means the index is serving degraded: strict queries
    /// touching these pages fail, partial queries skip them.
    pub fn quarantined_pages(&self) -> Vec<u64> {
        self.ooc.quarantined_pages()
    }

    /// Whether any page is quarantined — the health signal the server's
    /// HEALTH opcode reports.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined_pages().is_empty()
    }
}

impl SpatialIndex for PagedFlatIndex {
    /// Build via a temp page file with the default out-of-core
    /// configuration (all pages cacheable, checksums validated at open).
    /// Panics if the temp directory is not writable — the registry/trait
    /// build lane has no error channel; use
    /// [`PagedFlatIndex::create`] to handle that case.
    fn build(segments: Vec<NeuronSegment>, params: &IndexParams) -> Self {
        Self::create_temp(
            segments,
            FlatBuildParams::default().with_page_capacity(params.page_capacity.max(1)),
            OocConfig::default(),
        )
        .unwrap_or_else(|e| panic!("paged FLAT build: cannot write the temp page file: {e}"))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn len(&self) -> usize {
        self.ooc.len()
    }

    fn bounds(&self) -> Aabb {
        self.ooc.bounds()
    }

    fn try_for_each_in_range(
        &self,
        region: &Aabb,
        scratch: &mut QueryScratch,
        allow_partial: bool,
        sink: &mut dyn FnMut(&NeuronSegment) -> Flow,
    ) -> Result<QueryStats, NeuroError> {
        let stats = self.ooc.range_query_stream_partial(
            region,
            &mut scratch.paged,
            allow_partial,
            |_| {},
            |s| sink(s),
        )?;
        Ok(unified_stats(&stats))
    }

    fn plan_range(&self, region: &Aabb) -> IndexPlan {
        // Same exact plan as in-memory FLAT: the page MBRs are metadata,
        // resident in RAM, so planning still costs no page I/O.
        let pages = self.ooc.pages_intersecting(region).len() as u64;
        IndexPlan {
            shards_total: 1,
            shards_probed: usize::from(pages > 0),
            estimated_reads: if pages == 0 {
                0
            } else {
                pages + self.ooc.seed_tree_height() as u64
            },
        }
    }

    fn memory_bytes(&self) -> usize {
        self.ooc.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_model::CircuitBuilder;

    fn segments(neurons: u32) -> Vec<NeuronSegment> {
        CircuitBuilder::new(11).neurons(neurons).build().into_segments()
    }

    fn build_paged(neurons: u32, budget: usize) -> PagedFlatIndex {
        PagedFlatIndex::create_temp(
            segments(neurons),
            FlatBuildParams::default().with_page_capacity(32),
            OocConfig::default().with_frame_budget(budget),
        )
        .expect("temp page file")
    }

    #[test]
    fn matches_in_memory_flat_exactly() {
        let segs = segments(10);
        let mem: FlatIndex<NeuronSegment> =
            FlatIndex::build(segs.clone(), FlatBuildParams::default().with_page_capacity(32));
        let paged = PagedFlatIndex::create_temp(
            segs,
            FlatBuildParams::default().with_page_capacity(32),
            OocConfig::default().with_frame_budget(3),
        )
        .expect("temp page file");
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
    fn scratch_and_plan_paths_work() {
        let paged = build_paged(8, 2);
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
    fn open_rejects_garbage_with_typed_error() {
        let path = temp_page_file();
        std::fs::write(&path, b"not a page file at all").expect("write");
        let Err(err) = PagedFlatIndex::open(&path, OocConfig::default()) else {
            panic!("garbage must not open");
        };
        assert!(matches!(err, NeuroError::Storage(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }
}
