//! # neurospatial-flat
//!
//! FLAT — the range-query execution strategy for dense spatial datasets
//! described in §2 of the demo paper (full algorithm in Tauheed et al.,
//! "Accelerating Range Queries for Brain Simulations", ICDE'12).
//!
//! ## How it works
//!
//! **Indexing phase.** Objects are sorted along the 3-D Hilbert curve and
//! packed into fixed-capacity *pages*. The pages also tile the curve's
//! grid: each owns the cells from its first object's key up to the next
//! page's first key, and gets a *box*, its MBR and the bounding box of
//! its cells rounded outward. For every page FLAT records its
//! *neighborhood*: the pages whose box meets its own. Beside the
//! objects, in the same page order, the build keeps every object's box as
//! six `f32` *lanes* (24 B per object), and one flag per page saying
//! that every box on it is finite and non-empty.
//!
//! **Query phase.** A range query `q` is answered in two steps:
//!
//! 1. *Seed*: the page owning the first cell, in curve order, of the
//!    cells `q` covers — a descent of the curve's state table and a
//!    binary search of the pages' first keys (cost ≈ the curve's order,
//!    independent of data density);
//! 2. *Crawl*: starting from the seed, breadth-first-visit neighborhood
//!    links to every page whose box meets `q`, reading those whose MBR
//!    meets `q` and collecting their objects inside `q`. Neighbors whose
//!    box misses `q` are not followed — the crawl cost depends only on
//!    the *result size* and the pages around it.
//!
//! Both steps are independent of how dense the dataset is, which is the
//! paper's headline property.
//!
//! One loop, [`PageGraph::crawl`] (in [`query`]), runs every crawl: this
//! index's and that of the paged engine in `neurospatial-scout`, which
//! supplies only how a page is read from its file, and one page kernel,
//! [`scan_page`], reads every page of both: the paged engine decodes a
//! page into the same layout ([`write_page_lanes`]) when it loads it.
//! The page MBRs and boxes, the links and the tiling form the
//! [`PageGraph`] both engines hold.
//! [`FlatIndex::range_query_stream`] and [`FlatIndex::range_query_with`]
//! take one hook, fired with each page read. The crawl decides each
//! thing once:
//!
//! - **A page wholly inside `q`** (`q` contains its MBR, and its flag is
//!   set) is emitted without testing any object.
//! - **Any other page** is scanned 64 objects at a time over the lanes
//!   into two branch-free bitmasks: `maybe` (the lane box meets `q`
//!   rounded outward to `f32`) and `sure` (the lane box meets `q` shrunk
//!   inward by one `f32` step per face). Objects outside `maybe` are
//!   misses, objects in `sure` are hits, and only `maybe & !sure` —
//!   boxes with a face within two `f32` steps of a face of `q`, about
//!   one object in 10⁴ on neuron tissue — is decided by the exact
//!   `aabb().intersects(q)`.
//! - **A neighbor page** has its box tested the first time any link
//!   reaches it, and the verdict is remembered for the rest of the query
//!   whichever way it went: an accepted page joins the crawl front, a
//!   rejected one is marked and never examined again, however many
//!   walked pages link to it.
//!
//! ## Exactness
//!
//! The answer is the closed-interval `f64` answer of
//! `aabb().intersects(q)` on every object, in page-then-slot order. The
//! lanes only sort objects into certain misses, certain hits and the
//! sliver that the exact test decides. The lanes hold each face rounded
//! to the nearest `f32` and the query carries the slack (outward for
//! `maybe`, inward for `sure`); rounding is monotone, which makes the
//! first two verdicts safe for every input, including coordinates `f32`
//! cannot represent, magnitudes beyond `f32::MAX` (which round to
//! `±∞`, or to `±f32::MAX` where the query rounds inward) and infinite
//! query faces. A NaN face fails every
//! comparison, in the lanes as in the exact test. Whole-page acceptance
//! is sound because a box with `lo ≤ hi` inside an MBR inside `q` meets
//! `q`; the page flag keeps empty and non-finite boxes, which an MBR
//! does not bound, on the tested path.
//!
//! The crawl reads every page whose MBR meets `q`, each once, from one
//! seed, on any data: sparse and clustered data, duplicate centres,
//! and empty, NaN and unbounded boxes. The pages' cells tile the grid, so
//! the cells `q` covers form a face-connected block whose owners' boxes
//! meet `q` and each other; every page whose MBR meets `q` shares a point
//! of `q` with the owner of that point's cell, so it is linked to the
//! block and admitted. No page is missed, so there is no re-seed and no
//! check after the crawl front drains (proof in [`query`]).
//!
//! ```
//! use neurospatial_flat::{FlatBuildParams, FlatIndex};
//! use neurospatial_geom::{Aabb, Vec3};
//!
//! let objs: Vec<Aabb> = (0..5000)
//!     .map(|i| {
//!         let f = i as f64 * 0.1;
//!         Aabb::cube(Vec3::new(f.sin() * 40.0, f.cos() * 40.0, f * 0.2), 1.0)
//!     })
//!     .collect();
//! let index = FlatIndex::build(objs, FlatBuildParams::default());
//! let (hits, stats) = index.range_query(&Aabb::cube(Vec3::new(0.0, 40.0, 1.0), 5.0));
//! assert!(!hits.is_empty());
//! assert_eq!(stats.results as usize, hits.len());
//! ```

#![forbid(unsafe_code)]

mod build;
mod lanes;
pub mod query;
pub mod stats;

pub use build::{FlatBuildParams, PackingStrategy};
pub use lanes::{write_page_lanes, PageQuery};
pub use query::{scan_page, FlatScratch, PageRef};
pub use stats::{FlatBuildStats, FlatQueryStats};

use neurospatial_geom::{hilbert_min_key_in, Aabb, HilbertSorter, Vec3};
use neurospatial_rtree::RTreeObject;

/// FLAT's page graph: every page's MBR and box, the links between boxes
/// in CSR form, and the tiling of the Hilbert grid the boxes come from.
/// It is all a crawl knows of the index ([`PageGraph::crawl`]); how a
/// page's objects are read is the caller's, in memory or from a page
/// file.
///
/// The tiling: the pages, ordered by their *first key* (ties by page
/// id), each own the grid cells from their first key up to the next
/// page's, the first page from key 0 and the last to the end of the
/// curve. A page's box holds its MBR and its cells
/// ([`HilbertSorter::cells_box`]). The crawl's proof of completeness
/// rests on these two facts (see [`query`]).
#[derive(Debug, Clone)]
pub struct PageGraph {
    mbrs: Vec<Aabb>,
    boxes: Vec<Aabb>,
    neighbor_offsets: Vec<u32>,
    neighbor_ids: Vec<u32>,
    /// The grid the first keys are keys of.
    grid: HilbertSorter,
    /// First keys, ascending, and the page each belongs to.
    keys: Vec<u64>,
    owners: Vec<u32>,
    /// Union of the page MBRs.
    bounds: Aabb,
}

impl PageGraph {
    /// The graph of pages with MBRs `mbrs` and boxes `boxes`, page `p`
    /// linked to `neighbor_ids[neighbor_offsets[p]..neighbor_offsets[p +
    /// 1]]`, and page `p`'s cells starting at `first_keys[p]` on `grid`.
    /// The boxes and links must be the build's: a box holds its page's
    /// MBR (corners in order) and cells, and `u` links `v` iff `u != v`
    /// and their boxes meet. The crawl is exact only then (see [`query`]).
    pub fn new(
        mbrs: Vec<Aabb>,
        boxes: Vec<Aabb>,
        neighbor_offsets: Vec<u32>,
        neighbor_ids: Vec<u32>,
        grid: HilbertSorter,
        first_keys: &[u64],
    ) -> Self {
        let n = mbrs.len();
        assert_eq!((boxes.len(), first_keys.len()), (n, n), "one box and one key per page");
        assert_eq!(neighbor_offsets.len(), n + 1, "one offset per page, and the end");
        assert_eq!(neighbor_offsets.last().map(|&e| e as usize), Some(neighbor_ids.len()));
        let owners = tiling_order(first_keys);
        let keys = owners.iter().map(|&p| first_keys[p as usize]).collect();
        let bounds = mbrs.iter().fold(Aabb::EMPTY, |b, m| b.union(m));
        PageGraph { mbrs, boxes, neighbor_offsets, neighbor_ids, grid, keys, owners, bounds }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.mbrs.len()
    }

    /// Every page's MBR, by page id.
    pub fn mbrs(&self) -> &[Aabb] {
        &self.mbrs
    }

    /// MBR of a page.
    pub fn mbr(&self, page: u32) -> Aabb {
        self.mbrs[page as usize]
    }

    /// Every page's box (its MBR and its grid cells), by page id: what
    /// links pages and admits them to a crawl.
    pub fn boxes(&self) -> &[Aabb] {
        &self.boxes
    }

    /// The grid the tiling cuts.
    pub fn grid(&self) -> &HilbertSorter {
        &self.grid
    }

    /// Each page's first key, by page id: where its cells start.
    pub fn first_keys(&self) -> Vec<u64> {
        let mut out = vec![0; self.keys.len()];
        for (&k, &p) in self.keys.iter().zip(&self.owners) {
            out[p as usize] = k;
        }
        out
    }

    /// The page owning the grid cell of `p`.
    pub fn owner_of(&self, p: Vec3) -> u32 {
        self.owner_of_key(self.grid.key(p))
    }

    /// The page owning the cell of key `key`: the last page, in first-key
    /// order, whose first key is not above it.
    fn owner_of_key(&self, key: u64) -> u32 {
        self.owners[self.keys.partition_point(|&k| k <= key).saturating_sub(1)]
    }

    /// The crawl's seed for `r` (corners in order): the owner of the
    /// first cell, in curve order, of the block of cells `r`'s points
    /// quantise to. Its cells' boxes meet `r` (see [`query`]).
    pub(crate) fn seed(&self, r: &Aabb) -> u32 {
        let (lo, hi) = (self.grid.cell(r.lo), self.grid.cell(r.hi));
        self.owner_of_key(hilbert_min_key_in(self.grid.bits(), lo, hi))
    }

    /// Neighbor pages of `page`, ascending.
    pub fn neighbors_of(&self, page: u32) -> &[u32] {
        let a = self.neighbor_offsets[page as usize] as usize;
        let b = self.neighbor_offsets[page as usize + 1] as usize;
        &self.neighbor_ids[a..b]
    }

    /// The links in their raw CSR form, `(offsets, ids)`: what the
    /// out-of-core writer persists.
    pub fn neighbor_csr(&self) -> (&[u32], &[u32]) {
        (&self.neighbor_offsets, &self.neighbor_ids)
    }

    /// Mean neighborhood size (links per page).
    pub fn mean_neighbors(&self) -> f64 {
        if self.mbrs.is_empty() {
            return 0.0;
        }
        self.neighbor_ids.len() as f64 / self.mbrs.len() as f64
    }

    /// Union of the page MBRs (`Aabb::EMPTY` without pages).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The pages whose MBR meets `q`, into `out` (cleared first), in
    /// crawl order: the crawl with reads that record the page and read
    /// nothing. With warm buffers nothing is allocated.
    pub fn pages_intersecting(&self, q: &Aabb, scratch: &mut FlatScratch, out: &mut Vec<u32>) {
        out.clear();
        let read = |page, _: &mut FlatQueryStats| {
            out.push(page);
            Ok::<_, std::convert::Infallible>(false)
        };
        let Ok(_) = self.crawl(q, scratch, read, |_| {});
    }

    /// Bytes held: MBRs, boxes, links and the tiling's keys.
    pub fn memory_bytes(&self) -> usize {
        (self.mbrs.capacity() + self.boxes.capacity()) * std::mem::size_of::<Aabb>()
            + (self.neighbor_offsets.capacity() + self.neighbor_ids.capacity()) * 4
            + self.keys.capacity() * 8
            + self.owners.capacity() * 4
    }
}

/// The pages in the tiling's order: by first key, ties by page id.
pub(crate) fn tiling_order(first_keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..first_keys.len() as u32).collect();
    order.sort_by_key(|&p| first_keys[p as usize]);
    order
}

/// One FLAT data page: a contiguous run of objects in Hilbert order.
#[derive(Debug, Clone)]
pub(crate) struct FlatPage {
    /// Index range into `FlatIndex::objects`.
    pub start: u32,
    pub end: u32,
    /// Every box on the page is finite and non-empty, so a query that
    /// contains the page's MBR contains them all.
    pub all_valid: bool,
}

/// The FLAT index over objects of type `T`.
#[derive(Debug)]
pub struct FlatIndex<T: RTreeObject> {
    pub(crate) objects: Vec<T>,
    /// The objects' boxes in `f32`, rounded to nearest and blocked by page
    /// (layout in `lanes.rs`).
    pub(crate) lanes: Vec<f32>,
    pub(crate) pages: Vec<FlatPage>,
    pub(crate) graph: PageGraph,
    pub(crate) params: FlatBuildParams,
    pub(crate) build_stats: FlatBuildStats,
}

impl<T: RTreeObject> FlatIndex<T> {
    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Bounding box of every indexed object (`Aabb::EMPTY` when empty).
    pub fn bounds(&self) -> Aabb {
        self.graph.bounds()
    }

    /// The page graph: page MBRs and boxes, links and tiling.
    pub fn graph(&self) -> &PageGraph {
        &self.graph
    }

    /// Statistics recorded while building.
    pub fn build_stats(&self) -> &FlatBuildStats {
        &self.build_stats
    }

    /// Build parameters.
    pub fn params(&self) -> &FlatBuildParams {
        &self.params
    }

    /// Objects stored on a page.
    pub fn page_objects(&self, page: u32) -> &[T] {
        let p = &self.pages[page as usize];
        &self.objects[p.start as usize..p.end as usize]
    }

    /// Rough memory footprint (bytes): objects + their lanes + page table
    /// (range and flag per page) + page graph.
    pub fn memory_bytes(&self) -> usize {
        self.objects.capacity() * std::mem::size_of::<T>()
            + self.lanes.capacity() * std::mem::size_of::<f32>()
            + self.pages.capacity() * std::mem::size_of::<FlatPage>()
            + self.graph.memory_bytes()
    }
}
