//! # neurospatial-flat
//!
//! FLAT — the range-query execution strategy for dense spatial datasets
//! described in §2 of the demo paper (full algorithm in Tauheed et al.,
//! "Accelerating Range Queries for Brain Simulations", ICDE'12).
//!
//! ## How it works
//!
//! **Indexing phase.** Objects are sorted along the 3-D Hilbert curve and
//! packed into fixed-capacity *pages*. For every page FLAT records its
//! *neighborhood*: the pages whose (ε-inflated) MBR intersects its own.
//! A small STR-packed R-Tree is built over the page MBRs only — orders of
//! magnitude fewer entries than an object-level R-Tree. Beside the
//! objects, in the same page order, the build keeps every object's box as
//! six `f32` *lanes* (24 B per object), and one flag per page saying
//! that every box on it is finite and non-empty.
//!
//! **Query phase.** A range query `q` is answered in two steps:
//!
//! 1. *Seed*: descend the page R-Tree to find **one** page intersecting
//!    `q` (cost ≈ tree height, independent of data density);
//! 2. *Crawl*: starting from the seed, breadth-first-visit neighborhood
//!    links, reading every reached page whose MBR intersects `q` and
//!    collecting its objects inside `q`. Neighbors outside `q` are not
//!    followed — the crawl cost depends only on the *result size*.
//!
//! Both steps are independent of how dense the dataset is, which is the
//! paper's headline property.
//!
//! One loop (in [`query`]) runs every crawl, and it decides each thing
//! once:
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
//! - **A neighbor page** has its MBR tested the first time any link
//!   reaches it, and the verdict is remembered for the rest of the query
//!   whichever way it went: an accepted page joins the crawl front, a
//!   rejected one is marked and never examined again, however many
//!   visited pages link to it.
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
//! The pages intersecting `q` are not guaranteed to form a connected
//! subgraph of the neighborhood graph (sparse datasets can leave gaps),
//! so after the crawl front empties the executor *re-seeds* on any
//! not-yet-visited page intersecting `q`. Re-seeding generalises the seed
//! step and makes FLAT exact on arbitrary data; on the dense datasets
//! FLAT targets it almost never triggers (the statistic is reported per
//! query as [`FlatQueryStats::reseeds`]). Marking rejected pages does not
//! disturb it: the re-seed check only ever asks about pages the seed
//! tree returns for `q`, and a rejected page's MBR misses `q`. The check
//! is skipped once the crawl has read a page whose MBR contains `q`:
//! every page meeting `q` is linked to that one, so the crawl has
//! already reached it (proof in [`query`]).
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
pub use query::FlatScratch;
pub use stats::{FlatBuildStats, FlatQueryStats, PageAccess};

use neurospatial_geom::Aabb;
use neurospatial_rtree::{RTree, RTreeObject};

/// Entry of the seed tree: one page's MBR.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageEntry {
    pub mbr: Aabb,
    pub page: u32,
}

impl RTreeObject for PageEntry {
    fn aabb(&self) -> Aabb {
        self.mbr
    }
}

/// One FLAT data page: a contiguous run of objects in Hilbert order.
#[derive(Debug, Clone)]
pub(crate) struct FlatPage {
    pub mbr: Aabb,
    /// Index range into `FlatIndex::objects`.
    pub start: u32,
    pub end: u32,
    /// Every box on the page is finite and non-empty, so a query that
    /// contains `mbr` contains them all.
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
    /// Adjacency lists of the page neighborhood graph (CSR layout).
    pub(crate) neighbor_offsets: Vec<u32>,
    pub(crate) neighbor_ids: Vec<u32>,
    pub(crate) seed_tree: RTree<PageEntry>,
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
    /// O(1): the seed tree's root MBR is exactly the union of all page
    /// MBRs.
    pub fn bounds(&self) -> Aabb {
        self.seed_tree.root_mbr()
    }

    /// Statistics recorded while building.
    pub fn build_stats(&self) -> &FlatBuildStats {
        &self.build_stats
    }

    /// Build parameters.
    pub fn params(&self) -> &FlatBuildParams {
        &self.params
    }

    /// Total number of directed neighborhood links.
    pub fn neighbor_count(&self) -> u64 {
        self.neighbor_ids.len() as u64
    }

    /// Mean neighborhood size (links per page).
    pub fn mean_neighbors(&self) -> f64 {
        if self.pages.is_empty() {
            return 0.0;
        }
        self.neighbor_ids.len() as f64 / self.pages.len() as f64
    }

    /// The neighborhood graph in its raw CSR form:
    /// `(offsets, ids)` with `neighbors_of(p) == ids[offsets[p]..offsets[p+1]]`.
    ///
    /// This is the serialization-friendly view — the out-of-core writer
    /// persists both arrays verbatim so the paged engine crawls exactly
    /// the same links.
    pub fn neighbor_csr(&self) -> (&[u32], &[u32]) {
        (&self.neighbor_offsets, &self.neighbor_ids)
    }

    /// Neighbor pages of `page`.
    pub fn neighbors_of(&self, page: u32) -> &[u32] {
        let a = self.neighbor_offsets[page as usize] as usize;
        let b = self.neighbor_offsets[page as usize + 1] as usize;
        &self.neighbor_ids[a..b]
    }

    /// MBR of a page.
    pub fn page_mbr(&self, page: u32) -> Aabb {
        self.pages[page as usize].mbr
    }

    /// Objects stored on a page.
    pub fn page_objects(&self, page: u32) -> &[T] {
        let p = &self.pages[page as usize];
        &self.objects[p.start as usize..p.end as usize]
    }

    /// Ids of all pages whose MBR intersects `q`, via the seed tree.
    ///
    /// This is metadata-only (no data-page access) — prefetchers use it to
    /// translate predicted regions into page ids.
    pub fn pages_intersecting(&self, q: &Aabb) -> Vec<u32> {
        let (entries, _) = self.seed_tree.range_query(q);
        entries.into_iter().map(|e| e.page).collect()
    }

    /// Rough memory footprint (bytes): objects + their lanes + page table
    /// (MBR, range and flag per page) + adjacency + seed tree.
    pub fn memory_bytes(&self) -> usize {
        self.objects.capacity() * std::mem::size_of::<T>()
            + self.lanes.capacity() * std::mem::size_of::<f32>()
            + self.pages.capacity() * std::mem::size_of::<FlatPage>()
            + self.neighbor_ids.capacity() * 4
            + self.neighbor_offsets.capacity() * 4
            + self.seed_tree.memory_bytes()
    }

    /// The seed R-Tree height — the seed phase cost bound.
    pub fn seed_tree_height(&self) -> usize {
        self.seed_tree.height()
    }
}
