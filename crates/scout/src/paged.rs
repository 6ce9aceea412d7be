//! The index abstraction an exploration session replays against.
//!
//! SCOUT's simulator charges I/O at *page* granularity, so it needs more
//! than a plain range query: the index must report which data page each
//! result came from, and translate predicted regions into page ids for
//! prefetching. Any paged spatial index can drive a session by
//! implementing [`PagedIndex`]; FLAT is the canonical implementation
//! (and the one the demo uses), making [`super::ExplorationSession`]
//! `Box<dyn SpatialIndex>`-style pluggable without coupling this crate
//! to the facade's trait.

use neurospatial_flat::{FlatIndex, FlatScratch, PageAccess};
use neurospatial_geom::{Aabb, Flow};
use neurospatial_model::NeuronSegment;

/// A spatial index with page-granular I/O, as required by the session
/// simulator and the prefetchers.
pub trait PagedIndex {
    /// Reusable per-query working state for
    /// [`paged_range_query_scratch`](Self::paged_range_query_scratch).
    /// The session simulator creates one per walkthrough and reuses it
    /// across every step, so steady-state steps stop allocating
    /// traversal state. Indexes with no reusable state can use `()`.
    type Scratch: Default;

    /// Number of indexed segments.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of data pages (page ids are `0..page_count`).
    fn page_count(&self) -> usize;

    /// Ids of the pages a region would touch — metadata only, no data
    /// page access. Prefetchers use this to turn predicted regions into
    /// page requests.
    fn pages_intersecting(&self, region: &Aabb) -> Vec<u32>;

    /// Execute a range query, invoking `on_page` once per data page
    /// read (in access order). Returns the matching segments.
    fn paged_range_query<'a>(
        &'a self,
        region: &Aabb,
        on_page: &mut dyn FnMut(u32),
    ) -> Vec<&'a NeuronSegment>;

    /// Buffer-reusing form of
    /// [`paged_range_query`](Self::paged_range_query): matches append to
    /// `out`, per-query traversal state lives in `scratch`. Same page
    /// visit order, same matches. The default ignores the scratch and
    /// delegates; FLAT (monolithic and sharded) overrides with its
    /// allocation-free crawl.
    fn paged_range_query_scratch<'a>(
        &'a self,
        region: &Aabb,
        scratch: &mut Self::Scratch,
        on_page: &mut dyn FnMut(u32),
        out: &mut Vec<&'a NeuronSegment>,
    ) {
        let _ = scratch;
        out.extend(self.paged_range_query(region, on_page));
    }
}

impl PagedIndex for FlatIndex<NeuronSegment> {
    type Scratch = FlatScratch;

    fn len(&self) -> usize {
        FlatIndex::len(self)
    }

    fn page_count(&self) -> usize {
        FlatIndex::page_count(self)
    }

    fn pages_intersecting(&self, region: &Aabb) -> Vec<u32> {
        FlatIndex::pages_intersecting(self, region)
    }

    fn paged_range_query<'a>(
        &'a self,
        region: &Aabb,
        on_page: &mut dyn FnMut(u32),
    ) -> Vec<&'a NeuronSegment> {
        let (hits, _) = self.range_query_with(region, |access| {
            if let PageAccess::Data(p) = access {
                on_page(p);
            }
        });
        hits
    }

    fn paged_range_query_scratch<'a>(
        &'a self,
        region: &Aabb,
        scratch: &mut FlatScratch,
        on_page: &mut dyn FnMut(u32),
        out: &mut Vec<&'a NeuronSegment>,
    ) {
        self.range_query_stream(region, scratch, on_page, |o| {
            out.push(o);
            Flow::Emit
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_flat::FlatBuildParams;
    use neurospatial_model::CircuitBuilder;

    #[test]
    fn flat_satisfies_the_contract() {
        let c = CircuitBuilder::new(3).neurons(4).build();
        let idx = FlatIndex::build(
            c.segments().to_vec(),
            FlatBuildParams::default().with_page_capacity(32),
        );
        let q = Aabb::cube(c.bounds().center(), 25.0);
        let mut pages = Vec::new();
        let hits = idx.paged_range_query(&q, &mut |p| pages.push(p));
        let brute = c.segments().iter().filter(|s| s.aabb().intersects(&q)).count();
        assert_eq!(hits.len(), brute);
        // Each page read at most once, and every id is valid.
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pages.len());
        assert!(pages.iter().all(|&p| (p as usize) < PagedIndex::page_count(&idx)));
    }
}
