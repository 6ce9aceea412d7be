//! FLAT indexing phase: Hilbert packing + neighborhood computation.

use crate::lanes::write_box;
use crate::stats::FlatBuildStats;
use crate::{FlatIndex, FlatPage, PageEntry};
use neurospatial_geom::{morton_encode3, Aabb, GridIndexer, HilbertSorter};
use neurospatial_rtree::{RTree, RTreeObject, RTreeParams};
use std::time::Instant;

/// How objects are linearised before being chunked into pages.
///
/// The ordering determines page MBR tightness (→ crawl size) and page-id
/// locality (→ how sequential the crawl's disk accesses are). The
/// experiment harness ablates all three (`experiments a1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackingStrategy {
    /// 3-D Hilbert curve order: best locality, the FLAT default.
    #[default]
    Hilbert,
    /// Morton (Z-order): cheaper to compute, worse locality at octant
    /// boundaries.
    Morton,
    /// Lexicographic (x, y, z) centre sort: the strawman — long thin
    /// pages with huge MBRs.
    CoordinateSort,
}

/// Parameters of the indexing phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatBuildParams {
    /// Objects per data page. The default matches an 8 KiB page of 64 B
    /// capsules.
    pub page_capacity: usize,
    /// Object linearisation used for page packing.
    pub packing: PackingStrategy,
    /// Neighborhood inflation ε: pages are linked when their MBRs,
    /// inflated by this distance, intersect. `0.0` links only pages whose
    /// MBRs touch; small positive values bridge hairline gaps between
    /// adjacent Hilbert runs and keep the crawl connected.
    pub neighbor_epsilon: f64,
    /// Hilbert curve resolution (bits per axis).
    pub hilbert_bits: u32,
    /// Fan-out of the seed R-Tree.
    pub seed_fanout: usize,
}

impl Default for FlatBuildParams {
    fn default() -> Self {
        FlatBuildParams {
            page_capacity: 128,
            packing: PackingStrategy::default(),
            neighbor_epsilon: 0.0,
            hilbert_bits: 16,
            seed_fanout: 64,
        }
    }
}

impl FlatBuildParams {
    pub fn with_page_capacity(mut self, c: usize) -> Self {
        assert!(c >= 1);
        self.page_capacity = c;
        self
    }

    pub fn with_neighbor_epsilon(mut self, e: f64) -> Self {
        assert!(e >= 0.0);
        self.neighbor_epsilon = e;
        self
    }

    pub fn with_packing(mut self, p: PackingStrategy) -> Self {
        self.packing = p;
        self
    }
}

impl<T: RTreeObject> FlatIndex<T> {
    /// Build the index. `O(n log n)` for the sort, `O(p · k)` for the
    /// neighborhood computation where `p` is the page count and `k` the
    /// mean number of grid candidates per page.
    pub fn build(mut objects: Vec<T>, params: FlatBuildParams) -> Self {
        // The crawl's re-seed skip relies on it (see `query.rs`).
        assert!(params.neighbor_epsilon >= 0.0, "neighbor_epsilon must be >= 0");
        let t0 = Instant::now();

        // --- 1. Linearise objects ----------------------------------------
        let bounds = objects.iter().fold(Aabb::EMPTY, |a, o| a.union(&o.aabb()));
        if !objects.is_empty() {
            match params.packing {
                PackingStrategy::Hilbert => {
                    let sorter = HilbertSorter::with_bits(bounds, params.hilbert_bits);
                    // Cache keys (sort_by_cached_key) — key computation dominates.
                    objects.sort_by_cached_key(|o| sorter.key(o.aabb().center()));
                }
                PackingStrategy::Morton => {
                    let e = bounds.extent();
                    let side = ((1u64 << params.hilbert_bits) - 1) as f64;
                    let scale = |v: f64, lo: f64, ext: f64| -> u32 {
                        if ext > 0.0 {
                            (((v - lo) / ext * side) as u64).min(side as u64) as u32
                        } else {
                            0
                        }
                    };
                    objects.sort_by_cached_key(|o| {
                        let c = o.aabb().center();
                        morton_encode3(
                            scale(c.x, bounds.lo.x, e.x),
                            scale(c.y, bounds.lo.y, e.y),
                            scale(c.z, bounds.lo.z, e.z),
                        )
                    });
                }
                PackingStrategy::CoordinateSort => {
                    objects.sort_by(|a, b| {
                        let (ca, cb) = (a.aabb().center(), b.aabb().center());
                        ca.x.partial_cmp(&cb.x)
                            .expect("finite")
                            .then(ca.y.partial_cmp(&cb.y).expect("finite"))
                            .then(ca.z.partial_cmp(&cb.z).expect("finite"))
                    });
                }
            }
        }
        let sort_ms = t0.elapsed().as_secs_f64() * 1e3;

        // --- 2. Pack pages ----------------------------------------------
        // One pass over each page's boxes gives its MBR, its lanes and its
        // flag.
        let t1 = Instant::now();
        let mut pages = Vec::with_capacity(objects.len().div_ceil(params.page_capacity.max(1)));
        let mut lanes = vec![0f32; 6 * objects.len()];
        let mut start = 0usize;
        while start < objects.len() {
            let end = (start + params.page_capacity).min(objects.len());
            let block = &mut lanes[6 * start..6 * end];
            let (mut mbr, mut all_valid) = (Aabb::EMPTY, true);
            for (i, o) in objects[start..end].iter().enumerate() {
                let b = o.aabb();
                mbr = mbr.union(&b);
                all_valid &= b.is_valid();
                write_box(block, end - start, i, &b);
            }
            pages.push(FlatPage { mbr, start: start as u32, end: end as u32, all_valid });
            start = end;
        }
        let pack_ms = t1.elapsed().as_secs_f64() * 1e3;

        // --- 3. Neighborhood graph --------------------------------------
        let t2 = Instant::now();
        let (neighbor_offsets, neighbor_ids) =
            build_neighborhoods(&pages, bounds, params.neighbor_epsilon);
        let neighbor_ms = t2.elapsed().as_secs_f64() * 1e3;

        // --- 4. Seed tree over page MBRs ---------------------------------
        let t3 = Instant::now();
        let entries: Vec<PageEntry> = pages
            .iter()
            .enumerate()
            .map(|(i, p)| PageEntry { mbr: p.mbr, page: i as u32 })
            .collect();
        let mut seed_tree =
            RTree::bulk_load(entries, RTreeParams::with_max_entries(params.seed_fanout));
        // The seed tree answers every query's seed descent and re-seed
        // check, including the scratch paths: freeze its SoA lanes.
        seed_tree.freeze();
        let seed_ms = t3.elapsed().as_secs_f64() * 1e3;

        let build_stats = FlatBuildStats {
            sort_ms,
            pack_ms,
            neighbor_ms,
            seed_tree_ms: seed_ms,
            total_ms: t0.elapsed().as_secs_f64() * 1e3,
            pages: pages.len() as u64,
            neighbor_links: neighbor_ids.len() as u64,
        };

        FlatIndex {
            objects,
            lanes,
            pages,
            neighbor_offsets,
            neighbor_ids,
            seed_tree,
            params,
            build_stats,
        }
    }
}

/// Compute the page neighborhood graph in CSR form: page `u` links to `v`
/// iff `u != v` and `inflate(mbr(u), ε)` intersects `mbr(v)`. Symmetric by
/// construction: a pair is tested once, inflating the lower id's MBR.
///
/// A uniform grid over the page centres prunes the candidate pairs; cell
/// size tracks the mean page extent so each page tests O(1) cells.
fn build_neighborhoods(pages: &[FlatPage], bounds: Aabb, epsilon: f64) -> (Vec<u32>, Vec<u32>) {
    let p = pages.len();
    if p == 0 {
        return (vec![0], Vec::new());
    }
    if p == 1 {
        return (vec![0, 0], Vec::new());
    }

    // Grid resolution: aim for ~1 page per cell, capped to keep memory
    // bounded on degenerate inputs.
    let cells_per_axis = ((p as f64).cbrt().ceil() as usize).clamp(1, 256);
    let grid = GridIndexer::new(bounds, [cells_per_axis; 3]);

    // Grid buckets in flat CSR form (two counting passes) instead of a
    // `Vec<Vec<u32>>` — one allocation for all cells rather than one per
    // occupied cell, and membership runs are contiguous in memory.
    let mut cell_offsets = vec![0u32; grid.len() + 1];
    for page in pages {
        grid.for_each_cell_in(&page.mbr, |c| cell_offsets[c + 1] += 1);
    }
    for c in 0..grid.len() {
        cell_offsets[c + 1] += cell_offsets[c];
    }
    let mut cell_ids = vec![0u32; cell_offsets[grid.len()] as usize];
    let mut cursor = cell_offsets.clone();
    for (i, page) in pages.iter().enumerate() {
        grid.for_each_cell_in(&page.mbr, |c| {
            cell_ids[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        });
    }

    // Discover undirected edges with one candidate buffer hoisted out of
    // the per-page loop. Candidates are sorted + deduped, and each pair
    // is tested once (at the lower id), so no duplicate edges arise.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut cand: Vec<u32> = Vec::new();
    for (i, page) in pages.iter().enumerate() {
        let probe = page.mbr.inflate(epsilon);
        cand.clear();
        grid.for_each_cell_in(&probe, |c| {
            cand.extend_from_slice(
                &cell_ids[cell_offsets[c] as usize..cell_offsets[c + 1] as usize],
            )
        });
        cand.sort_unstable();
        cand.dedup();
        for &j in &cand {
            if j as usize > i && probe.intersects(&pages[j as usize].mbr) {
                edges.push((i as u32, j));
                edges.push((j, i as u32));
            }
        }
    }

    // Counting-sort the edges by source page into the adjacency CSR. The
    // discovery order above pushes each source's targets in ascending
    // order (targets below `s` arrive during their own — earlier —
    // iterations, targets above during `s`'s), and the counting sort is
    // stable, so every adjacency run comes out sorted without per-list
    // sorting.
    let mut offsets = vec![0u32; p + 1];
    for &(s, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for s in 0..p {
        offsets[s + 1] += offsets[s];
    }
    let mut ids = vec![0u32; edges.len()];
    let mut cursor = offsets.clone();
    for &(s, t) in &edges {
        ids[cursor[s as usize] as usize] = t;
        cursor[s as usize] += 1;
    }
    (offsets, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Vec3;

    fn line_boxes(n: usize) -> Vec<Aabb> {
        // Touching unit boxes along a line: every page overlaps its
        // predecessor/successor page at the shared face.
        (0..n)
            .map(|i| Aabb::new(Vec3::new(i as f64, 0.0, 0.0), Vec3::new(i as f64 + 1.0, 1.0, 1.0)))
            .collect()
    }

    #[test]
    fn build_empty_and_single() {
        let idx: FlatIndex<Aabb> = FlatIndex::build(vec![], FlatBuildParams::default());
        assert!(idx.is_empty());
        assert_eq!(idx.page_count(), 0);
        assert_eq!(idx.mean_neighbors(), 0.0);

        let one = FlatIndex::build(vec![Aabb::cube(Vec3::ZERO, 1.0)], FlatBuildParams::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one.page_count(), 1);
        assert!(one.neighbors_of(0).is_empty());
    }

    #[test]
    fn pages_partition_objects() {
        let idx =
            FlatIndex::build(line_boxes(1000), FlatBuildParams::default().with_page_capacity(64));
        assert_eq!(idx.page_count(), 1000usize.div_ceil(64));
        let mut covered = 0usize;
        for p in 0..idx.page_count() as u32 {
            let objs = idx.page_objects(p);
            assert!(!objs.is_empty());
            assert!(objs.len() <= 64);
            // Page MBR covers its objects.
            for o in objs {
                assert!(idx.page_mbr(p).contains(&o.aabb()));
            }
            covered += objs.len();
        }
        assert_eq!(covered, 1000);
    }

    /// The link rule both ways, by brute force over every page pair: a
    /// link has MBR contact, and MBR contact has a link. The crawl's
    /// re-seed skip (`query.rs`) rests on the second half. Contact is
    /// tested as the build tests it, from the lower page id, since
    /// inflating one side or the other can round differently.
    #[test]
    fn neighborhood_is_symmetric_and_irreflexive() {
        let cloud: Vec<Aabb> = (0..1500)
            .map(|i| {
                let c = Vec3::new((i % 13) as f64 * 1.3, ((i / 13) % 11) as f64, (i / 143) as f64);
                Aabb::cube(c, 0.2 + (i % 5) as f64 * 0.1)
            })
            .collect();
        for (objs, cap) in [(line_boxes(2000), 32), (cloud, 24)] {
            for eps in [0.0, 0.75] {
                let params =
                    FlatBuildParams::default().with_page_capacity(cap).with_neighbor_epsilon(eps);
                let idx = FlatIndex::build(objs.clone(), params);
                let pages = idx.page_count() as u32;
                for u in 0..pages {
                    for v in 0..pages {
                        let (a, b) = (u.min(v), u.max(v));
                        let contact = idx.page_mbr(a).inflate(eps).intersects(&idx.page_mbr(b));
                        let linked = idx.neighbors_of(u).contains(&v);
                        assert_eq!(linked, u != v && contact, "pages {u}, {v} at ε = {eps}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "neighbor_epsilon")]
    fn build_rejects_a_nan_epsilon_set_through_the_field() {
        let params = FlatBuildParams { neighbor_epsilon: f64::NAN, ..FlatBuildParams::default() };
        FlatIndex::build(line_boxes(10), params);
    }

    #[test]
    fn touching_data_yields_connected_page_graph() {
        // Touching boxes tile space without gaps, so every page MBR
        // touches some other page and the whole neighborhood graph must be
        // a single connected component — the property that lets the crawl
        // reach the entire result without re-seeding.
        let idx =
            FlatIndex::build(line_boxes(320), FlatBuildParams::default().with_page_capacity(32));
        let p = idx.page_count();
        assert!(p > 1);
        let mut seen = vec![false; p];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in idx.neighbors_of(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        assert_eq!(count, p, "page graph disconnected: reached {count} of {p}");
    }

    #[test]
    fn epsilon_bridges_gaps() {
        // Two separated clusters: unlinked at ε = 0, linked at ε ≥ gap.
        let mut objs = Vec::new();
        for i in 0..64 {
            objs.push(Aabb::cube(Vec3::new(i as f64 * 0.1, 0.0, 0.0), 0.1));
        }
        for i in 0..64 {
            objs.push(Aabb::cube(Vec3::new(100.0 + i as f64 * 0.1, 0.0, 0.0), 0.1));
        }
        let tight =
            FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(64));
        assert_eq!(tight.page_count(), 2);
        assert!(tight.neighbors_of(0).is_empty());

        let bridged = FlatIndex::build(
            objs,
            FlatBuildParams::default().with_page_capacity(64).with_neighbor_epsilon(95.0),
        );
        assert_eq!(bridged.neighbors_of(0), &[1]);
        assert_eq!(bridged.neighbors_of(1), &[0]);
    }

    #[test]
    fn build_stats_populated() {
        let idx =
            FlatIndex::build(line_boxes(500), FlatBuildParams::default().with_page_capacity(32));
        let s = idx.build_stats();
        assert_eq!(s.pages, idx.page_count() as u64);
        assert_eq!(s.neighbor_links, idx.neighbor_count());
        assert!(s.total_ms >= 0.0);
    }

    #[test]
    fn all_packings_index_exactly() {
        let objs = line_boxes(500);
        let q = Aabb::new(Vec3::new(100.0, -1.0, -1.0), Vec3::new(250.0, 2.0, 2.0));
        let want = objs.iter().filter(|o| o.intersects(&q)).count();
        for packing in
            [PackingStrategy::Hilbert, PackingStrategy::Morton, PackingStrategy::CoordinateSort]
        {
            let idx = FlatIndex::build(
                objs.clone(),
                FlatBuildParams::default().with_page_capacity(32).with_packing(packing),
            );
            assert_eq!(idx.len(), 500, "{packing:?}");
            let (hits, _) = idx.range_query(&q);
            assert_eq!(hits.len(), want, "{packing:?}");
        }
    }

    #[test]
    fn hilbert_packing_has_more_compact_pages_than_coordinate_sort() {
        // A 3-D cloud: x-sorted pages become thin elongated slabs;
        // Hilbert runs stay near-cubical. Compactness is measured as
        // total page *surface area* — the quantity that drives how many
        // neighbors each page has and hence the crawl fan-out.
        let objs: Vec<Aabb> = (0..4096)
            .map(|i| {
                let x = (i % 16) as f64;
                let y = ((i / 16) % 16) as f64;
                let z = (i / 256) as f64;
                Aabb::cube(Vec3::new(x, y, z), 0.4)
            })
            .collect();
        let build = |packing| {
            FlatIndex::build(
                objs.clone(),
                FlatBuildParams::default().with_page_capacity(64).with_packing(packing),
            )
        };
        let area = |idx: &FlatIndex<Aabb>| {
            (0..idx.page_count() as u32).map(|p| idx.page_mbr(p).surface_area()).sum::<f64>()
        };
        let h = build(PackingStrategy::Hilbert);
        let c = build(PackingStrategy::CoordinateSort);
        assert!(
            area(&h) < area(&c),
            "hilbert total page surface {} should beat coordinate sort {}",
            area(&h),
            area(&c)
        );
        // Fewer neighbors per page too — the crawl examines fewer links.
        assert!(h.mean_neighbors() <= c.mean_neighbors());
    }

    #[test]
    fn memory_accounting_positive() {
        let idx = FlatIndex::build(line_boxes(500), FlatBuildParams::default());
        assert!(idx.memory_bytes() > 500 * std::mem::size_of::<Aabb>());
        assert!(idx.seed_tree_height() >= 1);
    }

    #[test]
    fn lanes_cost_24_bytes_per_object_and_a_flag_per_page() {
        use std::mem::size_of;
        let idx =
            FlatIndex::build(line_boxes(1000), FlatBuildParams::default().with_page_capacity(64));
        // Everything the index held before the lanes, priced as before.
        let page_before = size_of::<Aabb>() + 2 * size_of::<u32>();
        let before = idx.objects.capacity() * size_of::<Aabb>()
            + idx.pages.capacity() * page_before
            + (idx.neighbor_ids.capacity() + idx.neighbor_offsets.capacity()) * 4
            + idx.seed_tree.memory_bytes();
        // The flag is one byte, padded to the page record's alignment.
        let flag = size_of::<FlatPage>() - page_before;
        assert!(flag <= std::mem::align_of::<FlatPage>());
        assert_eq!(idx.memory_bytes() - before, 24 * idx.len() + flag * idx.page_count());
    }
}
