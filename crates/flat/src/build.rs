//! FLAT indexing phase: Hilbert packing + neighborhood computation.

use crate::lanes::write_page_lanes;
use crate::stats::FlatBuildStats;
use crate::{tiling_order, FlatIndex, FlatPage, PageGraph};
use neurospatial_geom::{
    hilbert_range_bbox, morton_encode3, Aabb, GridIndexer, HilbertSorter, Vec3,
};
use neurospatial_rtree::RTreeObject;
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
    /// Hilbert curve resolution (bits per axis): of the packing and of
    /// the grid the pages tile.
    pub hilbert_bits: u32,
}

impl Default for FlatBuildParams {
    fn default() -> Self {
        FlatBuildParams {
            page_capacity: 128,
            packing: PackingStrategy::default(),
            hilbert_bits: 16,
        }
    }
}

impl FlatBuildParams {
    pub fn with_page_capacity(mut self, c: usize) -> Self {
        assert!(c >= 1);
        self.page_capacity = c;
        self
    }

    pub fn with_packing(mut self, p: PackingStrategy) -> Self {
        self.packing = p;
        self
    }
}

impl<T: RTreeObject> FlatIndex<T> {
    /// Build the index. `O(n log n)` for the sort, `O(p · bits)` for the
    /// tiling and `O(p · k)` for the neighborhood computation where `p` is
    /// the page count and `k` the mean number of grid candidates per page,
    /// deduped by stamp.
    pub fn build(mut objects: Vec<T>, params: FlatBuildParams) -> Self {
        let t0 = Instant::now();

        // --- 1. Linearise objects ----------------------------------------
        // The grid of the tiling spans the finite, non-empty boxes (a
        // point at the origin when there are none); the Hilbert packing
        // sorts on it too.
        let finite = objects.iter().map(|o| o.aabb()).filter(Aabb::is_valid);
        let grid = match finite.reduce(|a, b| a.union(&b)) {
            Some(b) => HilbertSorter::with_bits(b, params.hilbert_bits),
            None => HilbertSorter::with_bits(Aabb::point(Vec3::ZERO), params.hilbert_bits),
        };
        if !objects.is_empty() {
            match params.packing {
                PackingStrategy::Hilbert => {
                    // A key is `hilbert_bits` dependent table lookups: cache it.
                    objects.sort_by_cached_key(|o| grid.key(o.aabb().center()));
                }
                PackingStrategy::Morton => {
                    let bounds = objects.iter().fold(Aabb::EMPTY, |a, o| a.union(&o.aabb()));
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
        let page_count = objects.len().div_ceil(params.page_capacity.max(1));
        let (mut pages, mut mbrs) =
            (Vec::with_capacity(page_count), Vec::with_capacity(page_count));
        let mut lanes = vec![0f32; 6 * objects.len()];
        let mut start = 0usize;
        while start < objects.len() {
            let end = (start + params.page_capacity).min(objects.len());
            let (mbr, all_valid) =
                write_page_lanes(&objects[start..end], &mut lanes[6 * start..6 * end]);
            pages.push(FlatPage { start: start as u32, end: end as u32, all_valid });
            mbrs.push(mbr);
            start = end;
        }
        let pack_ms = t1.elapsed().as_secs_f64() * 1e3;

        // --- 3. Tiling: each page's box --------------------------------
        let t2 = Instant::now();
        let first_keys: Vec<u64> =
            pages.iter().map(|p| grid.key(objects[p.start as usize].aabb().center())).collect();
        let boxes = tile(&grid, &first_keys, &mbrs);
        let tile_ms = t2.elapsed().as_secs_f64() * 1e3;

        // --- 4. Neighborhood graph --------------------------------------
        let t3 = Instant::now();
        let (neighbor_offsets, neighbor_ids) = build_neighborhoods(&boxes, *grid.bounds());
        let graph = PageGraph::new(mbrs, boxes, neighbor_offsets, neighbor_ids, grid, &first_keys);
        let neighbor_ms = t3.elapsed().as_secs_f64() * 1e3;

        let build_stats = FlatBuildStats {
            sort_ms,
            pack_ms,
            tile_ms,
            neighbor_ms,
            total_ms: t0.elapsed().as_secs_f64() * 1e3,
            pages: pages.len() as u64,
            neighbor_links: graph.neighbor_csr().1.len() as u64,
        };

        FlatIndex { objects, lanes, pages, graph, params, build_stats }
    }
}

/// Each page's box: its MBR (corners in order) and the cells it owns,
/// the pages taken in first-key order (ties by page id), each owning the
/// keys from its own first key (from 0 for the first) up to the next
/// one's (to the end of the curve for the last).
fn tile(grid: &HilbertSorter, first_keys: &[u64], mbrs: &[Aabb]) -> Vec<Aabb> {
    let order = tiling_order(first_keys);
    let mut boxes: Vec<Aabb> = mbrs.iter().map(|m| Aabb::new(m.lo, m.hi)).collect();
    for (i, &p) in order.iter().enumerate() {
        let from = if i == 0 { 0 } else { first_keys[p as usize] };
        let to = order.get(i + 1).map_or(u64::MAX, |&next| first_keys[next as usize]);
        if let Some((lo, hi)) = hilbert_range_bbox(grid.bits(), from, to) {
            boxes[p as usize] = boxes[p as usize].union(&grid.cells_box(lo, hi));
        }
    }
    boxes
}

/// Compute the page neighborhood graph in CSR form: page `u` links to `v`
/// iff `u != v` and their boxes intersect. Symmetric by construction: a
/// pair is tested once, at the lower id.
///
/// A uniform grid over the tiling's bounds prunes the candidate pairs (a
/// box reaching past them clamps to the edge cells); cell size
/// tracks the mean page extent so each page tests O(1) cells.
fn build_neighborhoods(boxes: &[Aabb], bounds: Aabb) -> (Vec<u32>, Vec<u32>) {
    let p = boxes.len();
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
    for b in boxes {
        grid.for_each_cell_in(b, |c| cell_offsets[c + 1] += 1);
    }
    for c in 0..grid.len() {
        cell_offsets[c + 1] += cell_offsets[c];
    }
    let mut cell_ids = vec![0u32; cell_offsets[grid.len()] as usize];
    let mut cursor = cell_offsets.clone();
    for (i, b) in boxes.iter().enumerate() {
        grid.for_each_cell_in(b, |c| {
            cell_ids[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        });
    }

    // Discover undirected edges, each pair tested once (at the lower id).
    // A page met in several cells is deduped by stamp (`seen[j] == i`),
    // and only the links that pass the box test are sorted.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut links: Vec<u32> = Vec::new();
    let mut seen = vec![u32::MAX; p];
    for (i, probe) in boxes.iter().enumerate() {
        let i = i as u32;
        links.clear();
        grid.for_each_cell_in(probe, |c| {
            for &j in &cell_ids[cell_offsets[c] as usize..cell_offsets[c + 1] as usize] {
                if j > i && seen[j as usize] != i {
                    seen[j as usize] = i;
                    if probe.intersects(&boxes[j as usize]) {
                        links.push(j);
                    }
                }
            }
        });
        links.sort_unstable();
        edges.extend(links.iter().flat_map(|&j| [(i, j), (j, i)]));
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
        assert_eq!(idx.graph.mean_neighbors(), 0.0);

        let one = FlatIndex::build(vec![Aabb::cube(Vec3::ZERO, 1.0)], FlatBuildParams::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one.page_count(), 1);
        assert!(one.graph.neighbors_of(0).is_empty());
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
                assert!(idx.graph.mbr(p).contains(&o.aabb()));
            }
            covered += objs.len();
        }
        assert_eq!(covered, 1000);
    }

    /// The link rule both ways, by brute force over every page pair: a
    /// link has box contact, and box contact has a link. Every box holds
    /// its page's MBR.
    #[test]
    fn neighborhood_is_symmetric_and_irreflexive() {
        let cloud: Vec<Aabb> = (0..1500)
            .map(|i| {
                let c = Vec3::new((i % 13) as f64 * 1.3, ((i / 13) % 11) as f64, (i / 143) as f64);
                Aabb::cube(c, 0.2 + (i % 5) as f64 * 0.1)
            })
            .collect();
        for (objs, cap) in [(line_boxes(2000), 32), (cloud, 24)] {
            let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(cap));
            let (pages, boxes) = (idx.page_count() as u32, idx.graph.boxes());
            for u in 0..pages {
                assert!(boxes[u as usize].contains(&idx.graph.mbr(u)), "page {u}");
                // The crawl emits pages in link order: runs ascend.
                let run = idx.graph.neighbors_of(u);
                assert!(run.windows(2).all(|w| w[0] < w[1]), "page {u}'s run {run:?}");
                for v in 0..pages {
                    let contact = boxes[u as usize].intersects(&boxes[v as usize]);
                    let linked = idx.graph.neighbors_of(u).contains(&v);
                    assert_eq!(linked, u != v && contact, "pages {u}, {v}");
                }
            }
        }
    }

    /// The index is a pure function of its input. One FNV-1a digest over
    /// the object order, the page MBRs' and boxes' bits, the first keys
    /// and the neighbour CSR pins a seeded dense cloud (40 000 boxes, 625
    /// pages), so a faster build must reproduce the same index bit for
    /// bit.
    #[test]
    fn dense_cloud_build_is_pinned_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            // SplitMix64, top 53 bits as a float in [0, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let objs: Vec<Aabb> = (0..40_000)
            .map(|_| {
                let c = Vec3::new(unit(), unit(), unit()) * 100.0;
                let h = Vec3::new(0.2 + unit(), 0.2 + unit(), 0.2 + unit());
                Aabb::new(c - h, c + h)
            })
            .collect();
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(64));
        assert_eq!(idx.page_count(), 625);
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01B3);
            }
        };
        for b in idx.objects.iter().chain(&idx.graph.mbrs).chain(&idx.graph.boxes) {
            for v in [b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z] {
                eat(v.to_bits());
            }
        }
        for k in idx.graph.first_keys() {
            eat(k);
        }
        for &w in idx.graph.neighbor_offsets.iter().chain(&idx.graph.neighbor_ids) {
            eat(w as u64);
        }
        assert_eq!(digest, 0xF3E1_9130_669B_031F, "{digest:#018x}");
    }

    #[test]
    fn touching_data_yields_connected_page_graph() {
        // Touching boxes tile space without gaps, so every page MBR
        // touches some other page and the whole neighborhood graph must be
        // a single connected component.
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
            for &v in idx.graph.neighbors_of(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        assert_eq!(count, p, "page graph disconnected: reached {count} of {p}");
    }

    #[test]
    fn cells_bridge_gaps_between_clusters() {
        // Two clusters 100 apart, a page each: their cells tile the grid
        // between them, so their boxes meet and the pages are linked.
        let mut objs = Vec::new();
        for i in 0..64 {
            objs.push(Aabb::cube(Vec3::new(i as f64 * 0.1, 0.0, 0.0), 0.1));
        }
        for i in 0..64 {
            objs.push(Aabb::cube(Vec3::new(100.0 + i as f64 * 0.1, 0.0, 0.0), 0.1));
        }
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(64));
        assert_eq!(idx.page_count(), 2);
        assert!(!idx.graph.mbr(0).intersects(&idx.graph.mbr(1)));
        assert_eq!(idx.graph.neighbors_of(0), &[1]);
        assert_eq!(idx.graph.neighbors_of(1), &[0]);
    }

    /// Every cell of the grid has one owner, and a point's owner has the
    /// point in its box, inside the bounds and beyond them.
    #[test]
    fn the_tiling_covers_the_grid_and_every_point() {
        let idx =
            FlatIndex::build(line_boxes(700), FlatBuildParams::default().with_page_capacity(32));
        let graph = &idx.graph;
        let mut keys = graph.first_keys();
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        for i in -40..=1440 {
            let t = i as f64 * 0.5;
            for p in [Vec3::new(t, 0.5, 0.5), Vec3::new(t, -3.0, 9.0), Vec3::new(t * 1e9, t, -t)] {
                let owner = graph.owner_of(p);
                assert!(graph.boxes()[owner as usize].contains_point(p), "{p} in page {owner}");
            }
        }
    }

    #[test]
    fn build_stats_populated() {
        let idx =
            FlatIndex::build(line_boxes(500), FlatBuildParams::default().with_page_capacity(32));
        let s = idx.build_stats();
        assert_eq!(s.pages, idx.page_count() as u64);
        assert_eq!(s.neighbor_links, idx.graph.neighbor_csr().1.len() as u64);
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
            (0..idx.page_count() as u32).map(|p| idx.graph.mbr(p).surface_area()).sum::<f64>()
        };
        let h = build(PackingStrategy::Hilbert);
        let c = build(PackingStrategy::CoordinateSort);
        assert!(
            area(&h) < area(&c),
            "hilbert total page surface {} should beat coordinate sort {}",
            area(&h),
            area(&c)
        );
        // And a box query reads fewer of them: 8 of the Hilbert pages'
        // 4 × 4 × 4 blocks, 14 of the sort's 1 × 4 × 16 slabs.
        let q = Aabb::cube(Vec3::splat(7.3), 3.0);
        let pages = |idx: &FlatIndex<Aabb>| idx.range_query(&q).1.pages_read;
        assert!(pages(&h) < pages(&c), "{} pages against {}", pages(&h), pages(&c));
    }

    #[test]
    fn memory_accounting_positive() {
        let idx = FlatIndex::build(line_boxes(500), FlatBuildParams::default());
        assert!(idx.memory_bytes() > 500 * std::mem::size_of::<Aabb>());
    }

    #[test]
    fn lanes_cost_24_bytes_per_object_and_a_flag_per_page() {
        use std::mem::size_of;
        let idx =
            FlatIndex::build(line_boxes(1000), FlatBuildParams::default().with_page_capacity(64));
        // Everything the index held before the lanes, priced as before:
        // the page records' ranges, and the graph (MBRs, boxes, links, keys).
        let page_before = 2 * size_of::<u32>();
        let before = idx.objects.capacity() * size_of::<Aabb>()
            + idx.pages.capacity() * page_before
            + idx.graph.memory_bytes();
        // The flag is one byte, padded to the page record's alignment.
        let flag = size_of::<FlatPage>() - page_before;
        assert!(flag <= std::mem::align_of::<FlatPage>());
        assert_eq!(idx.memory_bytes() - before, 24 * idx.len() + flag * idx.page_count());
    }
}
