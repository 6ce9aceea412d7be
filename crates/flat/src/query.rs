//! FLAT query phase: seed, then crawl the neighborhood graph.
//!
//! There is one seed-and-crawl, [`PageGraph::crawl`], and both engines
//! run it: the in-memory [`FlatIndex`] and the paged engine of
//! `neurospatial-scout`, which reads its pages from a file. A caller
//! supplies only how a page is read and what happens to the pages the
//! crawl admits; the seed, the link rule and the read rule are the
//! crawl's, so page visits, emission order and every counter are the
//! same for every caller that reads the same pages.
//! [`FlatIndex::range_query_with`] is [`FlatIndex::range_query_stream`]
//! on a fresh scratch, collecting the results and recording the crawl
//! order through the same page hook.
//!
//! A page read is the page kernel, [`scan_page`], in both engines: the
//! in-memory index hands it a page of its own arrays, and the paged
//! engine a page it decoded into its frame when the page was loaded
//! (segments and lanes laid out the same way). If the query contains the
//! page's MBR (and the page's flag says every box on it is finite and
//! non-empty) all its objects are emitted untested; otherwise the page's
//! `f32` lanes are cut, 64 objects at a time, into a `maybe` and a `sure`
//! bitmask, and only the objects in `maybe` but not in `sure` meet the
//! exact `aabb().intersects(q)`. Objects reach the sink in slot order
//! either way. Pages of more than 64 objects are scanned in 64-object
//! chunks.
//!
//! ## The crawl
//!
//! The crawl walks the pages whose *box* meets `q` (the box holds the
//! page's MBR and its cells of the Hilbert grid, see [`PageGraph`]) and
//! reads those among them whose MBR meets `q`. It starts at the page
//! owning the first cell, in curve order, of the block of grid cells the
//! points of `q` quantise to: a descent of the curve's state table finds
//! that cell's key, and a binary search of the first keys its owner.
//! Each walked page's links are examined and
//! each neighbor is *decided once*: the first link to reach a page tests
//! its box and marks the page whatever the verdict, so a page that misses
//! `q` is not tested again from every other walked page that links to it.
//!
//! ## Why the crawl reads every page whose MBR meets `q`
//!
//! Let `r` be `q` with its corners in order (an inverted axis of `q`
//! still matches boxes that span it, and each of those meets `r`; a
//! query with a NaN face matches nothing and meets no bounds). Per axis
//! the grid key quantises `x` to the cell `f(x)`, monotone in `x`.
//!
//! 1. *The cells of `r` form a block.* By monotonicity every point of `r`
//!    lies in a cell of `B = [f(r.lo), f(r.hi)]` (per axis), and every
//!    cell of `B` has a box that meets `r` (`cells_box` holds every point
//!    that quantises to or beyond the cell's index from either side).
//! 2. *The owners of `B` are connected.* Two face-neighbours in `B` have
//!    boxes that share that face (the two boxes' faces are one edge
//!    moved outward by the slack), so their owners' boxes meet: they are
//!    the same page or linked. Their boxes meet `r`, so every owner of a
//!    cell of `B` is admitted once any is.
//! 3. *The seed owns a cell of `B`*, so the crawl reaches every owner
//!    of `B`.
//! 4. *Every page `v` whose MBR meets `q` is linked to an owner of `B`.*
//!    Take `p` in `r ∩ MBR(v)` (the MBR with its corners in order, which
//!    is in `box(v)`). Its cell is in `B`, and that cell's owner `u`
//!    has `p` in its box. So `box(u)` and `box(v)` meet at `p`, and
//!    `box(v)` meets `r` at `p`: `v` is admitted when `u` is walked.
//!
//! A page marked as rejected cannot be one of these: its box misses
//! `r`. So there is no re-seed and no check after the crawl front
//! drains. A query that misses the union of the page MBRs (the graph's
//! bounds) meets no MBR, and ends before the seed.

use crate::lanes::{page_lanes, PageQuery};
use crate::stats::FlatQueryStats;
use crate::{FlatIndex, PageGraph};
use neurospatial_geom::{Aabb, Flow};
use neurospatial_rtree::{EpochMarks, RTreeObject};
use std::collections::VecDeque;
use std::convert::Infallible;

/// Reusable per-query state for FLAT's seed-and-crawl executor: the
/// crawl front and the epoch-stamped visited-page marks (O(1) to reset
/// between queries). One per thread, reused across a whole batch —
/// steady-state queries allocate nothing.
#[derive(Debug, Default)]
pub struct FlatScratch {
    /// BFS crawl front.
    queue: VecDeque<u32>,
    /// Visited-page marks (shared epoch-stamping helper from the rtree
    /// crate, so the subtle wrap-around reset lives in one place).
    visited: EpochMarks,
}

impl FlatScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageGraph {
    /// FLAT's seed-and-crawl over this graph. `read(page, stats)` reads
    /// one page whose MBR meets `q`, emits its objects inside `q` and
    /// counts them in `stats` (`objects_tested`, `results`); `Ok(true)`
    /// means the sink ended the query, and an error ends it too.
    /// `admitted` is handed, once a page has been read, the pages to be
    /// read that a walked page's links have just added to the crawl
    /// front, in admission order; the first read hands over those the
    /// walk admitted before it. The crawl counts pages read and rejected
    /// links.
    pub fn crawl<E, R, A>(
        &self,
        q: &Aabb,
        scratch: &mut FlatScratch,
        mut read: R,
        mut admitted: A,
    ) -> Result<FlatQueryStats, E>
    where
        R: FnMut(u32, &mut FlatQueryStats) -> Result<bool, E>,
        A: FnMut(&mut dyn Iterator<Item = u32>),
    {
        let mut stats = FlatQueryStats::default();
        if self.mbrs.is_empty() || !self.bounds.intersects(q) {
            return Ok(stats);
        }
        let FlatScratch { queue, visited } = scratch;
        visited.begin(self.mbrs.len());
        queue.clear();

        // The seed owns a cell of r's block, so its box meets r (module
        // doc).
        let r = Aabb::new(q.lo, q.hi);
        let seed = self.seed(&r);
        visited.mark(seed as usize);
        queue.push_back(seed);

        while let Some(page) = queue.pop_front() {
            let mut from = queue.len();
            if self.mbrs[page as usize].intersects(q) {
                if stats.pages_read == 0 {
                    from = 0;
                }
                stats.pages_read += 1;
                if read(page, &mut stats)? {
                    return Ok(stats);
                }
            }
            // Each page's box is tested once per query: the mark
            // remembers a rejection as well as an admission.
            for &n in self.neighbors_of(page) {
                if visited.mark(n as usize) {
                    if self.boxes[n as usize].intersects(&r) {
                        queue.push_back(n);
                    } else {
                        stats.links_rejected += 1;
                    }
                }
            }
            if stats.pages_read > 0 && queue.len() > from {
                let mbrs = &self.mbrs;
                admitted(
                    &mut queue.range(from..).copied().filter(|&n| mbrs[n as usize].intersects(q)),
                );
            }
        }
        Ok(stats)
    }
}

/// One page as the page kernel reads it: its objects in slot order, their
/// six lanes ([`write_page_lanes`](crate::write_page_lanes)), its MBR and
/// its flag (every box on it finite and non-empty). Whole-page acceptance
/// needs every box inside `mbr`.
#[derive(Debug, Clone, Copy)]
pub struct PageRef<'a, T> {
    pub objects: &'a [T],
    pub lanes: &'a [f32],
    pub mbr: &'a Aabb,
    pub all_valid: bool,
}

/// The page kernel: emit the objects of `page` that intersect `q`, in
/// slot order, counting them in `stats`; `true` when the sink ended the
/// query. A page wholly inside `q` is emitted untested; any other is cut
/// by the lane masks into misses, hits and the few the exact test
/// decides (see `lanes.rs`). Inlined into each engine's page read (a
/// call per page costs `range_inproc` some 3 %); the mask scan itself
/// stays one shared copy, `PageQuery::masks`.
#[inline]
pub fn scan_page<'a, T: RTreeObject, S: FnMut(&'a T) -> Flow>(
    page: PageRef<'a, T>,
    q: &PageQuery,
    stats: &mut FlatQueryStats,
    sink: &mut S,
) -> bool {
    let PageRef { objects, lanes, mbr, all_valid } = page;
    stats.objects_tested += objects.len() as u64;
    let whole = all_valid && q.q.contains(mbr);
    let lanes = page_lanes(lanes, objects.len());
    for (chunk, base) in objects.chunks(64).zip((0..).step_by(64)) {
        let (maybe, sure) = if whole {
            let all = u64::MAX >> (64 - chunk.len());
            (all, all)
        } else {
            q.masks(lanes.map(|lane| &lane[base..base + chunk.len()]))
        };
        let mut rest = maybe;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let o = &chunk[i];
            if sure >> i & 1 == 0 && !o.aabb().intersects(&q.q) {
                continue;
            }
            match sink(o) {
                Flow::Emit => stats.results += 1,
                Flow::Skip => {}
                Flow::Last => {
                    stats.results += 1;
                    return true;
                }
            }
        }
    }
    false
}

impl<T: RTreeObject> FlatIndex<T> {
    /// All objects whose AABB intersects `q`.
    pub fn range_query(&self, q: &Aabb) -> (Vec<&T>, FlatQueryStats) {
        self.range_query_with(q, |_| {})
    }

    /// [`range_query`](Self::range_query) with a page hook: `on_page`
    /// fires once per data page read, as in
    /// [`range_query_stream`](Self::range_query_stream) (the hook a
    /// caller charges modelled page I/O through), and the statistics
    /// carry the crawl order. The crawl state is allocated per call;
    /// batches use `range_query_stream`.
    pub fn range_query_with<F: FnMut(u32)>(
        &self,
        q: &Aabb,
        mut on_page: F,
    ) -> (Vec<&T>, FlatQueryStats) {
        let (mut out, mut order) = (Vec::new(), Vec::new());
        let on_page = |page| {
            order.push(page);
            on_page(page)
        };
        let mut stats = self.range_query_stream(q, &mut FlatScratch::default(), on_page, |o| {
            out.push(o);
            Flow::Emit
        });
        stats.crawl_order = order;
        (out, stats)
    }

    /// Allocation-free, flow-controlled seed-and-crawl: the crawl front
    /// and visited marks live in `scratch`, reused across queries.
    /// `on_page` fires once per data page read (the hook a caller charges
    /// page I/O through), and `crawl_order` is left empty. The sink
    /// decides per match whether it counts ([`Flow::Emit`]), is filtered
    /// out ([`Flow::Skip`]) or ends the crawl right here ([`Flow::Last`] —
    /// the early exit a pushed-down limit compiles to). With an
    /// always-`Emit` sink the page visits, object tests, results and
    /// emission order are exactly those of
    /// [`range_query`](Self::range_query).
    pub fn range_query_stream<'a, F: FnMut(u32), S: FnMut(&'a T) -> Flow>(
        &'a self,
        q: &Aabb,
        scratch: &mut FlatScratch,
        mut on_page: F,
        mut sink: S,
    ) -> FlatQueryStats {
        let pq = PageQuery::new(q);
        let read = |page, stats: &mut FlatQueryStats| {
            on_page(page);
            Ok::<_, Infallible>(scan_page(self.page(page), &pq, stats, &mut sink))
        };
        let Ok(stats) = self.graph.crawl(q, scratch, read, |_| {});
        stats
    }

    /// Page `page` as the page kernel reads it.
    fn page(&self, page: u32) -> PageRef<'_, T> {
        let p = &self.pages[page as usize];
        let (start, end) = (p.start as usize, p.end as usize);
        PageRef {
            objects: &self.objects[start..end],
            lanes: &self.lanes[6 * start..6 * end],
            mbr: &self.graph.mbrs[page as usize],
            all_valid: p.all_valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatBuildParams;
    use neurospatial_geom::Vec3;

    fn dense_cloud(n: usize) -> Vec<Aabb> {
        // Overlapping boxes filling a cube: a dense dataset with a
        // connected page graph.
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = ((i / 20) % 20) as f64;
                let z = (i / 400) as f64;
                Aabb::cube(Vec3::new(x, y, z), 0.8)
            })
            .collect()
    }

    fn brute(objs: &[Aabb], q: &Aabb) -> usize {
        objs.iter().filter(|o| o.intersects(q)).count()
    }

    #[test]
    fn exact_on_dense_data() {
        let objs = dense_cloud(4000);
        let idx = FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(64));
        for q in [
            Aabb::cube(Vec3::new(10.0, 10.0, 5.0), 3.0),
            Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 1.0),
            Aabb::cube(Vec3::new(19.0, 19.0, 9.0), 2.5),
            Aabb::new(Vec3::splat(-50.0), Vec3::splat(50.0)),
        ] {
            let (hits, stats) = idx.range_query(&q);
            assert_eq!(hits.len(), brute(&objs, &q), "query {q}");
            assert_eq!(stats.results as usize, hits.len());
            assert_eq!(stats.crawl_order.len() as u64, stats.pages_read);
        }
    }

    #[test]
    fn empty_query_proven_by_seed_alone() {
        let objs = dense_cloud(2000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default());
        let q = Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 2.0);
        let (hits, stats) = idx.range_query(&q);
        assert!(hits.is_empty());
        // The bounds check proves emptiness before any page is walked.
        assert_eq!(stats, FlatQueryStats::default());
    }

    /// Two clusters far apart, no page straddling the gap (cluster sizes
    /// are multiples of the page capacity). The name is from the re-seed
    /// that once bridged the gap; the cells between the clusters now link
    /// them, so one walk from one seed reads all 32 pages exactly.
    #[test]
    fn reseeding_keeps_disconnected_data_exact() {
        let idx =
            FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32));
        let q = Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0));
        let (hits, stats) = idx.range_query(&q);
        assert_eq!((hits.len(), stats.pages_read), (1024, 32));
    }

    /// The scratch path over the same two clusters: one walk, exact.
    #[test]
    fn scratch_reseeding_still_exact_on_disconnected_data() {
        let idx =
            FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32));
        let q = Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0));
        let mut streamed = 0usize;
        let c = idx.range_query_stream(
            &q,
            &mut FlatScratch::default(),
            |_| {},
            |_| {
                streamed += 1;
                Flow::Emit
            },
        );
        assert_eq!((streamed, c.pages_read), (1024, 32));
    }

    #[test]
    fn crawl_reads_each_page_at_most_once() {
        let objs = dense_cloud(3000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(32));
        let q = Aabb::cube(Vec3::new(10.0, 10.0, 3.0), 6.0);
        let (_, stats) = idx.range_query(&q);
        let mut order = stats.crawl_order.clone();
        order.sort_unstable();
        let before = order.len();
        order.dedup();
        assert_eq!(order.len(), before, "a page was read twice");
    }

    #[test]
    fn crawl_order_is_contiguous_bfs() {
        // Every page after the first must neighbor *some* earlier page in
        // the crawl (dense data walks no page it does not read).
        let objs = dense_cloud(4000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(64));
        let q = Aabb::cube(Vec3::new(8.0, 8.0, 4.0), 5.0);
        let (_, stats) = idx.range_query(&q);
        let order = &stats.crawl_order;
        for (i, &p) in order.iter().enumerate().skip(1) {
            let linked =
                order[..i].iter().any(|&earlier| idx.graph.neighbors_of(earlier).contains(&p));
            assert!(linked, "page {p} (position {i}) reached without a link");
        }
    }

    #[test]
    fn visitor_sees_all_accesses() {
        let objs = dense_cloud(2000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default());
        let q = Aabb::cube(Vec3::new(10.0, 10.0, 2.0), 4.0);
        let mut pages = Vec::new();
        let (_, stats) = idx.range_query_with(&q, |p| pages.push(p));
        assert_eq!(pages.len() as u64, stats.pages_read);
        assert_eq!(pages, stats.crawl_order);
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let objs = dense_cloud(4000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(64));
        let mut scratch = FlatScratch::default();
        // Reuse one scratch across repeated passes: the epoch-stamped
        // visited marks must stay exact on every query.
        for pass in 0..3 {
            for q in [
                Aabb::cube(Vec3::new(10.0, 10.0, 5.0), 3.0),
                Aabb::new(Vec3::splat(-50.0), Vec3::splat(50.0)),
                Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 2.0), // empty
            ] {
                let (want, stats) = idx.range_query(&q);
                let mut got: Vec<&Aabb> = Vec::new();
                let mut pages = Vec::new();
                let c = idx.range_query_stream(
                    &q,
                    &mut scratch,
                    |p| pages.push(p),
                    |o| {
                        got.push(o);
                        Flow::Emit
                    },
                );
                assert_eq!(got.len(), want.len(), "pass={pass} at {q}");
                assert!(got.iter().zip(&want).all(|(a, b)| std::ptr::eq(*a, *b)), "order");
                assert_eq!(pages, stats.crawl_order, "page visit order");
                assert_eq!(c.pages_read, stats.pages_read, "pass={pass} at {q}");
                assert_eq!(c.objects_tested, stats.objects_tested);
                assert_eq!(c.results, stats.results);
                assert_eq!(c.links_rejected, stats.links_rejected);
                assert!(c.crawl_order.is_empty(), "scratch path skips crawl recording");
            }
        }
    }

    fn two_clusters() -> Vec<Aabb> {
        let cluster = |x0: f64| {
            (0..512).map(move |i| {
                Aabb::cube(Vec3::new(x0 + (i % 10) as f64, ((i / 10) % 10) as f64, 0.0), 0.6)
            })
        };
        cluster(0.0).chain(cluster(1000.0)).collect()
    }

    /// Page sequences and counters recorded from the commit before the
    /// page kernel (23f1a7b): the lanes, whole-page acceptance, the
    /// decide-once rule and the tiled seed and links change none of them
    /// on the dense cloud. On the two clusters the recording crawled one
    /// cluster and re-seeded into the other; the tiling links them, so
    /// the order there was recorded from the tiled build, and the pages
    /// read, objects tested and results are the recording's.
    #[test]
    fn visit_order_and_counters_equal_the_recorded_ones() {
        // (query, crawl order, objects tested, results)
        type Golden = (Aabb, &'static [u32], u64, u64);
        let dense: [Golden; 4] = [
            (
                Aabb::cube(Vec3::new(10.0, 10.0, 5.0), 3.0),
                &[4, 5, 11, 12, 23, 24, 38, 39, 50, 57, 58, 13, 21, 22, 40, 49, 41, 37, 48],
                1216,
                343,
            ),
            (
                Aabb::cube(Vec3::new(8.0, 8.0, 4.0), 5.0),
                &[
                    0, 1, 2, 3, 4, 5, 6, 7, 23, 24, 25, 30, 31, 38, 57, 58, 59, 60, 8, 11, 12, 15,
                    50, 51, 16, 39, 10, 14, 13, 17, 21, 22, 29, 40, 41, 49, 32, 37, 9, 52, 48,
                ],
                2624,
                1210,
            ),
            (Aabb::cube(Vec3::ZERO, 1.0), &[0], 64, 8),
            (Aabb::cube(Vec3::splat(2.0), 0.5), &[0, 6, 7], 192, 27),
        ];
        let two: [Golden; 2] = [
            (
                Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0)),
                &[
                    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 23, 31, 10, 11, 12, 13, 14, 16, 17, 18, 19,
                    20, 21, 22, 30, 24, 25, 26, 27, 28, 29,
                ],
                1024,
                1024,
            ),
            (
                Aabb::new(Vec3::new(2.0, 2.0, -1.0), Vec3::new(1004.0, 6.0, 1.0)),
                &[0, 1, 2, 3, 4, 8, 9, 23, 31, 10, 11, 20, 21, 22, 30, 27, 28, 29],
                576,
                325,
            ),
        ];
        let fixtures = [
            (
                FlatIndex::build(
                    dense_cloud(4000),
                    FlatBuildParams::default().with_page_capacity(64),
                ),
                &dense[..],
            ),
            (
                FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32)),
                &two[..],
            ),
        ];
        let mut scratch = FlatScratch::default();
        for (idx, golden) in &fixtures {
            for (q, order, tested, results) in *golden {
                let (_, traced) = idx.range_query(q);
                let mut pages = Vec::new();
                let streamed =
                    idx.range_query_stream(q, &mut scratch, |p| pages.push(p), |_| Flow::Emit);
                assert_eq!(&traced.crawl_order, order, "at {q}");
                assert_eq!(&pages, order, "at {q}");
                for s in [&traced, &streamed] {
                    assert_eq!(
                        (s.pages_read, s.objects_tested, s.results),
                        (order.len() as u64, *tested, *results),
                        "at {q}"
                    );
                }
            }
        }
    }

    /// The pages a crawl walks, by brute force: the component, among the
    /// pages whose box meets `q` (corners in order), of the owner of any
    /// cell of `q`'s block (they are all in one).
    fn walked(graph: &PageGraph, q: &Aabb) -> Vec<u32> {
        let r = Aabb::new(q.lo, q.hi);
        if !graph.bounds().intersects(q) {
            return Vec::new();
        }
        let mut seen = vec![graph.owner_of(r.intersection(graph.grid().bounds()).center())];
        let mut i = 0;
        while i < seen.len() {
            for &n in graph.neighbors_of(seen[i]) {
                if graph.boxes()[n as usize].intersects(&r) && !seen.contains(&n) {
                    seen.push(n);
                }
            }
            i += 1;
        }
        seen
    }

    /// A neighbour is decided on its box, the MBR and the cells it owns,
    /// once per query however many walked pages link to it.
    #[test]
    fn each_page_mbr_is_decided_once_per_query() {
        let dense =
            FlatIndex::build(dense_cloud(4000), FlatBuildParams::default().with_page_capacity(64));
        let two =
            FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32));
        let (mut links, mut pages) = (0, 0);
        for (idx, q) in [
            (&dense, Aabb::cube(Vec3::new(10.0, 10.0, 5.0), 3.0)),
            (&dense, Aabb::cube(Vec3::new(8.0, 8.0, 4.0), 5.0)),
            (&two, Aabb::new(Vec3::new(2.0, 2.0, -1.0), Vec3::new(1004.0, 6.0, 1.0))),
        ] {
            let (_, stats) = idx.range_query(&q);
            // Links from walked pages to pages whose box misses q, and the
            // distinct pages at their far ends.
            let misses: Vec<u32> = walked(&idx.graph, &q)
                .iter()
                .flat_map(|&p| idx.graph.neighbors_of(p))
                .copied()
                .filter(|&n| !idx.graph.boxes()[n as usize].intersects(&q))
                .collect();
            let mut distinct = misses.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(stats.links_rejected as usize, distinct.len(), "at {q}");
            links += misses.len();
            pages += distinct.len();
        }
        assert!(pages < links, "the fixtures must reach some rejected page twice");
    }

    #[test]
    fn pages_with_unbounded_boxes_are_never_accepted_whole() {
        // An empty box and a NaN box match no query, and no MBR bounds
        // them: a query containing every page MBR must still leave them
        // out, on whichever page the sort put them.
        let mut objs = dense_cloud(300);
        let nan = Aabb { lo: Vec3::new(f64::NAN, 1.0, 1.0), hi: Vec3::splat(2.0) };
        objs.extend([Aabb::EMPTY, nan]);
        for cap in [16, 64, 128] {
            let idx =
                FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(cap));
            let flagged = idx.pages.iter().filter(|p| !p.all_valid).count();
            assert!((1..=2).contains(&flagged), "cap {cap}: {flagged} pages hold the two");
            let everything = Aabb::new(Vec3::splat(-1e6), Vec3::splat(1e6));
            assert!(idx.graph.mbrs().iter().all(|mbr| everything.contains(mbr)));
            let (hits, stats) = idx.range_query(&everything);
            assert_eq!(hits.len(), 300, "cap {cap}");
            assert!(hits.iter().all(|o| o.is_valid()));
            assert_eq!(stats.objects_tested, 302, "cap {cap}");
        }
    }

    #[test]
    fn query_on_empty_index() {
        let idx: FlatIndex<Aabb> = FlatIndex::build(vec![], FlatBuildParams::default());
        let (hits, stats) = idx.range_query(&Aabb::cube(Vec3::ZERO, 1.0));
        assert!(hits.is_empty());
        assert_eq!(stats, FlatQueryStats::default());
    }
}
