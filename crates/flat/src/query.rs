//! FLAT query phase: seed, then crawl the neighborhood graph.
//!
//! There is one seed-and-crawl, [`PageGraph::crawl`], and both engines
//! run it: the in-memory [`FlatIndex`] and the paged engine of
//! `neurospatial-scout`, which reads its pages from a file. A caller
//! supplies only how a page is read and what happens to the pages a read
//! page's links admit; the seed, the link rule, the re-seed skip and the
//! re-seed are the crawl's, so page visits, emission order and every
//! counter are the same for every caller that reads the same pages.
//! [`FlatIndex::range_query_with`] is [`FlatIndex::range_query_stream`]
//! on a fresh scratch, collecting the results and recording the crawl
//! order through the same page hook.
//!
//! A page read in memory is the page kernel: if the query contains the
//! page's MBR (and the page's flag says every box on it is finite and
//! non-empty) all its objects are emitted untested; otherwise the page's
//! `f32` lanes are cut, 64 objects at a time, into a `maybe` and a `sure`
//! bitmask, and only the objects in `maybe` but not in `sure` meet the
//! exact `aabb().intersects(q)`. Objects reach the sink in slot order
//! either way. Pages of more than 64 objects are scanned in 64-object
//! chunks.
//!
//! Then the page's links are examined, and each neighbor is *decided
//! once*: the first link to reach a page tests its MBR and marks the page
//! whatever the verdict, so a page that misses `q` is not tested again
//! from every other visited page that links to it (on dense tissue a page
//! has some 45 neighbors, and most links lead to a page already seen).
//! Marking a rejected page cannot hide a result: the crawl only follows,
//! and the re-seed check only admits, pages whose MBR intersects `q`, and
//! the rejected page's does not.
//!
//! When the crawl front drains, the re-seed check (a seed-tree range
//! query) looks for pages meeting `q` that the crawl never reached. It is
//! skipped when some page taken off the queue had an MBR containing `q`.
//! Any page `v` meeting `q` then meets that page `u`'s MBR inside `q`, so
//! `inflate(mbr(u), ε)` meets `mbr(v)` for every `ε ≥ 0`: that is the
//! link rule of the build, which [`PageGraph::new`] demands, so `v` was
//! decided when `u` was read and has been visited since. The skip changes
//! no result, order or counter but `seed_nodes_read`.

use crate::lanes::{page_lanes, QueryLanes};
use crate::stats::FlatQueryStats;
use crate::{FlatIndex, PageGraph};
use neurospatial_geom::{Aabb, Flow};
use neurospatial_rtree::{EpochMarks, RTreeObject, TraversalScratch};
use std::collections::vec_deque::{self, VecDeque};
use std::convert::Infallible;

/// Reusable per-query state for FLAT's seed-and-crawl executor: the
/// crawl front, the epoch-stamped visited-page marks (O(1) to reset
/// between queries), and a seed-tree traversal scratch. One per thread,
/// reused across a whole batch — steady-state queries allocate nothing.
#[derive(Debug, Default)]
pub struct FlatScratch {
    /// BFS crawl front.
    queue: VecDeque<u32>,
    /// Visited-page marks (shared epoch-stamping helper from the rtree
    /// crate, so the subtle wrap-around reset lives in one place).
    visited: EpochMarks,
    /// Scratch for the seed tree's descent and re-seed queries.
    seed: TraversalScratch,
}

impl FlatScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageGraph {
    /// FLAT's seed-and-crawl over this graph. `read(page, stats)` reads
    /// one page the crawl has reached, emits its objects inside `q` and
    /// counts them in `stats` (`objects_tested`, `results`); `Ok(true)`
    /// means the sink ended the query, and an error ends it too.
    /// `admitted` sees, in admission order, the pages one read page's
    /// links have just added to the crawl front (never an empty run).
    /// The crawl counts the rest: pages read, seed nodes, rejected links
    /// and re-seeds.
    pub fn crawl<E, R, A>(
        &self,
        q: &Aabb,
        scratch: &mut FlatScratch,
        mut read: R,
        mut admitted: A,
    ) -> Result<FlatQueryStats, E>
    where
        R: FnMut(u32, &mut FlatQueryStats) -> Result<bool, E>,
        A: FnMut(vec_deque::Iter<'_, u32>),
    {
        let mut stats = FlatQueryStats::default();
        if self.mbrs.is_empty() {
            return Ok(stats);
        }
        let FlatScratch { queue, visited, seed } = scratch;
        visited.begin(self.mbrs.len());
        queue.clear();

        // --- Seed ---------------------------------------------------------
        // No page MBR intersecting q is an empty result, proven by the
        // seed descent alone.
        let (first, counters) = self.seed_tree.first_hit_scratch(q, seed);
        stats.seed_nodes_read += counters.nodes_visited;
        let Some(first) = first else {
            return Ok(stats);
        };
        visited.mark(first.page as usize);
        queue.push_back(first.page);

        // --- Crawl (with exactness-preserving re-seeding) ------------------
        // A read page whose MBR contains q links to every page meeting q
        // (module doc), so the re-seed check cannot find one.
        let mut covered = false;
        loop {
            while let Some(page) = queue.pop_front() {
                stats.pages_read += 1;
                covered |= self.mbrs[page as usize].contains(q);
                if read(page, &mut stats)? {
                    return Ok(stats);
                }
                // Each page's MBR is tested once per query: the mark
                // remembers a rejection as well as an admission.
                let before = queue.len();
                for &n in self.neighbors_of(page) {
                    if visited.mark(n as usize) {
                        if self.mbrs[n as usize].intersects(q) {
                            queue.push_back(n);
                        } else {
                            stats.links_rejected += 1;
                        }
                    }
                }
                if queue.len() > before {
                    admitted(queue.range(before..));
                }
            }

            // Crawl front empty: check for unreached pages intersecting q.
            // This is the exactness fallback — rare on dense data. The
            // seed tree returns only pages that intersect q, so a page
            // marked as rejected is never asked about here.
            if covered {
                return Ok(stats);
            }
            let mut reseeded = false;
            let counters = self.seed_tree.range_query_stream(q, seed, |entry| {
                if visited.mark(entry.page as usize) {
                    queue.push_back(entry.page);
                    reseeded = true;
                }
                Flow::Emit
            });
            stats.seed_nodes_read += counters.nodes_visited;
            if !reseeded {
                return Ok(stats);
            }
            stats.reseeds += 1;
        }
    }
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

    /// Allocation-free, flow-controlled seed-and-crawl: the crawl front,
    /// visited marks and seed-tree traversal state all live in `scratch`,
    /// reused across queries. `on_page` fires once per data page read
    /// (the hook a caller charges page I/O through); seed-tree node
    /// accesses are counted (`seed_nodes_read`), and `crawl_order` is
    /// left empty. The sink decides per match whether it counts
    /// ([`Flow::Emit`]), is filtered out ([`Flow::Skip`]) or ends the
    /// crawl right here ([`Flow::Last`] — the early exit a pushed-down
    /// limit compiles to). With an always-`Emit` sink the page visits,
    /// object tests, results, emission order and re-seeds are exactly
    /// those of [`range_query`](Self::range_query).
    pub fn range_query_stream<'a, F: FnMut(u32), S: FnMut(&'a T) -> Flow>(
        &'a self,
        q: &Aabb,
        scratch: &mut FlatScratch,
        mut on_page: F,
        mut sink: S,
    ) -> FlatQueryStats {
        let q_lanes = QueryLanes::new(q);
        let read = |page, stats: &mut FlatQueryStats| {
            on_page(page);
            Ok::<_, Infallible>(self.scan_page(page, q, &q_lanes, stats, &mut sink))
        };
        let Ok(stats) = self.graph.crawl(q, scratch, read, |_| {});
        stats
    }

    /// Emit the objects of `page` that intersect `q`, in slot order;
    /// `true` when the sink ended the query. A page wholly inside `q` is
    /// emitted untested; any other is cut by the lane masks into misses,
    /// hits and the few the exact test decides (see `lanes.rs`).
    fn scan_page<'a, S: FnMut(&'a T) -> Flow>(
        &'a self,
        page: u32,
        q: &Aabb,
        q_lanes: &QueryLanes,
        stats: &mut FlatQueryStats,
        sink: &mut S,
    ) -> bool {
        let p = &self.pages[page as usize];
        let (start, end) = (p.start as usize, p.end as usize);
        let objects = &self.objects[start..end];
        stats.objects_tested += objects.len() as u64;
        let whole = p.all_valid && q.contains(&self.graph.mbrs[page as usize]);
        let lanes = page_lanes(&self.lanes, start, end);
        for (chunk, base) in objects.chunks(64).zip((0..).step_by(64)) {
            let (maybe, sure) = if whole {
                let all = u64::MAX >> (64 - chunk.len());
                (all, all)
            } else {
                q_lanes.masks(lanes.map(|lane| &lane[base..base + chunk.len()]))
            };
            let mut rest = maybe;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let o = &chunk[i];
                if sure >> i & 1 == 0 && !o.aabb().intersects(q) {
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
        assert_eq!(stats.pages_read, 0);
        // The root-MBR check proves emptiness without reading any node.
        assert_eq!(stats.seed_nodes_read, 0);
        assert_eq!(stats.reseeds, 0);
    }

    #[test]
    fn reseeding_keeps_disconnected_data_exact() {
        // Two clusters far apart: a query spanning both forces a re-seed
        // because no neighborhood links cross the gap at ε = 0.
        // Cluster sizes are exact multiples of the page capacity so no
        // page straddles the gap (a straddling page would bridge the two
        // components through its oversized MBR).
        let idx =
            FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32));
        let q = Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0));
        let (hits, stats) = idx.range_query(&q);
        assert_eq!(hits.len(), 1024);
        assert!(stats.reseeds >= 1, "gap must trigger a re-seed");
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
        // the crawl (unless a re-seed started a new component).
        let objs = dense_cloud(4000);
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(64));
        let q = Aabb::cube(Vec3::new(8.0, 8.0, 4.0), 5.0);
        let (_, stats) = idx.range_query(&q);
        assert_eq!(stats.reseeds, 0, "dense data should crawl in one component");
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
                assert_eq!(c.seed_nodes_read, stats.seed_nodes_read);
                assert_eq!(c.objects_tested, stats.objects_tested);
                assert_eq!(c.results, stats.results);
                assert_eq!(c.links_rejected, stats.links_rejected);
                assert_eq!(c.reseeds, stats.reseeds);
                assert!(c.crawl_order.is_empty(), "scratch path skips crawl recording");
            }
        }
    }

    #[test]
    fn scratch_reseeding_still_exact_on_disconnected_data() {
        let idx =
            FlatIndex::build(two_clusters(), FlatBuildParams::default().with_page_capacity(32));
        let q = Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0));
        let mut scratch = FlatScratch::default();
        let mut hits = 0usize;
        let c = idx.range_query_stream(
            &q,
            &mut scratch,
            |_| {},
            |_| {
                hits += 1;
                Flow::Emit
            },
        );
        assert_eq!(hits, 1024);
        assert!(c.reseeds >= 1, "gap must trigger a re-seed on the scratch path too");
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
    /// page kernel (23f1a7b): the lanes, whole-page acceptance and the
    /// decide-once rule change none of them. The fourth query lies inside
    /// pages 6 and 7: the re-seed skip keeps its crawl and reads one seed
    /// node where the recording read two.
    #[test]
    fn visit_order_and_counters_equal_the_recorded_ones() {
        // (query, crawl order, seed nodes, objects tested, results, reseeds)
        type Golden = (Aabb, &'static [u32], u64, u64, u64, u64);
        let dense: [Golden; 4] = [
            (
                Aabb::cube(Vec3::new(10.0, 10.0, 5.0), 3.0),
                &[4, 5, 11, 12, 23, 24, 38, 39, 50, 57, 58, 13, 21, 22, 40, 49, 41, 37, 48],
                2,
                1216,
                343,
                0,
            ),
            (
                Aabb::cube(Vec3::new(8.0, 8.0, 4.0), 5.0),
                &[
                    0, 1, 2, 3, 4, 5, 6, 7, 23, 24, 25, 30, 31, 38, 57, 58, 59, 60, 8, 11, 12, 15,
                    50, 51, 16, 39, 10, 14, 13, 17, 21, 22, 29, 40, 41, 49, 32, 37, 9, 52, 48,
                ],
                2,
                2624,
                1210,
                0,
            ),
            (Aabb::cube(Vec3::ZERO, 1.0), &[0], 2, 64, 8, 0),
            (Aabb::cube(Vec3::splat(2.0), 0.5), &[0, 6, 7], 1, 192, 27, 0),
        ];
        let two: [Golden; 2] = [
            (
                Aabb::new(Vec3::new(-5.0, -5.0, -5.0), Vec3::new(1015.0, 15.0, 5.0)),
                &[
                    0, 1, 2, 3, 8, 9, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                    22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
                ],
                3,
                1024,
                1024,
                1,
            ),
            (
                Aabb::new(Vec3::new(2.0, 2.0, -1.0), Vec3::new(1004.0, 6.0, 1.0)),
                &[0, 1, 2, 3, 8, 9, 4, 10, 11, 20, 21, 22, 23, 27, 28, 29, 30, 31],
                3,
                576,
                325,
                1,
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
            for (q, order, seed_nodes, tested, results, reseeds) in *golden {
                let (_, traced) = idx.range_query(q);
                let mut pages = Vec::new();
                let streamed =
                    idx.range_query_stream(q, &mut scratch, |p| pages.push(p), |_| Flow::Emit);
                assert_eq!(&traced.crawl_order, order, "at {q}");
                assert_eq!(&pages, order, "at {q}");
                for s in [&traced, &streamed] {
                    assert_eq!(
                        (s.pages_read, s.seed_nodes_read, s.objects_tested, s.results, s.reseeds),
                        (order.len() as u64, *seed_nodes, *tested, *results, *reseeds),
                        "at {q}"
                    );
                }
            }
        }
    }

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
            // Links from visited pages to pages that miss q, and the
            // distinct pages at their far ends.
            let misses: Vec<u32> = stats
                .crawl_order
                .iter()
                .flat_map(|&p| idx.graph.neighbors_of(p))
                .copied()
                .filter(|&n| !idx.graph.mbr(n).intersects(&q))
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
