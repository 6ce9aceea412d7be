//! Instrumented query execution.
//!
//! Every traversal reports node accesses per level because that is the
//! statistic the demo displays to explain the R-Tree's behaviour on dense
//! data: "due to overlap more nodes are retrieved on higher levels"
//! (§2.2). A visitor hook exposes each visited node id so callers can
//! charge modelled page reads.
//!
//! Every range and first-hit query runs one descent, `RTree::walk`,
//! over the frozen structure-of-arrays lanes.

use crate::node::RTreeObject;
use crate::soa::{SoaArena, TraversalCounters, TraversalScratch};
use crate::{NodeId, RTree};
use neurospatial_geom::{Aabb, Flow};
use std::cmp::Ordering;

/// Per-query traversal statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Nodes visited at each level; index 0 is the root level.
    pub nodes_per_level: Vec<u64>,
    /// Leaf objects whose AABBs were tested against the query.
    pub leaf_entries_tested: u64,
    /// Objects returned.
    pub results: u64,
}

impl QueryStats {
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_per_level.iter().sum()
    }

    /// Count one visit at `level`. The first visit sizes the per-level
    /// counters to the tree's `height`, so a query that visits anything
    /// reports every level.
    pub(crate) fn bump(&mut self, level: usize, height: usize) {
        let len = height.max(level + 1);
        if self.nodes_per_level.len() < len {
            self.nodes_per_level.resize(len, 0);
        }
        self.nodes_per_level[level] += 1;
    }
}

/// The order in which [`RTree::walk`] descends into a node's
/// intersecting children.
#[derive(Clone, Copy, PartialEq)]
enum Order {
    Stored,
    /// Closest MBR centre to the query centre first.
    NearestFirst,
}

impl<T: RTreeObject> RTree<T> {
    /// All objects whose AABB intersects `q`, plus traversal statistics.
    pub fn range_query(&self, q: &Aabb) -> (Vec<&T>, QueryStats) {
        self.range_query_with(q, |_, _| {})
    }

    /// Range query with a node-visit hook `(node id, level)` — level 0 is
    /// the root. The hook fires once per node whose MBR intersects the
    /// query (i.e. per modelled page read).
    pub fn range_query_with<F: FnMut(NodeId, usize)>(
        &self,
        q: &Aabb,
        on_visit: F,
    ) -> (Vec<&T>, QueryStats) {
        let mut out = Vec::new();
        let stats = self.walk_stats(q, on_visit, |o| {
            out.push(o);
            Flow::Emit
        });
        (out, stats)
    }

    /// Allocation-free, flow-controlled range query: every object whose
    /// AABB intersects `q` is offered to `sink`, traversal state lives in
    /// `scratch` (reused across queries), and the returned counters are
    /// plain `Copy` data. The sink decides per candidate whether it
    /// counts ([`Flow::Emit`]), is filtered out ([`Flow::Skip`]) or ends
    /// the traversal right here ([`Flow::Last`]). With an always-`Emit`
    /// sink the node visits, entries tested, results and emission order
    /// are identical to [`range_query`](Self::range_query).
    pub fn range_query_stream<'a, S: FnMut(&'a T) -> Flow>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        sink: S,
    ) -> TraversalCounters {
        self.walk(q, Order::Stored, scratch, |_, _| {}, sink)
    }

    /// FLAT's seed phase: descend to find *one* object intersecting `q`,
    /// abandoning subtrees as soon as a hit is found. Depth-first with
    /// best-first child ordering (children whose MBR centre is closest to
    /// the query centre first) — cheap and typically O(height) on dense
    /// data. Allocation-free: the candidate ordering buffer and the stack
    /// are borrowed from `scratch`.
    pub fn first_hit_scratch<'a>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
    ) -> (Option<&'a T>, TraversalCounters) {
        let mut hit = None;
        let c = self.walk(
            q,
            Order::NearestFirst,
            scratch,
            |_, _| {},
            |o| {
                hit = Some(o);
                Flow::Last
            },
        );
        (hit, c)
    }

    /// A stored-order [`walk`](Self::walk) on a fresh scratch, counting
    /// visits per level.
    fn walk_stats<'a>(
        &'a self,
        q: &Aabb,
        mut on_visit: impl FnMut(NodeId, usize),
        sink: impl FnMut(&'a T) -> Flow,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        let mut scratch = TraversalScratch::default();
        let c = self.walk(
            q,
            Order::Stored,
            &mut scratch,
            |id, level| {
                stats.bump(level, self.height);
                on_visit(id, level);
            },
            sink,
        );
        stats.leaf_entries_tested = c.leaf_entries_tested;
        stats.results = c.results;
        stats
    }

    /// The one descent behind every range and first-hit query: depth
    /// first over the frozen lanes (built here if nobody froze the
    /// tree), visiting a node's intersecting children in `order`.
    /// `on_visit` sees each visited node's arena id and level;
    /// each intersecting leaf object goes to `sink`, and [`Flow::Last`]
    /// ends the walk.
    fn walk<'a>(
        &'a self,
        q: &Aabb,
        order: Order,
        scratch: &mut TraversalScratch,
        on_visit: impl FnMut(NodeId, usize),
        sink: impl FnMut(&'a T) -> Flow,
    ) -> TraversalCounters {
        if self.is_empty() || !self.nodes[self.root].mbr.intersects(q) {
            return TraversalCounters::default();
        }
        let soa = self.soa.get_or_init(|| SoaArena::build(self));
        self.walk_lanes(soa, q, order, scratch, on_visit, sink)
    }

    /// [`walk`](Self::walk)'s loop. The lanes come in as an argument: a
    /// tree holding a `OnceLock` is not `Freeze`, so lanes reached through
    /// `&self` would not let the compiler keep their pointers in
    /// registers across the sink's calls, which measurably slows range
    /// queries.
    fn walk_lanes<'a>(
        &'a self,
        soa: &SoaArena,
        q: &Aabb,
        order: Order,
        scratch: &mut TraversalScratch,
        mut on_visit: impl FnMut(NodeId, usize),
        mut sink: impl FnMut(&'a T) -> Flow,
    ) -> TraversalCounters {
        let mut c = TraversalCounters::default();
        let qc = q.center();
        scratch.stack.clear();
        scratch.stack.push((0, 0)); // the root: SoA node 0, level 0
        while let Some((n, level)) = scratch.stack.pop() {
            c.nodes_visited += 1;
            let id = soa.orig(n);
            on_visit(id, level as usize);
            let (s, e) = soa.entries(n);
            if soa.is_leaf(n) {
                let items = self.leaf_objects(id);
                for i in s..e {
                    c.leaf_entries_tested += 1;
                    if soa.entry_intersects(i, q) {
                        match sink(&items[i - s]) {
                            Flow::Emit => c.results += 1,
                            Flow::Skip => {}
                            Flow::Last => {
                                c.results += 1;
                                return c;
                            }
                        }
                    }
                }
            } else if order == Order::NearestFirst {
                // Push farthest-first so the closest child pops first.
                scratch.cand.clear();
                scratch
                    .cand
                    .extend((s..e).filter(|&i| soa.entry_intersects(i, q)).map(|i| i as u32));
                scratch.cand.sort_by(|&a, &b| {
                    let da = soa.entry_center(a as usize).distance_sq(qc);
                    let db = soa.entry_center(b as usize).distance_sq(qc);
                    db.partial_cmp(&da).unwrap_or(Ordering::Equal)
                });
                for &i in &scratch.cand {
                    scratch.stack.push((soa.entry_ref(i as usize), level + 1));
                }
            } else {
                for i in s..e {
                    if soa.entry_intersects(i, q) {
                        scratch.stack.push((soa.entry_ref(i), level + 1));
                    }
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;
    use neurospatial_geom::Vec3;

    fn grid_tree(n: usize, cap: usize) -> (RTree<Aabb>, Vec<Aabb>) {
        let objs: Vec<Aabb> = (0..n)
            .map(|i| {
                let x = (i % 20) as f64 * 2.0;
                let y = ((i / 20) % 20) as f64 * 2.0;
                let z = (i / 400) as f64 * 2.0;
                Aabb::cube(Vec3::new(x, y, z), 0.5)
            })
            .collect();
        (RTree::bulk_load(objs.clone(), RTreeParams::with_max_entries(cap)), objs)
    }

    fn brute(objs: &[Aabb], q: &Aabb) -> usize {
        objs.iter().filter(|o| o.intersects(q)).count()
    }

    #[test]
    fn range_query_matches_brute_force() {
        let (t, objs) = grid_tree(2000, 16);
        let queries = [
            Aabb::new(Vec3::ZERO, Vec3::splat(5.0)),
            Aabb::new(Vec3::splat(10.0), Vec3::splat(25.0)),
            Aabb::cube(Vec3::new(19.0, 19.0, 4.0), 3.0),
            Aabb::cube(Vec3::new(-100.0, 0.0, 0.0), 1.0), // empty
            Aabb::new(Vec3::splat(-100.0), Vec3::splat(100.0)), // everything
        ];
        for q in &queries {
            let (hits, stats) = t.range_query(q);
            assert_eq!(hits.len(), brute(&objs, q), "query {q}");
            assert_eq!(stats.results as usize, hits.len());
        }
    }

    #[test]
    fn stats_level_zero_is_root() {
        let (t, _) = grid_tree(2000, 16);
        let (_, stats) = t.range_query(&Aabb::cube(Vec3::new(20.0, 20.0, 2.0), 4.0));
        assert_eq!(stats.nodes_per_level[0], 1, "exactly one root access");
        assert_eq!(stats.nodes_per_level.len(), t.height());
    }

    #[test]
    fn visitor_sees_every_counted_node() {
        let (t, _) = grid_tree(1000, 8);
        let q = Aabb::cube(Vec3::new(10.0, 10.0, 1.0), 6.0);
        let mut visited = Vec::new();
        let (_, stats) = t.range_query_with(&q, |id, level| visited.push((id, level)));
        assert_eq!(visited.len() as u64, stats.nodes_visited());
        // No duplicate node visits in a single query.
        let mut ids: Vec<_> = visited.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), visited.len());
    }

    #[test]
    fn first_hit_finds_something_iff_results_exist() {
        let (t, objs) = grid_tree(2000, 16);
        let q_hit = Aabb::cube(Vec3::new(6.0, 6.0, 2.0), 2.0);
        let mut scratch = TraversalScratch::default();
        let (hit, c) = t.first_hit_scratch(&q_hit, &mut scratch);
        let o = hit.expect("region is populated");
        assert!(o.intersects(&q_hit));
        assert!(c.nodes_visited >= 1);

        let q_miss = Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 1.0);
        assert!(t.first_hit_scratch(&q_miss, &mut scratch).0.is_none());
        assert_eq!(brute(&objs, &q_miss), 0);
    }

    #[test]
    fn first_hit_is_cheaper_than_full_query() {
        let (t, _) = grid_tree(4000, 16);
        let q = Aabb::new(Vec3::ZERO, Vec3::splat(30.0)); // large, many results
        let (_, full) = t.range_query(&q);
        let (_, seed) = t.first_hit_scratch(&q, &mut TraversalScratch::default());
        assert!(
            seed.nodes_visited < full.nodes_visited() / 4,
            "seed {} vs full {}",
            seed.nodes_visited,
            full.nodes_visited()
        );
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let empty: RTree<Aabb> = RTree::new(RTreeParams::default());
        assert!(empty.range_query(&Aabb::cube(Vec3::ZERO, 1.0)).0.is_empty());
        let mut scratch = TraversalScratch::default();
        assert!(empty.first_hit_scratch(&Aabb::cube(Vec3::ZERO, 1.0), &mut scratch).0.is_none());
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let (t, objs) = grid_tree(2500, 16);
        let queries = [
            Aabb::new(Vec3::ZERO, Vec3::splat(6.0)),
            Aabb::cube(Vec3::new(18.0, 18.0, 3.0), 4.0),
            Aabb::cube(Vec3::new(-100.0, 0.0, 0.0), 1.0), // empty
            Aabb::new(Vec3::splat(-100.0), Vec3::splat(100.0)), // everything
        ];
        let mut scratch = TraversalScratch::default();
        // Same answers, in the same emission order, with the same counts.
        for q in &queries {
            let (want, stats) = t.range_query(q);
            let mut got: Vec<&Aabb> = Vec::new();
            let c = t.range_query_stream(q, &mut scratch, |o| {
                got.push(o);
                Flow::Emit
            });
            assert_eq!(got.len(), want.len(), "at {q}");
            assert!(got.iter().zip(&want).all(|(a, b)| std::ptr::eq(*a, *b)), "order");
            assert_eq!(c.nodes_visited, stats.nodes_visited(), "at {q}");
            assert_eq!(c.leaf_entries_tested, stats.leaf_entries_tested);
            assert_eq!(c.results, stats.results);

            // The first hit is one of the range answer's, found on a
            // subset of its nodes.
            let (got_hit, hc) = t.first_hit_scratch(q, &mut scratch);
            assert_eq!(got_hit.is_some(), !want.is_empty());
            assert!(got_hit.is_none_or(|h| want.iter().any(|w| std::ptr::eq(h, *w))));
            assert!(hc.nodes_visited <= stats.nodes_visited());
            assert_eq!(hc.results, u64::from(got_hit.is_some()));
        }
        assert_eq!(objs.len(), t.len());
    }

    #[test]
    fn dynamic_tree_visits_more_nodes_than_str_on_dense_data() {
        // The core of experiment E1, in miniature.
        let objs: Vec<Aabb> = (0..3000)
            .map(|i| {
                // Dense: heavily overlapping boxes in a small volume.
                let f = i as f64 * 0.01;
                Aabb::cube(Vec3::new(f.sin() * 10.0, f.cos() * 10.0, (i % 100) as f64 * 0.2), 1.5)
            })
            .collect();
        let mut dynamic = RTree::new(RTreeParams::with_max_entries(16));
        for o in objs.clone() {
            dynamic.insert(o);
        }
        let packed = RTree::bulk_load(objs, RTreeParams::with_max_entries(16));
        let q = Aabb::cube(Vec3::new(0.0, 10.0, 10.0), 2.5);
        let (h1, s1) = dynamic.range_query(&q);
        let (h2, s2) = packed.range_query(&q);
        assert_eq!(h1.len(), h2.len());
        assert!(
            s2.nodes_visited() <= s1.nodes_visited(),
            "packed {} should visit no more nodes than dynamic {}",
            s2.nodes_visited(),
            s1.nodes_visited()
        );
    }
}
