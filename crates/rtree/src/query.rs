//! Instrumented query execution.
//!
//! Every traversal reports node accesses per level because that is the
//! statistic the demo displays to explain the R-Tree's behaviour on dense
//! data: "due to overlap more nodes are retrieved on higher levels"
//! (§2.2). A visitor hook exposes each visited node id so callers can
//! charge simulated page reads.

use crate::node::{NodeKind, RTreeObject};
use crate::soa::{TraversalCounters, TraversalScratch};
use crate::{NodeId, RTree};
use neurospatial_geom::{Aabb, Flow, Vec3};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

    fn bump(&mut self, level: usize) {
        // Guard only: every query pre-sizes the vector to the tree height
        // up front (`presize`), so the hot path never reallocates here.
        if self.nodes_per_level.len() <= level {
            self.nodes_per_level.resize(level + 1, 0);
        }
        self.nodes_per_level[level] += 1;
    }

    /// Size the per-level counters to the tree height once, at query
    /// start, instead of growing the vector visit by visit.
    fn presize(&mut self, height: usize) {
        self.nodes_per_level.resize(height, 0);
    }
}

/// One k-nearest-neighbour result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnResult<'a, T> {
    pub object: &'a T,
    /// Distance from the query point to the object's AABB.
    pub distance: f64,
}

/// Max-heap entry ordered by *minimum* distance (reversed for BinaryHeap).
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, o: &Self) -> bool {
        // Consistent with the `Ord` below (total order, NaN-safe).
        self.dist.total_cmp(&o.dist) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, o: &Self) -> Ordering {
        // Reverse: smallest distance first. `total_cmp` (not
        // `partial_cmp(..).unwrap_or(Equal)`): a NaN distance — e.g. from
        // a degenerate `Aabb::EMPTY` MBR, whose infinities cancel in the
        // distance arithmetic — must not compare `Equal` to everything,
        // which would silently corrupt the heap's ordering invariant. In
        // the IEEE total order NaN sorts above +∞, so NaN entries sink to
        // the back of the frontier instead of scrambling it.
        o.dist.total_cmp(&self.dist)
    }
}

impl<T: RTreeObject> RTree<T> {
    /// All objects whose AABB intersects `q`, plus traversal statistics.
    pub fn range_query(&self, q: &Aabb) -> (Vec<&T>, QueryStats) {
        self.range_query_with(q, |_, _| {})
    }

    /// Range query with a node-visit hook `(node id, level)` — level 0 is
    /// the root. The hook fires once per node whose MBR intersects the
    /// query (i.e. per simulated page read).
    pub fn range_query_with<F: FnMut(NodeId, usize)>(
        &self,
        q: &Aabb,
        mut on_visit: F,
    ) -> (Vec<&T>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        if self.is_empty() || !self.nodes[self.root].mbr.intersects(q) {
            return (out, stats);
        }
        stats.presize(self.height);
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        while let Some((id, level)) = stack.pop() {
            stats.bump(level);
            on_visit(id, level);
            match &self.nodes[id].kind {
                NodeKind::Leaf(items) => {
                    for o in items {
                        stats.leaf_entries_tested += 1;
                        if o.aabb().intersects(q) {
                            out.push(o);
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    for &c in children {
                        if self.nodes[c].mbr.intersects(q) {
                            stack.push((c, level + 1));
                        }
                    }
                }
            }
        }
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// FLAT's seed phase: descend to find *one* object intersecting `q`,
    /// abandoning subtrees as soon as a hit is found. Depth-first with
    /// best-first child ordering (children whose MBR centre is closest to
    /// the query centre first) — cheap and typically O(height) on dense
    /// data.
    pub fn first_hit(&self, q: &Aabb) -> (Option<&T>, QueryStats) {
        self.first_hit_with(q, |_, _| {})
    }

    /// [`Self::first_hit`] with a node-visit hook.
    pub fn first_hit_with<F: FnMut(NodeId, usize)>(
        &self,
        q: &Aabb,
        mut on_visit: F,
    ) -> (Option<&T>, QueryStats) {
        let mut stats = QueryStats::default();
        if self.is_empty() || !self.nodes[self.root].mbr.intersects(q) {
            return (None, stats);
        }
        stats.presize(self.height);
        let qc = q.center();
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        while let Some((id, level)) = stack.pop() {
            stats.bump(level);
            on_visit(id, level);
            match &self.nodes[id].kind {
                NodeKind::Leaf(items) => {
                    for o in items {
                        stats.leaf_entries_tested += 1;
                        if o.aabb().intersects(q) {
                            stats.results = 1;
                            return (Some(o), stats);
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    // Push farthest-first so the closest child pops first.
                    let mut cand: Vec<NodeId> = children
                        .iter()
                        .copied()
                        .filter(|&c| self.nodes[c].mbr.intersects(q))
                        .collect();
                    cand.sort_by(|&a, &b| {
                        let da = self.nodes[a].mbr.center().distance_sq(qc);
                        let db = self.nodes[b].mbr.center().distance_sq(qc);
                        db.partial_cmp(&da).unwrap_or(Ordering::Equal)
                    });
                    for c in cand {
                        stack.push((c, level + 1));
                    }
                }
            }
        }
        (None, stats)
    }

    /// Allocation-free, flow-controlled range query: every object whose
    /// AABB intersects `q` is offered to `sink`, traversal state lives in
    /// `scratch` (reused across queries), and the returned counters are
    /// plain `Copy` data. The sink decides per candidate whether it
    /// counts ([`Flow::Emit`]), is filtered out ([`Flow::Skip`]) or ends
    /// the traversal right here ([`Flow::Last`]). On a
    /// [frozen](RTree::freeze) tree the child-MBR tests scan the
    /// contiguous SoA lanes; on an unfrozen tree an iterative pointer
    /// walk with the same visit order is used. With an always-`Emit`
    /// sink the node visits, entries tested, results and emission order
    /// are identical to [`range_query`](Self::range_query) either way.
    pub fn range_query_stream<'a, S: FnMut(&'a T) -> Flow>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        mut sink: S,
    ) -> TraversalCounters {
        let mut c = TraversalCounters::default();
        if self.is_empty() || !self.nodes[self.root].mbr.intersects(q) {
            return c;
        }
        scratch.stack.clear();
        match &self.soa {
            Some(soa) => {
                scratch.stack.push(soa.root());
                while let Some(n) = scratch.stack.pop() {
                    c.nodes_visited += 1;
                    let (s, e) = soa.entries(n);
                    if soa.is_leaf(n) {
                        let items = self.leaf_objects(soa.orig(n));
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
                    } else {
                        for i in s..e {
                            if soa.entry_intersects(i, q) {
                                scratch.stack.push(soa.entry_ref(i));
                            }
                        }
                    }
                }
            }
            None => {
                scratch.stack.push(self.root as u32);
                while let Some(id) = scratch.stack.pop() {
                    c.nodes_visited += 1;
                    match &self.nodes[id as usize].kind {
                        NodeKind::Leaf(items) => {
                            for o in items {
                                c.leaf_entries_tested += 1;
                                if o.aabb().intersects(q) {
                                    match sink(o) {
                                        Flow::Emit => c.results += 1,
                                        Flow::Skip => {}
                                        Flow::Last => {
                                            c.results += 1;
                                            return c;
                                        }
                                    }
                                }
                            }
                        }
                        NodeKind::Inner(children) => {
                            for &ch in children {
                                if self.nodes[ch].mbr.intersects(q) {
                                    scratch.stack.push(ch as u32);
                                }
                            }
                        }
                    }
                }
            }
        }
        c
    }

    /// Allocation-free [`first_hit`](Self::first_hit): same best-first
    /// descent, with the candidate ordering buffer and stack borrowed
    /// from `scratch`.
    pub fn first_hit_scratch<'a>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
    ) -> (Option<&'a T>, TraversalCounters) {
        let mut c = TraversalCounters::default();
        if self.is_empty() || !self.nodes[self.root].mbr.intersects(q) {
            return (None, c);
        }
        let qc = q.center();
        scratch.stack.clear();
        match &self.soa {
            Some(soa) => {
                scratch.stack.push(soa.root());
                while let Some(n) = scratch.stack.pop() {
                    c.nodes_visited += 1;
                    let (s, e) = soa.entries(n);
                    if soa.is_leaf(n) {
                        let items = self.leaf_objects(soa.orig(n));
                        for i in s..e {
                            c.leaf_entries_tested += 1;
                            if soa.entry_intersects(i, q) {
                                c.results = 1;
                                return (Some(&items[i - s]), c);
                            }
                        }
                    } else {
                        // Push farthest-first so the closest child pops
                        // first — the same ordering (and the same centre
                        // arithmetic) as the pointer path.
                        scratch.cand.clear();
                        scratch.cand.extend(
                            (s..e).filter(|&i| soa.entry_intersects(i, q)).map(|i| i as u32),
                        );
                        scratch.cand.sort_by(|&a, &b| {
                            let da = soa.entry_center(a as usize).distance_sq(qc);
                            let db = soa.entry_center(b as usize).distance_sq(qc);
                            db.partial_cmp(&da).unwrap_or(Ordering::Equal)
                        });
                        for i in 0..scratch.cand.len() {
                            scratch.stack.push(soa.entry_ref(scratch.cand[i] as usize));
                        }
                    }
                }
            }
            None => {
                scratch.stack.push(self.root as u32);
                while let Some(id) = scratch.stack.pop() {
                    c.nodes_visited += 1;
                    match &self.nodes[id as usize].kind {
                        NodeKind::Leaf(items) => {
                            for o in items {
                                c.leaf_entries_tested += 1;
                                if o.aabb().intersects(q) {
                                    c.results = 1;
                                    return (Some(o), c);
                                }
                            }
                        }
                        NodeKind::Inner(children) => {
                            scratch.cand.clear();
                            scratch.cand.extend(
                                children
                                    .iter()
                                    .filter(|&&ch| self.nodes[ch].mbr.intersects(q))
                                    .map(|&ch| ch as u32),
                            );
                            scratch.cand.sort_by(|&a, &b| {
                                let da = self.nodes[a as usize].mbr.center().distance_sq(qc);
                                let db = self.nodes[b as usize].mbr.center().distance_sq(qc);
                                db.partial_cmp(&da).unwrap_or(Ordering::Equal)
                            });
                            for i in 0..scratch.cand.len() {
                                scratch.stack.push(scratch.cand[i]);
                            }
                        }
                    }
                }
            }
        }
        (None, c)
    }

    /// Best-first k-nearest-neighbour search from a point (distances are
    /// AABB distances — exact refinement is the caller's concern, as
    /// everywhere else in the filter/refine pipeline).
    // `!(d > kth)` is deliberate NaN handling, not a spelled-out `<=`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn knn(&self, p: Vec3, k: usize) -> (Vec<KnnResult<'_, T>>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut out: Vec<KnnResult<'_, T>> = Vec::with_capacity(k);
        if self.is_empty() || k == 0 {
            return (out, stats);
        }
        stats.presize(self.height);
        // Two heaps: node frontier (min-dist) and current best results.
        let mut frontier = BinaryHeap::new();
        frontier.push(HeapEntry {
            dist: self.nodes[self.root].mbr.min_distance_to_point(p),
            node: self.root,
        });

        // Track the current k-th best distance for pruning.
        let kth = |out: &Vec<KnnResult<'_, T>>| {
            if out.len() < k {
                f64::INFINITY
            } else {
                out.last().expect("non-empty").distance
            }
        };

        while let Some(HeapEntry { dist, node }) = frontier.pop() {
            if dist > kth(&out) {
                break; // no closer node can exist
            }
            let level = self.level_of(node);
            stats.bump(level);
            match &self.nodes[node].kind {
                NodeKind::Leaf(items) => {
                    for o in items {
                        stats.leaf_entries_tested += 1;
                        let d = o.aabb().min_distance_to_point(p);
                        if d < kth(&out) || out.len() < k {
                            let pos = out
                                .binary_search_by(|r| {
                                    r.distance.partial_cmp(&d).unwrap_or(Ordering::Equal)
                                })
                                .unwrap_or_else(|e| e);
                            out.insert(pos, KnnResult { object: o, distance: d });
                            out.truncate(k);
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    for &c in children {
                        let d = self.nodes[c].mbr.min_distance_to_point(p);
                        // `!(d > kth)` rather than `d <= kth`: identical
                        // for finite distances, but a NaN distance (a
                        // query point derived from a degenerate AABB)
                        // counts as "unknown — explore", not "prune",
                        // so the search still terminates with k results.
                        if !(d > kth(&out)) {
                            frontier.push(HeapEntry { dist: d, node: c });
                        }
                    }
                }
            }
        }
        stats.results = out.len() as u64;
        (out, stats)
    }

    /// Level of a node, root = 0 (O(height) walk up).
    fn level_of(&self, mut id: NodeId) -> usize {
        let mut l = 0;
        while let Some(p) = self.nodes[id].parent {
            id = p;
            l += 1;
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;

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
        let (hit, stats) = t.first_hit(&q_hit);
        let o = hit.expect("region is populated");
        assert!(o.intersects(&q_hit));
        assert!(stats.nodes_visited() >= 1);

        let q_miss = Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 1.0);
        assert!(t.first_hit(&q_miss).0.is_none());
        assert_eq!(brute(&objs, &q_miss), 0);
    }

    #[test]
    fn first_hit_is_cheaper_than_full_query() {
        let (t, _) = grid_tree(4000, 16);
        let q = Aabb::new(Vec3::ZERO, Vec3::splat(30.0)); // large, many results
        let (_, full) = t.range_query(&q);
        let (_, seed) = t.first_hit(&q);
        assert!(
            seed.nodes_visited() < full.nodes_visited() / 4,
            "seed {} vs full {}",
            seed.nodes_visited(),
            full.nodes_visited()
        );
    }

    #[test]
    fn knn_matches_brute_force() {
        let (t, objs) = grid_tree(1500, 16);
        for (p, k) in [
            (Vec3::new(7.3, 11.9, 2.2), 1usize),
            (Vec3::new(0.0, 0.0, 0.0), 5),
            (Vec3::new(40.0, 40.0, 10.0), 12),
            (Vec3::new(-5.0, 18.0, 1.0), 3),
        ] {
            let (got, _) = t.knn(p, k);
            let mut want: Vec<f64> = objs.iter().map(|o| o.min_distance_to_point(p)).collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(got.len(), k);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.distance - w).abs() < 1e-9, "knn distance mismatch at {p} k={k}");
            }
            // Results sorted ascending.
            for w in got.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
        }
    }

    #[test]
    fn knn_edge_cases() {
        let (t, objs) = grid_tree(100, 8);
        let (all, _) = t.knn(Vec3::ZERO, 1000); // k > n
        assert_eq!(all.len(), objs.len());
        let (none, _) = t.knn(Vec3::ZERO, 0);
        assert!(none.is_empty());
        let empty: RTree<Aabb> = RTree::new(RTreeParams::default());
        assert!(empty.knn(Vec3::ZERO, 3).0.is_empty());
        assert!(empty.range_query(&Aabb::cube(Vec3::ZERO, 1.0)).0.is_empty());
        assert!(empty.first_hit(&Aabb::cube(Vec3::ZERO, 1.0)).0.is_none());
    }

    #[test]
    fn knn_survives_nan_distances() {
        // Regression for the `HeapEntry` ordering: with
        // `partial_cmp(..).unwrap_or(Equal)` a NaN frontier distance
        // compared Equal to everything and silently corrupted the heap's
        // best-first order. A NaN query point makes *every* distance NaN
        // (the degenerate/NaN-prone extreme); a partially-NaN point mixes
        // NaN and finite distances in one frontier. Both must terminate
        // and return exactly k results without panicking, and with
        // `total_cmp` the finite distances must still come out ascending.
        let (t, objs) = grid_tree(400, 8);
        for p in [
            Vec3::new(f64::NAN, f64::NAN, f64::NAN),
            Vec3::new(f64::NAN, 5.0, 1.0),
            Vec3::new(7.0, f64::NAN, 0.0),
        ] {
            let (got, stats) = t.knn(p, 6);
            assert_eq!(got.len(), 6, "query point {p}");
            assert_eq!(stats.results, 6);
            let finite: Vec<f64> =
                got.iter().map(|r| r.distance).filter(|d| d.is_finite()).collect();
            for w in finite.windows(2) {
                assert!(w[0] <= w[1], "finite distances must stay sorted at {p}");
            }
        }
        // The realistic source of such a point: the centre of a
        // degenerate (EMPTY) AABB is ∞ + -∞ = NaN on every axis.
        let p = Aabb::EMPTY.center();
        assert!(p.x.is_nan());
        let (got, _) = t.knn(p, 3);
        assert_eq!(got.len(), 3, "NaN-prone degenerate-AABB query point");
        let _ = objs;
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let (mut t, objs) = grid_tree(2500, 16);
        t.freeze();
        let queries = [
            Aabb::new(Vec3::ZERO, Vec3::splat(6.0)),
            Aabb::cube(Vec3::new(18.0, 18.0, 3.0), 4.0),
            Aabb::cube(Vec3::new(-100.0, 0.0, 0.0), 1.0), // empty
            Aabb::new(Vec3::splat(-100.0), Vec3::splat(100.0)), // everything
        ];
        let mut scratch = TraversalScratch::default();
        // Frozen (SoA lanes) and unfrozen (pointer fallback) give the
        // same answers, in the same emission order, with the same counts.
        for frozen in [true, false] {
            if !frozen {
                t.soa = None;
            }
            for q in &queries {
                let (want, stats) = t.range_query(q);
                let mut got: Vec<&Aabb> = Vec::new();
                let c = t.range_query_stream(q, &mut scratch, |o| {
                    got.push(o);
                    Flow::Emit
                });
                assert_eq!(got.len(), want.len(), "frozen={frozen} at {q}");
                assert!(got.iter().zip(&want).all(|(a, b)| std::ptr::eq(*a, *b)), "order");
                assert_eq!(c.nodes_visited, stats.nodes_visited(), "frozen={frozen} at {q}");
                assert_eq!(c.leaf_entries_tested, stats.leaf_entries_tested);
                assert_eq!(c.results, stats.results);

                let (want_hit, hit_stats) = t.first_hit(q);
                let (got_hit, hc) = t.first_hit_scratch(q, &mut scratch);
                assert_eq!(got_hit.is_some(), want_hit.is_some(), "frozen={frozen}");
                if let (Some(a), Some(b)) = (got_hit, want_hit) {
                    assert!(std::ptr::eq(a, b), "same first hit");
                }
                assert_eq!(hc.nodes_visited, hit_stats.nodes_visited());
                assert_eq!(hc.leaf_entries_tested, hit_stats.leaf_entries_tested);
            }
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
