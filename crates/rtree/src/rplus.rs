//! R+-Tree-style index (Sellis, Roussopoulos & Faloutsos, VLDB'87) —
//! the overlap-free variant the paper singles out in §2: "the R+-Tree
//! replicates elements to avoid overlap but thereby also increases the
//! index size considerably."
//!
//! Space is partitioned KD-style into *disjoint* regions; an object
//! intersecting several regions is stored in every one of them. Queries
//! never suffer from overlapping subtrees (each point of space belongs to
//! exactly one leaf), but the index grows with the replication factor and
//! results must be de-duplicated — exactly the trade-off the demo paper
//! cites as motivation for FLAT's different approach.

use crate::node::RTreeObject;
use crate::query::QueryStats;
use crate::soa::{TraversalCounters, TraversalScratch};
use neurospatial_geom::{Aabb, Flow};

/// Node id within the R+ arena.
pub type RPlusNodeId = usize;

#[derive(Debug, Clone)]
enum RPlusNode {
    /// Disjoint child regions.
    Inner { region: Aabb, children: Vec<RPlusNodeId> },
    /// Indices into the object store (may contain replicas of objects
    /// also present in sibling leaves).
    Leaf { region: Aabb, objects: Vec<u32> },
}

impl RPlusNode {
    fn region(&self) -> Aabb {
        match self {
            RPlusNode::Inner { region, .. } | RPlusNode::Leaf { region, .. } => *region,
        }
    }
}

/// A static, bulk-built R+-style index.
#[derive(Debug, Clone)]
pub struct RPlusTree<T: RTreeObject> {
    objects: Vec<T>,
    nodes: Vec<RPlusNode>,
    root: RPlusNodeId,
    /// Total leaf entries (≥ `objects.len()` because of replication).
    stored_entries: u64,
    height: usize,
}

impl<T: RTreeObject> RPlusTree<T> {
    /// Bulk-build with at most `leaf_capacity` entries per leaf (leaves
    /// holding objects that cannot be separated by any axis cut may
    /// exceed it — replication cannot split an object).
    pub fn build(objects: Vec<T>, leaf_capacity: usize) -> Self {
        assert!(leaf_capacity >= 1);
        let bounds = objects.iter().fold(Aabb::EMPTY, |a, o| a.union(&o.aabb()));
        let mut tree =
            RPlusTree { nodes: Vec::new(), root: 0, stored_entries: 0, height: 1, objects };
        if tree.objects.is_empty() {
            tree.nodes.push(RPlusNode::Leaf { region: Aabb::EMPTY, objects: Vec::new() });
            return tree;
        }
        let all: Vec<u32> = (0..tree.objects.len() as u32).collect();
        let (root, height) = tree.split_region(bounds, all, leaf_capacity, 1);
        tree.root = root;
        tree.height = height;
        tree
    }

    /// Recursive KD partition of `region`; returns (node id, subtree height).
    fn split_region(
        &mut self,
        region: Aabb,
        members: Vec<u32>,
        cap: usize,
        depth: usize,
    ) -> (RPlusNodeId, usize) {
        // Depth guard: pathological data (everything coincident) cannot be
        // separated — force an oversized leaf rather than recursing forever.
        if members.len() <= cap || depth > 48 {
            self.stored_entries += members.len() as u64;
            self.nodes.push(RPlusNode::Leaf { region, objects: members });
            return (self.nodes.len() - 1, 1);
        }

        // Cut at the median object centre along the region's longest axis.
        let axis = region.longest_axis();
        let mut centers: Vec<f64> =
            members.iter().map(|&i| self.objects[i as usize].aabb().center().axis(axis)).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut cut = centers[centers.len() / 2];
        // Clamp strictly inside the region so both halves are non-empty
        // volumes; nudge off the boundary if the median sits on it.
        let (lo, hi) = (region.lo.axis(axis), region.hi.axis(axis));
        if cut <= lo || cut >= hi {
            cut = 0.5 * (lo + hi);
        }

        let mut left_region = region;
        left_region.hi.set_axis(axis, cut);
        let mut right_region = region;
        right_region.lo.set_axis(axis, cut);

        // Distribute members; objects strictly spanning the cut are
        // *replicated*. The assignment is half-open (an object touching
        // the plane with zero extent goes right only) so point data on
        // cut planes is not duplicated; queries remain exact because the
        // regions themselves stay closed — a query touching the plane
        // descends into both halves.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &i in &members {
            let bb = self.objects[i as usize].aabb();
            if bb.lo.axis(axis) < cut {
                left.push(i);
            }
            if bb.hi.axis(axis) >= cut {
                right.push(i);
            }
        }
        // Degenerate cut (everything straddles): force a leaf.
        if left.len() == members.len() && right.len() == members.len() {
            self.stored_entries += members.len() as u64;
            self.nodes.push(RPlusNode::Leaf { region, objects: members });
            return (self.nodes.len() - 1, 1);
        }

        let (lid, lh) = self.split_region(left_region, left, cap, depth + 1);
        let (rid, rh) = self.split_region(right_region, right, cap, depth + 1);
        self.nodes.push(RPlusNode::Inner { region, children: vec![lid, rid] });
        (self.nodes.len() - 1, 1 + lh.max(rh))
    }

    pub fn len(&self) -> usize {
        self.objects.len()
    }

    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Bounding region of the root (`Aabb::EMPTY` when the tree is empty).
    pub fn bounds(&self) -> Aabb {
        self.nodes[self.root].region()
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf entries stored, including replicas.
    pub fn stored_entries(&self) -> u64 {
        self.stored_entries
    }

    /// Replication factor: stored entries / distinct objects (≥ 1) — the
    /// "index size" cost the paper attributes to the R+-Tree.
    pub fn replication_factor(&self) -> f64 {
        if self.objects.is_empty() {
            return 1.0;
        }
        self.stored_entries as f64 / self.objects.len() as f64
    }

    /// Range query: every object whose AABB intersects `q`, each reported
    /// once (replicas de-duplicated with visit marks).
    pub fn range_query(&self, q: &Aabb) -> (Vec<&T>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        let c = self.walk(
            q,
            &mut TraversalScratch::default(),
            |l| stats.bump(l, self.height),
            |o| {
                out.push(o);
                Flow::Emit
            },
        );
        stats.leaf_entries_tested = c.leaf_entries_tested;
        stats.results = c.results;
        (out, stats)
    }

    /// Allocation-free, flow-controlled range query: replica
    /// de-duplication uses the scratch's epoch-stamped marks (O(1) to
    /// reset between queries) instead of a fresh `vec![false; n]`, and
    /// the traversal stack is reused. Each distinct object is offered to
    /// the sink at most once (replicas are de-duplicated *before* the
    /// verdict, so a predicate runs once per object); [`Flow::Skip`]
    /// rejects it, [`Flow::Last`] counts it and stops the traversal. With
    /// an always-`Emit` sink the visits, tests, results and emission
    /// order match [`range_query`](Self::range_query).
    pub fn range_query_stream<'a, S: FnMut(&'a T) -> Flow>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        sink: S,
    ) -> TraversalCounters {
        self.walk(q, scratch, |_| {}, sink)
    }

    /// The one traversal behind both range queries; `on_visit` sees the
    /// level of every visited node (root = 0).
    fn walk<'a>(
        &'a self,
        q: &Aabb,
        scratch: &mut TraversalScratch,
        mut on_visit: impl FnMut(usize),
        mut sink: impl FnMut(&'a T) -> Flow,
    ) -> TraversalCounters {
        let mut c = TraversalCounters::default();
        if self.objects.is_empty() || !self.nodes[self.root].region().intersects(q) {
            return c;
        }
        scratch.dedup.begin(self.objects.len());
        scratch.stack.clear();
        scratch.stack.push((self.root as u32, 0));
        while let Some((id, level)) = scratch.stack.pop() {
            c.nodes_visited += 1;
            on_visit(level as usize);
            match &self.nodes[id as usize] {
                RPlusNode::Leaf { objects, .. } => {
                    for &i in objects {
                        c.leaf_entries_tested += 1;
                        if !scratch.dedup.is_marked(i as usize)
                            && self.objects[i as usize].aabb().intersects(q)
                        {
                            scratch.dedup.mark(i as usize);
                            match sink(&self.objects[i as usize]) {
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
                RPlusNode::Inner { children, .. } => {
                    for &ch in children {
                        if self.nodes[ch].region().intersects(q) {
                            scratch.stack.push((ch as u32, level + 1));
                        }
                    }
                }
            }
        }
        c
    }

    /// Verify the R+ invariant: sibling regions are interior-disjoint and
    /// children tile their parent.
    pub fn validate(&self) -> Result<(), String> {
        for (id, n) in self.nodes.iter().enumerate() {
            if let RPlusNode::Inner { region, children } = n {
                for (a, &ca) in children.iter().enumerate() {
                    let ra = self.nodes[ca].region();
                    if !region.contains(&ra) && !ra.is_empty() {
                        return Err(format!("node {id}: child {ca} region escapes parent"));
                    }
                    for &cb in children.iter().skip(a + 1) {
                        let rb = self.nodes[cb].region();
                        let ov = ra.overlap_volume(&rb);
                        if ov > 1e-9 {
                            return Err(format!("node {id}: children {ca},{cb} overlap by {ov}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Vec3;

    fn overlapping_boxes(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = ((i / 20) % 20) as f64;
                let z = (i / 400) as f64;
                Aabb::cube(Vec3::new(x, y, z), 0.9) // heavy mutual overlap
            })
            .collect()
    }

    #[test]
    fn exact_results_with_dedup() {
        let objs = overlapping_boxes(2000);
        let t = RPlusTree::build(objs.clone(), 16);
        t.validate().unwrap();
        for q in [
            Aabb::cube(Vec3::new(10.0, 10.0, 2.0), 3.0),
            Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 1.0),
            Aabb::new(Vec3::splat(-10.0), Vec3::splat(50.0)),
            Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 5.0),
        ] {
            let (hits, stats) = t.range_query(&q);
            let want = objs.iter().filter(|o| o.intersects(&q)).count();
            assert_eq!(hits.len(), want, "query {q}");
            assert_eq!(stats.results as usize, want);
        }
    }

    #[test]
    fn replication_increases_index_size() {
        // The paper's point: on overlapping data the R+-Tree stores
        // considerably more entries than there are objects.
        let t = RPlusTree::build(overlapping_boxes(3000), 16);
        assert!(
            t.replication_factor() > 1.2,
            "expected visible replication, got {}",
            t.replication_factor()
        );
        assert!(t.stored_entries() > 3000);
    }

    #[test]
    fn point_data_needs_no_replication() {
        let objs: Vec<Aabb> = (0..500)
            .map(|i| Aabb::point(Vec3::new((i % 25) as f64 * 3.0, (i / 25) as f64 * 3.0, 0.0)))
            .collect();
        let t = RPlusTree::build(objs, 8);
        // Points on a grid may sit exactly on cut planes and be kept in
        // both halves; the factor stays near 1.
        assert!(t.replication_factor() < 1.2, "got {}", t.replication_factor());
        t.validate().unwrap();
    }

    #[test]
    fn empty_and_degenerate() {
        let e: RPlusTree<Aabb> = RPlusTree::build(vec![], 8);
        assert!(e.is_empty());
        assert!(e.range_query(&Aabb::cube(Vec3::ZERO, 1.0)).0.is_empty());

        // All-coincident objects cannot be separated: depth guard forces
        // an oversized leaf, queries stay exact.
        let same: Vec<Aabb> = (0..100).map(|_| Aabb::cube(Vec3::ONE, 1.0)).collect();
        let t = RPlusTree::build(same, 8);
        let (hits, _) = t.range_query(&Aabb::cube(Vec3::ONE, 0.5));
        assert_eq!(hits.len(), 100);
        t.validate().unwrap();
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let t = RPlusTree::build(overlapping_boxes(1500), 16);
        let mut scratch = TraversalScratch::default();
        // Repeated reuse of one scratch across many queries: the epoch
        // trick must keep de-duplication exact on every pass.
        for pass in 0..3 {
            for q in [
                Aabb::cube(Vec3::new(10.0, 10.0, 2.0), 3.0),
                Aabb::new(Vec3::splat(-10.0), Vec3::splat(50.0)),
                Aabb::cube(Vec3::new(500.0, 0.0, 0.0), 5.0), // empty
            ] {
                let (want, stats) = t.range_query(&q);
                let mut got: Vec<&Aabb> = Vec::new();
                let c = t.range_query_stream(&q, &mut scratch, |o| {
                    got.push(o);
                    Flow::Emit
                });
                assert_eq!(got.len(), want.len(), "pass={pass} at {q}");
                assert!(got.iter().zip(&want).all(|(a, b)| std::ptr::eq(*a, *b)), "order");
                assert_eq!(c.nodes_visited, stats.nodes_visited(), "pass={pass} at {q}");
                assert_eq!(c.leaf_entries_tested, stats.leaf_entries_tested);
                assert_eq!(c.results, stats.results);
            }
        }
    }

    #[test]
    fn no_duplicates_in_results() {
        let objs: Vec<Aabb> =
            (0..200).map(|i| Aabb::cube(Vec3::new(i as f64 * 0.3, 0.0, 0.0), 5.0)).collect();
        let t = RPlusTree::build(objs, 4);
        assert!(t.replication_factor() > 1.5, "long boxes replicate heavily");
        let (hits, _) = t.range_query(&Aabb::cube(Vec3::new(30.0, 0.0, 0.0), 10.0));
        let mut ptrs: Vec<*const Aabb> = hits.iter().map(|h| *h as *const Aabb).collect();
        ptrs.sort();
        let n = ptrs.len();
        ptrs.dedup();
        assert_eq!(ptrs.len(), n, "an object was reported twice");
    }
}
