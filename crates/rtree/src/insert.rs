//! Dynamic insertion: Guttman's ChooseLeaf + overflow splits.
//!
//! Three split strategies are provided (linear, quadratic, R*-topological)
//! so the experiments can reproduce the "R-Trees and variants" family the
//! paper says degrade on dense data (§2). Dynamic trees accumulate far
//! more overlap than STR-packed ones — E1/E2 quantify exactly that.

use crate::node::{Node, NodeKind, RTreeObject};
use crate::params::SplitStrategy;
use crate::{NodeId, RTree};
use neurospatial_geom::Aabb;

impl<T: RTreeObject> RTree<T> {
    /// Insert one object. Drops the frozen SoA query layout; the next
    /// query, or [`RTree::freeze`] once the batch of mutations is done,
    /// rebuilds it.
    pub fn insert(&mut self, obj: T) {
        self.soa.take();
        let bb = obj.aabb();
        debug_assert!(bb.is_valid(), "object AABB must be valid");
        let leaf = self.choose_leaf(bb);
        match &mut self.nodes[leaf].kind {
            NodeKind::Leaf(items) => items.push(obj),
            NodeKind::Inner(_) => unreachable!("choose_leaf returns a leaf"),
        }
        self.nodes[leaf].mbr = self.nodes[leaf].mbr.union(&bb);
        self.len += 1;
        self.handle_overflow(leaf);
        self.propagate_mbr(self.nodes[leaf].parent);
    }

    /// Descend from the root picking the child needing least enlargement
    /// (ties: smaller volume, then fewer entries).
    fn choose_leaf(&self, bb: Aabb) -> NodeId {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur].kind {
                NodeKind::Leaf(_) => return cur,
                NodeKind::Inner(children) => {
                    debug_assert!(!children.is_empty(), "inner node with no children");
                    let mut best = children[0];
                    let mut best_enl = f64::INFINITY;
                    let mut best_vol = f64::INFINITY;
                    for &c in children {
                        let m = self.nodes[c].mbr;
                        let enl = m.enlargement(&bb);
                        let vol = m.volume();
                        if enl < best_enl - 1e-12
                            || ((enl - best_enl).abs() <= 1e-12 && vol < best_vol)
                        {
                            best = c;
                            best_enl = enl;
                            best_vol = vol;
                        }
                    }
                    cur = best;
                }
            }
        }
    }

    /// Split `node` if it exceeds the fan-out, propagating upwards.
    fn handle_overflow(&mut self, mut node: NodeId) {
        while self.nodes[node].entry_count() > self.params.max_entries {
            let parent = self.nodes[node].parent;
            let sibling = self.split_node(node);

            match parent {
                Some(p) => {
                    self.nodes[sibling].parent = Some(p);
                    match &mut self.nodes[p].kind {
                        NodeKind::Inner(ch) => ch.push(sibling),
                        NodeKind::Leaf(_) => unreachable!("parent of a node is inner"),
                    }
                    self.recompute_mbr(p);
                    node = p;
                }
                None => {
                    // Root split: grow the tree.
                    let new_root = self.alloc(Node::new_inner());
                    self.nodes[new_root].kind = NodeKind::Inner(vec![node, sibling]);
                    self.nodes[node].parent = Some(new_root);
                    self.nodes[sibling].parent = Some(new_root);
                    self.recompute_mbr(new_root);
                    self.root = new_root;
                    self.height += 1;
                    return;
                }
            }
        }
    }

    /// Split the entries of `node` in two; `node` keeps group A, the
    /// returned sibling holds group B.
    fn split_node(&mut self, node: NodeId) -> NodeId {
        let strategy = self.params.split;
        let min = self.params.min_entries;
        match std::mem::replace(&mut self.nodes[node].kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(items) => {
                let boxes: Vec<Aabb> = items.iter().map(|o| o.aabb()).collect();
                let (ga, gb) = split_groups(&boxes, min, strategy);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let mut in_a = vec![false; boxes.len()];
                for &i in &ga {
                    in_a[i] = true;
                }
                for (i, o) in items.into_iter().enumerate() {
                    if in_a[i] {
                        a.push(o);
                    } else {
                        b.push(o);
                    }
                }
                let sibling = self.alloc(Node::new_leaf());
                self.nodes[node].kind = NodeKind::Leaf(a);
                self.nodes[sibling].kind = NodeKind::Leaf(b);
                self.recompute_mbr(node);
                self.recompute_mbr(sibling);
                let _ = gb;
                sibling
            }
            NodeKind::Inner(children) => {
                let boxes: Vec<Aabb> = children.iter().map(|&c| self.nodes[c].mbr).collect();
                let (ga, _) = split_groups(&boxes, min, strategy);
                let mut in_a = vec![false; boxes.len()];
                for &i in &ga {
                    in_a[i] = true;
                }
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for (i, c) in children.into_iter().enumerate() {
                    if in_a[i] {
                        a.push(c);
                    } else {
                        b.push(c);
                    }
                }
                let sibling = self.alloc(Node::new_inner());
                for &c in &b {
                    self.nodes[c].parent = Some(sibling);
                }
                self.nodes[node].kind = NodeKind::Inner(a);
                self.nodes[sibling].kind = NodeKind::Inner(b);
                self.recompute_mbr(node);
                self.recompute_mbr(sibling);
                sibling
            }
        }
    }

    /// Allocate an arena slot, reusing freed ones.
    pub(crate) fn alloc(&mut self, n: Node<T>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = n;
            id
        } else {
            self.nodes.push(n);
            self.nodes.len() - 1
        }
    }

    /// Recompute a node's MBR from its entries.
    pub(crate) fn recompute_mbr(&mut self, id: NodeId) {
        let mbr = match &self.nodes[id].kind {
            NodeKind::Leaf(items) => items.iter().fold(Aabb::EMPTY, |a, o| a.union(&o.aabb())),
            NodeKind::Inner(children) => {
                children.iter().fold(Aabb::EMPTY, |a, &c| a.union(&self.nodes[c].mbr))
            }
        };
        self.nodes[id].mbr = mbr;
    }

    /// Recompute MBRs from `from` up to the root.
    pub(crate) fn propagate_mbr(&mut self, mut from: Option<NodeId>) {
        while let Some(id) = from {
            self.recompute_mbr(id);
            from = self.nodes[id].parent;
        }
    }
}

/// Partition `boxes` (indices) into two groups, each of size ≥ `min`.
pub(crate) fn split_groups(
    boxes: &[Aabb],
    min: usize,
    strategy: SplitStrategy,
) -> (Vec<usize>, Vec<usize>) {
    debug_assert!(boxes.len() >= 2 * min, "not enough entries to split");
    match strategy {
        SplitStrategy::Linear => linear_split(boxes, min),
        SplitStrategy::Quadratic => quadratic_split(boxes, min),
        SplitStrategy::RStar => rstar_split(boxes, min),
    }
}

/// Guttman linear: seeds are the pair with greatest normalised separation;
/// the rest are assigned greedily by least enlargement.
fn linear_split(boxes: &[Aabb], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    // Find, per axis, the box with the highest low side and the box with
    // the lowest high side; normalise the separation by the axis width.
    let mut best_axis_sep = -1.0f64;
    let mut seeds = (0usize, 1usize);
    for axis in 0..3 {
        let (mut lo_hi, mut lo_hi_i) = (f64::INFINITY, 0usize); // lowest high side
        let (mut hi_lo, mut hi_lo_i) = (f64::NEG_INFINITY, 0usize); // highest low side
        let (mut amin, mut amax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, b) in boxes.iter().enumerate() {
            if b.hi.axis(axis) < lo_hi {
                lo_hi = b.hi.axis(axis);
                lo_hi_i = i;
            }
            if b.lo.axis(axis) > hi_lo {
                hi_lo = b.lo.axis(axis);
                hi_lo_i = i;
            }
            amin = amin.min(b.lo.axis(axis));
            amax = amax.max(b.hi.axis(axis));
        }
        let width = (amax - amin).max(1e-12);
        let sep = (hi_lo - lo_hi) / width;
        if sep > best_axis_sep && lo_hi_i != hi_lo_i {
            best_axis_sep = sep;
            seeds = (lo_hi_i, hi_lo_i);
        }
    }
    if seeds.0 == seeds.1 {
        seeds = (0, n - 1); // fully degenerate (all identical boxes)
    }
    distribute_remaining(boxes, seeds, min)
}

/// Guttman quadratic: seeds are the pair wasting the most area if grouped;
/// remaining entries go to the group with the strongest preference.
fn quadratic_split(boxes: &[Aabb], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    let mut seeds = (0usize, 1usize);
    let mut worst = f64::NEG_INFINITY;
    for i in 0..n {
        for j in i + 1..n {
            let waste = boxes[i].union(&boxes[j]).volume() - boxes[i].volume() - boxes[j].volume();
            if waste > worst {
                worst = waste;
                seeds = (i, j);
            }
        }
    }
    distribute_remaining(boxes, seeds, min)
}

/// Greedy distribution used by both Guttman variants.
fn distribute_remaining(
    boxes: &[Aabb],
    seeds: (usize, usize),
    min: usize,
) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    let (mut a, mut b) = (vec![seeds.0], vec![seeds.1]);
    let mut mbr_a = boxes[seeds.0];
    let mut mbr_b = boxes[seeds.1];
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != seeds.0 && i != seeds.1).collect();

    while let Some(pos) = pick_next(&rest, boxes, &mbr_a, &mbr_b) {
        let i = rest.swap_remove(pos);
        // Force-assign to honour the minimum fill.
        let need_a = min.saturating_sub(a.len());
        let need_b = min.saturating_sub(b.len());
        let remaining = rest.len() + 1;
        let to_a = if need_a >= remaining {
            true
        } else if need_b >= remaining {
            false
        } else {
            let ea = mbr_a.enlargement(&boxes[i]);
            let eb = mbr_b.enlargement(&boxes[i]);
            if (ea - eb).abs() > 1e-12 {
                ea < eb
            } else if (mbr_a.volume() - mbr_b.volume()).abs() > 1e-12 {
                mbr_a.volume() < mbr_b.volume()
            } else {
                a.len() <= b.len()
            }
        };
        if to_a {
            a.push(i);
            mbr_a = mbr_a.union(&boxes[i]);
        } else {
            b.push(i);
            mbr_b = mbr_b.union(&boxes[i]);
        }
    }
    (a, b)
}

/// PickNext of the quadratic algorithm: the entry with the largest
/// preference difference. (Also reused by the linear variant, where
/// Guttman allows any order — the shared implementation keeps behaviour
/// deterministic.)
fn pick_next(rest: &[usize], boxes: &[Aabb], mbr_a: &Aabb, mbr_b: &Aabb) -> Option<usize> {
    if rest.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_diff = -1.0f64;
    for (pos, &i) in rest.iter().enumerate() {
        let d = (mbr_a.enlargement(&boxes[i]) - mbr_b.enlargement(&boxes[i])).abs();
        if d > best_diff {
            best_diff = d;
            best = pos;
        }
    }
    Some(best)
}

/// R*-style topological split: for each axis, sort entries by lower then
/// upper bound; evaluate all legal distributions; pick the axis with the
/// least total margin, then the distribution with the least overlap
/// (ties: least total volume).
fn rstar_split(boxes: &[Aabb], min: usize) -> (Vec<usize>, Vec<usize>) {
    let n = boxes.len();
    let mut best: Option<(f64, f64, Vec<usize>, Vec<usize>)> = None; // (overlap, volume, a, b)
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;

    // Choose the split axis by total margin of all candidate distributions.
    let mut per_axis_orders: Vec<Vec<Vec<usize>>> = Vec::with_capacity(3);
    for axis in 0..3 {
        let mut by_lo: Vec<usize> = (0..n).collect();
        by_lo.sort_by(|&x, &y| {
            boxes[x].lo.axis(axis).partial_cmp(&boxes[y].lo.axis(axis)).expect("finite")
        });
        let mut by_hi: Vec<usize> = (0..n).collect();
        by_hi.sort_by(|&x, &y| {
            boxes[x].hi.axis(axis).partial_cmp(&boxes[y].hi.axis(axis)).expect("finite")
        });
        let mut margin_sum = 0.0;
        for order in [&by_lo, &by_hi] {
            for k in min..=(n - min) {
                let ma = order[..k].iter().fold(Aabb::EMPTY, |m, &i| m.union(&boxes[i]));
                let mb = order[k..].iter().fold(Aabb::EMPTY, |m, &i| m.union(&boxes[i]));
                margin_sum += ma.margin() + mb.margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
        per_axis_orders.push(vec![by_lo, by_hi]);
    }

    for order in &per_axis_orders[best_axis] {
        for k in min..=(n - min) {
            let (ga, gb) = (&order[..k], &order[k..]);
            let ma = ga.iter().fold(Aabb::EMPTY, |m, &i| m.union(&boxes[i]));
            let mb = gb.iter().fold(Aabb::EMPTY, |m, &i| m.union(&boxes[i]));
            let overlap = ma.overlap_volume(&mb);
            let vol = ma.volume() + mb.volume();
            let better = match &best {
                None => true,
                Some((bo, bv, _, _)) => {
                    overlap < bo - 1e-12 || ((overlap - bo).abs() <= 1e-12 && vol < *bv)
                }
            };
            if better {
                best = Some((overlap, vol, ga.to_vec(), gb.to_vec()));
            }
        }
    }
    let (_, _, a, b) = best.expect("at least one distribution exists");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::validate;
    use crate::RTreeParams;
    use neurospatial_geom::Vec3;

    fn boxes_grid(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 2.0;
                let y = ((i / 10) % 10) as f64 * 2.0;
                let z = (i / 100) as f64 * 2.0;
                Aabb::cube(Vec3::new(x, y, z), 0.6)
            })
            .collect()
    }

    #[test]
    fn insert_grows_tree_for_all_strategies() {
        for s in [SplitStrategy::Linear, SplitStrategy::Quadratic, SplitStrategy::RStar] {
            let mut t = RTree::new(RTreeParams::with_max_entries(8).with_split(s));
            for b in boxes_grid(300) {
                t.insert(b);
            }
            assert_eq!(t.len(), 300, "{s:?}");
            assert!(t.height() >= 3, "{s:?} height={}", t.height());
            validate(&t).unwrap();
        }
    }

    #[test]
    fn mbrs_stay_tight_after_inserts() {
        let mut t = RTree::new(RTreeParams::with_max_entries(8));
        for b in boxes_grid(120) {
            t.insert(b);
        }
        // Root MBR equals union of all objects.
        let want = boxes_grid(120).iter().fold(Aabb::EMPTY, |a, b| a.union(b));
        assert_eq!(t.root_mbr(), want);
    }

    #[test]
    fn split_groups_respect_min_fill() {
        let bs = boxes_grid(20);
        for s in [SplitStrategy::Linear, SplitStrategy::Quadratic, SplitStrategy::RStar] {
            let (a, b) = split_groups(&bs, 8, s);
            assert!(a.len() >= 8, "{s:?}: |A|={}", a.len());
            assert!(b.len() >= 8, "{s:?}: |B|={}", b.len());
            assert_eq!(a.len() + b.len(), 20);
            // Partition: no duplicates across groups.
            let mut all: Vec<usize> = a.iter().chain(&b).copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 20);
        }
    }

    #[test]
    fn split_handles_identical_boxes() {
        let bs: Vec<Aabb> = (0..10).map(|_| Aabb::cube(Vec3::ONE, 1.0)).collect();
        for s in [SplitStrategy::Linear, SplitStrategy::Quadratic, SplitStrategy::RStar] {
            let (a, b) = split_groups(&bs, 4, s);
            assert_eq!(a.len() + b.len(), 10, "{s:?}");
            assert!(a.len() >= 4 && b.len() >= 4, "{s:?}");
        }
    }

    #[test]
    fn rstar_split_beats_linear_on_overlap() {
        // Two well-separated clusters with an interleaved index order:
        // R* must find the clean axis cut.
        let mut bs = Vec::new();
        for i in 0..10 {
            bs.push(Aabb::cube(Vec3::new(i as f64 * 0.1, 0.0, 0.0), 0.3));
            bs.push(Aabb::cube(Vec3::new(100.0 + i as f64 * 0.1, 0.0, 0.0), 0.3));
        }
        let (a, _) = split_groups(&bs, 5, SplitStrategy::RStar);
        let ma = a.iter().fold(Aabb::EMPTY, |m, &i| m.union(&bs[i]));
        // Group A is entirely one cluster (width ~1.5, not ~101).
        assert!(ma.extent().x < 10.0, "R* split mixed the clusters: {}", ma.extent().x);
    }

    #[test]
    fn dense_data_overlaps_regardless_of_build_method() {
        // The paper's core observation (§2): on dense data *any* R-Tree
        // accumulates leaf overlap — STR packing does not remove it, it is
        // a property of the data. Both builds must also answer queries
        // identically.
        let objs: Vec<Aabb> = (0..3000)
            .map(|i| {
                // Dense: heavily overlapping boxes on a spiral.
                let f = i as f64 * 0.01;
                Aabb::cube(Vec3::new(f.sin() * 10.0, f.cos() * 10.0, (i % 100) as f64 * 0.2), 1.5)
            })
            .collect();
        let mut dynamic = RTree::new(RTreeParams::with_max_entries(16));
        for o in objs.clone() {
            dynamic.insert(o);
        }
        let packed = RTree::bulk_load(objs, RTreeParams::with_max_entries(16));
        assert!(dynamic.total_leaf_overlap() > 0.0);
        assert!(packed.total_leaf_overlap() > 0.0);
        // Sum of leaf volumes far exceeds the domain volume => dead space
        // + overlap, the pathology FLAT sidesteps.
        assert!(dynamic.total_leaf_volume() > dynamic.root_mbr().volume());
        let q = Aabb::cube(Vec3::new(5.0, 5.0, 10.0), 3.0);
        let (h1, _) = dynamic.range_query(&q);
        let (h2, _) = packed.range_query(&q);
        assert_eq!(h1.len(), h2.len());
    }
}
