//! Deletion with condense-tree reinsertion (Guttman).

use crate::node::{NodeKind, RTreeObject};
use crate::{NodeId, RTree};
use neurospatial_geom::Aabb;

impl<T: RTreeObject + PartialEq> RTree<T> {
    /// Remove one object equal to `obj` (first match in leaf order under
    /// its AABB). Returns `true` if an object was removed.
    pub fn remove(&mut self, obj: &T) -> bool {
        self.soa.take();
        let bb = obj.aabb();
        let Some(leaf) = self.find_leaf(self.root, &bb, obj) else {
            return false;
        };
        match &mut self.nodes[leaf].kind {
            NodeKind::Leaf(items) => {
                let pos = items.iter().position(|o| o == obj).expect("find_leaf found it");
                items.remove(pos);
            }
            NodeKind::Inner(_) => unreachable!("find_leaf returns leaves"),
        }
        self.len -= 1;
        self.recompute_mbr(leaf);
        self.condense(leaf);
        true
    }

    /// Depth-first search for the leaf containing `obj`.
    fn find_leaf(&self, id: NodeId, bb: &Aabb, obj: &T) -> Option<NodeId> {
        if !self.nodes[id].mbr.intersects(bb) {
            return None;
        }
        match &self.nodes[id].kind {
            NodeKind::Leaf(items) => items.iter().any(|o| o == obj).then_some(id),
            NodeKind::Inner(children) => children.iter().find_map(|&c| self.find_leaf(c, bb, obj)),
        }
    }

    /// CondenseTree: remove underflowing nodes bottom-up, collecting their
    /// orphans, then reinsert the orphans.
    fn condense(&mut self, mut node: NodeId) {
        let min = self.params.min_entries;
        let mut orphan_objects: Vec<T> = Vec::new();
        let mut orphan_subtrees: Vec<NodeId> = Vec::new();

        while let Some(parent) = self.nodes[node].parent {
            if self.nodes[node].entry_count() < min {
                // Unlink from parent and stash contents for reinsertion.
                match &mut self.nodes[parent].kind {
                    NodeKind::Inner(ch) => {
                        let pos = ch.iter().position(|&c| c == node).expect("child link");
                        ch.swap_remove(pos);
                    }
                    NodeKind::Leaf(_) => unreachable!("parent is inner"),
                }
                match std::mem::replace(&mut self.nodes[node].kind, NodeKind::Leaf(Vec::new())) {
                    NodeKind::Leaf(items) => orphan_objects.extend(items),
                    NodeKind::Inner(children) => orphan_subtrees.extend(children),
                }
                self.free.push(node);
            }
            self.recompute_mbr(parent);
            node = parent;
        }

        // Shrink the root if it is an inner node with a single child.
        while let NodeKind::Inner(children) = &self.nodes[self.root].kind {
            if children.len() == 1 {
                let only = children[0];
                self.free.push(self.root);
                self.root = only;
                self.nodes[only].parent = None;
                self.height -= 1;
            } else {
                break;
            }
        }
        // Empty tree back to a single empty leaf root.
        if self.len == 0 && orphan_objects.is_empty() && orphan_subtrees.is_empty() {
            if let NodeKind::Inner(_) = &self.nodes[self.root].kind {
                self.nodes[self.root].kind = NodeKind::Leaf(Vec::new());
                self.nodes[self.root].mbr = Aabb::EMPTY;
                self.height = 1;
            }
        }

        // Reinsert orphaned subtrees' objects and loose objects. The
        // classic algorithm reinserts subtrees at matching height; for
        // simplicity and identical semantics we reinsert at object level
        // (their object count is bounded by min_entries × height).
        let mut stack = orphan_subtrees;
        while let Some(id) = stack.pop() {
            match std::mem::replace(&mut self.nodes[id].kind, NodeKind::Leaf(Vec::new())) {
                NodeKind::Leaf(items) => orphan_objects.extend(items),
                NodeKind::Inner(children) => stack.extend(children),
            }
            self.free.push(id);
        }
        let reinsert_count = orphan_objects.len();
        self.len -= reinsert_count; // insert() will re-add them
        for o in orphan_objects {
            self.insert(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::validate;
    use crate::RTreeParams;
    use neurospatial_geom::Vec3;

    fn boxes(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 12) as f64 * 2.0;
                let y = ((i / 12) % 12) as f64 * 2.0;
                let z = (i / 144) as f64 * 2.0;
                Aabb::cube(Vec3::new(x, y, z), 0.7)
            })
            .collect()
    }

    #[test]
    fn remove_existing_object() {
        let objs = boxes(200);
        let mut t = RTree::bulk_load(objs.clone(), RTreeParams::with_max_entries(8));
        assert!(t.remove(&objs[17]));
        assert_eq!(t.len(), 199);
        validate(&t).unwrap();
        // It is gone from query results.
        let (hits, _) = t.range_query(&objs[17]);
        assert!(!hits.iter().any(|h| **h == objs[17]));
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = RTree::bulk_load(boxes(50), RTreeParams::with_max_entries(8));
        let ghost = Aabb::cube(Vec3::splat(999.0), 1.0);
        assert!(!t.remove(&ghost));
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn remove_everything() {
        let objs = boxes(150);
        let mut t = RTree::bulk_load(objs.clone(), RTreeParams::with_max_entries(8));
        for (i, o) in objs.iter().enumerate() {
            assert!(t.remove(o), "removing object {i}");
            validate(&t).unwrap_or_else(|e| panic!("invalid after removing {i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        // Tree is reusable after emptying.
        t.insert(objs[0]);
        assert_eq!(t.len(), 1);
        validate(&t).unwrap();
    }

    #[test]
    fn interleaved_insert_remove() {
        let objs = boxes(300);
        let mut t = RTree::new(RTreeParams::with_max_entries(8));
        for o in &objs[..200] {
            t.insert(*o);
        }
        for o in &objs[..100] {
            assert!(t.remove(o));
        }
        for o in &objs[200..] {
            t.insert(*o);
        }
        assert_eq!(t.len(), 200);
        validate(&t).unwrap();
        // Survivors are exactly objs[100..300].
        let q = Aabb::new(Vec3::splat(-100.0), Vec3::splat(100.0));
        let (hits, _) = t.range_query(&q);
        assert_eq!(hits.len(), 200);
    }

    #[test]
    fn duplicate_objects_removed_one_at_a_time() {
        let b = Aabb::cube(Vec3::ONE, 1.0);
        let mut t = RTree::new(RTreeParams::with_max_entries(4));
        for _ in 0..5 {
            t.insert(b);
        }
        assert_eq!(t.len(), 5);
        for left in (0..5).rev() {
            assert!(t.remove(&b));
            assert_eq!(t.len(), left);
        }
        assert!(!t.remove(&b));
    }
}
