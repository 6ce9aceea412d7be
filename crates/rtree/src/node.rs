//! Arena node representation.

use neurospatial_geom::Aabb;

/// Index of a node in the tree arena. Doubles as that node's page id when
/// a cost model charges the reads a query makes.
pub type NodeId = usize;

/// Anything storable in an R-Tree: must expose an AABB.
pub trait RTreeObject {
    fn aabb(&self) -> Aabb;
}

impl RTreeObject for Aabb {
    fn aabb(&self) -> Aabb {
        *self
    }
}

impl<T: RTreeObject> RTreeObject for &T {
    fn aabb(&self) -> Aabb {
        (*self).aabb()
    }
}

/// Node payload: leaf objects or child node ids.
#[derive(Debug, Clone)]
pub enum NodeKind<T> {
    Leaf(Vec<T>),
    Inner(Vec<NodeId>),
}

/// One R-Tree node.
#[derive(Debug, Clone)]
pub struct Node<T> {
    /// Tight bounding box of everything below this node.
    pub mbr: Aabb,
    pub parent: Option<NodeId>,
    pub kind: NodeKind<T>,
}

impl<T: RTreeObject> Node<T> {
    pub fn new_leaf() -> Self {
        Node { mbr: Aabb::EMPTY, parent: None, kind: NodeKind::Leaf(Vec::new()) }
    }

    pub fn new_inner() -> Self {
        Node { mbr: Aabb::EMPTY, parent: None, kind: NodeKind::Inner(Vec::new()) }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Number of entries (objects or children).
    pub fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Inner(v) => v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Vec3;

    #[test]
    fn aabb_is_its_own_rtree_object() {
        let b = Aabb::cube(Vec3::ZERO, 1.0);
        assert_eq!(RTreeObject::aabb(&b), b);
        let r = &b;
        assert_eq!(RTreeObject::aabb(&r), b);
    }

    #[test]
    fn fresh_nodes() {
        let leaf: Node<Aabb> = Node::new_leaf();
        assert!(leaf.is_leaf());
        assert_eq!(leaf.entry_count(), 0);
        assert!(leaf.mbr.is_empty());
        let inner: Node<Aabb> = Node::new_inner();
        assert!(!inner.is_leaf());
        assert_eq!(inner.entry_count(), 0);
    }
}
