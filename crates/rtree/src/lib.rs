//! # neurospatial-rtree
//!
//! An R-Tree implementation with the features the paper's experiments
//! need:
//!
//! * **STR bulk loading** (Leutenegger et al., ICDE'97) — the packing the
//!   demo's baseline R-Tree and FLAT's seed index both use;
//! * **dynamic insertion** with linear, quadratic and R*-style splits, so
//!   experiments can compare a bulk-loaded against an incrementally built
//!   tree (the "R-Trees and variants" of §2);
//! * **deletion** with the classic condense-tree reinsertion;
//! * **instrumented queries**: every traversal can report node accesses
//!   *per level* — exactly the statistic the demo visualizes to show how
//!   overlap degrades the R-Tree on dense data (§2.2) — and an optional
//!   visitor receives every visited node id so a cost model can charge
//!   page reads;
//! * **first-hit descent** — FLAT's seed phase (find *one* object in the
//!   query range without paying for full overlap-expansion).
//!
//! The tree is an arena of nodes indexed by [`NodeId`]; objects live in
//! the leaves by value.
//!
//! ```
//! use neurospatial_rtree::{RTree, RTreeParams};
//! use neurospatial_geom::{Aabb, Vec3};
//!
//! // Index 1000 unit cubes on a line.
//! let objs: Vec<Aabb> = (0..1000)
//!     .map(|i| Aabb::cube(Vec3::new(i as f64 * 2.0, 0.0, 0.0), 0.5))
//!     .collect();
//! let tree = RTree::bulk_load(objs, RTreeParams::default());
//! let q = Aabb::new(Vec3::new(10.0, -1.0, -1.0), Vec3::new(20.0, 1.0, 1.0));
//! let (hits, stats) = tree.range_query(&q);
//! assert_eq!(hits.len(), 6);
//! assert!(stats.nodes_visited() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod insert;
pub mod node;
pub mod params;
pub mod query;
pub mod remove;
pub mod rplus;
pub mod soa;
pub mod str_pack;
pub mod validation;

pub use node::{NodeId, RTreeObject};
pub use params::{RTreeParams, SplitStrategy};
pub use query::QueryStats;
pub use rplus::RPlusTree;
pub use soa::{EpochMarks, FrozenView, TraversalCounters, TraversalScratch};

use neurospatial_geom::{Aabb, Executor};
use node::Node;
use soa::SoaArena;
use std::sync::OnceLock;

/// An arena-allocated R-Tree over objects of type `T`.
#[derive(Debug, Clone)]
pub struct RTree<T: RTreeObject> {
    pub(crate) nodes: Vec<Node<T>>,
    pub(crate) root: NodeId,
    pub(crate) params: RTreeParams,
    pub(crate) len: usize,
    /// Height of the tree: 1 for a single leaf root.
    pub(crate) height: usize,
    /// Free list of recycled arena slots (from deletions).
    pub(crate) free: Vec<NodeId>,
    /// Frozen structure-of-arrays layout (see [`soa`]), the only one
    /// range and first-hit queries read. Built by [`freeze`](Self::freeze)
    /// or by the first such query, dropped by any mutation.
    pub(crate) soa: OnceLock<SoaArena>,
}

impl<T: RTreeObject> RTree<T> {
    /// Bulk load with Sort-Tile-Recursive packing. The fastest way to
    /// build, and produces minimal-overlap trees for static data. Call
    /// [`freeze`](Self::freeze) afterwards to build the query layout up
    /// front; otherwise the first range or first-hit query builds it, and
    /// builds that only walk the tree directly pay neither its
    /// construction time nor its memory. The tiling moves 32-byte
    /// `(centre, index)` keys, never the objects; each object then moves
    /// into a slot of its own and from there, in tile order, into its
    /// leaf.
    pub fn bulk_load(objects: Vec<T>, params: RTreeParams) -> Self {
        params.validate();
        let exec = Executor::default();
        let order =
            str_pack::leaf_order(objects.len(), |i| objects[i].aabb(), params.max_entries, &exec);
        let mut slots: Vec<Option<T>> = objects.into_iter().map(Some).collect();
        str_pack::pack(order, params, &exec, |i| slots[i].take().expect("tiled once"))
    }

    /// [`bulk_load`](Self::bulk_load) by index, with the slabs of every
    /// level tiled on `exec`'s workers: the tree holds `n`
    /// objects, object `i` having the box `box_of(i)` and being created
    /// by `make(i)`, once, straight into its leaf (so a caller packing
    /// views of a slice copies each element once). `make(i).aabb()` must
    /// be `box_of(i)`. The tree is identical, node for node, to
    /// `bulk_load` of the made objects in index order, at every worker
    /// count.
    pub fn bulk_load_on(
        n: usize,
        box_of: impl Fn(usize) -> Aabb,
        params: RTreeParams,
        exec: &Executor,
        make: impl FnMut(usize) -> T,
    ) -> Self {
        params.validate();
        let order = str_pack::leaf_order(n, box_of, params.max_entries, exec);
        str_pack::pack(order, params, exec, make)
    }

    /// An empty tree.
    pub fn new(params: RTreeParams) -> Self {
        params.validate();
        let root_node = Node::new_leaf();
        RTree {
            nodes: vec![root_node],
            root: 0,
            params,
            len: 0,
            height: 1,
            free: Vec::new(),
            soa: OnceLock::new(),
        }
    }

    /// (Re)build the structure-of-arrays query layout. Idempotent; O(n).
    /// Call after a batch of `insert`/`remove` calls to move the build
    /// out of the next query, which would otherwise make it.
    pub fn freeze(&mut self) {
        if !self.is_empty() {
            self.soa.get_or_init(|| SoaArena::build(self));
        }
    }

    /// Whether the SoA query layout is current.
    pub fn is_frozen(&self) -> bool {
        self.soa.get().is_some()
    }

    /// Read-only view of the frozen structure-of-arrays layout, or `None`
    /// if neither [`freeze`](Self::freeze) nor a query has built it since
    /// the last mutation. External traversals (e.g. the TOUCH
    /// join) descend through this instead of the pointer arena.
    pub fn frozen(&self) -> Option<FrozenView<'_>> {
        self.soa.get().map(|arena| FrozenView { arena })
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of live arena nodes (≈ pages the index occupies).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Root bounding box (`Aabb::EMPTY` for an empty tree).
    pub fn root_mbr(&self) -> Aabb {
        self.nodes[self.root].mbr
    }

    /// Tree parameters.
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Rough memory footprint in bytes (arena + leaf payloads), used by
    /// the join experiments' memory comparisons.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<Node<T>>();
        total += self.soa.get().map_or(0, |s| s.memory_bytes());
        for n in &self.nodes {
            match &n.kind {
                node::NodeKind::Leaf(items) => {
                    total += items.capacity() * std::mem::size_of::<T>();
                }
                node::NodeKind::Inner(children) => {
                    total += children.capacity() * std::mem::size_of::<NodeId>();
                }
            }
        }
        total
    }

    /// Arena id of the root node.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// MBR of an arbitrary node (for external traversals, e.g. spatial
    /// joins that walk the tree themselves).
    pub fn node_mbr(&self, id: NodeId) -> Aabb {
        self.nodes[id].mbr
    }

    /// Children of a node, or `None` if it is a leaf.
    pub fn node_children(&self, id: NodeId) -> Option<&[NodeId]> {
        match &self.nodes[id].kind {
            node::NodeKind::Inner(ch) => Some(ch),
            node::NodeKind::Leaf(_) => None,
        }
    }

    /// Objects of a leaf node (empty slice for inner nodes).
    pub fn leaf_objects(&self, id: NodeId) -> &[T] {
        match &self.nodes[id].kind {
            node::NodeKind::Leaf(items) => items,
            node::NodeKind::Inner(_) => &[],
        }
    }

    /// Sum of leaf MBR volumes — the "dead space" metric: tighter
    /// packings (STR) have less of it than incrementally grown trees.
    pub fn total_leaf_volume(&self) -> f64 {
        self.live_leaves().map(|n| n.mbr.volume()).sum()
    }

    /// Sum of pairwise overlap volume between leaf MBRs — the quantity
    /// the paper blames for R-Tree degradation on dense data (§2).
    /// O(L²) in the number of leaves; intended for analysis, not hot paths.
    pub fn total_leaf_overlap(&self) -> f64 {
        let leaves: Vec<Aabb> = self.live_leaves().map(|n| n.mbr).collect();
        let mut s = 0.0;
        for i in 0..leaves.len() {
            for j in i + 1..leaves.len() {
                s += leaves[i].overlap_volume(&leaves[j]);
            }
        }
        s
    }

    fn live_leaves(&self) -> impl Iterator<Item = &Node<T>> {
        self.nodes.iter().enumerate().filter_map(move |(i, n)| {
            (n.is_leaf() && self.is_live(i) && !self.free.contains(&i)).then_some(n)
        })
    }

    /// Iterate over all objects (leaf order).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(i, n)| {
                !self.free.contains(i)
                    && matches!(n.kind, node::NodeKind::Leaf(_))
                    && self.is_live(*i)
            })
            .flat_map(|(_, n)| match &n.kind {
                node::NodeKind::Leaf(items) => items.iter(),
                node::NodeKind::Inner(_) => unreachable!("filtered to leaves"),
            })
    }

    /// A node is live if it is reachable from the root. Used only by the
    /// debug iterator above and validation; O(height) per call.
    fn is_live(&self, mut id: NodeId) -> bool {
        loop {
            if id == self.root {
                return true;
            }
            match self.nodes[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }
}
