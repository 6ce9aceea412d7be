//! Cache-conscious traversal layout: the tree's entry MBRs flattened into
//! structure-of-arrays slabs.
//!
//! The pointer-chasing arena ([`crate::node::Node`]) is the right shape
//! for *building* — splits and reinsertions move whole entry vectors — but
//! the wrong shape for *querying*: every child-MBR intersection test
//! dereferences a `NodeKind`, then a child id, then that child's `Aabb`,
//! touching a fresh cache line per child. `SoaArena` freezes the same
//! tree into six contiguous `f64` lanes (`lo_x/lo_y/lo_z/hi_x/hi_y/hi_z`)
//! plus one payload lane, laid out in BFS order so every node's entries —
//! child MBRs for inner nodes, object AABBs for leaves — are one
//! contiguous slab run. A range query then scans lanes sequentially and
//! only touches the original arena to emit actual hits.
//!
//! The arena is built only by an explicit [`crate::RTree::freeze`] call —
//! never by `bulk_load` itself, so builds that query the pointer arena
//! directly (e.g. the TOUCH join's partitioning tree) pay nothing for it.
//! Any mutation (`insert` / `remove`) invalidates it, and the scratch
//! query paths fall back to an iterative (still allocation-free) walk of
//! the pointer arena until the tree is frozen again.

use crate::node::{NodeKind, RTreeObject};
use crate::{NodeId, RTree};
use neurospatial_geom::{Aabb, Vec3};

/// Epoch-stamped visit marks: a reusable replacement for per-query
/// `vec![false; n]` bitmaps. Clearing between queries is O(1) — bump the
/// epoch instead of zeroing the vector; slot `i` reads as marked only if
/// it was stamped with the *current* epoch. Used for R+ replica
/// de-duplication here and for FLAT's visited-page set.
#[derive(Debug, Default)]
pub struct EpochMarks {
    marks: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    /// Begin a pass over `n` slots; every mark reads as unset afterwards.
    pub fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: one O(n) reset every 2^32 passes.
            self.marks.iter_mut().for_each(|e| *e = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.marks[i] == self.epoch
    }

    /// Mark slot `i`; returns `true` if it was unmarked before (first
    /// visit this pass).
    #[inline]
    pub fn mark(&mut self, i: usize) -> bool {
        let first = self.marks[i] != self.epoch;
        self.marks[i] = self.epoch;
        first
    }
}

/// Reusable per-query traversal state, shared by every query in the
/// R-Tree family (plain, STR-packed, R+). Create one per thread and
/// reuse it across an entire batch: after the first few queries have
/// grown the buffers, queries allocate nothing.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// DFS stack of pending nodes (SoA ids when frozen, arena ids
    /// otherwise).
    pub(crate) stack: Vec<u32>,
    /// Candidate buffer for best-first child ordering (`first_hit`).
    pub(crate) cand: Vec<u32>,
    /// R+ replica de-duplication marks.
    pub(crate) dedup: EpochMarks,
}

impl TraversalScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Flat, `Copy` query counters — the scratch paths' replacement for
/// [`crate::QueryStats`], whose per-level vector would cost one heap
/// allocation per query. Field meanings match the per-query statistics:
/// `nodes_visited` counts every node whose entries were scanned,
/// `leaf_entries_tested` every object AABB compared against the query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalCounters {
    pub nodes_visited: u64,
    pub leaf_entries_tested: u64,
    pub results: u64,
}

/// The frozen structure-of-arrays layout of one tree.
///
/// Nodes are renumbered in BFS order; node `n`'s entries occupy
/// `entry_start[n] .. entry_start[n + 1]` in every lane. For inner nodes
/// an entry is a child (`entry_ref` = the child's SoA id); for leaves an
/// entry is an object (`entry_ref` = its slot in the original leaf's
/// item vector, reachable through `orig`).
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaArena {
    entry_start: Vec<u32>,
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    lo_z: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    hi_z: Vec<f64>,
    /// Child SoA id (inner) or leaf slot (leaf).
    entry_ref: Vec<u32>,
    /// SoA id → original arena [`NodeId`].
    orig: Vec<u32>,
    is_leaf: Vec<bool>,
    root: u32,
}

impl SoaArena {
    /// Flatten `tree` (rooted at `tree.root`) into BFS slab order.
    pub(crate) fn build<T: RTreeObject>(tree: &RTree<T>) -> Self {
        // BFS order: children of one node become one contiguous id run,
        // and sibling subtrees stay close — the order queries descend in.
        let mut order: Vec<NodeId> = vec![tree.root];
        let mut soa_of = vec![u32::MAX; tree.nodes.len()];
        soa_of[tree.root] = 0;
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            if let NodeKind::Inner(children) = &tree.nodes[id].kind {
                for &c in children {
                    soa_of[c] = order.len() as u32;
                    order.push(c);
                }
            }
        }

        let total_entries: usize = order.iter().map(|&id| tree.nodes[id].entry_count()).sum();
        let mut a = SoaArena {
            entry_start: Vec::with_capacity(order.len() + 1),
            lo_x: Vec::with_capacity(total_entries),
            lo_y: Vec::with_capacity(total_entries),
            lo_z: Vec::with_capacity(total_entries),
            hi_x: Vec::with_capacity(total_entries),
            hi_y: Vec::with_capacity(total_entries),
            hi_z: Vec::with_capacity(total_entries),
            entry_ref: Vec::with_capacity(total_entries),
            orig: Vec::with_capacity(order.len()),
            is_leaf: Vec::with_capacity(order.len()),
            root: 0,
        };
        for &id in &order {
            a.entry_start.push(a.entry_ref.len() as u32);
            a.orig.push(id as u32);
            match &tree.nodes[id].kind {
                NodeKind::Leaf(items) => {
                    a.is_leaf.push(true);
                    for (slot, o) in items.iter().enumerate() {
                        a.push_entry(o.aabb(), slot as u32);
                    }
                }
                NodeKind::Inner(children) => {
                    a.is_leaf.push(false);
                    for &c in children {
                        a.push_entry(tree.nodes[c].mbr, soa_of[c]);
                    }
                }
            }
        }
        a.entry_start.push(a.entry_ref.len() as u32);
        a
    }

    #[inline]
    fn push_entry(&mut self, bb: Aabb, r: u32) {
        self.lo_x.push(bb.lo.x);
        self.lo_y.push(bb.lo.y);
        self.lo_z.push(bb.lo.z);
        self.hi_x.push(bb.hi.x);
        self.hi_y.push(bb.hi.y);
        self.hi_z.push(bb.hi.z);
        self.entry_ref.push(r);
    }

    /// Entry range of node `n` in the lanes.
    #[inline]
    pub(crate) fn entries(&self, n: u32) -> (usize, usize) {
        (self.entry_start[n as usize] as usize, self.entry_start[n as usize + 1] as usize)
    }

    #[inline]
    pub(crate) fn is_leaf(&self, n: u32) -> bool {
        self.is_leaf[n as usize]
    }

    #[inline]
    pub(crate) fn orig(&self, n: u32) -> NodeId {
        self.orig[n as usize] as NodeId
    }

    #[inline]
    pub(crate) fn entry_ref(&self, i: usize) -> u32 {
        self.entry_ref[i]
    }

    #[inline]
    pub(crate) fn root(&self) -> u32 {
        self.root
    }

    /// Closed-interval intersection of entry `i` against `q` — the exact
    /// comparison sequence [`Aabb::intersects`] performs, over the lanes.
    #[inline]
    pub(crate) fn entry_intersects(&self, i: usize, q: &Aabb) -> bool {
        self.lo_x[i] <= q.hi.x
            && q.lo.x <= self.hi_x[i]
            && self.lo_y[i] <= q.hi.y
            && q.lo.y <= self.hi_y[i]
            && self.lo_z[i] <= q.hi.z
            && q.lo.z <= self.hi_z[i]
    }

    /// One chunk of [`FrozenView::entry_masks`]: bit `i` is entry `s + i`
    /// of the at most 64 entries `s..e`. Six comparisons an entry joined
    /// with `&`, so there is no branch to mispredict and the compiler
    /// vectorises the loop (the shift form is as fast as a byte-then-pack
    /// form here: `f64` lanes are two to a vector either way). Not inlined,
    /// so that every caller runs the one vectorised copy.
    #[inline(never)]
    fn mask64(&self, s: usize, e: usize, q: &Aabb, eps: f64) -> u64 {
        let (lx, ly, lz) = (&self.lo_x[s..e], &self.lo_y[s..e], &self.lo_z[s..e]);
        let (hx, hy, hz) = (&self.hi_x[s..e], &self.hi_y[s..e], &self.hi_z[s..e]);
        debug_assert!(e - s <= 64, "one mask holds 64 entries");
        let mut bits = 0u64;
        for i in 0..e - s {
            let hit = (lx[i] - eps <= q.hi.x)
                & (q.lo.x <= hx[i] + eps)
                & (ly[i] - eps <= q.hi.y)
                & (q.lo.y <= hy[i] + eps)
                & (lz[i] - eps <= q.hi.z)
                & (q.lo.z <= hz[i] + eps);
            bits |= u64::from(hit) << i;
        }
        bits
    }

    /// Centre of entry `i`'s box — same arithmetic as [`Aabb::center`],
    /// so best-first orderings agree bit-for-bit with the pointer path.
    #[inline]
    pub(crate) fn entry_center(&self, i: usize) -> Vec3 {
        Vec3::new(
            (self.lo_x[i] + self.hi_x[i]) * 0.5,
            (self.lo_y[i] + self.hi_y[i]) * 0.5,
            (self.lo_z[i] + self.hi_z[i]) * 0.5,
        )
    }

    /// Entry `i`'s box reconstructed from the lanes.
    #[inline]
    pub(crate) fn entry_aabb(&self, i: usize) -> Aabb {
        Aabb::new(
            Vec3::new(self.lo_x[i], self.lo_y[i], self.lo_z[i]),
            Vec3::new(self.hi_x[i], self.hi_y[i], self.hi_z[i]),
        )
    }

    /// Minimum x of entry `i`'s box (sweep-order key).
    #[inline]
    pub(crate) fn entry_lo_x(&self, i: usize) -> f64 {
        self.lo_x[i]
    }

    /// Maximum x of entry `i`'s box (sweep expiry bound).
    #[inline]
    pub(crate) fn entry_hi_x(&self, i: usize) -> f64 {
        self.hi_x[i]
    }

    /// Overlap test on the y and z axes only — the x axis is already
    /// guaranteed by a sweep's ordering invariant.
    #[inline]
    pub(crate) fn entry_overlaps_yz(&self, i: usize, q: &Aabb) -> bool {
        self.lo_y[i] <= q.hi.y
            && q.lo.y <= self.hi_y[i]
            && self.lo_z[i] <= q.hi.z
            && q.lo.z <= self.hi_z[i]
    }

    /// Approximate resident bytes of the slabs.
    pub(crate) fn memory_bytes(&self) -> usize {
        let lanes = self.lo_x.capacity()
            + self.lo_y.capacity()
            + self.lo_z.capacity()
            + self.hi_x.capacity()
            + self.hi_y.capacity()
            + self.hi_z.capacity();
        lanes * std::mem::size_of::<f64>()
            + (self.entry_ref.capacity() + self.entry_start.capacity() + self.orig.capacity()) * 4
            + self.is_leaf.capacity()
    }
}

/// Read-only view of a frozen tree's structure-of-arrays layout, for
/// external traversals (e.g. the TOUCH join's assignment descent) that
/// want the cache-conscious lanes without going through the built-in
/// query methods. Obtained from [`crate::RTree::frozen`]; node ids are
/// SoA ids (BFS order), *not* arena [`NodeId`]s — [`orig`](Self::orig)
/// translates when leaf payloads must be fetched from the pointer arena.
#[derive(Debug, Clone, Copy)]
pub struct FrozenView<'t> {
    pub(crate) arena: &'t SoaArena,
}

impl<'t> FrozenView<'t> {
    /// SoA id of the root node (always 0).
    #[inline]
    pub fn root(&self) -> u32 {
        self.arena.root()
    }

    /// Number of nodes in the frozen layout.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.arena.orig.len()
    }

    /// Whether SoA node `n` is a leaf.
    #[inline]
    pub fn is_leaf(&self, n: u32) -> bool {
        self.arena.is_leaf(n)
    }

    /// Entry lane range `[start, end)` of SoA node `n`: child boxes for
    /// inner nodes, object AABBs for leaves.
    #[inline]
    pub fn entries(&self, n: u32) -> (usize, usize) {
        self.arena.entries(n)
    }

    /// Child SoA id (inner node entry) or leaf item slot (leaf entry).
    #[inline]
    pub fn entry_ref(&self, i: usize) -> u32 {
        self.arena.entry_ref(i)
    }

    /// Arena [`NodeId`] of SoA node `n` (for fetching leaf payloads).
    #[inline]
    pub fn orig(&self, n: u32) -> NodeId {
        self.arena.orig(n)
    }

    /// Closed-interval intersection of entry `i` against `q`.
    #[inline]
    pub fn entry_intersects(&self, i: usize, q: &Aabb) -> bool {
        self.arena.entry_intersects(i, q)
    }

    /// The entries `s..e` whose box, inflated by `eps` exactly as
    /// [`Aabb::inflate`] does it, meets `q` (closed intervals), 64 entries
    /// to a mask: bit `i` of mask `c` is entry `s + 64 c + i`, and a node
    /// wider than 64 entries yields one mask per started chunk. With
    /// `eps` = 0 a bit equals [`entry_intersects`](Self::entry_intersects).
    /// The scan has no branch per entry, so its cost does not depend on
    /// how the comparisons fall.
    #[inline]
    pub fn entry_masks(
        &self,
        s: usize,
        e: usize,
        q: &Aabb,
        eps: f64,
    ) -> impl Iterator<Item = u64> + 't {
        let (arena, q) = (self.arena, *q);
        (s..e).step_by(64).map(move |cs| arena.mask64(cs, e.min(cs + 64), &q, eps))
    }

    /// Entry `i`'s box reconstructed from the lanes.
    #[inline]
    pub fn entry_aabb(&self, i: usize) -> Aabb {
        self.arena.entry_aabb(i)
    }

    /// Minimum x of entry `i`'s box.
    #[inline]
    pub fn entry_lo_x(&self, i: usize) -> f64 {
        self.arena.entry_lo_x(i)
    }

    /// Maximum x of entry `i`'s box.
    #[inline]
    pub fn entry_hi_x(&self, i: usize) -> f64 {
        self.arena.entry_hi_x(i)
    }

    /// y/z-axis overlap of entry `i` against `q` (x handled by a sweep).
    #[inline]
    pub fn entry_overlaps_yz(&self, i: usize, q: &Aabb) -> bool {
        self.arena.entry_overlaps_yz(i, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RTreeParams;

    fn cubes(n: usize) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 13) as f64 * 2.0;
                let y = ((i / 13) % 11) as f64 * 2.0;
                let z = (i / 143) as f64 * 2.0;
                Aabb::cube(Vec3::new(x, y, z), 0.6)
            })
            .collect()
    }

    #[test]
    fn arena_mirrors_the_tree() {
        let mut t = RTree::bulk_load(cubes(500), RTreeParams::with_max_entries(16));
        assert!(!t.is_frozen(), "bulk_load does not freeze on its own");
        t.freeze();
        let soa = t.soa.as_ref().expect("freeze builds the arena");
        assert_eq!(soa.orig.len(), t.node_count());
        // Every leaf entry's lanes reproduce the original object AABB.
        let mut leaf_entries = 0usize;
        for n in 0..soa.orig.len() as u32 {
            let (s, e) = soa.entries(n);
            if soa.is_leaf(n) {
                let items = t.leaf_objects(soa.orig(n));
                assert_eq!(items.len(), e - s);
                for (slot, o) in items.iter().enumerate() {
                    let i = s + slot;
                    assert_eq!(soa.entry_ref(i) as usize, slot);
                    assert_eq!(
                        (soa.lo_x[i], soa.hi_x[i], soa.lo_y[i], soa.hi_y[i]),
                        (o.lo.x, o.hi.x, o.lo.y, o.hi.y)
                    );
                    leaf_entries += 1;
                }
            } else {
                for i in s..e {
                    let child = soa.entry_ref(i);
                    let mbr = t.node_mbr(soa.orig(child));
                    assert_eq!((soa.lo_x[i], soa.hi_z[i]), (mbr.lo.x, mbr.hi.z));
                }
            }
        }
        assert_eq!(leaf_entries, t.len());
    }

    #[test]
    fn mutation_invalidates_and_freeze_restores() {
        let mut t = RTree::bulk_load(cubes(200), RTreeParams::with_max_entries(8));
        t.freeze();
        assert!(t.is_frozen());
        t.insert(Aabb::cube(Vec3::new(50.0, 50.0, 50.0), 1.0));
        assert!(!t.is_frozen());
        t.freeze();
        assert!(t.is_frozen());
        let probe = cubes(1)[0];
        assert!(t.remove(&probe));
        assert!(!t.is_frozen());
    }

    #[test]
    fn frozen_view_mirrors_the_pointer_arena() {
        let mut t = RTree::bulk_load(cubes(300), RTreeParams::with_max_entries(8));
        assert!(t.frozen().is_none(), "unfrozen trees expose no view");
        t.freeze();
        let v = t.frozen().expect("frozen");
        assert_eq!(v.node_count(), t.node_count());
        // Descend every node: inner entry boxes equal child MBRs, leaf
        // entry boxes equal the stored objects, lane getters agree.
        for n in 0..v.node_count() as u32 {
            let (s, e) = v.entries(n);
            if v.is_leaf(n) {
                let items = t.leaf_objects(v.orig(n));
                assert_eq!(items.len(), e - s);
                for i in s..e {
                    let o = items[v.entry_ref(i) as usize];
                    assert_eq!(v.entry_lo_x(i), o.lo.x);
                    assert_eq!(v.entry_hi_x(i), o.hi.x);
                    assert!(v.entry_intersects(i, &o));
                    assert!(v.entry_overlaps_yz(i, &o));
                }
            } else {
                for i in s..e {
                    let mbr = t.node_mbr(v.orig(v.entry_ref(i)));
                    assert!(v.entry_intersects(i, &mbr));
                    assert_eq!(v.entry_lo_x(i), mbr.lo.x);
                }
            }
        }
    }

    #[test]
    fn entry_masks_equal_the_scalar_test_on_inflated_entries() {
        // A leaf is as wide as the tree is small: one node of each width,
        // among them both sides of a chunk boundary and three chunks.
        for width in [1usize, 16, 63, 64, 65, 130] {
            let mut t = RTree::bulk_load(cubes(width), RTreeParams::with_max_entries(width.max(4)));
            t.freeze();
            let v = t.frozen().expect("frozen");
            let (s, e) = v.entries(v.root());
            assert!(v.is_leaf(v.root()) && e - s == width);
            // Boxes that overlap a few entries, one that shares exactly a
            // face with entry 0 (closed intervals meet), one that meets
            // nothing until the entries are inflated, and one far away.
            let first = v.entry_aabb(s);
            let face = Aabb::new(
                Vec3::new(first.hi.x, first.lo.y, first.lo.z),
                first.hi + Vec3::splat(0.1),
            );
            let probes = [
                Aabb::cube(Vec3::new(3.0, 3.0, 0.0), 2.5),
                face,
                Aabb::cube(Vec3::new(1.0, 1.0, 1.0), 0.35),
                Aabb::cube(Vec3::splat(-50.0), 1.0),
                Aabb::cube(Vec3::new(12.0, 10.0, 0.0), 40.0),
            ];
            for q in &probes {
                for eps in [0.0, 0.05, 0.75] {
                    let masks: Vec<u64> = v.entry_masks(s, e, q, eps).collect();
                    assert_eq!(masks.len(), width.div_ceil(64), "width {width}");
                    for i in s..e {
                        let bit = masks[(i - s) / 64] >> ((i - s) % 64) & 1 == 1;
                        let inflated = v.entry_aabb(i).inflate(eps);
                        assert_eq!(
                            bit,
                            inflated.intersects(q),
                            "width {width} entry {i} eps {eps}"
                        );
                        if eps == 0.0 {
                            assert_eq!(bit, v.entry_intersects(i, q));
                        }
                    }
                    // No bit beyond the node's last entry.
                    let tail = width % 64;
                    if tail != 0 {
                        assert_eq!(masks[masks.len() - 1] >> tail, 0, "width {width}");
                    }
                }
            }
            assert_eq!(v.entry_masks(s, e, &face, 0.0).next().expect("one chunk") & 1, 1);
        }
    }

    #[test]
    fn epoch_wrap_resets_marks() {
        let mut m = EpochMarks::default();
        m.begin(4);
        assert!(m.mark(2), "first visit");
        assert!(!m.mark(2), "second visit same pass");
        assert!(m.is_marked(2));
        m.epoch = u32::MAX; // force the wrap path
        m.begin(4);
        assert!((0..4).all(|i| !m.is_marked(i)), "stale marks cleared after wrap");
        assert!(m.mark(2), "slot usable again");
    }
}
