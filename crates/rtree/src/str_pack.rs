//! Sort-Tile-Recursive bulk loading (Leutenegger, Lopez & Edgington,
//! ICDE'97) — referenced directly by the paper as the packing used for
//! FLAT's seed index ("an R-Tree (STR bulk-loaded)", §2.1).
//!
//! STR sorts objects by the x-coordinate of their centre, cuts the
//! sequence into vertical slabs, sorts each slab by y, cuts again, sorts
//! runs by z and packs consecutive objects into full leaves. Upper levels
//! are built by applying the same procedure to the node centres.

use crate::node::{Node, NodeKind, RTreeObject};
use crate::{NodeId, RTree, RTreeParams};
use neurospatial_geom::{Aabb, Executor, Vec3};
use std::sync::Mutex;

/// Build a tree by STR packing. Objects end up in leaves in tile order;
/// leaf nodes are allocated contiguously in the arena, which gives
/// sequential page ids to spatially adjacent leaves (the layout the disk
/// simulator rewards, as a real bulk loader would). The x slabs of every
/// level are tiled on `exec`; the tree is the same at every worker count.
/// An object whose box has a non-finite centre lands in some leaf and, a
/// NaN box meeting nothing, is found by no query.
pub fn bulk_load<T: RTreeObject + Send>(
    mut objects: Vec<T>,
    params: RTreeParams,
    exec: &Executor,
) -> RTree<T> {
    if objects.is_empty() {
        return RTree::new(params);
    }
    let cap = params.max_entries;

    // --- Pack leaves ----------------------------------------------------
    // The sorts move 32-byte (centre, index) keys; each object then moves
    // once, to its place in tile order.
    let mut keys: Vec<(Vec3, usize)> =
        objects.iter().enumerate().map(|(i, o)| (sort_key(o.aabb()), i)).collect();
    let runs = str_tile(&mut keys, cap, exec);
    gather_in_place(&mut objects, keys);
    let mut nodes: Vec<Node<T>> = Vec::new();
    let mut level_ids: Vec<NodeId> = Vec::new();
    let mut objects = objects.into_iter();
    for len in runs {
        let leaf_items: Vec<T> = objects.by_ref().take(len).collect();
        let mbr = leaf_items.iter().fold(Aabb::EMPTY, |mbr, o| mbr.union(&o.aabb()));
        level_ids.push(nodes.len());
        nodes.push(Node { mbr, parent: None, kind: NodeKind::Leaf(leaf_items) });
    }

    // --- Pack upper levels ----------------------------------------------
    let mut height = 1usize;
    while level_ids.len() > 1 {
        height += 1;
        let mut entries: Vec<(Vec3, NodeId)> =
            level_ids.iter().map(|&id| (sort_key(nodes[id].mbr), id)).collect();
        let runs = str_tile(&mut entries, cap, exec);
        let mut next_level = Vec::with_capacity(runs.len());
        let mut entries = entries.into_iter();
        for len in runs {
            let id = nodes.len();
            let mut mbr = Aabb::EMPTY;
            let mut children = Vec::with_capacity(len);
            for (_, c) in entries.by_ref().take(len) {
                mbr = mbr.union(&nodes[c].mbr);
                nodes.push_parent(c, id);
                children.push(c);
            }
            nodes.push(Node { mbr, parent: None, kind: NodeKind::Inner(children) });
            next_level.push(id);
        }
        level_ids = next_level;
    }

    let root = level_ids[0];
    let len = nodes
        .iter()
        .map(|n| match &n.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Inner(_) => 0,
        })
        .sum();
    RTree { nodes, root, params, len, height, free: Vec::new(), soa: None }
}

/// Reorder a level's `items` (center, payload; at least one) into STR
/// tile order and return the lengths of the consecutive runs of at most
/// `cap` elements that make up its nodes. The x sort is one pass over
/// everything; each x slab is then tiled along y and z independently of
/// the others, on `exec`'s workers.
fn str_tile<P: Send>(items: &mut [(Vec3, P)], cap: usize, exec: &Executor) -> Vec<usize> {
    if items.len() <= cap {
        return vec![items.len()];
    }
    sort_along(items, 0);
    // A slab and its run lengths, behind a lock that is never contended:
    // task `i` is the only one that touches slab `i`.
    let mut slabs = Vec::new();
    let mut rest = items;
    for size in cut_sizes(rest.len(), cap, 0) {
        let (slab, tail) = rest.split_at_mut(size);
        slabs.push(Mutex::new((slab, Vec::new())));
        rest = tail;
    }
    let (workers, _) = exec.chunking(slabs.len());
    exec.for_each_task(slabs.len(), &mut vec![(); workers], |i, ()| {
        let mut slab = slabs[i].lock().expect("no other task holds this slab");
        let (items, runs) = &mut *slab;
        tile_slab(items, cap, 1, runs);
    });
    slabs
        .into_iter()
        .flat_map(|slab| slab.into_inner().expect("a panicking task has already propagated").1)
        .collect()
}

/// Reorder `objects` so that position `i` holds the object `order[i]`
/// names, by walking the permutation's cycles: one swap an object, no
/// second buffer. An index is overwritten with its own position once that
/// position is final.
fn gather_in_place<T>(objects: &mut [T], mut order: Vec<(Vec3, usize)>) {
    for start in 0..order.len() {
        let mut at = start;
        loop {
            let from = std::mem::replace(&mut order[at].1, at);
            if from == start {
                break; // the object that began at `start` has arrived
            }
            objects.swap(at, from);
            at = from;
        }
    }
}

/// Tile one slab along `axis` (1 = y, 2 = z), then the axes after it,
/// appending its run lengths to `runs`.
fn tile_slab<P>(items: &mut [(Vec3, P)], cap: usize, axis: usize, runs: &mut Vec<usize>) {
    if items.len() <= cap {
        runs.push(items.len());
        return;
    }
    sort_along(items, axis);
    let mut rest = items;
    for size in cut_sizes(rest.len(), cap, axis) {
        let (run, tail) = rest.split_at_mut(size);
        if axis + 1 < 3 {
            tile_slab(run, cap, axis + 1, runs);
        } else {
            runs.push(size);
        }
        rest = tail;
    }
}

/// Stable, and total on every `f64`: a box with a non-finite centre (the
/// database's builder rejects those, a direct caller may pass one) is
/// sorted to an end of the run instead of stopping the build.
fn sort_along<P>(items: &mut [(Vec3, P)], axis: usize) {
    items.sort_by(|a, b| a.0.axis(axis).total_cmp(&b.0.axis(axis)));
}

/// The centre STR orders a box by. Adding `0.0` turns `-0.0` into `+0.0`
/// and changes no other value, so `total_cmp` ties exactly the keys that
/// compare equal.
fn sort_key(bb: Aabb) -> Vec3 {
    bb.center() + Vec3::ZERO
}

/// Sizes of the pieces `n > cap` sorted elements are cut into along
/// `axis`: `S = ceil(P^(1/k))` slabs for `P` pages and `k` remaining
/// axes, and on the last axis the pages themselves. Sizes are balanced
/// (they differ by at most one) so that no tail leaf underflows the
/// minimum fill: the smallest piece holds at least ⌊n/k⌋ ≥ cap/2 ≥
/// min_entries elements.
fn cut_sizes(n: usize, cap: usize, axis: usize) -> impl Iterator<Item = usize> {
    let pages = n.div_ceil(cap);
    let remaining_axes = 3 - axis;
    let pieces = if remaining_axes == 1 {
        pages
    } else {
        ((pages as f64).powf(1.0 / remaining_axes as f64).ceil() as usize).clamp(1, n)
    };
    let (base, extra) = (n / pieces, n % pieces);
    (0..pieces).map(move |c| base + usize::from(c < extra))
}

/// Tiny extension trait to keep parent wiring readable above.
trait PushParent<T> {
    fn push_parent(&mut self, child: NodeId, parent: NodeId);
}

impl<T: RTreeObject> PushParent<T> for Vec<Node<T>> {
    fn push_parent(&mut self, child: NodeId, parent: NodeId) {
        self[child].parent = Some(parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validation::validate;
    use neurospatial_geom::Vec3;

    fn cubes(n: usize) -> Vec<Aabb> {
        // A jittered grid of small cubes.
        (0..n)
            .map(|i| {
                let x = (i % 17) as f64 * 3.0;
                let y = ((i / 17) % 13) as f64 * 3.1;
                let z = (i / 221) as f64 * 2.7;
                Aabb::cube(Vec3::new(x, y, z), 0.4 + (i % 5) as f64 * 0.1)
            })
            .collect()
    }

    #[test]
    fn empty_and_single() {
        let t: RTree<Aabb> = RTree::bulk_load(vec![], RTreeParams::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);

        let one = RTree::bulk_load(vec![Aabb::cube(Vec3::ZERO, 1.0)], RTreeParams::default());
        assert_eq!(one.len(), 1);
        assert_eq!(one.height(), 1);
        validate(&one).unwrap();
    }

    #[test]
    fn packs_all_objects_once() {
        for n in [1usize, 7, 64, 65, 500, 3000] {
            let t = RTree::bulk_load(cubes(n), RTreeParams::with_max_entries(16));
            assert_eq!(t.len(), n, "n={n}");
            validate(&t).unwrap();
        }
    }

    #[test]
    fn executor_tiled_build_equals_sequential_node_for_node() {
        for (n, cap) in [(15usize, 16usize), (700, 4), (5000, 16)] {
            let params = RTreeParams::with_max_entries(cap);
            let seq = RTree::bulk_load(cubes(n), params);
            for workers in [2usize, 3, 8] {
                let par = RTree::bulk_load_on(cubes(n), params, &Executor::io_bound(workers));
                assert_same_tree(&par, &seq, &format!("n={n} workers={workers}"));
            }
        }
    }

    fn assert_same_tree(got: &RTree<Aabb>, want: &RTree<Aabb>, what: &str) {
        assert_eq!((got.root, got.len, got.height), (want.root, want.len, want.height), "{what}");
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what}");
        for (id, (p, s)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!((p.mbr, p.parent), (s.mbr, s.parent), "{what}: node {id}");
            match (&p.kind, &s.kind) {
                (NodeKind::Leaf(p), NodeKind::Leaf(s)) => assert_eq!(p, s, "{what}: leaf {id}"),
                (NodeKind::Inner(p), NodeKind::Inner(s)) => assert_eq!(p, s, "{what}: node {id}"),
                _ => panic!("{what}: node {id} is a leaf in one tree only"),
            }
        }
    }

    #[test]
    fn zero_centres_tie_whatever_their_sign() {
        // Centres of -0.0 and +0.0 are one position: the order among them
        // is the input order, as it is for any other tie.
        let at = |x: f64, i: usize| Aabb::point(Vec3::new(x, (i % 7) as f64, (i % 3) as f64));
        let signed: Vec<Aabb> =
            (0..300).map(|i| at(if i % 2 == 0 { -0.0 } else { 0.0 }, i)).collect();
        let plain: Vec<Aabb> = (0..300).map(|i| at(0.0, i)).collect();
        let params = RTreeParams::with_max_entries(8);
        let want = RTree::bulk_load(plain, params);
        assert_same_tree(&RTree::bulk_load(signed, params), &want, "signed zeros");
    }

    #[test]
    fn produces_expected_height() {
        // Height is logarithmic in n: the packed tree must stay within one
        // level of the information-theoretic optimum ceil(log_M(n/M)) + 1.
        for (n, cap) in [(256usize, 16usize), (5000, 16), (5000, 64), (100_000, 64)] {
            let t = RTree::bulk_load(cubes(n), RTreeParams::with_max_entries(cap));
            let optimal = {
                let mut h = 1usize;
                let mut capacity = cap;
                while capacity < n {
                    capacity *= cap;
                    h += 1;
                }
                h
            };
            assert!(
                t.height() >= optimal && t.height() <= optimal + 1,
                "n={n} cap={cap}: height {} vs optimal {optimal}",
                t.height()
            );
            validate(&t).unwrap();
        }
    }

    #[test]
    fn leaves_are_spatially_coherent() {
        // STR leaves should have far smaller total volume than random
        // groupings of the same capacity.
        let objs = cubes(2000);
        let t = RTree::bulk_load(objs.clone(), RTreeParams::with_max_entries(32));
        let str_vol: f64 = t
            .nodes
            .iter()
            .filter(|n| n.is_leaf() && n.entry_count() > 0)
            .map(|n| n.mbr.volume())
            .sum();
        // Random grouping: consecutive objects in original (row-major
        // jittered grid) order is actually fairly coherent too, so shuffle.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled = objs;
        shuffled.shuffle(&mut rand_chacha::ChaCha8Rng::seed_from_u64(1));
        let rand_vol: f64 = shuffled
            .chunks(32)
            .map(|c| c.iter().fold(Aabb::EMPTY, |a, b| a.union(b)).volume())
            .sum();
        assert!(
            str_vol < rand_vol * 0.5,
            "STR should be much tighter: str={str_vol}, random={rand_vol}"
        );
    }

    #[test]
    fn bulk_load_handles_duplicate_positions() {
        let objs: Vec<Aabb> = (0..100).map(|_| Aabb::cube(Vec3::splat(1.0), 0.5)).collect();
        let t = RTree::bulk_load(objs, RTreeParams::with_max_entries(8));
        assert_eq!(t.len(), 100);
        validate(&t).unwrap();
    }
}
