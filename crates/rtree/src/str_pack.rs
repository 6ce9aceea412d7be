//! Sort-Tile-Recursive bulk loading (Leutenegger, Lopez & Edgington,
//! ICDE'97) — referenced directly by the paper as the packing used for
//! FLAT's seed index ("an R-Tree (STR bulk-loaded)", §2.1).
//!
//! STR sorts objects by the x-coordinate of their centre, cuts the
//! sequence into vertical slabs, sorts each slab by y, cuts again, sorts
//! runs by z and packs consecutive objects into full leaves. Upper levels
//! are built by applying the same procedure to the node centres.
//!
//! Here every level works on `(centre, index)` keys of 32 bytes, never
//! on the objects: once the leaf keys are in tile order, each object is
//! created (or moved) once, straight into its leaf. The order is a total
//! one, ties broken by the earlier axes and then the index (see
//! `sort_along`), so a cut along x or y only has to *select* which
//! keys fall into each slab, O(n log slabs) instead of a full sort; the
//! z sort of each run cut into nodes fixes the order inside a node.

use crate::node::{Node, NodeKind, RTreeObject};
use crate::{NodeId, RTree, RTreeParams};
use neurospatial_geom::{Aabb, Executor, Vec3};
use std::cmp::Ordering;
use std::sync::{Mutex, OnceLock};

/// The leaf level of an STR packing: the objects' indices in tile order,
/// and the lengths of the runs that make up the leaves.
pub(crate) struct LeafOrder {
    order: Vec<u32>,
    runs: Vec<usize>,
}

/// Tile `n` objects, object `i` having the box `box_of(i)`, into STR leaf
/// order. The selections and sorts move 32-byte `(centre, index)` keys,
/// never the objects themselves, and only the indices outlive the tiling.
pub(crate) fn leaf_order(
    n: usize,
    box_of: impl Fn(usize) -> Aabb,
    cap: usize,
    exec: &Executor,
) -> LeafOrder {
    assert!(u32::try_from(n).is_ok(), "an STR build indexes at most u32::MAX objects");
    let mut keys: Vec<(Centre, u32)> = (0..n).map(|i| (sort_key(box_of(i)), i as u32)).collect();
    let runs = if n == 0 { Vec::new() } else { str_tile(&mut keys, cap, exec) };
    LeafOrder { order: keys.iter().map(|&(_, i)| i).collect(), runs }
}

/// Build a tree from a [`LeafOrder`]: `make(i)` creates object `i` once,
/// in tile order, straight into its leaf. Leaf nodes are allocated
/// contiguously in the arena, which gives sequential page ids to
/// spatially adjacent leaves (the layout a modelled disk's sequential
/// reads reward, as a real bulk loader would). The x slabs of every level are tiled on
/// `exec`; the tree is the same at every worker count. An object whose
/// box has a non-finite centre lands in some leaf and, a NaN box meeting
/// nothing, is found by no query.
pub(crate) fn pack<T: RTreeObject>(
    leaves: LeafOrder,
    params: RTreeParams,
    exec: &Executor,
    mut make: impl FnMut(usize) -> T,
) -> RTree<T> {
    let LeafOrder { order, runs } = leaves;
    if order.is_empty() {
        return RTree::new(params);
    }
    let cap = params.max_entries;

    // --- Pack leaves ----------------------------------------------------
    let mut nodes: Vec<Node<T>> = Vec::new();
    let mut level_ids: Vec<NodeId> = Vec::with_capacity(runs.len());
    let mut order_left = order.iter();
    for len in runs {
        let leaf_items: Vec<T> = order_left.by_ref().take(len).map(|&i| make(i as usize)).collect();
        let mbr = leaf_items.iter().fold(Aabb::EMPTY, |mbr, o| mbr.union(&o.aabb()));
        level_ids.push(nodes.len());
        nodes.push(Node { mbr, parent: None, kind: NodeKind::Leaf(leaf_items) });
    }

    // --- Pack upper levels ----------------------------------------------
    let mut height = 1usize;
    while level_ids.len() > 1 {
        height += 1;
        let mut entries: Vec<(Centre, NodeId)> =
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
                nodes[c].parent = Some(id);
                children.push(c);
            }
            nodes.push(Node { mbr, parent: None, kind: NodeKind::Inner(children) });
            next_level.push(id);
        }
        level_ids = next_level;
    }

    let root = level_ids[0];
    RTree { nodes, root, params, len: order.len(), height, free: Vec::new(), soa: OnceLock::new() }
}

/// Reorder a level's `items` (centre, payload; at least one) into STR
/// tile order and return the lengths of the consecutive runs of at most
/// `cap` elements that make up its nodes. The x slabs are selected in one
/// pass over everything; each slab is then tiled along y and z
/// independently of the others, on `exec`'s workers.
fn str_tile<P: Ord + Send>(items: &mut [(Centre, P)], cap: usize, exec: &Executor) -> Vec<usize> {
    if items.len() <= cap {
        return vec![items.len()];
    }
    let sizes: Vec<usize> = cut_sizes(items.len(), cap, 0).collect();
    select_pieces(items, &sizes, 0);
    // A slab and its run lengths, behind a lock that is never contended:
    // task `i` is the only one that touches slab `i`.
    let mut slabs = Vec::with_capacity(sizes.len());
    let mut rest = items;
    for size in sizes {
        let (slab, tail) = rest.split_at_mut(size);
        slabs.push(Mutex::new((slab, Vec::new())));
        rest = tail;
    }
    let (workers, _) = exec.chunking(slabs.len());
    exec.for_each_task(slabs.len(), &mut vec![(); workers], |i, ()| {
        let mut slab = slabs[i].lock().expect("no other task holds this slab");
        let (items, runs) = &mut *slab;
        tile_piece(items, cap, 1, runs);
    });
    slabs
        .into_iter()
        .flat_map(|slab| slab.into_inner().expect("a panicking task has already propagated").1)
        .collect()
}

/// Tile one piece along `axis` (1 = y, 2 = z), then the axes after it,
/// appending its run lengths to `runs`. The piece holds the right
/// elements in no particular order: the order STR gives them comes from
/// the last sort that sees them. That is the z sort of a run cut into
/// leaves or nodes, or, for a piece already small enough to be one
/// node, the sort along the axis that cut it out.
fn tile_piece<P: Ord>(items: &mut [(Centre, P)], cap: usize, axis: usize, runs: &mut Vec<usize>) {
    if items.len() <= cap {
        sort_along(items, axis - 1);
        runs.push(items.len());
    } else if axis == 2 {
        sort_along(items, axis);
        runs.extend(cut_sizes(items.len(), cap, axis));
    } else {
        let sizes: Vec<usize> = cut_sizes(items.len(), cap, axis).collect();
        select_pieces(items, &sizes, axis);
        let mut rest = items;
        for size in sizes {
            let (piece, tail) = rest.split_at_mut(size);
            tile_piece(piece, cap, axis + 1, runs);
            rest = tail;
        }
    }
}

/// Reorder `items` so that its consecutive pieces of the given `sizes`
/// hold, in turn, the elements of successive rank ranges along `axis`
/// (in [`sort_along`]'s order), each piece in no particular order: the
/// cut a full sort would make, at O(n log pieces) instead of O(n log n).
/// The order is total, so the pieces are a function of the data.
fn select_pieces<P: Ord>(items: &mut [(Centre, P)], sizes: &[usize], axis: usize) {
    if sizes.len() < 2 {
        return;
    }
    let half = sizes.len() / 2;
    let at: usize = sizes[..half].iter().sum();
    items.select_nth_unstable_by(at, |a, b| cmp_along(a, b, axis));
    let (left, right) = items.split_at_mut(at);
    select_pieces(left, &sizes[..half], axis);
    select_pieces(right, &sizes[half..], axis);
}

/// Sort along `axis`. Ties are broken by the earlier axes in reverse
/// order and then by the payload: `(y, x, payload)` for y, `(z, y, x,
/// payload)` for z. Payloads enter a level in ascending order (object
/// indices, node ids), so this is exactly the order the classic
/// formulation's stable sorts give, one axis after the other, and it is
/// total, so a sort or a selection by it has one answer whatever the
/// input order.
fn sort_along<P: Ord>(items: &mut [(Centre, P)], axis: usize) {
    items.sort_unstable_by(|a, b| cmp_along(a, b, axis));
}

fn cmp_along<P: Ord>(a: &(Centre, P), b: &(Centre, P), axis: usize) -> Ordering {
    let (u, v) = (&a.0, &b.0);
    match axis {
        0 => (u[0], &a.1).cmp(&(v[0], &b.1)),
        1 => (u[1], u[0], &a.1).cmp(&(v[1], v[0], &b.1)),
        _ => (u[2], u[1], u[0], &a.1).cmp(&(v[2], v[1], v[0], &b.1)),
    }
}

/// The centre STR orders a box by, one integer an axis that orders as
/// `f64::total_cmp` orders the coordinate. Total on every `f64`: a box
/// with a non-finite centre (the database's builder rejects those, a
/// direct caller may pass one) is sorted to an end of the run instead of
/// stopping the build.
type Centre = [u64; 3];

/// Adding `0.0` turns `-0.0` into `+0.0` and changes no other value, so
/// the keys tie exactly where the centres compare equal.
fn sort_key(bb: Aabb) -> Centre {
    let c = bb.center() + Vec3::ZERO;
    [c.x, c.y, c.z].map(|v| {
        // `total_cmp`'s transform, then the sign bit flipped so that
        // unsigned order is signed order.
        let bits = v.to_bits();
        bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63)
    })
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
                let objs = cubes(n);
                let exec = Executor::io_bound(workers);
                let par = RTree::bulk_load_on(n, |i| objs[i], params, &exec, |i| objs[i]);
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

    /// A box and the position it was built from, so that a digest of the
    /// leaves covers the order the objects land in.
    #[derive(Debug, Clone, PartialEq)]
    struct Tagged {
        bb: Aabb,
        id: u32,
    }

    impl RTreeObject for Tagged {
        fn aabb(&self) -> Aabb {
            self.bb
        }
    }

    /// 40 000 seeded boxes in a 100 µm cube with every kind of tie: every
    /// 31st is a point at a signed zero on x and z, every 9th (of the
    /// rest) repeats an earlier box, every 13th has its centre at y = 50
    /// and every 17th at z = 25, and the last is NaN.
    fn seeded_cloud() -> Vec<Aabb> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            // SplitMix64, top 53 bits as a float in [0, 1).
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cloud: Vec<Aabb> = Vec::with_capacity(40_000);
        for i in 0..40_000usize {
            let bb = if i == 39_999 {
                Aabb::point(Vec3::splat(f64::NAN))
            } else if i % 31 == 0 {
                let sign = if i % 2 == 0 { -1.0 } else { 1.0 };
                Aabb::point(Vec3::new(sign * 0.0, unit() * 100.0, -sign * 0.0))
            } else if i % 9 == 0 {
                cloud[(unit() * i as f64) as usize]
            } else {
                let mut c = Vec3::new(unit(), unit(), unit()) * 100.0;
                let mut h = Vec3::new(0.1 + unit(), 0.1 + unit(), 0.1 + unit());
                // Half-extents of 0.5 keep these centres exact.
                if i % 13 == 0 {
                    (c.y, h.y) = (50.0, 0.5);
                }
                if i % 17 == 0 {
                    (c.z, h.z) = (25.0, 0.5);
                }
                Aabb::new(c - h, c + h)
            };
            cloud.push(bb);
        }
        cloud
    }

    /// FNV-1a over every frozen node's entry range, leaf flag, entry-box
    /// bits and entry refs, then the ids of the leaf objects in SoA order.
    fn digest(tree: &RTree<Tagged>) -> u64 {
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01B3);
            }
        };
        let view = tree.frozen().expect("frozen");
        for n in 0..view.node_count() as u32 {
            let (lo, hi) = view.entries(n);
            eat(lo as u64);
            eat(hi as u64);
            eat(view.is_leaf(n) as u64);
            for i in lo..hi {
                let b = view.entry_aabb(i);
                for v in [b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z] {
                    eat(v.to_bits());
                }
                eat(view.entry_ref(i) as u64);
            }
        }
        for n in 0..view.node_count() as u32 {
            if view.is_leaf(n) {
                let leaf = tree.leaf_objects(view.orig(n));
                let (lo, hi) = view.entries(n);
                for i in lo..hi {
                    eat(leaf[view.entry_ref(i) as usize].id as u64);
                }
            }
        }
        digest
    }

    fn build_tagged(cloud: &[Aabb], cap: usize, workers: usize) -> RTree<Tagged> {
        let params = RTreeParams::with_max_entries(cap);
        let exec = Executor::io_bound(workers);
        RTree::bulk_load_on(
            cloud.len(),
            |i| cloud[i],
            params,
            &exec,
            |i| Tagged { bb: cloud[i], id: i as u32 },
        )
    }

    /// The packing is a pure function of its input: one digest pins the
    /// frozen tree over a seeded cloud with tied, signed-zero and NaN
    /// centres, at two fan-outs and every worker count. The short tails
    /// of the cloud (`cap + 1` and `2 cap + 1` boxes, the NaN box always
    /// among them) cut slabs and y runs that are already one node each.
    /// The values were recorded from the packer before it sorted by
    /// index and selected its slabs.
    #[test]
    fn seeded_cloud_tree_is_pinned_bit_for_bit() {
        let cloud = seeded_cloud();
        let pinned = [
            (16usize, cloud.len(), 0xAF27_E6F5_EB9A_A79Eu64),
            (16, 17, 0x19FB_B710_B295_5097),
            (16, 33, 0xAB59_4763_D324_7500),
            (16, 3000, 0x0869_5AEA_85BF_0283),
            (64, cloud.len(), 0x2F14_4FAE_4C06_9708),
            (64, 65, 0xF195_1F38_1D7D_4516),
            (64, 129, 0x96A4_07DA_4DA6_1B64),
            (64, 3000, 0xA240_2D03_6461_CBB7),
        ];
        for (cap, n, want) in pinned {
            let tail = &cloud[cloud.len() - n..];
            for workers in [1usize, 2, 3] {
                let mut tree = build_tagged(tail, cap, workers);
                assert_eq!(tree.len(), n);
                tree.freeze();
                let got = digest(&tree);
                assert_eq!(got, want, "cap={cap} n={n} workers={workers}: {got:#018x}");
            }
            let tagged = tail.iter().enumerate().map(|(i, &bb)| Tagged { bb, id: i as u32 });
            let mut owned = RTree::bulk_load(tagged.collect(), RTreeParams::with_max_entries(cap));
            owned.freeze();
            assert_eq!(digest(&owned), want, "cap={cap} n={n} from an owned vector");
        }
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
