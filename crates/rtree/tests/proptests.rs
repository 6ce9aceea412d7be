//! Property tests: the R-Tree is an exact index — every query type must
//! agree with brute force on arbitrary inputs, under arbitrary
//! interleavings of bulk load, insert and remove.

use neurospatial_geom::{Aabb, Flow, Vec3};
use neurospatial_rtree::{
    validation::validate, NodeId, RPlusTree, RTree, RTreeParams, SplitStrategy, TraversalScratch,
};
use proptest::prelude::*;

fn small_box() -> impl Strategy<Value = Aabb> {
    ((-50.0..50.0, -50.0..50.0, -50.0..50.0), 0.1..8.0f64)
        .prop_map(|((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r))
}

fn params() -> impl Strategy<Value = RTreeParams> {
    (
        4usize..32,
        prop_oneof![
            Just(SplitStrategy::Linear),
            Just(SplitStrategy::Quadratic),
            Just(SplitStrategy::RStar)
        ],
    )
        .prop_map(|(m, s)| RTreeParams::with_max_entries(m).with_split(s))
}

/// A tree over `objs` built one of three ways: bulk-loaded (`how` 0),
/// inserted one by one (1), or inserted and then thinned by removing every
/// third object (2; queried once in between, so the removals must drop
/// the lanes that query built). Returns the objects it holds.
fn build(how: u8, objs: &[Aabb], p: RTreeParams, freeze: bool) -> (RTree<Aabb>, Vec<Aabb>) {
    let mut tree = match how {
        0 => RTree::bulk_load(objs.to_vec(), p),
        _ => {
            let mut t = RTree::new(p);
            objs.iter().for_each(|o| t.insert(*o));
            t
        }
    };
    let mut held = objs.to_vec();
    if how == 2 {
        tree.range_query(&Aabb::cube(Vec3::ZERO, 20.0));
        held = objs.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, o)| *o).collect();
        for o in objs.iter().step_by(3) {
            assert!(tree.remove(o));
        }
    }
    if freeze {
        tree.freeze();
    }
    (tree, held)
}

/// The descent the pointer arena spells out, node by node: depth first
/// from the root, the children whose MBR meets `q` pushed in stored order
/// or, `nearest_first`, farthest centre first, and each leaf's objects
/// that meet `q` emitted in slot order, stopping at the first one when
/// `nearest_first`. Returns the `(node, level)` visits and the emissions.
fn pointer_walk<'a>(
    t: &'a RTree<Aabb>,
    q: &Aabb,
    nearest_first: bool,
) -> (Vec<(NodeId, usize)>, Vec<&'a Aabb>) {
    let (mut visits, mut out) = (Vec::new(), Vec::new());
    if t.is_empty() || !t.root_mbr().intersects(q) {
        return (visits, out);
    }
    let mut stack = vec![(t.root_id(), 0)];
    while let Some((id, level)) = stack.pop() {
        visits.push((id, level));
        let Some(children) = t.node_children(id) else {
            for o in t.leaf_objects(id).iter().filter(|o| o.intersects(q)) {
                out.push(o);
                if nearest_first {
                    return (visits, out);
                }
            }
            continue;
        };
        let mut cand: Vec<NodeId> =
            children.iter().copied().filter(|&c| t.node_mbr(c).intersects(q)).collect();
        if nearest_first {
            let d = |c: NodeId| t.node_mbr(c).center().distance_sq(q.center());
            cand.sort_by(|&a, &b| d(b).partial_cmp(&d(a)).unwrap_or(std::cmp::Ordering::Equal));
        }
        stack.extend(cand.into_iter().map(|c| (c, level + 1)));
    }
    (visits, out)
}

fn same_objects(a: &[&Aabb], b: &[&Aabb]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every range and first-hit entry point runs the one descent: the
    /// hooked, allocating and scratch range forms agree with each other
    /// and with a pointer-arena walk visit for visit, the first hit with
    /// its hit and visit count, on bulk-loaded,
    /// inserted and thinned trees, frozen or not; and a sink that skips
    /// and stops by rule sees exactly a prefix of the brute-force answer.
    #[test]
    fn one_descent_serves_every_query_form(
        objs in prop::collection::vec(small_box(), 0..300),
        queries in prop::collection::vec(small_box(), 1..6),
        (how, freeze, p) in (0u8..3, any::<bool>(), params()),
        (skip_mask, last_at) in (any::<u8>(), 0usize..40),
    ) {
        let (tree, held) = build(how, &objs, p, freeze);
        validate(&tree).map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), held.len());
        let mut scratch = TraversalScratch::new();
        for q in &queries {
            let mut visits = Vec::new();
            let (hits, stats) = tree.range_query_with(q, |id, level| visits.push((id, level)));
            let (want_visits, want_hits) = pointer_walk(&tree, q, false);
            prop_assert_eq!(&visits, &want_visits);
            prop_assert!(same_objects(&hits, &want_hits), "emission order at {}", q);
            let mut per_level = vec![0u64; if visits.is_empty() { 0 } else { tree.height() }];
            visits.iter().for_each(|&(_, l)| per_level[l] += 1);
            prop_assert_eq!(&stats.nodes_per_level, &per_level);

            let mut streamed = Vec::new();
            let c = tree.range_query_stream(q, &mut scratch, |o| {
                streamed.push(o);
                Flow::Emit
            });
            prop_assert!(same_objects(&streamed, &hits));
            prop_assert_eq!(c.nodes_visited, stats.nodes_visited());
            prop_assert_eq!(c.leaf_entries_tested, stats.leaf_entries_tested);
            prop_assert_eq!(c.results, stats.results);

            // The full answer is the brute-force one, as a multiset.
            let key = |o: &Aabb| [o.lo.x, o.lo.y, o.lo.z, o.hi.x, o.hi.y, o.hi.z].map(f64::to_bits);
            let mut got: Vec<_> = hits.iter().map(|o| key(o)).collect();
            let mut brute: Vec<_> = held.iter().filter(|o| o.intersects(q)).map(key).collect();
            got.sort_unstable();
            brute.sort_unstable();
            prop_assert_eq!(got, brute);

            // Skip candidate j if bit j % 8 of the mask is set; stop at
            // candidate `last_at`. The sink is offered exactly a prefix.
            let (mut offered, mut kept) = (Vec::new(), 0u64);
            let c = tree.range_query_stream(q, &mut scratch, |o| {
                let j = offered.len();
                offered.push(o);
                if j == last_at {
                    Flow::Last
                } else if skip_mask >> (j % 8) & 1 == 1 {
                    Flow::Skip
                } else {
                    kept += 1;
                    Flow::Emit
                }
            });
            let stopped = last_at < hits.len();
            prop_assert!(same_objects(&offered, &hits[..hits.len().min(last_at + 1)]));
            prop_assert_eq!(c.results, kept + u64::from(stopped));
            prop_assert!(c.nodes_visited <= stats.nodes_visited());

            let (hit, hc) = tree.first_hit_scratch(q, &mut scratch);
            let (want_visits, want_hit) = pointer_walk(&tree, q, true);
            let hit: Vec<&Aabb> = hit.into_iter().collect();
            prop_assert!(same_objects(&hit, &want_hit));
            prop_assert_eq!(hit.is_empty(), hits.is_empty());
            prop_assert_eq!(hc.nodes_visited, want_visits.len() as u64);
            prop_assert_eq!(hc.results, hit.len() as u64);
        }
    }

    #[test]
    fn bulk_loaded_range_queries_exact(
        objs in prop::collection::vec(small_box(), 0..600),
        queries in prop::collection::vec(small_box(), 1..10),
        p in params(),
    ) {
        let tree = RTree::bulk_load(objs.clone(), p);
        validate(&tree).map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), objs.len());
        for q in &queries {
            let (hits, stats) = tree.range_query(q);
            let want = objs.iter().filter(|o| o.intersects(q)).count();
            prop_assert_eq!(hits.len(), want);
            prop_assert_eq!(stats.results as usize, want);
        }
    }

    #[test]
    fn inserted_range_queries_exact(
        objs in prop::collection::vec(small_box(), 0..300),
        q in small_box(),
        p in params(),
    ) {
        let mut tree = RTree::new(p);
        for o in &objs {
            tree.insert(*o);
        }
        validate(&tree).map_err(TestCaseError::fail)?;
        let (hits, _) = tree.range_query(&q);
        let want = objs.iter().filter(|o| o.intersects(&q)).count();
        prop_assert_eq!(hits.len(), want);
    }

    #[test]
    fn first_hit_agrees_with_range_query(
        objs in prop::collection::vec(small_box(), 0..400),
        q in small_box(),
    ) {
        let tree = RTree::bulk_load(objs.clone(), RTreeParams::with_max_entries(8));
        let (hit, _) = tree.first_hit_scratch(&q, &mut TraversalScratch::new());
        let any = objs.iter().any(|o| o.intersects(&q));
        prop_assert_eq!(hit.is_some(), any);
        if let Some(h) = hit {
            prop_assert!(h.intersects(&q));
        }
    }

    #[test]
    fn mixed_workload_stays_consistent(
        initial in prop::collection::vec(small_box(), 0..150),
        ops in prop::collection::vec((any::<bool>(), small_box()), 0..150),
        q in small_box(),
    ) {
        // Shadow model: a plain Vec with multiset semantics.
        let mut tree = RTree::new(RTreeParams::with_max_entries(8));
        let mut shadow: Vec<Aabb> = Vec::new();
        for o in &initial {
            tree.insert(*o);
            shadow.push(*o);
        }
        for (is_insert, o) in &ops {
            if *is_insert {
                tree.insert(*o);
                shadow.push(*o);
            } else {
                // Remove an arbitrary existing object (or a miss).
                let target = shadow.first().copied().unwrap_or(*o);
                let removed = tree.remove(&target);
                let in_shadow = shadow.iter().position(|s| *s == target);
                prop_assert_eq!(removed, in_shadow.is_some());
                if let Some(i) = in_shadow {
                    shadow.swap_remove(i);
                }
            }
        }
        validate(&tree).map_err(TestCaseError::fail)?;
        prop_assert_eq!(tree.len(), shadow.len());
        let (hits, _) = tree.range_query(&q);
        let want = shadow.iter().filter(|o| o.intersects(&q)).count();
        prop_assert_eq!(hits.len(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rplus_tree_is_exact_and_disjoint(
        objs in prop::collection::vec(small_box(), 0..400),
        queries in prop::collection::vec(small_box(), 1..6),
        cap in 2usize..32,
    ) {
        let t = RPlusTree::build(objs.clone(), cap);
        t.validate().map_err(TestCaseError::fail)?;
        prop_assert!(t.replication_factor() >= 1.0 || objs.is_empty());
        for q in &queries {
            let (hits, _) = t.range_query(q);
            let want = objs.iter().filter(|o| o.intersects(q)).count();
            prop_assert_eq!(hits.len(), want, "query {}", q);
        }
    }

    /// An R+ stream told to stop after `k` results has offered exactly
    /// `k` distinct objects (fewer only if the answer is smaller), each
    /// meeting the query, although replicas sit in several leaves.
    #[test]
    fn rplus_stream_stops_after_k_distinct_objects(
        objs in prop::collection::vec(small_box(), 0..400),
        q in small_box(),
        (cap, k) in (2usize..16, 1usize..30),
    ) {
        let t = RPlusTree::build(objs.clone(), cap);
        let want = objs.iter().filter(|o| o.intersects(&q)).count();
        let mut got: Vec<&Aabb> = Vec::new();
        let c = t.range_query_stream(&q, &mut TraversalScratch::new(), |o| {
            got.push(o);
            if got.len() == k { Flow::Last } else { Flow::Emit }
        });
        prop_assert_eq!(got.len(), k.min(want));
        prop_assert_eq!(c.results as usize, got.len());
        prop_assert!(got.iter().all(|o| o.intersects(&q)));
        let mut ptrs: Vec<*const Aabb> = got.iter().map(|o| *o as *const Aabb).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        prop_assert_eq!(ptrs.len(), got.len(), "an object was offered twice");
    }
}
