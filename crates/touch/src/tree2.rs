//! S3 — synchronized R-Tree traversal (after Brinkhoff et al.'s R-Tree
//! join): bulk-load an STR tree on *each* input, then recursively join
//! node pairs whose MBRs (A-side ε-inflated) intersect.
//!
//! The paper's positioning: approaches that "first need to index the
//! dataset in a costly step before the spatial join can be performed"
//! (§4) — S3 pays two full index builds before any result is produced,
//! which is exactly what E5's build/probe breakdown shows.

use crate::stats::{JoinResult, JoinStats, PhaseTimer};
use crate::touch::index_tree;
use crate::{JoinObject, SpatialJoin};
use neurospatial_geom::Executor;

/// Synchronized traversal of two STR-packed R-Trees.
#[derive(Debug, Clone, Copy)]
pub struct S3Join {
    /// Fan-out of both trees.
    pub fanout: usize,
}

impl Default for S3Join {
    fn default() -> Self {
        S3Join { fanout: 16 }
    }
}

impl SpatialJoin for S3Join {
    fn name(&self) -> &'static str {
        "s3"
    }

    fn join<T: JoinObject>(&self, a: &[T], b: &[T], eps: f64) -> JoinResult {
        let mut timer = PhaseTimer::start();
        let mut stats = JoinStats::default();
        if a.is_empty() || b.is_empty() {
            return JoinResult::default();
        }

        let exec = Executor::default();
        let ta = index_tree(a, self.fanout, &exec);
        let tb = index_tree(b, self.fanout, &exec);
        stats.aux_memory_bytes = (ta.memory_bytes() + tb.memory_bytes()) as u64;
        stats.build_ms = timer.lap();

        let mut pairs = Vec::new();
        // Explicit stack of node-id pairs.
        let mut stack = vec![(ta.root_id(), tb.root_id())];
        while let Some((na, nb)) = stack.pop() {
            stats.filter_comparisons += 1;
            if !ta.node_mbr(na).inflate(eps).intersects(&tb.node_mbr(nb)) {
                continue;
            }
            match (ta.node_children(na), tb.node_children(nb)) {
                (None, None) => {
                    // Leaf × leaf: all-pairs with filter + refine.
                    for x in ta.leaf_objects(na) {
                        let fx = x.obj.aabb().inflate(eps);
                        for y in tb.leaf_objects(nb) {
                            stats.filter_comparisons += 1;
                            if fx.intersects(&y.obj.aabb()) {
                                stats.refine_comparisons += 1;
                                if x.obj.refine(&y.obj, eps) {
                                    pairs.push((x.idx, y.idx));
                                }
                            }
                        }
                    }
                }
                (Some(ca), None) => {
                    for &c in ca {
                        stack.push((c, nb));
                    }
                }
                (None, Some(cb)) => {
                    for &c in cb {
                        stack.push((na, c));
                    }
                }
                (Some(ca), Some(cb)) => {
                    // Descend both: pairwise child combination.
                    for &x in ca {
                        for &y in cb {
                            stack.push((x, y));
                        }
                    }
                }
            }
        }

        stats.results = pairs.len() as u64;
        stats.probe_ms = timer.lap();
        stats.join_ms = stats.probe_ms; // synchronized traversal: join only
        timer.finish(&mut stats);
        JoinResult { pairs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedLoopJoin;
    use neurospatial_geom::{Aabb, Vec3};

    fn grid_boxes(n: usize, offset: f64) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 1.5 + offset;
                let y = ((i / 10) % 10) as f64 * 1.5;
                let z = (i / 100) as f64 * 1.5;
                Aabb::cube(Vec3::new(x, y, z), 0.5)
            })
            .collect()
    }

    #[test]
    fn matches_nested_loop() {
        let a = grid_boxes(350, 0.0);
        let b = grid_boxes(350, 0.8);
        for eps in [0.0, 0.4, 1.5] {
            let s = S3Join::default().join(&a, &b, eps);
            let n = NestedLoopJoin.join(&a, &b, eps);
            assert_eq!(s.sorted_pairs(), n.sorted_pairs(), "eps={eps}");
            assert!(s.is_duplicate_free());
        }
    }

    #[test]
    fn builds_cost_memory() {
        let a = grid_boxes(500, 0.0);
        let b = grid_boxes(500, 0.5);
        let s = S3Join::default().join(&a, &b, 0.2);
        assert!(s.stats.aux_memory_bytes > 0);
        assert!(s.stats.build_ms >= 0.0);
    }

    #[test]
    fn prunes_disjoint_regions() {
        // Two far-apart datasets: traversal should stop at the roots.
        let a = grid_boxes(200, 0.0);
        let b = grid_boxes(200, 100_000.0);
        let s = S3Join::default().join(&a, &b, 1.0);
        assert!(s.pairs.is_empty());
        assert_eq!(s.stats.filter_comparisons, 1, "root pair only");
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<Aabb> = vec![];
        let one = vec![Aabb::cube(Vec3::ZERO, 1.0)];
        assert!(S3Join::default().join(&e, &one, 1.0).pairs.is_empty());
        assert!(S3Join::default().join(&one, &e, 1.0).pairs.is_empty());
    }
}
