//! Topological skeleton reconstruction.
//!
//! "While the result of query q in the sequence is loaded, SCOUT already
//! starts to reconstruct the dominating structures/the topological
//! skeleton in q and approximates them with a graph" (§3.1).
//!
//! The reconstruction uses geometry only: two segments belong to the
//! same structure when an endpoint of one lies within
//! [`SkeletonParams::connect_tolerance`] (Euclidean, inclusive) of an
//! endpoint of the other, and structures are the connected components of
//! that relation. The pairs are found by sorting the 2n endpoints along
//! x and sweeping a tolerance-wide window over them — a pair closer than
//! the tolerance is closer than it along x too — and fused in a
//! union-find. The prediction runs once a walkthrough step, on a
//! prefetch worker in the user's think time where there is one and on
//! the caller where there is not, so it has to cost what the crawl
//! costs: two sorts and no hashing. The
//! ground-truth neuron/section ids on [`NeuronSegment`] are deliberately
//! ignored; tests use them to measure reconstruction quality.

use neurospatial_geom::{Aabb, Vec3};
use neurospatial_model::NeuronSegment;

/// Skeleton reconstruction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonParams {
    /// Endpoints closer than this are considered the same skeleton vertex.
    pub connect_tolerance: f64,
}

impl Default for SkeletonParams {
    /// 0.25 µm: far below inter-neuron spacing, above float noise.
    fn default() -> Self {
        SkeletonParams { connect_tolerance: 0.25 }
    }
}

/// One reconstructed structure: a connected set of segments.
#[derive(Debug, Clone)]
pub struct Structure {
    /// Object ids of member segments, sorted.
    pub segment_ids: Vec<u64>,
    /// Exit edges: segments that cross the query boundary, with the exit
    /// point (endpoint outside or on the boundary) and outward direction.
    pub exits: Vec<ExitEdge>,
}

impl Structure {
    /// True if any member segment id also appears in `other_ids`
    /// (`other_ids` must be sorted).
    pub fn shares_segments_with(&self, other_ids: &[u64]) -> bool {
        // Both sorted: linear merge.
        let (mut i, mut j) = (0, 0);
        while i < self.segment_ids.len() && j < other_ids.len() {
            match self.segment_ids[i].cmp(&other_ids[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }
}

/// A place where a structure leaves the query box.
#[derive(Debug, Clone, Copy)]
pub struct ExitEdge {
    /// Id of the crossing segment.
    pub segment_id: u64,
    /// The endpoint lying outside the query box.
    pub exit_point: Vec3,
    /// Unit direction pointing out of the box (from the inside endpoint
    /// towards the outside endpoint).
    pub direction: Vec3,
}

/// The reconstructed skeleton of one query result.
#[derive(Debug, Clone)]
pub struct Skeleton {
    pub structures: Vec<Structure>,
}

impl Skeleton {
    /// Reconstruct from a query result.
    ///
    /// `result` are the segments returned for `query`; connectivity is
    /// inferred from endpoint proximity per `params`.
    pub fn reconstruct(result: &[&NeuronSegment], query: &Aabb, params: SkeletonParams) -> Self {
        let n = result.len();
        let mut uf = UnionFind::new(n);
        let tol = params.connect_tolerance.max(1e-9);

        // Sweep: every endpoint against the endpoints after it in x
        // order, until x alone puts them out of reach (a distance is
        // never less than its x part, as computed in floating point too).
        let mut ends: Vec<(Vec3, u32)> = Vec::with_capacity(2 * n);
        for (i, s) in result.iter().enumerate() {
            ends.push((s.geom.p0, i as u32));
            ends.push((s.geom.p1, i as u32));
        }
        ends.sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x));
        for (k, &(p, i)) in ends.iter().enumerate() {
            for &(o, j) in &ends[k + 1..] {
                if o.x - p.x > tol {
                    break;
                }
                if j != i && p.distance(o) <= tol {
                    uf.union(i as usize, j as usize);
                }
            }
        }

        // Group by root: sorted (root, index) pairs put each structure's
        // members side by side, in result order.
        let mut by_root: Vec<(u32, u32)> = (0..n).map(|i| (uf.find(i) as u32, i as u32)).collect();
        by_root.sort_unstable();
        let mut structures: Vec<Structure> = by_root
            .chunk_by(|a, b| a.0 == b.0)
            .map(|members| {
                let members = members.iter().map(|&(_, i)| result[i as usize]);
                let mut segment_ids: Vec<u64> = members.clone().map(|s| s.id).collect();
                segment_ids.sort_unstable();
                let exits = members.filter_map(|s| exit_edge(s, query)).collect();
                Structure { segment_ids, exits }
            })
            .collect();
        // Deterministic order: by smallest member id.
        structures.sort_by_key(|s| s.segment_ids[0]);
        Skeleton { structures }
    }

    /// Structures that leave the query box.
    pub fn exiting(&self) -> impl Iterator<Item = &Structure> {
        self.structures.iter().filter(|s| !s.exits.is_empty())
    }
}

/// Detect whether `seg` crosses the boundary of `q` and build the exit
/// edge if it does.
fn exit_edge(seg: &NeuronSegment, q: &Aabb) -> Option<ExitEdge> {
    let in0 = q.contains_point(seg.geom.p0);
    let in1 = q.contains_point(seg.geom.p1);
    let (inside, outside) = match (in0, in1) {
        (true, false) => (seg.geom.p0, seg.geom.p1),
        (false, true) => (seg.geom.p1, seg.geom.p0),
        _ => return None, // fully inside or fully outside (clipped corner)
    };
    let direction = (outside - inside).normalized()?;
    Some(ExitEdge { segment_id: seg.id, exit_point: outside, direction })
}

/// Plain union-find with path halving + union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::Segment;

    fn seg(id: u64, a: (f64, f64, f64), b: (f64, f64, f64)) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: 0,
            section: 0,
            index_on_section: 0,
            geom: Segment::new(Vec3::new(a.0, a.1, a.2), Vec3::new(b.0, b.1, b.2), 0.1),
        }
    }

    #[test]
    fn chains_fuse_into_one_structure() {
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
            seg(2, (2.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
            // Disconnected second chain.
            seg(3, (0.0, 5.0, 0.0), (1.0, 5.0, 0.0)),
            seg(4, (1.0, 5.0, 0.0), (2.0, 5.0, 0.0)),
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(10.0, 10.0, 1.0));
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 2);
        assert_eq!(sk.structures[0].segment_ids, vec![0, 1, 2]);
        assert_eq!(sk.structures[1].segment_ids, vec![3, 4]);
    }

    #[test]
    fn branching_structures_stay_connected() {
        // Y-shape: two children share the parent's tip.
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.0, 0.0, 0.0), (2.0, 1.0, 0.0)),
            seg(2, (1.0, 0.0, 0.0), (2.0, -1.0, 0.0)),
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::cube(Vec3::new(1.0, 0.0, 0.0), 5.0);
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 1);
        assert_eq!(sk.structures[0].segment_ids, vec![0, 1, 2]);
    }

    #[test]
    fn tolerance_controls_fusion() {
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            seg(1, (1.3, 0.0, 0.0), (2.0, 0.0, 0.0)), // 0.3 gap
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let q = Aabb::cube(Vec3::new(1.0, 0.0, 0.0), 5.0);
        let tight = Skeleton::reconstruct(&refs, &q, SkeletonParams { connect_tolerance: 0.1 });
        assert_eq!(tight.structures.len(), 2);
        let loose = Skeleton::reconstruct(&refs, &q, SkeletonParams { connect_tolerance: 0.5 });
        assert_eq!(loose.structures.len(), 1);
    }

    #[test]
    fn exit_edges_detected_with_direction() {
        let q = Aabb::cube(Vec3::ZERO, 2.0);
        let segs = [
            seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), // inside
            seg(1, (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)), // crosses +x
        ];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.structures.len(), 1);
        let s = &sk.structures[0];
        assert_eq!(s.exits.len(), 1);
        let e = &s.exits[0];
        assert_eq!(e.segment_id, 1);
        assert_eq!(e.exit_point, Vec3::new(3.0, 0.0, 0.0));
        assert!((e.direction - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-9);
        assert_eq!(sk.exiting().count(), 1);
    }

    #[test]
    fn fully_inside_structure_has_no_exits() {
        let q = Aabb::cube(Vec3::ZERO, 10.0);
        let segs = [seg(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))];
        let refs: Vec<&NeuronSegment> = segs.iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        assert_eq!(sk.exiting().count(), 0);
    }

    #[test]
    fn shares_segments_merge_check() {
        let s = Structure { segment_ids: vec![2, 5, 9], exits: vec![] };
        assert!(s.shares_segments_with(&[1, 5, 7]));
        assert!(!s.shares_segments_with(&[1, 3, 7]));
        assert!(!s.shares_segments_with(&[]));
    }

    #[test]
    fn reconstruction_matches_ground_truth_on_circuit() {
        // On a real generated circuit, segments of the same section chain
        // must reconstruct into the same structure.
        use neurospatial_model::CircuitBuilder;
        let c = CircuitBuilder::new(3).neurons(2).build();
        let q = c.bounds().inflate(1.0); // everything inside, no clipping
        let refs: Vec<&NeuronSegment> = c.segments().iter().collect();
        let sk = Skeleton::reconstruct(&refs, &q, SkeletonParams::default());
        // Structures never mix neurons (neurons are spatially separated by
        // construction only per-section; two neurons CAN touch, so check
        // the weaker direction: every section's segments are together).
        use std::collections::HashMap;
        let mut seg_to_structure: HashMap<u64, usize> = HashMap::new();
        for (si, s) in sk.structures.iter().enumerate() {
            for &id in &s.segment_ids {
                seg_to_structure.insert(id, si);
            }
        }
        for w in c.segments().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.neuron == b.neuron
                && a.section == b.section
                && a.index_on_section + 1 == b.index_on_section
            {
                assert_eq!(
                    seg_to_structure[&a.id], seg_to_structure[&b.id],
                    "consecutive segments of one section split across structures"
                );
            }
        }
    }
}
