//! Property tests for SCOUT's reconstruction and tracking invariants.

use neurospatial_geom::{Aabb, Segment, Vec3};
use neurospatial_model::{CircuitBuilder, NavigationPath, NeuronSegment};
use neurospatial_scout::{
    extrapolate_exits, CandidateTracker, ExitEdge, PredictParams, PrefetchContext, Prefetcher,
    ScoutPrefetcher, Skeleton, SkeletonParams, Structure,
};
use proptest::prelude::*;

/// Random chains of connected segments plus isolated segments.
fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    (prop::collection::vec(
        // (start, steps) per chain
        (
            (-40.0..40.0, -40.0..40.0, -40.0..40.0),
            prop::collection::vec((-4.0..4.0, -4.0..4.0, -4.0..4.0), 1..12),
        ),
        1..6,
    ),)
        .prop_map(|(chains,)| {
            let mut out = Vec::new();
            let mut id = 0u64;
            for (ci, ((x, y, z), steps)) in chains.into_iter().enumerate() {
                let mut cur = Vec3::new(x, y, z);
                for (si, (dx, dy, dz)) in steps.into_iter().enumerate() {
                    let step = Vec3::new(dx, dy, dz);
                    // Skip vanishing steps to keep segments non-degenerate.
                    let next =
                        cur + if step.norm() < 0.5 { Vec3::new(1.0, 0.0, 0.0) } else { step };
                    out.push(NeuronSegment {
                        id,
                        neuron: ci as u32,
                        section: 0,
                        index_on_section: si as u32,
                        geom: Segment::new(cur, next, 0.2),
                    });
                    id += 1;
                    cur = next;
                }
            }
            out
        })
}

/// The cases a sweep can get wrong, each hung on an endpoint of the soup
/// (the origin when the soup is empty): `(kind, anchor, direction)`.
type HardCase = (u8, usize, (f64, f64, f64));

/// [`segment_soup`] cut to `keep` segments (so `n` = 0 and 1 occur), plus
/// hard cases at tolerance `tol`: gaps of `tol·(1 ± 1e-9)` in a random
/// direction and of exactly `tol` along the sweep axis, exactly
/// coincident endpoints, endpoints equal in x and far apart in y and z,
/// zero-length segments, mirror images in the negative octant. Ids are a
/// permutation of the result order, so "smallest member id" and "result
/// order" are different orders.
fn hard_soup() -> impl Strategy<Value = (Vec<NeuronSegment>, f64)> {
    (
        segment_soup(),
        prop_oneof![Just(0usize), Just(1), Just(usize::MAX)],
        prop::collection::vec((0u8..7, 0usize..1000, (-1.0..1.0, -1.0..1.0, -1.0..1.0)), 0..16),
        0.05..1.0f64,
    )
        .prop_map(|(mut soup, keep, cases, tol): (_, _, Vec<HardCase>, _)| {
            soup.truncate(keep);
            for (kind, anchor, (dx, dy, dz)) in cases {
                let ends: Vec<Vec3> = soup.iter().flat_map(|s| [s.geom.p0, s.geom.p1]).collect();
                let a = if ends.is_empty() { Vec3::ZERO } else { ends[anchor % ends.len()] };
                let dir = Vec3::new(dx, dy, dz).normalized().unwrap_or(Vec3::new(0.0, 1.0, 0.0));
                let start = match kind {
                    0 => a + dir * (tol * (1.0 - 1e-9)),
                    1 => a + dir * (tol * (1.0 + 1e-9)),
                    2 => a + Vec3::new(tol, 0.0, 0.0),
                    3 | 4 => a,
                    5 => Vec3::new(a.x, a.y + 10.0, a.z - 7.0),
                    _ => Vec3::ZERO - a,
                };
                let end = if kind == 4 { start } else { start + dir * 3.0 };
                soup.push(NeuronSegment {
                    id: 0,
                    neuron: 99,
                    section: 0,
                    index_on_section: 0,
                    geom: Segment::new(start, end, 0.2),
                });
            }
            assert!(soup.len() <= 101, "the id permutation below needs n <= 101");
            for (i, s) in soup.iter_mut().enumerate() {
                s.id = (i as u64 * 37 + 11) % 101;
            }
            (soup, tol)
        })
}

/// The O(n²) definition [`Skeleton::reconstruct`] must equal: two
/// segments touch when an endpoint of one is within `tol` of an endpoint
/// of the other, structures are the classes of the closure of that,
/// ordered by smallest member id, ids sorted, exits in result order.
fn reference_skeleton(result: &[&NeuronSegment], q: &Aabb, tol: f64) -> Skeleton {
    let ends = |s: &NeuronSegment| [s.geom.p0, s.geom.p1];
    let mut label: Vec<usize> = (0..result.len()).collect();
    for i in 0..result.len() {
        for j in i + 1..result.len() {
            let touch = ends(result[i])
                .iter()
                .any(|p| ends(result[j]).iter().any(|o| p.distance(*o) <= tol));
            if touch && label[i] != label[j] {
                let (keep, gone) = (label[i], label[j]);
                label.iter_mut().filter(|l| **l == gone).for_each(|l| *l = keep);
            }
        }
    }
    let mut classes = label.clone();
    classes.sort_unstable();
    classes.dedup();
    let mut structures: Vec<Structure> = classes
        .into_iter()
        .map(|class| {
            let members = || (0..result.len()).filter(|&i| label[i] == class).map(|i| result[i]);
            let mut segment_ids: Vec<u64> = members().map(|s| s.id).collect();
            segment_ids.sort_unstable();
            let exits = members()
                .filter_map(|s| {
                    let [p0, p1] = ends(s);
                    let (inside, outside) = match (q.contains_point(p0), q.contains_point(p1)) {
                        (true, false) => (p0, p1),
                        (false, true) => (p1, p0),
                        _ => return None,
                    };
                    let direction = (outside - inside).normalized()?;
                    Some(ExitEdge { segment_id: s.id, exit_point: outside, direction })
                })
                .collect();
            Structure { segment_ids, exits }
        })
        .collect();
    structures.sort_by_key(|s| s.segment_ids[0]);
    Skeleton { structures }
}

/// One structure in comparable form: its ids, then each exit's segment
/// id, exit point and direction.
type Described = (Vec<u64>, Vec<(u64, Vec3, Vec3)>);

/// Everything a skeleton says.
fn described(sk: &Skeleton) -> Vec<Described> {
    sk.structures
        .iter()
        .map(|s| {
            let exits = s.exits.iter().map(|e| (e.segment_id, e.exit_point, e.direction));
            (s.segment_ids.clone(), exits.collect())
        })
        .collect()
}

/// `ScoutPrefetcher::plan` spelled out over a given skeleton: prune the
/// candidates, keep the exits that point the way the viewer moves,
/// extrapolate them one step ahead into boxes 1.25 view radii wide.
fn reference_plan(
    tracker: &mut CandidateTracker,
    skeleton: &Skeleton,
    q: &Aabb,
    history: &[Vec3],
) -> Vec<Aabb> {
    let survivors = tracker.advance(skeleton);
    let n = history.len();
    let motion = (n >= 2).then(|| history[n - 1] - history[n - 2]);
    let mut params = PredictParams::default();
    if let Some(step) = motion.map(Vec3::norm).filter(|&step| step > 0.0) {
        params.lookahead = step;
    }
    let half = q.extent() * 0.5;
    params.prefetch_radius = half.x.max(half.y).max(half.z) * 1.25;
    let forward: Vec<&ExitEdge> = survivors
        .iter()
        .flat_map(|&i| &skeleton.structures[i].exits)
        .filter(|e| motion.is_none_or(|m| e.direction.dot(m) >= 0.0))
        .collect();
    extrapolate_exits(forward, params)
}

#[test]
fn scout_plans_match_the_reference_skeleton_along_walkthroughs() {
    let circuit = CircuitBuilder::new(9).neurons(10).build();
    let paths: Vec<NavigationPath> = (0..24)
        .filter_map(|seed| NavigationPath::along_random_branch(&circuit, seed, 15.0, 22.0))
        .filter(|p| p.queries.len() >= 6)
        .take(4)
        .collect();
    assert!(!paths.is_empty(), "the circuit has branches long enough to follow");
    let mut planned = 0;
    for path in &paths {
        let mut scout = ScoutPrefetcher::default();
        let mut tracker = CandidateTracker::new();
        let mut history = Vec::new();
        for (step, q) in path.queries.iter().enumerate() {
            let result: Vec<&NeuronSegment> =
                circuit.segments().iter().filter(|s| s.aabb().intersects(q)).collect();
            history.push(q.center());
            let got = scout
                .plan(&PrefetchContext {
                    query: q,
                    result: &result,
                    history: &history,
                    pages_read: &[],
                })
                .regions;
            let tol = SkeletonParams::default().connect_tolerance;
            let want =
                reference_plan(&mut tracker, &reference_skeleton(&result, q, tol), q, &history);
            assert_eq!(got, want, "step {step}");
            planned += got.len();
        }
        assert_eq!(scout.candidate_history(), tracker.history());
    }
    assert!(planned > 0, "the walkthroughs predicted something");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skeleton_equals_the_brute_force_reference(
        (soup, tol) in hard_soup(),
        half in 2.0..60.0f64,
        whole in any::<bool>(),
    ) {
        let q = Aabb::cube(Vec3::ZERO, half);
        let result: Vec<&NeuronSegment> =
            soup.iter().filter(|s| whole || s.aabb().intersects(&q)).collect();
        let got = Skeleton::reconstruct(&result, &q, SkeletonParams { connect_tolerance: tol });
        prop_assert_eq!(described(&got), described(&reference_skeleton(&result, &q, tol)));
    }

    #[test]
    fn skeleton_is_a_partition(soup in segment_soup(), half in 5.0..60.0f64) {
        let q = Aabb::cube(Vec3::ZERO, half);
        let result: Vec<&NeuronSegment> =
            soup.iter().filter(|s| s.aabb().intersects(&q)).collect();
        let sk = Skeleton::reconstruct(&result, &q, SkeletonParams::default());
        // Every result segment appears in exactly one structure.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for s in &sk.structures {
            for &i in &s.segment_ids {
                prop_assert!(seen.insert(i), "segment {i} in two structures");
                total += 1;
            }
        }
        prop_assert_eq!(total, result.len());
        // Every claimed member really was in the result.
        let result_ids: std::collections::HashSet<u64> = result.iter().map(|s| s.id).collect();
        prop_assert!(seen.is_subset(&result_ids));
    }

    #[test]
    fn chains_never_split(soup in segment_soup()) {
        // A query covering everything: consecutive segments of one chain
        // share an endpoint exactly, so they must be in one structure.
        let bounds = soup.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
        if bounds.is_empty() {
            return Ok(());
        }
        let q = bounds.inflate(1.0);
        let result: Vec<&NeuronSegment> = soup.iter().collect();
        let sk = Skeleton::reconstruct(&result, &q, SkeletonParams::default());
        let mut owner = std::collections::HashMap::new();
        for (si, s) in sk.structures.iter().enumerate() {
            for &i in &s.segment_ids {
                owner.insert(i, si);
            }
        }
        for w in soup.windows(2) {
            if w[0].neuron == w[1].neuron && w[0].index_on_section + 1 == w[1].index_on_section {
                prop_assert_eq!(owner[&w[0].id], owner[&w[1].id], "chain split");
            }
        }
    }

    #[test]
    fn exit_edges_point_outward(soup in segment_soup(), half in 2.0..30.0f64) {
        let q = Aabb::cube(Vec3::ZERO, half);
        let result: Vec<&NeuronSegment> =
            soup.iter().filter(|s| s.aabb().intersects(&q)).collect();
        let sk = Skeleton::reconstruct(&result, &q, SkeletonParams::default());
        for s in &sk.structures {
            for e in &s.exits {
                // The exit point is outside (or on the boundary of) q.
                prop_assert!(
                    !q.contains_point(e.exit_point - e.direction * 1e-9)
                        || !q.contains_point(e.exit_point),
                    "exit point {} not at the boundary", e.exit_point
                );
                // Direction is unit length.
                prop_assert!((e.direction.norm() - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn candidate_counts_bounded_by_exiting_structures(
        soup in segment_soup(),
        halves in prop::collection::vec(5.0..40.0f64, 1..6),
    ) {
        let mut tracker = CandidateTracker::new();
        for (i, half) in halves.iter().enumerate() {
            // A sliding window sequence of varying sizes.
            let q = Aabb::cube(Vec3::new(i as f64 * 2.0, 0.0, 0.0), *half);
            let result: Vec<&NeuronSegment> =
                soup.iter().filter(|s| s.aabb().intersects(&q)).collect();
            let sk = Skeleton::reconstruct(&result, &q, SkeletonParams::default());
            let exiting = sk.exiting().count();
            let survivors = tracker.advance(&sk);
            prop_assert!(survivors.len() <= exiting);
            for &s in &survivors {
                prop_assert!(!sk.structures[s].exits.is_empty());
            }
        }
        prop_assert_eq!(tracker.history().len(), halves.len());
    }
}
