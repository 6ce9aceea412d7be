//! Property tests: all join algorithms compute the same relation, on
//! boxes and on capsule segments, for arbitrary ε.

use neurospatial_geom::{Aabb, Segment, Vec3};
use neurospatial_touch::{
    JoinObject, NestedLoopJoin, PbsmJoin, PlaneSweepJoin, S3Join, SpatialJoin, TouchJoin,
};
use proptest::prelude::*;

fn boxes(n: usize) -> impl Strategy<Value = Vec<Aabb>> {
    prop::collection::vec(
        ((-30.0..30.0, -30.0..30.0, -30.0..30.0), 0.1..5.0f64)
            .prop_map(|((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r)),
        0..n,
    )
}

fn segments(n: usize) -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(
        ((-30.0..30.0, -30.0..30.0, -30.0..30.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..1.5f64)
            .prop_map(|((x, y, z), (dx, dy, dz), r)| {
                let p0 = Vec3::new(x, y, z);
                Segment::new(p0, p0 + Vec3::new(dx, dy, dz), r)
            }),
        0..n,
    )
}

fn check_all_agree<T: JoinObject>(a: &[T], b: &[T], eps: f64) -> Result<(), TestCaseError> {
    let reference = NestedLoopJoin.join(a, b, eps);
    prop_assert!(reference.is_duplicate_free());
    let want = reference.sorted_pairs();
    for (name, got) in [
        ("touch", TouchJoin::default().join(a, b, eps)),
        ("touch-par", TouchJoin::parallel(3).join(a, b, eps)),
        ("touch-sweep", TouchJoin::default().with_sweep_min(2).join(a, b, eps)),
        ("sweep", PlaneSweepJoin.join(a, b, eps)),
        ("pbsm", PbsmJoin { objects_per_cell: 8, max_cells_per_axis: 24 }.join(a, b, eps)),
        ("s3", S3Join { fanout: 5 }.join(a, b, eps)),
    ] {
        prop_assert!(got.is_duplicate_free(), "{name} produced duplicates");
        prop_assert_eq!(got.sorted_pairs(), want.clone(), "{} disagrees", name);
        prop_assert_eq!(got.stats.results as usize, want.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn joins_agree_on_boxes(a in boxes(80), b in boxes(80), eps in 0.0..6.0f64) {
        check_all_agree(&a, &b, eps)?;
    }

    #[test]
    fn joins_agree_on_capsules(a in segments(60), b in segments(60), eps in 0.0..4.0f64) {
        check_all_agree(&a, &b, eps)?;
    }

    #[test]
    fn join_pairs_satisfy_the_predicate(a in segments(60), b in segments(60), eps in 0.0..4.0f64) {
        let r = TouchJoin::default().join(&a, &b, eps);
        // Soundness: every reported pair is within eps.
        for &(i, j) in &r.pairs {
            prop_assert!(a[i as usize].refine(&b[j as usize], eps));
        }
        // Completeness spot-check (first 500 pairs of the cross product).
        let mut checked = 0;
        'outer: for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                if x.refine(y, eps) {
                    prop_assert!(
                        r.pairs.contains(&(i as u32, j as u32)),
                        "missing pair ({i}, {j})"
                    );
                }
                checked += 1;
                if checked > 500 {
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn join_is_symmetric_in_result_count(a in boxes(50), b in boxes(50), eps in 0.0..4.0f64) {
        // |A ⋈ B| == |B ⋈ A| (pairs transpose).
        let ab = TouchJoin::default().join(&a, &b, eps);
        let ba = TouchJoin::default().join(&b, &a, eps);
        prop_assert_eq!(ab.pairs.len(), ba.pairs.len());
        let mut transposed: Vec<(u32, u32)> = ba.pairs.iter().map(|&(i, j)| (j, i)).collect();
        transposed.sort_unstable();
        prop_assert_eq!(ab.sorted_pairs(), transposed);
    }

    #[test]
    fn epsilon_monotonicity(a in segments(40), b in segments(40), e1 in 0.0..2.0f64, e2 in 0.0..2.0f64) {
        // A larger epsilon can only add pairs.
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let small = TouchJoin::default().join(&a, &b, lo);
        let large = TouchJoin::default().join(&a, &b, hi);
        let large_set: std::collections::HashSet<(u32, u32)> =
            large.pairs.iter().copied().collect();
        for p in &small.pairs {
            prop_assert!(large_set.contains(p), "pair {p:?} lost when eps grew");
        }
    }

    #[test]
    fn assignment_report_is_complete(a in boxes(60), b in boxes(60), eps in 0.0..3.0f64) {
        if a.is_empty() || b.is_empty() {
            return Ok(());
        }
        let (_, report) = TouchJoin::default().join_with_report(&a, &b, eps);
        let assigned: u64 = report.histogram.iter().sum();
        prop_assert_eq!(assigned + report.filtered_out, b.len() as u64);
    }
}
