//! Join-engine equivalence properties: the rebuilt cache-conscious TOUCH
//! pipeline (scratch path, parallel path at random worker counts, forced
//! bucket-sweep path), PBSM, S3, the plane sweep and the nested loop must all
//! produce the identical sorted pair relation — on random segment clouds,
//! at ε = 0, and on heavily overlapping inputs. On skewed inputs, where
//! most of B lands in the root bucket, the engine must also produce the
//! identical pair *sequence* and comparison counts at every worker count.

use neurospatial::touch::{
    JoinScratch, JoinStats, NestedLoopJoin, PbsmJoin, PlaneSweepJoin, S3Join, SpatialJoin,
    TouchEngine, TouchJoin, JOIN_TASK_SLOTS,
};
use neurospatial_geom::{Executor, Segment, Vec3};
use proptest::prelude::*;
use std::ops::Range;

/// Random capsule segments inside a cube of the given half extent: the
/// smaller the volume, the denser the overlap.
fn segment_cloud(len: Range<usize>, half: f64) -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(
        ((-1.0..1.0, -1.0..1.0, -1.0..1.0), (-6.0..6.0, -6.0..6.0, -6.0..6.0), 0.05..1.2f64)
            .prop_map(move |((x, y, z), (dx, dy, dz), r)| {
                let p0 = Vec3::new(x * half, y * half, z * half);
                Segment::new(p0, p0 + Vec3::new(dx, dy, dz), r)
            }),
        len,
    )
}

/// One engine join on exactly `workers` workers, pairs in emission order.
fn join_on_workers(
    engine: &TouchEngine<Segment>,
    b: &[Segment],
    eps: f64,
    workers: usize,
    scratch: &mut JoinScratch,
) -> (Vec<(u32, u32)>, JoinStats) {
    let mut pairs = Vec::new();
    let exec = Executor::io_bound(workers);
    let sweep_min = TouchJoin::default().sweep_min;
    let stats =
        engine.join_runs_on(&exec, b, eps, sweep_min, scratch, |run| pairs.extend_from_slice(run));
    (pairs, stats)
}

/// A skewed B side for a cube of the given half extent: `long` rods that
/// cross the whole cube along x (so they meet several children of any
/// root and stay in the root bucket) among `short` local segments.
fn skewed_cloud(long: usize, short: usize, half: f64) -> impl Strategy<Value = Vec<Segment>> {
    let rod = ((-1.0..1.0, -1.0..1.0), 0.05..0.4f64).prop_map(move |((y, z), r)| {
        let p0 = Vec3::new(-half, y * half, z * half);
        Segment::new(p0, p0 + Vec3::new(2.0 * half, 0.0, 0.0), r)
    });
    (prop::collection::vec(rod, long..long + 1), segment_cloud(0..short, half)).prop_map(
        |(rods, local)| {
            // Interleave, so that the rods are spread over B's index range.
            let mut local = local.into_iter();
            let mut mixed = Vec::with_capacity(rods.len() + local.len());
            for (k, rod) in rods.into_iter().enumerate() {
                mixed.push(rod);
                if k % 2 == 0 {
                    mixed.extend(local.next());
                }
            }
            mixed.extend(local);
            mixed
        },
    )
}

fn check_all(a: &[Segment], b: &[Segment], eps: f64, threads: usize) -> Result<(), TestCaseError> {
    let want = NestedLoopJoin.join(a, b, eps).sorted_pairs();

    // Rebuilt engine through the trait (fresh scratch per call).
    prop_assert_eq!(&TouchJoin::default().join(a, b, eps).sorted_pairs(), &want);
    prop_assert_eq!(&TouchJoin::parallel(threads).join(a, b, eps).sorted_pairs(), &want);
    prop_assert_eq!(&TouchJoin::default().with_sweep_min(2).join(a, b, eps).sorted_pairs(), &want);
    // One leaf as wide as A: a lane mask of every width up to the cloud's.
    prop_assert_eq!(&TouchJoin::default().with_fanout(100).join(a, b, eps).sorted_pairs(), &want);

    // Rebuilt engine through the explicit scratch path, reusing one
    // scratch across a sequential run and one on `threads` real workers
    // (`join_into` would cap them at the machine's cores).
    if !a.is_empty() {
        let engine = TouchEngine::build(a, 16);
        let mut scratch = JoinScratch::new();
        for t in [1, threads] {
            let (mut out, _) = join_on_workers(&engine, b, eps, t, &mut scratch);
            out.sort_unstable();
            prop_assert_eq!(&out, &want, "scratch path, {} worker(s)", t);
        }
    }

    // The baselines.
    prop_assert_eq!(&PlaneSweepJoin.join(a, b, eps).sorted_pairs(), &want);
    prop_assert_eq!(
        &PbsmJoin { objects_per_cell: 8, max_cells_per_axis: 24 }.join(a, b, eps).sorted_pairs(),
        &want
    );
    prop_assert_eq!(&S3Join::default().join(a, b, eps).sorted_pairs(), &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_join_paths_agree_on_random_clouds(
        a in segment_cloud(0..60, 30.0),
        b in segment_cloud(0..60, 30.0),
        eps in 0.0..4.0f64,
        threads in 1usize..8,
    ) {
        check_all(&a, &b, eps, threads)?;
    }

    #[test]
    fn all_join_paths_agree_at_epsilon_zero(
        a in segment_cloud(0..50, 20.0),
        b in segment_cloud(0..50, 20.0),
        threads in 1usize..8,
    ) {
        check_all(&a, &b, 0.0, threads)?;
    }

    #[test]
    fn all_join_paths_agree_on_heavy_overlap(
        // Everything crammed into a tiny volume: nearly every pair
        // qualifies, buckets are huge, and the hybrid sweep engages.
        a in segment_cloud(0..45, 3.0),
        b in segment_cloud(0..45, 3.0),
        eps in 0.0..2.0f64,
        threads in 1usize..8,
    ) {
        check_all(&a, &b, eps, threads)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn skewed_joins_are_identical_at_every_worker_count(
        // The root bucket holds most of B and is cut into several tasks.
        a in segment_cloud(800..1500, 60.0),
        b in skewed_cloud(3 * JOIN_TASK_SLOTS, JOIN_TASK_SLOTS, 60.0),
        eps in 0.0..1.0f64,
    ) {
        let engine = TouchEngine::build(&a, 16);
        let mut scratch = JoinScratch::new();
        let (want, seq) = join_on_workers(&engine, &b, eps, 1, &mut scratch);
        let in_root = scratch.report().histogram[0] as usize;
        prop_assert!(2 * in_root > b.len(), "{} of {} in the root bucket", in_root, b.len());
        prop_assert!(scratch.largest_task() <= JOIN_TASK_SLOTS);
        prop_assert!(seq.join_tasks as usize >= in_root.div_ceil(JOIN_TASK_SLOTS));
        prop_assert_eq!(seq.join_imbalance, 1.0);
        let mut sorted = want.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &PbsmJoin::default().join(&a, &b, eps).sorted_pairs());
        // Leaves wider than one 64-entry lane mask.
        let wide = TouchJoin::parallel(2).with_fanout(100).join(&a, &b, eps);
        prop_assert_eq!(wide.sorted_pairs(), sorted);
        for workers in [2usize, 3, 8] {
            let (got, stats) = join_on_workers(&engine, &b, eps, workers, &mut scratch);
            prop_assert!(got == want, "pair sequence differs at {} workers", workers);
            prop_assert_eq!(stats.join_tasks, seq.join_tasks);
            prop_assert_eq!(stats.filter_comparisons, seq.filter_comparisons);
            prop_assert_eq!(stats.refine_comparisons, seq.refine_comparisons);
            prop_assert!(stats.join_imbalance >= 1.0 && stats.join_imbalance <= workers as f64);
        }
    }
}
