//! End-to-end integration: circuit generation → indexing → querying →
//! joining → exploring, through the public facade.

use neurospatial::prelude::*;

/// A medium circuit shared by the tests in this file.
fn circuit() -> Circuit {
    CircuitBuilder::new(2024)
        .neurons(24)
        .morphology(MorphologyParams::small())
        .placement(SomaPlacement::Layered { count: 3, jitter: 10.0 })
        .build()
}

#[test]
fn flat_rtree_and_scan_agree_on_a_circuit() {
    let c = circuit();
    let db = NeuroDb::from_circuit(&c);
    let tree = RTree::bulk_load(c.segments().to_vec(), RTreeParams::default());

    let workload = RangeQueryWorkload::generate(
        7,
        &c.bounds(),
        25,
        15.0,
        QueryPlacement::DataCentered,
        Some(c.segments()),
    );
    for q in &workload.queries {
        let flat_out = db.query().range(*q).collect().expect("range");
        let (tree_hits, _) = tree.range_query(q);
        let scan = c.segments().iter().filter(|s| s.aabb().intersects(q)).count();
        assert_eq!(flat_out.len(), scan, "FLAT vs scan at {q}");
        assert_eq!(tree_hits.len(), scan, "R-Tree vs scan at {q}");
    }
}

#[test]
fn all_join_algorithms_agree_on_synapse_workload() {
    let c = circuit();
    let (a, b) = c.split_populations();
    let eps = 1.5;
    let reference = NestedLoopJoin.join(&a, &b, eps).sorted_pairs();
    assert!(!reference.is_empty(), "workload should produce synapse candidates");
    for (name, pairs) in [
        ("touch", TouchJoin::default().join(&a, &b, eps).sorted_pairs()),
        ("touch-par", TouchJoin::parallel(3).join(&a, &b, eps).sorted_pairs()),
        ("sweep", PlaneSweepJoin.join(&a, &b, eps).sorted_pairs()),
        ("pbsm", PbsmJoin::default().join(&a, &b, eps).sorted_pairs()),
        ("s3", S3Join::default().join(&a, &b, eps).sorted_pairs()),
    ] {
        assert_eq!(pairs, reference, "{name} disagrees with nested loop");
    }
}

#[test]
fn synapse_pairs_are_biologically_sane() {
    // Every reported pair must involve segments from different neurons
    // whose capsules really are within epsilon.
    let c = circuit();
    let (a, b) = c.split_populations();
    let eps = 2.0;
    let r = TouchJoin::default().join(&a, &b, eps);
    for &(i, j) in &r.pairs {
        let (x, y) = (&a[i as usize], &b[j as usize]);
        assert_ne!(x.neuron, y.neuron);
        assert!(x.geom.within_distance(&y.geom, eps));
    }
}

#[test]
fn walkthrough_methods_ranked_as_the_paper_claims() {
    // Aggregate over several paths: scout ≤ extrapolation/hilbert stall,
    // and every method beats or ties no-prefetching.
    let c = circuit();
    let db = NeuroDb::from_circuit(&c);
    let mut totals = [
        (WalkthroughMethod::None, 0.0f64),
        (WalkthroughMethod::Hilbert, 0.0),
        (WalkthroughMethod::Extrapolation, 0.0),
        (WalkthroughMethod::Scout, 0.0),
    ];
    let mut paths = 0;
    for seed in 0..8 {
        let Some(path) = NavigationPath::along_random_branch(&c, seed, 18.0, 7.0) else { continue };
        if path.queries.len() < 4 {
            continue;
        }
        paths += 1;
        for (m, acc) in totals.iter_mut() {
            *acc +=
                db.query().along_path(&path).method(*m).run().expect("flat backend").total_stall_ms;
        }
    }
    assert!(paths >= 3, "need several usable paths");
    let stall =
        |m: WalkthroughMethod| totals.iter().find(|(x, _)| *x == m).expect("method present").1;
    assert!(stall(WalkthroughMethod::Scout) < stall(WalkthroughMethod::None));
    assert!(stall(WalkthroughMethod::Scout) <= stall(WalkthroughMethod::Hilbert));
    assert!(stall(WalkthroughMethod::Scout) <= stall(WalkthroughMethod::Extrapolation));
}

#[test]
fn swc_roundtrip_through_workspace() {
    let c = circuit();
    let m = &c.morphologies()[0];
    let text = neurospatial::model::swc::to_swc(m);
    let back = neurospatial::model::swc::from_swc(&text).expect("parse");
    back.validate().expect("valid");
    assert!((back.total_length() - m.total_length()).abs() < 1e-3);
}

#[test]
fn density_stats_identify_dense_regions() {
    let c = circuit();
    let stats = DensityStats::new(c.bounds(), [6, 6, 6], c.segments());
    let dense = stats.densest_cell_center();
    let sparse = stats.sparsest_cell_center();
    let db = NeuroDb::from_circuit(&c);
    let dense_hits = db.query().range(Aabb::cube(dense, 20.0)).collect().expect("range");
    let sparse_hits = db.query().range(Aabb::cube(sparse, 20.0)).collect().expect("range");
    assert!(
        dense_hits.len() >= sparse_hits.len(),
        "dense anchor ({}) should yield >= results than sparse ({})",
        dense_hits.len(),
        sparse_hits.len()
    );
}
