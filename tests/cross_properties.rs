//! Cross-crate property tests: the big consistency invariants that span
//! multiple subsystems, on randomly generated circuits.

use neurospatial::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flat_equals_rtree_equals_scan_on_random_circuits(
        seed in 0u64..5000,
        neurons in 2u32..10,
        half in 5.0..40.0f64,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let db = NeuroDb::from_circuit(&c);
        let tree = RTree::bulk_load(c.segments().to_vec(), RTreeParams::with_max_entries(16));
        let q = Aabb::cube(c.bounds().center(), half);
        let f = db.query().range(q).collect().expect("range");
        let (r, _) = tree.range_query(&q);
        let scan = c.segments().iter().filter(|s| s.aabb().intersects(&q)).count();
        prop_assert_eq!(f.len(), scan);
        prop_assert_eq!(r.len(), scan);
    }

    #[test]
    fn joins_agree_on_random_circuits(
        seed in 0u64..5000,
        neurons in 2u32..8,
        eps in 0.0..4.0f64,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let (a, b) = c.split_populations();
        // Subsample to keep the nested-loop reference tractable.
        let a: Vec<_> = a.into_iter().take(400).collect();
        let b: Vec<_> = b.into_iter().take(400).collect();
        let reference = NestedLoopJoin.join(&a, &b, eps).sorted_pairs();
        prop_assert_eq!(TouchJoin::default().join(&a, &b, eps).sorted_pairs(), reference.clone());
        prop_assert_eq!(PlaneSweepJoin.join(&a, &b, eps).sorted_pairs(), reference.clone());
        prop_assert_eq!(PbsmJoin::default().join(&a, &b, eps).sorted_pairs(), reference.clone());
        prop_assert_eq!(S3Join::default().join(&a, &b, eps).sorted_pairs(), reference);
    }

    #[test]
    fn walkthrough_invariants_hold_for_any_method(
        seed in 0u64..2000,
        path_seed in 0u64..50,
    ) {
        let c = CircuitBuilder::new(seed).neurons(6).build();
        let db = NeuroDb::from_circuit(&c);
        let Some(path) = NavigationPath::along_random_branch(&c, path_seed, 15.0, 6.0) else {
            return Ok(());
        };
        let mut result_counts: Option<Vec<u64>> = None;
        for m in WalkthroughMethod::ALL {
            let s = db.query().along_path(&path).method(m).run().expect("flat backend");
            // Accounting identities.
            let hits: u64 = s.steps.iter().map(|t| t.demand_hits).sum();
            let misses: u64 = s.steps.iter().map(|t| t.demand_misses).sum();
            prop_assert_eq!(hits, s.total_demand_hits);
            prop_assert_eq!(misses, s.total_demand_misses);
            prop_assert!(s.useful_prefetched <= s.total_prefetched);
            prop_assert!(s.total_stall_ms >= 0.0);
            // Query semantics independent of prefetching method.
            let counts: Vec<u64> = s.steps.iter().map(|t| t.results).collect();
            match &result_counts {
                None => result_counts = Some(counts),
                Some(prev) => prop_assert_eq!(prev, &counts),
            }
        }
    }
}
