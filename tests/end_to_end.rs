//! Determinism and scale: the full pipeline produces identical results
//! run-to-run, and behaves across a size sweep.

use neurospatial::prelude::*;

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let c = CircuitBuilder::new(77).neurons(12).build();
        let db = NeuroDb::from_circuit(&c);
        let q = Aabb::cube(c.bounds().center(), 25.0);
        let out = db.query().range(q).collect().expect("range");
        let join = db.query().touching("odd", 1.0).collect().expect("two populations");
        let path = NavigationPath::along_random_branch(&c, 5, 15.0, 6.0).expect("path");
        let walk = db
            .query()
            .along_path(&path)
            .method(WalkthroughMethod::Scout)
            .run()
            .expect("flat backend");
        (
            out.len(),
            out.stats.nodes_read,
            join.sorted_pairs(),
            walk.total_stall_ms.to_bits(),
            walk.total_prefetched,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn results_scale_with_circuit_size() {
    let mut last_segments = 0;
    for neurons in [4u32, 8, 16] {
        let c = CircuitBuilder::new(31).neurons(neurons).build();
        assert!(c.segments().len() > last_segments, "more neurons, more segments");
        last_segments = c.segments().len();

        let db = NeuroDb::from_circuit(&c);
        let q = Aabb::cube(c.bounds().center(), 1e6); // everything
        let out = db.query().range(q).collect().expect("range");
        assert_eq!(out.len(), c.segments().len());
    }
}

#[test]
fn query_stats_are_internally_consistent() {
    let c = CircuitBuilder::new(13).neurons(16).build();
    let db = NeuroDb::from_circuit(&c);
    let w = RangeQueryWorkload::generate(
        3,
        &c.bounds(),
        20,
        12.0,
        QueryPlacement::DataCentered,
        Some(c.segments()),
    );
    let flat = db.flat_index().expect("default backend is FLAT");
    for q in &w.queries {
        // Unified stats through the facade…
        let out = db.query().range(*q).collect().expect("range");
        assert_eq!(out.stats.results as usize, out.len());
        assert!(out.stats.objects_tested >= out.stats.results);
        // …and page-level detail through the FLAT view.
        let (hits, s) = flat.range_query(q);
        assert_eq!(hits.len(), out.len());
        assert_eq!(s.crawl_order.len() as u64, s.pages_read);
        assert_eq!(s.pages_read + s.seed_nodes_read, out.stats.nodes_read);
        // Each read page holds at most page_capacity objects.
        assert!(s.objects_tested <= s.pages_read * flat.params().page_capacity as u64);
    }
}

#[test]
fn io_accounting_flows_through_the_stack() {
    // Run a FLAT query through a view's frame pool and check that the
    // statistics add up.
    let c = CircuitBuilder::new(21).neurons(10).build();
    let flat = std::sync::Arc::new(FlatIndex::build(
        c.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(64),
    ));
    let session = SessionConfig { buffer_pages: 64, ..SessionConfig::default() };
    let view = OocFlatIndex::view(flat.clone(), &session);
    let q = Aabb::cube(c.segments()[0].geom.center(), 30.0);
    let (_, stats) = flat.range_query(&q);
    assert!(stats.pages_read > 0 && stats.pages_read <= 64, "{} pages", stats.pages_read);

    let mut scratch = neurospatial::scout::OocScratch::new();
    let mut out = Vec::new();
    let first = view.range_query_into(&q, &mut scratch, &mut out).expect("pages in memory");
    assert_eq!(first.flat.pages_read, stats.pages_read);
    assert_eq!(first.io.cache_misses, stats.pages_read, "first touch misses everything");
    assert_eq!(first.io.cache_hits, 0);

    // Re-running the same query hits the pool for every page.
    let second = view.range_query_into(&q, &mut scratch, &mut out).expect("pages in memory");
    assert_eq!((second.io.cache_hits, second.io.cache_misses), (stats.pages_read, 0));
    let pool = view.pool().stats();
    assert_eq!((pool.hits, pool.misses, pool.evictions), (stats.pages_read, stats.pages_read, 0));
}
