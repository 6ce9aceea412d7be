//! Out-of-core quickstart: spill a FLAT index to a real page file,
//! query it through a bounded buffer pool with background prefetching,
//! and watch the physical I/O counters — while every answer stays
//! byte-identical to the in-memory index.
//!
//! Run with: `cargo run --release --example ooc_quickstart`

use neurospatial::prelude::*;
use neurospatial::scout::ooc::frame_budget_for;

fn main() {
    // --- 1. A circuit big enough to make paging interesting -------------
    let circuit =
        CircuitBuilder::new(42).neurons(60).morphology(MorphologyParams::cortical()).build();
    println!("circuit: {} segments, bounds {}", circuit.segments().len(), circuit.bounds());

    // An in-memory database as the ground truth to compare against.
    let mem = NeuroDb::from_circuit(&circuit);
    let pages = mem.flat_index().expect("FLAT default").page_count();

    // --- 2. Spill to disk: same data, bounded RAM ------------------------
    // .paged(true) writes the FLAT index to a checksummed page file in
    // the temp directory (deleted on drop; use .page_file(path) to keep
    // it) and opens it through the pager. The frame budget caps how many
    // pages stay resident: here 10% of the dataset.
    let budget = frame_budget_for(pages, 10);
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .paged(true)
        .frame_budget(budget)
        .prefetch_workers(2)
        .build()
        .expect("temp dir is writable");
    let paged = db.paged_index().expect("paged mode selected above");
    println!(
        "paged FLAT: {} pages on disk at {}, {budget} frames resident ({} policy), \
         engine footprint {:.1} KiB",
        paged.page_count(),
        paged.path().display(),
        paged.pool().policy(),
        paged.memory_bytes() as f64 / 1024.0,
    );

    // --- 3. Queries read through the buffer pool -------------------------
    // Results and logical statistics are byte-identical to the in-memory
    // backend; the cache_* fields report the real page I/O.
    let region = Aabb::cube(circuit.bounds().center(), 50.0);
    let range = |db: &NeuroDb| db.query().range(region).collect().expect("healthy page file");
    let (want, got) = (range(&mem), range(&db));
    assert_eq!(want.sorted_ids(), got.sorted_ids(), "paged answers match in-memory");
    println!(
        "\nrange query {region}: {} segments | {} index reads | \
         {} pool hits, {} misses, {} evictions",
        got.len(),
        got.stats.nodes_read,
        got.stats.cache_hits,
        got.stats.cache_misses,
        got.stats.cache_evictions,
    );

    // Re-running the same query hits the pool instead of the disk.
    let again = range(&db);
    println!(
        "same query again: {} hits, {} misses (the pool remembered {} of {} pages)",
        again.stats.cache_hits,
        again.stats.cache_misses,
        budget.min(pages),
        pages
    );

    // --- 4. A real-I/O walkthrough with SCOUT prefetching ----------------
    // Prefetches are actual background reads racing the exploration
    // cursor through the same pool — stall time is wall-clock, not
    // modelled.
    let path =
        NavigationPath::along_random_branch(&circuit, 7, 25.0, 10.0).expect("branches exist");
    println!("\nwalkthrough over {} steps at a {budget}-frame budget:", path.queries.len());
    for method in [WalkthroughMethod::None, WalkthroughMethod::Scout] {
        let s = db
            .query()
            .along_path(&path)
            .method(method)
            .run()
            .expect("paged FLAT supports walkthroughs");
        println!(
            "  {:>6}: stall {:>7.2} ms | {:>4} demand misses | {:>4} pages prefetched \
             ({} later demanded)",
            s.method,
            s.total_stall_ms,
            s.total_demand_misses,
            s.total_prefetched,
            s.useful_prefetched,
        );
    }

    // --- 5. The cumulative pool counters ---------------------------------
    let fs = paged.pool().stats();
    println!(
        "\nframe pool lifetime: {} hits / {} misses / {} evictions / {} prefetched",
        fs.hits, fs.misses, fs.evictions, fs.prefetched
    );
}
