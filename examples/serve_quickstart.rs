//! Spin up a `neurospatial-server` and talk to it — in one process.
//!
//! The server borrows the database inside a scoped thread pool, so the
//! whole arrangement needs no `Arc`, no `'static`, and shuts down by
//! joining when the callback returns. Run with:
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use neurospatial::prelude::*;
use neurospatial::WalkthroughMethod;
use neurospatial_server::protocol::QueryDescView;
use neurospatial_server::{serve_with, Client, FilterRegistry, QueryDesc, Request, ServerConfig};

fn main() {
    // A database: synthetic microcircuit, FLAT backend, two populations.
    let circuit = CircuitBuilder::new(7).neurons(24).build();
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .backend(IndexBackend::Flat)
        .split_populations("axons", "dendrites", |s| s.neuron % 2 == 0)
        .build()
        .expect("valid configuration");

    // Predicates can't cross the wire; clients name server-registered
    // filters by id instead.
    let low_neurons = |s: &NeuronSegment| s.neuron < 8;
    let mut filters = FilterRegistry::new();
    filters.register(1, &low_neurons);

    let region = Aabb::cube(circuit.bounds().center(), 35.0);
    let cfg = ServerConfig::default();

    serve_with(&db, &filters, &cfg, |handle| {
        println!("serving on {}", handle.addr());
        let mut client = Client::connect(handle.addr()).expect("connect");

        // 1. Plain range query, streamed back in chunks.
        let mut segments = Vec::new();
        let stats = client
            .range(
                &QueryDescView { tenant: 42, ..QueryDescView::default() },
                &region,
                &mut segments,
            )
            .expect("range");
        println!("range: {} segments, {} index nodes read", segments.len(), stats.nodes_read);

        // 2. The same query with the full pushdown envelope: population
        //    membership, server-side filter 1, limit 10 — all applied
        //    below the index traversal, on the server.
        let desc = QueryDescView {
            tenant: 42,
            population: Some("axons"),
            filter_id: Some(1),
            limit: Some(10),
            ..QueryDescView::default()
        };
        let stats = client.range(&desc, &region, &mut segments).expect("filtered range");
        println!("pushdown range: {} segments (limit 10)", stats.results);

        // 3. Count-only aggregation: nothing is materialized anywhere.
        let (count, _) = client
            .count(&QueryDescView { tenant: 42, ..QueryDescView::default() }, &region)
            .expect("count");
        println!("count: {count} segments in region");

        // 4. K nearest neighbours.
        let mut neighbors = Vec::new();
        let stats = client
            .knn(&QueryDescView::default(), circuit.bounds().center(), 5, &mut neighbors)
            .expect("knn");
        println!("knn: {} neighbours ({} objects tested)", neighbors.len(), stats.objects_tested);

        // 5. ε-distance join between the populations (TOUCH).
        let mut pairs = Vec::new();
        let desc = QueryDescView { population: Some("axons"), ..QueryDescView::default() };
        client.touching(&desc, "dendrites", 3.0, &mut pairs).expect("touching");
        println!("touching: {} candidate synapse pairs", pairs.len());

        // 6. Walkthrough replay with SCOUT prefetching (FLAT only).
        if let Some(path) = NavigationPath::along_random_branch(&circuit, 1, 20.0, 8.0) {
            let walk = client.walkthrough(0, WalkthroughMethod::Scout, &path).expect("walk");
            println!(
                "walkthrough: {} steps, {} demand misses, {} pages prefetched",
                walk.steps, walk.demand_misses, walk.prefetched
            );
        }

        // 7. EXPLAIN: what would run, without running it.
        let plan = client
            .explain(&Request::Range { desc: QueryDesc::tenant(42), region })
            .expect("explain");
        println!("plan: {} via {}, ~{} reads", plan.operation, plan.backend, plan.estimated_reads);

        // 8. One METRICS scrape: what the server and the query pipeline
        //    have done, as counters, gauges and latency histograms.
        let snap = client.metrics().expect("metrics");
        let ranges = snap.histogram("server_range_latency_ns").expect("range latency");
        println!(
            "server: {} requests, {} range traversals, range p50 {} ns",
            snap.counter("server_requests_total").unwrap_or(0),
            snap.counter("query_ranges_total").unwrap_or(0),
            ranges.quantile(0.5)
        );
        println!(
            "server: {} connections accepted, {} rejected",
            handle.metrics().accepted.get(),
            handle.metrics().rejected.get()
        );
    })
    .expect("bind server");
}
