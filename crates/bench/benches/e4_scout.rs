//! E4 wall-clock companion (demo Figure 6): full walkthrough replay cost
//! per prefetching method, including skeleton reconstruction overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use neurospatial::prelude::*;
use neurospatial_bench::{
    jagged_circuit, walk, walkthrough_config, walkthrough_db, walkthrough_paths,
};
use std::hint::black_box;

fn bench_walkthrough(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_walkthrough");
    group.sample_size(10);

    let circuit = jagged_circuit(12, 9);
    let db = walkthrough_db(&circuit, walkthrough_config());
    let paths = walkthrough_paths(&circuit, 3);
    assert!(!paths.is_empty(), "bench workload must produce paths");

    for m in WalkthroughMethod::ALL {
        group.bench_function(format!("{m:?}"), |b| {
            b.iter(|| paths.iter().map(|p| walk(&db, black_box(p), m).total_stall_ms).sum::<f64>())
        });
    }
    group.finish();
}

fn bench_skeleton_reconstruction(c: &mut Criterion) {
    // SCOUT's own overhead must stay far below think time; this measures
    // the skeleton + pruning step in isolation, on a result the size a
    // walkthrough step hands it (the 15 µm view box of `explore_ooc`) and
    // on a 25 µm one.
    use neurospatial::scout::{Skeleton, SkeletonParams};
    let circuit = jagged_circuit(64, 9);
    let db = NeuroDb::from_circuit(&circuit);
    // Centred on a step of a real walkthrough: the middle of the
    // circuit's bounds is hollow.
    let path = &walkthrough_paths(&circuit, 1)[0];
    let centre = path.queries[path.queries.len() / 2].center();

    let mut group = c.benchmark_group("e4_skeleton");
    group.sample_size(30);
    for radius in [15.0, 25.0] {
        let q = Aabb::cube(centre, radius);
        let out = db.query().range(q).collect().expect("in-memory range");
        let result: Vec<&NeuronSegment> = out.segments.iter().collect();
        group.bench_function(format!("reconstruct_{}_segments", result.len()), |b| {
            b.iter(|| {
                Skeleton::reconstruct(black_box(&result), &q, SkeletonParams::default())
                    .structures
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walkthrough, bench_skeleton_reconstruction);
criterion_main!(benches);
