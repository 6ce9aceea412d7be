//! E1 wall-clock companion (demo Figures 2+3): range-query latency of
//! FLAT vs the STR-packed, dynamic and R+ trees across densities. FLAT
//! runs both directly and through the database's [`SpatialIndex`] trait,
//! to expose any abstraction overhead; the trees run their own streaming
//! traversal.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial::rtree::{TraversalCounters, TraversalScratch};
use neurospatial_bench::{dense_circuit, standard_workload};
use std::hint::black_box;

/// Time one tree's streaming traversal over the workload.
fn bench_tree(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    w: &RangeQueryWorkload,
    query: impl Fn(&Aabb, &mut TraversalScratch) -> TraversalCounters,
) {
    group.bench_with_input(id, w, |b, w| {
        let mut scratch = TraversalScratch::default();
        b.iter(|| w.queries.iter().map(|q| query(black_box(q), &mut scratch).results).sum::<u64>())
    });
}

fn bench_range_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_range_query");
    group.sample_size(20);

    let params = IndexParams::with_page_capacity(64);
    for &neurons in &[10u32, 50] {
        let circuit = dense_circuit(neurons, 1);
        let segments = circuit.segments().to_vec();
        let n = segments.len();
        let w = standard_workload(&circuit, 20, 20.0);

        // Direct lane: the concrete FLAT index with no trait dispatch and
        // no result copy-out — the pre-redesign hot path, kept as the
        // regression baseline for the SpatialIndex abstraction.
        let flat_direct =
            FlatIndex::build(segments.clone(), FlatBuildParams::default().with_page_capacity(64));
        group.bench_with_input(BenchmarkId::new("flat_direct", n), &w, |b, w| {
            b.iter(|| {
                let mut total = 0usize;
                for q in &w.queries {
                    total += flat_direct.range_query(black_box(q)).0.len();
                }
                total
            })
        });

        // FLAT through the trait, using the buffer-reuse form
        // (`range_query_into_scratch`) — the hot-loop API.
        let index: FlatIndex<NeuronSegment> = SpatialIndex::build(segments.clone(), &params);
        group.bench_with_input(BenchmarkId::new("flat", n), &w, |b, w| {
            let mut scratch = QueryScratch::new();
            let mut buf = Vec::new();
            b.iter(|| {
                let mut total = 0usize;
                for q in &w.queries {
                    buf.clear();
                    index.range_query_into_scratch(black_box(q), &mut scratch, &mut buf);
                    total += buf.len();
                }
                total
            })
        });

        let mut dynamic = RTree::new(RTreeParams::with_max_entries(64));
        segments.iter().for_each(|s| dynamic.insert(*s));
        dynamic.freeze();
        bench_tree(&mut group, BenchmarkId::new("rtree", n), &w, |q, scratch| {
            dynamic.range_query_stream(q, scratch, |_| Flow::Emit)
        });
        let rplus = RPlusTree::build(segments.clone(), 64);
        bench_tree(&mut group, BenchmarkId::new("rplus", n), &w, |q, scratch| {
            rplus.range_query_stream(q, scratch, |_| Flow::Emit)
        });
        let mut packed = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(64));
        packed.freeze();
        bench_tree(&mut group, BenchmarkId::new("str-packed", n), &w, |q, scratch| {
            packed.range_query_stream(q, scratch, |_| Flow::Emit)
        });
    }

    // The FLAT page kernel outside the reference benchmark, on tissue
    // dense enough for pages to fall wholly inside a query: 5 µm boxes
    // are all mask scans, 30 µm boxes take many pages untested. The
    // frozen STR tree answers the same boxes beside it.
    let circuit = dense_circuit(1000, 1);
    let n = circuit.segments().len();
    let flat = FlatIndex::build(
        circuit.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(64),
    );
    let mut packed =
        RTree::bulk_load(circuit.segments().to_vec(), RTreeParams::with_max_entries(64));
    packed.freeze();
    for half in [5.0, 30.0] {
        let w = standard_workload(&circuit, 64, half);
        group.bench_with_input(BenchmarkId::new(format!("flat_stream_{half}um"), n), &w, |b, w| {
            let mut scratch = FlatScratch::new();
            b.iter(|| {
                let mut total = 0u64;
                for q in &w.queries {
                    let stats =
                        flat.range_query_stream(black_box(q), &mut scratch, |_| {}, |_| Flow::Emit);
                    total += stats.results;
                }
                total
            })
        });
        bench_tree(&mut group, BenchmarkId::new(format!("str-packed_{half}um"), n), &w, |q, s| {
            packed.range_query_stream(q, s, |_| Flow::Emit)
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_index_build");
    group.sample_size(10);
    let circuit = dense_circuit(25, 1);
    let segments = circuit.segments().to_vec();
    let flat = FlatBuildParams::default().with_page_capacity(64);
    group.bench_function("flat_build", |b| {
        b.iter(|| FlatIndex::build(black_box(segments.clone()), flat).len())
    });
    group.bench_function("str-packed_build", |b| {
        b.iter(|| {
            let mut tree =
                RTree::bulk_load(black_box(segments.clone()), RTreeParams::with_max_entries(64));
            tree.freeze();
            tree.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_range_queries, bench_build);
criterion_main!(benches);
