//! E1 wall-clock companion (demo Figures 2+3): range-query latency of
//! FLAT vs the STR-packed, dynamic and R+ trees across densities —
//! raced through the pluggable [`SpatialIndex`] trait, with a direct
//! (non-virtual) FLAT lane to expose any abstraction overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial_bench::{dense_circuit, standard_workload};
use std::hint::black_box;

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

        // Every backend through the one trait, using the buffer-reuse
        // form (`range_query_into_scratch`) — the hot-loop API.
        for backend in IndexBackend::ALL {
            let index = backend.build(segments.clone(), &params);
            group.bench_with_input(BenchmarkId::new(backend.name(), n), &w, |b, w| {
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
        }
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
    let packed = IndexBackend::StrPacked.build(circuit.segments().to_vec(), &params);
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
        group.bench_with_input(BenchmarkId::new(format!("str-packed_{half}um"), n), &w, |b, w| {
            let mut scratch = QueryScratch::new();
            b.iter(|| {
                let mut total = 0u64;
                for q in &w.queries {
                    total += packed
                        .try_for_each_in_range(black_box(q), &mut scratch, false, &mut |_| {
                            Flow::Emit
                        })
                        .expect("in-memory traversals do not fail")
                        .results;
                }
                total
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_index_build");
    group.sample_size(10);
    let circuit = dense_circuit(25, 1);
    let segments = circuit.segments().to_vec();
    let params = IndexParams::with_page_capacity(64);

    for backend in [IndexBackend::Flat, IndexBackend::StrPacked] {
        group.bench_function(format!("{}_build", backend.name()), |b| {
            b.iter(|| backend.build(black_box(segments.clone()), &params).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_range_queries, bench_build);
criterion_main!(benches);
