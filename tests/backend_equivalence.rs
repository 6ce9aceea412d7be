//! The shared backend-equivalence property suite: every [`SpatialIndex`]
//! backend must return exactly the segments a brute-force scan returns,
//! on random circuits, random raw segment soups, empty datasets and
//! degenerate (point / flat / empty) query boxes alike.
//!
//! This is the contract that makes the backends race of the demo fair:
//! the designs may differ in cost, never in answers.

use neurospatial::prelude::*;
use proptest::prelude::*;

/// Brute-force reference: ids of all segments intersecting `q`.
fn scan_ids(segments: &[NeuronSegment], q: &Aabb) -> Vec<u64> {
    let mut ids: Vec<u64> =
        segments.iter().filter(|s| s.aabb().intersects(q)).map(|s| s.id).collect();
    ids.sort_unstable();
    ids
}

/// Assert all four backends agree with the scan on every query. The one
/// shared checker every property below funnels into.
fn assert_backends_match_scan(
    segments: &[NeuronSegment],
    queries: &[Aabb],
    page_capacity: usize,
) -> Result<(), TestCaseError> {
    let params = IndexParams::with_page_capacity(page_capacity);
    for backend in IndexBackend::ALL {
        let index = backend.build(segments.to_vec(), &params);
        prop_assert_eq!(index.len(), segments.len(), "{} len", backend);
        for q in queries {
            let out = index.range_query(q);
            let want = scan_ids(segments, q);
            prop_assert_eq!(
                out.sorted_ids(),
                want.clone(),
                "{} disagrees with scan at {} (cap {})",
                backend,
                q,
                page_capacity
            );
            prop_assert_eq!(out.stats.results as usize, want.len(), "{} stats", backend);
        }
    }
    Ok(())
}

/// A raw segment soup: uniformly scattered capsules, ids dense from 0.
fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    prop::collection::vec(
        ((-60.0..60.0, -60.0..60.0, -60.0..60.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..2.0f64),
        0..250,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (dx, dy, dz), r))| {
                let p0 = Vec3::new(x, y, z);
                NeuronSegment {
                    id: i as u64,
                    neuron: (i % 7) as u32,
                    section: (i % 3) as u32,
                    index_on_section: i as u32,
                    geom: Segment::new(p0, p0 + Vec3::new(dx, dy, dz), r),
                }
            })
            .collect()
    })
}

fn query_box() -> impl Strategy<Value = Aabb> {
    ((-80.0..80.0, -80.0..80.0, -80.0..80.0), 0.5..50.0f64)
        .prop_map(|((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r))
}

/// Capsules on the lattice `(k·0.1 + j·1e-9)·scale` — the data of the
/// FLAT page kernel's own proptest (`crates/flat/tests/proptests.rs`):
/// coordinates `f32` cannot represent, faces that coincide exactly,
/// zero-extent boxes, negative values, scales from 1e-3 to beyond
/// `f32::MAX`.
fn lattice_segments() -> impl Strategy<Value = Vec<NeuronSegment>> {
    let coord = || (-40i32..40, 0u32..3);
    let one = ((coord(), coord(), coord()), (0u32..4, 0u32..4, 0u32..4), 0u32..3);
    (prop::collection::vec(one, 1..400), 0usize..5).prop_map(|(cells, scale)| {
        let scale = [1e-3, 1.0, 1e3, 1e7, 1e38][scale];
        let at = |(k, j): (i32, u32)| (f64::from(k) * 0.1 + f64::from(j) * 1e-9) * scale;
        cells
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (ex, ey, ez), r))| {
                let p0 = Vec3::new(at(x), at(y), at(z));
                let step = 0.1 * scale;
                let ext = Vec3::new(f64::from(ex), f64::from(ey), f64::from(ez)) * step;
                NeuronSegment {
                    id: i as u64,
                    neuron: (i % 7) as u32,
                    section: 0,
                    index_on_section: i as u32,
                    geom: Segment::new(p0, p0 + ext, f64::from(r) * step),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel's rounding cases through the facade, on the backends
    /// that run it: FLAT, and sharded FLAT at 2 and 3 shards. Queries
    /// touch object faces exactly, sit one `f64` ulp and one `f32` step
    /// either side of them, or have infinite faces.
    #[test]
    fn flat_and_sharded_flat_agree_with_scan_on_rounding_cases(
        segments in lattice_segments(),
        cap in 0usize..6,
        picks in prop::collection::vec(0usize..10_000, 2..9),
    ) {
        let cap = [1, 63, 64, 65, 128, 200][cap];
        let inf = Vec3::splat(f64::INFINITY);
        let nudged = |b: &Aabb, f: fn(f64) -> f64, g: fn(f64) -> f64| Aabb {
            lo: Vec3::new(f(b.lo.x), f(b.lo.y), f(b.lo.z)),
            hi: Vec3::new(g(b.hi.x), g(b.hi.y), g(b.hi.z)),
        };
        let f32_up = |x: f64| f64::from((x as f32).next_up());
        let f32_down = |x: f64| f64::from((x as f32).next_down());
        let mut queries = vec![Aabb { lo: -inf, hi: inf }, Aabb { lo: Vec3::ZERO, hi: inf }];
        for pair in picks.chunks(2) {
            let a = segments[pair[0] % segments.len()].aabb();
            let b = segments[pair[pair.len() - 1] % segments.len()].aabb();
            let u = a.union(&b);
            queries.extend([
                Aabb::new(a.hi, b.lo),
                Aabb { lo: a.lo, hi: inf },
                u,
                nudged(&u, f64::next_up, f64::next_down),
                nudged(&u, f64::next_down, f64::next_up),
                nudged(&u, f32_up, f32_down),
                nudged(&u, f32_down, f32_up),
            ]);
        }
        let params = IndexParams::with_page_capacity(cap).threaded(2);
        let flat = IndexBackend::Flat;
        let indexes = [
            ("flat", flat.build(segments.clone(), &params)),
            ("sharded:flat/2", flat.build_sharded(segments.clone(), &params.sharded(2))),
            ("sharded:flat/3", flat.build_sharded(segments.clone(), &params.sharded(3))),
        ];
        for q in &queries {
            let want = scan_ids(&segments, q);
            for (name, index) in &indexes {
                let out = index.range_query(q);
                prop_assert_eq!(out.sorted_ids(), want.clone(), "{} at {} (cap {})", name, q, cap);
                prop_assert_eq!(out.stats.results as usize, want.len(), "{} stats", name);
            }
        }
    }

    #[test]
    fn backends_agree_on_random_soups(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..6),
        cap in 4usize..80,
    ) {
        assert_backends_match_scan(&segments, &queries, cap)?;
    }

    #[test]
    fn backends_agree_on_random_circuits(
        seed in 0u64..3000,
        neurons in 2u32..8,
        half in 2.0..45.0f64,
        cap in 4usize..96,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let queries = [
            Aabb::cube(c.bounds().center(), half),
            // Data-anchored query: guaranteed non-empty result.
            Aabb::cube(c.segments()[0].geom.center(), half),
        ];
        assert_backends_match_scan(c.segments(), &queries, cap)?;
    }

    #[test]
    fn backends_agree_on_degenerate_queries(
        segments in segment_soup(),
        (px, py, pz) in (-70.0..70.0, -70.0..70.0, -70.0..70.0),
    ) {
        let p = Vec3::new(px, py, pz);
        let queries = [
            Aabb::point(p),                                  // zero extent
            Aabb::new(p, p + Vec3::new(30.0, 0.0, 0.0)),     // 1-D sliver
            Aabb::new(p, p + Vec3::new(20.0, 20.0, 0.0)),    // 2-D slab
            Aabb::new(p, p - Vec3::splat(1.0)),              // inverted: empty
            Aabb::EMPTY,                                     // canonical empty
        ];
        assert_backends_match_scan(&segments, &queries, 16)?;
    }

    /// The ISSUE 2 acceptance property: for every backend, a sharded
    /// executor over random circuits returns byte-identical sorted result
    /// sets to the monolithic index, for any shard/thread configuration.
    #[test]
    fn sharded_matches_monolithic_on_random_circuits(
        seed in 0u64..3000,
        neurons in 2u32..8,
        half in 2.0..45.0f64,
        shards in 1usize..9,
        threads in 1usize..5,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let params = IndexParams::with_page_capacity(32).sharded(shards).threaded(threads);
        let queries = [
            Aabb::cube(c.bounds().center(), half),
            Aabb::cube(c.segments()[0].geom.center(), half),
            Aabb::EMPTY,
        ];
        for backend in IndexBackend::ALL {
            let mono = backend.build(c.segments().to_vec(), &params);
            let sharded = backend.build_sharded(c.segments().to_vec(), &params);
            prop_assert_eq!(sharded.len(), mono.len(), "{} len", backend);
            for q in &queries {
                let m = mono.range_query(q);
                let s = sharded.range_query(q);
                prop_assert_eq!(
                    s.sorted_ids(), m.sorted_ids(),
                    "{} sharded({}) disagrees with monolithic at {}", backend, shards, q
                );
                prop_assert_eq!(s.stats.results, m.stats.results, "{} result stats", backend);
            }
        }
    }

    #[test]
    fn sharded_matches_monolithic_on_random_soups(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..5),
        shards in 1usize..8,
    ) {
        let params = IndexParams::with_page_capacity(16).sharded(shards).threaded(3);
        for backend in IndexBackend::ALL {
            let mono = backend.build(segments.clone(), &params);
            let sharded = backend.build_sharded(segments.clone(), &params);
            // Batched execution obeys the same contract, in input order.
            let batch = sharded.range_query_many(&queries);
            prop_assert_eq!(batch.len(), queries.len());
            for (out, q) in batch.iter().zip(&queries) {
                prop_assert_eq!(
                    out.sorted_ids(), mono.range_query(q).sorted_ids(),
                    "{} sharded({}) batch at {}", backend, shards, q
                );
            }
        }
    }

    #[test]
    fn sharded_knn_matches_monolithic(
        segments in segment_soup(),
        (px, py, pz) in (-70.0..70.0, -70.0..70.0, -70.0..70.0),
        k in 0usize..40,
        shards in 1usize..8,
    ) {
        let p = Vec3::new(px, py, pz);
        let params = IndexParams::with_page_capacity(16).sharded(shards).threaded(2);
        for backend in IndexBackend::ALL {
            let mono = backend.build(segments.clone(), &params);
            let sharded = backend.build_sharded(segments.clone(), &params);
            let (m, _) = mono.knn(p, k);
            let (s, stats) = sharded.knn(p, k);
            prop_assert_eq!(s.len(), k.min(segments.len()), "{} knn size", backend);
            prop_assert_eq!(stats.results as usize, s.len(), "{} knn stats", backend);
            let mids: Vec<u64> = m.iter().map(|n| n.segment.id).collect();
            let sids: Vec<u64> = s.iter().map(|n| n.segment.id).collect();
            prop_assert_eq!(sids, mids, "{} sharded({}) knn order", backend, shards);
        }
    }

    #[test]
    fn backends_agree_on_coincident_segments(
        n in 1usize..120,
        cap in 4usize..32,
    ) {
        // Everything at the same point: worst case for KD cuts (R+) and
        // page packing (FLAT). Replication/dedup must not change answers.
        let segments: Vec<NeuronSegment> = (0..n)
            .map(|i| NeuronSegment {
                id: i as u64,
                neuron: i as u32,
                section: 0,
                index_on_section: 0,
                geom: Segment::new(Vec3::splat(5.0), Vec3::splat(5.0), 0.5),
            })
            .collect();
        let queries = [Aabb::cube(Vec3::splat(5.0), 1.0), Aabb::cube(Vec3::splat(50.0), 1.0)];
        assert_backends_match_scan(&segments, &queries, cap)?;
    }
}

#[test]
fn backends_handle_the_empty_dataset() {
    let queries = [Aabb::cube(Vec3::ZERO, 10.0), Aabb::point(Vec3::splat(3.0)), Aabb::EMPTY];
    let params = IndexParams::default();
    for backend in IndexBackend::ALL {
        let index = backend.build(Vec::new(), &params);
        assert!(index.is_empty(), "{backend}");
        for q in &queries {
            let out = index.range_query(q);
            assert!(out.is_empty(), "{backend} on {q}");
            assert_eq!(out.stats.results, 0, "{backend} stats on {q}");
        }
    }
}

#[test]
fn builder_selected_backends_pass_equivalence_too() {
    // The same contract holds end-to-end through NeuroDbBuilder::backend.
    let c = CircuitBuilder::new(44).neurons(5).build();
    let q = Aabb::cube(c.bounds().center(), 30.0);
    let want = scan_ids(c.segments(), &q);
    for backend in IndexBackend::ALL {
        let db = NeuroDb::builder().circuit(&c).backend(backend).build().expect("valid");
        assert_eq!(
            db.query().range(q).collect().expect("range").sorted_ids(),
            want,
            "{backend} via builder"
        );
    }
}
