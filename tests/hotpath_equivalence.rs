//! The table-driven check of the [`SpatialIndex`] surface: every provided
//! method of every configuration against a brute-force scan.
//!
//! A backend implements one traversal (`try_for_each_in_range`);
//! collecting, batching and KNN are written once on top of it. So one
//! table — every backend × {monolithic, sharded at 1 and at 2 threads} ×
//! {memory, paged} — and one checker cover the whole query surface, and
//! the properties that still have two sides are checked on every row:
//!
//! * one [`QueryScratch`] reused across interleaved backends and queries
//!   answers exactly like a fresh scratch each time (the epoch-stamped
//!   marks must never leak state from one query, or one index, into the
//!   next);
//! * a sharded index equals the monolithic one as a sorted id set (both
//!   equal the scan), and built with 1 and with 2 threads it returns the
//!   same segments in the same order with the same statistics, under a
//!   limit too: threads serve the build and batches, never a single
//!   query;
//! * `range_query_many` equals the single queries, in input order.
//!
//! The database-level composition (population, filter, limit, delta) on
//! top of this surface is `tests/query_api_equivalence.rs`.

use neurospatial::prelude::*;
use proptest::prelude::*;

const SHARDS: usize = 3;

/// One row of the table.
struct Row {
    name: String,
    index: Box<dyn SpatialIndex>,
    /// A paged row's `cache_*` counters depend on what the pool holds,
    /// so they are not comparable between two runs of one query.
    paged: bool,
    /// The thread count of a sharded row (rows `threads == 1` and
    /// `threads == 2` of one backend are adjacent and must agree).
    threads: Option<usize>,
}

fn table(segments: &[NeuronSegment], cap: usize) -> Vec<Row> {
    let params =
        |threads: usize| IndexParams::with_page_capacity(cap).sharded(SHARDS).threaded(threads);
    let mut rows = Vec::new();
    for b in IndexBackend::ALL {
        rows.push(Row {
            name: b.name().to_string(),
            index: b.build(segments.to_vec(), &params(1)),
            paged: false,
            threads: None,
        });
        for threads in [1, 2] {
            rows.push(Row {
                name: format!("{}/{threads}", b.sharded_name()),
                index: b.build_sharded(segments.to_vec(), &params(threads)),
                paged: false,
                threads: Some(threads),
            });
        }
    }
    // Paged FLAT: a small frame budget on the monolithic row, so queries
    // evict; the sharded rows build one page file per shard.
    let paged = PagedFlatIndex::create_temp(
        segments.to_vec(),
        FlatBuildParams::default().with_page_capacity(cap),
        OocConfig::default().with_frame_budget(2),
    );
    rows.push(Row {
        name: "paged".to_string(),
        index: Box::new(paged.expect("temp dir is writable")),
        paged: true,
        threads: None,
    });
    for threads in [1, 2] {
        rows.push(Row {
            name: format!("sharded:paged/{threads}"),
            index: Box::new(ShardedIndex::<PagedFlatIndex>::build_with(
                segments.to_vec(),
                &params(threads),
            )),
            paged: true,
            threads: Some(threads),
        });
    }
    rows
}

/// Statistics with the run-dependent physical I/O counters cleared.
fn logical(stats: QueryStats) -> QueryStats {
    QueryStats { cache_hits: 0, cache_misses: 0, cache_evictions: 0, ..stats }
}

fn ids(segments: &[NeuronSegment]) -> Vec<u64> {
    segments.iter().map(|s| s.id).collect()
}

/// What one row answered, in the form two rows are compared in.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per query: emission order, statistics, and the same under a limit
    /// of half the result.
    ranges: Vec<(Vec<u64>, QueryStats, Vec<u64>, QueryStats)>,
    /// Per probe: neighbour ids and statistics.
    knns: Vec<(Vec<u64>, QueryStats)>,
}

fn check_table(
    segments: &[NeuronSegment],
    queries: &[Aabb],
    probes: &[(Vec3, usize)],
    cap: usize,
) -> Result<(), TestCaseError> {
    // The scan: sorted ids per query, and per probe the canonical
    // (distance, id) order.
    let scans: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let mut hit: Vec<u64> =
                segments.iter().filter(|s| s.aabb().intersects(q)).map(|s| s.id).collect();
            hit.sort_unstable();
            hit
        })
        .collect();
    let nearest = |p: Vec3, k: usize| {
        let mut all: Vec<(f64, u64)> =
            segments.iter().map(|s| (s.aabb().min_distance_to_point(p), s.id)).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        all.truncate(k);
        all
    };

    // One scratch and one pair of buffers across every row, query and
    // probe: each call runs on state the previous index left behind.
    let mut scratch = QueryScratch::new();
    let mut buf: Vec<NeuronSegment> = Vec::new();
    let mut neighbors: Vec<Neighbor> = Vec::new();
    let mut previous: Option<Observed> = None;
    for row in table(segments, cap) {
        let (name, index) = (&row.name, &row.index);
        prop_assert_eq!(index.len(), segments.len(), "{}", name);
        let mut seen = Observed { ranges: Vec::new(), knns: Vec::new() };

        for (q, scan) in queries.iter().zip(&scans) {
            let fresh = index.range_query(q);
            prop_assert_eq!(&fresh.sorted_ids(), scan, "{} differs from the scan at {}", name, q);
            prop_assert_eq!(fresh.stats.results as usize, scan.len(), "{} at {}", name, q);
            let io = fresh.stats.cache_hits + fresh.stats.cache_misses;
            prop_assert!(row.paged || io == 0, "{} is in memory, I/O at {}", name, q);
            prop_assert!(!row.paged || scan.is_empty() || io > 0, "{} no I/O at {}", name, q);

            buf.clear();
            let reused = index.range_query_into_scratch(q, &mut scratch, &mut buf);
            prop_assert_eq!(ids(&buf), ids(&fresh.segments), "{} reused scratch at {}", name, q);
            prop_assert_eq!(logical(reused), logical(fresh.stats), "{} at {}", name, q);

            // The primitive under a pushed-down limit: a prefix of the
            // full order, counted exactly, reading no more than the
            // whole query.
            let limit = scan.len() / 2;
            let mut prefix = Vec::new();
            let capped = if limit == 0 {
                QueryStats::default()
            } else {
                index
                    .try_for_each_in_range(q, &mut scratch, false, &mut |s| {
                        prefix.push(s.id);
                        if prefix.len() == limit {
                            Flow::Last
                        } else {
                            Flow::Emit
                        }
                    })
                    .expect("healthy indexes do not fail")
            };
            prop_assert_eq!(&prefix, &ids(&fresh.segments[..limit]), "{} limit at {}", name, q);
            prop_assert_eq!(capped.results as usize, limit, "{} at {}", name, q);
            prop_assert!(capped.nodes_read <= fresh.stats.nodes_read, "{} at {}", name, q);

            let plan = index.plan_range(q);
            prop_assert!(plan.shards_probed <= plan.shards_total, "{} at {}", name, q);
            if !scan.is_empty() {
                prop_assert!(
                    plan.shards_probed >= 1 && plan.estimated_reads >= 1,
                    "{} at {}",
                    name,
                    q
                );
            }
            if !index.bounds().intersects(q) {
                prop_assert_eq!((plan.shards_probed, plan.estimated_reads), (0, 0), "{}", name);
            }
            seen.ranges.push((ids(&fresh.segments), logical(fresh.stats), prefix, logical(capped)));
        }

        let batch = index.range_query_many(queries);
        prop_assert_eq!(batch.len(), queries.len(), "{}", name);
        for ((out, single), q) in batch.iter().zip(&seen.ranges).zip(queries) {
            prop_assert_eq!(&ids(&out.segments), &single.0, "{} batch order at {}", name, q);
            prop_assert_eq!(logical(out.stats), single.1, "{} batch stats at {}", name, q);
        }

        for &(p, k) in probes {
            let want = nearest(p, k);
            let (got, stats) = index.knn(p, k);
            prop_assert_eq!(got.len(), want.len(), "{} knn k={}", name, k);
            prop_assert_eq!(stats.results as usize, got.len(), "{} knn k={}", name, k);
            for (g, (distance, id)) in got.iter().zip(&want) {
                prop_assert_eq!(g.segment.id, *id, "{} knn order, k={}", name, k);
                prop_assert_eq!(g.distance.to_bits(), distance.to_bits(), "{} knn k={}", name, k);
            }
            neighbors.clear();
            let reused = index.knn_into_scratch(p, k, &mut scratch, &mut neighbors);
            prop_assert_eq!(&neighbors, &got, "{} knn on a reused scratch, k={}", name, k);
            prop_assert_eq!(logical(reused), logical(stats), "{} knn k={}", name, k);
            seen.knns.push((got.iter().map(|n| n.segment.id).collect(), logical(stats)));
        }

        if row.threads == Some(2) {
            prop_assert_eq!(Some(&seen), previous.as_ref(), "{}: 2 threads differ from 1", name);
        }
        previous = Some(seen);
    }
    Ok(())
}

fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    prop::collection::vec(
        ((-60.0..60.0, -60.0..60.0, -60.0..60.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..2.0f64),
        0..220,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (dx, dy, dz), r))| {
                let p0 = Vec3::new(x, y, z);
                NeuronSegment {
                    id: i as u64,
                    neuron: (i % 5) as u32,
                    section: (i % 4) as u32,
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

fn probe() -> impl Strategy<Value = (Vec3, usize)> {
    ((-70.0..70.0, -70.0..70.0, -70.0..70.0), 0usize..30)
        .prop_map(|((x, y, z), k)| (Vec3::new(x, y, z), k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The table on generated tissue: dense, branch-structured data with
    /// a query that is sure to hit and one that cannot.
    #[test]
    fn scratch_paths_match_on_random_circuits(
        seed in 0u64..3000,
        neurons in 2u32..8,
        half in 2.0..45.0f64,
        cap in 8usize..80,
        k in 1usize..20,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let queries = [
            Aabb::cube(c.bounds().center(), half),
            Aabb::cube(c.segments()[0].geom.center(), half), // non-empty result
            Aabb::EMPTY,
        ];
        let probes = [(c.segments()[0].geom.center(), k), (c.bounds().hi + Vec3::splat(50.0), k)];
        check_table(c.segments(), &queries, &probes, cap)?;
    }

    /// The table on unstructured soups, down to the empty dataset.
    #[test]
    fn scratch_paths_match_on_random_soups(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..6),
        probes in prop::collection::vec(probe(), 1..3),
    ) {
        check_table(&segments, &queries, &probes, 16)?;
    }

    /// KNN at the edges of its domain: `k` of zero, `k` past the dataset,
    /// probes far outside the data.
    #[test]
    fn scratch_knn_matches_allocating_knn(
        segments in segment_soup(),
        probes in prop::collection::vec(probe(), 2..6),
    ) {
        let n = segments.len();
        let mut probes = probes;
        probes.extend([(Vec3::ZERO, 0), (Vec3::splat(400.0), n + 3), (Vec3::splat(-1e4), 2)]);
        check_table(&segments, &[], &probes, 24)?;
    }

    /// Batches longer than the worker count, with repeats and misses, so
    /// the sharded executor's chunks are uneven.
    #[test]
    fn batched_queries_match_singles(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 3..9),
    ) {
        let mut queries = queries;
        queries.extend([queries[0], Aabb::EMPTY, queries[1]]);
        check_table(&segments, &queries, &[], 24)?;
    }
}

#[test]
fn scratch_paths_handle_empty_and_degenerate_inputs() {
    let queries = [Aabb::cube(Vec3::ZERO, 10.0), Aabb::EMPTY, Aabb::point(Vec3::splat(2.0))];
    let probes = [(Vec3::ZERO, 4), (Vec3::splat(2.0), 1)];
    check_table(&[], &queries, &probes, 64).expect("empty dataset");
    // One segment: two of three shards are empty, and the point query
    // sits on the segment's box.
    let one = NeuronSegment {
        id: 0,
        neuron: 0,
        section: 0,
        index_on_section: 0,
        geom: Segment::new(Vec3::splat(1.0), Vec3::splat(3.0), 0.5),
    };
    check_table(&[one], &queries, &probes, 4).expect("one segment");
}
