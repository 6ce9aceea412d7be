//! The unified-query-API property suite: what the fluent [`Query`]
//! builder composes on top of the index surface (which
//! `tests/hotpath_equivalence.rs` checks against a scan, method by
//! method) must be exact on every backend, monolithic and sharded.
//!
//! * `collect()` returns the scan's set, whatever the pre-builder
//!   (legacy) API returned;
//! * `stream()` visits exactly the `collect()` set, in the same order,
//!   with the same statistics, with and without pushed-down predicates
//!   and limits;
//! * a pushed-down limit emits exactly a prefix of the full emission
//!   order while reading no more index pages;
//! * `session()` answers every query exactly like the one-shot
//!   terminals, across repeated reuse of its bound scratch.

use neurospatial::prelude::*;
use proptest::prelude::*;

/// Every database configuration under test: the four backends, each
/// monolithic and behind the sharded executor, all with named
/// populations so `in_population` is exercised everywhere.
fn all_dbs(
    segments: &[NeuronSegment],
    cap: usize,
    shards: usize,
    threads: usize,
) -> Vec<(String, NeuroDb)> {
    let mut out = Vec::new();
    for b in IndexBackend::ALL {
        let build = |sh: usize, th: usize| {
            NeuroDb::builder()
                .segments(segments.to_vec())
                .backend(b)
                .page_capacity(cap.max(4))
                .shards(sh)
                .threads(th)
                .split_populations("even", "odd", |s| s.neuron % 2 == 0)
                .build()
                .expect("valid configuration")
        };
        out.push((b.name().to_string(), build(1, 1)));
        if shards > 1 {
            out.push((b.sharded_name(), build(shards, threads)));
        }
    }
    out
}

fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    prop::collection::vec(
        ((-60.0..60.0, -60.0..60.0, -60.0..60.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..2.0f64),
        0..200,
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

fn ids(segments: &[NeuronSegment]) -> Vec<u64> {
    segments.iter().map(|s| s.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `collect()` returns the scan's set — the legacy contract — and
    /// `stream()` delivers the exact collect sequence with the exact
    /// collect statistics, on every backend, monolithic and sharded.
    #[test]
    fn collect_and_stream_match_legacy(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..5),
        cap in 8usize..64,
        shards in 2usize..6,
        threads in 1usize..4,
    ) {
        for (name, db) in all_dbs(&segments, cap, shards, threads) {
            for q in &queries {
                let scan: Vec<u64> =
                    segments.iter().filter(|s| s.aabb().intersects(q)).map(|s| s.id).collect();
                let collected = db.query().range(*q).collect().expect("no population");
                prop_assert_eq!(collected.sorted_ids(), scan, "{} at {}", &name, q);
                prop_assert_eq!(collected.stats.results as usize, collected.len(), "{}", &name);

                let mut streamed: Vec<u64> = Vec::new();
                let stats = db.query().range(*q).stream(|s| streamed.push(s.id)).expect("ok");
                prop_assert_eq!(stats, collected.stats, "{} stream stats at {}", &name, q);
                prop_assert_eq!(streamed, ids(&collected.segments), "{} stream set", &name);
            }
        }
    }

    /// A pushed-down predicate filters below the traversal: the emitted
    /// sequence is the order-preserving filter of the full emission, the
    /// traversal counters are unchanged (no early exit), and stream ==
    /// collect exactly. Population membership behaves as a predicate.
    #[test]
    fn predicates_push_down_exactly(
        segments in segment_soup(),
        q in query_box(),
        modulus in 2u32..5,
        cap in 8usize..48,
        shards in 2usize..5,
    ) {
        let pred = move |s: &NeuronSegment| s.neuron.is_multiple_of(modulus);
        for (name, db) in all_dbs(&segments, cap, shards, 2) {
            let full = db.query().range(q).collect().expect("ok");
            let want: Vec<u64> =
                full.segments.iter().filter(|s| pred(s)).map(|s| s.id).collect();

            let filtered = db.query().range(q).filter(&pred).collect().expect("ok");
            prop_assert_eq!(ids(&filtered.segments), want.clone(), "{} filter", &name);
            prop_assert_eq!(filtered.stats.results as usize, want.len(), "{}", &name);
            prop_assert_eq!(filtered.stats.nodes_read, full.stats.nodes_read, "{}", &name);
            prop_assert_eq!(
                filtered.stats.objects_tested, full.stats.objects_tested,
                "{} predicate must not change traversal work", &name
            );

            let mut streamed: Vec<u64> = Vec::new();
            let stats =
                db.query().range(q).filter(&pred).stream(|s| streamed.push(s.id)).expect("ok");
            prop_assert_eq!(stats, filtered.stats, "{} stream==collect stats", &name);
            prop_assert_eq!(streamed, want, "{} stream==collect set", &name);

            // in_population == membership predicate.
            let evens = db.query().range(q).in_population("even").collect().expect("known");
            let want_even: Vec<u64> =
                full.segments.iter().filter(|s| s.neuron % 2 == 0).map(|s| s.id).collect();
            prop_assert_eq!(ids(&evens.segments), want_even, "{} population", &name);
        }
    }

    /// A pushed-down limit emits exactly a prefix of the full emission
    /// order, reads no more index pages than the full traversal, and
    /// stream == collect under the limit too.
    #[test]
    fn limits_stop_early_on_a_prefix(
        segments in segment_soup(),
        q in query_box(),
        limit in 0usize..40,
        cap in 8usize..48,
        shards in 2usize..5,
        threads in 1usize..4,
    ) {
        for (name, db) in all_dbs(&segments, cap, shards, threads) {
            let full = db.query().range(q).collect().expect("ok");
            let capped = db.query().range(q).limit(limit).collect().expect("ok");
            prop_assert_eq!(capped.segments.len(), limit.min(full.segments.len()), "{}", &name);
            prop_assert_eq!(
                ids(&capped.segments),
                ids(&full.segments[..capped.segments.len()]),
                "{} limit prefix", &name
            );
            prop_assert_eq!(capped.stats.results as usize, capped.segments.len(), "{}", &name);
            prop_assert!(
                capped.stats.nodes_read <= full.stats.nodes_read,
                "{} limit must not read more ({} > {})",
                &name, capped.stats.nodes_read, full.stats.nodes_read
            );

            let mut streamed: Vec<u64> = Vec::new();
            let stats =
                db.query().range(q).limit(limit).stream(|s| streamed.push(s.id)).expect("ok");
            prop_assert_eq!(stats, capped.stats, "{} stream==collect stats", &name);
            prop_assert_eq!(streamed, ids(&capped.segments), "{} stream==collect", &name);
        }
    }

    /// Builder KNN is the brute-force k nearest in canonical (distance,
    /// id) order — what the legacy KNN returned — and the filtered form
    /// the brute-force k nearest among matching segments.
    #[test]
    fn knn_matches_legacy_and_filters_exactly(
        segments in segment_soup(),
        (px, py, pz) in (-70.0..70.0, -70.0..70.0, -70.0..70.0),
        k in 0usize..20,
        cap in 8usize..48,
        shards in 2usize..5,
    ) {
        let p = Vec3::new(px, py, pz);
        let nearest = |keep: &dyn Fn(&NeuronSegment) -> bool| {
            let mut want: Vec<(f64, u64)> = segments
                .iter()
                .filter(|s| keep(s))
                .map(|s| (s.aabb().min_distance_to_point(p), s.id))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            want.truncate(k);
            want
        };
        for (name, db) in all_dbs(&segments, cap, shards, 2) {
            let (all, stats) = db.query().knn(p, k).collect().expect("ok");
            let (odds, _) = db.query().knn(p, k).in_population("odd").collect().expect("known");
            prop_assert_eq!(stats.results as usize, all.len(), "{} knn stats", &name);
            for (got, want) in [(all, nearest(&|_| true)), (odds, nearest(&|s| s.neuron % 2 == 1))] {
                prop_assert_eq!(got.len(), want.len(), "{} knn count", &name);
                for (n, (d, id)) in got.iter().zip(&want) {
                    prop_assert_eq!(n.segment.id, *id, "{} knn order", &name);
                    prop_assert!(n.distance.to_bits() == d.to_bits(), "{} knn distance", &name);
                }
            }
        }
    }

    /// One bound session answers every query — range and KNN, filtered
    /// and not — exactly like the one-shot terminals, across repeated
    /// reuse of its scratch (two passes).
    #[test]
    fn sessions_match_one_shot_terminals(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..4),
        cap in 8usize..48,
        shards in 2usize..5,
        threads in 1usize..3,
    ) {
        let pred = |s: &NeuronSegment| s.section.is_multiple_of(2);
        for (name, db) in all_dbs(&segments, cap, shards, threads) {
            let mut session =
                db.query().range(Aabb::EMPTY).filter(&pred).session().expect("ok");
            for pass in 0..2 {
                for q in &queries {
                    let want = db.query().range(*q).filter(&pred).collect().expect("ok");
                    let (hits, stats) = session.range(q);
                    prop_assert_eq!(stats, want.stats, "{} pass {} at {}", &name, pass, q);
                    prop_assert_eq!(ids(hits), ids(&want.segments), "{} session", &name);
                }
                let (got, _) = session.knn(queries[0].center(), 5);
                let (want, _) =
                    db.query().knn(queries[0].center(), 5).filter(&pred).collect().expect("ok");
                prop_assert_eq!(
                    got.iter().map(|n| n.segment.id).collect::<Vec<_>>(),
                    want.iter().map(|n| n.segment.id).collect::<Vec<_>>(),
                    "{} session knn pass {}", &name, pass
                );
            }
        }
    }

    /// The touching builder returns the nested loop's pair relation over
    /// the two population slices (what the legacy join methods did), with
    /// the left side defaulting to the first declared population.
    #[test]
    fn touching_matches_legacy_joins(
        segments in segment_soup(),
        eps in 0.0..3.0f64,
        cap in 8usize..48,
    ) {
        for (name, db) in all_dbs(&segments, cap, 1, 1) {
            let (even, odd) = (db.population("even").expect("known"), db.population("odd").expect("known"));
            let want = NestedLoopJoin.join(even, odd, eps).sorted_pairs();
            let built =
                db.query().touching("odd", eps).in_population("even").collect().expect("ok");
            prop_assert_eq!(built.sorted_pairs(), want.clone(), "{}", &name);
            prop_assert_eq!(built.pairs.len(), want.len(), "{}", &name);
            let defaulted = db.query().touching("odd", eps).collect().expect("ok");
            prop_assert_eq!(defaulted.sorted_pairs(), want, "{}", &name);
        }
    }
}

/// Unknown names error at every terminal; empty databases answer every
/// builder form without panicking.
#[test]
fn terminals_report_errors_and_handle_empty_databases() {
    let db = NeuroDb::builder().segments(vec![]).build().expect("empty is valid");
    let q = Aabb::cube(Vec3::ZERO, 10.0);
    assert!(db.query().range(q).collect().expect("ok").is_empty());
    assert_eq!(db.query().range(q).stream(|_| {}).expect("ok"), QueryStats::default());
    let (neighbors, _) = db.query().knn(Vec3::ZERO, 3).collect().expect("ok");
    assert!(neighbors.is_empty());
    let mut session = db.query().session();
    assert!(session.range(&q).0.is_empty());

    for result in [
        db.query().range(q).in_population("nope").collect().err(),
        db.query().range(q).in_population("nope").stream(|_| {}).err(),
    ] {
        assert!(matches!(result, Some(NeuroError::UnknownPopulation { .. })));
    }
    assert!(matches!(
        db.query().knn(Vec3::ZERO, 2).in_population("nope").collect(),
        Err(NeuroError::UnknownPopulation { .. })
    ));
    assert!(matches!(
        db.query().touching("nope", 1.0).collect(),
        Err(NeuroError::UnknownPopulation { .. })
    ));
}
