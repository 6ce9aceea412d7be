//! The out-of-core equivalence property suite: FLAT spilled to a real
//! page file and queried through the bounded frame pool must be
//! **byte-identical** — same result segments, in the same order, with
//! the same logical seed-and-crawl statistics — to the in-memory FLAT
//! index, across random segment soups, random page capacities and every
//! interesting frame budget (including a single frame, where every page
//! read evicts the previous page).
//!
//! This is the contract that makes spilling safe: out-of-core mode is
//! not a different query engine, just a different residency discipline.
//! Only the physical `cache_*` counters may differ from in-memory runs.

use neurospatial::prelude::*;
use neurospatial::scout::ooc::write_flat_index;
use neurospatial::scout::{OocConfig, OocFlatIndex, OocScratch};
use neurospatial::storage::FramePool;
use proptest::prelude::*;
use std::path::PathBuf;

/// Process-unique scratch path, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        ScratchFile(
            std::env::temp_dir()
                .join(format!("neurospatial-ooc-eq-{tag}-{}-{n}.flatpages", std::process::id())),
        )
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    prop::collection::vec(
        ((-60.0..60.0, -60.0..60.0, -60.0..60.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..2.0f64),
        0..180,
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

/// The frame budgets worth exercising for a file of `pages` pages:
/// one frame (max eviction pressure), two, half, and everything.
fn budgets(pages: usize) -> Vec<usize> {
    let mut b = vec![1, 2, (pages / 2).max(1), 0];
    b.dedup();
    b
}

/// Check one (segments, queries, capacity, prefetch workers) case under
/// every budget: the paged index must match the in-memory one
/// result-for-result and logical-counter-for-logical-counter, reusing one
/// scratch across the whole query list both times. With workers, a
/// cold crawl hands every page a link admits to the frontier prefetch
/// while it goes on, so their reads race the crawl's own. Each budget
/// opens a fresh pool, so the first query that reads a page is cold:
/// that it handed its pages off is checked too.
fn assert_paged_matches_memory(
    segments: &[NeuronSegment],
    queries: &[Aabb],
    page_capacity: usize,
    workers: usize,
) -> Result<(), TestCaseError> {
    let params = FlatBuildParams::default().with_page_capacity(page_capacity);
    let mem: FlatIndex<NeuronSegment> = FlatIndex::build(segments.to_vec(), params);
    let file = ScratchFile::new("prop");
    write_flat_index(&mem, &file.0).expect("write page file");
    for budget in budgets(mem.page_count()) {
        let config = OocConfig::default().with_frame_budget(budget).with_prefetch_workers(workers);
        let paged = OocFlatIndex::open(&file.0, config).expect("open page file");
        let mut mem_scratch = FlatScratch::default();
        let mut ooc_scratch = OocScratch::new();
        let mut want: Vec<NeuronSegment> = Vec::new();
        let mut got: Vec<NeuronSegment> = Vec::new();
        let mut fresh = true;
        for q in queries {
            want.clear();
            let want_stats = mem.range_query_stream(
                q,
                &mut mem_scratch,
                |_| {},
                |s| {
                    want.push(*s);
                    Flow::Emit
                },
            );
            let got_stats = paged
                .range_query_into(q, &mut ooc_scratch, &mut got)
                .expect("validated file cannot fail");
            let case = format!("budget {budget}, {workers} workers at {q}");
            prop_assert_eq!(&got_stats.flat, &want_stats, "{}: logical stats diverge", case);
            if fresh && got_stats.flat.pages_read > 0 {
                fresh = false;
                // Cold at its first read: every page read but that one
                // (the seed, when the seed is read) is admitted by a link
                // and handed to the workers, those a walk admitted before
                // the first read at that read.
                if workers > 0 {
                    let handed = got_stats.flat.pages_read - 1;
                    prop_assert_eq!(got_stats.io.prefetch_enqueued, handed, "{}: cold crawl", case);
                }
            }
            prop_assert_eq!(got.len(), want.len(), "{}", case);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id, "{}: order diverges", case);
            }
        }
    }
    Ok(())
}

// Re-exported by the flat crate; imported here for the scratch-path
// reference runs.
use neurospatial::flat::FlatScratch;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random soups, random page capacity, random queries: paged FLAT is
    /// byte-identical to in-memory FLAT under every frame budget, with
    /// and without prefetch workers.
    #[test]
    fn paged_flat_is_byte_identical_to_memory(
        segments in segment_soup(),
        queries in prop::collection::vec(query_box(), 1..7),
        capacity in 1usize..48,
        prefetch in any::<bool>(),
    ) {
        assert_paged_matches_memory(&segments, &queries, capacity, if prefetch { 2 } else { 0 })?;
    }

    /// The facade lane: a paged database and an in-memory database give
    /// identical answers to interleaved range and knn queries, with
    /// identical logical statistics.
    #[test]
    fn paged_database_facade_is_equivalent(
        seed in 0u64..200,
        neurons in 2u32..8,
        radius in 3.0..45.0f64,
    ) {
        let c = CircuitBuilder::new(seed).neurons(neurons).build();
        let mem = NeuroDb::from_circuit(&c);
        let ooc = NeuroDb::builder()
            .circuit(&c)
            .paged(true)
            .frame_budget(1)
            .build()
            .expect("paged build");
        let q = Aabb::cube(c.bounds().center(), radius);
        let (want, got) = (mem.query().range(q).collect().expect("range"), ooc.query().range(q).collect().expect("range"));
        prop_assert_eq!(want.sorted_ids(), got.sorted_ids());
        prop_assert_eq!(want.stats.results, got.stats.results);
        prop_assert_eq!(want.stats.nodes_read, got.stats.nodes_read);
        prop_assert_eq!(want.stats.objects_tested, got.stats.objects_tested);
        prop_assert_eq!(want.stats.reseeds, got.stats.reseeds);
        // KNN rides the shared trait default over the paged range path,
        // so neighbours and distances are identical too.
        let p = c.bounds().center();
        let (wn, _) = mem.query().knn(p, 7).collect().expect("knn");
        let (gn, _) = ooc.query().knn(p, 7).collect().expect("knn");
        prop_assert_eq!(wn.len(), gn.len());
        for (w, g) in wn.iter().zip(&gn) {
            prop_assert_eq!(w.segment.id, g.segment.id);
            prop_assert_eq!(w.distance, g.distance);
        }
    }
}

/// Interleaving range queries, knn probes and a prefetching walkthrough
/// on ONE paged database must not corrupt any of them: the walkthrough's
/// background prefetches race the demand reads through the same pool.
#[test]
fn interleaved_range_knn_walkthrough_stays_exact() {
    let c = CircuitBuilder::new(21).neurons(10).build();
    let mem = NeuroDb::from_circuit(&c);
    let ooc = NeuroDb::builder()
        .circuit(&c)
        .paged(true)
        .frame_budget(4)
        .prefetch_workers(2)
        .build()
        .expect("paged build");
    let path = NavigationPath::along_random_branch(&c, 3, 18.0, 7.0).expect("path");
    let mem_walk = mem
        .query()
        .along_path(&path)
        .method(WalkthroughMethod::Scout)
        .run()
        .expect("mem walkthrough");
    let ooc_walk = ooc
        .query()
        .along_path(&path)
        .method(WalkthroughMethod::Scout)
        .run()
        .expect("ooc walkthrough");
    assert_eq!(mem_walk.steps.len(), ooc_walk.steps.len());
    for (i, (m, o)) in mem_walk.steps.iter().zip(&ooc_walk.steps).enumerate() {
        // Same query boxes, same index layout: each step returns the
        // same results and demands the same pages, whatever the pager.
        assert_eq!(m.results, o.results, "step {i}");
        assert_eq!(m.pages_demanded, o.pages_demanded, "step {i}");
    }
    // And range/knn answers after the walkthrough are still exact.
    for (i, q) in path.queries.iter().enumerate() {
        assert_eq!(
            mem.query().range(*q).collect().expect("range").sorted_ids(),
            ooc.query().range(*q).collect().expect("range").sorted_ids(),
            "query {i} after walkthrough"
        );
    }
    let (wn, _) = mem.query().knn(c.bounds().center(), 9).collect().expect("knn");
    let (gn, _) = ooc.query().knn(c.bounds().center(), 9).collect().expect("knn");
    assert_eq!(
        wn.iter().map(|n| n.segment.id).collect::<Vec<_>>(),
        gn.iter().map(|n| n.segment.id).collect::<Vec<_>>()
    );
}

/// Pin guards are the safety contract of the one-frame pool: while a
/// guard is alive its frame cannot be evicted, a second distinct page
/// request must report budget exhaustion rather than invalidate the
/// guard, and dropping the guard restores progress.
#[test]
fn pin_guards_protect_frames_under_a_one_frame_budget() {
    use neurospatial::storage::{EvictionPolicy, StorageError};
    let c = CircuitBuilder::new(9).neurons(4).build();
    let index =
        FlatIndex::build(c.segments().to_vec(), FlatBuildParams::default().with_page_capacity(16));
    assert!(index.page_count() >= 2);
    let file = ScratchFile::new("pins");
    write_flat_index(&index, &file.0).expect("write");
    let paged =
        OocFlatIndex::open(&file.0, OocConfig::default().with_frame_budget(1)).expect("open");
    let pool = FramePool::new(1, EvictionPolicy::Clock);
    let disk = neurospatial::storage::PageFile::open(&file.0).expect("page file");
    let guard = pool.get(0, &disk).expect("load page 0");
    let before: Vec<u8> = guard.to_vec();
    // The only frame is pinned: a different page cannot be admitted.
    let err = pool.get(1, &disk).expect_err("no frame available");
    assert_eq!(err, StorageError::FrameBudgetExhausted { frames: 1 });
    // Re-requesting the pinned page is fine (shared pins).
    let again = pool.get(0, &disk).expect("pinned page re-request");
    assert_eq!(&*again, &before[..], "pinned frame bytes are stable");
    drop(again);
    drop(guard);
    // Unpinned: page 1 can now evict page 0.
    let other = pool.get(1, &disk).expect("evict and load");
    assert_eq!(other.len(), before.len());
    drop(other);
    // The paged engine holds pins only while scanning one page, so a
    // one-frame engine still answers every query.
    let q = index.bounds();
    let mut scratch = OocScratch::new();
    let mut out = Vec::new();
    let stats = paged.range_query_into(&q, &mut scratch, &mut out).expect("one-frame query");
    assert_eq!(out.len(), index.len());
    assert_eq!(stats.flat.results as usize, index.len());
    assert!(stats.io.evictions > 0, "a one-frame crawl must evict");
}
