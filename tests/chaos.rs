//! The chaos contract: under **any** seeded [`FaultPlan`], every query
//! against a paged FLAT index terminates with one of exactly three
//! outcomes — byte-identical results, a typed error, or a correctly
//! labeled partial result. Never a panic, never a hang, never silent
//! corruption.
//!
//! Fault schedules are pure data (seed → injections), so every red run
//! here is replayable: each test writes the plan it is about to
//! exercise to `target/chaos/<test>.txt` and removes the file on
//! success. A failing run leaves the dump behind for CI to archive;
//! rerun with `CHAOS_SEED=<seed>` to reproduce locally.

use neurospatial::flat::FlatQueryStats;
use neurospatial::prelude::*;
use neurospatial::scout::ooc::write_flat_index;
use neurospatial::scout::{OocConfig, OocFlatIndex, OocScratch};
use neurospatial::storage::{FaultFile, FaultPlan, StorageError};
use neurospatial::Flow;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Base seed for the deterministic storms: `CHAOS_SEED` env override,
/// fixed default. CI pins three values so red runs name their seed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FF_EE00_D00D)
}

/// splitmix64, locally: derive per-round seeds without correlating
/// rounds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process-unique scratch path, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        ScratchFile(
            std::env::temp_dir()
                .join(format!("neurospatial-chaos-{tag}-{}-{n}.flatpages", std::process::id())),
        )
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The replay breadcrumb: the plan about to run, written before the
/// assertions, deleted only if the whole test passes.
struct PlanDump(PathBuf);

impl PlanDump {
    fn new(test: &str) -> Self {
        // The workspace's target directory, where CI collects them (a
        // test runs in its package's directory).
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
        std::fs::create_dir_all(&dir).ok();
        PlanDump(dir.join(format!("{test}.txt")))
    }

    fn record(&self, round: u64, plan: &FaultPlan) {
        let body = format!(
            "CHAOS_SEED={} round={}\n{}\nreplay: CHAOS_SEED={} cargo test --test chaos\n",
            chaos_seed(),
            round,
            plan.dump(),
            chaos_seed()
        );
        std::fs::write(&self.0, body).ok();
    }

    fn success(self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A deterministic workload for one round: a circuit spilled to a page
/// file plus query boxes that hit everything, something, and nothing.
struct Workload {
    file: ScratchFile,
    queries: Vec<Aabb>,
    pages: u64,
}

fn workload(seed: u64, tag: &str) -> Workload {
    let circuit = CircuitBuilder::new(seed % 10_000).neurons(3 + (seed % 6) as u32).build();
    let capacity = 8 + (mix(seed, 1) % 24) as usize;
    let index = FlatIndex::build(
        circuit.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(capacity),
    );
    let file = ScratchFile::new(tag);
    write_flat_index(&index, &file.0).expect("write page file");
    let c = circuit.bounds().center();
    let queries = vec![
        index.bounds(),                                         // everything
        Aabb::cube(c, 12.0),                                    // a core slab
        Aabb::cube(c + Vec3::new(9.0, -7.0, 4.0), 5.0),         // off-center
        Aabb::cube(c + Vec3::new(4000.0, 4000.0, 4000.0), 1.0), // nothing
    ];
    Workload { file, queries, pages: index.page_count() as u64 }
}

/// Fault-free reference answers (and their logical stats) for a
/// workload, via the same paged engine.
fn reference(w: &Workload) -> Vec<(Vec<NeuronSegment>, FlatQueryStats)> {
    let clean = OocFlatIndex::open(&w.file.0, OocConfig::default().with_frame_budget(2))
        .expect("clean open");
    let mut scratch = OocScratch::new();
    w.queries
        .iter()
        .map(|q| {
            let mut out = Vec::new();
            let stats = clean.range_query_into(q, &mut scratch, &mut out).expect("clean query");
            (out, stats.flat)
        })
        .collect()
}

/// Transient-only storms — EINTR bursts, timeouts, short reads, all
/// bounded below the retry budget — must be **invisible**: every query
/// returns byte-identical results with identical logical stats, nothing
/// is quarantined, and across the storm the retry path demonstrably
/// fired.
#[test]
fn transient_storms_recover_byte_identical_results() {
    let dump = PlanDump::new("transient_storms");
    let base = chaos_seed();
    let mut retries = 0u64;
    for round in 0..6u64 {
        let seed = mix(base, round);
        let w = workload(seed, "transient");
        let want = reference(&w);

        let plan = FaultPlan::new(seed)
            .with_transient_permille(350)
            .with_max_consecutive(1 + (round % 3) as u32);
        assert!(plan.is_transient_only());
        dump.record(round, &plan);

        // Budget 1 maximises re-reads (every page load evicts), and odd
        // rounds add a prefetch worker racing the demand reads through
        // the same fault schedule.
        let cfg =
            OocConfig::default().with_frame_budget(1).with_prefetch_workers((round % 2) as usize);
        let injected = plan.clone();
        let faulty =
            OocFlatIndex::open_with(&w.file.0, cfg, move |f| Arc::new(FaultFile::new(f, injected)))
                .expect("transient-only plans must survive the validating open");

        let mut scratch = OocScratch::new();
        let mut got = Vec::new();
        for (q, (want_segments, want_stats)) in w.queries.iter().zip(&want) {
            let stats = faulty
                .range_query_into(q, &mut scratch, &mut got)
                .expect("transient faults must be retried, not surfaced");
            assert_eq!(&got, want_segments, "round {round} at {q}: results diverge");
            assert_eq!(&stats.flat, want_stats, "round {round} at {q}: logical stats diverge");
            retries += stats.io.retries;
        }
        assert!(faulty.quarantined_pages().is_empty(), "round {round}: spurious quarantine");
        faulty.validate_pages().expect("a transient-only file re-validates clean");
    }
    assert!(retries > 0, "the storm never exercised the retry path — injection is dead");
    dump.success();
}

/// Plans with permanently corrupt pages: the validating open reports
/// the **full** blast radius as one typed error; a lazy open serves
/// strict queries that either avoid the rot (byte-identical) or fail
/// typed; partial mode completes with the loss labeled and every
/// returned segment byte-equal to the reference. No other outcome.
#[test]
fn corrupt_pages_fail_typed_or_degrade_labeled() {
    let dump = PlanDump::new("corrupt_pages");
    let base = mix(chaos_seed(), 0xDEAD);
    let mut rounds_with_pages = 0u64;
    for round in 0..6u64 {
        let seed = mix(base, round);
        let w = workload(seed, "corrupt");
        if w.pages < 2 {
            continue;
        }
        rounds_with_pages += 1;
        let want = reference(&w);

        let mut corrupt = vec![mix(seed, 2) % w.pages, mix(seed, 3) % w.pages];
        corrupt.sort_unstable();
        corrupt.dedup();
        let plan = FaultPlan::new(seed)
            .with_transient_permille(200)
            .with_max_consecutive(2)
            .with_corrupt_pages(corrupt.clone());
        assert!(!plan.is_transient_only());
        dump.record(round, &plan);

        // A validating open must name every rotten page, not just the
        // first one it trips over.
        let sweep = plan.clone();
        match OocFlatIndex::open_with(&w.file.0, OocConfig::default(), move |f| {
            Arc::new(FaultFile::new(f, sweep))
        }) {
            Err(StorageError::BadPages { pages }) => {
                assert_eq!(pages, corrupt, "round {round}: incomplete blast radius")
            }
            other => panic!("round {round}: validating open must report BadPages, got {other:?}"),
        }

        // Lazy open: queries meet the rot at demand-read time.
        let cfg = OocConfig { validate_pages: false, ..OocConfig::default() }.with_frame_budget(2);
        let lazy = plan.clone();
        let faulty =
            OocFlatIndex::open_with(&w.file.0, cfg, move |f| Arc::new(FaultFile::new(f, lazy)))
                .expect("lazy open skips the sweep");

        let mut scratch = OocScratch::new();
        let mut got = Vec::new();
        for (q, (want_segments, _)) in w.queries.iter().zip(&want) {
            match faulty.range_query_into(q, &mut scratch, &mut got) {
                // The crawl never reached a corrupt page: exactness holds.
                Ok(_) => assert_eq!(&got, want_segments, "round {round} at {q}"),
                // It did: the error must be the typed corruption pair.
                Err(
                    StorageError::PageChecksum { .. }
                    | StorageError::Corrupt(_)
                    | StorageError::Quarantined { .. },
                ) => {}
                Err(other) => panic!("round {round} at {q}: untyped failure {other:?}"),
            }
        }

        // Partial mode on the everything-box: completes, labels the
        // loss, and every segment it does return is byte-true.
        let by_id: HashMap<u64, &NeuronSegment> = want[0].0.iter().map(|s| (s.id, s)).collect();
        got.clear();
        let stats = faulty
            .range_query_stream_partial(
                &w.queries[0],
                &mut scratch,
                true,
                |_| {},
                |s| {
                    got.push(*s);
                    Flow::Emit
                },
            )
            .expect("partial mode must complete over corrupt pages");
        assert!(stats.io.pages_quarantined >= 1, "round {round}: loss went unlabeled");
        assert!(got.len() < want[0].0.len(), "round {round}: nothing was actually lost");
        for s in &got {
            assert_eq!(Some(&s), by_id.get(&s.id).copied().as_ref(), "round {round}: byte drift");
        }
        // The quarantine set is exactly rot, never healthy pages.
        let quarantined = faulty.quarantined_pages();
        assert!(!quarantined.is_empty());
        for page in &quarantined {
            assert!(corrupt.contains(page), "round {round}: healthy page {page} quarantined");
        }

        // Strict queries over the now-quarantined everything-box fail
        // with the quarantine error — degradation is sticky and typed.
        match faulty.range_query_into(&w.queries[0], &mut scratch, &mut got) {
            Err(StorageError::Quarantined { pages }) => {
                assert!(!pages.is_empty(), "round {round}");
                for page in &pages {
                    assert!(quarantined.contains(page), "round {round}: page {page} not rotten");
                }
            }
            other => panic!("round {round}: strict-after-quarantine gave {other:?}"),
        }
    }
    assert!(rounds_with_pages >= 3, "workloads too small to exercise corruption");
    dump.success();
}

fn segment_soup() -> impl Strategy<Value = Vec<NeuronSegment>> {
    prop::collection::vec(
        ((-60.0..60.0, -60.0..60.0, -60.0..60.0), (-8.0..8.0, -8.0..8.0, -8.0..8.0), 0.05..2.0f64),
        1..140,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same recovery contract over *arbitrary* segment soups, page
    /// capacities and plan parameters: any bounded transient schedule
    /// is invisible to query results.
    #[test]
    fn any_bounded_transient_plan_is_invisible(
        segments in segment_soup(),
        (queries, capacity) in (prop::collection::vec(query_box(), 1..5), 1usize..40),
        (seed, permille, burst) in (any::<u64>(), 50u32..600, 1u32..=3),
    ) {
        let index = FlatIndex::build(
            segments,
            FlatBuildParams::default().with_page_capacity(capacity),
        );
        let file = ScratchFile::new("prop");
        write_flat_index(&index, &file.0).expect("write page file");
        let clean = OocFlatIndex::open(&file.0, OocConfig::default().with_frame_budget(1))
            .expect("clean open");
        let plan = FaultPlan::new(seed)
            .with_transient_permille(permille)
            .with_max_consecutive(burst);
        prop_assert!(plan.is_transient_only());
        let injected = plan.clone();
        let faulty = OocFlatIndex::open_with(
            &file.0,
            OocConfig::default().with_frame_budget(1),
            move |f| Arc::new(FaultFile::new(f, injected)),
        )
        .expect("transient-only open");
        let mut scratch = OocScratch::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for q in &queries {
            let want_stats = clean.range_query_into(q, &mut scratch, &mut want).expect("clean");
            let got_stats = faulty.range_query_into(q, &mut scratch, &mut got).expect("faulty");
            prop_assert_eq!(&got, &want, "plan {} at {}", plan.dump(), q);
            prop_assert_eq!(&got_stats.flat, &want_stats.flat, "plan {} at {}", plan.dump(), q);
        }
        prop_assert!(faulty.quarantined_pages().is_empty());
    }
}
