//! The steady-state paths that promise zero heap allocations, held to it.
//!
//! A counting global allocator sees every allocation in the process, so
//! this target runs without libtest (`harness = false` in Cargo.toml):
//! no test threads share the counter. Each check warms its path up, then
//! counts the allocations of one more pass and requires exactly 0:
//!
//! * `range_query_into_scratch` with a reused scratch and result buffer,
//!   on FLAT, monolithic and `sharded(2).threaded(1)`;
//! * `query().range().filter(&pred).stream()` on the same configurations;
//! * `RTree::range_query_stream` and `first_hit_scratch` on a bulk-loaded
//!   tree nobody froze, whose first query builds the lanes, and
//!   `RPlusTree::range_query_stream`;
//! * a one-thread `TouchEngine::join_into` with a warm scratch and output,
//!   with the default lane-mask leaves and with the opt-in leaf sweep;
//! * `OocFlatIndex::range_query_stream` over a frame pool holding every
//!   page of its file;
//! * sequential `Client::range` requests against a one-worker
//!   `serve_with`, counting server decode, traversal, encode and client
//!   decode together: once with small boxes, and once with a wide box
//!   every 16th request, whose answer spans several chunks.
//!
//! The allocator also counts live bytes, which pins what a database
//! holds: a FLAT database with no populations holds its index and
//! nothing more, two declared populations add one copy of the segments
//! and no membership map, and the first `in_population` range builds
//! that map, after which such a range allocates nothing. It also pins
//! what a paged index's frames cost: a pool holding every page holds each
//! page decoded, its segments and their six `f32` lanes, and no more.
//! And it pins that a warm one-thread `JoinScratch` does not grow with
//! the pairs its joins find, nor keep the descent slots of subtrees it
//! has finished.
//!
//! `cargo test -p neurospatial-bench --test zero_alloc` prints one line a
//! check and exits non-zero naming every check that failed.

use neurospatial::prelude::*;
use neurospatial::rtree::TraversalScratch;
use neurospatial::scout::{write_flat_index, OocScratch};
use neurospatial_bench::sized_segments;
use neurospatial_server::protocol::QueryDescView;
use neurospatial_server::{serve_with, Client, FilterRegistry, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Counts `alloc`, `alloc_zeroed` and `realloc` (a growing `Vec` is the
/// churn the scratch paths exist to remove), and the bytes live: every
/// allocation adds its size, `dealloc` takes it back and `realloc` moves
/// it by the difference.
struct CountingAllocator;

/// Statistics that publish no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, so
// what a caller guarantees this allocator is exactly what `System`
// requires; counting touches no memory the caller owns.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The allocations `pass` makes.
fn allocations(pass: impl FnOnce()) -> u64 {
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    pass();
    ALLOCATIONS.load(Ordering::Relaxed) - a0
}

/// Run `pass` once to warm it up, then return the allocations of a
/// second run.
fn steady_allocations(mut pass: impl FnMut()) -> u64 {
    pass();
    allocations(pass)
}

/// `f`'s value, and the bytes live after it returns less those live
/// before it was called.
fn retained<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let b0 = LIVE_BYTES.load(Ordering::Relaxed);
    let r = f();
    (r, LIVE_BYTES.load(Ordering::Relaxed) - b0)
}

/// A check's report line and whether it passed.
type Check = (String, bool);

fn allocation_check(path: impl std::fmt::Display, allocs: u64) -> Check {
    (format!("{path}: {allocs} allocations"), allocs == 0)
}

fn bytes_check(what: &str, bytes: i64, allowed: RangeInclusive<i64>) -> Check {
    let ok = allowed.contains(&bytes);
    (format!("{what}: {bytes} bytes live (allowed {}..={})", allowed.start(), allowed.end()), ok)
}

const SEGMENTS: usize = 2_000;
const REQUESTS: usize = 2_000;
/// Bytes a database may hold beyond what a check accounts for: its
/// population names and their name map. A membership map over
/// `SEGMENTS` ids is several times larger.
const SLACK: i64 = 4_096;

fn main() {
    let segments = sized_segments(SEGMENTS, 42);
    let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
    let queries = RangeQueryWorkload::generate(
        1000,
        &bounds,
        128,
        10.0,
        QueryPlacement::DataCentered,
        Some(&segments),
    )
    .queries;
    let mut checks: Vec<Check> = Vec::new();

    for (name, shards) in [("flat", 1), ("sharded:flat", 2)] {
        let db = NeuroDb::builder()
            .segments(segments.clone())
            .backend_named(name)
            .page_capacity(64)
            .shards(shards)
            .threads(1)
            .build()
            .expect("valid configuration");
        let index = db.index();
        let (mut scratch, mut buf) = (QueryScratch::new(), Vec::new());
        let allocs = steady_allocations(|| {
            for q in &queries {
                buf.clear();
                index.range_query_into_scratch(q, &mut scratch, &mut buf);
            }
        });
        checks.push(allocation_check(format!("range_query_into_scratch {name}"), allocs));

        let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(8);
        let mut kept = 0u64;
        let allocs = steady_allocations(|| {
            for q in &queries {
                db.query().range(*q).filter(&pred).stream(|_| kept += 1).expect("no population");
            }
        });
        assert!(kept > 0, "{name}: the predicate keeps some results");
        checks.push(allocation_check(format!("query().range().filter().stream() {name}"), allocs));
    }

    let tree = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(16));
    let mut scratch = TraversalScratch::new();
    let mut hits = 0u64;
    let allocs = steady_allocations(|| {
        for q in &queries {
            hits += tree.range_query_stream(q, &mut scratch, |_| Flow::Emit).results;
            hits += tree.first_hit_scratch(q, &mut scratch).1.results;
        }
    });
    assert!(hits > 0, "the queries find segments");
    checks.push(allocation_check(
        "RTree range_query_stream + first_hit_scratch, never frozen",
        allocs,
    ));
    let rplus = RPlusTree::build(segments.clone(), 16);
    let allocs = steady_allocations(|| {
        for q in &queries {
            hits += rplus.range_query_stream(q, &mut scratch, |_| Flow::Emit).results;
        }
    });
    checks.push(allocation_check("RPlusTree range_query_stream", allocs));

    let (a, b): (Vec<NeuronSegment>, Vec<NeuronSegment>) =
        sized_segments(2 * SEGMENTS, 42).into_iter().partition(|s| s.neuron % 2 == 0);
    let join = TouchJoin::default();
    let engine = TouchEngine::build(&a, join.fanout);
    let (mut scratch, mut pairs) = (JoinScratch::new(), Vec::new());
    for (path, sweep_min) in [
        ("TouchEngine::join_into 1 thread", join.sweep_min),
        ("TouchEngine::join_into 1 thread, sweep_min 2", 2),
    ] {
        let allocs = steady_allocations(|| {
            engine.join_into(&b, 1.0, 1, sweep_min, &mut scratch, &mut pairs);
        });
        assert!(!pairs.is_empty(), "the join finds pairs");
        checks.push(allocation_check(path, allocs));
    }
    drop(scratch);

    // What a warm scratch keeps after one-thread joins, at an ε and at
    // one that finds over 4x the pairs. A one-thread join hands each pair
    // on as it is found, so the scratch grows only with the survivors
    // and the descent's working set, by less than half of what the extra
    // pairs would take if they were held.
    let warm_scratch = |eps: f64| {
        let mut found = 0u64;
        let (scratch, bytes) = retained(|| {
            let mut scratch = JoinScratch::new();
            for _ in 0..2 {
                join.join_each(&a, &b, eps, &mut scratch, |_, _| found += 1);
            }
            scratch
        });
        drop(scratch);
        (found as i64 / 2, bytes)
    };
    let (few, few_bytes) = warm_scratch(16.0);
    let (many, many_bytes) = warm_scratch(32.0);
    assert!(few > 0 && many >= 4 * few, "{few} and {many} pairs");
    checks.push(bytes_check(
        &format!("JoinScratch, {few} -> {many} pairs: grows by less than half their bytes"),
        many_bytes - few_bytes,
        i64::MIN..=(many - few) * size_of::<(u32, u32)>() as i64 / 2,
    ));
    // A wide ε sends each slot down many subtrees. The descent reuses
    // the slots of the subtrees it has finished, so the scratch keeps the
    // working set of one root-to-leaf path, not of the whole task.
    let (_, wide_bytes) = warm_scratch(256.0);
    checks.push(bytes_check(
        "JoinScratch at eps 256: at most 3x its bytes at eps 16",
        wide_bytes,
        0..=3 * few_bytes,
    ));

    // What a database holds. A throwaway build registers the global
    // metrics first, so the bytes a measured build leaves live are its
    // own; each measurement includes the input clone the build consumes.
    let build = |declare: bool| {
        let b = NeuroDb::builder().segments(segments.clone());
        let b = if declare { b.split_populations("even", "odd", |s| s.neuron % 2 == 0) } else { b };
        b.build().expect("flat db")
    };
    drop(build(true));
    let (plain, plain_bytes) = retained(|| build(false));
    let index_bytes = plain.index().memory_bytes() as i64;
    checks.push(bytes_check(
        "NeuroDb, no populations: the index alone",
        plain_bytes,
        0..=index_bytes + SLACK,
    ));
    drop(plain);
    let (split, split_bytes) = retained(|| build(true));
    let copy = (SEGMENTS * size_of::<NeuronSegment>()) as i64;
    checks.push(bytes_check(
        "NeuroDb, two populations: one more copy, no membership map",
        split_bytes - plain_bytes,
        copy..=copy + SLACK,
    ));
    let mut odd = 0u64;
    let mut odd_pass = || {
        for q in &queries {
            odd += split.query().range(*q).in_population("odd").count().expect("declared");
        }
    };
    // A plain pass grows the thread's query scratch first, so the bytes
    // the first restricted pass leaves live are the map's.
    for q in &queries {
        split.query().range(*q).count().expect("no population");
    }
    let ((), map_bytes) = retained(&mut odd_pass);
    let entry = (size_of::<u64>() + size_of::<u32>()) as i64;
    checks.push(bytes_check(
        "first in_population range: builds the membership map",
        map_bytes,
        entry * SEGMENTS as i64..=i64::MAX,
    ));
    let allocs = allocations(&mut odd_pass);
    assert!(odd > 0, "the odd population answers");
    checks.push(allocation_check("second in_population range", allocs));
    drop(split);

    // A paged index whose pool holds every page. A throwaway open and
    // full read registers the pool's and the pager's global metrics
    // first; the measured read leaves live only what its frames hold.
    const PAGE_CAPACITY: usize = 64;
    let page_file = std::env::temp_dir().join(format!("zero-alloc-{}.pages", std::process::id()));
    let flat = FlatIndex::build(
        segments.clone(),
        FlatBuildParams::default().with_page_capacity(PAGE_CAPACITY),
    );
    write_flat_index(&flat, &page_file).expect("the temporary directory is writable");
    let read_all = |paged: &OocFlatIndex| {
        let mut scratch = OocScratch::new();
        paged.range_query_stream(&bounds, &mut scratch, |_| {}, |_| Flow::Emit).expect("read")
    };
    let open = || OocFlatIndex::open(&page_file, OocConfig::default()).expect("a written file");
    read_all(&open());
    let paged = open();
    let (stats, pool_bytes) = retained(|| read_all(&paged));
    let pages = paged.page_count();
    assert_eq!((stats.flat.pages_read, paged.pool().resident()), (pages as u64, pages));
    let decoded = (size_of::<NeuronSegment>() + 6 * size_of::<f32>()) as i64;
    checks.push(bytes_check(
        "OocFlatIndex, every page resident: segments and lanes a slot",
        pool_bytes,
        SEGMENTS as i64 * decoded..=(pages * PAGE_CAPACITY) as i64 * decoded + SLACK,
    ));
    let (mut scratch, mut found) = (OocScratch::new(), 0u64);
    let allocs = steady_allocations(|| {
        for q in &queries {
            let stats = paged.range_query_stream(q, &mut scratch, |_| {}, |_| Flow::Emit);
            found += stats.expect("resident pages").flat.results;
        }
    });
    assert!(found > 0, "the paged queries find segments");
    checks.push(allocation_check("OocFlatIndex::range_query_stream, every page resident", allocs));
    drop(paged);
    let _ = std::fs::remove_file(&page_file);

    // Every 16th box of the second server check is the whole extent or
    // one half of it: answers of 2-4 chunks of 512 segments, larger than
    // the client's first read buffer, which grows once in the warm-up.
    let mid = (bounds.lo.x + bounds.hi.x) / 2.0;
    let wide = [
        bounds,
        Aabb { hi: Vec3::new(mid, bounds.hi.y, bounds.hi.z), ..bounds },
        Aabb { lo: Vec3::new(mid, bounds.lo.y, bounds.lo.z), ..bounds },
    ];
    let db = NeuroDb::builder().segments(segments).build().expect("flat db");
    let cfg = ServerConfig { workers: 1, ..Default::default() };
    serve_with(&db, &FilterRegistry::new(), &cfg, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let desc = QueryDescView { tenant: 1, ..Default::default() };
        let mut out = Vec::new();
        let allocs = steady_allocations(|| {
            for i in 0..REQUESTS {
                client.range(&desc, &queries[i % queries.len()], &mut out).expect("request");
            }
        });
        checks.push(allocation_check(
            format!("serve_with Client::range x{REQUESTS}, 1 worker"),
            allocs,
        ));

        let mut largest = 0;
        let allocs = steady_allocations(|| {
            for i in 0..REQUESTS {
                let q = if i % 16 == 0 { &wide[i / 16 % 3] } else { &queries[i % queries.len()] };
                client.range(&desc, q, &mut out).expect("request");
                largest = largest.max(out.len());
            }
        });
        assert!(largest > 3 * 512, "the wide boxes answer in several chunks");
        checks.push(allocation_check(
            format!("serve_with Client::range x{REQUESTS}, multi-chunk answers"),
            allocs,
        ));
    })
    .expect("serve");

    for (line, _) in &checks {
        println!("zero_alloc: {line}");
    }
    let failed: Vec<&String> = checks.iter().filter(|(_, ok)| !ok).map(|(line, _)| line).collect();
    if !failed.is_empty() {
        for line in &failed {
            eprintln!("zero_alloc: FAILED: {line}");
        }
        std::process::exit(1);
    }
    println!("zero_alloc: {} checks passed", checks.len());
}
