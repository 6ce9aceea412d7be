//! The steady-state paths that promise zero heap allocations, held to it.
//!
//! A counting global allocator sees every allocation in the process, so
//! this target runs without libtest (`harness = false` in Cargo.toml):
//! no test threads share the counter. Each check warms its path up, then
//! counts the allocations of one more pass and requires exactly 0:
//!
//! * `range_query_into_scratch` with a reused scratch and result buffer,
//!   on every backend, monolithic and `sharded(2).threaded(1)`;
//! * `query().range().filter(&pred).stream()` on the same configurations;
//! * a one-thread `TouchEngine::join_into` with a warm scratch and output,
//!   with the default lane-mask leaves and with the opt-in leaf sweep;
//! * sequential `Client::range` requests against a one-worker
//!   `serve_with`, counting server decode, traversal, encode and client
//!   decode together: once with small boxes, and once with a wide box
//!   every 16th request, whose answer spans several chunks.
//!
//! `cargo test -p neurospatial-bench --test zero_alloc` prints one line a
//! check and exits non-zero naming every path that allocated.

use neurospatial::prelude::*;
use neurospatial_bench::sized_segments;
use neurospatial_server::protocol::QueryDescView;
use neurospatial_server::{serve_with, Client, FilterRegistry, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts `alloc`, `alloc_zeroed` and `realloc` (a growing `Vec` is the
/// churn the scratch paths exist to remove); `dealloc` is free.
struct CountingAllocator;

/// A statistic that publishes no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, so
// what a caller guarantees this allocator is exactly what `System`
// requires; counting touches no memory the caller owns.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `pass` once to warm it up, then return the allocations of a
/// second run.
fn steady_allocations(mut pass: impl FnMut()) -> u64 {
    pass();
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    pass();
    ALLOCATIONS.load(Ordering::Relaxed) - a0
}

const SEGMENTS: usize = 2_000;
const REQUESTS: usize = 2_000;

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
    let mut checks: Vec<(String, u64)> = Vec::new();

    for backend in IndexBackend::ALL {
        for shards in [1, 2] {
            let name =
                if shards == 1 { backend.name().to_string() } else { backend.sharded_name() };
            let params = IndexParams::with_page_capacity(64).sharded(shards).threaded(1);
            let index = if shards == 1 {
                backend.build(segments.clone(), &params)
            } else {
                backend.build_sharded(segments.clone(), &params)
            };
            let (mut scratch, mut buf) = (QueryScratch::new(), Vec::new());
            let allocs = steady_allocations(|| {
                for q in &queries {
                    buf.clear();
                    index.range_query_into_scratch(q, &mut scratch, &mut buf);
                }
            });
            checks.push((format!("range_query_into_scratch {name}"), allocs));

            let db = NeuroDb::builder()
                .segments(segments.clone())
                .backend(backend)
                .page_capacity(64)
                .shards(shards)
                .threads(1)
                .build()
                .expect("valid configuration");
            let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(8);
            let mut kept = 0u64;
            let allocs = steady_allocations(|| {
                for q in &queries {
                    db.query()
                        .range(*q)
                        .filter(&pred)
                        .stream(|_| kept += 1)
                        .expect("no population");
                }
            });
            assert!(kept > 0, "{name}: the predicate keeps some results");
            checks.push((format!("query().range().filter().stream() {name}"), allocs));
        }
    }

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
        checks.push((path.to_string(), allocs));
    }

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
        checks.push((format!("serve_with Client::range x{REQUESTS}, 1 worker"), allocs));

        let mut largest = 0;
        let allocs = steady_allocations(|| {
            for i in 0..REQUESTS {
                let q = if i % 16 == 0 { &wide[i / 16 % 3] } else { &queries[i % queries.len()] };
                client.range(&desc, q, &mut out).expect("request");
                largest = largest.max(out.len());
            }
        });
        assert!(largest > 3 * 512, "the wide boxes answer in several chunks");
        checks.push((format!("serve_with Client::range x{REQUESTS}, multi-chunk answers"), allocs));
    })
    .expect("serve");

    for (path, allocs) in &checks {
        println!("zero_alloc: {path}: {allocs} allocations");
    }
    let failed: Vec<&String> =
        checks.iter().filter(|(_, allocs)| *allocs != 0).map(|(path, _)| path).collect();
    if !failed.is_empty() {
        for path in &failed {
            eprintln!("zero_alloc: FAILED: {path} allocates in steady state");
        }
        std::process::exit(1);
    }
    println!("zero_alloc: {} checks, 0 allocations each", checks.len());
}
