//! `explore_ooc`: the paper's §3 claim on data ten times the pool. A
//! viewer follows branches through tissue that lives in a page file; the
//! frame pool holds a tenth of the pages and SCOUT prefetches during the
//! think time between steps. An op is one `cursor.step(q)`.
//!
//! The traced run repeats the same paths demand-only on a fresh pool
//! (pass B), so a prefetcher that pollutes the pool, or a pool change that
//! only helps sequential access, shows as the two passes moving apart.

use super::{set_up, Ctx, Outcome, Pass, Section};
use crate::gen;
use crate::io::{DevicePageIo, IoCounters};
use crate::trace::Tracer;
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial::scout::write_flat_index;
use neurospatial::storage::{FramePool, PageFile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NEURONS: usize = 256;
const PAGE_CAPACITY: usize = 64;
/// What one page read costs. The sandbox's page cache answers in about a
/// microsecond; with that no miss costs anything and no prefetch can pay.
/// Latencies here are this stated device's, not a real one's.
pub const DEVICE_READ: Duration = Duration::from_micros(150);
/// The viewer looks at each step for this long; prefetch runs meanwhile.
const THINK: Duration = Duration::from_millis(1);
/// Frame pool as a share of the page file.
const FRAME_BUDGET_PERCENT: usize = 10;
/// More paths than a 20 s section can walk at the seed's speed (about
/// 440); a longer one starts over.
const PATHS: usize = 1000;
/// A traced run walks this many paths per second of section in every
/// pass, not until a deadline: pass B must see exactly pass A's paths,
/// and its page reads are then a function of the inputs alone. The seed
/// commit walks about 22 a second with SCOUT.
const TRACED_PATHS_PER_SECOND: f64 = 20.0;
const VIEW_RADIUS: f64 = 15.0;
const STEP: f64 = 22.0;
const MIN_STEPS: usize = 14;

struct State {
    circuit: Circuit,
    flat: FlatIndex<NeuronSegment>,
    page_file: PathBuf,
    paths: Vec<NavigationPath>,
    pagefile_write_s: f64,
    open_s: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.page_file);
    }
}

fn build_state(ctx: &Ctx) -> State {
    let circuit = gen::jagged_circuit(ctx.scaled(NEURONS).max(8) as u32);
    let flat = FlatIndex::build(
        circuit.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(PAGE_CAPACITY),
    );
    let page_file = ctx.scratch_path("explore.pages");
    let started = Instant::now();
    write_flat_index(&flat, &page_file).expect("the scratch directory is writable");
    let pagefile_write_s = started.elapsed().as_secs_f64();
    let paths =
        gen::paths(ctx.seed, &circuit, ctx.scaled(PATHS).max(8), VIEW_RADIUS, STEP, MIN_STEPS);
    assert!(!paths.is_empty(), "the tissue has branches long enough to follow");

    // Open as a user would (every page checksummed once), then warm up on
    // 1/16 of the paths.
    let started = Instant::now();
    let index = OocFlatIndex::open(&page_file, OocConfig::default())
        .expect("a page file just written opens");
    let open_s = started.elapsed().as_secs_f64();
    let mut cursor = index.cursor(Box::new(NoPrefetch));
    for path in &paths[..paths.len().div_ceil(16)] {
        for q in &path.queries {
            cursor.step(q).expect("healthy page file");
        }
        cursor.reset();
    }
    drop(cursor);
    State { circuit, flat, page_file, paths, pagefile_write_s, open_s }
}

/// Open the page file behind a [`DevicePageIo`]; returns the index and
/// the wrapper's counters.
fn open_index(
    state: &State,
    frames: usize,
    prefetch_workers: usize,
    device_read: Duration,
    tracer: Option<Arc<Tracer>>,
) -> (OocFlatIndex, Arc<IoCounters>) {
    let config = OocConfig {
        frame_budget: frames,
        eviction: neurospatial::storage::EvictionPolicy::Clock,
        prefetch_workers,
        // The sweep would read every page through the device.
        validate_pages: false,
        ..OocConfig::default()
    };
    let mut counters = None;
    let index = OocFlatIndex::open_with(&state.page_file, config, |file| {
        let io = DevicePageIo::new(file, device_read, tracer);
        counters = Some(Arc::clone(&io.counters));
        Arc::new(io)
    })
    .expect("a page file just written opens");
    (index, counters.expect("open_with calls the wrapper"))
}

/// Order-independent digest of a result's ids: their number and the sum
/// of their hashes.
#[derive(Debug, Default, PartialEq, Eq)]
struct IdDigest(u64, u64);

impl IdDigest {
    fn add(&mut self, s: &NeuronSegment) {
        *self = IdDigest(self.0 + 1, self.1.wrapping_add(gen::mix64(s.id)));
    }
}

#[derive(Default)]
struct Walk {
    pass: Pass,
    paths: usize,
    demand_misses: u64,
    step_ns: u64,
}

#[derive(Clone, Copy)]
enum Until {
    Seconds(f64),
    Paths(usize),
}

/// Follow whole paths, one `cursor.step` per view box with think time
/// after each, checking every step's ids against the in-memory index.
fn walk(
    state: &State,
    index: &OocFlatIndex,
    prefetcher: Box<dyn Prefetcher>,
    until: Until,
    think: Duration,
    tracer: Option<&Tracer>,
) -> Walk {
    let mut cursor = index.cursor(prefetcher);
    let mut scratch = FlatScratch::new();
    let mut w = Walk::default();
    let mut section = Section::begin(tracer, "scout.cursor_step");
    for path in state.paths.iter().cycle() {
        let done = match until {
            Until::Seconds(s) => section.elapsed_s() >= s,
            Until::Paths(n) => w.paths >= n,
        };
        if done {
            break;
        }
        for q in &path.queries {
            let mut misses = 0;
            let answered =
                section.op(|| cursor.step(q).map(|trace| misses = trace.demand_misses).is_ok());
            w.demand_misses += misses;
            let mut want = IdDigest::default();
            state.flat.range_query_stream(
                q,
                &mut scratch,
                |_| {},
                |s| {
                    want.add(s);
                    Flow::Emit
                },
            );
            let mut got = IdDigest::default();
            cursor.last_result().iter().for_each(|s| got.add(s));
            if answered && got != want {
                section.retract_last();
            }
            std::thread::sleep(think);
        }
        cursor.reset();
        w.paths += 1;
    }
    w.pass = section.finish();
    w.step_ns = w.pass.latencies_ns.iter().sum();
    w
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = set_up(ctx, || build_state(ctx));
    let pages = state.flat.page_count();
    let frames = (pages * FRAME_BUDGET_PERCENT / 100).max(1);
    let scout = || -> Box<dyn Prefetcher> { Box::new(ScoutPrefetcher::default()) };

    // Pass A: SCOUT with one prefetch worker.
    let pass_a = |until: Until, tracer: Option<Arc<Tracer>>| {
        let (index, io) = open_index(&state, frames, 1, DEVICE_READ, tracer.clone());
        let w = walk(&state, &index, scout(), until, THINK, tracer.as_deref());
        let frame_stats = index.pool().stats();
        (w, frame_stats, io)
    };

    let mut out = Outcome { setup_s, ..Outcome::default() };
    let mut demand_pass = (0, 0);
    let a = if ctx.traced() {
        let paths = (TRACED_PATHS_PER_SECOND * ctx.seconds).ceil() as usize;
        let (untraced, ..) = pass_a(Until::Paths(paths), None);
        let (a, frame_a, io_a) = pass_a(Until::Paths(paths), ctx.tracer.clone());
        let steps_per_ns = |w: &Walk| w.pass.correct() as f64 / w.step_ns as f64;

        // Pass B: the same paths, demand paging only, fresh pool.
        let (index_b, io_b) = open_index(&state, frames, 0, DEVICE_READ, None);
        let mut b = walk(&state, &index_b, Box::new(NoPrefetch), Until::Paths(paths), THINK, None);
        let frame_b = index_b.pool().stats();
        demand_pass = (b.pass.attempted, b.pass.failed);

        let steps = a.pass.attempted.max(1) as f64;
        let file_bytes = std::fs::metadata(&state.page_file).map_or(0, |m| m.len());
        let live_bytes = state.flat.len() * std::mem::size_of::<NeuronSegment>();
        let reads = (io_a.calls() + io_b.calls()).max(1) as f64;
        let (crawl_cpu_us, predict_cpu_us) = cpu_per_step(&state, paths);
        out.layers = vec![
            ("bench.trace_overhead_share", steps_per_ns(&a) / steps_per_ns(&untraced)),
            ("demand_op_p50_us", crate::stats::latency(&mut b.pass.latencies_ns).p50 / 1e3),
            ("storage.pagefile_space_amp", file_bytes as f64 / live_bytes as f64),
            ("storage.page_reads", io_b.calls() as f64),
            ("storage.bytes_read", io_b.bytes() as f64),
            ("storage.page_read_us", (io_a.nanos() + io_b.nanos()) as f64 / reads / 1e3),
            (
                "storage.frame_hit_ratio",
                frame_a.hits as f64 / (frame_a.hits + frame_a.misses).max(1) as f64,
            ),
            ("storage.evictions", frame_a.evictions as f64),
            ("storage.frame_get_hit_ns", frame_get_hit_ns(&state)),
            ("storage.pagefile_write_s", state.pagefile_write_s),
            ("scout.open_s", state.open_s),
            ("scout.crawl_cpu_us", crawl_cpu_us),
            ("scout.predict_cpu_us", predict_cpu_us),
            ("scout.demand_misses_per_step", a.demand_misses as f64 / steps),
            ("scout.prefetch_issued_per_step", frame_a.prefetched as f64 / steps),
            (
                "scout.prefetch_useful_ratio",
                frame_a.prefetch_hits as f64 / frame_a.prefetched.max(1) as f64,
            ),
            (
                "scout.prefetch_pollution",
                (frame_a.evictions as f64 - frame_b.evictions as f64) / steps,
            ),
        ];
        a
    } else {
        pass_a(Until::Seconds(ctx.seconds), None).0
    };

    // Think time is the viewer's, not the system's: steps per second of
    // stepping.
    out.ops_per_s = Some(a.pass.correct() as f64 / (a.step_ns as f64 / 1e9));
    out.facts = vec![
        ("segments", state.circuit.segments().len() as f64),
        ("pages", pages as f64),
        ("frames", frames as f64),
        ("device_read_us", DEVICE_READ.as_micros() as f64),
        ("think_ms", THINK.as_millis() as f64),
        ("paths_walked", a.paths as f64),
        ("steps", a.pass.attempted as f64),
        ("demand_pass_steps", demand_pass.0 as f64),
    ];
    out.pass = a.pass;
    out.pass.attempted += demand_pass.0;
    out.pass.failed += demand_pass.1;
    out
}

/// CPU per step with I/O taken away: no device latency, every page
/// resident and warm, no think time. Demand-only gives the crawl's cost;
/// what SCOUT adds on top (its plan is computed and, with no workers,
/// dropped) is prediction.
fn cpu_per_step(state: &State, paths: usize) -> (f64, f64) {
    let mean_us = |prefetcher: fn() -> Box<dyn Prefetcher>| {
        let (index, _) = open_index(state, 0, 0, Duration::ZERO, None);
        walk(state, &index, prefetcher(), Until::Paths(paths), Duration::ZERO, None);
        walk(state, &index, prefetcher(), Until::Paths(paths), Duration::ZERO, None).pass.mean_ns()
            / 1e3
    };
    let crawl = mean_us(|| Box::new(NoPrefetch));
    let with_scout = mean_us(|| Box::new(ScoutPrefetcher::default()));
    (crawl, with_scout - crawl)
}

/// `FramePool::get` on a page that is resident.
fn frame_get_hit_ns(state: &State) -> f64 {
    let file = PageFile::open(&state.page_file).expect("a page file just written opens");
    let pool = FramePool::new(8, neurospatial::storage::EvictionPolicy::Clock);
    drop(pool.get(0, &file).expect("page 0 reads"));
    const GETS: u32 = 200_000;
    let started = Instant::now();
    for _ in 0..GETS {
        std::hint::black_box(pool.get(0, &file).expect("resident page").len());
    }
    started.elapsed().as_nanos() as f64 / f64::from(GETS)
}
