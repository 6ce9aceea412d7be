//! The experiment harness: regenerates every figure of the demo paper as
//! a deterministic table.
//!
//! ```text
//! cargo run --release -p neurospatial-bench --bin experiments        # all
//! cargo run --release -p neurospatial-bench --bin experiments e4    # one
//!
//! # restrict the backend race / walkthrough methods from the CLI
//! # (names parsed via FromStr — any alias IndexBackend/WalkthroughMethod
//! # accepts works here):
//! cargo run ... --bin experiments e1 --backends=flat,str-packed
//! cargo run ... --bin experiments e4 --methods=none,scout
//!
//! # sharded-vs-monolithic throughput race (every backend):
//! cargo run ... --bin experiments --scenario=throughput --threads=4 --shards=8
//!
//! # unified Query API race: collect vs stream vs session (E8):
//! cargo run ... --bin experiments --scenario=api --strict
//! ```
//!
//! Mapping (see DESIGN.md §4 for the full index):
//!   e1 — Fig. 2+3: FLAT vs R-Tree range-query statistics, plus the
//!                  backend race through the SpatialIndex trait
//!   e2 — Fig. 4:   crawl behaviour and R-Tree node accesses per level
//!   e3 — Fig. 5:   SCOUT candidate-set pruning
//!   e4 — Fig. 6:   walkthrough prefetching comparison (up-to-15× claim)
//!   e5 — Fig. 7:   TOUCH vs join baselines (10×/100× claims)
//!   e6 — §1:       scaling with model size
//!   api (E8):      unified Query builder — collect vs stream vs session,
//!                  predicate pushdown, 0-alloc streaming (BENCH_api.json)

use neurospatial::model::CircuitBuilder;
use neurospatial::prelude::*;
use neurospatial::scout::{PrefetchContext, ScoutPrefetcher};
use neurospatial_bench::*;
use neurospatial_server::protocol::QueryDescView;
use neurospatial_server::{serve_with, Client, ClientError, FilterRegistry, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every heap allocation the process performs — the instrument
/// behind the hotpath scenario's allocs/query column. `realloc` and
/// `alloc_zeroed` count too (a growing `Vec` is exactly the churn the
/// scratch paths exist to eliminate); `dealloc` is free.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Parse a `--flag=a,b,c` list via `FromStr`, exiting with the parser's
/// diagnostic (which lists the known names) on a bad entry.
fn parse_list<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<Vec<T>>
where
    T::Err: std::fmt::Display,
{
    let prefix = format!("--{flag}=");
    let raw = args.iter().find_map(|a| a.strip_prefix(&prefix))?;
    let mut out = Vec::new();
    for name in raw.split(',').filter(|n| !n.is_empty()) {
        match name.parse::<T>() {
            Ok(v) => out.push(v),
            Err(e) => {
                eprintln!("--{flag}: {e}");
                std::process::exit(2);
            }
        }
    }
    Some(out)
}

/// Parse a scalar `--flag=value` via `FromStr`, exiting with a
/// diagnostic on a bad value.
fn parse_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let prefix = format!("--{flag}=");
    let raw = args.iter().find_map(|a| a.strip_prefix(&prefix))?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("--{flag}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `bench-diff OLD.json NEW.json [--band=0.25]` is a subcommand, not
    // a scenario — handle it before scenario-name validation.
    if args.first().map(String::as_str) == Some("bench-diff") {
        let band: f64 = parse_value(&args, "band").unwrap_or(0.25);
        let files: Vec<&String> = args.iter().skip(1).filter(|a| !a.starts_with("--")).collect();
        if files.len() != 2 {
            eprintln!("usage: experiments bench-diff OLD.json NEW.json [--band=0.25]");
            std::process::exit(2);
        }
        std::process::exit(bench_diff(files[0], files[1], band));
    }
    let backends: Vec<IndexBackend> =
        parse_list(&args, "backends").unwrap_or_else(|| IndexBackend::ALL.to_vec());
    let methods: Vec<WalkthroughMethod> =
        parse_list(&args, "methods").unwrap_or_else(|| WalkthroughMethod::ALL.to_vec());
    let threads: usize = parse_value(&args, "threads").unwrap_or(4);
    let shards: usize = parse_value(&args, "shards").unwrap_or(threads.max(2));
    // Scenarios are selectable positionally (`experiments throughput`) or
    // via `--scenario=name[,name…]`. Unknown names are an error, not a
    // silent no-op — a typo like `--scenario=hotpth` used to run nothing
    // and exit 0, which in CI reads as "gate passed".
    const SCENARIOS: [&str; 21] = [
        "e1",
        "e2",
        "e3",
        "e4",
        "e5",
        "e6",
        "e7",
        "throughput",
        "hotpath",
        "ooc",
        "faults",
        "ingest",
        "join",
        "api",
        "serve",
        "load",
        "a1",
        "a2",
        "a3",
        "a4",
        "a5",
    ];
    let mut which: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
    which.extend(parse_list::<String>(&args, "scenario").unwrap_or_default());
    for w in &which {
        if !SCENARIOS.contains(&w.as_str()) {
            eprintln!(
                "unknown scenario '{w}'\nknown scenarios: {}\nusage: experiments \
                 [scenario…] [--scenario=name[,name…]] [--flag=value…]",
                SCENARIOS.join(", ")
            );
            std::process::exit(2);
        }
    }
    let run = |name: &str| which.is_empty() || which.iter().any(|w| w == name);

    if run("e1") {
        e1_flat_vs_rtree();
        e1_backend_race(&backends);
    }
    if run("e2") {
        e2_crawl_and_levels();
    }
    if run("e3") {
        e3_candidate_pruning();
    }
    if run("e4") {
        e4_walkthrough(&methods);
    }
    if run("e5") {
        e5_join_comparison();
    }
    if run("e6") {
        e6_scaling();
    }
    if run("e7") || run("throughput") {
        e7_throughput(&backends, shards, threads);
    }
    if run("hotpath") {
        let n: usize = parse_value(&args, "n").unwrap_or(20_000);
        let queries: usize = parse_value(&args, "queries").unwrap_or(256);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        hotpath(&backends, n, queries, shards, &out, strict);
    }
    if run("ooc") {
        let n: usize = parse_value(&args, "n").unwrap_or(20_000);
        let paths: u64 = parse_value(&args, "paths").unwrap_or(6);
        let think: f64 = parse_value(&args, "think").unwrap_or(2.0);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_ooc.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        ooc_bench(n, paths, think, &out, strict);
    }
    if run("faults") {
        let n: usize = parse_value(&args, "n").unwrap_or(20_000);
        let queries: usize = parse_value(&args, "queries").unwrap_or(256);
        let seed: u64 = parse_value(&args, "seed").unwrap_or(0xFA17);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_faults.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        faults_bench(n, queries, seed, &out, strict);
    }
    if run("ingest") {
        let n: usize = parse_value(&args, "n").unwrap_or(20_000);
        let writes: usize = parse_value(&args, "writes").unwrap_or(4_096);
        let readers: usize = parse_value(&args, "readers").unwrap_or(2);
        let seed: u64 = parse_value(&args, "seed").unwrap_or(0x0126_9E57);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_ingest.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        ingest_bench(n, writes, readers, seed, &out, strict);
    }
    if run("join") {
        let n: usize = parse_value(&args, "n").unwrap_or(20_000);
        let eps: f64 = parse_value(&args, "eps").unwrap_or(1.0);
        let fanout: usize = parse_value(&args, "fanout").unwrap_or(16);
        let sweep_min: usize = parse_value(&args, "bucket-sweep-min").unwrap_or(32);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_touch.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        join_bench(n, eps, fanout, sweep_min, threads, &out, strict);
    }
    if run("api") {
        // Deliberately small defaults: the scenario races the *API layer*
        // (materialization, post-filtering, per-query allocation) on
        // selective queries, so the per-query fixed costs must be visible
        // over the shared traversal work. Use --n/--half for scaling runs.
        let n: usize = parse_value(&args, "n").unwrap_or(2_000);
        let queries: usize = parse_value(&args, "queries").unwrap_or(512);
        let half: f64 = parse_value(&args, "half").unwrap_or(5.0);
        let cap: usize = parse_value(&args, "cap").unwrap_or(32);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_api.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        api_bench(&backends, n, queries, half, cap, shards, &out, strict);
    }
    if run("serve") {
        let n: usize = parse_value(&args, "n").unwrap_or(2_000);
        let clients: usize = parse_value(&args, "clients").unwrap_or(4);
        let half: f64 = parse_value(&args, "half").unwrap_or(10.0);
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_serve.json".to_string());
        let strict = args.iter().any(|a| a == "--strict");
        serve_bench(n, clients, half, &out, strict);
    }
    // `load` needs an external server, so it never rides the run-all
    // default — only an explicit request selects it.
    if which.iter().any(|w| w == "load") {
        let Some(addr) = parse_value::<String>(&args, "addr") else {
            eprintln!(
                "load: --addr=HOST:PORT is required (start one with \
                 `cargo run --release -p neurospatial-server`)"
            );
            std::process::exit(2);
        };
        let spec = LoadSpec {
            neurons: parse_value(&args, "neurons").unwrap_or(40),
            seed: parse_value(&args, "seed").unwrap_or(7),
            requests: parse_value(&args, "n").unwrap_or(2_000),
            clients: parse_value(&args, "clients").unwrap_or(4),
            rate: parse_value(&args, "rate").unwrap_or(1_000.0),
            half: parse_value(&args, "half").unwrap_or(10.0),
        };
        let out =
            parse_value::<String>(&args, "out").unwrap_or_else(|| "BENCH_load.json".to_string());
        load_bench(&addr, &spec, &out);
    }
    if run("a1") {
        a1_flat_packing();
    }
    if run("a2") {
        a2_touch_fanout();
    }
    if run("a3") {
        a3_think_time();
    }
    if run("a4") {
        a4_buffer_size();
    }
    if run("a5") {
        a5_markov_warmup();
    }
}

/// E1 (demo Figures 2+3): range-query statistics, FLAT vs STR-packed and
/// dynamically built R-Trees, across densities and query sizes.
///
/// Series: pages/nodes read, modelled I/O ms (random/sequential cost
/// model), wall time, per result sizes.
fn e1_flat_vs_rtree() {
    println!("\n== E1 — FLAT vs R-Tree range queries (Figures 2+3) ==\n");
    let mut t = Table::new([
        "neurons",
        "segments",
        "query",
        "avg result",
        "flat reads",
        "rtree reads",
        "dyn reads",
        "flat io ms",
        "rtree io ms",
        "flat µs",
        "rtree µs",
    ]);

    for &neurons in &[10u32, 25, 50] {
        let circuit = dense_circuit(neurons, 1);
        let segments = circuit.segments().to_vec();
        let flat =
            FlatIndex::build(segments.clone(), FlatBuildParams::default().with_page_capacity(64));
        let packed = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(64));
        let mut dynamic = RTree::new(RTreeParams::with_max_entries(64));
        for s in &segments {
            dynamic.insert(*s);
        }

        for &half in &[10.0f64, 30.0] {
            let w = standard_workload(&circuit, 40, half);
            let n = w.queries.len() as f64;
            let (mut results, mut f_reads, mut r_reads, mut d_reads) = (0u64, 0u64, 0u64, 0u64);
            let (mut f_us, mut r_us) = (0.0f64, 0.0f64);
            // Modelled disks (head position, nanoseconds): FLAT pages are
            // Hilbert-contiguous, R-Tree nodes live wherever the arena
            // put them.
            let cost = CostModel::default();
            let (mut f_head, mut f_ns, mut r_head, mut r_ns) = (None, 0u64, None, 0u64);
            for q in &w.queries {
                let t0 = Instant::now();
                let (hits, fs) = flat.range_query_with(q, |acc| {
                    if let neurospatial::flat::PageAccess::Data(p) = acc {
                        f_ns += cost.read_ns(f_head.replace(p as u64), p as u64);
                    }
                });
                f_us += t0.elapsed().as_secs_f64() * 1e6;
                let t1 = Instant::now();
                let (_, rs) = packed.range_query_with(q, |node, _| {
                    r_ns += cost.read_ns(r_head.replace(node as u64), node as u64);
                });
                r_us += t1.elapsed().as_secs_f64() * 1e6;
                let (_, ds) = dynamic.range_query(q);
                results += hits.len() as u64;
                f_reads += fs.pages_read + fs.seed_nodes_read;
                r_reads += rs.nodes_visited();
                d_reads += ds.nodes_visited();
            }
            t.row([
                neurons.to_string(),
                segments.len().to_string(),
                format!("{:.0}³", half * 2.0),
                f1(results as f64 / n),
                f1(f_reads as f64 / n),
                f1(r_reads as f64 / n),
                f1(d_reads as f64 / n),
                f2(f_ns as f64 / 1e6 / n),
                f2(r_ns as f64 / 1e6 / n),
                f1(f_us / n),
                f1(r_us / n),
            ]);
        }
    }
    t.print();
    println!("\nshape check: FLAT I/O cost grows with the result size only; the R-Tree");
    println!("(especially the dynamic one) pays extra node reads as density grows.");
}

/// E1b: the same race run through the pluggable `SpatialIndex` trait —
/// one code path, backends selected by value or CLI name. Unified
/// `QueryStats` makes the cost columns directly comparable.
fn e1_backend_race(backends: &[IndexBackend]) {
    println!("\n== E1b — backend race through the SpatialIndex trait ==\n");
    let params = IndexParams::with_page_capacity(64);
    let mut t = Table::new([
        "backend",
        "build ms",
        "memory MiB",
        "avg reads",
        "avg tested",
        "avg results",
        "avg µs/query",
    ]);
    let circuit = dense_circuit(25, 1);
    let w = standard_workload(&circuit, 40, 20.0);
    let n = w.queries.len() as f64;
    for backend in backends {
        let t0 = Instant::now();
        let index = backend.build(circuit.segments().to_vec(), &params);
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (mut reads, mut tested, mut results) = (0u64, 0u64, 0u64);
        let mut scratch = QueryScratch::new();
        let mut buf = Vec::new();
        let t1 = Instant::now();
        for q in &w.queries {
            buf.clear();
            let s = index.range_query_into_scratch(q, &mut scratch, &mut buf);
            reads += s.nodes_read;
            tested += s.objects_tested;
            results += s.results;
        }
        let us = t1.elapsed().as_secs_f64() * 1e6 / n;
        t.row([
            backend.to_string(),
            f1(build_ms),
            f2(index.memory_bytes() as f64 / (1024.0 * 1024.0)),
            f1(reads as f64 / n),
            f1(tested as f64 / n),
            f1(results as f64 / n),
            f1(us),
        ]);
    }
    t.print();
    println!("\nshape check: identical result counts on every backend (the equivalence");
    println!("contract); FLAT's reads track the result size, the R-Tree family's grow");
    println!("with overlap, the R+-Tree trades memory for overlap-free reads.");
}

/// E2 (demo Figure 4): how the two executors traverse — FLAT's crawl
/// visits exactly the pages intersecting the query, while the R-Tree
/// reads more nodes per level as overlap accumulates.
fn e2_crawl_and_levels() {
    println!("\n== E2 — crawl order & node accesses per level (Figure 4) ==\n");
    let circuit = dense_circuit(50, 1);
    let segments = circuit.segments().to_vec();
    let flat =
        FlatIndex::build(segments.clone(), FlatBuildParams::default().with_page_capacity(64));
    let packed = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(64));
    let mut dynamic = RTree::new(RTreeParams::with_max_entries(64));
    for s in &segments {
        dynamic.insert(*s);
    }

    let w = standard_workload(&circuit, 30, 25.0);
    let n = w.queries.len() as f64;
    let mut flat_agg = (0u64, 0u64, 0u64, 0u64); // pages, rejected pages, reseeds, seed nodes
    let mut packed_levels: Vec<f64> = Vec::new();
    let mut dynamic_levels: Vec<f64> = Vec::new();
    for q in &w.queries {
        let (_, fs) = flat.range_query(q);
        flat_agg.0 += fs.pages_read;
        flat_agg.1 += fs.links_rejected;
        flat_agg.2 += fs.reseeds;
        flat_agg.3 += fs.seed_nodes_read;
        let (_, ps) = packed.range_query(q);
        for (l, c) in ps.nodes_per_level.iter().enumerate() {
            if packed_levels.len() <= l {
                packed_levels.resize(l + 1, 0.0);
            }
            packed_levels[l] += *c as f64;
        }
        let (_, ds) = dynamic.range_query(q);
        for (l, c) in ds.nodes_per_level.iter().enumerate() {
            if dynamic_levels.len() <= l {
                dynamic_levels.resize(l + 1, 0.0);
            }
            dynamic_levels[l] += *c as f64;
        }
    }

    println!(
        "FLAT  (avg/query): {} data pages, {} distinct pages examined via a link and rejected,",
        f1(flat_agg.0 as f64 / n),
        f1(flat_agg.1 as f64 / n)
    );
    println!(
        "                   {} seed-node reads, {} re-seeds\n",
        f1(flat_agg.3 as f64 / n),
        f2(flat_agg.2 as f64 / n)
    );

    let mut t = Table::new(["tree", "level 0 (root)", "level 1", "level 2", "leaf overlap vol"]);
    let fmt_levels = |ls: &[f64]| -> [String; 3] {
        let mut out = [String::from("-"), String::from("-"), String::from("-")];
        for (i, v) in ls.iter().take(3).enumerate() {
            out[i] = f1(*v / n);
        }
        out
    };
    let p = fmt_levels(&packed_levels);
    t.row([
        "STR-packed".to_string(),
        p[0].clone(),
        p[1].clone(),
        p[2].clone(),
        f1(packed.total_leaf_volume()),
    ]);
    let d = fmt_levels(&dynamic_levels);
    t.row([
        "dynamic (quadratic)".to_string(),
        d[0].clone(),
        d[1].clone(),
        d[2].clone(),
        f1(dynamic.total_leaf_volume()),
    ]);
    t.print();

    // The R+-Tree comparison the paper makes in §2: overlap-free queries
    // bought with replication ("increases the index size considerably").
    let rplus = RPlusTree::build(segments.clone(), 64);
    let mut rplus_reads = 0u64;
    for q in &w.queries {
        let (hits, rs) = rplus.range_query(q);
        let (flat_hits, _) = flat.range_query(q);
        assert_eq!(hits.len(), flat_hits.len(), "R+ must agree with FLAT");
        rplus_reads += rs.nodes_visited();
    }
    println!(
        "\nR+-Tree: {} node reads/query, replication factor {:.2} ({} entries for {} objects)",
        f1(rplus_reads as f64 / n),
        rplus.replication_factor(),
        rplus.stored_entries(),
        segments.len()
    );
    println!("\nshape check: the dynamic tree reads more nodes on the upper levels than");
    println!("the packed tree (overlap); FLAT re-seeds ≈ 0 on this dense model; the");
    println!("R+-Tree avoids overlap but pays the paper's 'considerably' larger index.");
}

/// E3 (demo Figure 5): the candidate set shrinks as the walkthrough
/// progresses, reliably identifying the followed structure.
fn e3_candidate_pruning() {
    println!("\n== E3 — SCOUT candidate-set pruning (Figure 5) ==\n");
    let circuit = jagged_circuit(20, 5);
    let db = NeuroDb::from_circuit(&circuit);
    let paths = walkthrough_paths(&circuit, 8);

    let mut t = Table::new(["path", "steps", "candidates per step (q0, q1, …)", "final"]);
    let mut identified = 0;
    // Candidate pruning inspects FLAT's crawl order, so go through the
    // paged index rather than the backend-agnostic facade.
    let flat = db.flat_index().expect("default backend is FLAT");
    for (i, path) in paths.iter().enumerate() {
        let mut scout = ScoutPrefetcher::default();
        let mut history = Vec::new();
        for q in &path.queries {
            history.push(q.center());
            let (result, stats) = flat.range_query(q);
            let ctx = PrefetchContext {
                query: q,
                result: &result,
                history: &history,
                pages_read: &stats.crawl_order,
            };
            let _ = scout.plan(&ctx);
        }
        let hist = scout.candidate_history();
        let series: Vec<String> = hist.iter().take(10).map(|c| c.to_string()).collect();
        let final_c = *hist.last().unwrap_or(&0);
        if final_c <= 2 {
            identified += 1;
        }
        t.row([
            format!("{i}"),
            path.queries.len().to_string(),
            series.join(" "),
            final_c.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nshape check: candidate counts shrink along the sequence; followed structure\nidentified (≤2 candidates) on {identified}/{} paths.",
        paths.len()
    );
}

/// E4 (demo Figure 6): walkthrough statistics per prefetching method —
/// prefetched / correctly prefetched / fetched on demand, stall time and
/// speedup. Paper claim: SCOUT speeds up query sequences by up to 15×.
fn e4_walkthrough(methods: &[WalkthroughMethod]) {
    println!("\n== E4 — SCOUT walkthrough speedup (Figure 6) ==\n");
    for &(neurons, label) in &[(12u32, "small"), (30, "medium")] {
        let circuit = jagged_circuit(neurons, 9);
        let db = walkthrough_db(&circuit, walkthrough_config());
        let paths = walkthrough_paths(&circuit, 6);
        println!(
            "circuit {label}: {} segments, {} paths, {} total steps",
            circuit.segments().len(),
            paths.len(),
            paths.iter().map(|p| p.queries.len()).sum::<usize>()
        );

        let mut t = Table::new([
            "method",
            "stall ms",
            "demand miss",
            "demand hit",
            "prefetched",
            "useful",
            "precision",
            "speedup",
        ]);
        // The speedup column is always relative to the no-prefetch
        // baseline, whether or not "none" is among the selected methods.
        let baseline_stall: f64 =
            paths.iter().map(|p| walk(&db, p, WalkthroughMethod::None).total_stall_ms).sum();
        for &m in methods {
            let mut agg = SessionStats::default();
            for p in &paths {
                let s = walk(&db, p, m);
                agg.total_stall_ms += s.total_stall_ms;
                agg.total_demand_misses += s.total_demand_misses;
                agg.total_demand_hits += s.total_demand_hits;
                agg.total_prefetched += s.total_prefetched;
                agg.useful_prefetched += s.useful_prefetched;
            }
            let speedup = if agg.total_stall_ms > 0.0 {
                baseline_stall / agg.total_stall_ms
            } else {
                f64::INFINITY
            };
            t.row([
                m.to_string(),
                f1(agg.total_stall_ms),
                agg.total_demand_misses.to_string(),
                agg.total_demand_hits.to_string(),
                agg.total_prefetched.to_string(),
                agg.useful_prefetched.to_string(),
                format!("{:.0}%", agg.prefetch_precision() * 100.0),
                format!("{speedup:.1}x"),
            ]);
        }
        t.print();
        println!();
    }
    println!("shape check: scout > extrapolation > hilbert > markov ≈ none in speedup;");
    println!("markov is cold on first traversals of a fresh model — exactly the paper's");
    println!("argument against history-based prefetching (§3). The paper reports up to");
    println!("15x for SCOUT on (much larger) BBP walkthroughs.");
}

/// E5 (demo Figure 7): the join race — time, memory, comparisons.
/// Paper claims: TOUCH ≈ 10× faster than PBSM, ≈ 100× faster than S3 /
/// sweep-based joins at an equally small memory footprint.
fn e5_join_comparison() {
    println!("\n== E5 — TOUCH vs join baselines (Figure 7) ==\n");
    // The paper's regime is millions of segments on a supercomputer; we
    // scale down to ~20k-90k segments per side, which already separates
    // the algorithms cleanly. The O(n²) nested loop is only raced at the
    // smallest size.
    for &(neurons, eps, with_nested) in
        &[(100u32, 1.0f64, true), (400, 1.0, false), (400, 3.0, false)]
    {
        let circuit = dense_circuit(neurons, 3);
        let (a, b) = circuit.split_populations();
        println!("|A| = {}, |B| = {}, ε = {eps}", a.len(), b.len());

        let mut t = Table::new([
            "method",
            "total ms",
            "build ms",
            "probe ms",
            "comparisons",
            "aux MiB",
            "pairs",
            "vs touch",
        ]);
        let touch_time = TouchJoin::default().join(&a, &b, eps).stats.total_ms;
        let mut run = |name: &'static str, r: JoinResult| {
            t.row([
                name.to_string(),
                f1(r.stats.total_ms),
                f1(r.stats.build_ms),
                f1(r.stats.probe_ms),
                r.stats.total_comparisons().to_string(),
                f2(r.stats.aux_memory_bytes as f64 / (1024.0 * 1024.0)),
                r.pairs.len().to_string(),
                format!("{:.1}x", r.stats.total_ms / touch_time.max(1e-9)),
            ]);
        };
        run("touch", TouchJoin::default().join(&a, &b, eps));
        run("touch(4thr)", TouchJoin::parallel(4).join(&a, &b, eps));
        run("pbsm", PbsmJoin::default().join(&a, &b, eps));
        run("s3", S3Join::default().join(&a, &b, eps));
        run("plane-sweep", PlaneSweepJoin.join(&a, &b, eps));
        if with_nested {
            run("nested-loop", NestedLoopJoin.join(&a, &b, eps));
        }
        t.print();
        println!();
    }
    println!("shape check: touch fastest; pbsm within ~1 order; s3/sweep/nested slower by");
    println!("1-2+ orders on the dense configuration, pbsm pays the largest aux memory.");
}

/// E6 (§1 narrative): scaling with model size — build and query/join cost
/// as the circuit grows ("models of one million neurons or bigger can be
/// built and simulated today").
fn e6_scaling() {
    println!("\n== E6 — scaling with model size (§1) ==\n");
    let mut t = Table::new([
        "neurons",
        "segments",
        "flat build ms",
        "flat query µs",
        "rtree query µs",
        "touch join ms",
        "walk stall ms",
    ]);
    for &neurons in &[10u32, 20, 40, 80] {
        let circuit = dense_circuit(neurons, 11);
        let segments = circuit.segments().to_vec();

        let t0 = Instant::now();
        let flat =
            FlatIndex::build(segments.clone(), FlatBuildParams::default().with_page_capacity(64));
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let packed = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(64));

        let w = standard_workload(&circuit, 25, 20.0);
        let t1 = Instant::now();
        for q in &w.queries {
            let _ = flat.range_query(q);
        }
        let fq = t1.elapsed().as_secs_f64() * 1e6 / w.queries.len() as f64;
        let t2 = Instant::now();
        for q in &w.queries {
            let _ = packed.range_query(q);
        }
        let rq = t2.elapsed().as_secs_f64() * 1e6 / w.queries.len() as f64;

        let (pa, pb) = circuit.split_populations();
        let join_ms = TouchJoin::default().join(&pa, &pb, 1.5).stats.total_ms;

        let db = walkthrough_db(&circuit, walkthrough_config());
        // Dense circuits have short branches; accept shorter paths here —
        // this column tracks scaling, not prefetch quality.
        let paths: Vec<NavigationPath> = (0..32)
            .filter_map(|seed| NavigationPath::along_random_branch(&circuit, seed, 15.0, 18.0))
            .filter(|p| p.queries.len() >= 4)
            .take(3)
            .collect();
        let stall: f64 =
            paths.iter().map(|p| walk(&db, p, WalkthroughMethod::Scout).total_stall_ms).sum();

        t.row([
            neurons.to_string(),
            segments.len().to_string(),
            f1(build_ms),
            f1(fq),
            f1(rq),
            f1(join_ms),
            f1(stall),
        ]);
    }
    t.print();
    println!("\nshape check: FLAT query cost tracks the result size (which grows with");
    println!("density), not the dataset size; build and join scale near-linearly.");
}

/// E7 — sharded-vs-monolithic throughput race. For every backend, the
/// same batched query workload runs through the monolithic index and
/// through a [`ShardedIndex`] with `--shards` Hilbert partitions and
/// `--threads` workers; equal result counts are asserted (the
/// equivalence contract), wall time and queries/second are reported.
fn e7_throughput(backends: &[IndexBackend], shards: usize, threads: usize) {
    println!("\n== E7 — sharded executor throughput ({shards} shards, {threads} threads) ==\n");
    let circuit = dense_circuit(40, 7);
    let w = standard_workload(&circuit, 512, 15.0);
    println!(
        "{} segments, batch of {} range queries (data-centred, 30³), best of 3 runs\n",
        circuit.segments().len(),
        w.queries.len()
    );
    let mono_params = IndexParams::with_page_capacity(64);
    let shard_params = mono_params.sharded(shards).threaded(threads);
    /// Best-of-3 wall time in ms (the batch is deterministic, so the
    /// minimum is the least-perturbed measurement).
    fn best_of_3(mut f: impl FnMut()) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }

    let mut t = Table::new([
        "backend",
        "mono build ms",
        "shard build ms",
        "mono batch ms",
        "shard batch ms",
        "speedup",
        "mono q/s",
        "shard q/s",
    ]);
    for backend in backends {
        let t0 = Instant::now();
        let mono = backend.build(circuit.segments().to_vec(), &mono_params);
        let mono_build = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let sharded = backend.build_sharded(circuit.segments().to_vec(), &shard_params);
        let shard_build = t1.elapsed().as_secs_f64() * 1e3;

        // Warm-up pass (also checks the equivalence contract end to end),
        // then the timed passes.
        let warm_m = mono.range_query_many(&w.queries);
        let warm_s = sharded.range_query_many(&w.queries);
        for (m, s) in warm_m.iter().zip(&warm_s) {
            assert_eq!(m.sorted_ids(), s.sorted_ids(), "{backend} sharded answers diverge");
        }
        let mono_ms = best_of_3(|| {
            let _ = mono.range_query_many(&w.queries);
        });
        let shard_ms = best_of_3(|| {
            let _ = sharded.range_query_many(&w.queries);
        });

        let n = w.queries.len() as f64;
        t.row([
            backend.to_string(),
            f1(mono_build),
            f1(shard_build),
            f1(mono_ms),
            f1(shard_ms),
            format!("{:.2}x", mono_ms / shard_ms.max(1e-9)),
            f1(n / (mono_ms / 1e3).max(1e-9)),
            f1(n / (shard_ms / 1e3).max(1e-9)),
        ]);
    }
    t.print();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n(executor capped at {cores} hardware thread(s) on this machine)");
    println!("\nshape check: shard-bounds pruning keeps batched sharded execution at or");
    println!("above monolithic throughput even on one core; with multiple cores the batch");
    println!("fans out across workers and throughput scales with min(threads, cores) —");
    println!("the acceptance bar is sharded ≥ monolithic on batched queries at 4 threads.");
}

/// HOTPATH — the per-query hot path of every backend, monolithic and
/// sharded: a batched range-query workload through
/// `range_query_into_scratch` with one reused [`QueryScratch`] and result
/// buffer (SoA-lane MBR tests on the tree backends, epoch-stamped visited
/// marks).
///
/// The warm-up pass asserts every result set equal to a brute-force scan;
/// allocation counts come from the binary's counting global allocator;
/// everything is written machine-readably to `BENCH_hotpath.json`. Under
/// `--strict` the gate is 0 steady-state allocations per query on every
/// configuration.
///
/// Sharded configurations run with 1 worker thread here on purpose:
/// a single query never engages the pool, and one thread keeps the
/// allocation accounting attributable to the query.
fn hotpath(
    backends: &[IndexBackend],
    n: usize,
    queries: usize,
    shards: usize,
    out_path: &str,
    strict: bool,
) {
    println!("\n== HOTPATH — the allocation-free query path of every backend ==\n");
    let segments = sized_segments(n, 42);
    let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
    let half = 15.0;
    let w = RangeQueryWorkload::generate(
        1000,
        &bounds,
        queries,
        half,
        QueryPlacement::DataCentered,
        Some(&segments),
    );
    println!(
        "{} segments, batch of {} range queries ({:.0}³, data-centred), best of 3 runs",
        segments.len(),
        w.queries.len(),
        half * 2.0
    );
    println!("sharded configurations: {shards} shards, 1 worker thread\n");
    let scans: Vec<Vec<u64>> = w
        .queries
        .iter()
        .map(|q| {
            let mut ids: Vec<u64> =
                segments.iter().filter(|s| s.aabb().intersects(q)).map(|s| s.id).collect();
            ids.sort_unstable();
            ids
        })
        .collect();

    let mut t = Table::new(["backend", "build ms", "ns/q", "allocs/q", "nodes/q", "results/q"]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut zero_alloc = 0usize;
    let configs: Vec<(String, bool)> = backends
        .iter()
        .flat_map(|b| [(b.name().to_string(), false), (b.sharded_name(), true)])
        .collect();

    for (name, sharded) in &configs {
        let params = IndexParams::with_page_capacity(64).sharded(shards).threaded(1);
        let backend: IndexBackend = name.strip_prefix("sharded:").unwrap_or(name).parse().unwrap();
        let t0 = Instant::now();
        let idx = if *sharded {
            backend.build_sharded(segments.clone(), &params)
        } else {
            backend.build(segments.clone(), &params)
        };
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Warm-up pass: grows every scratch buffer to its steady-state
        // size and checks every answer against the scan.
        let mut scratch = QueryScratch::new();
        let mut buf: Vec<NeuronSegment> = Vec::new();
        let (mut nodes, mut results) = (0u64, 0u64);
        for (q, scan) in w.queries.iter().zip(&scans) {
            buf.clear();
            let stats = idx.range_query_into_scratch(q, &mut scratch, &mut buf);
            let mut ids: Vec<u64> = buf.iter().map(|s| s.id).collect();
            ids.sort_unstable();
            assert_eq!(&ids, scan, "{name}: result set differs from the scan at {q}");
            assert_eq!(stats.results as usize, scan.len(), "{name}: result count at {q}");
            nodes += stats.nodes_read;
            results += stats.results;
        }

        // Best-of-3 wall time, and the allocation count of the last pass
        // (every buffer is warm).
        let mut best_ms = f64::INFINITY;
        let mut allocs = 0u64;
        for _ in 0..3 {
            let a0 = allocations();
            let t = Instant::now();
            for q in &w.queries {
                buf.clear();
                let _ = idx.range_query_into_scratch(q, &mut scratch, &mut buf);
            }
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            allocs = allocations() - a0;
        }
        let nq = w.queries.len() as f64;
        let (ns, allocs) = (best_ms * 1e6 / nq, allocs as f64 / nq);
        if allocs == 0.0 {
            zero_alloc += 1;
        }
        t.row([
            name.clone(),
            f1(build_ms),
            f1(ns),
            f2(allocs),
            f1(nodes as f64 / nq),
            f1(results as f64 / nq),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"backend\": {:?}, \"sharded\": {}, \"build_ms\": {:.3}, ",
                "\"scratch_path_ns_per_query\": {:.1}, ",
                "\"allocs_per_query_scratch_path\": {:.2}, \"nodes_read_per_query\": {:.2}, ",
                "\"results_per_query\": {:.2}, \"exact\": true}}"
            ),
            name,
            sharded,
            build_ms,
            ns,
            allocs,
            nodes as f64 / nq,
            results as f64 / nq,
        ));
    }
    t.print();

    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"hotpath\",\n  \"segments\": {},\n  \"queries\": {},\n",
            "  \"query_half_extent\": {:.1},\n  \"shards\": {},\n  \"threads\": 1,\n",
            "  \"backends\": [\n{}\n  ]\n}}\n"
        ),
        segments.len(),
        w.queries.len(),
        half,
        shards,
        json_rows.join(",\n")
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
    println!(
        "\nshape check: every answer equals the scan, and the query path does 0 steady-state\n\
         allocs/query on {zero_alloc}/{} configs (acceptance: all).",
        configs.len()
    );
    // Under --strict (the CI bench-smoke gate) the acceptance bar is
    // enforced, not just printed: a reintroduced per-query allocation
    // fails the job instead of shipping silently.
    if strict && zero_alloc < configs.len() {
        eprintln!(
            "hotpath --strict: acceptance bar FAILED (zero-alloc {zero_alloc}/{}, need all)",
            configs.len()
        );
        std::process::exit(1);
    }
}

/// OOC — out-of-core FLAT on the real pager: the spill-beyond-RAM run.
///
/// One FLAT index is written to a checksummed page file, then the same
/// branch-following walkthroughs replay through a bounded frame pool at
/// 100 %, 50 % and 10 % of the dataset resident, with background
/// prefetching off (`none`, 0 workers) and on (`scout`, 2 workers).
/// Each configuration runs on a freshly opened index — a cold pool —
/// best of 3 passes by stall time. `stall ms` is real wall-clock time
/// the crawl spent waiting on demand page reads (not a simulated cost);
/// `queries/s` divides the steps by the time inside the queries alone,
/// think time excluded. Every step's result set is asserted identical
/// to the in-memory index.
///
/// A last pair of passes takes the I/O away (every page resident and
/// warm, no workers, no think time) to price a step's CPU: demand-only
/// is the crawl, and what SCOUT adds on top — its plan is computed and,
/// with no workers, dropped — is the plan.
///
/// Everything is written machine-readably to `BENCH_ooc.json`; under
/// `--strict` the acceptance bar — exact results everywhere,
/// prefetch-on stall <= prefetch-off stall at the 10 % budget, and
/// prefetch-on queries/s at the 100 % budget at least a quarter of
/// prefetch-off — becomes the exit code.
fn ooc_bench(n: usize, path_count: u64, think_ms: f64, out_path: &str, strict: bool) {
    use neurospatial::flat::FlatScratch;
    use neurospatial::scout::ooc::{frame_budget_for, write_flat_index};
    use neurospatial::scout::{OocConfig, OocFlatIndex};

    println!("\n== OOC — FLAT beyond RAM: walkthroughs on the real pager ==\n");

    // Grow a jagged circuit to >= n segments; the circuit drives path
    // generation, the indexed segment list is truncated to exactly n.
    let mut neurons = 4u32;
    let circuit = loop {
        let c = jagged_circuit(neurons, 9);
        if c.segments().len() >= n || neurons >= 4096 {
            break c;
        }
        neurons *= 2;
    };
    let mut segments = circuit.segments().to_vec();
    segments.truncate(n);
    let mem = FlatIndex::build(segments, FlatBuildParams::default().with_page_capacity(64));
    let pages = mem.page_count();

    let file = std::env::temp_dir()
        .join(format!("neurospatial-bench-ooc-{}.flatpages", std::process::id()));
    write_flat_index(&mem, &file).expect("write page file");
    let mib = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0) as f64 / (1024.0 * 1024.0);

    let paths = walkthrough_paths(&circuit, path_count);
    let steps: usize = paths.iter().map(|p| p.queries.len()).sum();
    println!(
        "{} segments in {pages} pages ({mib:.2} MiB on disk); {} walkthrough paths, \
         {steps} steps, {think_ms:.1} ms think time, best of 3 cold-pool passes",
        mem.len(),
        paths.len()
    );

    // Ground truth for every step, from the in-memory index.
    let mut mem_scratch = FlatScratch::default();
    let truth: Vec<Vec<u64>> = paths
        .iter()
        .flat_map(|p| p.queries.iter())
        .map(|q| {
            let mut ids = Vec::new();
            mem.range_query_stream(
                q,
                &mut mem_scratch,
                |_| {},
                |s| {
                    ids.push(s.id);
                    Flow::Emit
                },
            );
            ids
        })
        .collect();

    struct Row {
        pct: usize,
        frames: usize,
        prefetch: bool,
        policy: &'static str,
        stall_ms: f64,
        qps: f64,
        demand_misses: u64,
        demand_hits: u64,
        prefetched: u64,
        useful: u64,
        evictions: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut exact = true;

    for &pct in &[100usize, 50, 10] {
        let frames = frame_budget_for(pages, pct as u32);
        for prefetch in [false, true] {
            let (policy, method, workers) = if prefetch {
                ("scout", WalkthroughMethod::Scout, 2)
            } else {
                ("none", WalkthroughMethod::None, 0)
            };
            let mut best: Option<Row> = None;
            for pass in 0..3 {
                // A fresh open per pass: cold pool, cold counters.
                let cfg =
                    OocConfig::default().with_frame_budget(frames).with_prefetch_workers(workers);
                let ooc = OocFlatIndex::open(&file, cfg).expect("reopen page file");
                let (mut stall, mut misses, mut hits, mut prefetched) = (0.0f64, 0u64, 0u64, 0u64);
                let mut query_s = 0.0f64;
                let mut step_idx = 0usize;
                for p in &paths {
                    let mut cursor = ooc.cursor(method.prefetcher());
                    for q in &p.queries {
                        let t = Instant::now();
                        let trace = cursor.step(q).expect("validated page file");
                        query_s += t.elapsed().as_secs_f64();
                        stall += trace.stall_ms;
                        misses += trace.demand_misses;
                        hits += trace.demand_hits;
                        prefetched += trace.prefetched;
                        if pass == 0 {
                            let got: Vec<u64> = cursor.last_result().iter().map(|s| s.id).collect();
                            if got != truth[step_idx] {
                                eprintln!(
                                    "ooc: {pct}% budget prefetch={prefetch}: step {step_idx} \
                                     diverges from the in-memory index"
                                );
                                exact = false;
                            }
                        }
                        step_idx += 1;
                        if think_ms > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(think_ms / 1e3));
                        }
                    }
                }
                let fs = ooc.pool().stats();
                let row = Row {
                    pct,
                    frames,
                    prefetch,
                    policy,
                    stall_ms: stall,
                    qps: steps as f64 / query_s.max(1e-9),
                    demand_misses: misses,
                    demand_hits: hits,
                    prefetched,
                    useful: fs.prefetch_hits,
                    evictions: fs.evictions,
                };
                if best.as_ref().is_none_or(|b| row.stall_ms < b.stall_ms) {
                    best = Some(row);
                }
            }
            rows.push(best.expect("three passes ran"));
        }
    }

    // Best of 5 timed passes after a warming one, in µs per step.
    let cpu_us_per_step = |method: WalkthroughMethod| {
        let ooc = OocFlatIndex::open(&file, OocConfig::default()).expect("reopen page file");
        let pass = || {
            let mut step_s = 0.0f64;
            for p in &paths {
                let mut cursor = ooc.cursor(method.prefetcher());
                for q in &p.queries {
                    let t = Instant::now();
                    cursor.step(q).expect("validated page file");
                    step_s += t.elapsed().as_secs_f64();
                }
            }
            step_s * 1e6 / steps.max(1) as f64
        };
        pass();
        (0..5).map(|_| pass()).fold(f64::INFINITY, f64::min)
    };
    let crawl_cpu_us = cpu_us_per_step(WalkthroughMethod::None);
    let plan_cpu_us = (cpu_us_per_step(WalkthroughMethod::Scout) - crawl_cpu_us).max(0.0);
    std::fs::remove_file(&file).ok();

    let mut t = Table::new([
        "budget",
        "frames",
        "prefetch",
        "stall ms",
        "queries/s",
        "demand miss",
        "demand hit",
        "prefetched",
        "useful",
        "evictions",
    ]);
    for r in &rows {
        t.row([
            format!("{}%", r.pct),
            r.frames.to_string(),
            r.policy.to_string(),
            f2(r.stall_ms),
            f1(r.qps),
            r.demand_misses.to_string(),
            r.demand_hits.to_string(),
            r.prefetched.to_string(),
            r.useful.to_string(),
            r.evictions.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nCPU per step with every page resident: crawl {crawl_cpu_us:.1} us, \
         SCOUT plan {plan_cpu_us:.1} us on top"
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"budget_pct\": {}, \"frames\": {}, \"prefetch\": {}, ",
                    "\"policy\": {:?}, \"stall_ms\": {:.3}, \"queries_per_sec\": {:.1}, ",
                    "\"demand_misses\": {}, \"demand_hits\": {}, \"prefetched\": {}, ",
                    "\"useful_prefetched\": {}, \"evictions\": {}}}"
                ),
                r.pct,
                r.frames,
                r.prefetch,
                r.policy,
                r.stall_ms,
                r.qps,
                r.demand_misses,
                r.demand_hits,
                r.prefetched,
                r.useful,
                r.evictions,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"ooc\",\n  \"segments\": {},\n  \"pages\": {},\n",
            "  \"page_file_mib\": {:.2},\n  \"paths\": {},\n  \"steps\": {},\n",
            "  \"think_ms\": {:.1},\n  \"exact\": {},\n  \"crawl_cpu_us\": {:.1},\n",
            "  \"plan_cpu_us\": {:.1},\n  \"configs\": [\n{}\n  ]\n}}\n"
        ),
        mem.len(),
        pages,
        mib,
        paths.len(),
        steps,
        think_ms,
        exact,
        crawl_cpu_us,
        plan_cpu_us,
        json_rows.join(",\n")
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");

    let row_at = |pct: usize, prefetch: bool| {
        rows.iter().find(|r| r.pct == pct && r.prefetch == prefetch).expect("every config ran")
    };
    let (off10, on10) = (row_at(10, false).stall_ms, row_at(10, true).stall_ms);
    let (qps_off, qps_on) = (row_at(100, false).qps, row_at(100, true).qps);
    println!(
        "\nshape check: every step byte-identical to the in-memory index (exact: {exact});\n\
         at the 10% budget prefetching takes stall {off10:.2} ms -> {on10:.2} ms \
         (acceptance: on <= off);\n\
         at the 100% budget a step with SCOUT runs at {qps_on:.0} q/s against {qps_off:.0} \
         without (acceptance: at least a quarter)."
    );
    // Under --strict (the CI bench-smoke gate) the acceptance bar is
    // enforced, not just printed. Exactness is deterministic. The stall
    // comparison races real background reads against real demand reads,
    // best of 3 cold passes per side; at full size the margin is
    // structural (misses turned into hits). At smoke sizes a 10% budget
    // can be as small as a single step's working set, where the best a
    // prefetcher can do is break even — a quarter-millisecond noise
    // floor keeps scheduler jitter on a tie from flaking the gate,
    // while a real regression (prefetch gone synchronous, demand hits
    // lost) overshoots it by an order of magnitude at any size.
    // The throughput bar holds SCOUT's own cost: with everything
    // resident a step with the policy on pays the plan on top of the
    // crawl and nothing else, so falling below a quarter of the
    // demand-only rate means the prediction is back on the step's
    // critical path.
    let slack = (off10 * 0.05).max(0.25);
    if strict && (!exact || on10 > off10 + slack || qps_on < qps_off / 4.0) {
        eprintln!(
            "ooc --strict: acceptance bar FAILED (exact {exact}, stall at 10% budget: \
             prefetch-on {on10:.3} ms vs prefetch-off {off10:.3} ms + {slack:.3} ms noise floor; \
             queries/s at 100% budget: prefetch-on {qps_on:.0} vs prefetch-off {qps_off:.0} / 4)"
        );
        std::process::exit(1);
    }
}

/// Faults — resilience under seeded transient-I/O storms: range queries
/// on the paged FLAT engine at 0% / 1% / 5% injected fault rates,
/// prefetch off and on, at a frame budget small enough that pages are
/// re-read (and so re-exposed to the schedule) constantly. Measures
/// query p50/p99 latency, queries/s and the retry / quarantine
/// counters, and checks every result against the fault-free run —
/// transient faults must cost retries, never correctness.
///
/// Everything lands in `BENCH_faults.json`. Under `--strict` (the CI
/// bench-smoke gate) the acceptance bar is the exit code: byte-identical
/// recovery in every lane, zero quarantined pages, and a 5% lane that
/// demonstrably exercised the retry path.
fn faults_bench(n: usize, query_count: usize, seed: u64, out_path: &str, strict: bool) {
    use neurospatial::scout::ooc::{frame_budget_for, write_flat_index};
    use neurospatial::scout::{OocConfig, OocFlatIndex, OocScratch};
    use neurospatial::storage::{FaultFile, FaultPlan};
    use std::sync::Arc;

    println!("\n== FAULTS — paged queries under injected transient-I/O storms ==\n");

    let mut neurons = 4u32;
    let circuit = loop {
        let c = jagged_circuit(neurons, 11);
        if c.segments().len() >= n || neurons >= 4096 {
            break c;
        }
        neurons *= 2;
    };
    let mut segments = circuit.segments().to_vec();
    segments.truncate(n);
    let mem = FlatIndex::build(segments, FlatBuildParams::default().with_page_capacity(64));
    let pages = mem.page_count();
    let frames = frame_budget_for(pages, 10);
    let file = std::env::temp_dir()
        .join(format!("neurospatial-bench-faults-{}.flatpages", std::process::id()));
    write_flat_index(&mem, &file).expect("write page file");

    // A seeded query mix spanning the data: every box is derived from
    // the seed, so a red run replays with --seed.
    let mix = |x: u64| {
        let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let frac = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
    let bounds = mem.bounds();
    let boxes: Vec<Aabb> = (0..query_count as u64)
        .map(|i| {
            let (hx, hy, hz, hr) =
                (mix(seed ^ i), mix(seed ^ i ^ 1), mix(seed ^ i ^ 2), mix(seed ^ i ^ 3));
            let at = |f: f64, lo: f64, hi: f64| lo + f * (hi - lo);
            let center = Vec3::new(
                at(frac(hx), bounds.lo.x, bounds.hi.x),
                at(frac(hy), bounds.lo.y, bounds.hi.y),
                at(frac(hz), bounds.lo.z, bounds.hi.z),
            );
            Aabb::cube(center, 2.0 + frac(hr) * 18.0)
        })
        .collect();
    println!(
        "{} segments in {pages} pages, {frames}-frame budget (10%, so queries keep paging); \
         {} seeded query boxes x 3 passes, seed {seed:#x}",
        mem.len(),
        boxes.len()
    );

    // Fault-free ground truth through the same paged engine.
    let truth: Vec<Vec<NeuronSegment>> = {
        let clean = OocFlatIndex::open(&file, OocConfig::default().with_frame_budget(frames))
            .expect("clean open");
        let mut scratch = OocScratch::new();
        boxes
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                clean.range_query_into(q, &mut scratch, &mut out).expect("clean query");
                out
            })
            .collect()
    };

    struct Row {
        permille: u32,
        prefetch: bool,
        p50_ms: f64,
        p99_ms: f64,
        qps: f64,
        retries: u64,
        injected: u64,
        quarantined: u64,
        exact: bool,
    }
    let mut rows: Vec<Row> = Vec::new();

    for &permille in &[0u32, 10, 50] {
        for prefetch in [false, true] {
            let workers = if prefetch { 2 } else { 0 };
            let plan = FaultPlan::new(seed ^ u64::from(permille))
                .with_transient_permille(permille)
                .with_max_consecutive(2);
            assert!(plan.is_transient_only());
            let injected_plan = plan.clone();
            let cfg = OocConfig::default().with_frame_budget(frames).with_prefetch_workers(workers);
            // Keep a handle to the fault layer so its injection counter
            // is readable after the index takes ownership.
            let probe: Arc<std::sync::OnceLock<Arc<FaultFile<neurospatial::storage::PageFile>>>> =
                Arc::new(std::sync::OnceLock::new());
            let probe_in = Arc::clone(&probe);
            let ooc = OocFlatIndex::open_with(&file, cfg, move |f| {
                let faulty = Arc::new(FaultFile::new(f, injected_plan));
                probe_in.set(Arc::clone(&faulty)).ok();
                faulty
            })
            .expect("a transient-only plan survives the validating open");

            let mut scratch = OocScratch::new();
            let mut out = Vec::new();
            let mut lat_ms: Vec<f64> = Vec::with_capacity(boxes.len() * 3);
            let (mut retries, mut query_s, mut exact) = (0u64, 0.0f64, true);
            // Three passes: the tight budget keeps evicting, so pages are
            // re-read — and re-exposed to the fault schedule — every pass.
            for _ in 0..3 {
                for (q, want) in boxes.iter().zip(&truth) {
                    let t = Instant::now();
                    let stats = ooc
                        .range_query_into(q, &mut scratch, &mut out)
                        .expect("transient faults must be retried, not surfaced");
                    let dt = t.elapsed().as_secs_f64();
                    query_s += dt;
                    lat_ms.push(dt * 1e3);
                    retries += stats.io.retries;
                    if &out != want {
                        eprintln!("faults: {permille}permille prefetch={prefetch}: {q} diverges");
                        exact = false;
                    }
                }
            }
            lat_ms.sort_by(f64::total_cmp);
            let pct = |p: f64| lat_ms[((lat_ms.len() - 1) as f64 * p) as usize];
            rows.push(Row {
                permille,
                prefetch,
                p50_ms: pct(0.50),
                p99_ms: pct(0.99),
                qps: lat_ms.len() as f64 / query_s.max(1e-9),
                retries,
                injected: probe.get().map_or(0, |f| f.injected_faults()),
                quarantined: ooc.quarantined_pages().len() as u64,
                exact,
            });
        }
    }
    std::fs::remove_file(&file).ok();

    // ---- WAL write-path fault points --------------------------------
    // The read path above proves queries survive I/O storms; these three
    // drills prove the *write* path holds its durability contract at the
    // nastiest points of the lifecycle. Offsets are in bytes through the
    // fault seam: a fresh build pushes the new file's header append plus
    // the initial checkpoint image through it, so the op stream starts
    // at file_len + header.
    struct WalRow {
        name: &'static str,
        pass: bool,
        recover_ms: f64,
        detail: String,
    }
    let wal_rows: Vec<WalRow> = {
        use neurospatial::storage::wal::WAL_HEADER_BYTES;
        let circuit = CircuitBuilder::new(seed % 8192).neurons(6).build();
        let base_len = circuit.segments().len();
        let fresh = |id: u64, x: f64| NeuronSegment {
            id,
            neuron: 90_000 + id as u32,
            section: 0,
            index_on_section: 0,
            geom: neurospatial::geom::Segment::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 1.0, 0.0, 0.0),
                0.4,
            ),
        };
        let wal_path = |tag: &str| {
            std::env::temp_dir()
                .join(format!("neurospatial-bench-wal-{tag}-{}.wal", std::process::id()))
        };
        // Fault-free run: learn the on-disk size right after build, the
        // base every crash/flip offset is measured from.
        let build_len = {
            let p = wal_path("measure");
            let db = NeuroDb::builder().circuit(&circuit).durable(&p).build().expect("live");
            drop(db);
            let len = std::fs::metadata(&p).expect("wal exists").len();
            std::fs::remove_file(&p).ok();
            len
        };
        let ops_start = build_len + WAL_HEADER_BYTES as u64;
        let mut rows = Vec::new();

        // Drill 1 — torn tail: the log dies 10 bytes into the first
        // batch. The write must error (no ack), and recovery must
        // detect the tear, truncate it, and replay nothing.
        {
            let p = wal_path("torn");
            let plan = FaultPlan::new(seed).with_write_crash_at(ops_start + 10);
            let write_err = {
                let db = NeuroDb::builder()
                    .circuit(&circuit)
                    .durable(&p)
                    .wal_faults(plan)
                    .build()
                    .expect("crash point is past the build");
                db.insert_segment(fresh(700_000, 50.0)).is_err()
            };
            let t = Instant::now();
            let db = NeuroDb::builder().segments(vec![]).durable(&p).build().expect("recover");
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            let h = db.wal_health().expect("live");
            let pass =
                write_err && h.recovered_torn_tail && h.replayed_ops == 0 && db.len() == base_len;
            rows.push(WalRow {
                name: "torn_tail",
                pass,
                recover_ms,
                detail: format!(
                    "write_errored={write_err} torn={} replayed={}",
                    h.recovered_torn_tail, h.replayed_ops
                ),
            });
            std::fs::remove_file(&p).ok();
        }

        // Drill 2 — checksum flip inside a *committed* record: the
        // write acks over the silent corruption, and the reopen must
        // refuse the log with a typed error — never quietly truncate
        // acked history.
        {
            let p = wal_path("flip");
            let plan = FaultPlan::new(seed).with_write_flip(ops_start + 25, 0x20);
            let acked = {
                let db = NeuroDb::builder()
                    .circuit(&circuit)
                    .durable(&p)
                    .wal_faults(plan)
                    .build()
                    .expect("flips do not fail the build");
                db.insert_segment(fresh(700_001, 60.0)).is_ok()
            };
            let t = Instant::now();
            let reopen = NeuroDb::builder().segments(vec![]).durable(&p).build();
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            let refused = matches!(reopen, Err(NeuroError::Storage(_)));
            rows.push(WalRow {
                name: "flip_committed",
                pass: acked && refused,
                recover_ms,
                detail: format!("acked={acked} reopen_refused={refused}"),
            });
            std::fs::remove_file(&p).ok();
        }

        // Drill 3 — crash between commit and ack: the batch is durable
        // but the caller never hears back. Recovery must replay it —
        // the client-side at-most-once retry policy (never resend an
        // ack-unknown write) is what keeps this from double-applying.
        {
            let p = wal_path("unacked");
            {
                let db = NeuroDb::builder().circuit(&circuit).durable(&p).build().expect("live");
                db.insert_segment(fresh(700_002, 70.0)).expect("committed");
                // Process dies here: no checkpoint, the ack never left.
            }
            let t = Instant::now();
            let db = NeuroDb::builder().segments(vec![]).durable(&p).build().expect("recover");
            let recover_ms = t.elapsed().as_secs_f64() * 1e3;
            let h = db.wal_health().expect("live");
            let replayed = h.replayed_ops == 1 && db.len() == base_len + 1;
            rows.push(WalRow {
                name: "commit_without_ack",
                pass: replayed,
                recover_ms,
                detail: format!("replayed={} len_delta={}", h.replayed_ops, db.len() - base_len),
            });
            std::fs::remove_file(&p).ok();
        }
        rows
    };

    let mut t = Table::new([
        "fault rate",
        "prefetch",
        "p50 ms",
        "p99 ms",
        "queries/s",
        "retries",
        "injected",
        "quarantined",
        "exact",
    ]);
    for r in &rows {
        t.row([
            format!("{:.1}%", f64::from(r.permille) / 10.0),
            if r.prefetch { "scout".into() } else { "none".to_string() },
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
            f1(r.qps),
            r.retries.to_string(),
            r.injected.to_string(),
            r.quarantined.to_string(),
            r.exact.to_string(),
        ]);
    }
    t.print();

    println!("\nWAL write-path fault points:");
    let mut wt = Table::new(["fault point", "pass", "recover ms", "detail"]);
    for r in &wal_rows {
        wt.row([
            r.name.to_string(),
            r.pass.to_string(),
            format!("{:.3}", r.recover_ms),
            r.detail.clone(),
        ]);
    }
    wt.print();

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"transient_permille\": {}, \"prefetch\": {}, ",
                    "\"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"queries_per_sec\": {:.1}, ",
                    "\"retries\": {}, \"injected_faults\": {}, \"pages_quarantined\": {}, ",
                    "\"exact\": {}}}"
                ),
                r.permille,
                r.prefetch,
                r.p50_ms,
                r.p99_ms,
                r.qps,
                r.retries,
                r.injected,
                r.quarantined,
                r.exact,
            )
        })
        .collect();
    let wal_json: Vec<String> = wal_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"fault_point\": {:?}, \"pass\": {}, \"recover_ms\": {:.4}, \
                 \"detail\": {:?}}}",
                r.name, r.pass, r.recover_ms, r.detail
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"faults\",\n  \"segments\": {},\n  \"pages\": {},\n",
            "  \"frames\": {},\n  \"queries\": {},\n  \"seed\": {},\n  \"configs\": [\n{}\n  ],\n",
            "  \"wal\": [\n{}\n  ]\n}}\n"
        ),
        mem.len(),
        pages,
        frames,
        boxes.len(),
        seed,
        json_rows.join(",\n"),
        wal_json.join(",\n")
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");

    let exact_all = rows.iter().all(|r| r.exact);
    let quarantined: u64 = rows.iter().map(|r| r.quarantined).sum();
    let storm_retries: u64 = rows.iter().filter(|r| r.permille == 50).map(|r| r.retries).sum();
    let wal_all = wal_rows.iter().all(|r| r.pass);
    println!(
        "\nshape check: byte-identical recovery in every lane (exact: {exact_all}), \
         {quarantined} pages quarantined (acceptance: 0), \
         {storm_retries} retries absorbed at the 5% rate (acceptance: > 0), \
         WAL fault points held (acceptance: all 3): {wal_all}."
    );
    // Under --strict (the CI bench-smoke gate) the bar is enforced, not
    // just printed: all four checks are deterministic given the seed.
    if strict && (!exact_all || quarantined != 0 || storm_retries == 0 || !wal_all) {
        eprintln!(
            "faults --strict: acceptance bar FAILED (exact {exact_all}, quarantined \
             {quarantined}, retries at 5% {storm_retries}, wal {wal_all})"
        );
        std::process::exit(1);
    }
}

/// The sorted ids of a range query through the database's query builder.
fn range_ids(db: &NeuroDb, region: &Aabb) -> Vec<u64> {
    db.query().range(*region).collect().expect("in-memory range").sorted_ids()
}

/// INGEST — sustained durable writes racing concurrent readers across
/// background re-freezes.
///
/// One writer drives single-op durable inserts (every 8th op removes an
/// earlier insert) into a live WAL-backed database while `readers`
/// threads query non-stop: one fixed region over the frozen base —
/// whose answer must never change, catching any torn snapshot swap —
/// and the band the writer is filling. A maintenance poller re-freezes
/// whenever the delta passes `writes / 8` pending ops, so the run
/// crosses several atomic base swaps.
///
/// Reported: acked inserts/s, ack p50/p99, query p50/p99 *during*
/// ingest, and swap count. Under `--strict` (the CI bench-smoke gate):
/// at least one background swap, every base-region read byte-identical,
/// the final state exact, and query p99 bounded (< 100 ms) across the
/// swaps.
fn ingest_bench(n: usize, writes: usize, readers: usize, seed: u64, out_path: &str, strict: bool) {
    use std::sync::atomic::AtomicBool;

    println!("\n== INGEST — durable writes vs concurrent readers across swaps ==\n");

    let mut neurons = 4u32;
    let circuit = loop {
        let c = jagged_circuit(neurons, 13);
        if c.segments().len() >= n || neurons >= 4096 {
            break c;
        }
        neurons *= 2;
    };
    let mut segments = circuit.segments().to_vec();
    segments.truncate(n);
    let base_len = segments.len();

    let wal =
        std::env::temp_dir().join(format!("neurospatial-bench-ingest-{}.wal", std::process::id()));
    std::fs::remove_file(&wal).ok();
    let threshold = (writes / 8).max(64);
    let db = NeuroDb::builder()
        .segments(segments)
        .durable(&wal)
        .refreeze_threshold(threshold)
        .build()
        .expect("live database");

    // The writer fills a band far outside the base data; the base
    // region's answer is therefore an invariant every reader can check
    // on every single read, across every swap.
    let base_region = Aabb::cube(db.bounds().center(), 40.0);
    let base_truth = range_ids(&db, &base_region);
    let band = |i: u64| Vec3::new(50_000.0 + (i % 512) as f64 * 4.0, (i / 512) as f64 * 4.0, 0.0);
    let band_region = Aabb::cube(Vec3::new(51_000.0, 2_000.0, 0.0), 10_000.0);
    let fresh = |i: u64| {
        let p = band(i);
        NeuronSegment {
            id: 10_000_000 + i,
            neuron: 100_000 + i as u32,
            section: 0,
            index_on_section: i as u32,
            geom: neurospatial::geom::Segment::new(p, p + Vec3::new(1.5, 0.0, 0.5), 0.3),
        }
    };
    println!(
        "{base_len} base segments, {writes} durable writes (1 remove per 8 inserts), \
         {readers} readers, refreeze threshold {threshold}, seed {seed:#x}"
    );

    struct Ingest {
        acks: usize,
        ack_ms: Vec<f64>,
        write_s: f64,
        read_ms: Vec<f64>,
        reads: u64,
        base_exact: bool,
        expect_live: Vec<u64>,
        /// The most generations any reader saw alive at once.
        generations_max: u64,
    }
    let out = db.with_ingest_maintenance(Duration::from_millis(1), |db| {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..readers.max(1) {
                handles.push(scope.spawn(|| {
                    let mut lat = Vec::new();
                    let (mut reads, mut exact, mut generations) = (0u64, true, 0u64);
                    while !stop.load(Ordering::Acquire) {
                        let t = Instant::now();
                        let got = range_ids(db, &base_region);
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        exact &= got == base_truth;
                        let t = Instant::now();
                        range_ids(db, &band_region);
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        reads += 2;
                        generations =
                            generations.max(db.wal_health().expect("live").generations_alive);
                    }
                    (lat, reads, exact, generations)
                }));
            }

            let mut ack_ms = Vec::with_capacity(writes);
            let mut live: Vec<u64> = Vec::new();
            let started = Instant::now();
            for i in 0..writes as u64 {
                if i % 8 == 7 {
                    // Remove a seed-picked earlier insert: the delta sees
                    // both sides of the lifecycle, not just growth.
                    let at = (seed.wrapping_mul(i | 1) >> 7) as usize % live.len();
                    let id = live.swap_remove(at);
                    let t = Instant::now();
                    db.remove_segment(id).expect("acked remove");
                    ack_ms.push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    let t = Instant::now();
                    db.insert_segment(fresh(i)).expect("acked insert");
                    ack_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    live.push(10_000_000 + i);
                }
            }
            let write_s = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::Release);

            let (mut read_ms, mut reads, mut base_exact) = (Vec::new(), 0u64, true);
            let mut generations_max = 0;
            for h in handles {
                let (lat, r, exact, generations) = h.join().expect("reader");
                read_ms.extend(lat);
                reads += r;
                base_exact &= exact;
                generations_max = generations_max.max(generations);
            }
            live.sort_unstable();
            Ingest {
                acks: writes,
                ack_ms,
                write_s,
                read_ms,
                reads,
                base_exact,
                expect_live: live,
                generations_max,
            }
        })
    });

    // Swaps observed, then the final-state check after one last freeze
    // folds the remaining delta in.
    let swaps = db.wal_health().expect("live").epoch;
    db.refreeze().expect("final freeze");
    let mut band_ids = range_ids(&db, &band_region);
    band_ids.retain(|id| *id >= 10_000_000);
    let final_exact = band_ids == out.expect_live && range_ids(&db, &base_region) == base_truth;
    // At rest only the current generation is left, whatever `swaps` was;
    // under load it is that, the one being built, and one per reader.
    let generations_end = db.wal_health().expect("live").generations_alive;
    let generations_max = out.generations_max;
    let generations_bound = readers.max(1) as u64 + 2;
    std::fs::remove_file(&wal).ok();

    let pct = |v: &mut Vec<f64>, p: f64| {
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            v[((v.len() - 1) as f64 * p) as usize]
        }
    };
    let (mut ack_ms, mut read_ms) = (out.ack_ms, out.read_ms);
    let (ack_p50, ack_p99) = (pct(&mut ack_ms, 0.50), pct(&mut ack_ms, 0.99));
    let (q_p50, q_p99) = (pct(&mut read_ms, 0.50), pct(&mut read_ms, 0.99));
    let writes_per_sec = out.acks as f64 / out.write_s.max(1e-9);

    let mut t = Table::new([
        "writes/s",
        "ack p50 ms",
        "ack p99 ms",
        "query p50 ms",
        "query p99 ms",
        "reads",
        "swaps",
        "gens max",
        "gens end",
        "base exact",
        "final exact",
    ]);
    t.row([
        f1(writes_per_sec),
        format!("{ack_p50:.3}"),
        format!("{ack_p99:.3}"),
        format!("{q_p50:.4}"),
        format!("{q_p99:.4}"),
        out.reads.to_string(),
        swaps.to_string(),
        generations_max.to_string(),
        generations_end.to_string(),
        out.base_exact.to_string(),
        final_exact.to_string(),
    ]);
    t.print();

    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"ingest\",\n  \"base_segments\": {},\n  \"writes\": {},\n",
            "  \"readers\": {},\n  \"refreeze_threshold\": {},\n  \"seed\": {},\n",
            "  \"writes_per_sec\": {:.1},\n  \"ack_p50_ms\": {:.4},\n  \"ack_p99_ms\": {:.4},\n",
            "  \"query_p50_ms\": {:.4},\n  \"query_p99_ms\": {:.4},\n  \"reads\": {},\n",
            "  \"swaps\": {},\n  \"generations_alive_max\": {},\n",
            "  \"generations_alive_end\": {},\n  \"base_reads_exact\": {},\n",
            "  \"final_exact\": {}\n}}\n"
        ),
        base_len,
        out.acks,
        readers,
        threshold,
        seed,
        writes_per_sec,
        ack_p50,
        ack_p99,
        q_p50,
        q_p99,
        out.reads,
        swaps,
        generations_max,
        generations_end,
        out.base_exact,
        final_exact,
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");

    println!(
        "\nshape check: {swaps} background swaps (acceptance: >= 1), base-region reads \
         byte-identical across swaps: {}, final state exact: {final_exact}, query p99 \
         {q_p99:.3} ms (acceptance: < 100 ms), generations alive at most {generations_max} \
         (acceptance: <= {generations_bound}) and {generations_end} at the end (acceptance: 1).",
        out.base_exact
    );
    if strict
        && (swaps < 1
            || !out.base_exact
            || !final_exact
            || q_p99 >= 100.0
            || generations_end != 1
            || generations_max > generations_bound)
    {
        eprintln!(
            "ingest --strict: acceptance bar FAILED (swaps {swaps}, base_exact {}, \
             final_exact {final_exact}, query p99 {q_p99:.3} ms, generations alive max \
             {generations_max} end {generations_end})",
            out.base_exact
        );
        std::process::exit(1);
    }
}

/// Join — the TOUCH engine on a segment-cloud distance join at every
/// thread count; PBSM, plane-sweep, S3 and (on small inputs) the nested
/// loop provide the baseline axis and the pair-set oracle.
///
/// Two measurements per thread count:
///
/// * **cold**: one full `join()` — build + assign + join, what a
///   one-shot caller pays;
/// * **steady**: a prebuilt [`TouchEngine`] driven through one warm
///   [`JoinScratch`] — the repeated-join regime; allocs/pair comes from
///   the binary's counting allocator (and must be exactly 0 at one
///   thread).
///
/// Everything is written machine-readably to `BENCH_touch.json`; under
/// `--strict` the acceptance bar (identical pair sets at every thread
/// count — asserted — and 0 steady-state allocs at one thread) becomes
/// the exit code.
fn join_bench(
    n: usize,
    eps: f64,
    fanout: usize,
    sweep_min: usize,
    max_threads: usize,
    out_path: &str,
    strict: bool,
) {
    println!("\n== JOIN — the TOUCH engine, cold and steady, beside its baselines ==\n");
    neurospatial::touch::register_allocation_probe(allocations);
    // Split one dense cloud into the two join sides by neuron parity
    // (the E5 split-populations pattern): both populations share the
    // same tissue volume, so the ε-join is genuinely dense — but no
    // segment ever trivially touches its own neighbour on the branch.
    let all = sized_segments(2 * n, 42);
    let a: Vec<NeuronSegment> = all.iter().filter(|s| s.neuron % 2 == 0).cloned().collect();
    let b: Vec<NeuronSegment> = all.iter().filter(|s| s.neuron % 2 == 1).cloned().collect();
    let mut thread_counts = vec![1usize];
    while *thread_counts.last().unwrap() * 2 <= max_threads.max(1) {
        thread_counts.push(thread_counts.last().unwrap() * 2);
    }
    println!(
        "|A| = {}, |B| = {}, ε = {eps}, fanout {fanout}, sweep_min {sweep_min}, threads {:?}\n",
        a.len(),
        b.len(),
        thread_counts
    );

    /// Best of 3 runs; returns (result of last run, best total ms,
    /// allocations of the last run).
    fn race_join(mut f: impl FnMut() -> JoinResult) -> (JoinResult, f64, u64) {
        let mut best = f64::INFINITY;
        let mut last = JoinResult::default();
        let mut allocs = 0;
        for _ in 0..3 {
            let a0 = allocations();
            let r = f();
            allocs = allocations() - a0;
            best = best.min(r.stats.total_ms);
            last = r;
        }
        (last, best, allocs)
    }

    let mut t = Table::new([
        "config",
        "threads",
        "total ms",
        "build ms",
        "assign ms",
        "join ms",
        "tasks",
        "imbalance",
        "pairs",
        "Kpairs/s",
        "allocs/pair",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let row = |t: &mut Table,
               json_rows: &mut Vec<String>,
               config: &str,
               threads: usize,
               total_ms: f64,
               s: &JoinStats,
               allocs: u64| {
        let pairs_per_sec = s.results as f64 / (total_ms / 1e3).max(1e-9);
        let allocs_per_pair = allocs as f64 / (s.results as f64).max(1.0);
        t.row([
            config.to_string(),
            threads.to_string(),
            f1(total_ms),
            f1(s.build_ms),
            f1(s.assign_ms),
            f1(s.join_ms),
            s.join_tasks.to_string(),
            // Only the engine cuts its join into tasks.
            if s.join_tasks > 0 { format!("{:.2}", s.join_imbalance) } else { "-".to_string() },
            s.results.to_string(),
            f1(pairs_per_sec / 1e3),
            format!("{allocs_per_pair:.4}"),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"config\": {:?}, \"threads\": {}, \"total_ms\": {:.3}, ",
                "\"build_ms\": {:.3}, \"assign_ms\": {:.3}, \"join_ms\": {:.3}, ",
                "\"pairs\": {}, \"pairs_per_sec\": {:.0}, \"allocs_per_pair\": {:.4}, ",
                "\"filter_comparisons\": {}, \"refine_comparisons\": {}}}"
            ),
            config,
            threads,
            total_ms,
            s.build_ms,
            s.assign_ms,
            s.join_ms,
            s.results,
            pairs_per_sec,
            allocs_per_pair,
            s.filter_comparisons,
            s.refine_comparisons,
        ));
    };

    // --- The engine at every thread count: cold, then steady -------------
    let reference = PbsmJoin::default().join(&a, &b, eps).sorted_pairs();
    let mut steady_allocs_1thr = u64::MAX;
    for &threads in &thread_counts {
        let join = TouchJoin { fanout, threads, sweep_min };
        let (cold_r, cold_ms, cold_allocs) = race_join(|| join.join(&a, &b, eps));
        assert_eq!(
            cold_r.sorted_pairs(),
            reference,
            "engine pair set diverges from PBSM at {threads} thread(s)"
        );
        row(&mut t, &mut json_rows, "touch", threads, cold_ms, &cold_r.stats, cold_allocs);

        // Steady state: prebuilt engine, warm scratch and output buffer.
        let engine = TouchEngine::build(&a, fanout);
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        engine.join_into(&b, eps, threads, sweep_min, &mut scratch, &mut out); // warm-up
        if threads == 1 {
            let rep = scratch.report();
            let hist: Vec<String> = rep.histogram.iter().map(|c| c.to_string()).collect();
            println!(
                "assignment: mean depth {:.2}, filtered {}, histogram [{}]\n",
                rep.mean_depth(),
                rep.filtered_out,
                hist.join(" ")
            );
        }
        let mut best = f64::INFINITY;
        let mut steady = JoinStats::default();
        for _ in 0..3 {
            let s = engine.join_into(&b, eps, threads, sweep_min, &mut scratch, &mut out);
            best = best.min(s.total_ms);
            steady = s;
        }
        out.sort_unstable();
        assert_eq!(out, reference, "steady pair set diverges from PBSM at {threads} thread(s)");
        if threads == 1 {
            steady_allocs_1thr = steady.allocations;
        }
        row(&mut t, &mut json_rows, "touch (steady)", threads, best, &steady, steady.allocations);
    }

    // --- Baselines ------------------------------------------------------
    let (r, ms, al) = race_join(|| PbsmJoin::default().join(&a, &b, eps));
    row(&mut t, &mut json_rows, "pbsm", 1, ms, &r.stats, al);
    let (r, ms, al) = race_join(|| PlaneSweepJoin.join(&a, &b, eps));
    assert_eq!(r.sorted_pairs(), reference, "plane-sweep diverges");
    row(&mut t, &mut json_rows, "plane-sweep", 1, ms, &r.stats, al);
    let (r, ms, al) = race_join(|| S3Join { fanout }.join(&a, &b, eps));
    assert_eq!(r.sorted_pairs(), reference, "s3 diverges");
    row(&mut t, &mut json_rows, "s3", 1, ms, &r.stats, al);
    if n <= 4000 {
        let (r, ms, al) = race_join(|| NestedLoopJoin.join(&a, &b, eps));
        assert_eq!(r.sorted_pairs(), reference, "nested-loop diverges");
        row(&mut t, &mut json_rows, "nested-loop", 1, ms, &r.stats, al);
    } else {
        println!("(nested-loop skipped at |A| > 4000 — O(n²))");
    }
    t.print();

    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"join\",\n  \"segments_per_side\": {},\n  \"eps\": {},\n",
            "  \"fanout\": {},\n  \"sweep_min\": {},\n  \"thread_counts\": {:?},\n",
            "  \"pairs\": {},\n",
            "  \"steady_state_allocs_1_thread\": {},\n  \"configs\": [\n{}\n  ]\n}}\n"
        ),
        a.len(),
        eps,
        fanout,
        sweep_min,
        thread_counts,
        reference.len(),
        steady_allocs_1thr,
        json_rows.join(",\n")
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
    println!(
        "\nshape check: steady-state joins allocate {steady_allocs_1thr} time(s) at 1 thread\n\
         (acceptance: 0); every algorithm, at every thread count, produced the identical\n\
         pair set."
    );
    // Under --strict (the CI bench-smoke gate) the acceptance bar is the
    // exit code: a reintroduced steady-state allocation fails the job
    // instead of shipping silently.
    if strict && steady_allocs_1thr != 0 {
        eprintln!("join --strict: acceptance bar FAILED (steady allocs {steady_allocs_1thr})");
        std::process::exit(1);
    }
}

/// API (E8) — the three terminal modes of the unified `Query` builder
/// raced on the same *selective* workload (a pushed-down predicate keeps
/// ~1/8 of each result set). For every backend, monolithic and sharded:
///
/// * **collect+post-filter** — the materialize-then-filter serving
///   pattern: `collect()` builds the full result `Vec`, the caller
///   filters afterwards;
/// * **stream** — `query().range().filter(&pred).stream(|s| …)`: the
///   predicate runs *below* the index traversal, nothing is
///   materialized, and the thread-shared scratch makes the steady state
///   allocation-free;
/// * **session** — a bound `QuerySession` reusing one scratch + result
///   buffer across the whole loop.
///
/// Identical result sets are asserted during the warm-up pass. Under
/// `--strict` (the CI bench-smoke gate) the acceptance bar is the exit
/// code: stream must allocate 0 bytes steady-state on every
/// configuration. (All three modes run one traversal and one executor,
/// so their timings are reported, not gated.)
#[allow(clippy::too_many_arguments)]
fn api_bench(
    backends: &[IndexBackend],
    n: usize,
    queries: usize,
    half: f64,
    cap: usize,
    shards: usize,
    out_path: &str,
    strict: bool,
) {
    println!("\n== API (E8) — collect vs stream vs session on selective queries ==\n");
    let segments = sized_segments(n, 42);
    let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
    let w = RangeQueryWorkload::generate(
        1000,
        &bounds,
        queries,
        half,
        QueryPlacement::DataCentered,
        Some(&segments),
    );
    let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(8);
    println!(
        "{} segments, batch of {} range queries ({:.0}³, data-centred), predicate keeps neuron%8==0",
        segments.len(),
        w.queries.len(),
        half * 2.0
    );
    println!(
        "page capacity {cap}, sharded configurations: {shards} shards, 1 worker thread, \
         best of 15 rounds\n"
    );

    /// Race the three modes *interleaved*: every round times each mode
    /// once, in rotation, so slow drift (thermal, noisy neighbours) hits
    /// all modes equally instead of biasing whichever ran last.
    /// Per mode: best-of-15 wall time in ns/query, allocation count of
    /// the final (steady-state, every buffer warm) round, and the final
    /// round's checksum.
    fn race_interleaved(
        queries: usize,
        passes: &mut [&mut dyn FnMut() -> u64],
    ) -> Vec<(f64, f64, u64)> {
        let mut best = vec![f64::INFINITY; passes.len()];
        let mut allocs = vec![0u64; passes.len()];
        let mut sums = vec![0u64; passes.len()];
        for _ in 0..15 {
            for (i, pass) in passes.iter_mut().enumerate() {
                let a0 = allocations();
                let t = Instant::now();
                sums[i] = pass();
                best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e3);
                allocs[i] = allocations() - a0;
            }
        }
        (0..passes.len())
            .map(|i| (best[i] * 1e6 / queries as f64, allocs[i] as f64 / queries as f64, sums[i]))
            .collect()
    }

    let mut t = Table::new([
        "backend",
        "collect ns/q",
        "stream ns/q",
        "session ns/q",
        "allocs/q (collect)",
        "allocs/q (stream)",
        "allocs/q (session)",
        "kept/q",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut stream_alloc_free = 0usize;
    let configs: Vec<(String, bool)> = backends
        .iter()
        .flat_map(|b| [(b.name().to_string(), false), (b.sharded_name(), true)])
        .collect();

    for (name, sharded) in &configs {
        let backend: IndexBackend = name.strip_prefix("sharded:").unwrap_or(name).parse().unwrap();
        let db = NeuroDb::builder()
            .segments(segments.clone())
            .backend(backend)
            .page_capacity(cap)
            .shards(if *sharded { shards } else { 1 })
            .threads(1)
            .build()
            .expect("valid configuration");
        let mut session =
            db.query().range(w.queries[0]).filter(&pred).session().expect("no population");

        // Warm-up pass: grows every buffer to steady state and asserts
        // the three modes agree with post-filtering the full output.
        let mut kept_total = 0u64;
        for q in &w.queries {
            let full = db.query().range(*q).collect().expect("no population");
            let want: Vec<u64> = full.segments.iter().filter(|s| pred(s)).map(|s| s.id).collect();
            let mut streamed: Vec<u64> = Vec::new();
            let stats = db
                .query()
                .range(*q)
                .filter(&pred)
                .stream(|s| streamed.push(s.id))
                .expect("no population");
            assert_eq!(streamed, want, "{name}: stream diverges from post-filter at {q}");
            assert_eq!(stats.results as usize, want.len(), "{name}: stream result count");
            let (hits, _) = session.range(q);
            assert!(
                hits.iter().map(|s| s.id).eq(want.iter().copied()),
                "{name}: session diverges at {q}"
            );
            kept_total += want.len() as u64;
        }

        // The builder's collect (post-filtered) / stream / session
        // terminals.
        let queries_ref = &w.queries;
        let db_ref = &db;
        let mut collect_pass = || {
            let mut kept = 0u64;
            for q in queries_ref {
                let out = db_ref.query().range(*q).collect().expect("no population");
                kept += out.segments.iter().filter(|s| pred(s)).count() as u64;
            }
            kept
        };
        let mut stream_pass = || {
            let mut kept = 0u64;
            for q in queries_ref {
                let stats = db_ref
                    .query()
                    .range(*q)
                    .filter(&pred)
                    .stream(|_| kept += 1)
                    .expect("no population");
                std::hint::black_box(stats.results);
            }
            kept
        };
        let mut session_pass = || {
            let mut kept = 0u64;
            for q in queries_ref {
                let (hits, _) = session.range(q);
                kept += hits.len() as u64;
            }
            kept
        };
        let timed = race_interleaved(
            w.queries.len(),
            &mut [&mut collect_pass, &mut stream_pass, &mut session_pass],
        );
        let (collect_ns, collect_allocs, collect_sum) = timed[0];
        let (stream_ns, stream_allocs, stream_sum) = timed[1];
        let (session_ns, session_allocs, session_sum) = timed[2];
        assert_eq!(collect_sum, kept_total, "{name}: collect sum");
        assert_eq!(stream_sum, kept_total, "{name}: stream sum");
        assert_eq!(session_sum, kept_total, "{name}: session sum");

        if stream_allocs == 0.0 {
            stream_alloc_free += 1;
        }
        let nq = w.queries.len() as f64;
        t.row([
            name.clone(),
            f1(collect_ns),
            f1(stream_ns),
            f1(session_ns),
            f2(collect_allocs),
            f2(stream_allocs),
            f2(session_allocs),
            f1(kept_total as f64 / nq),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"backend\": {:?}, \"sharded\": {}, ",
                "\"collect_post_filter_ns_per_query\": {:.1}, ",
                "\"stream_ns_per_query\": {:.1}, \"session_ns_per_query\": {:.1}, ",
                "\"allocs_per_query_collect\": {:.2}, \"allocs_per_query_stream\": {:.2}, ",
                "\"allocs_per_query_session\": {:.2}, \"kept_per_query\": {:.2}}}"
            ),
            name,
            sharded,
            collect_ns,
            stream_ns,
            session_ns,
            collect_allocs,
            stream_allocs,
            session_allocs,
            kept_total as f64 / nq,
        ));
    }
    t.print();

    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"api\",\n  \"segments\": {},\n  \"queries\": {},\n",
            "  \"query_half_extent\": {:.1},\n  \"page_capacity\": {},\n",
            "  \"shards\": {},\n  \"threads\": 1,\n",
            "  \"predicate\": \"neuron % 8 == 0\",\n",
            "  \"stream_alloc_free_configs\": {},\n  \"configs\": [\n{}\n  ]\n}}\n"
        ),
        segments.len(),
        w.queries.len(),
        half,
        cap,
        shards,
        stream_alloc_free,
        json_rows.join(",\n")
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
    println!(
        "\nshape check: stream() with the pushed-down predicate does 0 steady-state\n\
         allocs/query on {stream_alloc_free}/{} configs (acceptance: all); identical filtered\n\
         result sets asserted on every query of every config.",
        configs.len()
    );
    if strict && stream_alloc_free < configs.len() {
        eprintln!(
            "api --strict: acceptance bar FAILED (stream alloc-free {stream_alloc_free}/{}, \
             need all)",
            configs.len()
        );
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// SERVE / LOAD — the networked query service under load
// ---------------------------------------------------------------------

/// One load phase's client-side outcome: accepted-request latencies as
/// an [`neurospatial::obs::HistogramSnapshot`] (recorded concurrently by every client
/// thread, no per-request `Vec` growth, mergeable for free), shed
/// connections, transport failures.
struct LoadOutcome {
    latencies: neurospatial::obs::HistogramSnapshot,
    rejects: u64,
    io_errors: u64,
    wall_s: f64,
}

impl LoadOutcome {
    /// Accepted requests (the histogram's population).
    fn completed(&self) -> u64 {
        self.latencies.count
    }

    /// The `p`-quantile (0 < p <= 1) of the accepted latencies, in ms.
    /// Log-linear bucket resolution: ≤ 6.25% relative error.
    fn pct(&self, p: f64) -> f64 {
        self.latencies.quantile(p) as f64 / 1e6
    }

    /// The slowest accepted request, in ms (exact, not bucketed).
    fn max_ms(&self) -> f64 {
        if self.latencies.count == 0 {
            return 0.0;
        }
        self.latencies.max as f64 / 1e6
    }

    /// Completed requests per second of wall time.
    fn qps(&self) -> f64 {
        self.completed() as f64 / self.wall_s.max(1e-9)
    }
}

/// Run one closure per client on its own thread, all recording into one
/// shared latency histogram, and merge the per-client
/// `(rejects, io_errors)` tallies.
fn gather_clients<F>(clients: usize, per_client: F) -> LoadOutcome
where
    F: Fn(usize, &neurospatial::obs::Histogram) -> (u64, u64) + Sync,
{
    let hist = neurospatial::obs::Histogram::new();
    let t_all = Instant::now();
    let mut outcome = LoadOutcome {
        latencies: neurospatial::obs::HistogramSnapshot::default(),
        rejects: 0,
        io_errors: 0,
        wall_s: 0.0,
    };
    std::thread::scope(|scope| {
        let per_client = &per_client;
        let hist = &hist;
        let handles: Vec<_> =
            (0..clients.max(1)).map(|id| scope.spawn(move || per_client(id, hist))).collect();
        for h in handles {
            let (rejects, io_errors) = h.join().expect("load client");
            outcome.rejects += rejects;
            outcome.io_errors += io_errors;
        }
    });
    outcome.wall_s = t_all.elapsed().as_secs_f64();
    outcome.latencies = hist.snapshot();
    outcome
}

/// Drive `total` range requests open-loop against `addr`: `clients`
/// connections, arrivals on fixed per-client grids that interleave into
/// `rate` requests/second overall. Latency is measured from the
/// *scheduled* arrival, not the send, so server-side queueing delay is
/// charged to the server instead of silently omitted (the coordinated-
/// omission trap of closed-loop load generators).
fn open_loop(addr: &str, queries: &[Aabb], clients: usize, total: usize, rate: f64) -> LoadOutcome {
    let clients = clients.max(1);
    let per_client = (total / clients).max(1);
    let interval = Duration::from_secs_f64(clients as f64 / rate.max(1.0));
    gather_clients(clients, |id, hist| {
        let desc = QueryDescView { tenant: id as u32 + 1, ..Default::default() };
        let mut out = Vec::new();
        let (mut rejects, mut io_errors) = (0u64, 0u64);
        // Warm the connection and both frame buffers off the clock.
        let mut conn = Client::connect(addr).ok();
        if let Some(c) = conn.as_mut() {
            for q in queries.iter().take(4) {
                let _ = c.range(&desc, q, &mut out);
            }
        }
        // Stagger the per-client grids so arrivals interleave.
        let start = Instant::now() + interval.mul_f64(id as f64 / clients as f64);
        for i in 0..per_client {
            let scheduled = start + interval.mul_f64(i as f64);
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let q = &queries[(id + i * clients) % queries.len()];
            let mut c = match conn.take() {
                Some(c) => c,
                None => match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        io_errors += 1;
                        continue;
                    }
                },
            };
            match c.range(&desc, q, &mut out) {
                Ok(_) => {
                    hist.record_duration(scheduled.elapsed());
                    conn = Some(c);
                }
                // A shed or broken connection is dropped; the next
                // arrival reconnects.
                Err(ClientError::Busy) => rejects += 1,
                Err(_) => io_errors += 1,
            }
        }
        (rejects, io_errors)
    })
}

/// Hammer `addr` closed-loop with one fresh connection per attempt —
/// the shedding regime. Accepted latency includes the TCP connect.
fn overload(addr: &str, queries: &[Aabb], clients: usize, attempts: usize) -> LoadOutcome {
    gather_clients(clients, |id, hist| {
        let desc = QueryDescView { tenant: 100 + id as u32, ..Default::default() };
        let mut out = Vec::new();
        let (mut rejects, mut io_errors) = (0u64, 0u64);
        for i in 0..attempts {
            let q = &queries[(id + i * clients.max(1)) % queries.len()];
            let t0 = Instant::now();
            match Client::connect(addr) {
                Err(_) => io_errors += 1,
                Ok(mut c) => match c.range(&desc, q, &mut out) {
                    Ok(_) => hist.record_duration(t0.elapsed()),
                    Err(ClientError::Busy) => rejects += 1,
                    Err(_) => io_errors += 1,
                },
            }
        }
        (rejects, io_errors)
    })
}

/// SERVE — the networked query service end to end, three phases:
///
/// * **steady**: one worker, one connection, warm session and frame
///   buffers on both sides — after warm-up, `n` sequential requests
///   must allocate *nothing anywhere in the process* (server decode,
///   session traversal, tenant accounting, response encoding, client
///   decode all ride reused buffers);
/// * **open-loop**: `--clients` connections at a fixed arrival rate
///   (40% of the measured sequential throughput) — queries/s and
///   p50/p99/p99.9 latency from scheduled-arrival time;
/// * **overload**: workers=1, queue=0 while `--clients` hammer — the
///   admission controller must shed (nonzero fast-rejects) while
///   accepted requests keep a bounded p99.
///
/// Everything lands in `BENCH_serve.json`. Under `--strict` (the CI
/// bench-smoke gate) the bar is the exit code: 0 allocations/request
/// steady-state, 0 protocol errors anywhere, nonzero fast-rejects at
/// overload.
fn serve_bench(n: usize, clients: usize, half: f64, out_path: &str, strict: bool) {
    println!("\n== SERVE — wire protocol, session pooling, admission control ==\n");
    let segments = sized_segments(n, 42);
    let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
    let w = RangeQueryWorkload::generate(
        1000,
        &bounds,
        256,
        half,
        QueryPlacement::DataCentered,
        Some(&segments),
    );
    let db = NeuroDb::builder()
        .segments(segments.clone())
        .backend(IndexBackend::Flat)
        .build()
        .expect("flat db");
    let filters = FilterRegistry::new();
    println!(
        "{} segments (flat), {} distinct queries ({:.0}³, data-centred), {n} requests, \
         {clients} clients\n",
        segments.len(),
        w.queries.len(),
        half * 2.0
    );

    // --- Phase A: sequential steady state — the allocation gate. --------
    let cfg = ServerConfig { workers: 1, ..Default::default() };
    let (seq_qps, allocs_per_req, pe_a) = serve_with(&db, &filters, &cfg, |handle| {
        let addr = handle.addr().to_string();
        let mut c = Client::connect(&*addr).expect("connect");
        let desc = QueryDescView { tenant: 1, ..Default::default() };
        let mut out = Vec::new();
        for q in &w.queries {
            c.range(&desc, q, &mut out).expect("warmup request");
        }
        let a0 = allocations();
        let t0 = Instant::now();
        for i in 0..n {
            c.range(&desc, &w.queries[i % w.queries.len()], &mut out).expect("steady request");
        }
        let wall = t0.elapsed().as_secs_f64();
        let allocs = allocations() - a0;
        (
            n as f64 / wall.max(1e-9),
            allocs as f64 / n as f64,
            handle.metrics().protocol_errors.load(Ordering::Relaxed),
        )
    })
    .expect("serve (steady)");

    // --- Phase B: open-loop latency under concurrency. -------------------
    let rate = (seq_qps * 0.4).max(100.0);
    let cfg =
        ServerConfig { workers: clients.max(1), queue: 2 * clients.max(1), ..Default::default() };
    let (open, pe_b) = serve_with(&db, &filters, &cfg, |handle| {
        let addr = handle.addr().to_string();
        let o = open_loop(&addr, &w.queries, clients, n, rate);
        (o, handle.metrics().protocol_errors.load(Ordering::Relaxed))
    })
    .expect("serve (open-loop)");

    // --- Phase C: overload — admission control must shed. ----------------
    let cfg =
        ServerConfig { workers: 1, queue: 0, poll: Duration::from_millis(5), ..Default::default() };
    let attempts = (n / clients.max(1)).max(100);
    let (over, shed_rejects, pe_c) = serve_with(&db, &filters, &cfg, |handle| {
        let addr = handle.addr().to_string();
        let o = overload(&addr, &w.queries, clients, attempts);
        let m = handle.metrics();
        (o, m.rejected.load(Ordering::Relaxed), m.protocol_errors.load(Ordering::Relaxed))
    })
    .expect("serve (overload)");

    let mut t = Table::new([
        "phase",
        "completed",
        "q/s",
        "p50 ms",
        "p99 ms",
        "p99.9 ms",
        "max ms",
        "rejects",
        "allocs/req",
    ]);
    t.row([
        "steady (1 conn)".to_string(),
        n.to_string(),
        f1(seq_qps),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "0".into(),
        format!("{allocs_per_req:.4}"),
    ]);
    t.row([
        "open-loop".to_string(),
        open.completed().to_string(),
        f1(open.qps()),
        format!("{:.3}", open.pct(0.50)),
        format!("{:.3}", open.pct(0.99)),
        format!("{:.3}", open.pct(0.999)),
        format!("{:.3}", open.max_ms()),
        open.rejects.to_string(),
        "-".into(),
    ]);
    t.row([
        "overload (w=1,q=0)".to_string(),
        over.completed().to_string(),
        f1(over.qps()),
        format!("{:.3}", over.pct(0.50)),
        format!("{:.3}", over.pct(0.99)),
        format!("{:.3}", over.pct(0.999)),
        format!("{:.3}", over.max_ms()),
        shed_rejects.to_string(),
        "-".into(),
    ]);
    t.print();

    let protocol_errors = pe_a + pe_b + pe_c;
    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"serve\",\n  \"segments\": {},\n  \"requests\": {},\n",
            "  \"clients\": {},\n  \"query_half_extent\": {:.1},\n",
            "  \"steady\": {{\"sequential_qps\": {:.0}, \"allocs_per_request\": {:.4}}},\n",
            "  \"open_loop\": {{\"target_qps\": {:.0}, \"achieved_qps\": {:.0}, ",
            "\"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"max_ms\": {:.3}, ",
            "\"completed\": {}, ",
            "\"rejects\": {}, \"io_errors\": {}}},\n",
            "  \"overload\": {{\"workers\": 1, \"queue\": 0, \"attempts\": {}, ",
            "\"accepted\": {}, \"fast_rejects\": {}, \"client_observed_busy\": {}, ",
            "\"accepted_p50_ms\": {:.3}, \"accepted_p99_ms\": {:.3}, ",
            "\"accepted_max_ms\": {:.3}}},\n",
            "  \"protocol_errors\": {}\n}}\n"
        ),
        segments.len(),
        n,
        clients,
        half,
        seq_qps,
        allocs_per_req,
        rate,
        open.qps(),
        open.pct(0.50),
        open.pct(0.99),
        open.pct(0.999),
        open.max_ms(),
        open.completed(),
        open.rejects,
        open.io_errors,
        attempts * clients.max(1),
        over.completed(),
        shed_rejects,
        over.rejects,
        over.pct(0.50),
        over.pct(0.99),
        over.max_ms(),
        protocol_errors
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
    println!(
        "\nshape check: {n} steady requests allocate {allocs_per_req:.4}/request (acceptance: \
         exactly 0);\nthe open-loop fleet completed {} requests at {:.0} q/s with p99 {:.2} ms;\n\
         at overload the admission controller fast-rejected {shed_rejects} connections \
         (acceptance: > 0)\nwhile accepted requests held p99 {:.2} ms; {protocol_errors} \
         protocol errors (acceptance: 0).",
        open.completed(),
        open.qps(),
        open.pct(0.99),
        over.pct(0.99)
    );
    if strict && (allocs_per_req != 0.0 || protocol_errors != 0 || shed_rejects == 0) {
        eprintln!(
            "serve --strict: acceptance bar FAILED (allocs/request {allocs_per_req:.4}, \
             protocol errors {protocol_errors}, fast rejects {shed_rejects})"
        );
        std::process::exit(1);
    }
}

/// Parameters for the external-server load generator.
struct LoadSpec {
    neurons: u32,
    seed: u64,
    requests: usize,
    clients: usize,
    rate: f64,
    half: f64,
}

/// LOAD — the serve scenario's open-loop fleet decoupled from the
/// in-process server, for driving an *external* `neurospatial-server`
/// over real sockets. `--neurons`/`--seed` must mirror the server's so
/// the generated queries land on its data.
fn load_bench(addr: &str, spec: &LoadSpec, out_path: &str) {
    println!("\n== LOAD — open-loop client fleet against {addr} ==\n");
    let circuit = CircuitBuilder::new(spec.seed).neurons(spec.neurons).build();
    let segments = circuit.segments();
    let bounds = segments.iter().fold(Aabb::EMPTY, |a, s| a.union(&s.aabb()));
    let w = RangeQueryWorkload::generate(
        1000,
        &bounds,
        256,
        spec.half,
        QueryPlacement::DataCentered,
        Some(segments),
    );
    println!(
        "{} requests over {} clients at {:.0} q/s (mirroring a {}-neuron seed-{} circuit)\n",
        spec.requests, spec.clients, spec.rate, spec.neurons, spec.seed
    );
    let o = open_loop(addr, &w.queries, spec.clients, spec.requests, spec.rate);

    let mut t = Table::new([
        "completed",
        "q/s",
        "p50 ms",
        "p99 ms",
        "p99.9 ms",
        "max ms",
        "rejects",
        "io errors",
    ]);
    t.row([
        o.completed().to_string(),
        f1(o.qps()),
        format!("{:.3}", o.pct(0.50)),
        format!("{:.3}", o.pct(0.99)),
        format!("{:.3}", o.pct(0.999)),
        format!("{:.3}", o.max_ms()),
        o.rejects.to_string(),
        o.io_errors.to_string(),
    ]);
    t.print();

    let json = format!(
        concat!(
            "{{\n  \"scenario\": \"load\",\n  \"addr\": {:?},\n  \"requests\": {},\n",
            "  \"clients\": {},\n  \"target_qps\": {:.0},\n  \"achieved_qps\": {:.0},\n",
            "  \"p50_ms\": {:.3},\n  \"p99_ms\": {:.3},\n  \"p999_ms\": {:.3},\n",
            "  \"max_ms\": {:.3},\n",
            "  \"completed\": {},\n  \"rejects\": {},\n  \"io_errors\": {}\n}}\n"
        ),
        addr,
        spec.requests,
        spec.clients,
        spec.rate,
        o.qps(),
        o.pct(0.50),
        o.pct(0.99),
        o.pct(0.999),
        o.max_ms(),
        o.completed(),
        o.rejects,
        o.io_errors
    );
    std::fs::write(out_path, json).expect("write BENCH json");
    println!("\nwrote {out_path}");
}

// ---------------------------------------------------------------------
// BENCH-DIFF — regression gate between two BENCH_*.json files
// ---------------------------------------------------------------------

/// A minimal recursive-descent JSON reader for the flat-ish documents
/// the scenarios emit. Only what the diff needs: objects, arrays,
/// numbers, strings, booleans, null. Numbers flatten to
/// `dotted.path → f64`; everything else is ignored.
struct JsonCur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonCur<'a> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!("expected '{}' at byte {}, got {got:?}", b as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    // The scenarios never emit anything beyond \" and \\,
                    // but pass other escapes through rather than erroring.
                    self.pos += 1;
                    if let Some(&e) = self.bytes.get(self.pos) {
                        s.push(e as char);
                        self.pos += 1;
                    }
                }
                Some(b) => {
                    s.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    /// Parse one value, appending any numbers found under `prefix`.
    fn value(&mut self, prefix: &str, out: &mut Vec<(String, f64)>) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    let path = if prefix.is_empty() { key } else { format!("{prefix}.{key}") };
                    self.value(&path, out)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad object at byte {}: {other:?}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    self.value(&format!("{prefix}.{i}"), out)?;
                    i += 1;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad array at byte {}: {other:?}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(())
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_alphabetic()) {
                    self.pos += 1;
                }
                Ok(())
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 number")?;
                let v: f64 =
                    raw.parse().map_err(|_| format!("bad number '{raw}' at byte {start}"))?;
                out.push((prefix.to_string(), v));
                Ok(())
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Flatten a BENCH_*.json file into sorted `dotted.path → f64` pairs.
fn flatten_bench_json(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut cur = JsonCur { bytes: text.as_bytes(), pos: 0 };
    let mut out = Vec::new();
    if let Err(e) = cur.value("", &mut out) {
        eprintln!("bench-diff: {path} is not valid JSON: {e}");
        std::process::exit(2);
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// How a metric is judged when it moves between two runs.
#[derive(PartialEq)]
enum MetricClass {
    /// Must not increase at all — allocation and error counts. These
    /// are deterministic properties of the code, not noisy timings.
    Invariant,
    /// Lower is better, compared within the noise band (latencies).
    LowerIsBetter,
    /// Higher is better, compared within the noise band (throughput,
    /// speedup ratios).
    HigherIsBetter,
    /// Reported but never gated (counts, configuration echoes).
    Informational,
}

/// Classify a flattened metric path by its trailing key.
fn classify_metric(path: &str) -> MetricClass {
    let key = path.rsplit('.').next().unwrap_or(path);
    if key.starts_with("allocs")
        || key.ends_with("errors")
        || key == "retry_exhausted"
        || key == "lost_writes"
    {
        MetricClass::Invariant
    } else if key.ends_with("_ms") || key.ends_with("_ns") || key.ends_with("_us") {
        MetricClass::LowerIsBetter
    } else if key.ends_with("qps")
        || key.contains("per_sec")
        || key.contains("speedup")
        || key.ends_with("throughput")
    {
        MetricClass::HigherIsBetter
    } else {
        MetricClass::Informational
    }
}

/// Absolute noise floor for a lower-is-better timing metric, in the
/// metric's own unit (~10 ms). Scheduler jitter swings sub-10 ms tail
/// latencies by several × between otherwise identical runs, so a purely
/// relative band flakes on them; a catastrophic regression (a lost
/// cache, an accidental quadratic) lands far above 10 ms and still
/// fails the banded check.
fn timing_noise_floor(path: &str) -> f64 {
    let key = path.rsplit('.').next().unwrap_or(path);
    if key.ends_with("_ms") {
        10.0
    } else if key.ends_with("_us") {
        10_000.0
    } else {
        // `_ns`
        10_000_000.0
    }
}

/// Compare two scenario JSON files metric by metric. Exit code 0 when
/// every gated metric holds; 1 when anything regressed beyond `band`
/// (a fraction: 0.25 allows 25% drift on timing metrics, on top of the
/// absolute [`timing_noise_floor`] — invariant metrics get no band at
/// all); 2 on unreadable input.
fn bench_diff(old_path: &str, new_path: &str, band: f64) -> i32 {
    println!("\n== BENCH-DIFF — {old_path} → {new_path} (noise band {:.0}%) ==\n", band * 100.0);
    let old = flatten_bench_json(old_path);
    let new = flatten_bench_json(new_path);

    let mut t = Table::new(["metric", "old", "new", "delta", "class", "verdict"]);
    let mut failures = 0usize;
    let lookup = |set: &[(String, f64)], k: &str| {
        set.binary_search_by(|(p, _)| p.as_str().cmp(k)).ok().map(|i| set[i].1)
    };

    for (path, old_v) in &old {
        let Some(new_v) = lookup(&new, path) else {
            // A key the new run no longer emits is a schema regression:
            // the gate cannot silently lose coverage.
            t.row([
                path.clone(),
                format!("{old_v}"),
                "missing".into(),
                "-".into(),
                "-".into(),
                "FAIL".into(),
            ]);
            failures += 1;
            continue;
        };
        let class = classify_metric(path);
        let delta = if *old_v != 0.0 {
            format!("{:+.1}%", (new_v - old_v) / old_v * 100.0)
        } else {
            format!("{new_v:+.3}")
        };
        let (label, ok) = match class {
            MetricClass::Invariant => ("invariant", new_v <= *old_v),
            MetricClass::LowerIsBetter => {
                ("lower", new_v <= old_v * (1.0 + band) + timing_noise_floor(path))
            }
            MetricClass::HigherIsBetter => ("higher", new_v >= old_v * (1.0 - band) - 1e-9),
            MetricClass::Informational => ("info", true),
        };
        if !ok {
            failures += 1;
        }
        // Keep the table to what a reader acts on: every gated metric,
        // plus any informational one that moved.
        if class != MetricClass::Informational || new_v != *old_v {
            t.row([
                path.clone(),
                format!("{old_v:.3}"),
                format!("{new_v:.3}"),
                delta,
                label.to_string(),
                if ok { "ok".into() } else { "FAIL".into() },
            ]);
        }
    }
    let new_keys = new.iter().filter(|(p, _)| lookup(&old, p).is_none()).count();
    t.print();
    if new_keys > 0 {
        println!("\n{new_keys} metric(s) only in {new_path} (new coverage, not gated)");
    }
    if failures > 0 {
        eprintln!("\nbench-diff: {failures} metric(s) regressed beyond the noise band");
        1
    } else {
        println!("\nbench-diff: all gated metrics within the noise band");
        0
    }
}

/// A1 ablation — FLAT packing strategy: Hilbert vs Morton vs plain
/// coordinate sort. Measures page compactness (surface area → crawl
/// fan-out), neighbor counts and query cost.
fn a1_flat_packing() {
    println!("\n== A1 — FLAT packing-strategy ablation ==\n");
    let circuit = dense_circuit(50, 1);
    let segments = circuit.segments().to_vec();
    let w = standard_workload(&circuit, 30, 20.0);

    let mut t = Table::new([
        "packing",
        "pages",
        "mean neighbors",
        "page surface (norm)",
        "avg pages/query",
        "avg io ms/query",
    ]);
    let mut base_surface = 0.0;
    for packing in
        [PackingStrategy::Hilbert, PackingStrategy::Morton, PackingStrategy::CoordinateSort]
    {
        let idx = FlatIndex::build(
            segments.clone(),
            FlatBuildParams::default().with_page_capacity(64).with_packing(packing),
        );
        let surface: f64 =
            (0..idx.page_count() as u32).map(|p| idx.page_mbr(p).surface_area()).sum();
        if packing == PackingStrategy::Hilbert {
            base_surface = surface;
        }
        let (mut head, mut io_ns) = (None, 0u64);
        let mut pages = 0u64;
        for q in &w.queries {
            let (_, s) = idx.range_query_with(q, |acc| {
                if let neurospatial::flat::PageAccess::Data(p) = acc {
                    io_ns += CostModel::default().read_ns(head.replace(p as u64), p as u64);
                }
            });
            pages += s.pages_read;
        }
        let n = w.queries.len() as f64;
        t.row([
            format!("{packing:?}"),
            idx.page_count().to_string(),
            f1(idx.mean_neighbors()),
            f2(surface / base_surface),
            f1(pages as f64 / n),
            f2(io_ns as f64 / 1e6 / n),
        ]);
    }
    t.print();
    println!("\nshape check: Hilbert pages are the most compact (lowest surface area) and");
    println!("cheapest to query; Morton pays ~20% more I/O at octant boundaries; coordinate-");
    println!("sorted slabs make every query read ~3x more pages — why FLAT uses a");
    println!("space-filling curve.");
}

/// A2 ablation — TOUCH tree fan-out and assignment-depth distribution.
fn a2_touch_fanout() {
    println!("\n== A2 — TOUCH fan-out ablation & assignment depths ==\n");
    let circuit = dense_circuit(100, 3);
    let (a, b) = circuit.split_populations();
    println!("|A| = {}, |B| = {}, ε = 1\n", a.len(), b.len());

    let mut t = Table::new([
        "fanout",
        "total ms",
        "comparisons",
        "filtered out",
        "mean assign depth",
        "depth histogram (d0 d1 d2 …)",
    ]);
    for fanout in [4usize, 16, 64, 128] {
        let join = TouchJoin::default().with_fanout(fanout);
        let (r, report) = join.join_with_report(&a, &b, 1.0);
        let hist: Vec<String> = report.histogram.iter().map(|c| c.to_string()).collect();
        t.row([
            fanout.to_string(),
            f1(r.stats.total_ms),
            r.stats.total_comparisons().to_string(),
            report.filtered_out.to_string(),
            f2(report.mean_depth()),
            hist.join(" "),
        ]);
    }
    t.print();
    println!("\nshape check: comparisons grow with fan-out (bigger leaves mean more");
    println!("leaf-level all-pairs work), so small-to-moderate fan-outs win — TOUCH's");
    println!("default of 16 sits at the knee.");
}

/// A3 ablation — SCOUT vs think-time budget: prefetching can only hide
/// I/O that fits between queries.
fn a3_think_time() {
    println!("\n== A3 — think-time budget ablation (SCOUT) ==\n");
    let circuit = jagged_circuit(20, 9);
    let paths = walkthrough_paths(&circuit, 4);
    let mut t =
        Table::new(["think ms", "stall ms (scout)", "stall ms (none)", "speedup", "prefetched"]);
    for think in [0.0f64, 25.0, 100.0, 400.0, 1600.0] {
        let mut config = walkthrough_config();
        config.think_time_ms = think;
        let db = walkthrough_db(&circuit, config);
        let (mut scout_stall, mut none_stall, mut prefetched) = (0.0, 0.0, 0u64);
        for p in &paths {
            let r = walk(&db, p, WalkthroughMethod::Scout);
            scout_stall += r.total_stall_ms;
            prefetched += r.total_prefetched;
            none_stall += walk(&db, p, WalkthroughMethod::None).total_stall_ms;
        }
        t.row([
            f1(think),
            f1(scout_stall),
            f1(none_stall),
            format!("{:.1}x", none_stall / scout_stall.max(1e-9)),
            prefetched.to_string(),
        ]);
    }
    t.print();
    println!("\nshape check: zero think time = no benefit; gains saturate once the budget");
    println!("covers one step's worth of pages.");
}

/// One Markov table behind every cursor it is handed to.
#[derive(Clone, Default)]
struct SharedPolicy(std::rc::Rc<std::cell::RefCell<neurospatial::scout::MarkovPrefetcher>>);

impl Prefetcher for SharedPolicy {
    fn name(&self) -> &'static str {
        self.0.borrow().name()
    }

    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> neurospatial::scout::PrefetchPlan {
        self.0.borrow_mut().plan(ctx)
    }

    fn reset(&mut self) {
        self.0.borrow_mut().reset()
    }
}

/// A5 ablation — Markov prefetching on repeated paths: history-based
/// prediction *does* work when users retrace known paths; it fails on
/// fresh ones (the paper's point about massive, rarely-revisited models).
fn a5_markov_warmup() {
    println!("\n== A5 — Markov warm-up ablation ==\n");
    let circuit = jagged_circuit(20, 9);
    let flat = std::sync::Arc::new(FlatIndex::build(
        circuit.segments().to_vec(),
        FlatBuildParams::default().with_page_capacity(64),
    ));
    let paths = walkthrough_paths(&circuit, 3);
    // The facade makes a fresh policy per walkthrough; here one Markov
    // table has to outlive the walkthroughs, each on a cold view.
    let walk = |p: &NavigationPath, policy: Box<dyn Prefetcher>| {
        let view = OocFlatIndex::view(flat.clone(), &walkthrough_config());
        let mut cursor = view.cursor(policy);
        cursor.reset(); // a walkthrough starts nowhere: no transition from the last one's end
        let mut stats = SessionStats::default();
        for q in &p.queries {
            stats.record(cursor.step(q).expect("pages in memory always read"));
        }
        stats
    };

    let mut t =
        Table::new(["traversal", "stall ms (markov)", "stall ms (scout)", "markov prefetched"]);
    let markov = SharedPolicy::default();
    for round in 0..3 {
        let (mut m_stall, mut m_pref, mut s_stall) = (0.0, 0u64, 0.0);
        for p in &paths {
            let r = walk(p, Box::new(markov.clone())); // table persists across runs
            m_stall += r.total_stall_ms;
            m_pref += r.total_prefetched;
            s_stall += walk(p, Box::<ScoutPrefetcher>::default()).total_stall_ms;
        }
        t.row([format!("#{}", round + 1), f1(m_stall), f1(s_stall), m_pref.to_string()]);
    }
    t.print();
    println!("\nshape check: Markov is useless on traversal #1 (cold) and competitive once");
    println!("the exact paths repeat — but a scientist exploring a new model never");
    println!("repeats, which is why the paper dismisses history-based prefetching (§3).");
}

/// A4 ablation — buffer pool size: prefetching matters most when the pool
/// cannot hold the walkthrough working set.
fn a4_buffer_size() {
    println!("\n== A4 — buffer-pool size ablation ==\n");
    let circuit = jagged_circuit(20, 9);
    let paths = walkthrough_paths(&circuit, 4);
    let mut t = Table::new(["pool pages", "stall none", "stall scout", "speedup", "hit% none"]);
    for pool in [16usize, 48, 128, 512] {
        let mut config = walkthrough_config();
        config.buffer_pages = pool;
        let db = walkthrough_db(&circuit, config);
        let (mut none_stall, mut scout_stall, mut hits, mut total) = (0.0, 0.0, 0u64, 0u64);
        for p in &paths {
            let none = walk(&db, p, WalkthroughMethod::None);
            none_stall += none.total_stall_ms;
            hits += none.total_demand_hits;
            total += none.total_demand_hits + none.total_demand_misses;
            scout_stall += walk(&db, p, WalkthroughMethod::Scout).total_stall_ms;
        }
        t.row([
            pool.to_string(),
            f1(none_stall),
            f1(scout_stall),
            format!("{:.1}x", none_stall / scout_stall.max(1e-9)),
            format!("{:.0}%", hits as f64 / total.max(1) as f64 * 100.0),
        ]);
    }
    t.print();
    println!("\nshape check: tiny pools evict prefetched pages before the user reaches");
    println!("them (speedup collapses towards 1x); once the pool holds a step's working");
    println!("set, further memory changes nothing — accuracy, not capacity, is the");
    println!("bottleneck, which is SCOUT's core argument.");
}
