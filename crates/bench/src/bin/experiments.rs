//! The paper's tables: regenerates every figure of the demo paper, and
//! the ablations behind them, as a deterministic table.
//!
//! ```text
//! cargo run --release -p neurospatial-bench --bin experiments        # all
//! cargo run --release -p neurospatial-bench --bin experiments e4    # one
//!
//! # restrict the walkthrough methods from the CLI (names parsed via
//! # FromStr — any alias WalkthroughMethod accepts works here):
//! cargo run ... --bin experiments e4 --methods=none,scout
//!
//! # sharded-vs-monolithic FLAT throughput race:
//! cargo run ... --bin experiments --scenario=throughput --threads=4 --shards=8
//! ```
//!
//! Mapping (README, "Build, test, benchmark", says where every other
//! number comes from):
//!   e1 — Fig. 2+3: FLAT vs R-Tree range-query statistics, plus the
//!                  race of FLAT, R-Tree, R+-Tree and STR-packed R-Tree
//!   e2 — Fig. 4:   crawl behaviour and R-Tree node accesses per level
//!   e3 — Fig. 5:   SCOUT candidate-set pruning
//!   e4 — Fig. 6:   walkthrough prefetching comparison (up-to-15× claim)
//!   e5 — Fig. 7:   TOUCH vs join baselines (10×/100× claims)
//!   e6 — §1:       scaling with model size
//!   e7 (throughput): sharded vs monolithic FLAT, batched range queries
//!   a1–a5:         ablations (FLAT packing, TOUCH fan-out, think time,
//!                  buffer-pool size, Markov warm-up)

use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use neurospatial::rtree::{TraversalCounters, TraversalScratch};
use neurospatial::scout::{PrefetchContext, ScoutPrefetcher};
use neurospatial_bench::*;
use std::time::Instant;

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
    const FLAGS: [&str; 4] = ["methods", "threads", "shards", "scenario"];
    for a in args.iter().filter(|a| a.starts_with("--")) {
        let flag = a[2..].split('=').next().unwrap_or_default();
        if !FLAGS.contains(&flag) {
            eprintln!("unknown flag '{a}'\nknown flags: --{}", FLAGS.join("=, --") + "=");
            std::process::exit(2);
        }
    }
    let methods: Vec<WalkthroughMethod> =
        parse_list(&args, "methods").unwrap_or_else(|| WalkthroughMethod::ALL.to_vec());
    let threads: usize = parse_value(&args, "threads").unwrap_or(4);
    let shards: usize = parse_value(&args, "shards").unwrap_or(threads.max(2));
    // Scenarios are selectable positionally (`experiments throughput`) or
    // via `--scenario=name[,name…]`. Unknown names are an error, not a
    // silent no-op: a typo would otherwise run nothing and exit 0.
    const SCENARIOS: [&str; 13] =
        ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "throughput", "a1", "a2", "a3", "a4", "a5"];
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
        e1_backend_race();
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
        e7_throughput(shards, threads);
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

    for neurons in [10u32, 25, 50] {
        for r in e1_rows(neurons) {
            t.row([
                neurons.to_string(),
                r.segments.to_string(),
                format!("{:.0}³", r.half_extent * 2.0),
                f1(r.avg_result),
                f1(r.flat_reads),
                f1(r.rtree_reads),
                f1(r.dyn_reads),
                f2(r.flat_io_ms),
                f2(r.rtree_io_ms),
                f1(r.flat_us),
                f1(r.rtree_us),
            ]);
        }
    }
    t.print();
    println!("\nshape check: FLAT reads data pages only, from one seed: fewer reads than");
    println!("the STR-packed tree's nodes, and less modelled I/O, on every row; its reads");
    println!("follow the result size, while the dynamic R-Tree's grow faster with density.");
}

/// E1b: the four structures of the paper's race, each built over the
/// same segments and queried through its own allocation-free streaming
/// path. Every row reports the same counters (pages or nodes read,
/// objects tested, results), so the cost columns compare directly.
fn e1_backend_race() {
    println!("\n== E1b — backend race over one workload ==\n");
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
    let mut race = Race { table: &mut t, segments: circuit.segments(), queries: &w.queries };
    let mut flat_scratch = FlatScratch::default();
    race.row(
        "flat",
        |s| FlatIndex::build(s, FlatBuildParams::default().with_page_capacity(64)),
        FlatIndex::memory_bytes,
        |idx, q| {
            let s = idx.range_query_stream(q, &mut flat_scratch, |_| {}, |_| Flow::Emit);
            (s.pages_read, s.objects_tested, s.results)
        },
    );
    let mut scratch = TraversalScratch::default();
    let tree_counts = |c: TraversalCounters| (c.nodes_visited, c.leaf_entries_tested, c.results);
    race.row(
        "rtree",
        |s| {
            // Grown one insert at a time: the overlap the paper blames.
            let mut tree = RTree::new(RTreeParams::with_max_entries(64));
            s.into_iter().for_each(|s| tree.insert(s));
            tree.freeze();
            tree
        },
        RTree::memory_bytes,
        |tree, q| tree_counts(tree.range_query_stream(q, &mut scratch, |_| Flow::Emit)),
    );
    race.row(
        "rplus",
        |s| RPlusTree::build(s, 64),
        // The arena nodes are private: the objects plus one u32 per
        // stored (possibly replicated) leaf entry.
        |tree| {
            tree.len() * std::mem::size_of::<NeuronSegment>() + tree.stored_entries() as usize * 4
        },
        |tree, q| tree_counts(tree.range_query_stream(q, &mut scratch, |_| Flow::Emit)),
    );
    race.row(
        "str-packed",
        |s| {
            let mut tree = RTree::bulk_load(s, RTreeParams::with_max_entries(64));
            tree.freeze();
            tree
        },
        RTree::memory_bytes,
        |tree, q| tree_counts(tree.range_query_stream(q, &mut scratch, |_| Flow::Emit)),
    );
    t.print();
    println!("\nshape check: identical result counts on every backend (the equivalence");
    println!("contract); FLAT's reads track the result size, the R-Tree family's grow");
    println!("with overlap, the R+-Tree trades memory for overlap-free reads.");
}

/// The E1b table and what every row of it runs.
struct Race<'a> {
    table: &'a mut Table,
    segments: &'a [NeuronSegment],
    queries: &'a [Aabb],
}

impl Race<'_> {
    /// Time `build` over the segments, then the workload through `query`,
    /// which returns one query's (reads, tested, results).
    fn row<I>(
        &mut self,
        name: &str,
        build: impl FnOnce(Vec<NeuronSegment>) -> I,
        memory: impl FnOnce(&I) -> usize,
        mut query: impl FnMut(&I, &Aabb) -> (u64, u64, u64),
    ) {
        let t0 = Instant::now();
        let index = build(self.segments.to_vec());
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (mut reads, mut tested, mut results) = (0u64, 0u64, 0u64);
        let t1 = Instant::now();
        for q in self.queries {
            let (r, t, n) = query(&index, q);
            (reads, tested, results) = (reads + r, tested + t, results + n);
        }
        let n = self.queries.len() as f64;
        let us = t1.elapsed().as_secs_f64() * 1e6 / n;
        self.table.row([
            name.to_string(),
            f1(build_ms),
            f2(memory(&index) as f64 / (1024.0 * 1024.0)),
            f1(reads as f64 / n),
            f1(tested as f64 / n),
            f1(results as f64 / n),
            f1(us),
        ]);
    }
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
    let mut flat_agg = (0u64, 0u64); // pages, rejected pages
    let mut packed_levels: Vec<f64> = Vec::new();
    let mut dynamic_levels: Vec<f64> = Vec::new();
    for q in &w.queries {
        let (_, fs) = flat.range_query(q);
        flat_agg.0 += fs.pages_read;
        flat_agg.1 += fs.links_rejected;
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
        "FLAT  (avg/query): {} data pages, {} distinct pages examined via a link and rejected\n",
        f1(flat_agg.0 as f64 / n),
        f1(flat_agg.1 as f64 / n)
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
    println!("the packed tree (overlap); FLAT reads data pages only, from one seed; the");
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
    // in-memory index rather than the query facade.
    let flat = db.flat_index().expect("monolithic FLAT in memory");
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

/// E7 — sharded-vs-monolithic throughput race. The same batched query
/// workload runs through monolithic FLAT and through a [`ShardedIndex`]
/// over FLAT, with `--shards` Hilbert partitions and
/// `--threads` workers; equal result counts are asserted (the
/// equivalence contract), wall time and queries/second are reported.
fn e7_throughput(shards: usize, threads: usize) {
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
    let t0 = Instant::now();
    let mono = <FlatIndex<NeuronSegment> as SpatialIndex>::build(
        circuit.segments().to_vec(),
        &mono_params,
    );
    let mono_build = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let sharded = ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(
        circuit.segments().to_vec(),
        &shard_params,
    );
    let shard_build = t1.elapsed().as_secs_f64() * 1e3;

    // Warm-up pass (also checks the equivalence contract end to end),
    // then the timed passes.
    let warm_m = mono.range_query_many(&w.queries);
    let warm_s = sharded.range_query_many(&w.queries);
    for (m, s) in warm_m.iter().zip(&warm_s) {
        assert_eq!(m.sorted_ids(), s.sorted_ids(), "sharded answers diverge");
    }
    let mono_ms = best_of_3(|| {
        let _ = mono.range_query_many(&w.queries);
    });
    let shard_ms = best_of_3(|| {
        let _ = sharded.range_query_many(&w.queries);
    });

    let n = w.queries.len() as f64;
    t.row([
        "flat".to_string(),
        f1(mono_build),
        f1(shard_build),
        f1(mono_ms),
        f1(shard_ms),
        format!("{:.2}x", mono_ms / shard_ms.max(1e-9)),
        f1(n / (mono_ms / 1e3).max(1e-9)),
        f1(n / (shard_ms / 1e3).max(1e-9)),
    ]);
    t.print();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n(executor capped at {cores} hardware thread(s) on this machine)");
    println!("\nshape check: shard-bounds pruning keeps batched sharded execution at or");
    println!("above monolithic throughput even on one core; with multiple cores the batch");
    println!("fans out across workers and throughput scales with min(threads, cores) —");
    println!("the acceptance bar is sharded ≥ monolithic on batched queries at 4 threads.");
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
        let surface: f64 = idx.graph().mbrs().iter().map(|mbr| mbr.surface_area()).sum();
        if packing == PackingStrategy::Hilbert {
            base_surface = surface;
        }
        let (mut head, mut io_ns) = (None, 0u64);
        let mut pages = 0u64;
        for q in &w.queries {
            let (_, s) = idx.range_query_with(q, |p| {
                io_ns += CostModel::default().read_ns(head.replace(p as u64), p as u64);
            });
            pages += s.pages_read;
        }
        let n = w.queries.len() as f64;
        t.row([
            format!("{packing:?}"),
            idx.page_count().to_string(),
            f1(idx.graph().mean_neighbors()),
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
struct SharedPolicy(std::sync::Arc<std::sync::Mutex<neurospatial::scout::MarkovPrefetcher>>);

impl SharedPolicy {
    fn table(&self) -> std::sync::MutexGuard<'_, neurospatial::scout::MarkovPrefetcher> {
        self.0.lock().expect("no walkthrough panicked holding the table")
    }
}

impl Prefetcher for SharedPolicy {
    fn name(&self) -> &'static str {
        self.table().name()
    }

    fn plan(&mut self, ctx: &PrefetchContext<'_>) -> neurospatial::scout::PrefetchPlan {
        self.table().plan(ctx)
    }

    fn reset(&mut self) {
        self.table().reset()
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
