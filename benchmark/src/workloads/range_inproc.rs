//! `range_inproc`: the paper's §2 claim. One thread asks a FLAT database
//! over dense tissue for boxes of three sizes through `db.query()`.
//! Index traversal does all the work; server, storage, scout and touch do
//! none.

use super::{closed_loop, mean_ns, set_up, Ctx, Outcome, Stop};
use crate::gen;
use crate::oracle::{sorted_ids_of, RangeOracle, ID_STRIDE};
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use std::time::Instant;

const NEURONS: usize = 4000;
/// Distinct boxes per round; a round is about a second on the seed.
const QUERIES: usize = 16_384;
/// `(half-extent µm, share)`: mostly small boxes, a few that return
/// thousands of segments.
const MIX: [(f64, f64); 3] = [(5.0, 0.70), (15.0, 0.25), (30.0, 0.05)];

struct State {
    circuit: Circuit,
    queries: Vec<Aabb>,
    db: NeuroDb,
    circuit_gen_s: f64,
    workload_gen_s: f64,
    db_build_s: f64,
}

fn count(db: &NeuroDb, q: &Aabb) -> u64 {
    let mut n = 0u64;
    db.query().range(*q).stream(|_| n += 1).expect("in-memory range queries do not fail");
    n
}

fn build_state(ctx: &Ctx) -> State {
    let started = Instant::now();
    let circuit = gen::dense_circuit(ctx.scaled(NEURONS) as u32);
    let circuit_gen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let queries = gen::range_queries(ctx.seed, &circuit, ctx.scaled(QUERIES), &MIX);
    let workload_gen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .backend(IndexBackend::Flat)
        .build()
        .expect("FLAT over a generated circuit is a valid configuration");
    let db_build_s = started.elapsed().as_secs_f64();

    // Warm-up: one untimed pass over 1/16 of the round.
    for q in &queries[..queries.len().div_ceil(16)] {
        std::hint::black_box(count(&db, q));
    }
    State { circuit, queries, db, circuit_gen_s, workload_gen_s, db_build_s }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = set_up(ctx, || build_state(ctx));
    let State { circuit, queries, db, .. } = &state;

    let mut oracle = RangeOracle::build(circuit.segments());
    let expected = oracle.expect(queries);

    // Full id sets on every 64th box, outside the timed section.
    let mut wrong_sets = 0u64;
    for (k, q) in queries.iter().step_by(ID_STRIDE).enumerate() {
        let got = db.query().range(*q).collect().expect("in-memory range queries do not fail");
        wrong_sets += u64::from(sorted_ids_of(&got.segments) != expected.ids[k]);
    }

    let op = |i: usize| count(db, &queries[i]) == u64::from(expected.counts[i]);
    let mut out = Outcome { setup_s, ..Outcome::default() };
    if let Some(tracer) = &ctx.tracer {
        let untraced = closed_loop(queries.len(), ctx.seconds, Stop::AfterRound, None, "", op);
        out.pass = closed_loop(
            queries.len(),
            ctx.seconds,
            Stop::AfterRound,
            Some(tracer),
            "core.query_stream",
            op,
        );
        out.layers = layers(&state, &oracle, &expected);
        out.layers
            .push(("bench.trace_overhead_share", out.pass.ops_per_s() / untraced.ops_per_s()));
    } else {
        out.pass = closed_loop(queries.len(), ctx.seconds, Stop::AfterRound, None, "", op);
    }
    out.pass.attempted += wrong_sets;
    out.pass.failed += wrong_sets;
    out.facts = vec![
        ("segments", circuit.segments().len() as f64),
        ("flat_pages", db.flat_index().map_or(0, |f| f.page_count()) as f64),
        ("distinct_queries", queries.len() as f64),
        ("id_set_checks", expected.ids.len() as f64),
    ];
    out
}

/// Attribution by substitution on the identical query list: the time of
/// `db.query()` minus the time of the `FlatIndex` it wraps is the query
/// funnel's own.
fn layers(
    state: &State,
    oracle: &RangeOracle,
    expected: &crate::oracle::Expected,
) -> Vec<(&'static str, f64)> {
    let State { circuit, queries, db, .. } = state;
    let flat = db.flat_index().expect("the database was built on FLAT");

    let mut scratch = FlatScratch::new();
    let (mut pages, mut results) = (0u64, 0u64);
    let mut direct = |q: &Aabb| {
        let s = flat.range_query_stream(q, &mut scratch, |_| {}, |_| Flow::Emit);
        pages += s.pages_read;
        results += s.results;
    };
    // Rungs alternate so drift in the machine's speed hits both alike.
    let mut flat_ns = Vec::new();
    let mut core_ns = Vec::new();
    for _ in 0..2 {
        flat_ns.push(mean_ns(queries, &mut direct));
        core_ns.push(mean_ns(queries, |q| {
            std::hint::black_box(count(db, q));
        }));
    }
    let flat_range_ns = crate::stats::mean(&flat_ns);
    let rounds = (flat_ns.len() * queries.len()) as f64;

    let started = Instant::now();
    let rebuilt = FlatIndex::build(circuit.segments().to_vec(), *flat.params());
    let flat_build_s = started.elapsed().as_secs_f64();
    drop(rebuilt);

    let sharded = NeuroDb::builder()
        .circuit(circuit)
        .backend_named("sharded:flat")
        .shards(2)
        .threads(2)
        .build()
        .expect("sharded FLAT is a registered backend");
    let quarter = &queries[..queries.len().div_ceil(4)];
    let sharded_ns = mean_ns(quarter, |q| {
        std::hint::black_box(count(&sharded, q));
    });

    vec![
        ("model.circuit_gen_s", state.circuit_gen_s),
        ("model.workload_gen_s", state.workload_gen_s),
        ("rtree.str_build_s", oracle.build_s),
        ("rtree.range_ns", expected.mean_ns),
        ("rtree.nodes_per_query", expected.nodes_per_query),
        ("flat.build_s", flat_build_s),
        ("flat.range_ns", flat_range_ns),
        ("flat.pages_per_query", pages as f64 / rounds),
        ("flat.results_per_query", results as f64 / rounds),
        ("flat.pages_per_result", pages as f64 / results.max(1) as f64),
        ("core.query_overhead_ns", crate::stats::mean(&core_ns) - flat_range_ns),
        ("core.build_overhead_s", state.db_build_s - flat_build_s),
        ("core.sharded_range_ns", sharded_ns),
    ]
}
