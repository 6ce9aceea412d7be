//! `serve_range`: small boxes over TCP. Two closed-loop `Client`
//! connections (the caller waits for every reply, as an analysis script
//! or a viewer does) against an in-process server with two workers. The
//! server (decode, admission, chunked encode, socket writes) does most of
//! the work and FLAT little, the reverse of `range_inproc`.

use super::{closed_loop, mean_ns, set_up, Ctx, Outcome, Pass, Stop};
use crate::gen;
use crate::oracle::{sorted_ids_of, Expected, RangeOracle, ID_STRIDE};
use crate::stats;
use neurospatial::obs::Histogram;
use neurospatial::prelude::*;
use neurospatial_server::protocol::{self, QueryDescView};
use neurospatial_server::{serve_with, Client, FilterRegistry, ServerConfig};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

const NEURONS: usize = 1000;
/// Connections, each on a thread of its own; the box has two cores.
const CLIENTS: usize = 2;
/// Distinct boxes per connection.
const QUERIES: usize = 8192;
/// Half-extent 4 µm: tens of results, a few KB per response.
const MIX: [(f64, f64); 1] = [(4.0, 1.0)];

/// Tenant 0, no population, filter or limit: a plain range request.
pub const DESC: QueryDescView<'static> = QueryDescView {
    tenant: 0,
    population: None,
    filter_id: None,
    limit: None,
    allow_partial: false,
};

pub fn server_config() -> ServerConfig {
    ServerConfig { workers: 2, ..ServerConfig::default() }
}

struct State {
    circuit: Circuit,
    /// One query list per connection.
    queries: Vec<Vec<Aabb>>,
    db: NeuroDb,
}

fn build_state(ctx: &Ctx) -> State {
    let circuit = gen::dense_circuit(ctx.scaled(NEURONS) as u32);
    let queries: Vec<Vec<Aabb>> = (0..CLIENTS as u64)
        .map(|c| gen::range_queries(gen::mix64(ctx.seed ^ c), &circuit, ctx.scaled(QUERIES), &MIX))
        .collect();
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .backend(IndexBackend::Flat)
        .build()
        .expect("FLAT over a generated circuit is a valid configuration");
    // Server start and warm-up: 1/16 of each list over the wire.
    serve_with(&db, &FilterRegistry::new(), &server_config(), |server| {
        let mut out = Vec::new();
        for list in &queries {
            let mut client = Client::connect(server.addr()).expect("the server is listening");
            for q in &list[..list.len().div_ceil(16)] {
                client.range(&DESC, q, &mut out).expect("warm-up request");
            }
        }
    })
    .expect("bind a loopback port");
    State { circuit, queries, db }
}

/// All connections at once, each looping over its own list until the
/// deadline.
fn timed_section(
    ctx: &Ctx,
    addr: SocketAddr,
    state: &State,
    expected: &[Expected],
    traced: bool,
) -> Pass {
    let barrier = Barrier::new(CLIENTS);
    let tracer = if traced { ctx.tracer.as_deref() } else { None };
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .queries
            .iter()
            .zip(expected)
            .map(|(list, expected)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("the server is listening");
                    let mut out = Vec::new();
                    barrier.wait();
                    closed_loop(
                        list.len(),
                        ctx.seconds,
                        Stop::AtDeadline,
                        tracer,
                        "server.client_range",
                        |i| match client.range(&DESC, &list[i], &mut out) {
                            Ok(_) => out.len() == expected.counts[i] as usize,
                            Err(_) => false,
                        },
                    )
                })
            })
            .collect();
        let mut total = Pass::default();
        for h in handles {
            total.absorb(h.join().expect("client thread"));
        }
        total
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (state, setup_s) = set_up(ctx, || build_state(ctx));
    let mut oracle = RangeOracle::build(state.circuit.segments());
    let expected: Vec<Expected> = state.queries.iter().map(|l| oracle.expect(l)).collect();

    let mut out = Outcome { setup_s, ..Outcome::default() };
    serve_with(&state.db, &FilterRegistry::new(), &server_config(), |server| {
        // Full id sets on every 64th box, over the wire, untimed.
        let mut client = Client::connect(server.addr()).expect("the server is listening");
        let mut got = Vec::new();
        let mut wrong_sets = 0u64;
        for (list, expected) in state.queries.iter().zip(&expected) {
            for (k, q) in list.iter().step_by(ID_STRIDE).enumerate() {
                let ok = client.range(&DESC, q, &mut got).is_ok();
                wrong_sets += u64::from(!ok || sorted_ids_of(&got) != expected.ids[k]);
            }
        }
        drop(client);

        if ctx.traced() {
            let untraced = timed_section(ctx, server.addr(), &state, &expected, false);
            out.pass = timed_section(ctx, server.addr(), &state, &expected, true);
            let share = out.pass.ops_per_s() / untraced.ops_per_s();
            out.layers.push(("bench.trace_overhead_share", share));
            out.layers.extend(wire_layers(server.addr()));
        } else {
            out.pass = timed_section(ctx, server.addr(), &state, &expected, false);
        }
        out.pass.attempted += wrong_sets;
        out.pass.failed += wrong_sets;
    })
    .expect("bind a loopback port");

    if ctx.traced() {
        out.layers.extend(inproc_layers(&state, out.pass.mean_ns()));
    }
    out.facts = vec![
        ("segments", state.circuit.segments().len() as f64),
        ("clients", CLIENTS as f64),
        ("server_workers", server_config().workers as f64),
        ("distinct_queries", (CLIENTS * state.queries[0].len()) as f64),
    ];
    out
}

/// What only a live server can tell: its refusal counters and the cost
/// of a `METRICS` scrape.
fn wire_layers(addr: SocketAddr) -> Vec<(&'static str, f64)> {
    let mut client = Client::connect(addr).expect("the server is listening");
    let mut scrapes = Vec::new();
    let mut snapshot = None;
    for _ in 0..20 {
        let started = Instant::now();
        snapshot = client.metrics().ok();
        scrapes.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    let counter =
        |name: &str| snapshot.as_ref().and_then(|s| s.counter(name)).map_or(f64::NAN, |v| v as f64);
    vec![
        ("server.busy_rejects", counter("server_connections_rejected_total")),
        ("server.protocol_errors", counter("server_protocol_errors_total")),
        ("server.timeouts", counter("server_request_timeouts_total")),
        ("obs.scrape_us", stats::median(&scrapes)),
    ]
}

/// Attribution by substitution: the same boxes through `QuerySession`
/// (what a server worker calls) cost `core.session_range_ns`; what a
/// request costs beyond that is the wire's. Decode and encode are timed
/// on the frames these boxes and their answers make.
fn inproc_layers(state: &State, client_mean_ns: f64) -> Vec<(&'static str, f64)> {
    let queries: Vec<Aabb> = state.queries.concat();
    let mut session = state.db.query().session();
    let session_ns = mean_ns(&queries, |q| {
        std::hint::black_box(session.range(q).0.len());
    });

    let mut frames = Vec::new();
    let mut bounds = vec![0usize];
    for q in &queries {
        protocol::encode_range_request(&DESC, q, &mut frames);
        bounds.push(frames.len());
    }
    let started = Instant::now();
    for w in bounds.windows(2) {
        // A frame is a 4-byte length, the opcode, then the payload.
        let frame = &frames[w[0] + 4..w[1]];
        std::hint::black_box(protocol::decode_request_view(frame[0], &frame[1..]).is_ok());
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / queries.len() as f64;

    let chunk = server_config().chunk;
    let (mut segments, mut bytes, mut chunks, mut encode_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    for q in &queries {
        let (result, query_stats) = session.range(q);
        let started = Instant::now();
        buf.clear();
        for part in result.chunks(chunk) {
            protocol::encode_segment_chunk(part, &mut buf);
            chunks += 1;
        }
        encode_ns += started.elapsed().as_nanos() as u64;
        segments += result.len() as u64;
        protocol::encode_done(&query_stats, &mut buf);
        bytes += buf.len() as u64;
    }
    let responses = queries.len() as f64;

    let hist = Histogram::new();
    const RECORDS: u64 = 1_000_000;
    let started = Instant::now();
    for i in 0..RECORDS {
        hist.record(std::hint::black_box(20_000 + (i & 1023)));
    }
    let record_ns = started.elapsed().as_nanos() as f64 / RECORDS as f64;

    vec![
        ("core.session_range_ns", session_ns),
        ("server.wire_overhead_us", (client_mean_ns - session_ns) / 1e3),
        ("server.decode_request_ns", decode_ns),
        ("server.encode_ns_per_segment", encode_ns as f64 / segments.max(1) as f64),
        ("server.bytes_per_response", bytes as f64 / responses),
        // Segment chunks plus the closing DONE frame.
        ("server.frames_per_response", chunks as f64 / responses + 1.0),
        ("obs.hist_record_ns", record_ns),
    ]
}
