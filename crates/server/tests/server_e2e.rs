//! End-to-end: a real server on a loopback socket must answer every
//! operation with exactly what the embedded query API produces — on all
//! four index backends — and its admission control must shed load the
//! way the config promises.

use neurospatial::geom::{Aabb, Vec3};
use neurospatial::model::{Circuit, CircuitBuilder, NavigationPath, NeuronSegment};
use neurospatial::{IndexBackend, NeuroDb, NeuroError, WalkthroughMethod};
use neurospatial_server::protocol::{self as p, QueryDescView, Request};
use neurospatial_server::{serve_with, Client, ClientError, FilterRegistry, ServerConfig};
use std::time::Duration;

fn circuit() -> Circuit {
    CircuitBuilder::new(17).neurons(30).build()
}

fn build_db(circuit: &Circuit, backend: IndexBackend) -> NeuroDb {
    NeuroDb::builder()
        .circuit(circuit)
        .backend(backend)
        .split_populations("axons", "dendrites", |s| s.neuron.is_multiple_of(2))
        .build()
        .expect("database builds")
}

fn even(s: &NeuronSegment) -> bool {
    s.neuron.is_multiple_of(2)
}

fn regions() -> Vec<Aabb> {
    vec![
        Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 40.0),
        Aabb::cube(Vec3::new(15.0, -10.0, 5.0), 12.0),
        Aabb::cube(Vec3::new(-25.0, 20.0, -8.0), 6.0),
        Aabb::cube(Vec3::new(500.0, 500.0, 500.0), 1.0), // empty
    ]
}

/// Every operation, every backend: the bytes that come back over TCP
/// decode to exactly what `collect()` produces in-process.
#[test]
fn server_responses_match_local_execution_on_all_backends() {
    let circuit = circuit();
    for backend in IndexBackend::ALL {
        let db = build_db(&circuit, backend);
        let even_pred = |s: &NeuronSegment| even(s);
        let mut filters = FilterRegistry::new();
        filters.register(1, &even_pred);

        serve_with(&db, &filters, &ServerConfig::default(), |handle| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            let mut segments = Vec::new();
            let mut neighbors = Vec::new();
            let mut pairs = Vec::new();
            let plain = QueryDescView { tenant: 1, ..Default::default() };
            let composed = QueryDescView {
                tenant: 1,
                population: Some("axons"),
                filter_id: Some(1),
                limit: Some(7),
                ..Default::default()
            };

            for region in regions() {
                // Plain range: segments and traversal stats byte-match.
                let stats = client.range(&plain, &region, &mut segments).expect("range");
                let local = db.query().range(region).collect().expect("local range");
                assert_eq!(segments, local.segments, "{backend:?} range {region:?}");
                assert_eq!(stats, local.stats, "{backend:?} range stats {region:?}");

                // Full pushdown composition: population + filter + limit.
                let stats = client.range(&composed, &region, &mut segments).expect("pushdown");
                let local = db
                    .query()
                    .range(region)
                    .in_population("axons")
                    .filter(&even)
                    .limit(7)
                    .collect()
                    .expect("local pushdown");
                assert_eq!(segments, local.segments, "{backend:?} pushdown {region:?}");
                assert_eq!(stats, local.stats, "{backend:?} pushdown stats {region:?}");

                // Count terminal agrees with materializing locally.
                let (count, cstats) = client.count(&plain, &region).expect("count");
                let local = db.query().range(region).collect().expect("local count");
                assert_eq!(count, local.segments.len() as u64, "{backend:?} count {region:?}");
                assert_eq!(cstats, local.stats, "{backend:?} count stats {region:?}");
            }

            // KNN, plain and composed.
            let probe = Vec3::new(5.0, 5.0, 5.0);
            let stats = client.knn(&plain, probe, 5, &mut neighbors).expect("knn");
            let (local, local_stats) = db.query().knn(probe, 5).collect().expect("local knn");
            assert_eq!(neighbors, local, "{backend:?} knn");
            assert_eq!(stats, local_stats, "{backend:?} knn stats");

            let stats = client.knn(&composed, probe, 5, &mut neighbors).expect("knn pushdown");
            let (local, local_stats) = db
                .query()
                .knn(probe, 5)
                .in_population("axons")
                .filter(&even)
                .limit(7)
                .collect()
                .expect("local knn pushdown");
            assert_eq!(neighbors, local, "{backend:?} knn pushdown");
            assert_eq!(stats, local_stats, "{backend:?} knn pushdown stats");

            // Touching join: pairs in emission order, stats mapped from
            // the join's comparison counters.
            let axons =
                QueryDescView { tenant: 1, population: Some("axons"), ..Default::default() };
            let stats = client.touching(&axons, "dendrites", 2.0, &mut pairs).expect("touching");
            let local = db
                .query()
                .touching("dendrites", 2.0)
                .in_population("axons")
                .collect()
                .expect("local touching");
            assert_eq!(pairs, local.pairs, "{backend:?} touching");
            assert_eq!(stats.results, local.pairs.len() as u64);
            assert_eq!(
                stats.objects_tested,
                local.stats.filter_comparisons + local.stats.refine_comparisons,
                "{backend:?} touching comparison counters"
            );

            // EXPLAIN returns the same plan the local builder prints.
            let region = regions()[0];
            let wire = client
                .explain(&Request::Range { desc: composed.into_owned(), region })
                .expect("explain");
            let local =
                db.query().range(region).in_population("axons").filter(&even).limit(7).explain();
            assert_eq!(wire.operation, local.operation);
            assert_eq!(wire.backend, local.backend.to_string());
            assert_eq!(wire.shards_total, local.shards_total as u32);
            assert_eq!(wire.shards_probed, local.shards_probed as u32);
            assert_eq!(wire.estimated_reads, local.estimated_reads);
            assert_eq!(wire.pushdown_filter, local.pushdown_filter);
            assert_eq!(wire.pushdown_limit, local.pushdown_limit.map(|l| l as u32));
            assert_eq!(wire.population, local.population);

            // Walkthrough: FLAT replays it; tree backends refuse with a
            // typed application error.
            let path = NavigationPath::along_random_branch(&circuit, 3, 20.0, 8.0).expect("path");
            let walk = client.walkthrough(1, WalkthroughMethod::Scout, &path);
            if backend == IndexBackend::Flat {
                let summary = walk.expect("flat walkthrough");
                let local = db
                    .query()
                    .along_path(&path)
                    .method(WalkthroughMethod::Scout)
                    .run()
                    .expect("local walk");
                assert_eq!(summary.steps, local.steps.len() as u32);
                assert_eq!(summary.demand_misses, local.total_demand_misses);
                assert_eq!(summary.demand_hits, local.total_demand_hits);
                assert_eq!(summary.prefetched, local.total_prefetched);
                assert_eq!(summary.useful_prefetched, local.useful_prefetched);
            } else {
                match walk {
                    Err(ClientError::Server { code, .. }) => assert_eq!(code, p::ERR_UNSUPPORTED),
                    other => panic!("{backend:?} walkthrough should be refused, got {other:?}"),
                }
            }

            // Application errors are typed and leave the connection usable.
            let bad_pop =
                QueryDescView { tenant: 1, population: Some("soma"), ..Default::default() };
            match client.count(&bad_pop, &regions()[0]) {
                Err(ClientError::Server { code, .. }) => {
                    assert_eq!(code, p::ERR_UNKNOWN_POPULATION)
                }
                other => panic!("unknown population should fail, got {other:?}"),
            }
            let bad_filter = QueryDescView { tenant: 1, filter_id: Some(99), ..Default::default() };
            match client.count(&bad_filter, &regions()[0]) {
                Err(ClientError::Server { code, .. }) => assert_eq!(code, p::ERR_UNKNOWN_FILTER),
                other => panic!("unknown filter should fail, got {other:?}"),
            }
            client.count(&plain, &regions()[0]).expect("connection survives app errors");
        })
        .expect("serve");
    }
}

/// With one worker and a zero-length queue, a second concurrent
/// connection must be shed with `BUSY` before any request is read — and
/// capacity must come back once the first connection closes.
#[test]
fn admission_control_sheds_and_recovers() {
    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();
    let cfg =
        ServerConfig { workers: 1, queue: 0, poll: Duration::from_millis(5), ..Default::default() };

    serve_with(&db, &filters, &cfg, |handle| {
        let region = Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 20.0);
        let plain = QueryDescView { tenant: 1, ..Default::default() };

        // Claim the only worker and prove it by completing a request.
        let mut holder = Client::connect(handle.addr()).expect("connect");
        let mut segments = Vec::new();
        holder.range(&plain, &region, &mut segments).expect("holder range");

        // The shed path: read the BUSY frame without sending anything,
        // so the reject is observed even though the server immediately
        // closes the socket.
        let mut shed = std::net::TcpStream::connect(handle.addr()).expect("connect");
        shed.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut reader = p::FrameReader::new();
        let (op, payload) = reader.read_frame(&mut shed).expect("busy frame");
        assert_eq!(op, p::OP_BUSY);
        assert!(payload.is_empty());
        drop(shed);
        assert!(handle.metrics().rejected.get() >= 1);

        // Release the worker; a fresh connection must be admitted within
        // a few poll intervals.
        drop(holder);
        let mut recovered = false;
        for _ in 0..400 {
            let mut retry = match Client::connect(handle.addr()) {
                Ok(c) => c,
                Err(_) => continue,
            };
            retry.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
            match retry.range(&plain, &region, &mut segments) {
                Ok(_) => {
                    recovered = true;
                    break;
                }
                Err(ClientError::Busy | ClientError::Io(_)) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("unexpected error while recovering: {other:?}"),
            }
        }
        assert!(recovered, "server never re-admitted after the holder disconnected");
    })
    .expect("serve");
}

/// Admission is by count: `workers + queue` connections opened at once
/// against idle workers are all admitted, whether or not a worker is
/// parked on the hand-off at that instant. Each connection runs one
/// request, half-closes, and waits for the server's close, which comes
/// only after its slot is free; so the next round starts against idle
/// workers with no sleep in between.
#[test]
fn idle_workers_admit_workers_plus_queue_at_once() {
    use std::io::{Read, Write};

    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();
    let mut request = Vec::new();
    let plain = QueryDescView { tenant: 1, ..Default::default() };
    p::encode_count_request(&plain, &Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 10.0), &mut request);

    for (workers, queue) in [(1, 0), (2, 0), (2, 1)] {
        let cfg =
            ServerConfig { workers, queue, poll: Duration::from_millis(5), ..Default::default() };
        serve_with(&db, &filters, &cfg, |handle| {
            const ROUNDS: usize = 200;
            let mut reader = p::FrameReader::new();
            for round in 0..ROUNDS {
                let mut conns: Vec<_> = (0..workers + queue)
                    .map(|_| {
                        let c = std::net::TcpStream::connect(handle.addr()).expect("connect");
                        c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
                        c
                    })
                    .collect();
                // In accept order: a queued connection is served once an
                // earlier one has closed.
                for (i, conn) in conns.iter_mut().enumerate() {
                    conn.write_all(&request).expect("send");
                    reader.clear();
                    let (op, _) = reader.read_frame(conn).expect("answer");
                    assert_eq!(
                        op,
                        p::OP_COUNT_RESULT,
                        "workers {workers} queue {queue}: round {round} connection {i} not served"
                    );
                    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
                    assert_eq!(conn.read(&mut [0u8; 8]).expect("server closes"), 0);
                }
            }
            let m = handle.metrics();
            assert_eq!(
                m.rejected.get(),
                0,
                "workers {workers} queue {queue}: BUSY under the ceiling"
            );
            assert_eq!(m.accepted.get(), (ROUNDS * (workers + queue)) as u64);
        })
        .expect("serve");
    }
}

/// Garbage on the wire is answered with a typed protocol error frame,
/// counted, and the connection is closed — the worker survives to serve
/// the next client.
#[test]
fn protocol_garbage_is_rejected_and_counted() {
    use std::io::Write;

    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();

    serve_with(&db, &filters, &ServerConfig::default(), |handle| {
        // An unknown opcode inside a well-formed frame.
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        raw.write_all(&[1, 0, 0, 0, 0xEE]).expect("send");
        let mut reader = p::FrameReader::new();
        let (op, payload) = reader.read_frame(&mut raw).expect("error frame");
        assert_eq!(op, p::OP_ERROR);
        match p::decode_response(op, payload).expect("decode") {
            p::Response::Error { code, .. } => assert_eq!(code, p::ERR_PROTOCOL),
            other => panic!("expected error response, got {other:?}"),
        }
        // ... and the server hangs up on us.
        assert!(reader.read_frame(&mut raw).is_err(), "connection should be closed");

        // A length header beyond MAX_FRAME.
        let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("send");
        let mut reader = p::FrameReader::new();
        let (op, _) = reader.read_frame(&mut raw).expect("error frame");
        assert_eq!(op, p::OP_ERROR);

        assert!(handle.metrics().protocol_errors.get() >= 2, "protocol errors must be counted");

        // The worker pool is unharmed: a normal client still gets served.
        let mut client = Client::connect(handle.addr()).expect("connect");
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        client.count(&plain, &Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 10.0)).expect("count");
    })
    .expect("serve");
}

/// A zero request budget cuts every non-empty range stream short with a
/// typed `TIMEOUT` frame: the prefix received is consistent with the
/// stats on the frame, the error is retryable, and empty streams (no
/// emissions, so no budget checks) still complete with `DONE`.
#[test]
fn zero_budget_cuts_streams_with_a_typed_timeout() {
    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();
    let cfg = ServerConfig { request_budget: Duration::ZERO, ..Default::default() };

    serve_with(&db, &filters, &cfg, |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut segments = Vec::new();
        let plain = QueryDescView { tenant: 1, ..Default::default() };

        let busy_region = Aabb::cube(circuit.bounds().center(), 1.0e4);
        let expected = db.query().range(busy_region).collect().expect("local").segments.len();
        assert!(expected > 1, "test region must hold results for the budget to cut");
        match client.range(&plain, &busy_region, &mut segments) {
            Err(err @ ClientError::Timeout { .. }) => {
                assert!(err.is_retryable(), "timeouts must be retryable");
                let ClientError::Timeout { stats } = err else { unreachable!() };
                assert_eq!(stats.results, 1, "the first result checks the budget and is delivered");
                assert_eq!(
                    segments.len() as u64,
                    stats.results,
                    "the streamed prefix matches the timeout frame's stats"
                );
            }
            other => panic!("zero budget should time out, got {other:?}"),
        }

        // No results -> no budget checks -> a clean DONE.
        let empty_region = Aabb::cube(Vec3::new(500.0, 500.0, 500.0), 1.0);
        let stats = client.range(&plain, &empty_region, &mut segments).expect("empty range");
        assert_eq!(stats.results, 0);
    })
    .expect("serve");
}

/// A connection that starts a frame and then trickles it must be
/// evicted once `read_deadline` elapses — and the worker it was pinning
/// must serve the next client.
#[test]
fn slow_loris_connections_are_evicted() {
    use std::io::{Read, Write};

    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();
    let cfg = ServerConfig {
        workers: 1,
        queue: 0,
        poll: Duration::from_millis(5),
        read_deadline: Duration::from_millis(50),
        ..Default::default()
    };

    serve_with(&db, &filters, &cfg, |handle| {
        let mut loris = std::net::TcpStream::connect(handle.addr()).expect("connect");
        loris.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        // Half a frame header, then silence.
        loris.write_all(&[5, 0]).expect("trickle");
        let start = std::time::Instant::now();
        let mut buf = [0u8; 16];
        match loris.read(&mut buf) {
            Ok(0) | Err(_) => {} // hung up on us — the eviction
            Ok(n) => panic!("server answered a half-frame with {n} bytes"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "eviction took {:?}, deadline was 50ms",
            start.elapsed()
        );

        // The only worker is free again.
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        client
            .count(&plain, &Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 10.0))
            .expect("worker serves after evicting the loris");
    })
    .expect("serve");
}

/// The slow-loris clock starts at a frame's first byte even when that
/// byte arrived in the same read as the previous frame: a whole request
/// followed by two bytes of the next one, then silence, gets its answer
/// and is then evicted by `read_deadline`.
#[test]
fn coalesced_slow_loris_is_answered_then_evicted() {
    use std::io::{Read, Write};

    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();
    let cfg = ServerConfig {
        workers: 1,
        queue: 0,
        poll: Duration::from_millis(5),
        read_deadline: Duration::from_millis(50),
        ..Default::default()
    };

    serve_with(&db, &filters, &cfg, |handle| {
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        let region = Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 10.0);
        let mut bytes = Vec::new();
        p::encode_count_request(&plain, &region, &mut bytes);
        let whole = bytes.len();
        p::encode_count_request(&plain, &region, &mut bytes);
        bytes.truncate(whole + 2);

        let mut loris = std::net::TcpStream::connect(handle.addr()).expect("connect");
        loris.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        loris.write_all(&bytes).expect("one write");
        let start = std::time::Instant::now();
        let mut reader = p::FrameReader::new();
        let (op, payload) = reader.read_frame(&mut loris).expect("the whole request is answered");
        assert_eq!(op, p::OP_COUNT_RESULT);
        let (count, _) = p::decode_count(payload).expect("count");
        assert_eq!(count, db.query().range(region).collect().expect("local").segments.len() as u64);

        let mut buf = [0u8; 16];
        match loris.read(&mut buf) {
            Ok(0) | Err(_) => {} // hung up on us — the eviction
            Ok(n) => panic!("server answered a partial frame with {n} bytes"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "eviction took {:?}, deadline was 50ms",
            start.elapsed()
        );
        assert_eq!(handle.metrics().read_timeouts.get(), 1, "evicted by the read deadline");

        // The only worker is free again.
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
        client.count(&plain, &region).expect("worker serves after evicting the loris");
    })
    .expect("serve");
}

/// Shutdown is a join, not a leak: serve_with must return even when a
/// client connection is still open — workers notice the stop flag at
/// the next frame boundary and close cleanly.
#[test]
fn shutdown_joins_with_a_live_idle_connection() {
    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    let filters = FilterRegistry::new();

    let survivor = serve_with(&db, &filters, &ServerConfig::default(), |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        client.count(&plain, &Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 10.0)).expect("count");
        handle.shutdown();
        client // keep the socket open across the shutdown path
    })
    .expect("serve_with must return with a connection still open");
    drop(survivor);
}

/// The full degradation arc over the wire: a healthy paged server
/// reports clean HEALTH; after on-disk corruption, the first strict
/// query fails and quarantines the page, subsequent strict queries get
/// the typed DEGRADED error, `allow_partial` serves the survivors with
/// the loss labeled in the stats, and HEALTH names the quarantined page.
#[test]
fn health_and_partial_results_survive_a_quarantined_page() {
    let circuit = CircuitBuilder::new(23).neurons(120).build();
    let path = std::env::temp_dir().join(format!("nsrv_health_{}.nspf", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .backend(IndexBackend::Flat)
        .page_file(&path)
        .frame_budget(1)
        .build()
        .expect("paged database builds");
    let pages = db.paged_index().expect("paged").page_count();
    assert!(pages >= 2, "need at least two pages to quarantine one, got {pages}");
    let filters = FilterRegistry::new();

    serve_with(&db, &filters, &ServerConfig::default(), |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut segments = Vec::new();
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        let region = Aabb::cube(circuit.bounds().center(), 1.0e4);

        let health = client.health().expect("health");
        assert!(health.paged, "paged database must report paged");
        assert!(!health.degraded && health.quarantined.is_empty(), "healthy at first");
        let baseline = client.range(&plain, &region, &mut segments).expect("healthy range");
        assert!(baseline.results > 0);

        // Corrupt one page on disk behind the live server.
        let victim = (pages / 2) as u64;
        neurospatial::storage::tear_page(&path, victim).expect("tear");

        // First strict touch fails (checksum) and quarantines the page;
        // from then on strict queries get the typed DEGRADED error.
        let first = client.range(&plain, &region, &mut segments);
        match first {
            Err(ClientError::Server { code, .. }) => {
                assert!(
                    code == p::ERR_INTERNAL || code == p::ERR_DEGRADED,
                    "unexpected error code {code}"
                )
            }
            other => panic!("strict query over torn page should fail, got {other:?}"),
        }
        match client.range(&plain, &region, &mut segments) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, p::ERR_DEGRADED),
            other => panic!("quarantined page should be a typed DEGRADED error, got {other:?}"),
        }
        // A KNN wide enough to need every page gets the error frame RANGE
        // gets (and the worker survives to answer what follows); in
        // process, the builder's KNN returns the same typed error.
        let (probe, everything) = (circuit.bounds().center(), circuit.segments().len() as u32);
        let mut neighbors = Vec::new();
        match client.knn(&plain, probe, everything, &mut neighbors) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, p::ERR_DEGRADED),
            other => panic!("KNN over a quarantined page should be DEGRADED, got {other:?}"),
        }
        assert!(matches!(
            db.query().knn(probe, everything as usize).collect(),
            Err(NeuroError::DegradedResult { .. })
        ));

        // Partial opt-in: the surviving pages serve, the loss is labeled.
        let partial = QueryDescView { tenant: 1, allow_partial: true, ..Default::default() };
        let stats = client.range(&partial, &region, &mut segments).expect("partial range");
        assert!(stats.pages_quarantined >= 1, "loss must be labeled");
        assert!(
            stats.results < baseline.results,
            "partial results should be missing the torn page's segments"
        );
        let stats = client.knn(&partial, probe, everything, &mut neighbors).expect("partial knn");
        assert!(stats.pages_quarantined >= 1, "loss must be labeled");
        assert_eq!(neighbors.len() as u64, stats.results);
        assert!(stats.results < baseline.results);

        // HEALTH now names the quarantined page.
        let health = client.health().expect("health");
        assert!(health.paged && health.degraded);
        assert!(health.quarantined.contains(&victim), "{:?}", health.quarantined);
    })
    .expect("serve");
    let _ = std::fs::remove_file(&path);
}

/// Live ingest over the wire: INSERT/REMOVE ack after the WAL commit,
/// queries see the writes immediately, METRICS reports the WAL state as
/// `db_*` gauges, and the log survives a server restart.
#[test]
fn live_ingest_acks_serves_and_recovers_over_the_wire() {
    let circuit = circuit();
    let wal =
        std::env::temp_dir().join(format!("neurospatial-server-ingest-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let filters = FilterRegistry::new();
    let far = Aabb::cube(Vec3::new(4_000.5, 0.0, 0.0), 10.0);
    let new_seg = NeuronSegment {
        id: 5_000_000,
        neuron: 999,
        section: 0,
        index_on_section: 0,
        geom: neurospatial::geom::Segment::new(
            Vec3::new(4_000.0, 0.0, 0.0),
            Vec3::new(4_001.0, 0.0, 0.0),
            0.5,
        ),
    };
    let victim = circuit.segments()[0];

    {
        let db = NeuroDb::builder().circuit(&circuit).durable(&wal).build().expect("live db");
        serve_with(&db, &filters, &ServerConfig::default(), |handle| {
            let mut client = Client::connect(handle.addr()).expect("connect");
            let mut segments = Vec::new();
            let plain = QueryDescView { tenant: 1, ..Default::default() };

            // Writes on a frozen db would be unsupported; here they ack.
            let ack = client.insert(1, &new_seg).expect("insert acked");
            assert!(ack.lsn > 0);
            let ack2 = client.remove(1, victim.id).expect("remove acked");
            assert!(ack2.lsn > ack.lsn);

            // The insert is queryable on the same connection...
            let stats = client.range(&plain, &far, &mut segments).expect("range");
            assert_eq!(stats.results, 1);
            assert_eq!(segments[0].id, new_seg.id);
            // ...and the removal is masked out.
            let around = Aabb::cube(victim.geom.p0, 1.0);
            client.range(&plain, &around, &mut segments).expect("range");
            assert!(segments.iter().all(|s| s.id != victim.id));

            // Rejections are typed and at-most-once-safe.
            match client.insert(1, &new_seg) {
                Err(e @ ClientError::WriteRejected { .. }) => {
                    assert!(e.write_definitely_not_executed());
                }
                other => panic!("duplicate insert should be rejected, got {other:?}"),
            }

            // A live database lends out no `paged_index()` borrow, and
            // HEALTH reads that as "not paged", which it is.
            let health = client.health().expect("health");
            assert!(!health.paged && !health.degraded && health.quarantined.is_empty());
            // The WAL state rides the METRICS scrape.
            let snap = client.metrics().expect("metrics");
            let lsn = snap.gauge("db_wal_last_lsn").expect("live server reports its WAL");
            assert!(lsn >= ack2.lsn as i64);
            assert_eq!(snap.gauge("db_delta_pending_ops"), Some(2));
            assert_eq!(snap.gauge("db_wal_recovered_torn_tail"), Some(0));
        })
        .expect("serve");
    }

    // Restart the server over the same WAL: the acked writes survive.
    let reopened = NeuroDb::builder().segments(vec![]).durable(&wal).build().expect("recover");
    serve_with(&reopened, &filters, &ServerConfig::default(), |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut segments = Vec::new();
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        let stats = client.range(&plain, &far, &mut segments).expect("range");
        assert_eq!(stats.results, 1, "acked insert must survive restart");
        assert_eq!(segments[0].id, new_seg.id);
        let snap = client.metrics().expect("metrics");
        assert_eq!(snap.gauge("db_wal_replayed_ops"), Some(2));
    })
    .expect("serve");
    let _ = std::fs::remove_file(&wal);
}

/// The query work counters in a METRICS scrape are exact once the
/// connections that ran the queries are idle: a server worker folds its
/// thread's staged counts in when its connection goes idle, and the
/// METRICS arm folds in its own before the snapshot. The counters are
/// process-wide and the other tests in this binary feed them too, so the
/// test runs itself again, alone, in a child process.
#[test]
fn metrics_query_counters_are_exact_once_connections_idle() {
    const NAME: &str = "metrics_query_counters_are_exact_once_connections_idle";
    if std::env::var_os("NSRV_TEST_ALONE").is_none() {
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", NAME, "--test-threads=1", "--quiet"])
            .env("NSRV_TEST_ALONE", "1")
            .status()
            .expect("the test binary runs");
        assert!(status.success(), "{NAME} failed when run alone");
        return;
    }
    let circuit = circuit();
    let db = build_db(&circuit, IndexBackend::Flat);
    serve_with(&db, &FilterRegistry::new(), &ServerConfig::default(), |handle| {
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        let mut segments = Vec::new();
        let mut clients = [(); 2].map(|()| Client::connect(handle.addr()).expect("connect"));
        let total = |snap: &neurospatial::obs::MetricsSnapshot| {
            let count = |name| snap.counter(name).unwrap_or(0);
            (count("query_results_total"), count("query_nodes_read_total"))
        };
        let before = total(&clients[0].metrics().expect("metrics"));
        // Five ranges a connection, around segments so that each finds
        // some: fewer than the 32 a thread stages before it flushes on
        // its own.
        let (mut results, mut nodes) = (0, 0);
        for i in 0..5 {
            let region = Aabb::cube(circuit.segments()[i * 97].geom.center(), 15.0);
            for client in clients.iter_mut() {
                let stats = client.range(&plain, &region, &mut segments).expect("range");
                results += stats.results;
                nodes += stats.nodes_read;
            }
        }
        assert!(results > 0 && nodes > 0);
        // The second connection's worker flushes once it has written its
        // last answer, which the client may read a moment before that.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let after = total(&clients[0].metrics().expect("metrics"));
            let served = (after.0 - before.0, after.1 - before.1);
            if served == (results, nodes) || std::time::Instant::now() > deadline {
                assert_eq!(served, (results, nodes), "(results, nodes read) in the scrape");
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    })
    .expect("serve");
}

/// METRICS over the wire, one run: a scripted request sequence shows up
/// exactly in the per-server counters, and the merged snapshot carries
/// live latency histograms for queries, page I/O, and WAL commits.
#[test]
fn metrics_opcode_reports_scripted_counts_and_live_histograms() {
    let circuit = CircuitBuilder::new(29).neurons(120).build();
    let filters = FilterRegistry::new();
    let page_path = std::env::temp_dir().join(format!("nsrv_metrics_{}.nspf", std::process::id()));
    let wal = std::env::temp_dir().join(format!("nsrv_metrics_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&page_path);
    let _ = std::fs::remove_file(&wal);

    // Query/storage series live in the process-global registry, which
    // other tests in this binary also feed — assert on deltas only.
    let before = neurospatial::obs::global().snapshot();
    let count_of = |snap: &neurospatial::obs::MetricsSnapshot, name: &str| {
        snap.histogram(name).map(|h| h.count).unwrap_or(0)
    };
    let base_ranges = count_of(&before, "query_range_latency_ns");
    let base_knns = count_of(&before, "query_knn_latency_ns");
    let base_reads = count_of(&before, "storage_page_read_latency_ns");
    let base_commits = count_of(&before, "wal_commit_latency_ns");

    // Phase 1: a paged server. Every demand miss on the frame pool is a
    // timed page read.
    let db = NeuroDb::builder()
        .circuit(&circuit)
        .backend(IndexBackend::Flat)
        .page_file(&page_path)
        .frame_budget(1)
        .build()
        .expect("paged database builds");
    serve_with(&db, &filters, &ServerConfig::default(), |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let mut segments = Vec::new();
        let mut neighbors = Vec::new();
        let plain = QueryDescView { tenant: 1, ..Default::default() };
        let region = Aabb::cube(circuit.bounds().center(), 1.0e4);

        for _ in 0..3 {
            client.range(&plain, &region, &mut segments).expect("range");
        }
        client.knn(&plain, Vec3::new(0.0, 0.0, 0.0), 4, &mut neighbors).expect("knn");
        client.count(&plain, &region).expect("count");

        // The per-server registry was born with this server, so its
        // counters match the scripted sequence exactly. The snapshot is
        // taken while serving the METRICS request itself — the 6th.
        let snap = client.metrics().expect("metrics");
        assert_eq!(snap.counter("server_requests_total"), Some(6));
        assert_eq!(snap.counter("server_connections_accepted_total"), Some(1));
        assert_eq!(snap.counter("server_connections_rejected_total"), Some(0));
        assert_eq!(snap.counter("server_protocol_errors_total"), Some(0));
        assert_eq!(snap.counter("server_request_timeouts_total"), Some(0));
        let ranges = snap.histogram("server_range_latency_ns").expect("range op histogram");
        assert_eq!(ranges.count, 3, "three scripted RANGE requests");
        assert!(ranges.max >= ranges.min && ranges.sum >= ranges.max);
        assert_eq!(snap.histogram("server_knn_latency_ns").map(|h| h.count), Some(1));
        assert_eq!(snap.histogram("server_count_latency_ns").map(|h| h.count), Some(1));

        // Global series ride along in the same snapshot: the query
        // funnel and the frame pool both saw this workload.
        let q = snap.histogram("query_range_latency_ns").expect("query histogram");
        // Traversal latency is sampled (first call per thread always
        // records), so a fresh worker thread is guaranteed to add at
        // least one observation for each funnel it exercised.
        assert!(q.count > base_ranges, "the range funnel timed at least one traversal");
        assert!(q.max >= q.min && q.count >= 1 && q.sum >= q.max);
        assert!(count_of(&snap, "query_knn_latency_ns") > base_knns);
        assert!(
            count_of(&snap, "storage_page_read_latency_ns") > base_reads,
            "frame_budget(1) forces demand misses, each one a timed page read"
        );

        // The wire snapshot renders: every histogram shows up as a
        // Prometheus-style summary with quantile labels.
        let text = snap.render_text();
        assert!(text.contains("neurospatial_server_requests_total 6"));
        assert!(text.contains("neurospatial_query_range_latency_ns{quantile=\"0.99\"}"));

        // A frozen database has no WAL, so its scrape has no `db_*` gauge.
        assert!(snap.gauges.iter().all(|(name, _)| !name.starts_with("db_")), "{:?}", snap.gauges);
    })
    .expect("serve");

    // Phase 2: a durable server on a fresh registry — the previous
    // server's exact counters do not leak in, while the process-global
    // WAL histogram picks up the commit.
    let db = NeuroDb::builder().circuit(&circuit).durable(&wal).build().expect("live db");
    serve_with(&db, &filters, &ServerConfig::default(), |handle| {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let new_seg = NeuronSegment {
            id: 900_001,
            neuron: 7,
            section: 0,
            index_on_section: 0,
            geom: neurospatial::geom::Segment::new(
                Vec3::new(4_000.0, 0.0, 0.0),
                Vec3::new(4_001.0, 0.0, 0.0),
                0.5,
            ),
        };
        client.insert(1, &new_seg).expect("insert acked");

        let snap = client.metrics().expect("metrics");
        assert_eq!(snap.counter("server_requests_total"), Some(2), "fresh per-server registry");
        assert_eq!(snap.histogram("server_insert_latency_ns").map(|h| h.count), Some(1));
        let commits = snap.histogram("wal_commit_latency_ns").expect("wal histogram");
        assert!(commits.count > base_commits, "the acked insert committed through the WAL");
        // The generation gauge is process-wide (other tests in this
        // binary open live databases too); this one holds at least one.
        assert!(snap.gauge("core_generations_alive").is_some_and(|alive| alive >= 1));
        assert!(snap.render_text().contains("neurospatial_core_generations_alive "));
        // The live database's WAL state rides along as gauges.
        assert_eq!(snap.gauge("db_delta_pending_ops"), Some(1));
        assert_eq!(snap.gauge("db_epoch"), Some(0));
        assert!(snap.gauge("db_wal_bytes").is_some_and(|bytes| bytes > 0));
        assert!(snap.gauge("db_wal_checkpoints").is_some_and(|n| n >= 1));
        assert!(snap.render_text().contains("neurospatial_db_wal_last_lsn "));
    })
    .expect("serve");

    let _ = std::fs::remove_file(&page_path);
    let _ = std::fs::remove_file(&wal);
}
