//! Wire-protocol safety: arbitrary frames survive encode→decode→encode
//! byte-identically, and corrupt bytes — truncations, trailing garbage,
//! unknown opcodes, bad flag bits — always come back as a typed
//! [`ProtocolError`], never a panic.

use neurospatial::geom::{Aabb, Segment, Vec3};
use neurospatial::model::{NavigationPath, NeuronSegment};
use neurospatial::{Neighbor, QueryStats, WalkthroughMethod};
use neurospatial_server::protocol::{self as p, ProtocolError, QueryDesc, Request, Response};
use proptest::prelude::*;
use proptest::Union;

fn coord() -> impl Strategy<Value = f64> {
    -1.0e6..1.0e6f64
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (coord(), coord(), coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn aabb() -> impl Strategy<Value = Aabb> {
    (vec3(), vec3()).prop_map(|(lo, hi)| Aabb { lo, hi })
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("axons".to_string()),
        Just("dendrites".to_string()),
        Just(String::new()),
        Just("päp-ülation ✓".to_string()),
    ]
}

fn opt<S: Strategy + 'static>(s: S) -> Union<Option<S::Value>>
where
    S::Value: Clone,
{
    prop_oneof![Just(None), s.prop_map(Some)]
}

fn desc() -> impl Strategy<Value = QueryDesc> {
    ((any::<u32>(), opt(name())), (opt(any::<u32>()), opt(any::<u32>()), any::<bool>())).prop_map(
        |((tenant, population), (filter_id, limit, allow_partial))| QueryDesc {
            tenant,
            population,
            filter_id,
            limit,
            allow_partial,
        },
    )
}

fn segment() -> impl Strategy<Value = NeuronSegment> {
    ((any::<u64>(), any::<u32>(), any::<u32>(), any::<u32>()), (vec3(), vec3(), 0.01..9.0f64))
        .prop_map(|((id, neuron, section, index_on_section), (p0, p1, radius))| NeuronSegment {
            id,
            neuron,
            section,
            index_on_section,
            geom: Segment { p0, p1, radius },
        })
}

fn nav_path() -> impl Strategy<Value = NavigationPath> {
    (
        (any::<u32>(), prop::collection::vec(any::<u32>(), 0..6)),
        prop::collection::vec(vec3(), 0..5),
        prop::collection::vec(aabb(), 0..5),
        coord(),
    )
        .prop_map(|((neuron, sections), waypoints, queries, view_radius)| NavigationPath {
            neuron,
            sections,
            waypoints,
            queries,
            view_radius,
        })
}

fn method() -> impl Strategy<Value = WalkthroughMethod> {
    (0..WalkthroughMethod::ALL.len()).prop_map(|i| WalkthroughMethod::ALL[i])
}

/// Every request variant except `Explain` (which wraps these).
fn plain_request() -> Union<Request> {
    prop_oneof![
        (desc(), aabb()).prop_map(|(desc, region)| Request::Range { desc, region }),
        (desc(), aabb()).prop_map(|(desc, region)| Request::Count { desc, region }),
        (desc(), vec3(), any::<u32>()).prop_map(|(desc, p, k)| Request::Knn { desc, p, k }),
        (desc(), name(), coord()).prop_map(|(desc, other, epsilon)| Request::Touching {
            desc,
            other,
            epsilon
        }),
        (any::<u32>(), method(), nav_path())
            .prop_map(|(tenant, method, path)| Request::Walkthrough { tenant, method, path }),
        any::<u32>().prop_map(|tenant| Request::Stats { tenant }),
        Just(Request::Health),
        (any::<u32>(), segment()).prop_map(|(tenant, segment)| Request::Insert { tenant, segment }),
        (any::<u32>(), any::<u64>()).prop_map(|(tenant, id)| Request::Remove { tenant, id }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    (plain_request(), any::<u8>()).prop_map(|(req, wrap)| {
        // Explain may wrap anything but Stats, Health, writes (and itself).
        if wrap % 3 == 0
            && !matches!(
                req,
                Request::Stats { .. }
                    | Request::Health
                    | Request::Insert { .. }
                    | Request::Remove { .. }
            )
        {
            Request::Explain(Box::new(req))
        } else {
            req
        }
    })
}

fn stats() -> impl Strategy<Value = QueryStats> {
    (
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (results, nodes_read),
                (objects_tested, reseeds),
                (cache_hits, cache_misses, cache_evictions),
                (retries, pages_quarantined),
            )| QueryStats {
                results,
                nodes_read,
                objects_tested,
                reseeds,
                cache_hits,
                cache_misses,
                cache_evictions,
                retries,
                pages_quarantined,
            },
        )
}

fn wal_wire() -> impl Strategy<Value = p::WalWire> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(
                (last_lsn, wal_bytes, pending_ops),
                (epoch, replayed_ops, checkpoints, recovered_torn_tail),
            )| p::WalWire {
                last_lsn,
                wal_bytes,
                pending_ops,
                epoch,
                replayed_ops,
                checkpoints,
                recovered_torn_tail,
            },
        )
}

fn response() -> Union<Response> {
    prop_oneof![
        prop::collection::vec(segment(), 0..9).prop_map(Response::Segments),
        prop::collection::vec((segment(), 0.0..50.0f64), 0..9).prop_map(|v| Response::Neighbors(
            v.into_iter().map(|(segment, distance)| Neighbor { segment, distance }).collect()
        )),
        prop::collection::vec((any::<u32>(), any::<u32>()), 0..20).prop_map(Response::Pairs),
        stats().prop_map(Response::Done),
        (any::<u64>(), stats()).prop_map(|(count, stats)| Response::Count { count, stats }),
        (
            (name(), name(), opt(any::<u32>()), opt(name())),
            ((any::<u32>(), any::<u32>()), (any::<u64>(), any::<bool>()))
        )
            .prop_map(
                |(
                    (operation, backend, pushdown_limit, population),
                    ((shards_total, shards_probed), (estimated_reads, pushdown_filter)),
                )| {
                    Response::Plan(p::PlanWire {
                        operation,
                        backend,
                        shards_total,
                        shards_probed,
                        estimated_reads,
                        pushdown_filter,
                        pushdown_limit,
                        population,
                    })
                }
            ),
        ((any::<u32>(), any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>(), any::<u64>()))
            .prop_map(|((tenant, queries, results), (nodes_read, objects_tested, reseeds))| {
                Response::Stats(p::TenantTotals {
                    tenant,
                    queries,
                    results,
                    nodes_read,
                    objects_tested,
                    reseeds,
                })
            }),
        (any::<u16>(), name()).prop_map(|(code, message)| Response::Error { code, message }),
        Just(Response::Busy),
        (any::<bool>(), prop::collection::vec(any::<u64>(), 0..6), opt(wal_wire())).prop_map(
            |(degraded, quarantined, wal)| {
                Response::Health(p::HealthReport { paged: true, degraded, quarantined, wal })
            }
        ),
        stats().prop_map(Response::Timeout),
        (any::<u64>(), any::<u64>())
            .prop_map(|(lsn, pending)| Response::WriteAck(p::WriteAckWire { lsn, pending })),
        ((any::<u32>(), coord()), ((any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())))
            .prop_map(
                |(
                    (steps, total_stall_ms),
                    ((demand_misses, demand_hits), (prefetched, useful_prefetched)),
                )| {
                    Response::Walkthrough(p::WalkSummary {
                        steps,
                        total_stall_ms,
                        demand_misses,
                        demand_hits,
                        prefetched,
                        useful_prefetched,
                    })
                }
            ),
    ]
}

/// Split an encoded frame into (opcode, payload), checking the header.
fn split(frame: &[u8]) -> (u8, &[u8]) {
    assert!(frame.len() >= 5, "frame too short: {frame:?}");
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert_eq!(len, frame.len() - 4, "length header disagrees with frame");
    (frame[4], &frame[5..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn request_roundtrip_is_byte_identical(req in request()) {
        let mut bytes = Vec::new();
        p::encode_request(&req, &mut bytes);
        let (opcode, payload) = split(&bytes);
        let decoded = p::decode_request(opcode, payload).expect("valid frame decodes");
        let mut again = Vec::new();
        p::encode_request(&decoded, &mut again);
        prop_assert_eq!(&bytes, &again);
        // The allocation-free view decodes the same request.
        let view = p::decode_request_view(opcode, payload).expect("view decodes");
        let mut via_view = Vec::new();
        p::encode_request(&view.into_owned(), &mut via_view);
        prop_assert_eq!(&bytes, &via_view);
    }

    #[test]
    fn response_roundtrip_is_byte_identical(resp in response()) {
        let mut bytes = Vec::new();
        p::encode_response(&resp, &mut bytes);
        let (opcode, payload) = split(&bytes);
        let decoded = p::decode_response(opcode, payload).expect("valid frame decodes");
        prop_assert_eq!(&decoded, &resp);
        let mut again = Vec::new();
        p::encode_response(&decoded, &mut again);
        prop_assert_eq!(&bytes, &again);
    }

    #[test]
    fn truncated_request_is_a_typed_error(req in request(), cut in 0.0..1.0f64) {
        let mut bytes = Vec::new();
        p::encode_request(&req, &mut bytes);
        let (opcode, payload) = split(&bytes);
        if payload.is_empty() {
            return Ok(()); // HEALTH: nothing to truncate
        }
        // Every strict prefix of the payload must fail to decode.
        let cut = (payload.len() as f64 * cut) as usize;
        let err = p::decode_request(opcode, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(err.is_err(), "prefix decoded: {:?}", err);
    }

    #[test]
    fn trailing_garbage_is_a_typed_error(req in request(), extra in any::<u8>()) {
        let mut bytes = Vec::new();
        p::encode_request(&req, &mut bytes);
        let (opcode, payload) = split(&bytes);
        let mut longer = payload.to_vec();
        longer.push(extra);
        prop_assert!(p::decode_request(opcode, &longer).is_err());
    }

    #[test]
    fn truncated_response_is_a_typed_error(resp in response(), cut in 0.0..1.0f64) {
        let mut bytes = Vec::new();
        p::encode_response(&resp, &mut bytes);
        let (opcode, payload) = split(&bytes);
        if payload.is_empty() {
            return Ok(()); // BUSY: nothing to truncate
        }
        let cut = (payload.len() as f64 * cut) as usize;
        let err = p::decode_response(opcode, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(err.is_err(), "prefix decoded: {:?}", err);
    }

    #[test]
    fn arbitrary_bytes_never_panic(opcode in any::<u8>(), bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Whatever comes off the wire, decoding returns — it never panics.
        let _ = p::decode_request(opcode, &bytes);
        let _ = p::decode_response(opcode, &bytes);
        let mut sink = Vec::new();
        let _ = p::decode_segment_chunk_into(&bytes, &mut sink);
        let _ = p::decode_done(&bytes);
        let _ = p::decode_count(&bytes);
    }
}

#[test]
fn unknown_opcodes_are_reported_as_such() {
    for opcode in [0x00u8, 0x0C, 0x42, 0x80, 0x8F, 0xFF] {
        assert_eq!(
            p::decode_request(opcode, &[]).unwrap_err(),
            ProtocolError::UnknownOpcode(opcode)
        );
        assert_eq!(
            p::decode_response(opcode, &[]).unwrap_err(),
            ProtocolError::UnknownOpcode(opcode)
        );
    }
}

#[test]
fn explain_cannot_wrap_writes() {
    // Hand-splice: EXPLAIN frame whose inner opcode is INSERT.
    let mut payload = vec![p::OP_INSERT];
    payload.extend_from_slice(&[0u8; 80]); // tenant + segment
    assert_eq!(
        p::decode_request(p::OP_EXPLAIN, &payload).unwrap_err(),
        ProtocolError::Malformed("EXPLAIN cannot wrap a write")
    );
    let mut payload = vec![p::OP_REMOVE];
    payload.extend_from_slice(&[0u8; 12]); // tenant + id
    assert_eq!(
        p::decode_request(p::OP_EXPLAIN, &payload).unwrap_err(),
        ProtocolError::Malformed("EXPLAIN cannot wrap a write")
    );
}

#[test]
fn bad_flag_bits_are_malformed() {
    // A hand-built range request whose QueryDesc carries an undefined
    // flag bit: tenant=0, flags=0x80, then a region.
    let mut payload = vec![0, 0, 0, 0, 0x80];
    payload.extend_from_slice(&[0u8; 48]);
    assert!(matches!(p::decode_request(p::OP_RANGE, &payload), Err(ProtocolError::Malformed(_))));
}

#[test]
fn out_of_range_walkthrough_method_is_malformed() {
    // tenant=0, method index 250 — far past WalkthroughMethod::ALL.
    let payload = vec![0, 0, 0, 0, 250];
    assert!(matches!(
        p::decode_request(p::OP_WALKTHROUGH, &payload),
        Err(ProtocolError::Malformed(_) | ProtocolError::Truncated)
    ));
}

#[test]
fn non_utf8_population_is_malformed() {
    // tenant=0, flags=POPULATION, name len=2, bytes 0xFF 0xFE.
    let mut payload = vec![0, 0, 0, 0, p::FLAG_POPULATION, 2, 0, 0xFF, 0xFE];
    payload.extend_from_slice(&[0u8; 48]);
    assert_eq!(
        p::decode_request(p::OP_RANGE, &payload).unwrap_err(),
        ProtocolError::Malformed("non-UTF-8 name")
    );
}

#[test]
fn explain_cannot_nest_and_cannot_wrap_stats() {
    let mut nested = Vec::new();
    p::encode_request(&Request::Explain(Box::new(Request::Stats { tenant: 1 })), &mut nested);
    let opcode = nested[4];
    assert_eq!(
        p::decode_request(opcode, &nested[5..]).unwrap_err(),
        ProtocolError::Malformed("EXPLAIN cannot wrap STATS")
    );

    let mut nested = Vec::new();
    p::encode_request(&Request::Explain(Box::new(Request::Health)), &mut nested);
    assert_eq!(
        p::decode_request(nested[4], &nested[5..]).unwrap_err(),
        ProtocolError::Malformed("EXPLAIN cannot wrap HEALTH")
    );

    // EXPLAIN(EXPLAIN(...)): splice an explain opcode inside an explain.
    let mut inner = Vec::new();
    p::encode_request(
        &Request::Explain(Box::new(Request::Count {
            desc: QueryDesc::tenant(0),
            region: Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 1.0),
        })),
        &mut inner,
    );
    let mut doubled = vec![p::OP_EXPLAIN];
    doubled.extend_from_slice(&inner[4..]); // opcode + payload of the explain
    assert_eq!(
        p::decode_request(p::OP_EXPLAIN, &doubled[1..]).unwrap_err(),
        ProtocolError::Malformed("EXPLAIN cannot nest")
    );
}

#[test]
fn chunk_counts_are_validated_before_allocation() {
    // A segment chunk claiming u32::MAX entries with a 4-byte payload
    // must fail without trying to reserve 300+ GiB.
    let payload = u32::MAX.to_le_bytes().to_vec();
    let mut out = Vec::new();
    assert_eq!(p::decode_segment_chunk_into(&payload, &mut out), Err(ProtocolError::Truncated));
    assert!(out.is_empty());
}

#[test]
fn read_frame_rejects_oversized_and_zero_lengths() {
    for len in [0u32, (p::MAX_FRAME as u32) + 1, u32::MAX] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        let mut reader = p::FrameReader::new();
        let err = reader.read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len={len}");
        assert!(reader.capacity() < 64 * 1024, "len={len} sized the buffer");
        let again = reader.read_frame(&mut &[][..]).unwrap_err();
        assert_eq!(
            again.kind(),
            std::io::ErrorKind::InvalidData,
            "len={len}: the header stays bad"
        );
    }
}

/// A deterministic segment, distinct per `i`.
fn nth_segment(i: u64) -> NeuronSegment {
    let x = i as f64;
    NeuronSegment {
        id: i,
        neuron: (i % 97) as u32,
        section: (i % 13) as u32,
        index_on_section: (i % 7) as u32,
        geom: Segment { p0: Vec3::new(x, -x, 0.5), p1: Vec3::new(x + 1.0, 2.0, -x), radius: 0.25 },
    }
}

fn segments(n: u64) -> Vec<NeuronSegment> {
    (0..n).map(nth_segment).collect()
}

/// A range answer as a worker writes it: chunks of `SEGMENT_CHUNK`, then
/// `DONE`.
fn range_answer(n: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in segments(n).chunks(p::SEGMENT_CHUNK) {
        p::encode_segment_chunk(chunk, &mut out);
    }
    p::encode_done(&QueryStats { results: n, ..QueryStats::default() }, &mut out);
    out
}

/// Split a run of encoded frames into `(opcode, payload)` by their
/// headers.
fn frames_of(mut bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let (op, payload) = split(&bytes[..4 + len]);
        frames.push((op, payload.to_vec()));
        bytes = &bytes[4 + len..];
    }
    frames
}

/// A `Read` over fixed bytes that counts its calls and hands out at most
/// `next_size()` bytes per call.
struct Feed<'a, F> {
    bytes: &'a [u8],
    reads: usize,
    next_size: F,
}

impl<F: FnMut() -> usize> std::io::Read for Feed<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = (self.next_size)().min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn feed<F: FnMut() -> usize>(bytes: &[u8], next_size: F) -> Feed<'_, F> {
    Feed { bytes, reads: 0, next_size }
}

#[test]
fn frame_reader_parses_every_split_of_a_frame_stream() {
    let mut stream = Vec::new();
    p::encode_busy(&mut stream); // empty payload
    p::encode_range_request(
        &p::QueryDescView { tenant: 3, ..Default::default() },
        &Aabb::cube(Vec3::new(1.0, 2.0, 3.0), 4.0),
        &mut stream,
    );
    p::encode_segment_chunk(&[], &mut stream);
    p::encode_metrics_request(&mut stream); // empty payload
    stream.extend_from_slice(&range_answer(94));
    p::encode_error(p::ERR_PROTOCOL, "bad", &mut stream);
    // Frames larger than the reader's first buffer: it grows mid-stream.
    stream.extend_from_slice(&range_answer(3 * p::SEGMENT_CHUNK as u64 + 5));
    p::encode_segment_chunk(&segments(1500), &mut stream);
    p::encode_busy(&mut stream);
    let expected = frames_of(&stream);
    assert!(expected.iter().any(|(_, payload)| payload.is_empty()));
    assert!(expected.iter().any(|(_, payload)| payload.len() > p::FrameReader::INITIAL));

    let mut rng = 0x5EED_u64;
    for cap in [1, 2, 3, 5, 17, 256, 4096, 40_000, usize::MAX] {
        for _ in 0..4 {
            let mut source = feed(&stream, || {
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (rng ^ (rng >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                if cap == usize::MAX {
                    usize::MAX
                } else {
                    1 + (z >> 33) as usize % cap
                }
            });
            let mut reader = p::FrameReader::new();
            for (i, (op, payload)) in expected.iter().enumerate() {
                let (got_op, got) = reader.read_frame(&mut source).expect("whole frame");
                assert_eq!((got_op, got), (*op, &payload[..]), "frame {i}, splits up to {cap}");
            }
            assert_eq!(reader.buffered(), 0, "splits up to {cap}");
            let end = reader.read_frame(&mut source).unwrap_err();
            assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
        }
    }
}

#[test]
fn frame_reader_takes_a_buffered_answer_in_one_read() {
    // A range answer the server wrote at once: its chunk and DONE.
    let answer = range_answer(94);
    let mut source = feed(&answer, || usize::MAX);
    let mut reader = p::FrameReader::new();
    let (op, payload) = reader.read_frame(&mut source).expect("chunk");
    assert_eq!(op, p::OP_SEGMENT_CHUNK);
    let mut got = Vec::new();
    p::decode_segment_chunk_into(payload, &mut got).expect("decodes");
    assert_eq!(got, segments(94));
    let (op, payload) = reader.read_frame(&mut source).expect("done");
    assert_eq!(op, p::OP_DONE);
    assert_eq!(p::decode_done(payload).expect("decodes").results, 94);
    assert_eq!(source.reads, 1, "chunk + DONE in one read");

    // A request, on the server's side.
    let mut request = Vec::new();
    p::encode_count_request(
        &p::QueryDescView { tenant: 1, ..Default::default() },
        &Aabb::cube(Vec3::new(0.0, 0.0, 0.0), 2.0),
        &mut request,
    );
    let mut source = feed(&request, || usize::MAX);
    let (op, _) = reader.read_frame(&mut source).expect("request");
    assert_eq!((op, source.reads), (p::OP_COUNT, 1));

    // A multi-chunk answer larger than the buffer grows it on the first
    // request and not again on the next.
    let large = range_answer(4 * p::SEGMENT_CHUNK as u64);
    let mut sizes = Vec::new();
    for _ in 0..3 {
        let mut source = feed(&large, || usize::MAX);
        while reader.read_frame(&mut source).expect("frame").0 != p::OP_DONE {}
        sizes.push(reader.capacity());
    }
    assert!(sizes[0] > p::FrameReader::INITIAL);
    assert_eq!(sizes, [sizes[0]; 3], "the buffer grows once, not per answer");
}

#[test]
fn metrics_frames_roundtrip_and_reject_corruption() {
    use neurospatial::obs::MetricsRegistry;

    // An empty request frame round-trips.
    let mut req = Vec::new();
    p::encode_request(&Request::Metrics, &mut req);
    let (len, rest) = req.split_at(4);
    assert_eq!(u32::from_le_bytes(len.try_into().unwrap()) as usize, rest.len());
    assert!(matches!(p::decode_request(rest[0], &rest[1..]), Ok(Request::Metrics)));

    // A populated snapshot survives encode → decode bit-for-bit.
    let reg = MetricsRegistry::new();
    reg.counter("reqs_total").add(41);
    reg.gauge("resident").set(-7);
    let h = reg.histogram("lat_ns");
    for v in [3, 900, 1 << 33] {
        h.record(v);
    }
    let snap = reg.snapshot();
    let mut resp = Vec::new();
    p::encode_metrics_result(&snap, &mut resp);
    let (len, rest) = resp.split_at(4);
    assert_eq!(u32::from_le_bytes(len.try_into().unwrap()) as usize, rest.len());
    assert_eq!(rest[0], p::OP_METRICS_RESULT);
    match p::decode_response(rest[0], &rest[1..]) {
        Ok(Response::Metrics(decoded)) => assert_eq!(decoded, snap),
        other => panic!("metrics frame should decode, got {other:?}"),
    }

    // Truncation at every prefix is a typed error, never a panic.
    let payload = &rest[1..];
    for cut in 0..payload.len() {
        assert!(
            matches!(
                p::decode_response(p::OP_METRICS_RESULT, &payload[..cut]),
                Err(ProtocolError::Malformed(_))
            ),
            "truncated metrics payload at {cut} must be rejected"
        );
    }

    // EXPLAIN cannot wrap METRICS.
    assert!(matches!(
        p::decode_request(p::OP_EXPLAIN, &[p::OP_METRICS]),
        Err(ProtocolError::Malformed(_))
    ));
}
