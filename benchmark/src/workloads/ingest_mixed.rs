//! `ingest_mixed`: writes beside reads on a durable live database. One
//! thread writes at a steady pace (7 inserts to 1 removal, every ack
//! after an fsync: the product's flush policy, one per commit); a second
//! reads boxes where the writes land through a `QuerySession`,
//! closed-loop. Background maintenance re-freezes the index every 1024
//! writes. Afterwards the database is dropped with its delta unfrozen and
//! reopened from the WAL alone.
//!
//! Both callers are in this process. Over TCP the same pair needs two
//! client threads and two server workers beside the maintenance thread:
//! five threads on two cores, and reads per second then followed where
//! the scheduler put them (18 200 to 24 500 in ten runs of one build).
//! Here the reader is one thread that never waits for a wake-up, the
//! writer sits in `fdatasync` most of the time and a re-freeze has the
//! second core. `serve_range` is where the wire is measured.
//!
//! An op is one read beside the writes. The write acknowledgement is one
//! `fdatasync` plus about 40 µs, and this sandbox's `fdatasync` moves
//! between 170 and 290 µs within a minute: ack latency and writes per
//! second did not repeat within a quarter between two studies half an hour
//! apart, so they are per-layer metrics and cannot carry a bound.

use super::{mean_ns, set_up, Ctx, Outcome, Pass, Section};
use crate::gen;
use crate::io::TimingLogIo;
use crate::oracle::{Expected, RangeOracle, ID_STRIDE};
use crate::stats;
use crate::sys;
use neurospatial::delta::{encode_op, encode_snapshot};
use neurospatial::prelude::*;
use neurospatial::storage::{FileLog, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const NEURONS: usize = 500;
/// The writer's pace. It still waits for every ack, but sends write `k`
/// no earlier than `k / WRITES_PER_SECOND` into the section: a pipeline
/// that appends at a steady rate. Left to run flat out it goes as fast as
/// this sandbox's `fdatasync`, which takes 170 to 290 µs in one minute
/// and 700 µs in another: re-freezes come that much closer together, and
/// reads per second followed the disk (-23 % between two studies). At
/// 2000 writes/s the writer still fell behind when the disk was slow, and
/// a 20 s section took 28 and 35 s. The pace fixes the number of writes,
/// hence of re-freezes (one a second), hence what peak RSS means (every
/// re-freeze retires a generation that is never freed). The seed commit
/// sustains about 2900 writes a second flat out on a good minute; a writer
/// that cannot keep even this pace stops at the deadline with fewer
/// writes, and `writes_per_s` shows it.
const WRITES_PER_SECOND: f64 = 1000.0;
/// The generated stream: enough for both sections of the longest
/// `--seconds` (60).
const STREAM: usize = 80_000;
const READER_QUERIES: usize = 8192;
const READER_MIX: [(f64, f64); 1] = [(5.0, 1.0)];
const MAINTENANCE_POLL: Duration = Duration::from_millis(1);
const REOPENS: usize = 5;
/// In-process writes that end the run, after maintenance has stopped, so
/// the database is dropped with a delta the WAL alone must bring back.
const TAIL_WRITES: usize = 16;
/// Pending ops under which `core.delta_merge_ns` is measured.
const PENDING: usize = 512;

struct State {
    circuit: Circuit,
    ops: Vec<WriteOp>,
    queries: Vec<Aabb>,
    wal: PathBuf,
    /// Taken out by the run, which drops it before reopening the log.
    db: Option<NeuroDb>,
}

fn remove_wal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("wal-tmp"));
}

impl Drop for State {
    fn drop(&mut self) {
        remove_wal(&self.wal);
    }
}

fn open_durable(circuit: &Circuit, wal: &Path) -> NeuroDb {
    NeuroDb::builder()
        .circuit(circuit)
        .backend(IndexBackend::Flat)
        .durable(wal)
        .build()
        .expect("a durable FLAT database over a writable WAL path")
}

fn build_state(ctx: &Ctx) -> State {
    let circuit = gen::dense_circuit(ctx.scaled(NEURONS) as u32);
    let first_id = circuit.segments().len() as u64;
    let ops = gen::write_stream(ctx.seed, &circuit, ctx.scaled(STREAM), first_id);
    let queries = gen::range_queries(ctx.seed, &circuit, ctx.scaled(READER_QUERIES), &READER_MIX);
    let wal = ctx.scratch_path("ingest.wal");
    // A log left by an earlier set-up would be recovered, not created.
    remove_wal(&wal);
    let db = open_durable(&circuit, &wal);
    let mut session = db.query().session();
    for q in &queries[..queries.len().div_ceil(16)] {
        std::hint::black_box(session.range(q).0.len());
    }
    drop(session);
    State { circuit, ops, queries, wal, db: Some(db) }
}

/// Where each inserted id enters and leaves the write stream.
struct Lifetimes {
    first_id: u64,
    /// Stream position of the insert of `first_id + k`, and of its
    /// removal (`usize::MAX` if it is never removed).
    inserted_at: Vec<usize>,
    removed_at: Vec<usize>,
    boxes: Vec<Aabb>,
}

impl Lifetimes {
    fn of(ops: &[WriteOp], first_id: u64) -> Self {
        let mut l = Lifetimes { first_id, inserted_at: vec![], removed_at: vec![], boxes: vec![] };
        for (at, op) in ops.iter().enumerate() {
            match op {
                WriteOp::Insert(s) => {
                    debug_assert_eq!(s.id, first_id + l.inserted_at.len() as u64);
                    l.inserted_at.push(at);
                    l.removed_at.push(usize::MAX);
                    l.boxes.push(s.aabb());
                }
                WriteOp::Remove(id) => l.removed_at[(id - first_id) as usize] = at,
            }
        }
        l
    }

    /// A read that began when `acked` ops were acknowledged and ended when
    /// `issued` had been sent may show an inserted segment only if its
    /// insert was sent and its removal not yet acknowledged.
    fn may_show(&self, id: u64, acked: usize, issued: usize) -> bool {
        let k = (id - self.first_id) as usize;
        k < self.inserted_at.len() && self.inserted_at[k] < issued && self.removed_at[k] >= acked
    }

    /// It must show every segment in `q` whose insert was acknowledged
    /// before it began and whose removal had not been sent when it ended.
    fn must_show(&self, q: &Aabb, acked: usize, issued: usize) -> usize {
        (0..self.inserted_at.len())
            .take_while(|&k| self.inserted_at[k] < acked)
            .filter(|&k| self.removed_at[k] >= issued && self.boxes[k].intersects(q))
            .count()
    }
}

/// Check one concurrent read: the tissue part is exactly the oracle's,
/// the inserted part lies between what must and what may be visible.
fn read_is_right(
    got: &[NeuronSegment],
    q: &Aabb,
    i: usize,
    expected: &Expected,
    life: &Lifetimes,
    (acked_before, issued_after): (usize, usize),
) -> bool {
    let tissue = got.iter().filter(|s| s.id < life.first_id).count();
    let fresh = got.len() - tissue;
    let mut ok = tissue == expected.counts[i] as usize
        && got
            .iter()
            .filter(|s| s.id >= life.first_id)
            .all(|s| life.may_show(s.id, acked_before, issued_after) && s.aabb().intersects(q));
    if ok && i.is_multiple_of(ID_STRIDE) {
        let mut ids: Vec<u64> = got.iter().map(|s| s.id).filter(|id| *id < life.first_id).collect();
        ids.sort_unstable();
        ok = ids == expected.ids[i / ID_STRIDE]
            && fresh >= life.must_show(q, acked_before, issued_after);
    }
    ok
}

struct Mixed {
    writes: Pass,
    reads: Pass,
    /// Ops of the stream acknowledged, in stream order.
    acked: usize,
}

/// Writer and reader side by side until the writer has written its share
/// (`--seconds` at the writer's pace).
fn timed_section(
    ctx: &Ctx,
    db: &NeuroDb,
    state: &State,
    from: usize,
    expected: &Expected,
    life: &Lifetimes,
    traced: bool,
) -> Mixed {
    let tracer = if traced { ctx.tracer.as_deref() } else { None };
    // SeqCst: the reader's bounds rest on the order of these stores and
    // loads relative to the database calls around them.
    let issued = AtomicUsize::new(from);
    let acked = AtomicUsize::new(from);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut section = Section::begin(tracer, "core.write");
            barrier.wait();
            let writes = (WRITES_PER_SECOND * ctx.seconds).ceil() as usize;
            for (k, (at, op)) in state.ops.iter().enumerate().skip(from).take(writes).enumerate() {
                let elapsed_s = section.elapsed_s();
                if elapsed_s >= ctx.seconds {
                    break;
                }
                let early_s = k as f64 / WRITES_PER_SECOND - elapsed_s;
                if early_s > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(early_s));
                }
                issued.store(at + 1, Ordering::SeqCst);
                section.op(|| match op {
                    WriteOp::Insert(s) => db.insert_segment(*s).is_ok(),
                    WriteOp::Remove(id) => db.remove_segment(*id).is_ok(),
                });
                acked.store(at + 1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
            section.finish()
        });
        let reader = scope.spawn(|| {
            let mut session = db.query().session();
            let mut section = Section::begin(tracer, "core.session_range");
            barrier.wait();
            'reads: loop {
                for (i, q) in state.queries.iter().enumerate() {
                    if done.load(Ordering::SeqCst) {
                        break 'reads;
                    }
                    let acked_before = acked.load(Ordering::SeqCst);
                    let mut got: &[NeuronSegment] = &[];
                    section.op(|| {
                        got = session.range(q).0;
                        true
                    });
                    let window = (acked_before, issued.load(Ordering::SeqCst));
                    if !read_is_right(got, q, i, expected, life, window) {
                        section.retract_last();
                    }
                }
            }
            section.finish()
        });
        let writes = writer.join().expect("writer thread");
        let reads = reader.join().expect("reader thread");
        Mixed { writes, reads, acked: acked.load(Ordering::SeqCst) }
    })
}

/// The tissue plus the first `applied` ops of the stream, by id.
fn model(circuit: &Circuit, ops: &[WriteOp], applied: usize) -> Vec<NeuronSegment> {
    let mut segments = circuit.segments().to_vec();
    neurospatial::delta::apply_ops(&mut segments, &ops[..applied]);
    segments.sort_by_key(|s| s.id);
    segments
}

fn contents(db: &NeuroDb) -> Vec<NeuronSegment> {
    let everything = db.bounds().inflate(1.0);
    let mut segments = db
        .query()
        .range(everything)
        .collect()
        .expect("in-memory range queries do not fail")
        .segments;
    segments.sort_by_key(|s| s.id);
    segments
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut state, setup_s) = set_up(ctx, || build_state(ctx));
    let first_id = state.circuit.segments().len() as u64;
    let life = Lifetimes::of(&state.ops, first_id);
    let mut oracle = RangeOracle::build(state.circuit.segments());
    let expected = oracle.expect(&state.queries);
    drop(oracle);

    let db = state.db.take().expect("set-up opened the database");
    let epoch_before = db.wal_health().map_or(0, |h| h.epoch);
    let rss_before = sys::rss_mib();
    let sections = if ctx.traced() { vec![false, true] } else { vec![false] };
    let mut runs: Vec<Mixed> = Vec::new();
    db.with_ingest_maintenance(MAINTENANCE_POLL, |db| {
        for traced in &sections {
            let from = runs.last().map_or(0, |m| m.acked);
            runs.push(timed_section(ctx, db, &state, from, &expected, &life, *traced));
        }
    });
    let rss_after = sys::rss_mib();
    let swaps = db.wal_health().map_or(0, |h| h.epoch) - epoch_before;
    let mut mixed = runs.pop().expect("at least one section");
    let untraced_rate = runs.pop().map(|m| m.reads.ops_per_s());

    // End with a delta that only the WAL can bring back.
    let mut applied = mixed.acked;
    let mut failed_tail = 0u64;
    for op in state.ops.iter().skip(applied).take(TAIL_WRITES) {
        let ack = match op {
            WriteOp::Insert(s) => db.insert_segment(*s),
            WriteOp::Remove(id) => db.remove_segment(*id),
        };
        failed_tail += u64::from(ack.is_err());
        applied += 1;
    }
    let want = model(&state.circuit, &state.ops, applied);
    let mut wrong_states = u64::from(contents(&db) != want);
    let wal_bytes = std::fs::metadata(&state.wal).map_or(0, |m| m.len());

    // Drop, then reopen from the WAL alone.
    drop(db);
    let mut recovery_s = Vec::new();
    for _ in 0..REOPENS {
        let started = Instant::now();
        let reopened = open_durable(&state.circuit, &state.wal);
        recovery_s.push(started.elapsed().as_secs_f64());
        wrong_states += u64::from(contents(&reopened) != want);
    }

    let mut out = Outcome { setup_s, ..Outcome::default() };
    if ctx.traced() {
        let writes_per_s = mixed.writes.ops_per_s();
        let ack = stats::latency(&mut mixed.writes.latencies_ns);
        // A write that waits out a re-freeze takes many times the median.
        let stall_ns: u64 =
            mixed.writes.latencies_ns.iter().filter(|ns| **ns as f64 > 20.0 * ack.p50).sum();
        let live_bytes = want.len() * std::mem::size_of::<NeuronSegment>();
        out.layers = vec![
            (
                "bench.trace_overhead_share",
                mixed.reads.ops_per_s() / untraced_rate.expect("traced runs time both"),
            ),
            ("writes_per_s", writes_per_s),
            ("write_ack_p50_us", ack.p50 / 1e3),
            ("write_ack_tail_us", ack.tail / 1e3),
            ("recovery_s", stats::median(&recovery_s)),
            ("storage.wal_space_amp", wal_bytes as f64 / live_bytes as f64),
            ("core.swaps", swaps as f64),
            ("core.rss_mib_per_swap", (rss_after - rss_before) / swaps.max(1) as f64),
            ("core.refreeze_stall_ms_per_swap", stall_ns as f64 / 1e6 / swaps.max(1) as f64),
        ];
        let wal = wal_layers(ctx, &want);
        out.layers.extend(live_layers(ctx, &state, wal[0].1));
        out.layers.extend(wal);
    }
    out.facts = vec![
        ("segments", state.circuit.segments().len() as f64),
        ("writes_acked", mixed.writes.correct() as f64),
        ("writes_failed", mixed.writes.failed as f64),
        ("reads", mixed.reads.attempted as f64),
        ("swaps", swaps as f64),
        ("wal_bytes", wal_bytes as f64),
        ("recovery_median_s", stats::median(&recovery_s)),
        ("reopens", REOPENS as f64),
        ("wrong_states", wrong_states as f64),
    ];
    out.ops_per_s = Some(mixed.reads.ops_per_s());
    out.pass = mixed.reads;
    out.pass.attempted += mixed.writes.attempted + TAIL_WRITES as u64 + 1 + REOPENS as u64;
    out.pass.failed += mixed.writes.failed + failed_tail + wrong_states;
    out
}

/// The WAL alone, over a log that counts and times: one append and one
/// commit per write, a checkpoint of the whole snapshot every 1024, as
/// the live database does it.
fn wal_layers(ctx: &Ctx, snapshot_of: &[NeuronSegment]) -> Vec<(&'static str, f64)> {
    const WRITES: usize = 2048;
    const CHECKPOINT_EVERY: usize = 1024;
    let path = ctx.scratch_path("probe.wal");
    remove_wal(&path);
    let log = TimingLogIo::new(
        FileLog::open(&path).expect("the scratch directory is writable"),
        ctx.tracer.clone(),
    );
    let io = log.counters.clone();
    let (mut wal, _) = Wal::open_log(Box::new(log)).expect("a fresh log opens");
    let snapshot = encode_snapshot(snapshot_of);
    wal.checkpoint(&snapshot).expect("initial checkpoint");
    let (bytes_before, syncs_before) = (io.bytes(), io.syncs());

    let payload = encode_op(&WriteOp::Insert(snapshot_of[0]));
    let mut checkpoints = Vec::new();
    let mut section = Section::begin(ctx.tracer.as_deref(), "storage.wal_write");
    for k in 1..=WRITES {
        section.op(|| {
            wal.append(&payload);
            wal.commit().is_ok()
        });
        if k % CHECKPOINT_EVERY == 0 {
            let started = Instant::now();
            wal.checkpoint(&snapshot).expect("checkpoint");
            checkpoints.push(started.elapsed().as_secs_f64());
        }
    }
    let pass = section.finish();
    drop(wal);
    remove_wal(&path);
    vec![
        ("storage.wal_commit_us", pass.mean_ns() / 1e3),
        ("storage.wal_fsyncs_per_write", (io.syncs() - syncs_before) as f64 / WRITES as f64),
        (
            "storage.wal_bytes_per_user_byte",
            (io.bytes() - bytes_before) as f64 / (WRITES * payload.len()) as f64,
        ),
        ("storage.checkpoint_s", stats::mean(&checkpoints)),
    ]
}

/// A second live database, in process and without maintenance: what a
/// write costs beyond its WAL commit, what pending ops cost a read, and
/// what folding them in costs.
fn live_layers(ctx: &Ctx, state: &State, wal_commit_us: f64) -> Vec<(&'static str, f64)> {
    let path = ctx.scratch_path("probe-live.wal");
    remove_wal(&path);
    let db = open_durable(&state.circuit, &path);
    let inserts: Vec<&NeuronSegment> = state
        .ops
        .iter()
        .filter_map(|op| match op {
            WriteOp::Insert(s) => Some(s),
            WriteOp::Remove(_) => None,
        })
        .take(PENDING)
        .collect();
    let started = Instant::now();
    for s in &inserts {
        db.insert_segment(**s).expect("a fresh id inserts");
    }
    let insert_us = started.elapsed().as_nanos() as f64 / inserts.len() as f64 / 1e3;

    let range_ns = |db: &NeuroDb| {
        mean_ns(&state.queries, |q| {
            let mut n = 0u64;
            db.query().range(*q).stream(|_| n += 1).expect("in-memory range queries do not fail");
            std::hint::black_box(n);
        })
    };
    let with_delta_ns = range_ns(&db);
    let started = Instant::now();
    db.refreeze().expect("refreeze of a live database");
    let refreeze_s = started.elapsed().as_secs_f64();
    let frozen_ns = range_ns(&db);
    drop(db);
    remove_wal(&path);
    vec![
        ("core.write_apply_us", insert_us - wal_commit_us),
        ("core.delta_merge_ns", with_delta_ns - frozen_ns),
        ("core.refreeze_s", refreeze_s),
    ]
}
