//! The crash-consistency contract for live ingest: under **any** seeded
//! [`FaultPlan`] that kills the WAL at an arbitrary byte offset, the
//! state reconstructed by recovery equals — byte for byte — a
//! from-scratch rebuild over exactly the *acknowledged* prefix of the
//! write stream. No acked write is ever lost; no unacked write is ever
//! resurrected; silent corruption inside committed history is refused,
//! never truncated.
//!
//! Same conventions as `tests/chaos.rs`: fault schedules are pure data
//! (seed → injections), `CHAOS_SEED` overrides the base seed, and every
//! test writes the plan it is about to exercise to
//! `target/chaos/<test>.txt`, removing it only on success — a red run
//! leaves a replayable breadcrumb behind for CI to archive.

use neurospatial::delta::apply_ops;
use neurospatial::prelude::*;
use neurospatial_storage::wal::WAL_HEADER_BYTES;
use std::path::PathBuf;

/// Bytes that pass through the fault seam while a fresh live database
/// builds: the new file's header append plus the initial checkpoint's
/// whole-file image (which itself contains the header). Crash/flip
/// offsets must start past this point to hit the op stream.
fn seam_bytes_after_build(wal_file_len: u64) -> u64 {
    wal_file_len + WAL_HEADER_BYTES as u64
}

/// Base seed: `CHAOS_SEED` env override, fixed default.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC0FF_EE00_D00D)
}

/// splitmix64: derive per-round seeds without correlating rounds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process-unique WAL path, removed on drop.
struct ScratchWal(PathBuf);

impl ScratchWal {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        ScratchWal(
            std::env::temp_dir()
                .join(format!("neurospatial-ingest-chaos-{tag}-{}-{n}.wal", std::process::id())),
        )
    }
}

impl Drop for ScratchWal {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The replay breadcrumb: written before the assertions, deleted only if
/// the whole test passes.
struct PlanDump(PathBuf);

impl PlanDump {
    fn new(test: &str) -> Self {
        let dir = PathBuf::from("target/chaos");
        std::fs::create_dir_all(&dir).ok();
        PlanDump(dir.join(format!("{test}.txt")))
    }

    fn record(&self, context: &str, plan: &FaultPlan) {
        let body = format!(
            "CHAOS_SEED={} {}\n{}\nreplay: CHAOS_SEED={} cargo test --test ingest_chaos\n",
            chaos_seed(),
            context,
            plan.dump(),
            chaos_seed()
        );
        std::fs::write(&self.0, body).ok();
    }

    fn success(self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A deterministic mixed write stream over `base`: inserts of fresh
/// far-away segments and removals of still-live ids, every op valid at
/// the moment it is issued (so a fault, not validation, is the only
/// reason an op can fail).
fn op_stream(seed: u64, base: &[NeuronSegment], n: usize) -> Vec<WriteOp> {
    let mut live: Vec<u64> = base.iter().map(|s| s.id).collect();
    let mut next_id = 1_000_000u64;
    let mut ops = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let h = mix(seed, 0xBEEF ^ k);
        // Two-thirds inserts, one-third removals (when anything is live).
        if h % 3 < 2 || live.is_empty() {
            let x = (h % 997) as f64 * 3.0 + 2_000.0;
            let y = ((h >> 17) % 499) as f64 - 250.0;
            let seg = NeuronSegment {
                id: next_id,
                neuron: 77_000 + k as u32,
                section: 0,
                index_on_section: k as u32,
                geom: Segment::new(
                    Vec3::new(x, y, 0.0),
                    Vec3::new(x + 1.5, y, 1.0),
                    0.3 + (h % 7) as f64 * 0.1,
                ),
            };
            live.push(next_id);
            next_id += 1;
            ops.push(WriteOp::Insert(seg));
        } else {
            let victim = live.swap_remove((h >> 11) as usize % live.len());
            ops.push(WriteOp::Remove(victim));
        }
    }
    ops
}

/// Everything-box for a base circuit plus the far-away insert band.
fn everything(c: &Circuit) -> Aabb {
    c.bounds().union(&Aabb::cube(Vec3::new(3_000.0, 0.0, 0.0), 3_000.0))
}

/// Segments of a range query, sorted by id — the byte-comparison form.
fn snapshot(db: &NeuroDb, q: &Aabb) -> Vec<NeuronSegment> {
    let mut out = db.query().range(*q).collect().expect("range").segments;
    out.sort_by_key(|s| s.id);
    out
}

/// A from-scratch frozen rebuild of `base` + `acked`, same backend
/// geometry as the database under test.
fn rebuild(
    base: &[NeuronSegment],
    acked: &[WriteOp],
    backend: IndexBackend,
    shards: usize,
) -> NeuroDb {
    let mut want = base.to_vec();
    apply_ops(&mut want, acked);
    NeuroDb::builder()
        .segments(want)
        .backend(backend)
        .shards(shards)
        .threads(2)
        .build()
        .expect("reference rebuild")
}

/// Kill the WAL at arbitrary byte offsets across the op stream, on all
/// four backends, mono and sharded: post-recovery state must be
/// byte-identical to a from-scratch rebuild of the acked prefix, and
/// live queries must match that rebuild at every step *before* the
/// crash too.
#[test]
fn recovery_equals_rebuild_of_the_acked_prefix_at_any_crash_offset() {
    let dump = PlanDump::new("ingest_crash_offsets");
    let base_seed = chaos_seed();
    let mut crashes = 0u64;
    for round in 0..2u64 {
        let seed = mix(base_seed, round);
        let circuit = CircuitBuilder::new(seed % 10_000).neurons(3 + (seed % 3) as u32).build();
        let ops = op_stream(seed, circuit.segments(), 14);
        let q = everything(&circuit);

        // Fault-free measurement run: learn where the op stream's bytes
        // live so crash offsets land inside it. The fault seam counts
        // every byte that passes through it — including the initial
        // checkpoint's full file image — so the base offset is the
        // on-disk size right after build, not `wal_bytes`.
        let (build_len, ops_len) = {
            let wal = ScratchWal::new("measure");
            let db = NeuroDb::builder().circuit(&circuit).durable(&wal.0).build().expect("live");
            let built = std::fs::metadata(&wal.0).expect("wal exists").len();
            let start = db.wal_health().expect("live").wal_bytes;
            for op in &ops {
                db.write_batch(std::slice::from_ref(op)).expect("fault-free ack");
            }
            (built, db.wal_health().expect("live").wal_bytes - start)
        };
        assert!(ops_len > 0, "op stream wrote nothing");

        for (cfg_idx, (backend, shards)) in
            IndexBackend::ALL.iter().flat_map(|b| [(*b, 1usize), (*b, 3)]).enumerate()
        {
            // One crash offset per config, spread across the op stream
            // (± a tail margin so some plans never fire).
            let span = ops_len + 60;
            let crash_at =
                seam_bytes_after_build(build_len) + 1 + mix(seed, 0xC0DE ^ cfg_idx as u64) % span;
            let plan = FaultPlan::new(seed).with_write_crash_at(crash_at);
            dump.record(
                &format!("round={round} backend={backend:?} shards={shards} crash_at={crash_at}"),
                &plan,
            );

            let wal = ScratchWal::new("crash");
            let db = NeuroDb::builder()
                .circuit(&circuit)
                .backend(backend)
                .shards(shards)
                .threads(2)
                .durable(&wal.0)
                .wal_faults(plan)
                .build()
                .expect("crash offsets are past the initial checkpoint");

            let mut acked: Vec<WriteOp> = Vec::new();
            for (k, op) in ops.iter().enumerate() {
                match db.write_batch(std::slice::from_ref(op)) {
                    Ok(_) => acked.push(op.clone()),
                    Err(_) => break, // crashed: every later write fails too
                }
                // Equivalence *during* ingest, at a few checkpoints.
                if k % 5 == 4 {
                    let reference = rebuild(circuit.segments(), &acked, backend, shards);
                    assert_eq!(
                        snapshot(&db, &q),
                        snapshot(&reference, &q),
                        "round {round} {backend:?}/{shards}: live view diverged at op {k}"
                    );
                }
            }
            if acked.len() < ops.len() {
                crashes += 1;
            }
            drop(db);

            // Reopen fault-free: the recovered state must equal the
            // rebuild of exactly the acked prefix — byte for byte.
            let recovered = NeuroDb::builder()
                .segments(vec![])
                .backend(backend)
                .shards(shards)
                .threads(2)
                .durable(&wal.0)
                .build()
                .expect("recovery");
            let reference = rebuild(circuit.segments(), &acked, backend, shards);
            assert_eq!(recovered.len(), reference.len(), "round {round} {backend:?}/{shards}");
            assert_eq!(
                snapshot(&recovered, &q),
                snapshot(&reference, &q),
                "round {round} {backend:?}/{shards} crash_at={crash_at}: \
                 recovered state is not the acked prefix"
            );
            // KNN agrees too (exact candidate order).
            let p = circuit.segments()[0].geom.p0;
            let ids = |db: &NeuroDb| {
                db.query()
                    .knn(p, 8)
                    .collect()
                    .expect("knn")
                    .0
                    .iter()
                    .map(|n| n.segment.id)
                    .collect::<Vec<_>>()
            };
            assert_eq!(ids(&recovered), ids(&reference), "round {round} {backend:?}/{shards} knn");
        }
    }
    assert!(crashes > 0, "no plan ever fired — crash injection is dead");
    dump.success();
}

/// A bit flip inside *committed* history must surface as a typed
/// corruption error on reopen — refused, never silently truncated into
/// "the tail was torn".
#[test]
fn flipped_committed_record_is_refused_not_truncated() {
    let dump = PlanDump::new("ingest_flip_committed");
    let seed = mix(chaos_seed(), 0xF11B);
    let circuit = CircuitBuilder::new(seed % 10_000).neurons(3).build();
    let ops = op_stream(seed, circuit.segments(), 6);

    // Clean run establishes where committed bytes live.
    let (build_len, ops_len) = {
        let wal = ScratchWal::new("flip-measure");
        let db = NeuroDb::builder().circuit(&circuit).durable(&wal.0).build().expect("live");
        let built = std::fs::metadata(&wal.0).expect("wal exists").len();
        let start = db.wal_health().expect("live").wal_bytes;
        for op in &ops {
            db.write_batch(std::slice::from_ref(op)).expect("ack");
        }
        (built, db.wal_health().expect("live").wal_bytes - start)
    };

    // Flip one byte inside the *checksummed* region of the first
    // committed record: kind / lsn / crc, bytes 4..21 of the record.
    // The 4-byte length prefix is deliberately excluded — an inflated
    // length that runs past EOF is framing-ambiguous with a torn tail,
    // so truncation (not a hard error) is the correct answer there.
    let _ = ops_len;
    let flip_at = seam_bytes_after_build(build_len) + 4 + mix(seed, 1) % 17;
    let plan = FaultPlan::new(seed).with_write_flip(flip_at, 0x40);
    dump.record(&format!("flip_at={flip_at}"), &plan);

    let wal = ScratchWal::new("flip");
    {
        let db = NeuroDb::builder()
            .circuit(&circuit)
            .durable(&wal.0)
            .wal_faults(plan)
            .build()
            .expect("flips do not fail the build");
        for op in &ops {
            // The flip corrupts bytes on disk, not the in-memory path:
            // every write still acks.
            db.write_batch(std::slice::from_ref(op)).expect("acked over silent corruption");
        }
    }
    match NeuroDb::builder().segments(vec![]).durable(&wal.0).build() {
        Err(NeuroError::Storage(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("corrupt") || msg.contains("checksum") || msg.contains("Corrupt"),
                "expected a typed corruption error, got: {msg}"
            );
        }
        Ok(_) => panic!("reopen over flipped committed history must fail typed"),
        Err(other) => panic!("expected NeuroError::Storage, got {other:?}"),
    }
    dump.success();
}

/// A crash 10 bytes into the first batch tears its record: the write
/// errors, nothing is acked, and recovery detects the torn tail, truncates
/// it, replays nothing and leaves the base contents exactly as built.
/// (A crash between commit and ack, where the record did persist, is
/// `recovery_reconstructs_the_acknowledged_prefix` in `crates/core/src/db.rs`.)
#[test]
fn torn_tail_is_truncated_and_acked_history_survives() {
    let dump = PlanDump::new("ingest_torn_tail");
    let seed = mix(chaos_seed(), 0x7EA2);
    let circuit = CircuitBuilder::new(seed % 10_000).neurons(4).build();
    let ops = op_stream(seed, circuit.segments(), 8);
    let q = everything(&circuit);

    let build_len = {
        let wal = ScratchWal::new("tear-measure");
        let _db = NeuroDb::builder().circuit(&circuit).durable(&wal.0).build().expect("live");
        std::fs::metadata(&wal.0).expect("wal exists").len()
    };

    // Crash 10 bytes into the first batch: torn mid-record, nothing
    // acked.
    let plan = FaultPlan::new(seed).with_write_crash_at(seam_bytes_after_build(build_len) + 10);
    dump.record("torn first batch", &plan);
    let wal = ScratchWal::new("tear");
    let mut acked = Vec::new();
    {
        let db = NeuroDb::builder()
            .circuit(&circuit)
            .durable(&wal.0)
            .wal_faults(plan)
            .build()
            .expect("live");
        for op in &ops {
            match db.write_batch(std::slice::from_ref(op)) {
                Ok(_) => acked.push(op.clone()),
                Err(_) => break,
            }
        }
    }
    assert!(acked.is_empty(), "the very first batch was torn — nothing acked");

    let recovered = NeuroDb::builder().segments(vec![]).durable(&wal.0).build().expect("recovery");
    let health = recovered.wal_health().expect("live");
    assert!(health.recovered_torn_tail, "the torn tail must be detected");
    assert_eq!(health.replayed_ops, 0, "a torn batch replays nothing");
    assert_eq!(recovered.len(), circuit.segments().len(), "the base contents survive intact");
    let reference = rebuild(circuit.segments(), &acked, IndexBackend::Flat, 1);
    assert_eq!(
        snapshot(&recovered, &q),
        snapshot(&reference, &q),
        "unacked torn batch must not be resurrected"
    );
    dump.success();
}
