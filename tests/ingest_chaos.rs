//! The crash-consistency contract for live ingest, at the two points a
//! generated op sequence does not aim at: silent corruption inside
//! committed history is refused, never truncated, and a batch torn in
//! its first bytes is truncated and replays nothing. That recovery
//! equals a rebuild of the acknowledged prefix at any crash offset,
//! monolithic and sharded, is `tests/model.rs`'s crash leg.
//!
//! Same conventions as `tests/chaos.rs`: fault schedules are pure data
//! (seed → injections), `CHAOS_SEED` overrides the base seed, and every
//! test writes the plan it is about to exercise to
//! `target/chaos/<test>.txt`, removing it only on success — a red run
//! leaves a replayable breadcrumb behind for CI to archive.

use neurospatial::prelude::*;
use neurospatial_storage::wal::WAL_HEADER_BYTES;
use std::path::PathBuf;

/// Bytes that pass through the fault seam while a fresh live database
/// builds over `circuit`: the new file's header append plus the initial
/// checkpoint's whole-file image (which itself contains the header).
/// Crash/flip offsets must start past this point to hit the op stream.
fn seam_bytes_after_build(circuit: &Circuit) -> u64 {
    let wal = ScratchWal::new("measure");
    let _db = NeuroDb::builder().circuit(circuit).durable(&wal.0).build().expect("live");
    std::fs::metadata(&wal.0).expect("wal exists").len() + WAL_HEADER_BYTES as u64
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
        // The workspace's target directory, where CI collects them (a
        // test runs in its package's directory).
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
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

/// A deterministic write stream: inserts of fresh far-away segments,
/// every one valid (so a fault, not validation, is the only reason an op
/// can fail).
fn op_stream(seed: u64, n: usize) -> Vec<WriteOp> {
    let insert = |k: u64| {
        let h = mix(seed, 0xBEEF ^ k);
        let (x, y) = ((h % 997) as f64 * 3.0 + 2_000.0, ((h >> 17) % 499) as f64 - 250.0);
        let geom = Segment::new(Vec3::new(x, y, 0.0), Vec3::new(x + 1.5, y, 1.0), 0.3);
        let (neuron, index_on_section) = (77_000 + k as u32, k as u32);
        WriteOp::Insert(NeuronSegment {
            id: 1_000_000 + k,
            neuron,
            section: 0,
            index_on_section,
            geom,
        })
    };
    (0..n as u64).map(insert).collect()
}

/// Segments of a range query, sorted by id — the byte-comparison form.
fn snapshot(db: &NeuroDb, q: &Aabb) -> Vec<NeuronSegment> {
    let mut out = db.query().range(*q).collect().expect("range").segments;
    out.sort_by_key(|s| s.id);
    out
}

/// A bit flip inside *committed* history must surface as a typed
/// corruption error on reopen — refused, never silently truncated into
/// "the tail was torn".
#[test]
fn flipped_committed_record_is_refused_not_truncated() {
    let dump = PlanDump::new("ingest_flip_committed");
    let seed = mix(chaos_seed(), 0xF11B);
    let circuit = CircuitBuilder::new(seed % 10_000).neurons(3).build();
    let ops = op_stream(seed, 6);

    // Flip one byte inside the *checksummed* region of the first
    // committed record: kind / lsn / crc, bytes 4..21 of the record.
    // The 4-byte length prefix is deliberately excluded — an inflated
    // length that runs past EOF is framing-ambiguous with a torn tail,
    // so truncation (not a hard error) is the correct answer there.
    let flip_at = seam_bytes_after_build(&circuit) + 4 + mix(seed, 1) % 17;
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
    let ops = op_stream(seed, 8);
    let q = Aabb { lo: Vec3::splat(f64::NEG_INFINITY), hi: Vec3::splat(f64::INFINITY) };

    // Crash 10 bytes into the first batch: torn mid-record, nothing
    // acked.
    let plan = FaultPlan::new(seed).with_write_crash_at(seam_bytes_after_build(&circuit) + 10);
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
    let mut base = circuit.segments().to_vec();
    base.sort_by_key(|s| s.id);
    assert_eq!(snapshot(&recovered, &q), base, "unacked torn batch must not be resurrected");
    dump.success();
}
