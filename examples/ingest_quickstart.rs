//! Live ingest quickstart: open a WAL-backed database, apply durable
//! writes while querying, ride a background re-freeze, then crash
//! (drop) and recover the acknowledged state from the log.
//!
//! Run with: `cargo run --release --example ingest_quickstart`

use neurospatial::prelude::*;

fn main() {
    let circuit = CircuitBuilder::new(42).neurons(20).build();
    let wal = std::env::temp_dir()
        .join(format!("neurospatial-ingest-quickstart-{}.wal", std::process::id()));
    std::fs::remove_file(&wal).ok();

    // --- 1. Open live: .durable(path) turns on the WAL -----------------
    {
        let db = NeuroDb::builder()
            .circuit(&circuit)
            .durable(&wal)
            .refreeze_threshold(64) // fold the delta into the base this often
            .build()
            .expect("valid configuration");
        println!("live: {} base segments, wal at {}", db.len(), wal.display());

        // --- 2. Durable writes: the ack means "fsynced, survives a crash"
        let far = Vec3::new(9_000.0, 0.0, 0.0);
        let ack = db
            .insert_segment(NeuronSegment {
                id: 1_000_000,
                neuron: 999,
                section: 0,
                index_on_section: 0,
                geom: Segment::new(far, far + Vec3::new(2.0, 0.0, 0.0), 0.5),
            })
            .expect("acked");
        let gone = circuit.segments()[0].id;
        db.remove_segment(gone).expect("acked");
        println!("acked through lsn {}, {} ops pending in the delta", ack.lsn, {
            db.wal_health().expect("live").pending_ops
        });

        // --- 3. Queries merge base + delta immediately ------------------
        let hit = db.query().range(Aabb::cube(far, 10.0)).collect().expect("in-memory range");
        assert_eq!(hit.sorted_ids(), vec![1_000_000]);
        println!("insert visible: {:?}; removed id {gone} is masked", hit.sorted_ids());

        // --- 4. Re-freeze: rebuild base+delta, atomic swap, checkpoint --
        let epoch = db.refreeze().expect("refrozen");
        let h = db.wal_health().expect("live");
        println!("swap #{epoch}: delta folded in, wal truncated to {} bytes", h.wal_bytes);
        // (a background poller can do this instead: db.with_ingest_maintenance)
    } // <- "crash": the database drops with writes still in the log

    // --- 5. Recovery: the WAL is the source of truth --------------------
    let db = NeuroDb::builder().segments(vec![]).durable(&wal).build().expect("recovered");
    let h = db.wal_health().expect("live");
    println!(
        "recovered {} segments (replayed {} ops, torn tail: {})",
        db.len(),
        h.replayed_ops,
        h.recovered_torn_tail
    );
    let recovered = db.query().range(Aabb::cube(Vec3::new(9_000.0, 0.0, 0.0), 10.0)).count();
    assert_eq!(recovered.expect("in-memory range"), 1);

    std::fs::remove_file(&wal).ok();
}
