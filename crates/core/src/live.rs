//! The live (durable, writable) mode of a [`NeuroDb`](crate::NeuroDb):
//! a frozen base generation behind an atomic [`Swap`], a
//! [`DeltaBuffer`] overlay of the writes made since, and the WAL that
//! makes them durable.
//!
//! [`LiveCore`] is the whole mode. [`recover`](LiveCore::recover) opens
//! it from a log, [`write`](LiveCore::write) commits a batch,
//! [`view`](LiveCore::view) hands a reader a coherent (base, delta)
//! pair, [`pin`](LiveCore::pin) holds one generation for an
//! [`IndexRef`](crate::IndexRef), [`refreeze`](LiveCore::refreeze) folds
//! the delta into a new base and checkpoints, and
//! [`health`](LiveCore::health) reports. After any sequence of writes a
//! read answers as a database rebuilt from the acknowledged writes
//! would (`tests/model.rs` checks it against a brute-force model).

use crate::delta::{self, DeltaBuffer, WriteOp};
use crate::error::NeuroError;
use crate::index::{IndexParams, SpatialIndex};
use crate::shard::ShardedIndex;
use neurospatial_flat::FlatIndex;
use neurospatial_geom::{Aabb, Swap};
use neurospatial_model::NeuronSegment;
use neurospatial_storage::{LogIo, Wal};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Receipt for a durably committed write batch: the ops hit the WAL and
/// were fsynced before this was returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// LSN of the commit record covering the batch.
    pub lsn: u64,
    /// Ops buffered in the delta after this batch (refreeze pressure).
    pub pending: u64,
}

/// WAL and ingest health of a live database — what the server's METRICS
/// scrape reports as its `db_*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalHealth {
    /// Highest durably committed LSN.
    pub last_lsn: u64,
    /// Current WAL file length in bytes.
    pub wal_bytes: u64,
    /// Write ops buffered in the delta (folded in at the next refreeze).
    pub pending_ops: u64,
    /// Generation counter — bumps once per background re-freeze + swap.
    pub epoch: u64,
    /// Committed ops replayed from the WAL tail when the database opened.
    pub replayed_ops: u64,
    /// Whether open found (and truncated) a torn uncommitted tail.
    pub recovered_torn_tail: bool,
    /// Checkpoints written over the WAL's lifetime.
    pub checkpoints: u64,
    /// Frozen generations built and not yet freed: the current one, the
    /// one a refreeze is building, and any a reader still holds. 1 at
    /// rest, however many swaps the database has been through.
    pub generations_alive: u64,
}

/// One frozen generation of a live database: the immutable index plus
/// the exact segment list it was built from (the refreeze clones this
/// list, replays the delta over it and builds the next generation).
///
/// A generation lives in an `Arc` and nowhere else: [`LiveCore::gen`]
/// holds the current one, a reader holds the one it loaded, and the last
/// of them to let go frees it. `alive` counts the generations not yet
/// freed ([`WalHealth::generations_alive`]).
pub(crate) struct LiveGen {
    index: Box<dyn SpatialIndex>,
    segments: Vec<NeuronSegment>,
    alive: Arc<AtomicU64>,
}

impl LiveGen {
    /// FLAT over `segments`, sharded when `params.shards > 1`.
    fn build(
        segments: Vec<NeuronSegment>,
        params: &IndexParams,
        alive: &Arc<AtomicU64>,
    ) -> Arc<Self> {
        let index: Box<dyn SpatialIndex> = if params.shards > 1 {
            Box::new(ShardedIndex::<FlatIndex<NeuronSegment>>::build_with(segments.clone(), params))
        } else {
            Box::new(<FlatIndex<NeuronSegment> as SpatialIndex>::build(segments.clone(), params))
        };
        alive.fetch_add(1, Ordering::Relaxed);
        crate::metrics::generations_alive().add(1);
        Arc::new(LiveGen { index, segments, alive: Arc::clone(alive) })
    }

    /// The frozen index of this generation.
    pub(crate) fn index(&self) -> &dyn SpatialIndex {
        self.index.as_ref()
    }

    /// The segments this generation was built from.
    pub(crate) fn segments(&self) -> &[NeuronSegment] {
        &self.segments
    }
}

impl Drop for LiveGen {
    fn drop(&mut self) {
        self.alive.fetch_sub(1, Ordering::Relaxed);
        crate::metrics::generations_alive().add(-1);
    }
}

/// Writer-side state of a live database, all behind one mutex so writes
/// are serialized: the WAL (appends + commits + checkpoints) and the id
/// set validation runs against.
struct LiveWriter {
    wal: Wal,
    /// Ids currently live (base ∪ delta inserts ∖ removals) — what
    /// duplicate-insert / unknown-remove validation consults.
    ids: HashSet<u64>,
}

/// The live-ingest engine: a frozen base generation behind an atomic
/// [`Swap`], a mutable [`DeltaBuffer`] overlay, and the WAL writer.
///
/// Lock ordering (deadlock freedom): `writer` → `delta.write()`; the
/// generation swap's internal mutex is leaf-level. Queries take only
/// `delta.read()` → `gen.load()`, which is coherent because a refreeze
/// installs the new generation *and* clears the delta while holding
/// `delta.write()` — a reader sees either (old gen, old delta) or
/// (new gen, empty delta), never a mix.
///
/// `gen` is the only owner of a generation besides the readers that
/// loaded it, so a live database at rest holds exactly one.
pub(crate) struct LiveCore {
    gen: Swap<LiveGen>,
    /// Generations built and not yet freed; every [`LiveGen`] of this
    /// database shares it.
    generations_alive: Arc<AtomicU64>,
    delta: RwLock<DeltaBuffer>,
    writer: Mutex<LiveWriter>,
    params: IndexParams,
    threshold: usize,
    last_lsn: AtomicU64,
    wal_bytes: AtomicU64,
    pending_ops: AtomicU64,
    checkpoints: AtomicU64,
    replayed_ops: u64,
    recovered_torn_tail: bool,
}

impl LiveCore {
    /// Open the WAL behind `log` and rebuild the acknowledged state.
    ///
    /// When the log holds history (a checkpoint and/or committed
    /// writes), the recovered state *replaces* `seed`: the WAL is the
    /// source of truth on reopen. A fresh log pins `seed` as the base
    /// checkpoint, so replay is bounded from the first write; a replayed
    /// tail is folded into a new checkpoint, so the next open replays
    /// nothing. `threshold` is the delta size at which
    /// [`maybe_refreeze`](Self::maybe_refreeze) refreezes.
    pub(crate) fn recover(
        log: Box<dyn LogIo>,
        seed: Vec<NeuronSegment>,
        params: &IndexParams,
        threshold: usize,
    ) -> Result<Self, NeuroError> {
        let (mut wal, recovery) = Wal::open_log(log)?;
        let recovered = recovery.snapshot.is_some() || !recovery.ops.is_empty();
        let mut segments = match &recovery.snapshot {
            Some(bytes) => delta::decode_snapshot(bytes)?,
            None if recovered => Vec::new(),
            None => seed,
        };
        let ops: Vec<WriteOp> =
            recovery.ops.iter().map(|bytes| delta::decode_op(bytes)).collect::<Result<_, _>>()?;
        delta::apply_ops(&mut segments, &ops);
        if !recovered || !ops.is_empty() {
            wal.checkpoint(&delta::encode_snapshot(&segments))?;
        }
        let ids: HashSet<u64> = segments.iter().map(|s| s.id).collect();
        let generations_alive = Arc::new(AtomicU64::new(0));
        let first = LiveGen::build(segments, params, &generations_alive);
        Ok(LiveCore {
            gen: Swap::new(first),
            generations_alive,
            delta: RwLock::new(DeltaBuffer::new()),
            last_lsn: AtomicU64::new(wal.last_lsn()),
            wal_bytes: AtomicU64::new(wal.bytes()),
            pending_ops: AtomicU64::new(0),
            checkpoints: AtomicU64::new(wal.checkpoints()),
            writer: Mutex::new(LiveWriter { wal, ids }),
            params: *params,
            threshold,
            replayed_ops: ops.len() as u64,
            recovered_torn_tail: recovery.truncated_tail,
        })
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, LiveWriter> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn read_delta(&self) -> std::sync::RwLockReadGuard<'_, DeltaBuffer> {
        self.delta.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_delta(&self) -> std::sync::RwLockWriteGuard<'_, DeltaBuffer> {
        self.delta.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Validate, log, commit and only then publish a batch
    /// ([`NeuroDb::write_batch`](crate::NeuroDb::write_batch)).
    pub(crate) fn write(&self, ops: &[WriteOp]) -> Result<WriteAck, NeuroError> {
        if ops.is_empty() {
            return Err(NeuroError::WriteRejected { reason: "empty batch".into() });
        }
        let mut writer = self.lock_writer();
        // Validate against the live id set overlaid with the batch's own
        // earlier ops, so intra-batch sequences (insert then remove) are
        // judged in order.
        let mut overlay: HashMap<u64, bool> = HashMap::new();
        for op in ops {
            let id = op.id();
            let exists = overlay.get(&id).copied().unwrap_or_else(|| writer.ids.contains(&id));
            match op {
                WriteOp::Insert(s) => {
                    if exists {
                        return Err(NeuroError::WriteRejected {
                            reason: format!("insert of duplicate id {id}"),
                        });
                    }
                    if !s.geom.is_valid() {
                        return Err(NeuroError::WriteRejected {
                            reason: format!("segment {id} has non-finite or negative geometry"),
                        });
                    }
                    overlay.insert(id, true);
                }
                WriteOp::Remove(_) => {
                    if !exists {
                        return Err(NeuroError::WriteRejected {
                            reason: format!("remove of unknown id {id}"),
                        });
                    }
                    overlay.insert(id, false);
                }
            }
        }
        for op in ops {
            writer.wal.append(&delta::encode_op(op));
        }
        let lsn = writer.wal.commit()?;
        // Durable from here on: make the batch visible and ack it.
        let pending = {
            let mut d = self.write_delta();
            for op in ops {
                d.apply(op);
            }
            d.len() as u64
        };
        for (id, exists) in overlay {
            if exists {
                writer.ids.insert(id);
            } else {
                writer.ids.remove(&id);
            }
        }
        self.last_lsn.store(lsn, Ordering::Relaxed);
        self.wal_bytes.store(writer.wal.bytes(), Ordering::Relaxed);
        self.pending_ops.store(pending, Ordering::Relaxed);
        Ok(WriteAck { lsn, pending })
    }

    /// Run `f` over the current generation's index and the delta on top
    /// of it. The delta read lock is taken *then* the generation loaded,
    /// which the refreeze's install-under-write-lock makes a consistent
    /// snapshot. No swap can install while the read lock is held, so the
    /// generation is still the current one when this reader lets go of
    /// it: a query never pays for freeing one, the refreeze that
    /// replaces it does.
    pub(crate) fn view<R>(&self, f: impl FnOnce(&dyn SpatialIndex, &DeltaBuffer) -> R) -> R {
        let d = self.read_delta();
        let gen = self.gen.load();
        f(gen.index(), &d)
    }

    /// The current generation, held until the returned `Arc` drops.
    pub(crate) fn pin(&self) -> Arc<LiveGen> {
        self.gen.load()
    }

    /// The base's segment count plus the net effect of the delta.
    pub(crate) fn len(&self) -> usize {
        self.view(|base, d| (base.len() as isize + d.net_len_delta()).max(0) as usize)
    }

    /// The base's bounds grown to cover the delta's inserts.
    pub(crate) fn bounds(&self) -> Aabb {
        self.view(|base, d| {
            let mut b = base.bounds();
            d.for_each(|s| b = b.union(&s.aabb()));
            b
        })
    }

    /// Fold the delta into a new generation, swap it in and checkpoint
    /// ([`NeuroDb::refreeze`](crate::NeuroDb::refreeze)). Returns the
    /// new epoch, or the current one when the delta is empty.
    pub(crate) fn refreeze(&self) -> Result<u64, NeuroError> {
        // Holding the writer lock for the whole refreeze serializes it
        // against writes *and* other refreezes; neither the delta nor
        // the current generation can change underneath the rebuild.
        let mut writer = self.lock_writer();
        let ops = {
            let d = self.read_delta();
            if d.is_empty() {
                return Ok(self.gen.epoch());
            }
            d.ops().to_vec()
        };
        let mut segments = self.gen.load().segments.clone();
        delta::apply_ops(&mut segments, &ops);
        let next = LiveGen::build(segments, &self.params, &self.generations_alive);
        let replaced = {
            // Install + clear under the delta write lock so readers see
            // either (old gen, old delta) or (new gen, empty delta).
            let mut d = self.write_delta();
            let replaced = self.gen.store(Arc::clone(&next));
            d.clear();
            self.pending_ops.store(0, Ordering::Relaxed);
            replaced
        };
        // Freed here (unless a reader still holds it), not inside the
        // scope above: no reader should wait on the delta lock for it.
        drop(replaced);
        writer.wal.checkpoint(&delta::encode_snapshot(&next.segments))?;
        self.wal_bytes.store(writer.wal.bytes(), Ordering::Relaxed);
        self.checkpoints.store(writer.wal.checkpoints(), Ordering::Relaxed);
        Ok(self.gen.epoch())
    }

    /// Refreeze if the delta holds at least `threshold` ops; returns
    /// whether one ran.
    pub(crate) fn maybe_refreeze(&self) -> Result<bool, NeuroError> {
        if (self.pending_ops.load(Ordering::Relaxed) as usize) < self.threshold {
            return Ok(false);
        }
        self.refreeze()?;
        Ok(true)
    }

    /// WAL and ingest health.
    pub(crate) fn health(&self) -> WalHealth {
        WalHealth {
            last_lsn: self.last_lsn.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            pending_ops: self.pending_ops.load(Ordering::Relaxed),
            epoch: self.gen.epoch(),
            replayed_ops: self.replayed_ops,
            recovered_torn_tail: self.recovered_torn_tail,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            generations_alive: self.generations_alive.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{fresh_segment, range, WalPath};
    use crate::NeuroDb;
    use neurospatial_geom::Vec3;
    use neurospatial_model::CircuitBuilder;
    use std::sync::atomic::AtomicBool;

    fn live_core(db: &NeuroDb) -> &LiveCore {
        db.live().expect("a live database")
    }

    fn generations_alive(db: &NeuroDb) -> u64 {
        db.wal_health().expect("live").generations_alive
    }

    #[test]
    fn a_replaced_generation_is_freed_with_its_last_holder() {
        let c = CircuitBuilder::new(5).neurons(4).build();
        let wal = WalPath::new("freed");
        let db = NeuroDb::builder().circuit(&c).durable(&wal.0).build().expect("live");
        let everything = Aabb::cube(Vec3::ZERO, 1e6);
        assert_eq!(generations_alive(&db), 1);

        // No reader: the swap itself frees the generation it replaces.
        let first = Arc::downgrade(&live_core(&db).gen.load());
        db.insert_segment(fresh_segment(600_000, 40.0)).expect("acked");
        assert!(first.upgrade().is_some(), "a write alone replaces nothing");
        db.refreeze().expect("refrozen");
        assert!(first.upgrade().is_none(), "freed by the swap that replaced it");
        assert_eq!(generations_alive(&db), 1);

        // A held guard pins its generation, and keeps answering from it.
        let guard = db.index();
        let pinned = Arc::downgrade(&live_core(&db).gen.load());
        let old = guard.range_query(&everything);
        let (old_len, old_bounds) = (guard.len(), guard.bounds());
        for swap in 0..5u64 {
            db.insert_segment(fresh_segment(600_001 + swap, 50.0 + swap as f64)).expect("acked");
            db.remove_segment(c.segments()[swap as usize].id).expect("acked");
            db.refreeze().expect("refrozen");
            let again = guard.range_query(&everything);
            assert_eq!(again.segments, old.segments, "swap {swap}: the old snapshot, in order");
            assert_eq!(again.stats, old.stats, "swap {swap}");
            assert_eq!((guard.len(), guard.bounds()), (old_len, old_bounds), "swap {swap}");
            // The generations in between were freed as they were replaced.
            assert_eq!(generations_alive(&db), 2, "swap {swap}: the pinned one and the current");
        }
        let now = range(&db, &everything).sorted_ids();
        assert!(now.contains(&600_005) && !now.contains(&c.segments()[0].id));
        assert!(!old.sorted_ids().contains(&600_001));
        assert!(pinned.upgrade().is_some(), "held across five swaps");
        drop(guard);
        assert!(pinned.upgrade().is_none(), "freed the moment the guard dropped");
        assert_eq!(generations_alive(&db), 1);
    }

    #[test]
    fn generations_stay_bounded_across_200_swaps_under_readers() {
        const SWAPS: usize = 200;
        const READERS: usize = 2;
        let base: Vec<NeuronSegment> =
            (0..24u64).map(|i| fresh_segment(i, i as f64 * 2.0)).collect();
        // Two writes a swap: an insert, and a removal of a base segment
        // while there are any, of the previous swap's insert after that.
        let mut ops = Vec::new();
        for k in 0..SWAPS as u64 {
            ops.push(WriteOp::Insert(fresh_segment(1_000 + k, (k % 40) as f64 * 1.5)));
            ops.push(WriteOp::Remove(if k < 24 { k } else { 1_000 + k - 1 }));
        }
        // What a read of `q` returns after the first `k` ops, by id.
        let q = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(30.0, 1.0, 1.0));
        let states: Vec<Vec<NeuronSegment>> = (0..=ops.len())
            .map(|k| {
                let mut model = base.clone();
                delta::apply_ops(&mut model, &ops[..k]);
                model.retain(|s| s.aabb().intersects(&q));
                model.sort_by_key(|s| s.id);
                model
            })
            .collect();

        let wal = WalPath::new("bounded");
        let db = NeuroDb::builder().segments(base).durable(&wal.0).build().expect("live");
        let (issued, acked) = (AtomicU64::new(0), AtomicU64::new(0));
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(READERS + 1);
        let most_alive = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut session = db.query().session();
                        let (mut most_alive, mut reads) = (0, 0u64);
                        start.wait();
                        while !done.load(Ordering::SeqCst) {
                            let before = acked.load(Ordering::SeqCst) as usize;
                            let mut got = session.range(&q).0.to_vec();
                            let after = issued.load(Ordering::SeqCst) as usize;
                            got.sort_by_key(|s| s.id);
                            assert!(
                                states[before..=after].contains(&got),
                                "a read between ops {before} and {after} matches no prefix"
                            );
                            most_alive = most_alive.max(generations_alive(&db));
                            reads += 1;
                        }
                        assert!(reads > 0);
                        most_alive
                    })
                })
                .collect();
            start.wait();
            // Set on the way out, also by a panic: the readers must end.
            struct Finish<'a>(&'a AtomicBool);
            impl Drop for Finish<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let finish = Finish(&done);
            for pair in ops.chunks(2) {
                for op in pair {
                    issued.fetch_add(1, Ordering::SeqCst);
                    db.write_batch(std::slice::from_ref(op)).expect("acked");
                    acked.fetch_add(1, Ordering::SeqCst);
                }
                db.refreeze().expect("refrozen");
            }
            drop(finish);
            readers.into_iter().map(|r| r.join().expect("reader")).max().expect("readers")
        });
        // The current generation, the one a refreeze is building, and at
        // most one per reader in flight.
        assert!(most_alive <= READERS as u64 + 2, "{most_alive} generations alive at once");
        let health = db.wal_health().expect("live");
        assert_eq!(health.epoch, SWAPS as u64);
        assert_eq!(health.generations_alive, 1, "at rest a live database holds one generation");
        let end: Vec<u64> = states[ops.len()].iter().map(|s| s.id).collect();
        assert_eq!(range(&db, &q).sorted_ids(), end);
    }
}
