//! The delta buffer — the mutable tier in front of a frozen index.
//!
//! Live ingest never mutates an index in place. Acknowledged writes land
//! in a [`DeltaBuffer`]: a small overlay that queries merge with the
//! frozen *base* generation (delta inserts are a second emitter, removals
//! mask base hits). When the buffer crosses the refreeze threshold, a
//! background pass rebuilds base + delta into a fresh index and swaps it
//! in atomically; the buffer then starts empty again.
//!
//! A read pays for the buffer twice, and neither payment hashes or
//! allocates:
//!
//! - **Inserts.** Their boxes sit in six `f64` lanes parallel to the
//!   entries (`lo_x lo_y lo_z hi_x hi_y hi_z`). A range read scans them
//!   64 at a time into one branch-free bitmask and walks its set bits,
//!   so matches come out in acknowledgement order. A removed insert's
//!   lanes hold NaN, which fails every comparison, so the scan needs no
//!   liveness test. (The empty box `lo = +∞, hi = −∞` would not do: it
//!   meets a region with infinite faces.) The scan is O(pending), and
//!   the refreeze threshold bounds pending.
//! - **Removals.** Every base hit asks [`DeltaBuffer::is_removed`]. A
//!   4096-bit filter over the removed ids answers most of those asks
//!   "no" from one word; only a set bit consults the exact set.
//!
//! The module also owns the WAL wire format for write operations
//! ([`WriteOp`] ⇄ bytes) and for checkpoint snapshots, so the storage
//! crate stays payload-agnostic: a WAL record is opaque bytes down there
//! and a typed op up here.
//!
//! Determinism contract: [`apply_ops`] is the *single* definition of
//! what a sequence of ops does to a segment list. Refreeze, crash
//! recovery and the chaos tests' from-scratch reference all run through
//! it, so "post-recovery state equals a rebuild of the acknowledged
//! prefix" is checkable byte for byte.

#![warn(missing_docs)]

use crate::error::NeuroError;
use neurospatial_geom::Aabb;
use neurospatial_model::NeuronSegment;
use neurospatial_storage::StorageError;
use std::collections::{HashMap, HashSet};

/// Serialized size of one [`NeuronSegment`] in WAL payloads — identical
/// to the wire protocol's segment frame (id, neuron, section,
/// index-on-section, two endpoints, radius; all little-endian).
pub const SEGMENT_BYTES: usize = 8 + 4 + 4 + 4 + 24 + 24 + 8;

/// WAL payload tag for an insert op.
const OP_INSERT: u8 = 1;
/// WAL payload tag for a remove op.
const OP_REMOVE: u8 = 2;

/// One logical write against a live database.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Add a segment (its `id` must be new).
    Insert(NeuronSegment),
    /// Remove the segment with this id (must currently exist).
    Remove(u64),
}

impl WriteOp {
    /// The id this op targets.
    pub fn id(&self) -> u64 {
        match self {
            WriteOp::Insert(s) => s.id,
            WriteOp::Remove(id) => *id,
        }
    }
}

fn put_segment(out: &mut Vec<u8>, s: &NeuronSegment) {
    out.extend_from_slice(&s.id.to_le_bytes());
    out.extend_from_slice(&s.neuron.to_le_bytes());
    out.extend_from_slice(&s.section.to_le_bytes());
    out.extend_from_slice(&s.index_on_section.to_le_bytes());
    for v in [s.geom.p0, s.geom.p1] {
        out.extend_from_slice(&v.x.to_le_bytes());
        out.extend_from_slice(&v.y.to_le_bytes());
        out.extend_from_slice(&v.z.to_le_bytes());
    }
    out.extend_from_slice(&s.geom.radius.to_le_bytes());
}

fn corrupt(what: &str) -> NeuroError {
    NeuroError::Storage(StorageError::Corrupt(format!("WAL payload: {what}")))
}

fn read_segment(bytes: &[u8]) -> Result<NeuronSegment, NeuroError> {
    if bytes.len() < SEGMENT_BYTES {
        return Err(corrupt("segment truncated"));
    }
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
    let f64_at = |o: usize| f64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
    let vec3_at = |o: usize| neurospatial_geom::Vec3::new(f64_at(o), f64_at(o + 8), f64_at(o + 16));
    Ok(NeuronSegment {
        id: u64_at(0),
        neuron: u32_at(8),
        section: u32_at(12),
        index_on_section: u32_at(16),
        geom: neurospatial_geom::Segment::new(vec3_at(20), vec3_at(44), f64_at(68)),
    })
}

/// Encode one op as a WAL `DATA` payload.
pub fn encode_op(op: &WriteOp) -> Vec<u8> {
    match op {
        WriteOp::Insert(s) => {
            let mut out = Vec::with_capacity(1 + SEGMENT_BYTES);
            out.push(OP_INSERT);
            put_segment(&mut out, s);
            out
        }
        WriteOp::Remove(id) => {
            let mut out = Vec::with_capacity(9);
            out.push(OP_REMOVE);
            out.extend_from_slice(&id.to_le_bytes());
            out
        }
    }
}

/// Decode a WAL `DATA` payload back into the op it was encoded from.
pub fn decode_op(bytes: &[u8]) -> Result<WriteOp, NeuroError> {
    match bytes.first() {
        Some(&OP_INSERT) => {
            if bytes.len() != 1 + SEGMENT_BYTES {
                return Err(corrupt("insert op has wrong length"));
            }
            Ok(WriteOp::Insert(read_segment(&bytes[1..])?))
        }
        Some(&OP_REMOVE) => {
            if bytes.len() != 9 {
                return Err(corrupt("remove op has wrong length"));
            }
            Ok(WriteOp::Remove(u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"))))
        }
        Some(tag) => Err(corrupt(&format!("unknown op tag {tag}"))),
        None => Err(corrupt("empty op")),
    }
}

/// Encode a full segment list as a WAL checkpoint snapshot.
pub fn encode_snapshot(segments: &[NeuronSegment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + segments.len() * SEGMENT_BYTES);
    out.extend_from_slice(&(segments.len() as u64).to_le_bytes());
    for s in segments {
        put_segment(&mut out, s);
    }
    out
}

/// Decode a checkpoint snapshot back into its segment list.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<NeuronSegment>, NeuroError> {
    if bytes.len() < 8 {
        return Err(corrupt("snapshot shorter than its count"));
    }
    let count = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
    if bytes.len() != 8 + count * SEGMENT_BYTES {
        return Err(corrupt("snapshot length does not match its count"));
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        out.push(read_segment(&bytes[8 + i * SEGMENT_BYTES..])?);
    }
    Ok(out)
}

/// Fold a sequence of ops into a segment list — the canonical replay
/// semantics shared by refreeze, crash recovery and the chaos tests'
/// reference rebuild. Inserts append; removes are order-preserving
/// filters, so two paths applying the same ops produce byte-identical
/// lists.
pub fn apply_ops(segments: &mut Vec<NeuronSegment>, ops: &[WriteOp]) {
    for op in ops {
        match op {
            WriteOp::Insert(s) => segments.push(*s),
            WriteOp::Remove(id) => segments.retain(|s| s.id != *id),
        }
    }
}

/// One acknowledged insert parked in the delta until the next refreeze.
/// `entries` is append-only, so its order *is* acknowledgement order.
#[derive(Debug, Clone)]
struct DeltaEntry {
    /// The inserted segment.
    seg: NeuronSegment,
    /// Set when a later remove cancelled this insert.
    dead: bool,
}

/// The mutable overlay in front of a frozen base generation.
///
/// Holds acknowledged inserts (their boxes in lanes a read scans, see the
/// module docs) and a removal mask over base ids. Cleared wholesale when
/// a refreeze folds it into the next frozen generation.
#[derive(Debug)]
pub struct DeltaBuffer {
    /// Every op applied since the last refreeze, in ack order — the
    /// refreeze replays exactly this list over the base segments.
    ops: Vec<WriteOp>,
    /// Live + dead insert entries, in ack order.
    entries: Vec<DeltaEntry>,
    /// The entries' AABBs, one lane per face in the order
    /// `lo_x lo_y lo_z hi_x hi_y hi_z`; a dead entry's are NaN.
    lanes: [Vec<f64>; 6],
    /// Number of live entries.
    live: usize,
    /// id → index into `entries` for the live insert with that id.
    by_id: HashMap<u64, usize>,
    /// Ids removed since the last refreeze (masks base hits).
    removed: HashSet<u64>,
    /// The `filter_slot` bit of every id in `removed`: a clear bit
    /// proves an id was not removed.
    removed_filter: [u64; 64],
}

/// Word and bit of `id` in the removal filter: the top 12 bits of a
/// Fibonacci hash.
fn filter_slot(id: u64) -> (usize, u64) {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52;
    ((h >> 6) as usize, 1 << (h & 63))
}

impl Default for DeltaBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        DeltaBuffer {
            ops: Vec::new(),
            entries: Vec::new(),
            lanes: Default::default(),
            live: 0,
            by_id: HashMap::new(),
            removed: HashSet::new(),
            removed_filter: [0; 64],
        }
    }

    /// Number of ops buffered since the last refreeze.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The buffered ops, in ack order.
    pub fn ops(&self) -> &[WriteOp] {
        &self.ops
    }

    /// Net segment-count change versus the base (inserts minus removes
    /// that actually hit something).
    pub fn net_len_delta(&self) -> isize {
        self.live as isize - self.removed.len() as isize
    }

    /// Was `id` removed since the last refreeze? Queries use this to
    /// mask base hits. (A delta insert that was later removed is marked
    /// dead instead and never consulted here.)
    pub fn is_removed(&self, id: u64) -> bool {
        let (word, bit) = filter_slot(id);
        self.removed_filter[word] & bit != 0 && self.removed.contains(&id)
    }

    /// Does the delta hold a live insert with this id?
    pub fn contains_insert(&self, id: u64) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Apply one already-validated, already-logged op.
    pub fn apply(&mut self, op: &WriteOp) {
        self.ops.push(op.clone());
        match op {
            WriteOp::Insert(s) => {
                self.by_id.insert(s.id, self.entries.len());
                self.entries.push(DeltaEntry { seg: *s, dead: false });
                let b = s.aabb();
                let faces = [b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z];
                for (lane, face) in self.lanes.iter_mut().zip(faces) {
                    lane.push(face);
                }
                self.live += 1;
            }
            WriteOp::Remove(id) => {
                if let Some(idx) = self.by_id.remove(id) {
                    // The remove cancels a buffered insert: the base never
                    // held this id, so it must NOT join the removal mask —
                    // a later refreeze would otherwise re-filter nothing,
                    // but a *recovered* base could legitimately reuse ids.
                    self.entries[idx].dead = true;
                    for lane in &mut self.lanes {
                        lane[idx] = f64::NAN;
                    }
                    self.live -= 1;
                } else {
                    let (word, bit) = filter_slot(*id);
                    self.removed_filter[word] |= bit;
                    self.removed.insert(*id);
                }
            }
        }
    }

    /// Visit every live buffered insert whose AABB intersects `region`,
    /// in ack order: the lanes are scanned 64 entries at a time into one
    /// bitmask, whose set bits are then visited in order.
    pub fn for_each_in_range(&self, region: &Aabb, mut f: impl FnMut(&NeuronSegment)) {
        let (lo, hi) = (region.lo, region.hi);
        for base in (0..self.entries.len()).step_by(64) {
            let end = self.entries.len().min(base + 64);
            let [lx, ly, lz, hx, hy, hz] = self.lanes.each_ref().map(|lane| &lane[base..end]);
            let mut mask = 0u64;
            for i in 0..end - base {
                let hit = (lx[i] <= hi.x)
                    & (lo.x <= hx[i])
                    & (ly[i] <= hi.y)
                    & (lo.y <= hy[i])
                    & (lz[i] <= hi.z)
                    & (lo.z <= hz[i]);
                mask |= u64::from(hit) << i;
            }
            while mask != 0 {
                f(&self.entries[base + mask.trailing_zeros() as usize].seg);
                mask &= mask - 1;
            }
        }
    }

    /// Visit every live buffered insert, in ack order (KNN candidates).
    pub fn for_each(&self, mut f: impl FnMut(&NeuronSegment)) {
        for e in &self.entries {
            if !e.dead {
                f(&e.seg);
            }
        }
    }

    /// Drop all buffered state (after a refreeze folded it into the new
    /// frozen generation). The seq counter keeps running.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.entries.clear();
        self.lanes.iter_mut().for_each(Vec::clear);
        self.live = 0;
        self.by_id.clear();
        self.removed.clear();
        self.removed_filter = [0; 64];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_geom::{Segment, Vec3};

    fn seg(id: u64, x: f64) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: id as u32,
            section: 0,
            index_on_section: 0,
            geom: Segment::new(Vec3::new(x, 0.0, 0.0), Vec3::new(x + 1.0, 0.0, 0.0), 0.5),
        }
    }

    #[test]
    fn op_codec_round_trips() {
        for op in [WriteOp::Insert(seg(7, 3.25)), WriteOp::Remove(42)] {
            let bytes = encode_op(&op);
            assert_eq!(decode_op(&bytes).expect("round trip"), op);
        }
        assert!(decode_op(&[]).is_err());
        assert!(decode_op(&[9]).is_err());
        assert!(decode_op(&encode_op(&WriteOp::Remove(1))[..5]).is_err());
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let segs = vec![seg(1, 0.0), seg(2, 10.0), seg(3, -4.5)];
        let bytes = encode_snapshot(&segs);
        assert_eq!(decode_snapshot(&bytes).expect("round trip"), segs);
        assert_eq!(decode_snapshot(&encode_snapshot(&[])).expect("empty"), vec![]);
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_snapshot(&[1, 0, 0]).is_err());
    }

    #[test]
    fn apply_ops_is_order_preserving() {
        let mut segs = vec![seg(1, 0.0), seg(2, 1.0), seg(3, 2.0)];
        apply_ops(
            &mut segs,
            &[WriteOp::Remove(2), WriteOp::Insert(seg(4, 3.0)), WriteOp::Remove(1)],
        );
        let ids: Vec<u64> = segs.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn delta_masks_and_emits() {
        let mut d = DeltaBuffer::new();
        assert!(d.is_empty());
        d.apply(&WriteOp::Insert(seg(10, 0.0)));
        d.apply(&WriteOp::Insert(seg(11, 100.0)));
        d.apply(&WriteOp::Remove(3)); // base id
        assert!(d.is_removed(3) && !d.is_removed(10));
        assert_eq!(d.len(), 3);
        assert_eq!(d.net_len_delta(), 1); // +2 inserts, −1 base removal

        // Range emission respects the region and ack order.
        let near = Aabb::cube(Vec3::new(0.5, 0.0, 0.0), 5.0);
        let mut got = Vec::new();
        d.for_each_in_range(&near, |s| got.push(s.id));
        assert_eq!(got, vec![10]);
        let everything = Aabb::cube(Vec3::new(50.0, 0.0, 0.0), 200.0);
        got.clear();
        d.for_each_in_range(&everything, |s| got.push(s.id));
        assert_eq!(got, vec![10, 11]);

        // Removing a buffered insert kills it without masking the base.
        d.apply(&WriteOp::Remove(10));
        assert!(!d.is_removed(10), "delta-only removals never mask the base");
        got.clear();
        d.for_each_in_range(&everything, |s| got.push(s.id));
        assert_eq!(got, vec![11]);

        d.clear();
        assert!(d.is_empty() && !d.is_removed(3));
    }

    /// Random inserts, removals of delta inserts, removals of base ids and
    /// clears, checked after every op against a brute-force model: the
    /// range reads (in ack order), the removal mask and the counts.
    #[test]
    fn delta_matches_a_brute_force_model() {
        let mut state = 0x5EED_u64;
        // splitmix64: the test needs no rand dev-dependency.
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let everything =
            Aabb { lo: Vec3::splat(f64::NEG_INFINITY), hi: Vec3::splat(f64::INFINITY) };
        let mut d = DeltaBuffer::new();
        // (insert, still live) in ack order; base ids removed; ops since clear.
        let mut inserts: Vec<(NeuronSegment, bool)> = Vec::new();
        let mut removed: HashSet<u64> = HashSet::new();
        let mut ops = 0usize;
        let mut next_id = 1_000_000u64;
        let (mut clears, mut peak) = (0, 0);
        for step in 0..3000 {
            // Clears are rare enough for the buffer to span many 64-entry
            // chunks between them.
            match next(1000) {
                // On a half-unit lattice, so faces of different boxes meet;
                // radius 0 with equal endpoints is a point box.
                0..=549 => {
                    let at = |v: u64| v as f64 * 0.5;
                    let p0 = Vec3::new(at(next(40)), at(next(40)), at(next(40)));
                    let p1 = if next(4) == 0 { p0 } else { p0 + Vec3::new(at(next(4)), 0.5, 0.0) };
                    let radius = [0.0, 0.25, 0.5][next(3) as usize];
                    let s = NeuronSegment {
                        id: next_id,
                        neuron: 0,
                        section: 0,
                        index_on_section: 0,
                        geom: Segment::new(p0, p1, radius),
                    };
                    next_id += 1;
                    d.apply(&WriteOp::Insert(s));
                    inserts.push((s, true));
                    ops += 1;
                }
                550..=749 => {
                    let live: Vec<usize> = (0..inserts.len()).filter(|&i| inserts[i].1).collect();
                    if live.is_empty() {
                        continue;
                    }
                    let i = live[next(live.len() as u64) as usize];
                    inserts[i].1 = false;
                    d.apply(&WriteOp::Remove(inserts[i].0.id));
                    ops += 1;
                }
                750..=996 => {
                    let id = next(100_000);
                    if !removed.insert(id) {
                        continue;
                    }
                    d.apply(&WriteOp::Remove(id));
                    ops += 1;
                }
                _ => {
                    peak = peak.max(inserts.len());
                    clears += 1;
                    d.clear();
                    inserts.clear();
                    removed.clear();
                    ops = 0;
                }
            }

            let live = inserts.iter().filter(|(_, alive)| *alive).count();
            assert_eq!(d.len(), ops, "step {step}");
            assert_eq!(d.net_len_delta(), live as isize - removed.len() as isize, "step {step}");

            let mut regions = vec![Aabb::EMPTY, everything];
            if let Some((s, _)) = inserts.get(next(inserts.len().max(1) as u64) as usize) {
                let b = s.aabb();
                let face = Aabb {
                    lo: Vec3::new(b.hi.x, b.lo.y, b.lo.z),
                    hi: b.hi + Vec3::new(1.0, 0.0, 0.0),
                };
                regions.extend([Aabb::point(b.lo), Aabb::point(b.center()), face, b]);
            }
            let c = Vec3::new(next(40) as f64 * 0.5, next(40) as f64 * 0.5, next(40) as f64 * 0.5);
            regions.push(Aabb::cube(c, next(8) as f64 * 0.5));
            for region in &regions {
                let want: Vec<u64> = inserts
                    .iter()
                    .filter(|(s, alive)| *alive && s.aabb().intersects(region))
                    .map(|(s, _)| s.id)
                    .collect();
                let mut got = Vec::new();
                d.for_each_in_range(region, |s| got.push(s.id));
                assert_eq!(got, want, "step {step}, region {region}");
            }

            for &id in &removed {
                assert!(d.is_removed(id), "step {step}: base id {id} removed");
            }
            for _ in 0..64 {
                let id = next(200_000);
                assert_eq!(d.is_removed(id), removed.contains(&id), "step {step}: id {id}");
            }
            for (s, _) in &inserts {
                assert!(!d.is_removed(s.id), "step {step}: delta insert {}", s.id);
            }
        }
        assert!(clears >= 2 && peak > 256, "{clears} clears, {peak} inserts at most");
    }
}
