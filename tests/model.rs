//! The oracle: one generated sequence of writes, failures and reads runs
//! against every configuration in [`ROWS`], each read checked against a
//! brute-force model of the row, a `Vec<NeuronSegment>`: after any
//! sequence of acknowledged writes, crashes and reopens, every answer
//! equals a scan of the model. A row's model changes only when the row
//! acks a write (by [`apply_ops`], the replay of refreeze and recovery);
//! a write the row must refuse fails with its typed error (frozen rows
//! `WriteUnsupported`, invalid batches `WriteRejected`, a WAL past its
//! crash point a storage error), so one op list drives every row. Reads:
//!
//! * `collect` returns the model's set; `stream`, `count` and the row's one
//!   `QuerySession`, kept across the whole sequence, agree with it;
//! * a filter or population gives the order-preserving filter of the full
//!   emission with the same traversal work; a limit gives a prefix of it
//!   and reads no more, and with nothing buffered exactly what the index's
//!   own early exit reads (on FLAT, the pages the full crawl had read when
//!   it emitted the prefix's last result);
//! * kNN returns the canonical (distance, id) order;
//! * the index surface (scratch paths, `plan_range`, `range_query_many`)
//!   answers from the frozen base generation;
//! * walkthrough steps return their range results and keep SCOUT's
//!   accounting, or fail with `WalkthroughUnsupported`;
//! * rows that differ only in their thread count agree in emission order
//!   and logical statistics.
//!
//! A failure is shrunk to a minimal op list, printed with its case seed and
//! written to `target/chaos/model.txt`. `CHAOS_SEED` offsets the case seeds.

use neurospatial::delta::apply_ops;
use neurospatial::flat::FlatScratch;
use neurospatial::prelude::*;
use proptest::{run_sequences, ProptestConfig, Shrink, Strategy, TestCaseError, TestRng};
use std::cell::Cell;
use std::collections::HashSet;
use std::path::PathBuf;
use Store::{Durable, Memory, Paged, PagedShards};

/// Where a row keeps its data. `Paged` has a 2-frame pool, so queries
/// evict. `PagedShards` has a page file per shard: the builder refuses
/// paged + sharded, so that row is an index alone and answers only the
/// index-surface reads. `Durable` is live, behind a write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Store {
    Memory,
    Paged,
    PagedShards,
    Durable,
}

/// One FLAT database configuration.
#[derive(Debug)]
struct Row {
    shards: usize,
    threads: usize,
    store: Store,
}

const fn row(shards: usize, threads: usize, store: Store) -> Row {
    Row { shards, threads, store }
}

/// Every configuration the machine holds to the model.
#[rustfmt::skip]
const ROWS: [Row; 8] = [
    row(1, 1, Memory), row(3, 1, Memory), row(3, 2, Memory),
    row(1, 1, Paged), row(3, 1, PagedShards), row(3, 2, PagedShards),
    row(1, 2, Durable), row(3, 2, Durable),
];

/// The populations every database declares, and a name none does.
const POPULATIONS: [&str; 3] = ["even", "odd", "nope"];

fn is_even(s: &NeuronSegment) -> bool {
    s.neuron.is_multiple_of(2)
}

/// The predicates a read can push down.
static FILTERS: [fn(&NeuronSegment) -> bool; 3] =
    [is_even, |s| s.neuron.is_multiple_of(3), |s| s.section.is_multiple_of(2)];

type P = (f64, f64, f64);

fn v(p: P) -> Vec3 {
    Vec3::new(p.0, p.1, p.2)
}

/// A query box. Indexes name the case's initial segments, so every row
/// runs the same box.
#[derive(Debug, Clone, Copy)]
enum Region {
    Cube(P, f64),
    /// By kind: a point, a 1-D box and a 2-D box from `p`, and a box given
    /// by its corners in reverse.
    Degenerate(u8, P),
    Empty,
    /// Infinite faces: all of space, the positive octant, and from the low
    /// corner of segment `a` up.
    Everything,
    Octant,
    Above(usize),
    /// The union of the boxes of segments `a` and `b`, each face moved by
    /// `nudge`: ±1 is one `f64` ulp and ±2 one `f32` step (where FLAT's
    /// lanes round), outward when positive.
    Union(usize, usize, i8),
    /// From segment `a`'s high corner to `b`'s low one.
    Between(usize, usize),
}

impl Region {
    fn resolve(&self, setup: &Setup) -> Aabb {
        let inf = Vec3::splat(f64::INFINITY);
        let pick = |i| setup.pick(i).map_or(Aabb::cube(Vec3::ZERO, 1.0), |s| s.aabb());
        let nudged = |p: Vec3, up: bool, nudge: i8| {
            let f = |x: f64| match (nudge.abs(), up == (nudge > 0)) {
                (1, true) => x.next_up(),
                (1, false) => x.next_down(),
                (2, true) => f64::from((x as f32).next_up()),
                (2, false) => f64::from((x as f32).next_down()),
                _ => x,
            };
            Vec3::new(f(p.x), f(p.y), f(p.z))
        };
        let extents = [(0.0, 0.0, 0.0), (30.0, 0.0, 0.0), (20.0, 20.0, 0.0), (-1.0, -1.0, -1.0)];
        match *self {
            Region::Cube(c, half) => Aabb::cube(v(c), half),
            Region::Degenerate(kind, p) => {
                Aabb::new(v(p), v(p) + v(extents[usize::from(kind) % 4]))
            }
            Region::Empty => Aabb::EMPTY,
            Region::Everything => Aabb { lo: -inf, hi: inf },
            Region::Octant => Aabb { lo: Vec3::ZERO, hi: inf },
            Region::Above(a) => Aabb { lo: pick(a).lo, hi: inf },
            Region::Between(a, b) => Aabb::new(pick(a).hi, pick(b).lo),
            Region::Union(a, b, nudge) => {
                let u = pick(a).union(&pick(b));
                Aabb { lo: nudged(u.lo, false, nudge), hi: nudged(u.hi, true, nudge) }
            }
        }
    }
}

/// What a read composes below the traversal: a limit, one of [`FILTERS`]
/// and one of [`POPULATIONS`].
#[derive(Debug, Clone, Copy)]
struct Compose {
    limit: Option<usize>,
    filter: Option<usize>,
    population: Option<usize>,
}

impl Compose {
    fn filter(&self) -> Option<&'static fn(&NeuronSegment) -> bool> {
        self.filter.map(|f| &FILTERS[f % FILTERS.len()])
    }

    fn population(&self) -> Option<&'static str> {
        self.population.map(|p| POPULATIONS[p % POPULATIONS.len()])
    }

    /// Bind to `session`; `false`, binding unchanged, for an unknown name.
    fn bind(&self, session: &mut QuerySession<'_>) -> bool {
        session.set_filter(self.filter().map(|f| f as &SegmentPredicate<'_>));
        session.set_limit(self.limit);
        session.set_population(self.population()).is_ok()
    }
}

/// `$query` (a range, kNN or touching builder) with `$c` composed on it.
macro_rules! composed {
    ($query:expr, $c:expr) => {{
        let (mut q, c) = ($query, $c);
        if let Some(f) = c.filter() {
            q = q.filter(f);
        }
        if let Some(p) = c.population() {
            q = q.in_population(p);
        }
        if let Some(l) = c.limit {
            q = q.limit(l);
        }
        q
    }};
}

#[derive(Debug, Clone)]
enum Op {
    /// Id, neuron, `p0`, `p1 - p0`, radius.
    Insert(u64, u32, P, P, f64),
    Remove(u64),
    /// Inserts and removals under one commit.
    Batch(Vec<Op>),
    Refreeze,
    /// Reopen with the WAL set to die this many bytes into the writes that
    /// follow.
    Crash(u64),
    /// Drop the row and reopen it without faults.
    Reopen,
    Range(Region, Compose),
    /// The `k` nearest to segment `from`'s centre moved by `offset`; at
    /// the centre itself, boxes that overlap it tie at distance 0.
    Knn(usize, P, usize, Compose),
    /// Pairs within ε of the left population (the composition's, else
    /// "even") and "odd".
    Touching(f64, Compose),
    /// A walkthrough from segment `from` in `steps` cubes of half-extent
    /// `half`, each `stride` from the last.
    Walk(usize, P, f64, usize),
}

impl Op {
    fn write(&self) -> WriteOp {
        match *self {
            Op::Insert(id, neuron, p0, d, radius) => {
                // A literal, so that an invalid radius reaches the write path.
                let geom = Segment { p0: v(p0), p1: v(p0) + v(d), radius };
                let section = neuron / 2;
                WriteOp::Insert(NeuronSegment { id, neuron, section, index_on_section: 0, geom })
            }
            Op::Remove(id) => WriteOp::Remove(id),
            _ => unreachable!("only inserts and removals are writes"),
        }
    }
}

/// A variant's candidates: those of the tuple of its fields.
macro_rules! shrink_fields {
    ($variant:path, $($f:ident),+) => {
        ($($f.clone(),)+).shrink().into_iter().map(|($($f,)+)| $variant($($f),+)).collect()
    };
}

impl Shrink for Region {
    fn shrink(&self) -> Vec<Self> {
        use Region::*;
        match self {
            Cube(p, h) => shrink_fields!(Cube, p, h),
            Degenerate(kind, p) => shrink_fields!(Degenerate, kind, p),
            Empty | Everything | Octant => Vec::new(),
            Above(a) => shrink_fields!(Above, a),
            Union(a, b, n) => shrink_fields!(Union, a, b, n),
            Between(a, b) => shrink_fields!(Between, a, b),
        }
    }
}

impl Shrink for Compose {
    fn shrink(&self) -> Vec<Self> {
        let Compose { limit, filter, population } = *self;
        let fields = (limit, filter, population).shrink().into_iter();
        fields.map(|(limit, filter, population)| Compose { limit, filter, population }).collect()
    }
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        use Op::*;
        match self {
            Insert(id, neuron, p0, d, r) => shrink_fields!(Insert, id, neuron, p0, d, r),
            Remove(id) => shrink_fields!(Remove, id),
            Batch(ops) => shrink_fields!(Batch, ops),
            Refreeze | Reopen => Vec::new(),
            Crash(at) => shrink_fields!(Crash, at),
            Range(r, c) => shrink_fields!(Range, r, c),
            Knn(from, p, k, c) => shrink_fields!(Knn, from, p, k, c),
            Touching(e, c) => shrink_fields!(Touching, e, c),
            Walk(from, stride, half, steps) => shrink_fields!(Walk, from, stride, half, steps),
        }
    }
}

/// What every row starts from.
struct Setup {
    segments: Vec<NeuronSegment>,
    cap: usize,
}

impl Setup {
    /// Initial segment `i`, modulo their count.
    fn pick(&self, i: usize) -> Option<&NeuronSegment> {
        self.segments.get(i % self.segments.len().max(1))
    }
}

/// One value of `strategy`.
fn draw<S: Strategy>(rng: &mut TestRng, strategy: S) -> S::Value {
    strategy.sample_value(rng)
}

fn point(rng: &mut TestRng, span: f64) -> P {
    (draw(rng, -span..span), draw(rng, -span..span), draw(rng, -span..span))
}

fn capsule(i: usize, p0: Vec3, p1: Vec3, radius: f64) -> NeuronSegment {
    let (id, neuron, section, index_on_section) = (i as u64, i as u32 % 7, i as u32 % 3, i as u32);
    NeuronSegment { id, neuron, section, index_on_section, geom: Segment::new(p0, p1, radius) }
}

/// The initial segments: the FLAT kernel's rounding lattice, generated
/// tissue, coincident capsules, nothing, or scattered capsules.
fn dataset(rng: &mut TestRng) -> Vec<NeuronSegment> {
    let kind = draw(rng, 0..10u32);
    // Capsules on the lattice `(k·0.1 + j·1e-9)·scale`: coordinates `f32`
    // cannot represent, faces that coincide exactly, zero-extent boxes,
    // negative values, scales from 1e-3 to beyond `f32::MAX`.
    let scale = [1e-3, 1.0, 1e3, 1e7, 1e38][draw(rng, 0..5usize)];
    let at = |rng: &mut TestRng| {
        let (k, j) = (draw(rng, -40..40i32), draw(rng, 0..3u32));
        (f64::from(k) * 0.1 + f64::from(j) * 1e-9) * scale
    };
    let step = |rng: &mut TestRng, n: u32| f64::from(draw(rng, 0..n)) * 0.1 * scale;
    let lattice = |rng: &mut TestRng, i| {
        let p0 = Vec3::new(at(rng), at(rng), at(rng));
        let ext = Vec3::new(step(rng, 4), step(rng, 4), step(rng, 4));
        capsule(i, p0, p0 + ext, step(rng, 3))
    };
    // Scattered capsules, down to one, where most shards are empty.
    let scattered = |rng: &mut TestRng, i| {
        let (p0, d) = (v(point(rng, 60.0)), v(point(rng, 8.0)));
        capsule(i, p0, p0 + d, draw(rng, 0.05..2.0))
    };
    let most = [4usize, 220][draw(rng, 0..2usize)];
    match kind {
        0..=2 => (0..draw(rng, 1..300usize)).map(|i| lattice(rng, i)).collect(),
        3..=4 => {
            let c = CircuitBuilder::new(draw(rng, 0..3000u64)).neurons(draw(rng, 2..5u32));
            c.build().segments().to_vec()
        }
        // Everything at one point, ids descending: the worst case for KD
        // cuts (R+), page packing (FLAT) and distance ties across shards.
        5 => (0..draw(rng, 1..120usize))
            .rev()
            .map(|i| capsule(i, Vec3::splat(5.0), Vec3::splat(5.0), 0.5))
            .collect(),
        6 => Vec::new(),
        _ => (0..draw(rng, 0..most)).map(|i| scattered(rng, i)).collect(),
    }
}

fn region(rng: &mut TestRng, n: usize) -> Region {
    let pick = |rng: &mut TestRng| draw(rng, 0..n.max(1));
    match draw(rng, 0..16u32) {
        0..=4 => Region::Cube(point(rng, 80.0), draw(rng, 0.5..50.0)),
        5..=8 => Region::Degenerate(draw(rng, 0..4u8), point(rng, 70.0)),
        9 => [Region::Empty, Region::Everything, Region::Octant][draw(rng, 0..3usize)],
        10 => Region::Above(pick(rng)),
        11 => Region::Between(pick(rng), pick(rng)),
        _ => Region::Union(pick(rng), pick(rng), draw(rng, -2..3i8)),
    }
}

fn compose(rng: &mut TestRng) -> Compose {
    let mut some = |n: usize| (draw(rng, 0..3u32) == 0).then(|| draw(rng, 0..n));
    Compose { limit: some(40), filter: some(FILTERS.len()), population: some(3) }
}

/// A write valid if every earlier one acked: mostly inserts of fresh ids
/// and removals of live ones. One in fifteen inserts a live id or removes
/// an absent one, and one insert in twenty has a negative radius.
fn draw_write(rng: &mut TestRng, live: &mut Vec<u64>, next: &mut u64) -> Op {
    let invalid = draw(rng, 0..15u32) == 0;
    if draw(rng, 0..10u32) >= 7 {
        let at = draw(rng, 0..live.len().max(1));
        return Op::Remove(if invalid || live.is_empty() { 999_999 } else { live.swap_remove(at) });
    }
    if !invalid || live.is_empty() {
        *next += 1;
        live.push(*next);
    }
    let id = if invalid { live[draw(rng, 0..live.len())] } else { *next };
    // On the half-unit lattice of `delta_matches_a_brute_force_model`, so
    // that faces of different boxes meet.
    let at = |v: u32| f64::from(v) * 0.5;
    let p0 = (at(draw(rng, 0..40u32)), at(draw(rng, 0..40u32)), at(draw(rng, 0..40u32)));
    let d = [(0.0, 0.0, 0.0), (at(draw(rng, 0..4u32)), 0.5, 0.0)][draw(rng, 0..2usize)];
    let radius =
        if draw(rng, 0..20u32) == 0 { -1.0 } else { [0.0, 0.25, 0.5][draw(rng, 0..3usize)] };
    Op::Insert(id, draw(rng, 0..6u32), p0, d, radius)
}

/// A case: its setup, then its op list.
fn generate(rng: &mut TestRng) -> (Setup, Vec<Op>) {
    let segments = dataset(rng);
    let (rounding, any) = ([1, 63, 64, 65, 128, 200][draw(rng, 0..6usize)], draw(rng, 4..96usize));
    let cap = if draw(rng, 0..2u32) == 0 { rounding } else { any };
    let n = segments.len();
    let (mut live, mut next) = (segments.iter().map(|s| s.id).collect(), 1_000_000);
    let len = draw(rng, 6..22usize);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let op = match draw(rng, 0..100u32) {
            0..=19 => draw_write(rng, &mut live, &mut next),
            20..=29 => Op::Batch(
                (0..draw(rng, 0..4)).map(|_| draw_write(rng, &mut live, &mut next)).collect(),
            ),
            30..=35 => Op::Refreeze,
            // A crash, and a write it can land in: an insert commits 119
            // bytes, a removal 51.
            36..=42 => {
                ops.push(Op::Crash(draw(rng, 0..200u64)));
                draw_write(rng, &mut live, &mut next)
            }
            43..=47 => Op::Reopen,
            48..=76 => Op::Range(region(rng, n), compose(rng)),
            // Half the probes on a segment's centre, some far outside.
            77..=88 => {
                let span: f64 = [0.0, 0.0, 70.0, 1e4][draw(rng, 0..4usize)];
                let offset = if span == 0.0 { (0.0, 0.0, 0.0) } else { point(rng, span) };
                Op::Knn(draw(rng, 0..n.max(1)), offset, draw(rng, 0..30usize), compose(rng))
            }
            89..=92 => Op::Touching(draw(rng, 0.0..3.0), compose(rng)),
            _ => {
                let (from, stride) = (draw(rng, 0..n.max(1)), point(rng, 5.0));
                Op::Walk(from, stride, draw(rng, 1.0..15.0), draw(rng, 1..7usize))
            }
        };
        ops.push(op);
    }
    (Setup { segments, cap }, ops)
}

/// One row's model: its acknowledged `segments` in replay order; the
/// `base` generation `db.index()` holds and the writes `pending` over it;
/// the `populations` (and their `members`) as of the last open, where a
/// database assigns membership; whether that open set a crash offset
/// (`faulted`) and whether the WAL has died.
struct Model {
    segments: Vec<NeuronSegment>,
    base: Vec<NeuronSegment>,
    pending: u64,
    populations: [Vec<NeuronSegment>; 2],
    members: [HashSet<u64>; 2],
    faulted: bool,
    crashed: bool,
}

impl Model {
    /// The model of a database just opened over `segments`.
    fn opened(segments: Vec<NeuronSegment>, faulted: bool) -> Self {
        let (even, odd): (Vec<_>, Vec<_>) = segments.iter().partition(|s| is_even(s));
        let members = [ids(&even).into_iter().collect(), ids(&odd).into_iter().collect()];
        let (base, populations) = (segments.clone(), [even, odd]);
        Model { segments, base, populations, members, pending: 0, faulted, crashed: false }
    }

    /// Whether `s` passes `c`'s filter and (known) population.
    fn keeps(&self, c: &Compose, s: &NeuronSegment) -> bool {
        c.filter().is_none_or(|f| f(s))
            && c.population.is_none_or(|p| self.members[p % 3].contains(&s.id))
    }

    /// Whether the database validates the batch: no duplicate insert, no
    /// removal of an absent id, no invalid geometry, judged in order.
    fn accepts(&self, ops: &[WriteOp]) -> bool {
        let mut ids: HashSet<u64> = self.segments.iter().map(|s| s.id).collect();
        !ops.is_empty()
            && ops.iter().all(|op| match op {
                WriteOp::Insert(s) => s.geom.is_valid() && ids.insert(s.id),
                WriteOp::Remove(id) => ids.remove(id),
            })
    }
}

fn scan(segments: &[NeuronSegment], q: &Aabb) -> Vec<u64> {
    let mut hits: Vec<u64> =
        segments.iter().filter(|s| s.aabb().intersects(q)).map(|s| s.id).collect();
    hits.sort_unstable();
    hits
}

/// A neighbour as compared: distance bits, id.
type Key = (u64, u64);

/// The `k` nearest of `of`, in canonical (distance, id) order.
fn nearest<'a>(of: impl Iterator<Item = &'a NeuronSegment>, p: Vec3, k: usize) -> Vec<Key> {
    let mut all: Vec<(f64, u64)> = of.map(|s| (s.aabb().min_distance_to_point(p), s.id)).collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    all.into_iter().take(k).map(|(d, id)| (d.to_bits(), id)).collect()
}

fn ids(segments: &[NeuronSegment]) -> Vec<u64> {
    segments.iter().map(|s| s.id).collect()
}

fn keys(neighbors: &[Neighbor]) -> Vec<Key> {
    neighbors.iter().map(|n| (n.distance.to_bits(), n.segment.id)).collect()
}

/// Statistics without the counters that depend on what the pool held.
fn logical(stats: QueryStats) -> QueryStats {
    QueryStats { cache_hits: 0, cache_misses: 0, cache_evictions: 0, ..stats }
}

/// Fail the case unless `$cond` holds.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

macro_rules! ensure_eq {
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        ensure!(*l == *r, "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r);
    }};
}

/// What a check returns: the failure, if any.
type Verdict = Result<(), TestCaseError>;

fn fail(e: NeuroError) -> TestCaseError {
    TestCaseError::fail(format!("{e:?}"))
}

fn unknown<T>(r: Result<T, NeuroError>) -> bool {
    matches!(r, Err(NeuroError::UnknownPopulation { .. }))
}

/// A WAL path, removed on drop.
struct WalFile(PathBuf);

impl Drop for WalFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A row opened: a database, or (sharded paged) an index alone.
struct Opened {
    db: Option<NeuroDb>,
    index: Option<Box<dyn SpatialIndex>>,
}

/// Open `row` over the model: a frozen row builds, a durable row builds
/// its WAL on the first open and recovers from it on every later one.
/// Given a crash offset, a durable row first opens clean, which folds any
/// replay into a checkpoint: the faulted open then writes nothing, and
/// the offset counts only bytes of the writes that follow.
fn open(row: &Row, setup: &Setup, model: &Model, wal: &WalFile, crash_at: Option<u64>) -> Opened {
    if row.store == PagedShards {
        let params =
            IndexParams::with_page_capacity(setup.cap).sharded(row.shards).threaded(row.threads);
        let index = ShardedIndex::<OocFlatIndex>::build_with(model.segments.clone(), &params);
        return Opened { db: None, index: Some(Box::new(index)) };
    }
    let recover = row.store == Durable && wal.0.exists();
    let builder = || {
        let b = NeuroDb::builder()
            .segments(if recover { Vec::new() } else { model.segments.clone() })
            .page_capacity(setup.cap)
            .shards(row.shards)
            .threads(row.threads)
            .split_populations(POPULATIONS[0], POPULATIONS[1], is_even);
        match row.store {
            Paged => b.paged(true).frame_budget(2),
            Durable => b.durable(&wal.0),
            Memory | PagedShards => b,
        }
    };
    let mut b = builder();
    if let (true, Some(at)) = (recover, crash_at) {
        drop(b.build().expect("recovery"));
        b = builder().wal_faults(FaultPlan::new(at).with_write_crash_at(at));
    }
    Opened { db: Some(b.build().expect("a valid configuration opens")), index: None }
}

/// One observation for the comparison of rows that differ only in their
/// thread count: the op, what was read, its emission and logical stats.
type Seen = (usize, &'static str, Vec<u64>, QueryStats);

/// What a case shares across rows: one scratch, which every index-surface
/// call runs on after whatever the last row left in it, the WAL crashes
/// that fired, and the running row's observations.
#[derive(Default)]
struct Shared {
    scratch: QueryScratch,
    crashes: u64,
    seen: Vec<Seen>,
    at: usize,
}

impl Shared {
    fn saw(&mut self, what: &'static str, emitted: Vec<u64>, stats: QueryStats) {
        self.seen.push((self.at, what, emitted, logical(stats)));
    }
}

/// Run the op list against one row and its own model.
fn run_row(row: &Row, setup: &Setup, ops: &[Op], shared: &mut Shared) -> Verdict {
    // Rows run one at a time, each removing its WAL when it is done.
    let wal = WalFile(std::env::temp_dir().join(format!("model-{}.wal", std::process::id())));
    let at_op = |at: usize| move |e| TestCaseError::fail(format!("{row:?} op {at}: {e}"));
    let (mut model, mut at, mut crash_at) = (Model::opened(setup.segments.clone(), false), 0, None);
    loop {
        let sut = open(row, setup, &model, &wal, crash_at);
        if at > 0 {
            model = Model::opened(model.segments, crash_at.is_some());
        }
        // After a reopen: exactly the acknowledged prefix.
        sut.db.as_ref().map_or(Ok(()), |db| check_contents(db, &model)).map_err(at_op(at))?;
        let mut session = sut.db.as_ref().map(|db| db.query().session());
        loop {
            (shared.at, at) = (at, at + 1);
            match ops.get(shared.at) {
                None => return Ok(()),
                Some(Op::Reopen) => crash_at = None,
                Some(Op::Crash(bytes)) => crash_at = Some(*bytes),
                Some(op) => {
                    let db = sut.db.as_ref().zip(session.as_mut());
                    step(row, setup, &sut, db, &mut model, op, shared).map_err(at_op(at - 1))?;
                    continue;
                }
            }
            break;
        }
    }
}

/// One write or read on an open row.
fn step(
    row: &Row,
    setup: &Setup,
    sut: &Opened,
    db: Option<(&NeuroDb, &mut QuerySession<'_>)>,
    model: &mut Model,
    op: &Op,
    shared: &mut Shared,
) -> Verdict {
    if let Op::Insert(..) | Op::Remove(_) | Op::Batch(_) | Op::Refreeze = op {
        return db.map_or(Ok(()), |(db, _)| write(row, db, model, op, shared));
    }
    let pinned = sut.db.as_ref().map(|db| db.index());
    let index = pinned.as_deref().or(sut.index.as_deref()).expect("every row has an index");
    let centre = |i| setup.pick(i).map_or(Vec3::ZERO, |s| s.geom.center());
    match (op, db) {
        (Op::Range(r, c), db) => check_range(row, index, db, model, &r.resolve(setup), c, shared),
        (Op::Knn(from, offset, k, c), db) => {
            check_knn(index, db, model, (centre(*from) + v(*offset), *k), c, shared)
        }
        (Op::Touching(eps, c), Some((db, _))) => check_join(db, model, *eps, c),
        (Op::Walk(from, stride, half, steps), Some((db, _))) => {
            let start = centre(*from);
            let waypoints: Vec<Vec3> = (0..*steps).map(|i| start + v(*stride) * i as f64).collect();
            let queries = waypoints.iter().map(|w| Aabb::cube(*w, *half)).collect();
            let (sections, view_radius) = (Vec::new(), *half);
            let path = NavigationPath { neuron: 0, sections, waypoints, queries, view_radius };
            check_walk(row, db, model, &path)
        }
        _ => Ok(()),
    }
}

/// Apply one write op to a database row and its model: a row that must
/// refuse it answers its typed error and keeps its model.
fn write(row: &Row, db: &NeuroDb, model: &mut Model, op: &Op, shared: &mut Shared) -> Verdict {
    let batch: Vec<WriteOp> = match op {
        Op::Batch(ops) => ops.iter().map(Op::write).collect(),
        Op::Refreeze => Vec::new(),
        op => vec![op.write()],
    };
    let refreeze = matches!(op, Op::Refreeze);
    let result = match (op, batch.first()) {
        (Op::Insert(..), Some(WriteOp::Insert(s))) => db.insert_segment(*s),
        (Op::Remove(id), _) => db.remove_segment(*id),
        (Op::Batch(_), _) => db.write_batch(&batch),
        _ => db.refreeze().map(|_| WriteAck { lsn: 0, pending: 0 }),
    };
    match result {
        _ if row.store != Durable => {
            ensure!(matches!(result, Err(NeuroError::WriteUnsupported)), "{result:?}");
        }
        _ if !refreeze && !model.accepts(&batch) => {
            ensure!(matches!(result, Err(NeuroError::WriteRejected { .. })), "{result:?}");
        }
        // A dead WAL acks only a refreeze with nothing to fold.
        Ok(_) if model.crashed && !(refreeze && model.pending == 0) => {
            return Err(TestCaseError::fail("acked past the crash"));
        }
        Ok(ack) if !refreeze => {
            apply_ops(&mut model.segments, &batch);
            model.pending += batch.len() as u64;
            ensure_eq!(ack.pending, model.pending, "pending ops in the ack");
        }
        Ok(_) => {}
        Err(NeuroError::Storage(_)) if model.faulted => {
            shared.crashes += u64::from(!model.crashed);
            model.crashed = true;
        }
        Err(e) => return Err(fail(e)),
    }
    if refreeze && row.store == Durable {
        // Swapped in before the checkpoint, which a dead WAL fails.
        (model.base, model.pending) = (model.segments.clone(), 0);
    }
    check_contents(db, model)
}

/// The whole database, byte for byte: the model.
fn check_contents(db: &NeuroDb, model: &Model) -> Verdict {
    let inf = Vec3::splat(f64::INFINITY);
    let mut got = db.query().range(Aabb { lo: -inf, hi: inf }).collect().map_err(fail)?.segments;
    let mut want = model.segments.clone();
    got.sort_by_key(|s| s.id);
    want.sort_by_key(|s| s.id);
    ensure!(db.len() == want.len() && got == want, "contents differ from the model");
    let health = db.wal_health().map(|h| (h.pending_ops, h.generations_alive));
    ensure!(health.is_none_or(|h| h == (model.pending, 1)), "pending, generations: {health:?}");
    Ok(())
}

/// The index's own early exit: the first `limit` emissions `keep` passes,
/// the last of them with [`Flow::Last`].
fn early_exit(
    index: &dyn SpatialIndex,
    q: &Aabb,
    limit: usize,
    scratch: &mut QueryScratch,
    keep: impl Fn(&NeuronSegment) -> bool,
) -> (Vec<u64>, QueryStats) {
    let mut prefix = Vec::new();
    if limit == 0 {
        return (prefix, QueryStats::default());
    }
    let stats = index.try_for_each_in_range(q, scratch, false, &mut |s| {
        if !keep(s) {
            return Flow::Skip;
        }
        prefix.push(s.id);
        [Flow::Emit, Flow::Last][usize::from(prefix.len() == limit)]
    });
    (prefix, stats.expect("a healthy index does not fail"))
}

/// FLAT's crawl of `q`, stopped at its `stop`-th result (never at 0): the
/// pages it read, and how many it had read when it emitted each result.
fn crawl(flat: &FlatIndex<NeuronSegment>, q: &Aabb, stop: usize) -> (u64, Vec<u64>) {
    let (pages, mut at) = (Cell::new(0), Vec::new());
    let read = |_| pages.set(pages.get() + 1);
    let stats = flat.range_query_stream(q, &mut FlatScratch::default(), read, |_| {
        at.push(pages.get());
        [Flow::Emit, Flow::Last][usize::from(at.len() == stop)]
    });
    (stats.pages_read, at)
}

/// A range read: the index surface against the base generation, then
/// every terminal of the database and the row's session.
fn check_range(
    row: &Row,
    index: &dyn SpatialIndex,
    db: Option<(&NeuroDb, &mut QuerySession<'_>)>,
    model: &Model,
    q: &Aabb,
    c: &Compose,
    shared: &mut Shared,
) -> Verdict {
    let (want, fresh) = (scan(&model.base, q), index.range_query(q));
    let (emitted, stats) = (ids(&fresh.segments), logical(fresh.stats));
    let got = (index.len(), fresh.sorted_ids(), stats.results as usize);
    ensure_eq!(got, (model.base.len(), want.clone(), want.len()), "index at {q}");
    let io = fresh.stats.cache_hits + fresh.stats.cache_misses;
    let paged = matches!(row.store, Paged | PagedShards);
    ensure!(if paged { want.is_empty() || io > 0 } else { io == 0 }, "{io} page reads at {q}");
    let mut buf = Vec::new();
    let reused = index.range_query_into_scratch(q, &mut shared.scratch, &mut buf);
    ensure_eq!((ids(&buf), logical(reused)), (emitted.clone(), stats), "reused scratch at {q}");
    // A batch longer than the worker count, with a repeat and a miss.
    let answer = |o: &QueryOutput| (ids(&o.segments), logical(o.stats));
    let batch: Vec<_> = index.range_query_many(&[*q, Aabb::EMPTY, *q]).iter().map(answer).collect();
    let miss = answer(&index.range_query(&Aabb::EMPTY));
    ensure_eq!(batch, [(emitted.clone(), stats), miss, (emitted.clone(), stats)], "batch at {q}");

    // The early exit: a prefix of the emission, reading no more than the
    // whole query, and on FLAT the pages the full crawl had read when it
    // emitted the prefix's last result.
    let limit = c.limit.unwrap_or(want.len() / 2);
    let n = limit.min(want.len());
    let (prefix, capped) = early_exit(index, q, limit, &mut shared.scratch, |_| true);
    ensure_eq!((&prefix[..], capped.results as usize), (&emitted[..n], n), "prefix at {q}");
    ensure!(capped.nodes_read <= stats.nodes_read, "a prefix read more at {q}");
    let flat = index.as_any().downcast_ref::<FlatIndex<NeuronSegment>>();
    if let (Some(flat), true) = (flat, n == limit && n > 0) {
        let ((_, pages_at), (read, _)) = (crawl(flat, q, 0), crawl(flat, q, limit));
        ensure_eq!(read, pages_at[limit - 1], "pages read by a prefix at {q}");
    }
    let plan = index.plan_range(q);
    let (probed, reads) = (plan.shards_probed, plan.estimated_reads);
    let fits = probed <= plan.shards_total && (want.is_empty() || probed >= 1 && reads >= 1);
    ensure!(fits && (index.bounds().intersects(q) || (probed, reads) == (0, 0)), "{plan:?} at {q}");
    shared.saw("index range", emitted, stats);
    shared.saw("index prefix", prefix, capped);

    let Some((db, session)) = db else { return Ok(()) };
    let full = db.query().range(*q).collect().map_err(fail)?;
    let want = (scan(&model.segments, q), full.len());
    ensure_eq!((full.sorted_ids(), full.stats.results as usize), want, "range at {q}");
    shared.saw("range", ids(&full.segments), full.stats);
    let range = |c: Compose| composed!(db.query().range(*q), c);
    if c.population() == Some(POPULATIONS[2]) {
        ensure!(unknown(range(*c).collect()) && unknown(range(*c).stream(|_| {})), "unknown");
        ensure!(unknown(range(*c).count()) && !c.bind(session), "unknown population bound");
        return Ok(());
    }
    // Without the limit: the order-preserving filter of the full emission,
    // with the same traversal work.
    let want: Vec<u64> = full.segments.iter().filter(|s| model.keeps(c, s)).map(|s| s.id).collect();
    let all = range(Compose { limit: None, ..*c }).collect().map_err(fail)?;
    let work = |s: &QueryStats| (s.nodes_read, s.objects_tested);
    let all = (ids(&all.segments), all.stats.results as usize, work(&all.stats));
    ensure_eq!(all, (want.clone(), want.len(), work(&full.stats)), "composed at {q}");
    // With it: a prefix of that, reading no more; the same from `stream`,
    // `count` and the session.
    let n = c.limit.map_or(want.len(), |l| l.min(want.len()));
    let capped = range(*c).collect().map_err(fail)?;
    let (emitted, stats) = (ids(&capped.segments), logical(capped.stats));
    ensure_eq!((&emitted[..], stats.results as usize), (&want[..n], n), "limited at {q}");
    ensure!(stats.nodes_read <= full.stats.nodes_read, "a limit read more at {q}");
    let mut streamed = Vec::new();
    let again = range(*c).stream(|s| streamed.push(s.id)).map_err(fail)?;
    ensure_eq!((&streamed, logical(again)), (&emitted, stats), "stream at {q}");
    ensure_eq!(range(*c).count().map_err(fail)?, n as u64, "count at {q}");
    ensure!(c.bind(session), "session refused a known population");
    let (hits, again) = session.range(q);
    ensure_eq!((ids(hits), logical(again)), (emitted.clone(), stats), "session at {q}");
    ensure_eq!(session.count(q).results as usize, n, "session count at {q}");
    if let (Some(limit), 0) = (c.limit, model.pending) {
        // Nothing buffered: the database stops where its index does.
        let index = db.index();
        let (_, exit) = early_exit(&*index, q, limit, &mut shared.scratch, |s| model.keeps(c, s));
        ensure_eq!(stats, logical(exit), "limited reads at {q}");
    }
    shared.saw("composed", emitted, stats);
    Ok(())
}

/// A kNN read: the index's against the base generation, then the
/// database's plain and composed, collected, streamed and in the session.
fn check_knn(
    index: &dyn SpatialIndex,
    db: Option<(&NeuroDb, &mut QuerySession<'_>)>,
    model: &Model,
    (p, k): (Vec3, usize),
    c: &Compose,
    shared: &mut Shared,
) -> Verdict {
    let (got, stats) = index.knn(p, k);
    let want = (nearest(model.base.iter(), p, k), got.len());
    ensure_eq!((keys(&got), stats.results as usize), want, "index knn");
    let mut reused = Vec::new();
    let again = index.knn_into_scratch(p, k, &mut shared.scratch, &mut reused);
    ensure_eq!((&reused, logical(again)), (&got, logical(stats)), "index knn, reused scratch");
    shared.saw("index knn", got.iter().map(|n| n.segment.id).collect(), stats);

    let Some((db, session)) = db else { return Ok(()) };
    let knn = |c: Compose| composed!(db.query().knn(p, k), c);
    if c.population() == Some(POPULATIONS[2]) {
        ensure!(unknown(knn(*c).collect()) && unknown(knn(*c).stream(|_| {})), "unknown");
        ensure!(!c.bind(session), "unknown population bound");
        return Ok(());
    }
    for c in [Compose { limit: None, filter: None, population: None }, *c] {
        let kept = model.segments.iter().filter(|s| model.keeps(&c, s));
        let want = nearest(kept, p, c.limit.map_or(k, |l| k.min(l)));
        let (got, stats) = knn(c).collect().map_err(fail)?;
        ensure_eq!((keys(&got), stats.results as usize), (want, got.len()), "knn {c:?}");
        let mut streamed = Vec::new();
        let again = knn(c).stream(|n| streamed.push(n)).map_err(fail)?;
        ensure_eq!((&streamed, logical(again)), (&got, logical(stats)), "knn stream {c:?}");
        ensure!(c.bind(session), "session refused a known population");
        ensure_eq!(session.knn(p, k).0, &got[..], "session knn {c:?}");
        shared.saw("knn", got.iter().map(|n| n.segment.id).collect(), stats);
    }
    Ok(())
}

/// A join: the nested loop's pairs over the populations as the database
/// last opened them, the left side filtered and the pairs limited by the
/// composition.
fn check_join(db: &NeuroDb, model: &Model, eps: f64, c: &Compose) -> Verdict {
    let touching = |c: Compose| composed!(db.query().touching(POPULATIONS[1], eps), c);
    let got = touching(Compose { limit: None, ..*c }).collect();
    if c.population() == Some(POPULATIONS[2]) {
        let other = db.query().touching(POPULATIONS[2], eps).collect();
        ensure!(unknown(got) && unknown(other), "unknown population joined");
        return Ok(());
    }
    let got = got.map_err(fail)?;
    let [left, right] = [&model.populations[c.population.unwrap_or(0) % 2], &model.populations[1]];
    let kept = |&(i, _): &(u32, u32)| c.filter().is_none_or(|f| f(&left[i as usize]));
    let all = NestedLoopJoin.join(left, right, eps).sorted_pairs();
    let want: Vec<(u32, u32)> = all.into_iter().filter(kept).collect();
    ensure_eq!((got.sorted_pairs(), got.pairs.len()), (want.clone(), want.len()), "pairs");
    if c.population.is_none() {
        let named = touching(Compose { population: Some(0), limit: None, ..*c }).collect();
        ensure_eq!(named.map_err(fail)?.pairs, got.pairs, "the first population, named");
    }
    if let Some(limit) = c.limit {
        let (limited, n) = (touching(*c).collect().map_err(fail)?, limit.min(got.pairs.len()));
        let limited = (&limited.pairs[..], limited.stats.results);
        ensure_eq!(limited, (&got.pairs[..n], n as u64), "limit");
    }
    Ok(())
}

/// Every method walks a row that walks, each step returning its range
/// result with SCOUT's accounting intact; every other row refuses.
fn check_walk(row: &Row, db: &NeuroDb, model: &Model, path: &NavigationPath) -> Verdict {
    let walks = row.shards == 1 && matches!(row.store, Memory | Paged);
    for method in WalkthroughMethod::ALL {
        let s = match db.query().along_path(path).method(method).run() {
            Err(NeuroError::WalkthroughUnsupported { .. }) if !walks => continue,
            Ok(s) if walks => s,
            other => return Err(TestCaseError::fail(format!("{method}: {other:?}"))),
        };
        let results: Vec<u64> = s.steps.iter().map(|t| t.results).collect();
        let want = path.queries.iter().map(|q| scan(&model.segments, q).len() as u64);
        ensure_eq!(results, want.collect::<Vec<_>>(), "{method} step results");
        let demand =
            s.steps.iter().fold((0, 0), |(h, m), t| (h + t.demand_hits, m + t.demand_misses));
        ensure_eq!(demand, (s.total_demand_hits, s.total_demand_misses), "{method}");
        ensure!(s.useful_prefetched <= s.total_prefetched && s.total_stall_ms >= 0.0, "{s:?}");
    }
    Ok(())
}

/// One case: every row through the op list, then the rows that differ
/// only in their thread count against each other.
fn check(setup: &Setup, ops: &[Op], crashes: &Cell<u64>) -> Verdict {
    let mut shared = Shared::default();
    let mut seen = Vec::with_capacity(ROWS.len());
    for row in &ROWS {
        run_row(row, setup, ops, &mut shared)?;
        seen.push(std::mem::take(&mut shared.seen));
    }
    crashes.set(crashes.get() + shared.crashes);
    for ((one, a), (two, b)) in ROWS.iter().zip(&seen).zip(ROWS.iter().zip(&seen).skip(1)) {
        let twins = (one.shards, one.store) == (two.shards, two.store);
        if let (true, Some((a, b))) = (twins, a.iter().zip(b).find(|(a, b)| a != b)) {
            return Err(TestCaseError::fail(format!("{two:?} is not {one:?}: {a:?} {b:?}")));
        }
    }
    Ok(())
}

#[test]
fn every_configuration_answers_as_the_model() {
    let seed = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    let crashes = Cell::new(0);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cases = ProptestConfig::with_cases(64);
        run_sequences(cases, "model", seed, generate, |s, ops| check(s, ops, &crashes))
    }));
    if let Err(panic) = run {
        // The breadcrumb CI archives, in the workspace's target directory.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos");
        std::fs::create_dir_all(&dir).ok();
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        std::fs::write(dir.join("model.txt"), format!("CHAOS_SEED={seed}\n{msg}\n")).ok();
        std::panic::resume_unwind(panic);
    }
    assert!(crashes.get() > 0, "no crash offset fired: the crash leg is dead");
}
