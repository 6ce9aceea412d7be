//! TOUCH — hierarchical data-oriented partitioning join (Nobari et al.,
//! SIGMOD'13), as described in §4.1 of the demo paper:
//!
//! 1. **Build**: index dataset A with a packed (STR) tree. Because the
//!    partitioning is *data*-oriented, packing "opens up empty space
//!    between partitions" and no element is ever replicated.
//! 2. **Assign**: each object `b ∈ B` descends from the root; at every
//!    inner node the children whose ε-inflated MBR intersects `b` are
//!    counted. Zero children → `b` falls into empty space and is
//!    **filtered** out (it cannot join anything). Exactly one child →
//!    descend. Several children → `b` is assigned to the current node's
//!    bucket.
//! 3. **Join**: for every node bucket, each assigned `b` is compared
//!    against the A-objects in that node's subtree, descending only into
//!    children whose ε-inflated MBR intersects `b`.
//!
//! This module is the *cache-conscious* engine for that pipeline:
//!
//! * the A-tree is **frozen** after the STR build, so both the assignment
//!   descent and the per-bucket join scan the BFS-ordered
//!   structure-of-arrays lanes of [`neurospatial_rtree::soa`] instead of
//!   chasing arena pointers — and A-object AABBs are read from the lanes
//!   rather than recomputed per comparison;
//! * per-node buckets are materialised in a **counting-sorted CSR
//!   layout** (one pass to count, one prefix sum, one pass to place) with
//!   every bucket's B-object filter boxes stored in six contiguous `f64`
//!   lanes, so the join phase streams sequential memory;
//! * the join's filter is **B-major and branch-free**: a bucket walks its
//!   subtree as a set, and at every node each of its slots loads its box
//!   once and gets one bitmask over the node's contiguous entry lanes
//!   ([`FrozenView::entry_masks`]: six comparisons an entry joined with
//!   `&`, 64 entries a mask). An inner node counts and places its slots
//!   per child from the masks; a leaf walks the set bits into `refine`.
//!   The decisions are those of one `Aabb::intersects` per (object,
//!   entry) and are counted as such, but their cost does not depend on
//!   how the comparisons fall (as one short-circuit test per pair, six
//!   loads behind six branches, the filter is 79 % of the reference
//!   join);
//! * all transient state lives in a reusable [`JoinScratch`] — steady-state
//!   joins through a prebuilt [`TouchEngine`] perform **zero** heap
//!   allocations at one thread — and none of it grows with the number of
//!   pairs found. Besides the frozen tree on A, a join holds B's curve
//!   order (8 B an object of B, plus the workers' key chunks it is
//!   gathered from), per surviving object its `(node, index)` assignment
//!   (8 B) and one CSR slot (4 B), the per-node counts and the task
//!   list, each worker's descent working set and the raw boxes of the
//!   task it is joining (six `f64` lanes; an inner node inflates a box
//!   by ε as it loads it, the operation a per-object descent applies, so
//!   no inflated copy is kept), and at most `JOIN_WINDOW` pair buffers
//!   of one task each;
//! * B is visited in **space order**: every object is keyed by the
//!   centre of its box on a Hilbert curve over A's root box, 10 bits an
//!   axis, and the assign phase walks B sorted by `(key, index)`. The
//!   counting sort into buckets is stable, so every bucket holds its
//!   objects in curve order, and a run of consecutive slots is one
//!   compact neighbourhood: its slots share the subtrees below the
//!   bucket's node, so a task visits few nodes and puts many slots on
//!   each leaf it reaches. The order depends on the data only;
//! * both phases run on [`neurospatial_geom::Executor`] workers, one
//!   scratch per worker. The keys and the assign phase give every worker
//!   one contiguous chunk (of B, then of the curve order; a key or a
//!   descent costs about the same for every object). The join phase
//!   cannot be split by bucket: in dense tissue most probes are ambiguous
//!   at the root, so one bucket holds most of the data. It is cut into
//!   **tasks** of at most [`JOIN_TASK_SLOTS`] consecutive CSR slots of one
//!   bucket, which the workers pull from a shared counter. The task list
//!   depends on the data only, never on the worker count, and the pairs
//!   are delivered in task order, so the pair sequence and the comparison
//!   counts are the same at every worker count. One worker runs the
//!   tasks inline and hands each pair to the sink as it is found. More
//!   fill one pooled pair buffer a task, which the calling thread hands
//!   to the sink in task order while they run
//!   ([`Executor::for_each_task_in_order`]); a worker starts a task only
//!   within `JOIN_WINDOW` tasks of the oldest undelivered one, so the
//!   pairs held at once are a few tasks' worth, not the result;
//! * a leaf is scanned with one lane mask per slot. A bucket-local
//!   sort+sweep along x is still reachable for sub-buckets of at least
//!   [`TouchJoin::sweep_min`] slots, but it is off by default: on
//!   buckets in curve order the masks do all the leaf tests in less time
//!   than the sweep takes to sort its share of them.

use crate::stats::{JoinResult, JoinStats, PhaseTimer};
use crate::{JoinObject, SpatialJoin};
use neurospatial_geom::{Aabb, Executor, HilbertSorter, Vec3};
use neurospatial_rtree::{EpochMarks, FrozenView, RTree, RTreeObject, RTreeParams};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Most CSR slots (bucketed B objects) one join task covers. A constant
/// of the algorithm and not a setting: the task list must be a function
/// of the data alone for the pair sequence to be the same at every worker
/// count. 2048 slots make a few hundred tasks out of a bucket of several
/// hundred thousand objects, each long enough (milliseconds) that pulling
/// it costs nothing, and short enough that the last one to finish holds
/// no worker up for long.
pub const JOIN_TASK_SLOTS: usize = 2048;

/// Bits an axis of the Hilbert curve B is visited along, a constant for
/// the same reason as [`JOIN_TASK_SLOTS`]. 2^30 cells over A's root box
/// are finer than any leaf, and a key fits in a `u64` above the object's
/// 32-bit index.
const ORDER_BITS: u32 = 10;

/// Most join tasks started and not yet delivered at once, a constant for
/// the same reason as [`JOIN_TASK_SLOTS`]. A worker starts task `t` only
/// while `t < delivered + JOIN_WINDOW`, so at most this many pair buffers
/// are held, whatever the join finds; 8 tasks of milliseconds each keep
/// two workers busy past a slow task.
const JOIN_WINDOW: usize = 8;

/// The TOUCH join (cache-conscious engine).
#[derive(Debug, Clone, Copy)]
pub struct TouchJoin {
    /// Fan-out of the tree over dataset A.
    pub fanout: usize,
    /// Worker threads for the assign+join phases (1 = sequential).
    pub threads: usize,
    /// Leaf sub-buckets with at least this many B-objects switch from the
    /// lane mask to a bucket-local sort+sweep along x. Off (`usize::MAX`)
    /// by default: on buckets in curve order the masks are faster.
    pub sweep_min: usize,
}

impl Default for TouchJoin {
    fn default() -> Self {
        TouchJoin { fanout: 16, threads: 1, sweep_min: usize::MAX }
    }
}

impl TouchJoin {
    /// Parallel variant with `threads` workers.
    pub fn parallel(threads: usize) -> Self {
        TouchJoin { threads: threads.max(1), ..TouchJoin::default() }
    }

    /// Replace the A-tree fan-out.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.max(2);
        self
    }

    /// Turn the leaf sort+sweep on from `sweep_min` slots (at least 2).
    pub fn with_sweep_min(mut self, sweep_min: usize) -> Self {
        self.sweep_min = sweep_min.max(2);
        self
    }

    /// Like [`SpatialJoin::join`] but also returns the assignment-depth
    /// report (used by the `experiments a2` ablation).
    pub fn join_with_report<T: JoinObject>(
        &self,
        a: &[T],
        b: &[T],
        eps: f64,
    ) -> (JoinResult, AssignmentReport) {
        let mut pairs = Vec::new();
        let mut scratch = JoinScratch::new();
        let stats = self.join_runs(a, b, eps, &mut scratch, |run| pairs.extend_from_slice(run));
        (JoinResult { pairs, stats }, scratch.report)
    }

    /// Run the join and hand every qualifying `(a_index, b_index)` pair
    /// to `sink`, in the order [`SpatialJoin::join`] would return them,
    /// without first collecting them into one vector. The assign and
    /// join phases run in `scratch`, so a caller that keeps one across
    /// joins (as the database does) pays for its buffers once instead of
    /// allocating and faulting them in on every cold join.
    pub fn join_each<T: JoinObject>(
        &self,
        a: &[T],
        b: &[T],
        eps: f64,
        scratch: &mut JoinScratch,
        mut sink: impl FnMut(u32, u32),
    ) -> JoinStats {
        self.join_runs(a, b, eps, scratch, |run| {
            for &(i, j) in run {
                sink(i, j);
            }
        })
    }

    /// One cold join: build on `threads` workers, assign, join, deliver.
    fn join_runs<T: JoinObject>(
        &self,
        a: &[T],
        b: &[T],
        eps: f64,
        scratch: &mut JoinScratch,
        sink: impl FnMut(&[(u32, u32)]),
    ) -> JoinStats {
        let timer = PhaseTimer::start();
        if a.is_empty() || b.is_empty() {
            return JoinStats::default();
        }
        let exec = Executor::new(self.threads);
        let engine = TouchEngine::build_on(a, self.fanout, &exec);
        let mut stats =
            engine.join_windowed(&exec, b, eps, self.sweep_min, JOIN_WINDOW, scratch, sink);
        stats.build_ms = engine.build_ms();
        timer.finish(&mut stats);
        stats
    }
}

impl SpatialJoin for TouchJoin {
    fn name(&self) -> &'static str {
        "touch"
    }

    fn join<T: JoinObject>(&self, a: &[T], b: &[T], eps: f64) -> JoinResult {
        self.join_with_report(a, b, eps).0
    }
}

/// An object of A and its position in A: what the leaves of an A-tree
/// hold, so that a pair names the object it came from.
pub(crate) struct Indexed<T> {
    pub(crate) obj: T,
    pub(crate) idx: u32,
}

impl<T: JoinObject> RTreeObject for Indexed<T> {
    fn aabb(&self) -> Aabb {
        self.obj.aabb()
    }
}

/// STR-pack `a` with the given fan-out, each element cloned once,
/// straight into its leaf, next to its position.
pub(crate) fn index_tree<T: JoinObject>(
    a: &[T],
    fanout: usize,
    exec: &Executor,
) -> RTree<Indexed<T>> {
    let params = RTreeParams::with_max_entries(fanout.max(2));
    RTree::bulk_load_on(
        a.len(),
        |i| a[i].aabb(),
        params,
        exec,
        |i| Indexed { obj: a[i].clone(), idx: i as u32 },
    )
}

/// A prebuilt TOUCH join engine over dataset A: the frozen STR tree plus
/// its build cost. Build once, then run [`join_into`](Self::join_into)
/// against any number of B datasets — with a warm [`JoinScratch`] and a
/// warm output buffer, steady-state single-threaded joins allocate
/// nothing.
pub struct TouchEngine<T: JoinObject> {
    tree: RTree<Indexed<T>>,
    build_ms: f64,
}

impl<T: JoinObject> TouchEngine<T> {
    /// STR-pack dataset A with the given fan-out and freeze the tree into
    /// its structure-of-arrays traversal layout. The packer tiles
    /// `(centre, index)` keys and then clones each element of `a` once,
    /// straight into its leaf.
    pub fn build(a: &[T], fanout: usize) -> Self {
        Self::build_on(a, fanout, &Executor::default())
    }

    /// [`build`](Self::build) with the STR slabs tiled on `exec`'s
    /// workers; the tree is the same at every worker count.
    fn build_on(a: &[T], fanout: usize, exec: &Executor) -> Self {
        let timer = PhaseTimer::start();
        let mut tree = index_tree(a, fanout, exec);
        tree.freeze();
        TouchEngine { build_ms: timer.total_ms(), tree }
    }

    /// Milliseconds spent building and freezing the A-tree.
    pub fn build_ms(&self) -> f64 {
        self.build_ms
    }

    /// Number of A-objects indexed.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Execute the assign+join phases against `b`, writing qualifying
    /// `(a_index, b_index)` pairs into `out` (cleared first). `threads`
    /// workers (capped at the hardware, see [`Executor::new`]) run both
    /// phases; `sweep_min` is [`TouchJoin::sweep_min`]. The pair
    /// sequence and the comparison counts do not depend on `threads`. The
    /// returned stats cover only this call: `build_ms` is 0 (the build is
    /// amortised across joins) and `join_ms` includes copying the pairs
    /// into `out`. With a warm scratch and `out`, a one-thread call
    /// allocates nothing.
    pub fn join_into(
        &self,
        b: &[T],
        eps: f64,
        threads: usize,
        sweep_min: usize,
        scratch: &mut JoinScratch,
        out: &mut Vec<(u32, u32)>,
    ) -> JoinStats {
        out.clear();
        self.join_runs_on(&Executor::new(threads), b, eps, sweep_min, scratch, |run| {
            out.extend_from_slice(run)
        })
    }

    /// [`join_into`](Self::join_into) on a given executor, with the pairs
    /// handed to `sink` in task order while the join runs (`join_ms`
    /// includes the time `sink` takes): with one worker each pair as it
    /// is found, with more one task's run at a time, from a buffer the
    /// workers filled. An [`Executor::io_bound`] executor runs more
    /// workers than the machine has cores, which is how the equivalence
    /// suites put 3 and 8 workers on a 2-core CI machine.
    pub fn join_runs_on(
        &self,
        exec: &Executor,
        b: &[T],
        eps: f64,
        sweep_min: usize,
        scratch: &mut JoinScratch,
        sink: impl FnMut(&[(u32, u32)]),
    ) -> JoinStats {
        self.join_windowed(exec, b, eps, sweep_min, JOIN_WINDOW, scratch, sink)
    }

    /// [`join_runs_on`](Self::join_runs_on) with at most `window` join
    /// tasks started and not yet delivered at once ([`JOIN_WINDOW`] but
    /// in tests).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn join_windowed(
        &self,
        exec: &Executor,
        b: &[T],
        eps: f64,
        sweep_min: usize,
        window: usize,
        scratch: &mut JoinScratch,
        mut sink: impl FnMut(&[(u32, u32)]),
    ) -> JoinStats {
        let mut timer = PhaseTimer::start();
        let mut stats = JoinStats::default();
        scratch.reset_report();
        scratch.tasks.clear();
        let Some(view) = self.tree.frozen() else {
            timer.finish(&mut stats);
            return stats; // empty A
        };
        if b.is_empty() {
            timer.finish(&mut stats);
            return stats;
        }

        let (assign_workers, _) = exec.chunking(b.len());
        if scratch.workers.len() < assign_workers {
            scratch.workers.resize_with(assign_workers, WorkerScratch::default);
        }
        let JoinScratch {
            workers,
            order,
            counts,
            starts,
            cursor,
            items,
            active,
            marks,
            tasks,
            pair_pool,
            report,
        } = scratch;
        for ws in workers[..assign_workers].iter_mut() {
            ws.reset();
        }

        // --- Order: B along a Hilbert curve over A's root box -----------
        // Keys are unique through the index, so the order is a function of
        // the data. An empty root box (an A side of NaN boxes only) fails
        // every object at the root test below, so any curve does there.
        let root_mbr = self.tree.root_mbr();
        let bounds = if root_mbr.is_empty() { Aabb::point(Vec3::ZERO) } else { root_mbr };
        let curve = HilbertSorter::with_bits(bounds, ORDER_BITS);
        exec.for_each_chunk(b.len(), &mut workers[..assign_workers], |range, ws| {
            ws.keys.extend(range.map(|j| (curve.key(b[j].aabb().center()) << 32) | j as u64));
        });
        order.clear();
        for ws in workers[..assign_workers].iter() {
            order.extend_from_slice(&ws.keys);
        }
        order.sort_unstable();

        // --- Assign: every B-object descends the SoA lanes, in order ----
        let tree = &self.tree;
        let order: &[u64] = order;
        exec.for_each_chunk(order.len(), &mut workers[..assign_workers], |range, ws| {
            assign_range(view, &root_mbr, b, &order[range], eps, ws);
        });

        // --- CSR buckets: count, prefix-sum, place -----------------------
        // `counts` is kept all-zero between joins (re-zeroed via `active`
        // below), so only touched nodes pay; `marks` makes first-touch
        // detection O(1) per item and the `active` list is sorted into
        // BFS id order so the join phase walks the arena sequentially.
        // Workers are read in chunk order and the placing pass is stable,
        // so a bucket's slots hold its objects in curve order at every
        // worker count.
        let n_nodes = view.node_count();
        if counts.len() < n_nodes {
            counts.resize(n_nodes, 0);
        }
        starts.resize(n_nodes + 1, 0);
        active.clear();
        marks.begin(n_nodes);
        let mut survivors = 0usize;
        for ws in workers[..assign_workers].iter() {
            survivors += ws.assigned.len();
            for &(node, _) in &ws.assigned {
                counts[node as usize] += 1;
                if marks.mark(node as usize) {
                    active.push(node);
                }
            }
        }
        active.sort_unstable();
        let mut acc = 0u32;
        starts[0] = 0;
        for n in 0..n_nodes {
            acc += counts[n];
            starts[n + 1] = acc;
        }
        items.resize(survivors, 0);
        cursor.clear();
        cursor.extend_from_slice(&starts[..n_nodes]);
        for ws in workers[..assign_workers].iter() {
            for &(node, j) in &ws.assigned {
                let pos = cursor[node as usize] as usize;
                cursor[node as usize] += 1;
                items[pos] = j;
            }
        }
        // --- Tasks: every active bucket, cut into runs of slots ----------
        for &n in active.iter() {
            counts[n as usize] = 0; // restore the all-zero invariant
            let (mut lo, end) = (starts[n as usize], starts[n as usize + 1]);
            while lo < end {
                let hi = end.min(lo + JOIN_TASK_SLOTS as u32);
                tasks.push(JoinTask { node: n, lo, hi });
                lo = hi;
            }
        }
        stats.assign_ms = timer.lap();

        // --- Join: tasks in order, hybrid strategy per leaf --------------
        // One worker runs the tasks inline and hands each pair on as it
        // is found. More pull tasks into pooled pair buffers, which this
        // thread delivers in task order while they run, with at most
        // `window` tasks started and not yet delivered. The join reuses the
        // assign phase's worker scratches: a task holds at least one
        // B-object, so there are never more join workers than assign
        // workers (and the executor asserts that loudly if the policy
        // ever changes).
        let items: &[u32] = items;
        let tasks_r: &[JoinTask] = tasks;
        let (join_workers, _) = exec.chunking(tasks.len());
        let mut deliver = |run: &[(u32, u32)]| {
            stats.results += run.len() as u64;
            sink(run);
        };
        if join_workers == 1 {
            let ws = &mut workers[0];
            for &task in tasks_r {
                let mut emit = |pair| deliver(std::slice::from_ref(&pair));
                join_task(view, tree, b, items, task, eps, sweep_min, ws, &mut emit);
            }
        } else {
            exec.for_each_task_in_order(
                tasks_r.len(),
                window,
                &mut workers[..assign_workers],
                pair_pool,
                |t, ws, buf| {
                    let started = Instant::now();
                    let mut emit = |pair| buf.push(pair);
                    join_task(view, tree, b, items, tasks_r[t], eps, sweep_min, ws, &mut emit);
                    ws.join_busy += started.elapsed();
                },
                &mut deliver,
            );
        }
        let mut busiest = Duration::ZERO;
        let mut busy = Duration::ZERO;
        for ws in workers[..assign_workers].iter() {
            stats.filter_comparisons += ws.filter;
            stats.refine_comparisons += ws.refine;
            stats.filtered_out += ws.filtered_out;
            report.merge_worker(ws);
            busiest = busiest.max(ws.join_busy);
            busy += ws.join_busy;
        }
        stats.join_ms = timer.lap();
        stats.probe_ms = stats.assign_ms + stats.join_ms;
        stats.join_tasks = tasks.len() as u64;
        stats.join_imbalance = if join_workers > 1 && !busy.is_zero() {
            busiest.as_secs_f64() * join_workers as f64 / busy.as_secs_f64()
        } else {
            1.0
        };
        // Memory: the frozen tree on A, B's curve order, the CSR bucket
        // arrays — one slot per surviving B object, no replication — the
        // task list, every worker's buffers (key chunk, assignments, one
        // task's box lanes, descent working set) and the pooled pair
        // buffers (at most `window`, each one task's).
        let worker_bytes: usize = workers.iter().map(WorkerScratch::bytes).sum();
        let pair_bytes: usize = pair_pool.iter().map(heap_bytes).sum();
        stats.aux_memory_bytes = self.tree.memory_bytes() as u64
            + (order.len() * 8 + items.len() * 4) as u64
            + ((counts.len() + starts.len() + cursor.len() + active.len()) * 4) as u64
            + std::mem::size_of_val(tasks.as_slice()) as u64
            + (worker_bytes + pair_bytes) as u64;
        timer.finish(&mut stats);
        stats
    }
}

/// Reusable transient state for [`TouchEngine::join_into`]: per-worker
/// scratches (descent stacks, one task's box lanes, sort buffers,
/// counters), B's visiting order, the CSR bucket arrays, epoch marks for
/// first-touch bucket detection, the pool of pair buffers the join
/// workers fill, and the assignment report. Create one (per thread pool)
/// and reuse it across joins; after the first join has grown every
/// buffer, subsequent single-threaded joins allocate nothing. What it
/// holds depends on A and B, not on how many pairs a join finds: a
/// one-thread join hands each pair on as it is found, and a parallel one
/// holds at most a few tasks' pairs at once.
#[derive(Debug, Default)]
pub struct JoinScratch {
    workers: Vec<WorkerScratch>,
    /// B in visiting order: `key << 32 | index`, sorted, `key` being the
    /// object's box centre on a Hilbert curve over A's root box.
    order: Vec<u64>,
    /// Per-SoA-node bucket sizes; all-zero between joins.
    counts: Vec<u32>,
    /// CSR prefix: node `n`'s bucket is `items[starts[n]..starts[n+1]]`.
    starts: Vec<u32>,
    /// Placement cursors (copy of `starts`, advanced during the place pass).
    cursor: Vec<u32>,
    /// Bucketed B indices, CSR order.
    items: Vec<u32>,
    /// SoA ids with non-empty buckets, sorted ascending (BFS order).
    active: Vec<u32>,
    /// First-touch marks over SoA nodes (O(1) reset between joins).
    marks: EpochMarks,
    /// The join phase's work list: every active bucket in `active` order,
    /// cut into runs of at most [`JOIN_TASK_SLOTS`] slots.
    tasks: Vec<JoinTask>,
    /// Empty pair buffers for the join workers: a task fills one, and it
    /// comes back here once its pairs are delivered.
    pair_pool: Vec<Vec<(u32, u32)>>,
    report: AssignmentReport,
}

/// CSR slots `lo..hi` of `node`'s bucket: what one worker joins at a time.
#[derive(Debug, Clone, Copy)]
struct JoinTask {
    node: u32,
    lo: u32,
    hi: u32,
}

impl JoinScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// The assignment-depth report of the most recent join.
    pub fn report(&self) -> &AssignmentReport {
        &self.report
    }

    /// B-objects in the largest task of the most recent join (at most
    /// [`JOIN_TASK_SLOTS`]; 0 if nothing survived the assignment).
    pub fn largest_task(&self) -> usize {
        self.tasks.iter().map(|t| (t.hi - t.lo) as usize).max().unwrap_or(0)
    }

    fn reset_report(&mut self) {
        self.report.filtered_out = 0;
        self.report.histogram.iter_mut().for_each(|c| *c = 0);
    }
}

/// Six structure-of-arrays `f64` lanes holding AABBs — the B-side mirror
/// of the frozen tree's entry lanes.
#[derive(Debug, Default)]
struct BoxLanes {
    lo_x: Vec<f64>,
    lo_y: Vec<f64>,
    lo_z: Vec<f64>,
    hi_x: Vec<f64>,
    hi_y: Vec<f64>,
    hi_z: Vec<f64>,
}

impl BoxLanes {
    fn resize(&mut self, n: usize) {
        self.lo_x.resize(n, 0.0);
        self.lo_y.resize(n, 0.0);
        self.lo_z.resize(n, 0.0);
        self.hi_x.resize(n, 0.0);
        self.hi_y.resize(n, 0.0);
        self.hi_z.resize(n, 0.0);
    }

    /// Bytes the six lanes have allocated.
    fn bytes(&self) -> usize {
        6 * heap_bytes(&self.lo_x)
    }

    #[inline]
    fn set(&mut self, i: usize, bb: &Aabb) {
        self.lo_x[i] = bb.lo.x;
        self.lo_y[i] = bb.lo.y;
        self.lo_z[i] = bb.lo.z;
        self.hi_x[i] = bb.hi.x;
        self.hi_y[i] = bb.hi.y;
        self.hi_z[i] = bb.hi.z;
    }

    #[inline]
    fn aabb(&self, i: usize) -> Aabb {
        Aabb::new(
            Vec3::new(self.lo_x[i], self.lo_y[i], self.lo_z[i]),
            Vec3::new(self.hi_x[i], self.hi_y[i], self.hi_z[i]),
        )
    }

    #[inline]
    fn lo_x(&self, i: usize) -> f64 {
        self.lo_x[i]
    }

    /// y/z-axis overlap of slot `i` against `q` (x handled by the sweep).
    #[inline]
    fn overlaps_yz(&self, i: usize, q: &Aabb) -> bool {
        self.lo_y[i] <= q.hi.y
            && q.lo.y <= self.hi_y[i]
            && self.lo_z[i] <= q.hi.z
            && q.lo.z <= self.hi_z[i]
    }
}

/// One worker's reusable state: assignment output, join descent stack,
/// bucket sort-order buffers and statistics counters.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// `key << 32 | index` for this worker's chunk of B, gathered into
    /// the scratch's `order`.
    keys: Vec<u64>,
    /// `(soa node, b index)` assignments produced by this worker's chunk.
    assigned: Vec<(u32, u32)>,
    /// Raw boxes of the B objects of the task being joined, in slot
    /// order. A leaf tests them raw against ε-inflated entries; an inner
    /// node inflates them by ε as it loads them, the operation a
    /// per-object descent applies, so no inflated copy is kept.
    lanes: BoxLanes,
    /// Radix-descent working set: CSR slot lists, one contiguous run per
    /// (node, sub-bucket) reached.
    slots: Vec<u32>,
    /// Radix-descent frontier: `(soa node, lo, hi)` ranges into `slots`.
    frontier: Vec<(u32, u32, u32)>,
    /// Inner node being split: every slot's lane masks over the node's
    /// children, kept between the counting and the placing pass.
    masks: Vec<u64>,
    /// Inner node being split: per child, first its count of slots, then
    /// the position in `slots` its next one is written to.
    child_at: Vec<u32>,
    /// A-entry lane indices sorted by lo_x (bucket sweep).
    sort_a: Vec<u32>,
    /// ε-inflated A boxes in `sort_a` order (bucket sweep).
    fa_cache: Vec<Aabb>,
    /// CSR slots sorted by lo_x (bucket sweep).
    sort_b: Vec<u32>,
    /// Time spent inside join tasks (parallel joins only).
    join_busy: Duration,
    filter: u64,
    refine: u64,
    filtered_out: u64,
    /// Assignment-depth histogram.
    hist: Vec<u64>,
}

/// Bytes `v` has allocated.
fn heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl WorkerScratch {
    /// Bytes this worker's buffers have allocated.
    fn bytes(&self) -> usize {
        heap_bytes(&self.keys)
            + heap_bytes(&self.assigned)
            + self.lanes.bytes()
            + heap_bytes(&self.slots)
            + heap_bytes(&self.frontier)
            + heap_bytes(&self.masks)
            + heap_bytes(&self.child_at)
            + heap_bytes(&self.sort_a)
            + heap_bytes(&self.fa_cache)
            + heap_bytes(&self.sort_b)
            + heap_bytes(&self.hist)
    }

    fn reset(&mut self) {
        self.keys.clear();
        self.assigned.clear();
        self.join_busy = Duration::ZERO;
        self.filter = 0;
        self.refine = 0;
        self.filtered_out = 0;
        self.hist.iter_mut().for_each(|c| *c = 0);
    }

    #[inline]
    fn record_depth(&mut self, depth: usize) {
        if self.hist.len() <= depth {
            self.hist.resize(depth + 1, 0);
        }
        self.hist[depth] += 1;
    }
}

/// Assignment descent for a run of B's visiting order (an entry's low 32
/// bits are the object's index), over the SoA lanes. The descent stops
/// early once a second intersecting child is seen — the object is
/// ambiguous at this node no matter how many more children match.
fn assign_range<T: JoinObject>(
    view: FrozenView<'_>,
    root_mbr: &Aabb,
    b: &[T],
    order: &[u64],
    eps: f64,
    ws: &mut WorkerScratch,
) {
    for &entry in order {
        let j = entry as u32;
        let fb = b[j as usize].aabb().inflate(eps);
        ws.filter += 1;
        if !root_mbr.intersects(&fb) {
            ws.filtered_out += 1;
            continue;
        }
        let mut node = view.root();
        let mut depth = 0usize;
        let assignment = loop {
            if view.is_leaf(node) {
                break Some(node);
            }
            let (s, e) = view.entries(node);
            let mut hits = 0u32;
            let mut only = 0u32;
            for i in s..e {
                ws.filter += 1;
                if view.entry_intersects(i, &fb) {
                    hits += 1;
                    if hits == 1 {
                        only = view.entry_ref(i);
                    } else {
                        break; // ambiguous: no need to count further
                    }
                }
            }
            match hits {
                0 => break None, // empty space: filtered out
                1 => {
                    node = only;
                    depth += 1;
                }
                _ => break Some(node),
            }
        };
        match assignment {
            None => ws.filtered_out += 1,
            Some(n) => {
                ws.record_depth(depth);
                ws.assigned.push((n, j));
            }
        }
    }
}

/// One task's slots, bundled for the join: slot `t` holds B-object
/// `items[t]` and its raw box in `lanes`.
struct BucketView<'s> {
    items: &'s [u32],
    lanes: &'s BoxLanes,
}

/// Join one task: a run of one bucket's slots (of the CSR `items`)
/// descends the assignment node's subtree as a whole ("radix" descent).
/// The task first loads its objects' raw boxes into the worker's lanes,
/// in slot order, so the scans below read them from one small buffer and
/// the scratch keeps no box of B between tasks. Each tree node is
/// visited once per task instead of once per object. At an inner node
/// every slot's ε-inflated box is loaded once and tested against all the
/// node's child MBRs in one lane mask (the exact (b, child) decisions a
/// per-object descent makes); the masks are kept, the children's shares
/// counted, and the slots then placed child by child, in slot order
/// within a child. Sub-buckets reaching a leaf join against the leaf's
/// entry lanes in [`join_leaf`], which hands every qualifying pair to
/// `emit`.
#[allow(clippy::too_many_arguments)]
fn join_task<T: JoinObject>(
    view: FrozenView<'_>,
    tree: &RTree<Indexed<T>>,
    b: &[T],
    items: &[u32],
    task: JoinTask,
    eps: f64,
    sweep_min: usize,
    ws: &mut WorkerScratch,
    emit: &mut impl FnMut((u32, u32)),
) {
    let items = &items[task.lo as usize..task.hi as usize];
    // Taken out for the task, so that the scans can read it beside `ws`.
    let mut lanes = std::mem::take(&mut ws.lanes);
    lanes.resize(items.len());
    for (t, &j) in items.iter().enumerate() {
        lanes.set(t, &b[j as usize].aabb());
    }
    let buckets = &BucketView { items, lanes: &lanes };
    ws.slots.clear();
    ws.slots.extend(0..items.len() as u32);
    ws.frontier.clear();
    ws.frontier.push((task.node, 0, items.len() as u32));
    while let Some((n, lo, hi)) = ws.frontier.pop() {
        let sub = lo as usize..hi as usize;
        if view.is_leaf(n) {
            join_leaf(view, tree, b, buckets, n, sub, eps, sweep_min, ws, emit);
            continue;
        }
        let (s, e) = view.entries(n);
        ws.filter += (sub.len() * (e - s)) as u64;
        ws.masks.clear();
        ws.child_at.clear();
        ws.child_at.resize(e - s, 0);
        for k in sub.clone() {
            let fb = buckets.lanes.aabb(ws.slots[k] as usize).inflate(eps);
            for (c, mask) in view.entry_masks(s, e, &fb, 0.0).enumerate() {
                ws.masks.push(mask);
                for i in set_bits(mask) {
                    ws.child_at[64 * c + i] += 1;
                }
            }
        }
        // Counts become write positions; the children with a share join
        // the frontier in entry order.
        let mut at = ws.slots.len() as u32;
        for (i, child_at) in ws.child_at.iter_mut().enumerate() {
            let count = std::mem::replace(child_at, at);
            if count > 0 {
                ws.frontier.push((view.entry_ref(s + i), at, at + count));
            }
            at += count;
        }
        ws.slots.resize(at as usize, 0);
        let chunks = (e - s).div_ceil(64);
        for (k, masks) in sub.zip(ws.masks.chunks_exact(chunks)) {
            let t = ws.slots[k];
            for (c, &mask) in masks.iter().enumerate() {
                for i in set_bits(mask) {
                    let at = &mut ws.child_at[64 * c + i];
                    ws.slots[*at as usize] = t;
                    *at += 1;
                }
            }
        }
    }
    ws.lanes = lanes;
}

/// The positions of `mask`'s set bits, lowest first.
#[inline]
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Join the sub-bucket `ws.slots[range]` against leaf `n`'s entries: a
/// bucket-local sort+sweep at or above `sweep_min` slots, below it one
/// lane mask per slot over the leaf's ε-inflated entries (the inflation
/// is on the A side, matching a per-object leaf test bit for bit), whose
/// set bits go to `refine`.
#[allow(clippy::too_many_arguments)]
fn join_leaf<T: JoinObject>(
    view: FrozenView<'_>,
    tree: &RTree<Indexed<T>>,
    b: &[T],
    buckets: &BucketView<'_>,
    n: u32,
    range: Range<usize>,
    eps: f64,
    sweep_min: usize,
    ws: &mut WorkerScratch,
    emit: &mut impl FnMut((u32, u32)),
) {
    let (es, ee) = view.entries(n);
    let leaf = tree.leaf_objects(view.orig(n));
    if range.len() >= sweep_min && ee - es >= 2 {
        sweep_leaf(view, leaf, b, buckets, range, es..ee, eps, ws, emit);
        return;
    }
    ws.filter += (range.len() * (ee - es)) as u64;
    for k in range {
        let t = ws.slots[k] as usize;
        let (raw, j) = (buckets.lanes.aabb(t), buckets.items[t]);
        for (c, mask) in view.entry_masks(es, ee, &raw, eps).enumerate() {
            ws.refine += u64::from(mask.count_ones());
            for i in set_bits(mask) {
                let x = &leaf[view.entry_ref(es + 64 * c + i) as usize];
                if x.obj.refine(&b[j as usize], eps) {
                    emit((x.idx, j));
                }
            }
        }
    }
}

/// Bucket-local sort+sweep along x between a leaf's A entries (ε-inflated
/// side) and a sub-bucket's raw B boxes. Both sides are sorted by their
/// x lower bound; the two-pointer merge tests each x-overlapping pair
/// exactly once, with only the y/z axes left to check. Pair decisions are
/// bit-identical to the nested scan: the x comparisons are exactly
/// `fa.lo.x <= b.hi.x && b.lo.x <= fa.hi.x` with `fa` the A-side
/// inflated box.
#[allow(clippy::too_many_arguments)]
fn sweep_leaf<T: JoinObject>(
    view: FrozenView<'_>,
    leaf: &[Indexed<T>],
    b: &[T],
    buckets: &BucketView<'_>,
    range: Range<usize>,
    entries: Range<usize>,
    eps: f64,
    ws: &mut WorkerScratch,
    emit: &mut impl FnMut((u32, u32)),
) {
    let lanes = buckets.lanes;
    ws.sort_a.clear();
    ws.sort_a.extend(entries.clone().map(|i| i as u32));
    // Sorting by the raw lane lo_x sorts the inflated keys too:
    // subtracting the same ε is monotone (rounding included).
    ws.sort_a.sort_unstable_by(|&p, &q| {
        view.entry_lo_x(p as usize).total_cmp(&view.entry_lo_x(q as usize))
    });
    // ε-inflated A boxes in sweep order, computed once per entry: both
    // merge branches read them per comparison.
    ws.fa_cache.clear();
    ws.fa_cache.extend(ws.sort_a.iter().map(|&i| view.entry_aabb(i as usize).inflate(eps)));
    ws.sort_b.clear();
    for k in range {
        ws.sort_b.push(ws.slots[k]);
    }
    ws.sort_b.sort_unstable_by(|&p, &q| lanes.lo_x(p as usize).total_cmp(&lanes.lo_x(q as usize)));

    let (na, nb) = (ws.sort_a.len(), ws.sort_b.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < na && ib < nb {
        let ea = ws.sort_a[ia] as usize;
        let fa = ws.fa_cache[ia];
        let tb = ws.sort_b[ib] as usize;
        if fa.lo.x <= lanes.lo_x(tb) {
            // A-entry starts first: pair it with every bucket box whose
            // x interval starts inside [fa.lo.x, fa.hi.x].
            let x = &leaf[view.entry_ref(ea) as usize];
            for k in ib..nb {
                let t = ws.sort_b[k] as usize;
                if lanes.lo_x(t) > fa.hi.x {
                    break;
                }
                ws.filter += 1;
                if lanes.overlaps_yz(t, &fa) {
                    ws.refine += 1;
                    let j = buckets.items[t];
                    if x.obj.refine(&b[j as usize], eps) {
                        emit((x.idx, j));
                    }
                }
            }
            ia += 1;
        } else {
            let raw = lanes.aabb(tb);
            let j = buckets.items[tb];
            for k in ia..na {
                let fa2 = ws.fa_cache[k];
                if fa2.lo.x > raw.hi.x {
                    break;
                }
                ws.filter += 1;
                if fa2.lo.y <= raw.hi.y
                    && raw.lo.y <= fa2.hi.y
                    && fa2.lo.z <= raw.hi.z
                    && raw.lo.z <= fa2.hi.z
                {
                    ws.refine += 1;
                    let x = &leaf[view.entry_ref(ws.sort_a[k] as usize) as usize];
                    if x.obj.refine(&b[j as usize], eps) {
                        emit((x.idx, j));
                    }
                }
            }
            ib += 1;
        }
    }
}

/// Where B-objects were assigned in the tree of A — the paper's
/// data-oriented partitioning at work: most objects land deep (tight
/// subtrees), ambiguous ones stick near the root, hopeless ones are
/// filtered before any leaf comparison.
#[derive(Debug, Default, Clone)]
pub struct AssignmentReport {
    /// `histogram[d]` = number of B-objects assigned at depth `d`
    /// (0 = root).
    pub histogram: Vec<u64>,
    /// B-objects discarded by empty-space filtering.
    pub filtered_out: u64,
}

impl AssignmentReport {
    /// Mean assignment depth over non-filtered objects.
    pub fn mean_depth(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.histogram.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
        weighted as f64 / total as f64
    }

    fn merge_worker(&mut self, ws: &WorkerScratch) {
        if self.histogram.len() < ws.hist.len() {
            self.histogram.resize(ws.hist.len(), 0);
        }
        for (d, c) in ws.hist.iter().enumerate() {
            self.histogram[d] += c;
        }
        self.filtered_out += ws.filtered_out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NestedLoopJoin, PbsmJoin, PlaneSweepJoin, S3Join};

    fn grid_boxes(n: usize, offset: f64) -> Vec<Aabb> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 1.5 + offset;
                let y = ((i / 10) % 10) as f64 * 1.5;
                let z = (i / 100) as f64 * 1.5;
                Aabb::cube(Vec3::new(x, y, z), 0.5)
            })
            .collect()
    }

    #[test]
    fn matches_nested_loop() {
        let a = grid_boxes(350, 0.0);
        let b = grid_boxes(350, 0.8);
        for eps in [0.0, 0.4, 1.5] {
            let t = TouchJoin::default().join(&a, &b, eps);
            let n = NestedLoopJoin.join(&a, &b, eps);
            assert_eq!(t.sorted_pairs(), n.sorted_pairs(), "eps={eps}");
            assert!(t.is_duplicate_free());
        }
        // Nodes of both kinds wider than one 64-entry lane mask: a root of
        // 80 leaves of 100, every leaf joined through its masks.
        let (a, b) = (grid_boxes(8000, 0.0), grid_boxes(8000, 0.8));
        let wide = TouchJoin::default().with_fanout(100);
        let t = wide.join(&a, &b, 0.4);
        assert_eq!(t.sorted_pairs(), NestedLoopJoin.join(&a, &b, 0.4).sorted_pairs());
    }

    #[test]
    fn all_five_algorithms_agree() {
        let a = grid_boxes(250, 0.0);
        let b = grid_boxes(250, 0.7);
        let eps = 0.25;
        let reference = NestedLoopJoin.join(&a, &b, eps).sorted_pairs();
        assert_eq!(TouchJoin::default().join(&a, &b, eps).sorted_pairs(), reference);
        assert_eq!(PlaneSweepJoin.join(&a, &b, eps).sorted_pairs(), reference);
        assert_eq!(PbsmJoin::default().join(&a, &b, eps).sorted_pairs(), reference);
        assert_eq!(S3Join::default().join(&a, &b, eps).sorted_pairs(), reference);
    }

    /// One join on exactly `workers` workers, however few cores the
    /// machine has (`join_into` caps them at the hardware).
    fn join_on_workers(
        engine: &TouchEngine<Aabb>,
        b: &[Aabb],
        eps: f64,
        workers: usize,
        scratch: &mut JoinScratch,
    ) -> (Vec<(u32, u32)>, JoinStats) {
        let mut pairs = Vec::new();
        let exec = Executor::io_bound(workers);
        let sweep_min = TouchJoin::default().sweep_min;
        let stats = engine
            .join_runs_on(&exec, b, eps, sweep_min, scratch, |run| pairs.extend_from_slice(run));
        (pairs, stats)
    }

    #[test]
    fn parallel_equals_sequential() {
        let a = grid_boxes(400, 0.0);
        let b = grid_boxes(400, 0.6);
        let seq = TouchJoin::default().join(&a, &b, 0.3);
        assert_eq!(seq.stats.join_imbalance, 1.0);
        let engine = TouchEngine::build(&a, TouchJoin::default().fanout);
        let (pairs, stats) = join_on_workers(&engine, &b, 0.3, 4, &mut JoinScratch::new());
        // The same pairs in the same order, from the same task list.
        assert_eq!(pairs, seq.pairs);
        assert_eq!(stats.results, seq.stats.results);
        assert_eq!(stats.join_tasks, seq.stats.join_tasks);
        assert!(stats.join_tasks > 1 && stats.join_imbalance >= 1.0);
        // Comparison counts are identical regardless of threading.
        assert_eq!(seq.stats.filter_comparisons, stats.filter_comparisons);
        assert_eq!(seq.stats.refine_comparisons, stats.refine_comparisons);
    }

    #[test]
    fn hybrid_sweep_agrees_with_nested_scan() {
        // Dense overlapping clouds produce big leaf buckets; force the
        // sweep on (threshold 2) and compare with the default masks.
        let a = grid_boxes(600, 0.0);
        let b = grid_boxes(600, 0.4);
        for eps in [0.0, 0.7, 2.5] {
            let swept = TouchJoin::default().with_sweep_min(2).join(&a, &b, eps);
            let nested = TouchJoin::default().join(&a, &b, eps);
            assert_eq!(swept.sorted_pairs(), nested.sorted_pairs(), "eps={eps}");
            assert_eq!(swept.stats.results, nested.stats.results);
            // The sweep exists to do *fewer* comparisons on big buckets.
            assert!(
                swept.stats.total_comparisons() <= nested.stats.total_comparisons(),
                "sweep {} vs nested {}",
                swept.stats.total_comparisons(),
                nested.stats.total_comparisons()
            );
        }
    }

    /// What [`JoinStats::aux_memory_bytes`] must read after a join of a
    /// B side of `b_len` objects, from the buffers' real sizes.
    fn held_bytes(engine: &TouchEngine<Aabb>, s: &JoinScratch, b_len: usize) -> u64 {
        let workers: usize = s
            .workers
            .iter()
            .map(|w| {
                let l = &w.lanes;
                let lanes = [&l.lo_x, &l.lo_y, &l.lo_z, &l.hi_x, &l.hi_y, &l.hi_z];
                8 * (w.keys.capacity() + w.assigned.capacity())
                    + 8 * lanes.iter().map(|lane| lane.capacity()).sum::<usize>()
                    + 4 * (w.slots.capacity() + w.child_at.capacity())
                    + 12 * w.frontier.capacity()
                    + 8 * (w.masks.capacity() + w.hist.capacity())
                    + 4 * (w.sort_a.capacity() + w.sort_b.capacity())
                    + 48 * w.fa_cache.capacity()
            })
            .sum();
        let csr = s.items.len() + s.counts.len() + s.starts.len() + s.cursor.len();
        let pairs: usize = s.pair_pool.iter().map(|p| 8 * p.capacity()).sum();
        (engine.tree.memory_bytes()
            + b_len * 8
            + (csr + s.active.len()) * 4
            + std::mem::size_of_val(s.tasks.as_slice())
            + workers
            + pairs) as u64
    }

    #[test]
    fn engine_scratch_reuse_is_stable() {
        // One engine, one scratch, many joins (varying B and ε): every
        // run must reproduce the from-scratch result exactly.
        let a = grid_boxes(500, 0.0);
        let engine = TouchEngine::build(&a, 16);
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        for round in 0..4 {
            let b = grid_boxes(300 + round * 50, 0.3 + round as f64 * 0.2);
            let eps = round as f64 * 0.4;
            let sweep_min = TouchJoin::default().sweep_min;
            let stats = engine.join_into(&b, eps, 1, sweep_min, &mut scratch, &mut out);
            let reference = TouchJoin::default().join(&a, &b, eps);
            let mut got = out.clone();
            got.sort_unstable();
            assert_eq!(got, reference.sorted_pairs(), "round {round}");
            assert_eq!(stats.results, reference.stats.results);
            let assigned: u64 = scratch.report().histogram.iter().sum();
            assert_eq!(assigned + scratch.report().filtered_out, b.len() as u64);
            // The memory figure is the buffers' real sizes: per B object
            // 8 bytes of visiting order, per survivor one slot, and the
            // raw boxes of one task at a time in six f64 lanes (48 B a
            // slot; an inner node inflates a box as it loads it), not one
            // box per survivor. One thread hands each pair on as it is
            // found, so no pair buffer comes out of the pool.
            let s = &scratch;
            assert_eq!(s.order.len(), b.len());
            assert_eq!(s.items.len(), assigned as usize);
            let largest = 48 * scratch.largest_task();
            let lanes = s.workers[0].lanes.bytes();
            assert!(largest <= lanes && lanes <= 2 * largest, "{lanes} B of lanes");
            assert!(s.workers.iter().any(|w| w.masks.capacity() > 0), "an inner node was split");
            assert!(s.pair_pool.is_empty());
            assert_eq!(stats.aux_memory_bytes, held_bytes(&engine, s, b.len()), "round {round}");
        }
        // A parallel join counts the pair buffers it pooled as well.
        let b = grid_boxes(4000, 0.6);
        let (_, stats) = join_on_workers(&engine, &b, 0.9, 2, &mut scratch);
        assert!(stats.join_tasks > 1);
        let pooled = scratch.pair_pool.len();
        assert!(pooled > 0 && pooled <= JOIN_WINDOW, "{pooled} pair buffers");
        assert!(scratch.pair_pool.iter().all(|p| p.is_empty()));
        assert_eq!(stats.aux_memory_bytes, held_bytes(&engine, &scratch, b.len()));
    }

    #[test]
    fn join_each_reuses_one_scratch_across_engines_and_epsilons() {
        // Big, small, big again: the scratch's arrays shrink and regrow
        // under it, and its all-zero bucket counts outlive a smaller tree.
        let big = (grid_boxes(4000, 0.0), grid_boxes(3500, 0.6));
        let small = (grid_boxes(150, 0.0), grid_boxes(120, 0.4));
        for join in [TouchJoin::default(), TouchJoin::parallel(2)] {
            let mut scratch = JoinScratch::new();
            for (a, b) in [&big, &small, &big] {
                for eps in [0.3, 1.2] {
                    let mut pairs = Vec::new();
                    let stats = join.join_each(a, b, eps, &mut scratch, |i, j| pairs.push((i, j)));
                    let fresh = join.join(a, b, eps);
                    let what = format!("|A|={} eps={eps}", a.len());
                    assert_eq!(pairs, fresh.pairs, "{what}");
                    let counters = |s: &JoinStats| {
                        let c = (s.filter_comparisons, s.refine_comparisons, s.results);
                        (c, s.filtered_out, s.join_tasks)
                    };
                    assert_eq!(counters(&stats), counters(&fresh.stats), "{what}");
                }
            }
        }
    }

    #[test]
    fn non_finite_boxes_join_nothing_and_stop_nothing() {
        // `NeuroDb`'s builder rejects such geometry; the join's direct
        // callers are not checked, and STR used to panic sorting them.
        let nan = Aabb::point(Vec3::splat(f64::NAN));
        let far = |x: f64| Aabb::point(Vec3::new(x, 0.0, f64::NEG_INFINITY));
        let (mut a, mut b) = (grid_boxes(300, 0.0), grid_boxes(300, 0.6));
        let want = NestedLoopJoin.join(&a, &b, 0.3).sorted_pairs();
        // Appended, so every finite object keeps its index.
        a.extend([nan, far(f64::INFINITY)]);
        b.extend([far(f64::NEG_INFINITY), nan]);
        for join in [TouchJoin::default(), TouchJoin::default().with_sweep_min(2)] {
            assert_eq!(join.join(&a, &b, 0.3).sorted_pairs(), want);
            // An A side without a finite box has an empty or non-finite
            // root box, and B is still keyed on a curve over it.
            for bad in [vec![nan], vec![far(f64::INFINITY)]] {
                let want = NestedLoopJoin.join(&bad, &b, 0.3).sorted_pairs();
                assert_eq!(join.join(&bad, &b, 0.3).sorted_pairs(), want);
            }
        }
    }

    #[test]
    fn engine_threads_agree_with_sequential() {
        let a = grid_boxes(500, 0.0);
        let b = grid_boxes(450, 0.5);
        let engine = TouchEngine::build(&a, 16);
        let mut scratch = JoinScratch::new();
        let mut out = Vec::new();
        let seq =
            engine.join_into(&b, 0.6, 1, TouchJoin::default().sweep_min, &mut scratch, &mut out);
        for workers in [2, 3, 8] {
            let (got, stats) = join_on_workers(&engine, &b, 0.6, workers, &mut scratch);
            assert_eq!(got, out, "workers={workers}");
            assert_eq!(stats.filter_comparisons, seq.filter_comparisons);
            assert_eq!(stats.refine_comparisons, seq.refine_comparisons);
        }
    }

    /// Rods across the whole of `grid_boxes(1000, _)` along x, ambiguous
    /// at the root so that the root bucket is cut into several tasks, and
    /// small boxes among them that land deeper.
    fn rods_and_boxes() -> Vec<Aabb> {
        let coord = |i: usize, p: usize| (i * p % 1500) as f64 / 100.0;
        let mut b = Vec::new();
        for i in 0..3 * JOIN_TASK_SLOTS {
            let (y, z) = (coord(i, 7919), coord(i, 104_729));
            b.push(Aabb::new(Vec3::new(-1.0, y, z), Vec3::new(16.0, y + 0.1, z + 0.1)));
            if i % 2 == 0 {
                b.push(Aabb::cube(Vec3::new(coord(i, 6007), y, z), 0.3));
            }
        }
        b
    }

    #[test]
    fn a_window_smaller_than_the_task_list_keeps_the_pair_sequence() {
        // A sink that stalls on every third run (a task's pairs, with
        // more than one worker) holds the window shut while later tasks
        // end first; pairs and counters must be the one-thread join's at
        // every worker count and window.
        let (a, b) = (grid_boxes(1000, 0.0), rods_and_boxes());
        let engine = TouchEngine::build(&a, 16);
        let (want, seq) = join_on_workers(&engine, &b, 0.3, 1, &mut JoinScratch::new());
        assert!(seq.join_tasks > 3, "{} tasks", seq.join_tasks);
        let counters = |s: &JoinStats| {
            let c = (s.filter_comparisons, s.refine_comparisons, s.results);
            (c, s.filtered_out, s.join_tasks)
        };
        for workers in [1, 2, 3, 8] {
            for window in [1, 2, 3] {
                let (mut pairs, mut runs) = (Vec::new(), 0usize);
                let mut scratch = JoinScratch::new();
                let exec = Executor::io_bound(workers);
                let sweep_min = TouchJoin::default().sweep_min;
                let stats =
                    engine.join_windowed(&exec, &b, 0.3, sweep_min, window, &mut scratch, |run| {
                        runs += 1;
                        if workers > 1 && runs % 3 == 1 {
                            std::thread::sleep(Duration::from_millis(3));
                        }
                        pairs.extend_from_slice(run);
                    });
                let what = format!("workers={workers} window={window}");
                assert_eq!(pairs, want, "{what}");
                assert_eq!(counters(&stats), counters(&seq), "{what}");
                assert!(scratch.pair_pool.len() <= window, "{what}");
            }
        }
    }

    /// A box whose `refine` panics when it meets a B object marked `fails`.
    #[derive(Debug, Clone)]
    struct Fuse {
        bb: Aabb,
        fails: bool,
    }

    impl JoinObject for Fuse {
        fn aabb(&self) -> Aabb {
            self.bb
        }

        fn refine(&self, other: &Self, eps: f64) -> bool {
            assert!(!other.fails, "refine fails");
            self.bb.refine(&other.bb, eps)
        }
    }

    #[test]
    fn a_panic_in_a_task_or_in_the_sink_returns_at_every_worker_count() {
        // Neither the caller nor a worker may be left waiting for the
        // other side: a hang here is the failure.
        let fuse = |bb: &Aabb| Fuse { bb: *bb, fails: false };
        let a: Vec<Fuse> = grid_boxes(1000, 0.0).iter().map(fuse).collect();
        let b: Vec<Fuse> = rods_and_boxes().iter().map(fuse).collect();
        let mut bad = b.clone();
        for x in bad.iter_mut().skip(b.len() / 2).step_by(997) {
            x.fails = true;
        }
        let engine = TouchEngine::build(&a, 16);
        let sweep_min = TouchJoin::default().sweep_min;
        for workers in [2, 8] {
            let exec = Executor::io_bound(workers);
            let mut runs = 0usize;
            let sink_fails = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.join_runs_on(&exec, &b, 0.3, sweep_min, &mut JoinScratch::new(), |_| {
                    runs += 1;
                    assert!(runs < 3, "the sink gives up on its third run");
                })
            }));
            assert!(sink_fails.is_err(), "workers={workers}");
            let task_fails = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.join_runs_on(&exec, &bad, 0.3, sweep_min, &mut JoinScratch::new(), |_| {})
            }));
            assert!(task_fails.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn buckets_hold_b_in_curve_order() {
        // Rods across the whole grid along x are ambiguous at the root, so
        // the root bucket is cut into several tasks; the small boxes among
        // them land deeper. Every bucket must list its objects in
        // `(key, index)` order, the same at every worker count.
        let a = grid_boxes(1000, 0.0);
        let b = rods_and_boxes();
        let engine = TouchEngine::build(&a, 16);
        let mut scratch = JoinScratch::new();
        let (mut pairs, stats) = join_on_workers(&engine, &b, 0.3, 1, &mut scratch);
        assert!(scratch.report().histogram[0] as usize > 2 * JOIN_TASK_SLOTS);
        assert!(stats.join_tasks > 3);
        pairs.sort_unstable();
        assert_eq!(pairs, NestedLoopJoin.join(&a, &b, 0.3).sorted_pairs());

        let curve = HilbertSorter::with_bits(engine.tree.root_mbr(), ORDER_BITS);
        let s = &scratch;
        for &n in &s.active {
            let bucket = &s.items[s.starts[n as usize] as usize..s.starts[n as usize + 1] as usize];
            let keyed: Vec<(u64, u32)> =
                bucket.iter().map(|&j| (curve.key(b[j as usize].center()), j)).collect();
            assert!(keyed.windows(2).all(|w| w[0] < w[1]), "bucket {n} is out of curve order");
        }
        let items = scratch.items.clone();
        join_on_workers(&engine, &b, 0.3, 3, &mut scratch);
        assert_eq!(scratch.items, items, "the buckets at 3 workers");
    }

    #[test]
    fn empty_space_filtering_kicks_in() {
        // B objects far from any A object must be filtered without any
        // leaf-level comparisons.
        let a = grid_boxes(200, 0.0);
        let b: Vec<Aabb> =
            (0..100).map(|i| Aabb::cube(Vec3::new(10_000.0 + i as f64, 0.0, 0.0), 0.5)).collect();
        let t = TouchJoin::default().join(&a, &b, 0.5);
        assert!(t.pairs.is_empty());
        assert_eq!(t.stats.filtered_out, 100);
        assert_eq!(t.stats.refine_comparisons, 0);
    }

    #[test]
    fn fewer_comparisons_than_nested_loop() {
        let a = grid_boxes(800, 0.0);
        let b = grid_boxes(800, 0.8);
        let t = TouchJoin::default().join(&a, &b, 0.2);
        let n = NestedLoopJoin.join(&a, &b, 0.2);
        assert!(
            t.stats.total_comparisons() * 5 < n.stats.total_comparisons(),
            "touch {} vs nested {}",
            t.stats.total_comparisons(),
            n.stats.total_comparisons()
        );
    }

    #[test]
    fn no_replication_memory_footprint() {
        let a = grid_boxes(600, 0.0);
        let b = grid_boxes(600, 0.5);
        let t = TouchJoin::default().join(&a, &b, 1.0);
        let p = PbsmJoin { objects_per_cell: 4, max_cells_per_axis: 64 }.join(&a, &b, 1.0);
        assert_eq!(t.sorted_pairs(), p.sorted_pairs());
        // TOUCH's auxiliary memory must not explode with ε the way
        // replication does; this dataset at ε=1 replicates heavily.
        assert!(t.stats.filtered_out < 600);
    }

    #[test]
    fn empty_inputs() {
        let e: Vec<Aabb> = vec![];
        let one = vec![Aabb::cube(Vec3::ZERO, 1.0)];
        assert!(TouchJoin::default().join(&e, &one, 1.0).pairs.is_empty());
        assert!(TouchJoin::default().join(&one, &e, 1.0).pairs.is_empty());
        let engine = TouchEngine::build(&e, 16);
        let mut out = vec![(1u32, 1u32)];
        let sweep_min = TouchJoin::default().sweep_min;
        let stats = engine.join_into(&one, 1.0, 2, sweep_min, &mut JoinScratch::new(), &mut out);
        assert!(out.is_empty(), "join_into clears the output buffer");
        assert_eq!(stats.results, 0);
    }

    #[test]
    fn assignment_report_accounts_for_every_b_object() {
        let a = grid_boxes(500, 0.0);
        let b = grid_boxes(500, 0.8);
        let (r, report) = TouchJoin::default().join_with_report(&a, &b, 0.3);
        let assigned: u64 = report.histogram.iter().sum();
        assert_eq!(assigned + report.filtered_out, b.len() as u64);
        assert_eq!(report.filtered_out, r.stats.filtered_out);
        assert!(report.mean_depth() >= 0.0);
        // Small boxes on a grid descend below the root on average.
        assert!(report.mean_depth() > 0.5, "mean depth {}", report.mean_depth());
    }

    #[test]
    fn big_probes_assign_near_root() {
        // A B-object overlapping everything is ambiguous at the root.
        let a = grid_boxes(500, 0.0);
        let b = vec![Aabb::cube(Vec3::new(7.0, 7.0, 3.0), 100.0)];
        let (_, report) = TouchJoin::default().join_with_report(&a, &b, 0.0);
        assert_eq!(report.histogram.first().copied().unwrap_or(0), 1, "assigned at depth 0");
    }

    #[test]
    fn phase_times_partition_the_probe() {
        let a = grid_boxes(400, 0.0);
        let b = grid_boxes(400, 0.6);
        let r = TouchJoin::default().join(&a, &b, 0.5);
        assert!(r.stats.assign_ms >= 0.0 && r.stats.join_ms >= 0.0);
        assert!((r.stats.probe_ms - (r.stats.assign_ms + r.stats.join_ms)).abs() < 1e-9);
        assert!(r.stats.total_ms >= r.stats.probe_ms);
    }
}
