//! Scoped-thread data parallelism for offline workloads.
//!
//! Several subsystems fan independent work units out over a fixed number
//! of worker threads, and [`Executor`] is the one place where the
//! `threads` knob is interpreted (clamped to at least 1, never more
//! workers than work units). It offers two ways to hand out the work:
//!
//! * **Static chunks** ([`map_chunks`](Executor::map_chunks),
//!   [`for_each_chunk`](Executor::for_each_chunk)): `0..n` is split into
//!   one contiguous chunk per worker and results come back in chunk
//!   order. Right when every index costs about the same — the TOUCH
//!   assignment descent over B, one backend index per shard.
//! * **Pulled tasks** ([`for_each_task`](Executor::for_each_task)):
//!   workers take task indices from one shared counter until none are
//!   left. Right when costs are skewed — the STR packer's slabs —
//!   because a worker that draws cheap tasks simply draws more of them.
//!   Which worker ran which task is not deterministic.
//! * **Pulled tasks, delivered in order**
//!   ([`for_each_task_in_order`](Executor::for_each_task_in_order)):
//!   the same pulling, but every task writes its output into a buffer
//!   the calling thread hands on in task order while the workers run. A
//!   worker starts a task only within a window of the oldest one not yet
//!   delivered, so what is held at once is bounded by the window, not by
//!   the output: the TOUCH join phase, where one bucket can hold three
//!   quarters of the data and the pairs must come out in task order.
//!
//! `std::thread::scope` keeps the API dependency-free and lets workers
//! borrow from the caller's stack; a worker's panic is re-raised on the
//! calling thread once every worker has stopped.
//!
//! ```
//! use neurospatial_geom::Executor;
//!
//! let data = [1u64, 2, 3, 4, 5, 6, 7];
//! let partial_sums = Executor::new(3).map_chunks(data.len(), |range| {
//!     data[range].iter().sum::<u64>()
//! });
//! assert_eq!(partial_sums.iter().sum::<u64>(), 28);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A fixed-width scoped-thread worker pool over index chunks or pulled
/// tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor { threads: 1 }
    }
}

impl Executor {
    /// An executor with `threads` workers; 0 is clamped to 1
    /// (sequential), and requests beyond the machine's available
    /// parallelism are capped to it — the workloads this executor runs
    /// are CPU-bound, so oversubscribing cores only adds scheduler
    /// overhead. The hardware probe is cached process-wide:
    /// `available_parallelism` reads procfs/cgroup state (and
    /// allocates), which would otherwise put syscalls and heap traffic
    /// on every allocation-free join/query path that constructs an
    /// executor.
    pub fn new(threads: usize) -> Self {
        static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let hardware = *HARDWARE.get_or_init(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(usize::MAX)
        });
        Executor { threads: threads.max(1).min(hardware) }
    }

    /// An executor with exactly `threads` workers (0 clamped to 1),
    /// deliberately *not* capped to available parallelism. For
    /// I/O-blocked workloads — connection pools, open-loop load
    /// generators — the workers spend most of their time parked in
    /// syscalls, so oversubscribing cores is the point: a single-core
    /// machine can still drive N concurrent connections.
    pub fn io_bound(threads: usize) -> Self {
        Executor { threads: threads.max(1) }
    }

    /// The effective worker count (>= 1, <= available parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How `n` items split into chunks: `(workers, chunk_len)` with
    /// `workers <= threads`, `workers <= n`, and
    /// `chunk_len * workers >= n`. `(0, 0)` when `n == 0`.
    pub fn chunking(&self, n: usize) -> (usize, usize) {
        if n == 0 {
            return (0, 0);
        }
        let workers = self.threads.min(n);
        (workers, n.div_ceil(workers))
    }

    /// Split `0..n` into at most [`threads`](Self::threads) contiguous
    /// chunks, run `f` on each chunk (on scoped worker threads when more
    /// than one chunk exists), and return the per-chunk results in chunk
    /// order. Sequential executors and single-chunk workloads run `f`
    /// inline with zero spawn overhead.
    pub fn map_chunks<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let (workers, chunk) = self.chunking(n);
        if workers == 0 {
            return Vec::new();
        }
        if workers == 1 {
            return vec![f(0..n)];
        }
        let f = &f;
        let mut out = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for t in 0..workers {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || f(lo..hi)));
            }
            for h in handles {
                out.push(h.join().expect("parallel worker panicked"));
            }
        });
        out
    }

    /// Like [`map_chunks`](Self::map_chunks), but hands chunk `t` exclusive
    /// mutable access to `states[t]` — the pattern behind allocation-free
    /// fan-out: each worker accumulates into its own reusable scratch
    /// (descent stacks, pair buffers, counters) and the caller merges the
    /// states afterwards in chunk order, which keeps the merge
    /// deterministic. Nothing is returned and, on the sequential path
    /// (one chunk), nothing is allocated — `f` runs inline on
    /// `states[0]`, so a steady-state caller with warm buffers performs
    /// zero heap allocations.
    ///
    /// `states` must hold at least [`chunking`](Self::chunking)`(n).0`
    /// entries; chunk boundaries are identical to `map_chunks`.
    ///
    /// # Panics
    /// If `states` is shorter than the number of chunks.
    pub fn for_each_chunk<S, F>(&self, n: usize, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(Range<usize>, &mut S) + Sync,
    {
        let (workers, chunk) = self.chunking(n);
        if workers == 0 {
            return;
        }
        assert!(states.len() >= workers, "need one state per chunk: {} < {workers}", states.len());
        if workers == 1 {
            f(0..n, &mut states[0]);
            return;
        }
        let f = &f;
        std::thread::scope(|scope| {
            for (t, state) in states[..workers].iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                scope.spawn(move || f(lo..hi, state));
            }
        });
    }

    /// Run `f(task, state)` once for every task index in `0..tasks`, the
    /// workers pulling the next index from one shared counter, so a
    /// worker that draws cheap tasks draws more of them. At most
    /// `min(threads, tasks)` workers run, worker `w` with exclusive
    /// mutable access to `states[w]` for as long as it lives; which tasks
    /// a worker sees depends on timing, so per-task results that must
    /// come out in a fixed order are recorded with their task index and
    /// merged by the caller. With one worker the tasks run inline, in
    /// index order, on `states[0]`, and nothing is allocated.
    ///
    /// # Panics
    /// If `states` is shorter than the number of workers, or (after all
    /// workers have stopped) if `f` panicked on one of them.
    pub fn for_each_task<S, F>(&self, tasks: usize, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        let (workers, _) = self.chunking(tasks);
        if workers == 0 {
            return;
        }
        assert!(states.len() >= workers, "need one state per worker: {} < {workers}", states.len());
        if workers == 1 {
            for task in 0..tasks {
                f(task, &mut states[0]);
            }
            return;
        }
        // Relaxed: the counter only hands out indices; everything a task
        // writes reaches the caller through the scope's join.
        let next = AtomicUsize::new(0);
        let (f, next) = (&f, &next);
        std::thread::scope(|scope| {
            for state in states[..workers].iter_mut() {
                scope.spawn(move || loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= tasks {
                        break;
                    }
                    f(task, state);
                });
            }
        });
    }

    /// Run `run(task, state, buf)` once for every task index in
    /// `0..tasks`, pulled as in [`for_each_task`](Self::for_each_task),
    /// each into an empty buffer taken from `pool`, and hand every filled
    /// buffer to `deliver` on the calling thread in task order, while the
    /// workers run. A worker starts task `t` only once fewer than
    /// `window` tasks before it are undelivered (`t < delivered +
    /// window`), so at most `window` buffers are out at once; each goes
    /// back to `pool`, cleared, after its delivery. With one worker the
    /// tasks run inline, each delivered as it ends, through one pooled
    /// buffer.
    ///
    /// If `run` or `deliver` panics, the other side is told to stop, and
    /// the panic is re-raised on the calling thread once every worker
    /// has stopped; the buffers still out are then dropped.
    ///
    /// # Panics
    /// If `states` is shorter than the number of workers, if `window` is
    /// 0, or if `run` or `deliver` panicked.
    pub fn for_each_task_in_order<S, T, F, D>(
        &self,
        tasks: usize,
        window: usize,
        states: &mut [S],
        pool: &mut Vec<Vec<T>>,
        run: F,
        mut deliver: D,
    ) where
        S: Send,
        T: Send,
        F: Fn(usize, &mut S, &mut Vec<T>) + Sync,
        D: FnMut(&[T]),
    {
        let (workers, _) = self.chunking(tasks);
        if workers == 0 {
            return;
        }
        assert!(states.len() >= workers, "need one state per worker: {} < {workers}", states.len());
        assert!(window > 0, "a window of 0 tasks starts none");
        if workers == 1 {
            let mut buf = pool.pop().unwrap_or_default();
            for task in 0..tasks {
                run(task, &mut states[0], &mut buf);
                deliver(&buf);
                buf.clear();
            }
            pool.push(buf);
            return;
        }
        let hand_off = HandOff {
            state: Mutex::new(Window {
                next: 0,
                delivered: 0,
                done: (0..window).map(|_| None).collect(),
                pool: std::mem::take(pool),
                abort: false,
            }),
            to_caller: Condvar::new(),
            to_workers: Condvar::new(),
        };
        let (run, hand_off) = (&run, &hand_off);
        std::thread::scope(|scope| {
            for state in states[..workers].iter_mut() {
                scope.spawn(move || {
                    let _abort = AbortOnUnwind(hand_off);
                    while let Some((task, mut buf)) = hand_off.start(tasks) {
                        run(task, state, &mut buf);
                        hand_off.finish(task, buf);
                    }
                });
            }
            let _abort = AbortOnUnwind(hand_off);
            for task in 0..tasks {
                // `None`: a worker panicked, and the scope re-raises it.
                let Some(mut buf) = hand_off.wait_for(task) else { break };
                deliver(&buf);
                buf.clear();
                hand_off.recycle(buf);
            }
        });
        *pool = std::mem::take(&mut hand_off.lock().pool);
    }
}

/// What [`Executor::for_each_task_in_order`]'s caller and workers share.
struct HandOff<T> {
    state: Mutex<Window<T>>,
    /// The caller waits here for the next task in order to end.
    to_caller: Condvar,
    /// Workers wait here for the window to move, or for an abort.
    to_workers: Condvar,
}

struct Window<T> {
    /// The next task a worker will start.
    next: usize,
    /// Tasks delivered so far: `0..delivered`.
    delivered: usize,
    /// Task `t`'s filled buffer, at `t % window` until it is delivered;
    /// only tasks `delivered..delivered + window` are ever out, so no two
    /// share a slot.
    done: Vec<Option<Vec<T>>>,
    /// Empty buffers for the next tasks.
    pool: Vec<Vec<T>>,
    /// One side panicked: the workers start nothing more and the caller
    /// waits for nothing more.
    abort: bool,
}

impl<T> HandOff<T> {
    /// No user code runs under the lock, so it is never poisoned by
    /// one; a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, Window<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's next task and an empty buffer for it, once the window
    /// lets it start; `None` when every task is taken or on abort.
    fn start(&self, tasks: usize) -> Option<(usize, Vec<T>)> {
        let mut w = self.lock();
        loop {
            if w.abort || w.next >= tasks {
                return None;
            }
            if w.next < w.delivered + w.done.len() {
                let task = w.next;
                w.next += 1;
                return Some((task, w.pool.pop().unwrap_or_default()));
            }
            w = self.to_workers.wait(w).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A worker's filled buffer for `task`; wakes the caller if it is the
    /// one the caller waits for.
    fn finish(&self, task: usize, buf: Vec<T>) {
        let mut w = self.lock();
        let slot = task % w.done.len();
        w.done[slot] = Some(buf);
        if task == w.delivered {
            self.to_caller.notify_one();
        }
    }

    /// The caller's wait for `task`'s buffer; `None` on abort.
    fn wait_for(&self, task: usize) -> Option<Vec<T>> {
        let mut w = self.lock();
        loop {
            let slot = task % w.done.len();
            if let Some(buf) = w.done[slot].take() {
                return Some(buf);
            }
            if w.abort {
                return None;
            }
            w = self.to_caller.wait(w).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A delivered buffer back to the pool: the window moves one task.
    fn recycle(&self, buf: Vec<T>) {
        let mut w = self.lock();
        w.pool.push(buf);
        w.delivered += 1;
        self.to_workers.notify_all();
    }
}

/// Set on either side of the hand-off: if its thread unwinds, the other
/// side stops waiting, so a panic on one end cannot leave the other
/// blocked for ever.
struct AbortOnUnwind<'h, T>(&'h HandOff<T>);

impl<T> Drop for AbortOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().abort = true;
            self.0.to_caller.notify_all();
            self.0.to_workers.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamp_to_sequential() {
        let e = Executor::new(0);
        assert_eq!(e.threads(), 1);
        assert_eq!(e.map_chunks(5, |r| r.len()), vec![5]);
    }

    #[test]
    fn io_bound_is_not_capped_to_hardware() {
        assert_eq!(Executor::io_bound(0).threads(), 1);
        assert_eq!(Executor::io_bound(64).threads(), 64);
        // Still runs work correctly when oversubscribed.
        let sum: usize = Executor::io_bound(8).map_chunks(100, |r| r.len()).iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        assert!(Executor::new(4).map_chunks(0, |_| 0u32).is_empty());
        assert_eq!(Executor::new(4).chunking(0), (0, 0));
    }

    #[test]
    fn chunks_partition_the_range_in_order() {
        for threads in 1..=9 {
            for n in 0..40 {
                // Struct literal (same module) dodges the hardware cap so
                // the scoped-spawn path is exercised on any machine.
                let ranges = Executor { threads }.map_chunks(n, |r| r);
                // Concatenated chunks reproduce 0..n exactly.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "threads={threads} n={n}");
                    assert!(r.end > r.start, "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= threads.max(1).min(n.max(1)));
            }
        }
    }

    #[test]
    fn never_more_workers_than_items() {
        let (workers, chunk) = Executor { threads: 8 }.chunking(3);
        assert_eq!((workers, chunk), (3, 1));
        assert_eq!(Executor { threads: 8 }.map_chunks(3, |r| r.len()), vec![1, 1, 1]);
    }

    #[test]
    fn requests_are_capped_to_the_hardware() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(usize::MAX);
        assert!(Executor::new(usize::MAX).threads() <= hw);
        assert_eq!(Executor::new(1).threads(), 1);
    }

    #[test]
    fn for_each_chunk_accumulates_into_states() {
        let data: Vec<u64> = (0..500).collect();
        let seq: u64 = data.iter().sum();
        for threads in [1usize, 2, 5, 11] {
            let e = Executor { threads };
            let (workers, _) = e.chunking(data.len());
            let mut states = vec![0u64; workers];
            e.for_each_chunk(data.len(), &mut states, |r, acc| *acc += data[r].iter().sum::<u64>());
            assert_eq!(states.iter().sum::<u64>(), seq, "threads={threads}");
            // Reuse: states accumulate across calls (they are never reset
            // by the executor — resetting is the caller's policy).
            e.for_each_chunk(data.len(), &mut states, |r, acc| *acc += data[r].iter().sum::<u64>());
            assert_eq!(states.iter().sum::<u64>(), 2 * seq);
        }
    }

    #[test]
    fn for_each_chunk_empty_input_is_a_noop() {
        let mut states: Vec<u32> = Vec::new();
        Executor::new(4).for_each_chunk(0, &mut states, |_, _| panic!("no chunks expected"));
    }

    #[test]
    #[should_panic(expected = "one state per chunk")]
    fn for_each_chunk_rejects_short_state_slices() {
        let mut states = vec![0u32; 1];
        Executor { threads: 4 }.for_each_chunk(100, &mut states, |_, _| {});
    }

    #[test]
    fn for_each_task_runs_every_task_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            for tasks in [1usize, 2, 7, 100] {
                let e = Executor { threads };
                let (workers, _) = e.chunking(tasks);
                let mut states: Vec<Vec<usize>> = vec![Vec::new(); workers];
                e.for_each_task(tasks, &mut states, |task, seen| seen.push(task));
                let mut all: Vec<usize> = states.concat();
                all.sort_unstable();
                assert_eq!(all, (0..tasks).collect::<Vec<_>>(), "threads={threads} tasks={tasks}");
                // Each worker sees its own tasks in increasing order.
                assert!(states.iter().all(|seen| seen.windows(2).all(|w| w[0] < w[1])));
            }
        }
    }

    #[test]
    fn for_each_task_states_accumulate_across_calls() {
        let e = Executor { threads: 3 };
        let mut states = vec![0u64; 3];
        for _ in 0..2 {
            e.for_each_task(50, &mut states, |task, acc| *acc += task as u64);
        }
        assert_eq!(states.iter().sum::<u64>(), 2 * (0..50).sum::<u64>());
    }

    #[test]
    fn for_each_task_without_tasks_is_a_noop() {
        let mut states: Vec<u32> = Vec::new();
        Executor { threads: 4 }.for_each_task(0, &mut states, |_, _| panic!("no tasks expected"));
    }

    #[test]
    #[should_panic(expected = "one state per worker")]
    fn for_each_task_rejects_short_state_slices() {
        let mut states = vec![0u32; 1];
        Executor { threads: 4 }.for_each_task(100, &mut states, |_, _| {});
    }

    #[test]
    fn for_each_task_propagates_a_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            let mut states = vec![0u32; 2];
            Executor { threads: 2 }.for_each_task(10, &mut states, |task, _| {
                assert_ne!(task, 7, "task 7 fails");
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn in_order_delivery_follows_the_task_order_within_the_window() {
        // Task t outputs t, t+1000 and ends late when t % 5 == 0, so later
        // tasks end first and wait for it in the window.
        for threads in [1usize, 2, 3, 8] {
            for window in [1usize, 2, 3, 16] {
                let mut states = vec![0usize; threads];
                let mut pool = Vec::new();
                let mut got = Vec::new();
                let outstanding = AtomicUsize::new(0);
                let most = AtomicUsize::new(0);
                Executor { threads }.for_each_task_in_order(
                    40,
                    window,
                    &mut states,
                    &mut pool,
                    |task, ran, buf| {
                        assert!(buf.is_empty(), "a task starts on an empty buffer");
                        let now = outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                        most.fetch_max(now, Ordering::SeqCst);
                        if task % 5 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        buf.extend([task, task + 1000]);
                        *ran += 1;
                    },
                    |out| {
                        got.extend_from_slice(out);
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                    },
                );
                let want: Vec<usize> = (0..40).flat_map(|t| [t, t + 1000]).collect();
                assert_eq!(got, want, "threads={threads} window={window}");
                assert_eq!(states.iter().sum::<usize>(), 40);
                let most = most.load(Ordering::SeqCst);
                assert!(most <= window, "{most} tasks out with a window of {window}");
                assert!(pool.len() <= window && pool.iter().all(|b| b.is_empty()));
            }
        }
    }

    #[test]
    fn in_order_delivery_without_tasks_is_a_noop() {
        let mut states: Vec<u32> = Vec::new();
        let mut pool: Vec<Vec<u32>> = Vec::new();
        Executor { threads: 4 }.for_each_task_in_order(
            0,
            4,
            &mut states,
            &mut pool,
            |_, _, _| panic!("no tasks expected"),
            |_| panic!("nothing to deliver"),
        );
        assert!(pool.is_empty());
    }

    #[test]
    fn a_panic_on_either_side_of_the_hand_off_propagates() {
        // Neither side may be left waiting for the other: a hang here is
        // a failure too.
        for threads in [2usize, 8] {
            for failing_task in [true, false] {
                let caught = std::panic::catch_unwind(|| {
                    let mut states = vec![(); threads];
                    let mut pool = Vec::new();
                    Executor { threads }.for_each_task_in_order(
                        200,
                        4,
                        &mut states,
                        &mut pool,
                        |task, (), buf| {
                            assert!(!(failing_task && task == 57), "task 57 fails");
                            buf.push(task);
                        },
                        |out| assert!(failing_task || out != [57], "delivering 57 fails"),
                    );
                });
                assert!(caught.is_err(), "threads={threads} failing_task={failing_task}");
            }
        }
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let data: Vec<u64> = (0..1000).collect();
        let seq: u64 = data.iter().sum();
        for threads in [1, 2, 3, 7, 16] {
            let partials =
                Executor { threads }.map_chunks(data.len(), |r| data[r].iter().sum::<u64>());
            assert_eq!(partials.iter().sum::<u64>(), seq, "threads={threads}");
        }
    }
}
