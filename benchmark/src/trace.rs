//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call it
//! makes into a layer; the crates under test are not instrumented. A
//! thread that issues operations owns a [`Recorder`] (a plain `Vec`, no
//! lock on the hot path); the I/O wrappers, which also run on threads the
//! engine spawns, record through [`Tracer::record`] and find their parent
//! in the [`current`] thread-local. Everything stays in memory until
//! [`Tracer::write_jsonl`].

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no parent" / "no operation".
pub const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one, or [`NONE`].
    pub parent: u64,
    /// Spans of one operation share this, or [`NONE`] outside any.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started; [`Recorder::close`] ends it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    name: &'static str,
    start_ns: u64,
    parent: u64,
    op_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(0), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: u64, op_id: u64) -> Open {
        // Relaxed: the id only has to be unique.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, name, start_ns: self.now_ns(), parent, op_id }
    }

    fn finish(&self, open: Open) -> Span {
        Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            parent: open.parent,
            op_id: open.op_id,
        }
    }

    /// End `open` and store it under the lock (for code that runs on
    /// threads without a [`Recorder`]).
    pub fn record(&self, open: Open) {
        let span = self.finish(open);
        self.spans.lock().expect("no recorder panics while holding the span lock").push(span);
    }

    pub fn recorder(&self) -> Recorder<'_> {
        Recorder { tracer: self, spans: Vec::new() }
    }

    /// All spans recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span lock").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// One JSON object per line:
    /// `{"id":..,"name":"..","start_ns":..,"end_ns":..,"parent":..|null,"op_id":..|null}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u64| if v == NONE { "null".to_string() } else { v.to_string() };
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.op_id)
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Per-thread span buffer; flushes into its tracer when dropped.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    pub fn open(&self, name: &'static str, parent: u64, op_id: u64) -> Open {
        self.tracer.open(name, parent, op_id)
    }

    pub fn close(&mut self, open: Open) -> u64 {
        let span = self.tracer.finish(open);
        self.spans.push(span);
        span.duration_ns()
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Ok(mut all) = self.tracer.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

thread_local! {
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((NONE, NONE)) };
}

/// `(span id, op id)` the calling thread is inside, for wrappers that are
/// called by the engine and cannot be handed a parent.
pub fn current() -> (u64, u64) {
    CURRENT.with(Cell::get)
}

/// Run `f` with `open` as the calling thread's current span.
pub fn inside<R>(open: &Open, f: impl FnOnce() -> R) -> R {
    let before = CURRENT.with(|c| c.replace((open.id, open.op_id)));
    let out = f();
    CURRENT.with(|c| c.set(before));
    out
}

/// Self time of every span: its duration minus what its direct children
/// cover, never below zero. Children of one parent are sequential (each
/// parent lives on one thread), so their durations add.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        *covered.entry(s.parent).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .map(|s| (s.id, s.duration_ns().saturating_sub(covered.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

/// The traced run's consistency check. Every child must lie inside its
/// parent, and the self times of `root` and everything below it must add
/// up to `wall_ns` (the same section timed independently by the
/// workload) within `tolerance`. A child that pokes out of its parent or
/// overlaps a sibling makes the clamped self times miss the sum.
pub fn check(spans: &[Span], root: u64, wall_ns: u64, tolerance: f64) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_span = by_id.get(&root).ok_or("root span was not recorded")?;
    for s in spans.iter().filter(|s| s.parent != NONE) {
        let p = by_id.get(&s.parent).ok_or_else(|| format!("span {} has no parent", s.id))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} ({}) leaves its parent {}", s.id, s.name, p.name));
        }
    }
    let under_root = |s: &Span| {
        let mut id = s.id;
        while id != root {
            match by_id.get(&id) {
                Some(s) => id = s.parent,
                None => return false,
            }
        }
        true
    };
    let selfs = self_times(spans);
    let sum: u64 = spans.iter().filter(|s| under_root(s)).map(|s| selfs[&s.id]).sum();
    for (what, got) in [("self times", sum), ("root span", root_span.duration_ns())] {
        let off = (got as f64 - wall_ns as f64).abs() / wall_ns.max(1) as f64;
        if off > tolerance {
            return Err(format!(
                "{what} under {} cover {got} ns of a {wall_ns} ns section ({:.2} % off)",
                root_span.name,
                off * 100.0
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span { id, name: "t", start_ns, end_ns, parent, op_id: NONE }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = [
            span(0, 0, 100, NONE),
            span(1, 10, 40, 0), // adjacent children of 0
            span(2, 40, 70, 0), //
            span(3, 45, 55, 2), // nested under 2: counts against 2, not 0
            span(4, 200, 250, NONE),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&0], 40);
        assert_eq!(t[&1], 30);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 10);
        assert_eq!(t[&4], 50);
        // Children plus self equal the parent; the unrelated span stays out.
        assert!(check(&spans, 0, 100, 0.0).is_ok());
        assert!(check(&spans, 0, 110, 0.02).is_err());
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let spans = [span(0, 0, 100, NONE), span(1, 90, 120, 0)];
        assert!(check(&spans, 0, 100, 0.02).is_err());
        // Overlapping siblings over-cover the parent: the clamped self
        // time can no longer make up the sum.
        let spans = [span(0, 0, 100, NONE), span(1, 0, 80, 0), span(2, 20, 100, 0)];
        assert!(check(&spans, 0, 100, 0.02).is_err());
    }

    #[test]
    fn recorder_flushes_and_current_nests() {
        let tracer = Tracer::default();
        {
            let mut rec = tracer.recorder();
            let root = rec.open("root", NONE, NONE);
            let op = rec.open("op", root.id, 7);
            inside(&op, || {
                assert_eq!(current(), (op.id, 7));
                let (parent, op_id) = current();
                tracer.record(tracer.open("io", parent, op_id));
            });
            assert_eq!(current(), (NONE, NONE));
            rec.close(op);
            rec.close(root);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let io = spans.iter().find(|s| s.name == "io").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!((io.parent, io.op_id), (op.id, 7));
    }
}
