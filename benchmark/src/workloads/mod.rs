//! The five workloads and what they share: the run context, the shape of
//! a result, and the closed loop of a single caller.

pub mod explore_ooc;
pub mod ingest_mixed;
pub mod range_inproc;
pub mod serve_range;
pub mod synapse_join;

use crate::stats;
use crate::trace::{self, Recorder, Tracer, NONE};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Names are fixed: later issues cite them.
pub const NAMES: [&str; 5] =
    ["range_inproc", "serve_range", "explore_ooc", "synapse_join", "ingest_mixed"];

pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "range_inproc" => range_inproc::run(ctx),
        "serve_range" => serve_range::run(ctx),
        "explore_ooc" => explore_ooc::run(ctx),
        "synapse_join" => synapse_join::run(ctx),
        "ingest_mixed" => ingest_mixed::run(ctx),
        _ => return None,
    })
}

/// Smoke runs use the same code on 1/20 of the data and of each query
/// list; their numbers are never comparable with a reference run.
pub const SMOKE_DIVISOR: usize = 20;

pub struct Ctx {
    pub seed: u64,
    /// Length of one timed section.
    pub seconds: f64,
    pub smoke: bool,
    /// The traced run: record spans and derive the per-layer metrics.
    pub tracer: Option<Arc<Tracer>>,
    /// Scratch files (page file, WAL) and trace output go here.
    pub out_dir: PathBuf,
}

impl Ctx {
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / SMOKE_DIVISOR).max(1)
        } else {
            n
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Set-up is repeated and its median reported, because one set-up is
    /// short enough (0.12 to 0.9 s) for a scheduling hiccup or a slow
    /// `fsync` to move it by a fifth: at least [`MIN_SETUPS`] times, and
    /// on until [`SETUP_SECONDS`] have gone into it, so the quick ones
    /// are repeated most. Smoke and traced runs set up once.
    fn enough_setups(&self, done: usize, spent_s: f64) -> bool {
        if self.smoke || self.traced() {
            return done >= 1;
        }
        done >= MAX_SETUPS || (done >= MIN_SETUPS && spent_s >= SETUP_SECONDS)
    }

    pub fn scratch_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}-{}", std::process::id()))
    }
}

const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 2.0;

/// Build the workload's state until [`Ctx::enough_setups`]; returns the
/// last state and the median set-up time.
pub fn set_up<S>(ctx: &Ctx, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    while !ctx.enough_setups(times.len(), times.iter().sum()) {
        drop(state.take()); // one copy of the data at a time
        let started = Instant::now();
        state = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), stats::median(&times))
}

/// What one timed section did.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the correct operations only: a failed, refused or
    /// wrong-answer op misses every latency figure.
    pub latencies_ns: Vec<u64>,
}

impl Pass {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ops_per_s(&self) -> f64 {
        self.correct() as f64 / self.wall_s
    }

    pub fn mean_ns(&self) -> f64 {
        self.latencies_ns.iter().sum::<u64>() as f64 / self.latencies_ns.len().max(1) as f64
    }

    pub fn absorb(&mut self, other: Pass) {
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ns.extend(other.latencies_ns);
    }
}

/// One caller's timed section: times every op, keeps the latencies of
/// the correct ones and, with a tracer, records the section as a `pass`
/// span with one child span per op.
pub struct Section<'t> {
    pass: Pass,
    tracer: Option<&'t Tracer>,
    rec: Option<Recorder<'t>>,
    root: Option<trace::Open>,
    span_name: &'static str,
    started: Instant,
}

impl<'t> Section<'t> {
    pub fn begin(tracer: Option<&'t Tracer>, span_name: &'static str) -> Self {
        let rec = tracer.map(Tracer::recorder);
        let root = rec.as_ref().map(|r| r.open("pass", NONE, NONE));
        Section { pass: Pass::default(), tracer, rec, root, span_name, started: Instant::now() }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Run and time one op; `op` returns whether its answer was correct.
    /// Anything the caller does between two calls (think time, checks)
    /// is in the section but in no op.
    pub fn op(&mut self, op: impl FnOnce() -> bool) -> bool {
        let open = match (&self.rec, &self.root) {
            (Some(rec), Some(root)) => Some(rec.open(self.span_name, root.id, self.pass.attempted)),
            _ => None,
        };
        let started = Instant::now();
        let ok = match &open {
            Some(open) => trace::inside(open, op),
            None => op(),
        };
        let ns = started.elapsed().as_nanos() as u64;
        if let (Some(rec), Some(open)) = (self.rec.as_mut(), open) {
            rec.close(open);
        }
        self.pass.attempted += 1;
        if ok {
            self.pass.latencies_ns.push(ns);
        } else {
            self.pass.failed += 1;
        }
        ok
    }

    /// The last op returned `true`, but checking its answer afterwards
    /// (outside its timing) showed it wrong: it failed after all.
    pub fn retract_last(&mut self) {
        self.pass.latencies_ns.pop().expect("the last op was counted correct");
        self.pass.failed += 1;
    }

    /// End the section. A traced section whose spans do not account for
    /// its wall time within 2 % is a broken benchmark, not a result.
    pub fn finish(mut self) -> Pass {
        let wall = self.started.elapsed();
        self.pass.wall_s = wall.as_secs_f64();
        if let (Some(mut rec), Some(root), Some(tracer)) = (self.rec, self.root, self.tracer) {
            rec.close(root);
            drop(rec);
            if let Err(e) = trace::check(&tracer.spans(), root.id, wall.as_nanos() as u64, 0.02) {
                panic!("trace check failed: {e}");
            }
        }
        self.pass
    }
}

/// When a closed loop ends once its time is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// After the round in progress: every count (pages, results, pairs)
    /// is then a function of the inputs alone. For a single caller.
    AfterRound,
    /// At once, so that concurrent callers stop together.
    AtDeadline,
}

/// One caller, closed loop: `op(i)` for `i` in `0..n`, round after round,
/// until `seconds` have passed.
pub fn closed_loop(
    n: usize,
    seconds: f64,
    stop: Stop,
    tracer: Option<&Tracer>,
    span_name: &'static str,
    mut op: impl FnMut(usize) -> bool,
) -> Pass {
    let mut section = Section::begin(tracer, span_name);
    'rounds: loop {
        for i in 0..n {
            if stop == Stop::AtDeadline && section.elapsed_s() >= seconds {
                break 'rounds;
            }
            section.op(|| op(i));
        }
        if section.elapsed_s() >= seconds {
            break;
        }
    }
    section.finish()
}

/// Mean time of `f` per query over one round of a list that earlier
/// sections have warmed: the rung of an attribution ladder.
pub fn mean_ns<Q>(queries: &[Q], mut f: impl FnMut(&Q)) -> f64 {
    let started = Instant::now();
    for q in queries {
        f(q);
    }
    started.elapsed().as_nanos() as f64 / queries.len() as f64
}

/// What a workload hands back. `pass` is the section the end-to-end
/// metrics come from; `layers` is filled by traced runs only.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub pass: Pass,
    /// `ops_per_s` where it is not simply correct ops over wall time
    /// (`explore_ooc` leaves think time out).
    pub ops_per_s: Option<f64>,
    pub layers: Vec<(&'static str, f64)>,
    /// Sizes and counts that describe the run (segments, pages, pairs);
    /// written to the result file, not metrics.
    pub facts: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_s.unwrap_or_else(|| self.pass.ops_per_s())
    }
}
