//! The unified query surface: one composable, typed entry point for
//! every workload the database serves.
//!
//! The paper's system is a *query service* for neuroscientists — range
//! scans, nearest neighbours, ε-distance joins and walkthrough replays
//! over the same circuit. [`NeuroDb::query`] opens a fluent builder that
//! expresses all four through one grammar:
//!
//! * **what** — [`Query::range`], [`Query::knn`], [`Query::touching`],
//!   [`Query::along_path`];
//! * **over what** — [`RangeQuery::in_population`] restricts to one named
//!   population, [`RangeQuery::filter`] pushes an arbitrary predicate
//!   *below* the index traversal, [`RangeQuery::limit`] stops the
//!   traversal the moment enough results have been emitted;
//! * **how** — three terminal modes: `collect()` materializes a
//!   [`QueryOutput`], `stream(|seg| …)` delivers results through a sink
//!   without ever building a `Vec`, and `session()` binds a reusable
//!   [`QueryScratch`] — plus, on FLAT databases, an optional SCOUT
//!   prefetch cursor — for repeated-query serving loops that must not
//!   allocate. Every range form runs one executor over the index's one
//!   traversal, [`SpatialIndex::try_for_each_in_range`], and every KNN
//!   form one expanding-cube search over the same primitive;
//! * **why** — every builder answers [`explain`](RangeQuery::explain)
//!   with a [`Plan`]: backend chosen, shards pruned, pushdown applied,
//!   estimated page reads.
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(9).neurons(8).build();
//! let db = NeuroDb::builder()
//!     .circuit(&circuit)
//!     .split_populations("axons", "dendrites", |s| s.neuron % 2 == 0)
//!     .build()
//!     .expect("valid");
//! let region = Aabb::cube(circuit.bounds().center(), 40.0);
//!
//! // Collect — a QueryOutput: segments plus unified statistics.
//! let all = db.query().range(region).collect().unwrap();
//!
//! // Stream with a pushed-down predicate and limit: no Vec, early exit.
//! let pred = |s: &NeuronSegment| s.neuron < 4;
//! let mut streamed = 0usize;
//! let stats = db
//!     .query()
//!     .range(region)
//!     .filter(&pred)
//!     .limit(5)
//!     .stream(|_seg| streamed += 1)
//!     .unwrap();
//! assert!(streamed <= 5);
//! assert_eq!(streamed as u64, stats.results);
//!
//! // Explain: what would run, without running it.
//! let plan = db.query().range(region).filter(&pred).explain();
//! assert!(plan.pushdown_filter);
//!
//! // Session: one scratch bound across a whole serving loop.
//! let mut session = db.query().range(region).session().unwrap();
//! for q in [region, Aabb::cube(circuit.bounds().lo, 20.0)] {
//!     let (hits, stats) = session.range(&q);
//!     assert_eq!(hits.len() as u64, stats.results);
//! }
//! # let _ = all;
//! ```

use crate::db::{DbCursor, NeuroDb, WalkthroughMethod};
use crate::error::NeuroError;
#[cfg(doc)]
use crate::index::SpatialIndex;
use crate::index::{
    finish_knn, infallible, knn_candidates, knn_radii, IndexBackend, Neighbor, QueryOutput,
    QueryScratch, QueryStats,
};
use neurospatial_geom::{Aabb, Flow, Vec3};
use neurospatial_model::{NavigationPath, NeuronSegment};
use neurospatial_scout::SessionStats;
use neurospatial_touch::{JoinResult, JoinStats, SpatialJoin};
use std::cell::RefCell;
use std::fmt;

/// A pushed-down segment predicate, borrowed for the builder's lifetime
/// so hot loops pay no boxing: `.filter(&|s| …)` chains directly, or
/// let-bind the closure when the query outlives the statement.
pub type SegmentPredicate<'a> = dyn Fn(&NeuronSegment) -> bool + 'a;

thread_local! {
    /// One [`QueryScratch`] per thread, shared by the `collect()` and
    /// `stream()` terminals: after the first few queries have grown its
    /// buffers, streaming queries perform zero heap allocations without
    /// the caller managing scratch state (`experiments --scenario=api`
    /// measures exactly this).
    static SHARED_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` with the thread-shared scratch; a re-entrant call (a sink
/// issuing its own query on the same thread) falls back to a fresh
/// scratch instead of panicking on the `RefCell`.
fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SHARED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut QueryScratch::new()),
    })
}

/// The membership and predicate test a bound composition pushes below
/// the traversal.
#[inline(always)]
fn passes(
    db: &NeuroDb,
    population: Option<u32>,
    filter: Option<&SegmentPredicate<'_>>,
    s: &NeuronSegment,
) -> bool {
    population.is_none_or(|pi| db.population_of_segment(s.id) == Some(pi))
        && filter.is_none_or(|f| f(s))
}

/// The pushdown sink: what a bound composition does with each segment
/// the traversal offers. Both tiers of a live database (the base index,
/// then the delta's inserts) offer to the same one.
struct Pushdown<'q, E> {
    db: &'q NeuroDb,
    population: Option<u32>,
    filter: Option<&'q SegmentPredicate<'q>>,
    remaining: Option<usize>,
    emit: E,
    /// Set when a verdict ended the traversal (limit reached or `emit`
    /// said stop): nothing is offered after it.
    stopped: bool,
}

impl<E: FnMut(&NeuronSegment) -> bool> Pushdown<'_, E> {
    // Forced: the per-result path of every range query, called from the
    // closures of both tiers.
    #[inline(always)]
    fn offer(&mut self, s: &NeuronSegment) -> Flow {
        if !passes(self.db, self.population, self.filter, s) {
            return Flow::Skip;
        }
        let last = !(self.emit)(s)
            || self.remaining.as_mut().is_some_and(|r| {
                *r -= 1;
                *r == 0
            });
        if last {
            self.stopped = true;
            Flow::Last
        } else {
            Flow::Emit
        }
    }
}

/// The range executor behind every terminal and every session method:
/// one streaming traversal with population membership, predicate and
/// limit all applied *below* the index (in the sink handed to
/// [`SpatialIndex::try_for_each_in_range`]), results delivered to `emit`
/// in the backend's canonical emission order. `emit` returns whether to
/// keep going: `false` ends the traversal cleanly after the segment in
/// hand (how a serving loop's time budget cuts a stream short), and an
/// always-`true` emitter costs nothing once monomorphised.
///
/// On live databases the traversal runs over a coherent (base, delta)
/// snapshot: removals mask base hits, then the delta's inserts matching
/// `region` go through the same sink after the base, in acknowledgement
/// order. (A population constraint excludes delta inserts entirely:
/// membership is assigned at build time, so a freshly ingested segment
/// belongs to no population until the next reopen.)
///
/// In-memory backends cannot fail; the paged backend surfaces storage
/// faults as typed errors, or — with `allow_partial` — skips quarantined
/// pages and labels the loss in `stats.pages_quarantined`.
#[allow(clippy::too_many_arguments)]
fn run_range(
    db: &NeuroDb,
    region: &Aabb,
    population: Option<u32>,
    filter: Option<&SegmentPredicate<'_>>,
    limit: Option<usize>,
    allow_partial: bool,
    scratch: &mut QueryScratch,
    emit: impl FnMut(&NeuronSegment) -> bool,
) -> Result<QueryStats, NeuroError> {
    if limit == Some(0) {
        return Ok(QueryStats::default());
    }
    let mut sink = Pushdown { db, population, filter, remaining: limit, emit, stopped: false };
    let qobs = crate::metrics::query_obs();
    qobs.ranges.inc();
    let _traversal = crate::metrics::sample_range_latency().then(|| {
        neurospatial_obs::span_timed(neurospatial_obs::Stage::Traversal, &qobs.range_latency)
    });
    let res = db.with_view(|index, delta| {
        let mut stats = index.try_for_each_in_range(region, scratch, allow_partial, &mut |s| {
            if delta.is_some_and(|d| d.is_removed(s.id)) {
                Flow::Skip
            } else {
                sink.offer(s)
            }
        })?;
        if let Some(d) = delta {
            d.for_each_in_range(region, |s| {
                if !sink.stopped {
                    stats.objects_tested += 1;
                    stats.results += u64::from(sink.offer(s) != Flow::Skip);
                }
            });
        }
        Ok(stats)
    });
    if let Ok(stats) = &res {
        qobs.observe(stats);
    }
    res
}

/// The KNN executor behind [`KnnQuery`] and [`QuerySession::try_knn`]:
/// the index's expanding-cube search with the removed-mask, membership
/// and predicate tests pushed below each cube traversal, so the search
/// keeps expanding until `k` *matching* neighbours are proven nearest.
/// On live databases every delta insert is a candidate too (the buffer
/// is small by construction); the canonical (distance, id) order then
/// makes the merged answer exact. Fallible exactly as [`run_range`] is.
#[allow(clippy::too_many_arguments)]
fn run_knn(
    db: &NeuroDb,
    p: Vec3,
    k: usize,
    population: Option<u32>,
    filter: Option<&SegmentPredicate<'_>>,
    allow_partial: bool,
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
) -> Result<QueryStats, NeuroError> {
    let qobs = crate::metrics::query_obs();
    qobs.knns.inc();
    let _traversal = crate::metrics::sample_knn_latency().then(|| {
        neurospatial_obs::span_timed(neurospatial_obs::Stage::Traversal, &qobs.knn_latency)
    });
    let res = db.with_view(|index, delta| {
        let mut stats = knn_candidates(index, p, k, scratch, allow_partial, |s| {
            !delta.is_some_and(|d| d.is_removed(s.id)) && passes(db, population, filter, s)
        })?;
        if let Some(d) = delta.filter(|_| k > 0) {
            d.for_each(|s| {
                stats.objects_tested += 1;
                if passes(db, population, filter, s) {
                    let distance = s.aabb().min_distance_to_point(p);
                    scratch.knn_candidates.push(Neighbor { segment: *s, distance });
                }
            });
        }
        finish_knn(&mut scratch.knn_candidates, k, &mut stats, out);
        Ok(stats)
    });
    if let Ok(stats) = &res {
        qobs.observe(stats);
    }
    res
}

/// What a query *would* do — returned by every builder's `explain()`
/// without executing anything. The sharded numbers come from real
/// shard-bounds pruning; the read estimate is FLAT's actual
/// page-overlap count on FLAT databases and a volume-fraction heuristic
/// on the tree backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which builder produced this plan: `"range"`, `"knn"`,
    /// `"touching"` or `"walkthrough"`.
    pub operation: &'static str,
    /// Backend the database was built with.
    pub backend: IndexBackend,
    /// Shards the executor manages (1 for monolithic databases).
    pub shards_total: usize,
    /// Shards whose bounds survive pruning (the rest are never touched).
    pub shards_probed: usize,
    /// Estimated index pages/nodes the execution would read (for
    /// `touching`: objects fed to the join's build+probe phases).
    pub estimated_reads: u64,
    /// Whether a predicate or population membership test is pushed below
    /// the index traversal.
    pub pushdown_filter: bool,
    /// The limit pushed into the traversal, if any.
    pub pushdown_limit: Option<usize>,
    /// Population the query is restricted to, if any.
    pub population: Option<String>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {}: {}/{} shard(s) after pruning, ~{} read(s)",
            self.operation,
            self.backend,
            self.shards_probed,
            self.shards_total,
            self.estimated_reads
        )?;
        if self.pushdown_filter {
            write!(f, ", filter pushed down")?;
        }
        if let Some(n) = self.pushdown_limit {
            write!(f, ", limit {n}")?;
        }
        if let Some(p) = &self.population {
            write!(f, ", population '{p}'")?;
        }
        Ok(())
    }
}

/// The root of the fluent query API — created by [`NeuroDb::query`],
/// immediately specialised into one of the four workload builders.
pub struct Query<'a> {
    db: &'a NeuroDb,
}

impl<'a> Query<'a> {
    pub(crate) fn new(db: &'a NeuroDb) -> Self {
        Query { db }
    }

    /// Spatial range query: every segment whose AABB intersects `region`.
    pub fn range(self, region: Aabb) -> RangeQuery<'a> {
        RangeQuery {
            db: self.db,
            region,
            population: None,
            filter: None,
            limit: None,
            allow_partial: false,
        }
    }

    /// The `k` segments nearest to `p` (AABB minimum distance), in
    /// canonical (distance, id) order.
    pub fn knn(self, p: Vec3, k: usize) -> KnnQuery<'a> {
        KnnQuery {
            db: self.db,
            p,
            k,
            population: None,
            filter: None,
            limit: None,
            allow_partial: false,
        }
    }

    /// ε-distance join (TOUCH): all pairs between the left population
    /// (the first one unless [`TouchingQuery::in_population`] picks
    /// another) and the named `other` population whose capsule surfaces
    /// come within `epsilon`.
    pub fn touching(self, other: &'a str, epsilon: f64) -> TouchingQuery<'a> {
        TouchingQuery { db: self.db, other, epsilon, population: None, filter: None, limit: None }
    }

    /// Walkthrough replay along a navigation path with paged I/O and
    /// prefetching (monolithic FLAT databases only, in memory or paged).
    pub fn along_path(self, path: &'a NavigationPath) -> PathQuery<'a> {
        PathQuery { db: self.db, path, method: WalkthroughMethod::Scout }
    }

    /// Bind an unconstrained [`QuerySession`] straight from the root: a
    /// reusable scratch + result buffers with no population, filter or
    /// limit. Go through a kind builder's `session()` (e.g.
    /// [`RangeQuery::session`]) when the session should carry
    /// composition into every query it serves.
    pub fn session(self) -> QuerySession<'a> {
        QuerySession {
            db: self.db,
            population: None,
            filter: None,
            limit: None,
            scratch: QueryScratch::new(),
            segments: Vec::new(),
            neighbors: Vec::new(),
            cursor: None,
        }
    }
}

/// A composable range query. Terminals: [`collect`](Self::collect),
/// [`stream`](Self::stream), [`session`](Self::session),
/// [`explain`](Self::explain).
pub struct RangeQuery<'a> {
    db: &'a NeuroDb,
    region: Aabb,
    population: Option<&'a str>,
    filter: Option<&'a SegmentPredicate<'a>>,
    limit: Option<usize>,
    allow_partial: bool,
}

impl<'a> RangeQuery<'a> {
    /// Restrict results to one named population (membership is tested
    /// below the index traversal; unknown names error at the terminal).
    pub fn in_population(mut self, name: &'a str) -> Self {
        self.population = Some(name);
        self
    }

    /// Push a predicate below the index traversal: rejected segments are
    /// never copied, counted or delivered. Borrowed, not boxed — chain
    /// `.filter(&|s| …)` directly, or let-bind the closure if the query
    /// value must outlive the statement.
    pub fn filter<F: Fn(&NeuronSegment) -> bool>(mut self, pred: &'a F) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Stop the traversal after `n` results — index pages past the limit
    /// are never read.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Accept partial results from a degraded paged database: pages the
    /// pool has quarantined after permanent media failures are skipped
    /// instead of failing the query, and the loss is labeled in
    /// `stats.pages_quarantined` (nonzero ⇒ the result set is
    /// incomplete). No effect on healthy media or in-memory backends —
    /// results stay byte-identical and the counter stays 0.
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }

    fn resolve_population(&self) -> Result<Option<u32>, NeuroError> {
        match self.population {
            None => Ok(None),
            Some(name) => Ok(Some(self.db.population_position(name)? as u32)),
        }
    }

    /// Materialize a [`QueryOutput`]. Without a population, filter or
    /// limit this is — results, order, statistics — what the index's own
    /// [`SpatialIndex::range_query`] returns.
    pub fn collect(&self) -> Result<QueryOutput, NeuroError> {
        let mut segments = Vec::new();
        let stats = self.stream(|s| segments.push(*s))?;
        Ok(QueryOutput { segments, stats })
    }

    /// Count the matching segments without materializing any of them —
    /// the traversal runs with a no-op sink, so population, filter and
    /// limit pushdown all apply and nothing is copied. Equal to
    /// `collect()?.segments.len()`, minus the `Vec`.
    pub fn count(&self) -> Result<u64, NeuroError> {
        Ok(self.stream(|_| {})?.results)
    }

    /// Fold every matching segment into an accumulator, in the backend's
    /// canonical emission order, without materializing a result vector.
    /// Returns the final accumulator and the traversal statistics.
    pub fn fold<B>(
        &self,
        init: B,
        mut f: impl FnMut(B, &NeuronSegment) -> B,
    ) -> Result<(B, QueryStats), NeuroError> {
        let mut acc = Some(init);
        let stats = self.stream(|s| {
            let b = acc.take().expect("accumulator present");
            acc = Some(f(b, s));
        })?;
        Ok((acc.expect("accumulator present"), stats))
    }

    /// Stream: every matching segment is delivered to `sink`, in the
    /// backend's canonical emission order, without materializing a
    /// result vector — the zero-copy lane for serving loops and
    /// aggregations. Visits exactly the set (and order)
    /// [`collect`](Self::collect) would return.
    pub fn stream(&self, mut sink: impl FnMut(&NeuronSegment)) -> Result<QueryStats, NeuroError> {
        let population = self.resolve_population()?;
        with_scratch(|scratch| {
            run_range(
                self.db,
                &self.region,
                population,
                self.filter,
                self.limit,
                self.allow_partial,
                scratch,
                |s| {
                    sink(s);
                    true
                },
            )
        })
    }

    /// Bind a reusable [`QuerySession`] carrying this query's
    /// composition (population, filter, limit) plus a private
    /// [`QueryScratch`] and result buffers — the repeated-query form
    /// whose steady state performs zero heap allocations. The builder's
    /// region is *not* bound: every [`QuerySession::range`] call names
    /// its own region ([`Query::session`] skips the region entirely when
    /// no composition is needed).
    pub fn session(self) -> Result<QuerySession<'a>, NeuroError> {
        let population = self.resolve_population()?;
        Ok(QuerySession {
            db: self.db,
            population,
            filter: self.filter,
            limit: self.limit,
            scratch: QueryScratch::new(),
            segments: Vec::new(),
            neighbors: Vec::new(),
            cursor: None,
        })
    }

    /// The execution plan, without executing: backend, shard pruning,
    /// pushdown, estimated reads.
    pub fn explain(&self) -> Plan {
        let ip = self.db.index().plan_range(&self.region);
        Plan {
            operation: "range",
            backend: self.db.backend(),
            shards_total: ip.shards_total,
            shards_probed: ip.shards_probed,
            estimated_reads: ip.estimated_reads,
            pushdown_filter: self.filter.is_some() || self.population.is_some(),
            pushdown_limit: self.limit,
            population: self.population.map(str::to_string),
        }
    }
}

/// A composable k-nearest-neighbour query. With a filter or population
/// bound, the expanding-cube search applies the predicate below each
/// cube traversal and keeps expanding until `k` *matching* neighbours
/// are proven nearest; without one it answers exactly as the index's own
/// [`SpatialIndex::knn`].
pub struct KnnQuery<'a> {
    db: &'a NeuroDb,
    p: Vec3,
    k: usize,
    population: Option<&'a str>,
    filter: Option<&'a SegmentPredicate<'a>>,
    limit: Option<usize>,
    allow_partial: bool,
}

impl<'a> KnnQuery<'a> {
    /// Restrict candidates to one named population.
    pub fn in_population(mut self, name: &'a str) -> Self {
        self.population = Some(name);
        self
    }

    /// Push a candidate predicate below the search.
    pub fn filter<F: Fn(&NeuronSegment) -> bool>(mut self, pred: &'a F) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Cap the neighbour count below `k` (the effective k is the
    /// smaller of the two).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Accept neighbours drawn from the surviving pages of a degraded
    /// paged database, exactly as [`RangeQuery::allow_partial`] does for
    /// ranges; without it such a search fails with
    /// [`NeuroError::DegradedResult`].
    pub fn allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }

    fn effective_k(&self) -> usize {
        self.limit.map_or(self.k, |l| self.k.min(l))
    }

    fn resolve_population(&self) -> Result<Option<u32>, NeuroError> {
        match self.population {
            None => Ok(None),
            Some(name) => Ok(Some(self.db.population_position(name)? as u32)),
        }
    }

    /// Materialize the canonical neighbour list. A storage fault on a
    /// paged database is returned, not panicked on.
    pub fn collect(&self) -> Result<(Vec<Neighbor>, QueryStats), NeuroError> {
        let population = self.resolve_population()?;
        with_scratch(|scratch| {
            let mut out = Vec::new();
            let stats = run_knn(
                self.db,
                self.p,
                self.effective_k(),
                population,
                self.filter,
                self.allow_partial,
                scratch,
                &mut out,
            )?;
            Ok((out, stats))
        })
    }

    /// Deliver the neighbours to `sink` in canonical order. (KNN must
    /// sort before it can emit, so the `k` winners are staged in the
    /// scratch internally — `k` is small; the point of this form is a
    /// uniform sink-based surface, not asymptotics.)
    pub fn stream(&self, mut sink: impl FnMut(Neighbor)) -> Result<QueryStats, NeuroError> {
        let (neighbors, stats) = self.collect()?;
        for n in neighbors {
            sink(n);
        }
        Ok(stats)
    }

    /// Bind a reusable [`QuerySession`] (shared with the range form —
    /// one session serves both workloads).
    pub fn session(self) -> Result<QuerySession<'a>, NeuroError> {
        let population = self.resolve_population()?;
        Ok(QuerySession {
            db: self.db,
            population,
            filter: self.filter,
            limit: self.limit,
            scratch: QueryScratch::new(),
            segments: Vec::new(),
            neighbors: Vec::new(),
            cursor: None,
        })
    }

    /// The execution plan: the first expanding-cube iteration the search
    /// would run.
    pub fn explain(&self) -> Plan {
        let index = self.db.index();
        let (r0, _) = knn_radii(&*index, self.p, self.effective_k().max(1));
        let ip = index.plan_range(&Aabb::cube(self.p, r0));
        Plan {
            operation: "knn",
            backend: self.db.backend(),
            shards_total: ip.shards_total,
            shards_probed: ip.shards_probed,
            estimated_reads: ip.estimated_reads,
            pushdown_filter: self.filter.is_some() || self.population.is_some(),
            pushdown_limit: self.limit,
            population: self.population.map(str::to_string),
        }
    }
}

/// A composable ε-distance join (the TOUCH workload). The left side is
/// the first population unless [`in_population`](Self::in_population)
/// picks another; `other` names the right side.
pub struct TouchingQuery<'a> {
    db: &'a NeuroDb,
    other: &'a str,
    epsilon: f64,
    population: Option<&'a str>,
    filter: Option<&'a SegmentPredicate<'a>>,
    limit: Option<usize>,
}

impl<'a> TouchingQuery<'a> {
    /// Choose the left population by name (default: the first declared).
    pub fn in_population(mut self, name: &'a str) -> Self {
        self.population = Some(name);
        self
    }

    /// Pre-filter the left population before the join. Reported pair
    /// indices still refer to positions in the *unfiltered* population
    /// slice, so they compose with [`NeuroDb::population`].
    pub fn filter<F: Fn(&NeuronSegment) -> bool>(mut self, pred: &'a F) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Keep only the first `n` pairs (join emission order). The limit is
    /// not pushed down: the whole join runs and the pairs after the
    /// `n`-th are dropped, which [`explain`](Self::explain) reports as
    /// `pushdown_limit: None`.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    fn sides(&self) -> Result<(usize, usize), NeuroError> {
        let left = match self.population {
            Some(name) => self.db.population_position(name)?,
            None => {
                if self.db.populations().is_empty() {
                    return Err(NeuroError::TooFewPopulations { found: 0, needed: 2 });
                }
                0
            }
        };
        Ok((left, self.db.population_position(self.other)?))
    }

    /// With a filter: the positions in `a` that pass it and the segments
    /// at those positions, so that the join runs on the survivors and
    /// pair indices map back to unfiltered positions through `keep`.
    fn left_side(&self, a: &[NeuronSegment]) -> Option<(Vec<u32>, Vec<NeuronSegment>)> {
        let pred = self.filter?;
        let keep: Vec<u32> = (0..a.len() as u32).filter(|&i| pred(&a[i as usize])).collect();
        let filtered = keep.iter().map(|&i| a[i as usize]).collect();
        Some((keep, filtered))
    }

    /// Run the join. Without a filter or limit this is, pairs and
    /// counters, the database's [`TouchJoin`](neurospatial_touch::TouchJoin)
    /// run on the two population slices.
    pub fn collect(&self) -> Result<JoinResult, NeuroError> {
        let (li, ri) = self.sides()?;
        let a = &self.db.populations()[li].segments;
        let b = &self.db.populations()[ri].segments;
        let mut result = match self.left_side(a) {
            None => self.db.join_config().join(a, b, self.epsilon),
            Some((keep, filtered)) => {
                let mut r = self.db.join_config().join(&filtered, b, self.epsilon);
                for pair in &mut r.pairs {
                    pair.0 = keep[pair.0 as usize];
                }
                r
            }
        };
        if let Some(n) = self.limit {
            if result.pairs.len() > n {
                result.pairs.truncate(n);
            }
            result.stats.results = result.pairs.len() as u64;
        }
        Ok(result)
    }

    /// Deliver each `(left index, right index)` pair to `sink`, in
    /// [`collect`](Self::collect)'s order and straight from the join
    /// workers' buffers (the pairs are never gathered into one vector),
    /// and return the join statistics.
    pub fn stream(&self, mut sink: impl FnMut(u32, u32)) -> Result<JoinStats, NeuroError> {
        let (li, ri) = self.sides()?;
        let a = &self.db.populations()[li].segments;
        let b = &self.db.populations()[ri].segments;
        let limit = self.limit.unwrap_or(usize::MAX);
        let mut delivered = 0usize;
        let mut deliver = |i: u32, j: u32| {
            if delivered < limit {
                delivered += 1;
                sink(i, j);
            }
        };
        let join = self.db.join_config();
        let mut stats = match self.left_side(a) {
            None => join.join_each(a, b, self.epsilon, deliver),
            Some((keep, filtered)) => {
                join.join_each(&filtered, b, self.epsilon, |i, j| deliver(keep[i as usize], j))
            }
        };
        stats.results = delivered as u64;
        Ok(stats)
    }

    /// The execution plan. `estimated_reads` counts the objects fed to
    /// the join's build and probe phases.
    pub fn explain(&self) -> Plan {
        let (left_len, right_len) = match self.sides() {
            Ok((li, ri)) => {
                (self.db.populations()[li].segments.len(), self.db.populations()[ri].segments.len())
            }
            Err(_) => (0, 0),
        };
        Plan {
            operation: "touching",
            backend: self.db.backend(),
            shards_total: 1,
            shards_probed: 1,
            estimated_reads: (left_len + right_len) as u64,
            pushdown_filter: self.filter.is_some(),
            // `collect` and `stream` run the whole join and drop what
            // lies beyond the limit.
            pushdown_limit: None,
            population: Some(
                self.population
                    .unwrap_or_else(|| {
                        self.db.populations().first().map_or("", |p| p.name.as_str())
                    })
                    .to_string(),
            ),
        }
    }
}

/// A walkthrough replay along a navigation path — the SCOUT workload,
/// expressed through the same builder grammar.
pub struct PathQuery<'a> {
    db: &'a NeuroDb,
    path: &'a NavigationPath,
    method: WalkthroughMethod,
}

impl PathQuery<'_> {
    /// Prefetching policy to replay with (default:
    /// [`WalkthroughMethod::Scout`]).
    pub fn method(mut self, method: WalkthroughMethod) -> Self {
        self.method = method;
        self
    }

    /// Replay the walkthrough and report the session statistics (stall
    /// time, hit ratio, prefetch precision). Errors unless the database
    /// uses the monolithic FLAT backend (in memory or paged) —
    /// walkthroughs are page-granular.
    pub fn run(&self) -> Result<SessionStats, NeuroError> {
        self.db.replay_walkthrough(self.path, self.method)
    }

    /// The execution plan: shard layout plus the summed per-step read
    /// estimate over the whole path.
    pub fn explain(&self) -> Plan {
        let index = self.db.index();
        let mut shards_total = 1;
        let mut shards_probed = 0;
        let mut estimated_reads = 0;
        for q in &self.path.queries {
            let ip = index.plan_range(q);
            shards_total = ip.shards_total;
            shards_probed = shards_probed.max(ip.shards_probed);
            estimated_reads += ip.estimated_reads;
        }
        Plan {
            operation: "walkthrough",
            backend: self.db.backend(),
            shards_total,
            shards_probed,
            estimated_reads,
            pushdown_filter: false,
            pushdown_limit: None,
            population: None,
        }
    }
}

/// A bound, reusable execution context for repeated-query loops: one
/// private [`QueryScratch`] and result buffers, carrying the builder's
/// composition (population, filter, limit) across every call — the
/// steady state allocates nothing. Created by [`RangeQuery::session`] /
/// [`KnnQuery::session`].
///
/// On FLAT databases, [`with_prefetch`](Self::with_prefetch) attaches a
/// SCOUT cursor ([`OocCursor`](neurospatial_scout::OocCursor)): each
/// range query also advances a paged walkthrough (demand misses,
/// think-time prefetching), and
/// [`prefetch_stats`](Self::prefetch_stats) reports the accumulated
/// stall/hit statistics. A paged database walks its own page file and
/// frame pool; an in-memory one walks a cold pool over a modelled
/// device — how the loop *would* behave against cold storage.
pub struct QuerySession<'a> {
    db: &'a NeuroDb,
    population: Option<u32>,
    filter: Option<&'a SegmentPredicate<'a>>,
    limit: Option<usize>,
    scratch: QueryScratch,
    segments: Vec<NeuronSegment>,
    neighbors: Vec<Neighbor>,
    cursor: Option<DbCursor<'a>>,
}

impl<'a> QuerySession<'a> {
    /// The one path from a session method to the range executor: the
    /// bound composition, the session's scratch, the prefetch cursor's
    /// step. `emit` is handed the session's result buffer with each
    /// result and says whether to keep going.
    fn run(
        &mut self,
        region: &Aabb,
        allow_partial: bool,
        mut emit: impl FnMut(&mut Vec<NeuronSegment>, &NeuronSegment) -> bool,
    ) -> Result<QueryStats, NeuroError> {
        let QuerySession { db, population, filter, limit, scratch, segments, cursor, .. } = self;
        let stats =
            run_range(db, region, *population, *filter, *limit, allow_partial, scratch, |s| {
                emit(segments, s)
            })?;
        if let Some(cursor) = cursor {
            cursor.step(region, allow_partial)?;
        }
        Ok(stats)
    }

    /// Execute a range query with the bound composition; the result
    /// slice lives in the session's reused buffer until the next call.
    /// Infallible: panics where a paged database's file fails under it
    /// (serving loops that must survive that use
    /// [`try_range_budgeted`](Self::try_range_budgeted)).
    pub fn range(&mut self, region: &Aabb) -> (&[NeuronSegment], QueryStats) {
        self.segments.clear();
        let stats = infallible(self.run(region, false, |out, s| {
            out.push(*s);
            true
        }));
        (&self.segments, stats)
    }

    /// Fallible [`range`](Self::range) with a cooperative abort — the
    /// serving loop's form. A paged database with quarantined pages
    /// reports [`NeuroError::DegradedResult`] instead of panicking, and
    /// `allow_partial` opts into labeled partial results
    /// (`stats.pages_quarantined` counts the skipped pages). The
    /// traversal also stops — cleanly, after delivering the segment in
    /// hand — once `keep_going` returns `false`. Returns
    /// `(segments, stats, completed)`; `completed` is `false` iff the
    /// budget check tripped first, in which case the buffered segments
    /// are a valid prefix of the full answer (`stats` still matches what
    /// was delivered). `keep_going` is consulted once per emitted result,
    /// so a tripped budget cuts a stream short without abandoning
    /// mid-frame state.
    pub fn try_range_budgeted(
        &mut self,
        region: &Aabb,
        allow_partial: bool,
        mut keep_going: impl FnMut() -> bool,
    ) -> Result<(&[NeuronSegment], QueryStats, bool), NeuroError> {
        self.segments.clear();
        let mut completed = true;
        let stats = self.run(region, allow_partial, |out, s| {
            out.push(*s);
            completed = keep_going();
            completed
        })?;
        Ok((&self.segments, stats, completed))
    }

    /// Fallible sibling of [`count`](Self::count): storage faults on a
    /// degraded paged database surface as typed errors, and
    /// `allow_partial` opts into counting only the surviving pages
    /// (labeled via `stats.pages_quarantined`).
    pub fn try_count(
        &mut self,
        region: &Aabb,
        allow_partial: bool,
    ) -> Result<QueryStats, NeuroError> {
        self.run(region, allow_partial, |_, _| true)
    }

    /// Count the segments a [`range`](Self::range) call would return,
    /// without touching the result buffer — the traversal runs with a
    /// no-op sink and allocates nothing. The count is
    /// `stats.results`; the full [`QueryStats`] is returned so serving
    /// loops can account for work done, not just rows matched.
    pub fn count(&mut self, region: &Aabb) -> QueryStats {
        infallible(self.try_count(region, false))
    }

    /// Rebind the session's population restriction (`None` clears it) —
    /// the per-request form for serving loops where each request names
    /// its own population but the scratch and buffers must be reused.
    /// Unknown names error and leave the binding unchanged.
    pub fn set_population(&mut self, name: Option<&str>) -> Result<(), NeuroError> {
        self.population = match name {
            None => None,
            Some(name) => Some(self.db.population_position(name)? as u32),
        };
        Ok(())
    }

    /// Rebind the session's pushed-down predicate (`None` clears it).
    pub fn set_filter(&mut self, filter: Option<&'a SegmentPredicate<'a>>) {
        self.filter = filter;
    }

    /// Rebind the session's pushed-down limit (`None` clears it).
    pub fn set_limit(&mut self, limit: Option<usize>) {
        self.limit = limit;
    }

    /// Execute a KNN query with the bound composition; the neighbour
    /// slice lives in the session's reused buffer until the next call.
    /// Infallible, as [`range`](Self::range) is.
    pub fn knn(&mut self, p: Vec3, k: usize) -> (&[Neighbor], QueryStats) {
        infallible(self.try_knn(p, k, false))
    }

    /// Fallible [`knn`](Self::knn) — the serving loop's form: a storage
    /// fault on a paged database is a typed error, and `allow_partial`
    /// searches the surviving pages instead (labeled via
    /// `stats.pages_quarantined`).
    pub fn try_knn(
        &mut self,
        p: Vec3,
        k: usize,
        allow_partial: bool,
    ) -> Result<(&[Neighbor], QueryStats), NeuroError> {
        self.neighbors.clear();
        let k = self.limit.map_or(k, |l| k.min(l));
        let QuerySession { db, population, filter, scratch, neighbors, .. } = self;
        let stats = run_knn(db, p, k, *population, *filter, allow_partial, scratch, neighbors)?;
        Ok((&self.neighbors, stats))
    }

    /// Attach a SCOUT prefetch cursor (monolithic FLAT databases only,
    /// in memory or paged): every subsequent [`range`](Self::range) also
    /// advances a walkthrough step with the given prefetching policy. A
    /// storage fault in that step is the query's error, and
    /// `allow_partial` covers it as it covers the query.
    pub fn with_prefetch(mut self, method: WalkthroughMethod) -> Result<Self, NeuroError> {
        self.cursor = Some(self.db.scout_cursor(method)?);
        Ok(self)
    }

    /// Accumulated walkthrough statistics of the attached prefetch
    /// cursor (`None` unless [`with_prefetch`](Self::with_prefetch) was
    /// called).
    pub fn prefetch_stats(&self) -> Option<&SessionStats> {
        self.cursor.as_ref().map(|c| c.stats())
    }

    /// The plan a [`range`](Self::range) call over `region` would run.
    pub fn explain(&self, region: &Aabb) -> Plan {
        let ip = self.db.index().plan_range(region);
        Plan {
            operation: "range",
            backend: self.db.backend(),
            shards_total: ip.shards_total,
            shards_probed: ip.shards_probed,
            estimated_reads: ip.estimated_reads,
            pushdown_filter: self.filter.is_some() || self.population.is_some(),
            pushdown_limit: self.limit,
            population: self.population.map(|i| self.db.populations()[i as usize].name.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurospatial_model::CircuitBuilder;

    fn db() -> (NeuroDb, neurospatial_model::Circuit) {
        let c = CircuitBuilder::new(6).neurons(10).build();
        let db = NeuroDb::builder()
            .circuit(&c)
            .split_populations("axons", "dendrites", |s| s.neuron % 2 == 0)
            .build()
            .expect("valid");
        (db, c)
    }

    #[test]
    fn collect_matches_legacy_range_query() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 35.0);
        let direct = db.index().range_query(&q);
        let built = db.query().range(q).collect().expect("no population");
        assert_eq!(built.stats, direct.stats);
        assert!(built.segments.iter().map(|s| s.id).eq(direct.segments.iter().map(|s| s.id)));
    }

    #[test]
    fn stream_visits_the_collect_set_in_order() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 30.0);
        let collected = db.query().range(q).collect().expect("ok");
        let mut streamed = Vec::new();
        let stats = db.query().range(q).stream(|s| streamed.push(s.id)).expect("ok");
        assert_eq!(stats, collected.stats);
        assert!(streamed.iter().copied().eq(collected.segments.iter().map(|s| s.id)));
    }

    #[test]
    fn filter_pushes_down_and_limit_stops_early() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 45.0);
        let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(3);
        let filtered = db.query().range(q).filter(&pred).collect().expect("ok");
        assert!(filtered.segments.iter().all(|s| s.neuron % 3 == 0));
        let unfiltered = db.query().range(q).collect().expect("ok");
        let brute: Vec<u64> =
            unfiltered.segments.iter().filter(|s| pred(s)).map(|s| s.id).collect();
        assert!(filtered.segments.iter().map(|s| s.id).eq(brute.iter().copied()));
        assert_eq!(filtered.stats.results as usize, filtered.segments.len());
        // Predicate rejections are tested, not returned.
        assert_eq!(filtered.stats.objects_tested, unfiltered.stats.objects_tested);

        let capped = db.query().range(q).limit(3).collect().expect("ok");
        assert_eq!(capped.segments.len(), 3.min(unfiltered.segments.len()));
        // A pushed-down limit is a prefix of the full emission order…
        assert!(capped.segments.iter().map(|s| s.id).eq(unfiltered
            .segments
            .iter()
            .take(capped.segments.len())
            .map(|s| s.id)));
        // …and reads no more index pages than the full query.
        assert!(capped.stats.nodes_read <= unfiltered.stats.nodes_read);
        assert!(db.query().range(q).limit(0).collect().expect("ok").is_empty());
    }

    #[test]
    fn count_and_fold_match_collect_without_materializing() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 35.0);
        let collected = db.query().range(q).collect().expect("ok");
        assert_eq!(db.query().range(q).count().expect("ok"), collected.segments.len() as u64);

        // Composition applies to the aggregates exactly as to collect().
        let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(2);
        let filtered = db.query().range(q).filter(&pred).limit(4).collect().expect("ok");
        assert_eq!(
            db.query().range(q).filter(&pred).limit(4).count().expect("ok"),
            filtered.segments.len() as u64
        );

        let (sum, stats) = db.query().range(q).fold(0u64, |acc, s| acc + s.id).expect("ok");
        assert_eq!(sum, collected.segments.iter().map(|s| s.id).sum::<u64>());
        assert_eq!(stats, collected.stats);

        assert!(matches!(
            db.query().range(q).in_population("soma").count(),
            Err(NeuroError::UnknownPopulation { .. })
        ));
    }

    #[test]
    fn session_rebinds_composition_per_request() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 40.0);
        let mut session = db.query().session();

        let unbound = db.query().range(q).collect().expect("ok");
        assert_eq!(session.count(&q), unbound.stats);

        session.set_population(Some("axons")).expect("known");
        session.set_limit(Some(5));
        let want = db.query().range(q).in_population("axons").limit(5).collect().expect("ok");
        {
            let (hits, stats) = session.range(&q);
            assert_eq!(stats, want.stats);
            assert!(hits.iter().map(|s| s.id).eq(want.segments.iter().map(|s| s.id)));
        }

        // Unknown names error and leave the previous binding in place.
        assert!(session.set_population(Some("soma")).is_err());
        assert_eq!(session.range(&q).1, want.stats);

        // Clearing restores the unbound behaviour; a filter rebinds too.
        session.set_population(None).expect("clear");
        session.set_limit(None);
        let pred = |s: &NeuronSegment| s.neuron < 3;
        session.set_filter(Some(&pred));
        let filtered = db.query().range(q).filter(&pred).collect().expect("ok");
        assert_eq!(session.count(&q), filtered.stats);
        session.set_filter(None);
        assert_eq!(session.count(&q), unbound.stats);
    }

    #[test]
    fn in_population_restricts_membership() {
        let (db, c) = db();
        let q = Aabb::cube(c.bounds().center(), 60.0);
        let axons = db.query().range(q).in_population("axons").collect().expect("known");
        assert!(!axons.is_empty());
        assert!(axons.segments.iter().all(|s| s.neuron % 2 == 0));
        assert!(matches!(
            db.query().range(q).in_population("soma").collect(),
            Err(NeuroError::UnknownPopulation { .. })
        ));
    }

    #[test]
    fn knn_collect_matches_legacy_and_filters() {
        let (db, c) = db();
        let p = c.segments()[3].geom.center();
        let (direct, direct_stats) = db.index().knn(p, 7);
        let (built, stats) = db.query().knn(p, 7).collect().expect("ok");
        assert_eq!(stats, direct_stats);
        assert!(built.iter().map(|n| n.segment.id).eq(direct.iter().map(|n| n.segment.id)));

        let (dendrites, _) =
            db.query().knn(p, 5).in_population("dendrites").collect().expect("known");
        assert_eq!(dendrites.len(), 5);
        assert!(dendrites.iter().all(|n| n.segment.neuron % 2 == 1));
        // Exactness: the filtered answer is the brute-force k among matches.
        let mut want: Vec<(f64, u64)> = c
            .segments()
            .iter()
            .filter(|s| s.neuron % 2 == 1)
            .map(|s| (s.aabb().min_distance_to_point(p), s.id))
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for (n, (d, id)) in dendrites.iter().zip(&want) {
            assert_eq!(n.segment.id, *id);
            assert!((n.distance - d).abs() < 1e-12);
        }
    }

    #[test]
    fn touching_matches_the_join_engine() {
        let (db, _) = db();
        let via_builder =
            db.query().touching("dendrites", 2.0).in_population("axons").collect().expect("ok");
        let axons = db.population("axons").expect("known");
        let dendrites = db.population("dendrites").expect("known");
        let engine = db.join_config().join(axons, dendrites, 2.0);
        assert_eq!(via_builder.sorted_pairs(), engine.sorted_pairs());
        // Filtered left side: pair indices still address the unfiltered slice.
        let pred = |s: &NeuronSegment| s.neuron < 4;
        let filtered = db
            .query()
            .touching("dendrites", 2.0)
            .in_population("axons")
            .filter(&pred)
            .collect()
            .expect("ok");
        assert!(filtered.pairs.iter().all(|&(i, _)| pred(&axons[i as usize])));
        let want: Vec<(u32, u32)> =
            engine.pairs.iter().copied().filter(|&(i, _)| pred(&axons[i as usize])).collect();
        assert_eq!(filtered.sorted_pairs(), {
            let mut w = want;
            w.sort_unstable();
            w
        });
        // Limit caps the pair count.
        let capped = db.query().touching("dendrites", 2.0).limit(2).collect().expect("ok");
        assert!(capped.pairs.len() <= 2);
        assert_eq!(capped.stats.results as usize, capped.pairs.len());
        // ... and is not pushed into the join, which the plan says.
        let limited = db.query().touching("dendrites", 2.0).limit(2);
        assert_eq!(limited.explain().pushdown_limit, None);
    }

    #[test]
    fn touching_stream_delivers_the_collect_sequence() {
        let (db, _) = db();
        let touching = || db.query().touching("dendrites", 12.0).in_population("axons");
        let streamed = |q: TouchingQuery<'_>| {
            let mut pairs = Vec::new();
            let stats = q.stream(|i, j| pairs.push((i, j))).expect("ok");
            assert_eq!(stats.results as usize, pairs.len());
            pairs
        };
        let all = touching().collect().expect("ok");
        assert!(all.pairs.len() >= 4, "the fixture has touching pairs: {}", all.pairs.len());
        assert_eq!(streamed(touching()), all.pairs);
        let cap = all.pairs.len() / 2;
        assert_eq!(streamed(touching().limit(cap)), all.pairs[..cap]);
        let axons = db.population("axons").expect("known");
        let parity = axons[all.pairs[0].0 as usize].id % 2;
        let pred = |s: &NeuronSegment| s.id % 2 == parity;
        let filtered = touching().filter(&pred).collect().expect("ok");
        assert!(!filtered.pairs.is_empty() && filtered.pairs.len() < all.pairs.len());
        assert_eq!(streamed(touching().filter(&pred)), filtered.pairs);
    }

    #[test]
    fn along_path_runs_and_errors_on_tree_backends() {
        let (db, c) = db();
        let path = NavigationPath::along_random_branch(&c, 3, 20.0, 8.0).expect("path");
        let stats =
            db.query().along_path(&path).method(WalkthroughMethod::Scout).run().expect("flat");
        assert_eq!(stats.steps.len(), path.queries.len());
        let plan = db.query().along_path(&path).explain();
        assert_eq!(plan.operation, "walkthrough");
        assert!(plan.estimated_reads > 0);

        let tree =
            NeuroDb::builder().circuit(&c).backend(IndexBackend::StrPacked).build().expect("valid");
        assert!(matches!(
            tree.query().along_path(&path).run(),
            Err(NeuroError::WalkthroughUnsupported { .. })
        ));
    }

    #[test]
    fn session_reuses_buffers_and_matches_collect() {
        let (db, c) = db();
        let pred = |s: &NeuronSegment| s.neuron.is_multiple_of(2);
        let mut session = db.query().range(Aabb::EMPTY).filter(&pred).session().expect("ok");
        for half in [10.0, 25.0, 40.0] {
            let q = Aabb::cube(c.bounds().center(), half);
            let want = db.query().range(q).filter(&pred).collect().expect("ok");
            let (hits, stats) = session.range(&q);
            assert_eq!(stats, want.stats, "half={half}");
            assert!(hits.iter().map(|s| s.id).eq(want.segments.iter().map(|s| s.id)));
        }
        let p = c.segments()[0].geom.center();
        let (neighbors, _) = session.knn(p, 4);
        assert_eq!(neighbors.len(), 4);
        assert!(neighbors.iter().all(|n| n.segment.neuron % 2 == 0));
    }

    #[test]
    fn session_scout_binding_accumulates_prefetch_stats() {
        let (db, c) = db();
        let mut session =
            db.query().session().with_prefetch(WalkthroughMethod::Scout).expect("flat backend");
        assert_eq!(session.prefetch_stats().expect("bound").steps.len(), 0);
        for i in 0..4 {
            let q = Aabb::cube(c.segments()[i * 9].geom.center(), 18.0);
            let _ = session.range(&q);
        }
        let stats = session.prefetch_stats().expect("bound");
        assert_eq!(stats.steps.len(), 4);
        assert!(stats.total_demand_hits + stats.total_demand_misses > 0);
        // Non-paged backends refuse the binding.
        let tree =
            NeuroDb::builder().circuit(&c).backend(IndexBackend::RPlus).build().expect("valid");
        assert!(matches!(
            tree.query()
                .range(Aabb::EMPTY)
                .session()
                .expect("ok")
                .with_prefetch(WalkthroughMethod::Scout),
            Err(NeuroError::WalkthroughUnsupported { .. })
        ));
    }

    #[test]
    fn explain_reports_backend_pruning_and_pushdown() {
        let c = CircuitBuilder::new(4).neurons(8).build();
        let sharded = NeuroDb::builder()
            .circuit(&c)
            .backend(IndexBackend::StrPacked)
            .shards(5)
            .build()
            .expect("valid");
        // A query far outside the data prunes every shard.
        let far = sharded.query().range(Aabb::cube(Vec3::splat(1e7), 1.0)).explain();
        assert_eq!(far.shards_total, 5);
        assert_eq!(far.shards_probed, 0);
        assert_eq!(far.estimated_reads, 0);
        // A local query touches fewer shards than the whole dataset does.
        let local = sharded.query().range(Aabb::cube(c.segments()[0].geom.center(), 5.0)).explain();
        let global = sharded.query().range(c.bounds()).explain();
        assert!(local.shards_probed >= 1);
        assert!(local.shards_probed <= global.shards_probed);
        assert_eq!(global.shards_probed, 5);

        let pred = |s: &NeuronSegment| s.neuron == 0;
        let plan = sharded.query().range(c.bounds()).filter(&pred).limit(10).explain();
        assert!(plan.pushdown_filter);
        assert_eq!(plan.pushdown_limit, Some(10));
        assert_eq!(plan.backend, IndexBackend::StrPacked);
        let text = plan.to_string();
        assert!(text.contains("range via str-packed"), "{text}");
        assert!(text.contains("filter pushed down"), "{text}");

        // FLAT plans count real pages.
        let flat = NeuroDb::from_circuit(&c);
        let fp = flat.query().range(c.bounds()).explain();
        let pages = flat.flat_index().expect("flat").page_count() as u64;
        assert!(fp.estimated_reads >= pages, "{} >= {pages}", fp.estimated_reads);
        // KNN plans describe the first expanding cube.
        let kp = flat.query().knn(c.bounds().center(), 3).explain();
        assert_eq!(kp.operation, "knn");
    }
}
