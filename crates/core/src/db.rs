//! The high-level database facade tying the three systems together.
//!
//! Construction goes through [`NeuroDbBuilder`]: pick a data source, an
//! index backend ([`IndexBackend`], by value or by name) and how segments
//! split into named populations for the synapse join.

use crate::delta::{DeltaBuffer, WriteOp};
use crate::error::NeuroError;
use crate::index::{spill_flat, IndexBackend, IndexParams, SpatialIndex};
use crate::live::{LiveCore, LiveGen};
pub use crate::live::{WalHealth, WriteAck};
use crate::query::Query;
use neurospatial_flat::FlatIndex;
use neurospatial_geom::Aabb;
use neurospatial_model::{Circuit, NavigationPath, NeuronSegment};
use neurospatial_scout::{
    ExtrapolationPrefetcher, HilbertPrefetcher, MarkovPrefetcher, NoPrefetch, OocConfig, OocCursor,
    OocFlatIndex, Prefetcher, QueryTrace, ScoutPrefetcher, SessionConfig, SessionStats,
};
use neurospatial_storage::{EvictionPolicy, FaultLog, FaultPlan, FileLog, LogIo};
use neurospatial_touch::{JoinScratch, TouchJoin};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};

/// Tuning knobs of a [`NeuroDb`].
#[derive(Debug, Clone, Copy)]
pub struct NeuroDbConfig {
    /// Index granularity (FLAT page capacity / R-Tree fan-out).
    pub page_capacity: usize,
    /// Space partitions for the sharded executor (1 = monolithic index).
    pub shards: usize,
    /// Worker threads for sharded query execution.
    pub threads: usize,
    /// Walkthrough settings of an in-memory FLAT database: pool size,
    /// disk cost model and think time of the modelled device each
    /// walkthrough runs on. A paged database walks its own pool and file
    /// and reads none of them.
    pub session: SessionConfig,
    /// Distance-join engine configuration.
    pub join: TouchJoin,
}

impl Default for NeuroDbConfig {
    fn default() -> Self {
        NeuroDbConfig {
            page_capacity: 64,
            shards: 1,
            threads: 1,
            session: SessionConfig::default(),
            join: TouchJoin::default(),
        }
    }
}

/// Which prefetching policy a walkthrough uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkthroughMethod {
    /// No prefetching: every page faults on demand.
    None,
    /// Storage-order (Hilbert curve) prefetching.
    Hilbert,
    /// Camera-motion extrapolation.
    Extrapolation,
    /// History-based Markov-chain prediction (the paper's \[8\]); cold on
    /// first traversals of massive models.
    Markov,
    /// SCOUT content-aware prefetching.
    Scout,
}

impl WalkthroughMethod {
    /// All methods, in the order the experiment tables report them.
    pub const ALL: [WalkthroughMethod; 5] = [
        WalkthroughMethod::None,
        WalkthroughMethod::Hilbert,
        WalkthroughMethod::Extrapolation,
        WalkthroughMethod::Markov,
        WalkthroughMethod::Scout,
    ];

    /// Canonical name — matches the `method` string in [`SessionStats`].
    pub fn name(&self) -> &'static str {
        match self {
            WalkthroughMethod::None => "none",
            WalkthroughMethod::Hilbert => "hilbert",
            WalkthroughMethod::Extrapolation => "extrapolation",
            WalkthroughMethod::Markov => "markov",
            WalkthroughMethod::Scout => "scout",
        }
    }

    /// Instantiate the corresponding prefetcher.
    pub fn prefetcher(&self) -> Box<dyn Prefetcher> {
        match self {
            WalkthroughMethod::None => Box::new(NoPrefetch),
            WalkthroughMethod::Hilbert => Box::new(HilbertPrefetcher::default()),
            WalkthroughMethod::Extrapolation => Box::new(ExtrapolationPrefetcher::default()),
            WalkthroughMethod::Markov => Box::new(MarkovPrefetcher::default()),
            WalkthroughMethod::Scout => Box::new(ScoutPrefetcher::default()),
        }
    }
}

impl fmt::Display for WalkthroughMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for WalkthroughMethod {
    type Err = NeuroError;

    fn from_str(s: &str) -> Result<Self, NeuroError> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "no-prefetch" => Ok(WalkthroughMethod::None),
            "hilbert" => Ok(WalkthroughMethod::Hilbert),
            "extrapolation" | "extrapolate" => Ok(WalkthroughMethod::Extrapolation),
            "markov" => Ok(WalkthroughMethod::Markov),
            "scout" => Ok(WalkthroughMethod::Scout),
            _ => Err(NeuroError::InvalidConfig(format!(
                "unknown walkthrough method '{s}' (known: {})",
                WalkthroughMethod::ALL.map(|m| m.name()).join(", ")
            ))),
        }
    }
}

/// Aggregate statistics of a spatial region — what §2.1 of the paper
/// describes FLAT being used for: "to compute statistics (tissue density
/// etc.) of the models they build".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionStats {
    /// Segments intersecting the region.
    pub count: usize,
    /// Total axis (cable) length of those segments (µm).
    pub total_cable_length: f64,
    /// Total membrane volume approximation: Σ π r² ℓ (µm³).
    pub total_cable_volume: f64,
    /// Mean capsule radius (µm); 0 if the region is empty.
    pub mean_radius: f64,
    /// Segments per µm³ of the queried region.
    pub density: f64,
    /// Distinct neurons represented.
    pub neuron_count: usize,
}

/// One named segment population (e.g. "axons" / "dendrites" for the
/// synapse join).
pub struct Population {
    pub name: String,
    pub segments: Vec<NeuronSegment>,
}

/// How the builder partitions segments into populations.
enum PopulationSpec {
    /// Two named populations split by a predicate (`true` → first).
    Split { first: String, second: String, pred: Box<dyn Fn(&NeuronSegment) -> bool> },
    /// Arbitrarily many populations keyed by a label function; populations
    /// are ordered by first appearance.
    Labels(Box<dyn Fn(&NeuronSegment) -> String>),
}

impl PopulationSpec {
    fn partition(&self, segments: &[NeuronSegment]) -> Vec<Population> {
        match self {
            PopulationSpec::Split { first, second, pred } => {
                // Counted first, so that each population holds its
                // segments and no spare slots.
                let n = segments.iter().filter(|s| pred(s)).count();
                let (mut a, mut b) =
                    (Vec::with_capacity(n), Vec::with_capacity(segments.len() - n));
                for s in segments {
                    if pred(s) {
                        a.push(*s);
                    } else {
                        b.push(*s);
                    }
                }
                vec![
                    Population { name: first.clone(), segments: a },
                    Population { name: second.clone(), segments: b },
                ]
            }
            PopulationSpec::Labels(label_of) => {
                let mut pops: Vec<Population> = Vec::new();
                for s in segments {
                    let name = label_of(s);
                    match pops.iter_mut().find(|p| p.name == name) {
                        Some(p) => p.segments.push(*s),
                        None => pops.push(Population { name, segments: vec![*s] }),
                    }
                }
                pops.iter_mut().for_each(|p| p.segments.shrink_to_fit());
                pops
            }
        }
    }
}

/// Builder for [`NeuroDb`]: data source, backend, populations, tuning.
///
/// ```
/// use neurospatial::prelude::*;
///
/// let circuit = CircuitBuilder::new(7).neurons(6).build();
/// let db = NeuroDb::builder()
///     .circuit(&circuit)
///     .backend(IndexBackend::StrPacked)
///     .split_populations("axons", "dendrites", |s| s.neuron % 2 == 0)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(db.backend(), IndexBackend::StrPacked);
/// assert_eq!(db.population_names(), vec!["axons", "dendrites"]);
/// ```
pub struct NeuroDbBuilder {
    segments: Option<Vec<NeuronSegment>>,
    backend: IndexBackend,
    backend_name: Option<String>,
    config: NeuroDbConfig,
    populations: Option<PopulationSpec>,
    paged: bool,
    page_file: Option<PathBuf>,
    ooc: OocConfig,
    durable: Option<PathBuf>,
    refreeze_threshold: usize,
    wal_faults: Option<FaultPlan>,
}

impl Default for NeuroDbBuilder {
    fn default() -> Self {
        NeuroDbBuilder {
            segments: None,
            backend: IndexBackend::Flat,
            backend_name: None,
            config: NeuroDbConfig::default(),
            populations: None,
            paged: false,
            page_file: None,
            ooc: OocConfig::default(),
            durable: None,
            refreeze_threshold: 1024,
            wal_faults: None,
        }
    }
}

impl NeuroDbBuilder {
    /// Use a generated circuit's segments as the data source.
    pub fn circuit(mut self, circuit: &Circuit) -> Self {
        self.segments = Some(circuit.segments().to_vec());
        self
    }

    /// Use raw segments as the data source (an empty vector is a valid,
    /// empty database).
    pub fn segments(mut self, segments: Vec<NeuronSegment>) -> Self {
        self.segments = Some(segments);
        self
    }

    /// Select the index backend by value.
    pub fn backend(mut self, backend: IndexBackend) -> Self {
        self.backend = backend;
        self.backend_name = None;
        self
    }

    /// Select the index backend by name (e.g. from a CLI flag); parsing
    /// errors surface at [`build`](Self::build). A `sharded:` prefix
    /// (e.g. `"sharded:rtree"`) selects the sharded executor over the
    /// named backend, raising the shard count to at least 2 if
    /// [`shards`](Self::shards) was not set.
    pub fn backend_named<S: Into<String>>(mut self, name: S) -> Self {
        self.backend_name = Some(name.into());
        self
    }

    /// Index granularity (FLAT page capacity / R-Tree fan-out).
    pub fn page_capacity(mut self, capacity: usize) -> Self {
        self.config.page_capacity = capacity;
        self
    }

    /// Space-partition the dataset into `shards` Hilbert-ordered shards,
    /// one backend index per shard
    /// ([`ShardedIndex`](crate::ShardedIndex)). 1 (the default) keeps a
    /// monolithic index; 0 is rejected at [`build`](Self::build).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Worker threads for sharded query execution (also rejects 0 at
    /// [`build`](Self::build); ignored by monolithic indexes).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Spill the FLAT index to a page file on disk and query it
    /// out-of-core through the real pager: segments live in a
    /// checksummed page file, a bounded frame pool keeps
    /// [`frame_budget`](Self::frame_budget) pages resident, and
    /// [`prefetch_workers`](Self::prefetch_workers) background threads
    /// read pages ahead of the exploration cursor. Results and logical
    /// statistics stay byte-identical to the in-memory FLAT backend;
    /// the I/O shows up in [`QueryStats`](crate::QueryStats)'s `cache_*` fields.
    ///
    /// Only valid with the (monolithic) FLAT backend — any other
    /// combination is rejected at [`build`](Self::build). The page file
    /// is process-unique in the temp directory and deleted on drop
    /// unless [`page_file`](Self::page_file) names one explicitly.
    pub fn paged(mut self, paged: bool) -> Self {
        self.paged = paged;
        self
    }

    /// Persist the paged index to an explicit page file (implies
    /// [`paged`](Self::paged)); the file survives the database, so a
    /// later session can reopen it without re-indexing.
    pub fn page_file<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.page_file = Some(path.into());
        self.paged = true;
        self
    }

    /// Frame budget of the paged index's buffer pool, in pages. `0`
    /// (the default) caches every page — still checksum-verified,
    /// still reading through the pager. Only meaningful with
    /// [`paged`](Self::paged).
    pub fn frame_budget(mut self, frames: usize) -> Self {
        self.ooc.frame_budget = frames;
        self
    }

    /// Eviction policy of the paged index's frame pool.
    pub fn eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.ooc.eviction = policy;
        self
    }

    /// Background prefetch workers for the paged index (`0` disables
    /// prefetching; every page read is then a demand read).
    pub fn prefetch_workers(mut self, workers: usize) -> Self {
        self.ooc.prefetch_workers = workers;
        self
    }

    /// Walkthrough settings of an in-memory FLAT database (see
    /// [`NeuroDbConfig::session`]).
    pub fn session(mut self, session: SessionConfig) -> Self {
        self.config.session = session;
        self
    }

    /// Distance-join engine configuration.
    pub fn join(mut self, join: TouchJoin) -> Self {
        self.config.join = join;
        self
    }

    /// Full configuration in one call (overwrites the three above).
    pub fn config(mut self, config: NeuroDbConfig) -> Self {
        self.config = config;
        self
    }

    /// Open the database in **durable live-ingest** mode, backed by the
    /// write-ahead log at `path`.
    ///
    /// If the log already holds history (a previous session's checkpoint
    /// and/or committed writes), the database recovers from it and the
    /// builder's data source is ignored — the WAL is the source of truth
    /// on reopen, and recovery reconstructs exactly the acknowledged
    /// prefix. On a fresh log the builder's segments become the initial
    /// checkpoint.
    ///
    /// Live databases accept [`insert_segment`](NeuroDb::insert_segment)
    /// / [`remove_segment`](NeuroDb::remove_segment); queries merge the
    /// frozen base with the in-memory delta. Incompatible with
    /// [`paged`](Self::paged); walkthroughs are unsupported in live mode
    /// (they need the frozen page space).
    pub fn durable<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.durable = Some(path.into());
        self
    }

    /// How many buffered write ops trigger a background re-freeze when
    /// [`maybe_refreeze`](NeuroDb::maybe_refreeze) polls (default 1024).
    /// Only meaningful with [`durable`](Self::durable).
    pub fn refreeze_threshold(mut self, ops: usize) -> Self {
        self.refreeze_threshold = ops.max(1);
        self
    }

    /// Route WAL writes through a fault-injection plan (crash at a byte
    /// offset, bit flips) — the chaos tests' knob.
    /// Only meaningful with [`durable`](Self::durable).
    pub fn wal_faults(mut self, plan: FaultPlan) -> Self {
        self.wal_faults = Some(plan);
        self
    }

    /// Two named populations split by `pred` (`true` → `first`). A
    /// database has no populations unless they are declared here or by
    /// [`populations_by`](Self::populations_by), and each declared
    /// population holds its own copy of its segments.
    pub fn split_populations<S1, S2, F>(mut self, first: S1, second: S2, pred: F) -> Self
    where
        S1: Into<String>,
        S2: Into<String>,
        F: Fn(&NeuronSegment) -> bool + 'static,
    {
        self.populations = Some(PopulationSpec::Split {
            first: first.into(),
            second: second.into(),
            pred: Box::new(pred),
        });
        self
    }

    /// Arbitrarily many populations, named by a label function (ordered by
    /// first appearance in segment order).
    pub fn populations_by<F>(mut self, label_of: F) -> Self
    where
        F: Fn(&NeuronSegment) -> String + 'static,
    {
        self.populations = Some(PopulationSpec::Labels(Box::new(label_of)));
        self
    }

    /// Finalise: build the index (sharded when `shards > 1`) and
    /// partition the declared populations.
    pub fn build(self) -> Result<NeuroDb, NeuroError> {
        // Register every hot-path metric now so the first measured query
        // pays no first-use allocation.
        crate::metrics::warm_metrics();
        let mut segments = self.segments.ok_or(NeuroError::MissingSegments)?;
        // The same rule as the write path: a non-finite box matches no
        // query, so it must not get into an index.
        if let Some(bad) = segments.iter().find(|s| !s.geom.is_valid()) {
            return Err(NeuroError::InvalidConfig(format!(
                "segment {} has non-finite or negative geometry",
                bad.id
            )));
        }
        let mut config = self.config;
        let (backend, name_requests_sharding) = match &self.backend_name {
            Some(name) => match name.strip_prefix("sharded:") {
                Some(inner) => (inner.parse::<IndexBackend>()?, true),
                None => (name.parse::<IndexBackend>()?, false),
            },
            None => (self.backend, false),
        };
        // FLAT and the R+-Tree accept any page size >= 1; the R-Tree
        // fan-out is structurally >= 4.
        let min_capacity = match backend {
            IndexBackend::Flat | IndexBackend::RPlus => 1,
            IndexBackend::RTree | IndexBackend::StrPacked => 4,
        };
        if config.page_capacity < min_capacity {
            return Err(NeuroError::InvalidConfig(format!(
                "page_capacity must be >= {min_capacity} for the '{backend}' backend, got {}",
                config.page_capacity
            )));
        }
        // Validate the configured counts *before* the name-driven bump so
        // an explicit `.shards(0)` is reported, never masked.
        if config.shards == 0 || config.threads == 0 {
            return Err(NeuroError::InvalidConfig(format!(
                "shards and threads must be >= 1, got shards={} threads={}",
                config.shards, config.threads
            )));
        }
        if name_requests_sharding {
            // A `sharded:` name opts into sharding; keep an explicitly
            // configured shard count, else pick the smallest genuinely
            // sharded layout.
            config.shards = config.shards.max(2);
        }
        if self.durable.is_some() && self.paged {
            return Err(NeuroError::InvalidConfig(
                "durable (live) mode and paged (out-of-core) mode are mutually exclusive".into(),
            ));
        }
        if self.paged && (backend != IndexBackend::Flat || config.shards > 1) {
            return Err(NeuroError::InvalidConfig(format!(
                "paged (out-of-core) mode needs the monolithic 'flat' backend, \
                 got backend='{backend}' shards={}",
                config.shards
            )));
        }
        let params = IndexParams {
            page_capacity: config.page_capacity,
            shards: config.shards,
            threads: config.threads,
        };
        // Durable mode: recover from the WAL before anything else. When
        // the log holds history the recovered state *replaces* the
        // builder's data source, and the populations partition it.
        let live = match &self.durable {
            Some(wal_path) => {
                let file = FileLog::open(wal_path)?;
                let log: Box<dyn LogIo> = match &self.wal_faults {
                    Some(plan) => Box::new(FaultLog::new(file, plan.clone())),
                    None => Box::new(file),
                };
                let seed = std::mem::take(&mut segments);
                Some(LiveCore::recover(log, seed, backend, &params, self.refreeze_threshold)?)
            }
            None => None,
        };
        let populations = self.populations.map_or_else(Vec::new, |p| match &live {
            Some(core) => p.partition(core.pin().segments()),
            None => p.partition(&segments),
        });
        // Population names resolve through a map instead of a linear
        // scan. Duplicate names are rejected — they would make every
        // name-keyed lookup (and the name-resolved synapse join) silently
        // ambiguous.
        let mut population_index: HashMap<String, usize> = HashMap::new();
        for (i, p) in populations.iter().enumerate() {
            if population_index.insert(p.name.clone(), i).is_some() {
                return Err(NeuroError::InvalidConfig(format!(
                    "duplicate population name '{}'",
                    p.name
                )));
            }
        }
        let index = match live {
            Some(core) => DbIndex::Live(Box::new(core)),
            None if self.paged => DbIndex::Paged(Box::new(spill_flat(
                segments,
                config.page_capacity,
                self.page_file.as_deref(),
                self.ooc,
            )?)),
            None => match (backend, config.shards > 1) {
                (IndexBackend::Flat, false) => {
                    DbIndex::Flat(Arc::new(SpatialIndex::build(segments, &params)))
                }
                (other, false) => DbIndex::Boxed(other.build(segments, &params)),
                (other, true) => DbIndex::Boxed(other.build_sharded(segments, &params)),
            },
        };
        Ok(NeuroDb {
            index,
            backend,
            config,
            populations,
            population_index,
            population_of_id: OnceLock::new(),
            join_scratch: Mutex::default(),
        })
    }
}

/// The index storage: monolithic FLAT is kept by its own type, shared
/// with the view each walkthrough over it pages through; the out-of-core
/// variant owns the page file and frame pool; every other backend,
/// sharded FLAT included, is a plain boxed [`SpatialIndex`].
enum DbIndex {
    Flat(Arc<FlatIndex<NeuronSegment>>),
    Paged(Box<OocFlatIndex>),
    Boxed(Box<dyn SpatialIndex>),
    Live(Box<LiveCore>),
}

/// What a reader traverses: a frozen database's index is a plain borrow
/// for the database's lifetime; a live database's is whichever
/// generation the swap holds when the reader loads it.
enum IndexView<'a> {
    Frozen(&'a (dyn SpatialIndex + 'static)),
    Live(&'a LiveCore),
}

impl DbIndex {
    // Never inlined: the `&I` → `&dyn SpatialIndex` coercions below are
    // what instantiates each backend's vtable and every method behind
    // it. Inlined into a generic caller that a downstream crate
    // instantiates (`index_as::<T>`), they are all instantiated again
    // there: +245 KB in the server crate's rlib, +117 KB of text in the
    // benchmark binary, and different inlining in code this does not
    // touch.
    #[inline(never)]
    fn view(&self) -> IndexView<'_> {
        match self {
            DbIndex::Flat(flat) => IndexView::Frozen(flat.as_ref()),
            DbIndex::Paged(paged) => IndexView::Frozen(paged.as_ref()),
            DbIndex::Boxed(b) => IndexView::Frozen(b.as_ref()),
            DbIndex::Live(core) => IndexView::Live(core),
        }
    }
}

/// The index of a [`NeuroDb`], as [`NeuroDb::index`] hands it out;
/// dereferences to [`dyn SpatialIndex`](SpatialIndex).
///
/// On a frozen database this is a borrow of the one index the database
/// owns. On a live database it pins the generation that was current
/// when `index()` was called: the guard keeps answering from that
/// snapshot however many re-freezes run meanwhile, and the generation is
/// freed when the guard drops if a swap has replaced it by then. Hold a
/// guard for one piece of work, not for the database's lifetime: each
/// one held across a swap keeps a whole index resident.
pub struct IndexRef<'a>(Pinned<'a>);

enum Pinned<'a> {
    Frozen(&'a (dyn SpatialIndex + 'static)),
    Live(Arc<LiveGen>),
}

impl std::ops::Deref for IndexRef<'_> {
    type Target = dyn SpatialIndex;

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            Pinned::Frozen(index) => *index,
            Pinned::Live(gen) => gen.index(),
        }
    }
}

/// A spatial database over one set of neuron segments.
///
/// Owns one [`SpatialIndex`] backend (all range queries run through it)
/// and exposes the TOUCH join for synapse placement plus SCOUT
/// walkthroughs (FLAT backend only). Beside the index it holds only what
/// was asked for: the populations the builder declared, each a copy of
/// its segments, and a segment id → population map that the first
/// population-restricted range or kNN query builds. A database that
/// declares no populations holds its segments once.
///
/// The database keeps one join scratch, which every `touching` query
/// reuses and which is freed with the database. After the reference join
/// (445 584 × 445 488 segments of dense tissue, ε = 1 µm, two workers)
/// it holds about 22 MB by [`JoinStats::aux_memory_bytes`] less the
/// A-tree's share, the workers' buffers and the pooled pair buffers of
/// at most 8 tasks included; none of it grows with the pairs a join
/// finds.
///
/// [`JoinStats::aux_memory_bytes`]: neurospatial_touch::JoinStats::aux_memory_bytes
pub struct NeuroDb {
    index: DbIndex,
    backend: IndexBackend,
    config: NeuroDbConfig,
    populations: Vec<Population>,
    /// Population name → position in `populations` (built once in
    /// `build()`; `population()` is O(1), not a linear scan).
    population_index: HashMap<String, usize>,
    /// Segment id → population position (the membership test
    /// `in_population` pushes below range and kNN traversals), built by
    /// the first query that needs it.
    population_of_id: OnceLock<HashMap<u64, u32>>,
    /// The TOUCH join's transient state, kept between joins so that a
    /// join reuses the buffers the one before it grew.
    join_scratch: Mutex<JoinScratch>,
}

impl fmt::Debug for NeuroDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NeuroDb")
            .field("backend", &self.backend)
            .field("len", &self.len())
            .field("populations", &self.population_names())
            .finish_non_exhaustive()
    }
}

impl NeuroDb {
    /// Start building a database.
    pub fn builder() -> NeuroDbBuilder {
        NeuroDbBuilder::default()
    }

    /// Open a database over a generated circuit with default settings
    /// (FLAT backend) and two declared populations, "even" and "odd" by
    /// neuron-id parity, which hold a second copy of the segments.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        NeuroDb::builder()
            .circuit(circuit)
            .split_populations("even", "odd", |s| s.neuron % 2 == 0)
            .build()
            .expect("default configuration is valid")
    }

    /// Number of indexed segments. Live databases count the frozen base
    /// plus the net effect of buffered writes.
    pub fn len(&self) -> usize {
        match self.index.view() {
            IndexView::Live(core) => core.len(),
            IndexView::Frozen(index) => index.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which backend this database was built with.
    pub fn backend(&self) -> IndexBackend {
        self.backend
    }

    /// The underlying index, backend-agnostic. For live databases this
    /// is the *frozen base generation* current at the time of the call —
    /// it excludes writes still buffered in the delta (queries through
    /// [`query`](Self::query) merge both tiers), and the returned
    /// [`IndexRef`] keeps that generation alive, and keeps answering from
    /// it, until the guard is dropped. Nothing else retains a replaced
    /// generation: it is freed with its last guard or in-flight query.
    pub fn index(&self) -> IndexRef<'_> {
        IndexRef(match self.index.view() {
            IndexView::Frozen(index) => Pinned::Frozen(index),
            IndexView::Live(core) => Pinned::Live(core.pin()),
        })
    }

    /// The out-of-core FLAT engine, if this database was built with
    /// [`NeuroDbBuilder::paged`] — frame-pool counters, page-file path,
    /// prefetcher state. `None` for in-memory and live databases. Sugar
    /// for [`index_as`](Self::index_as).
    ///
    /// ```
    /// use neurospatial::prelude::*;
    ///
    /// let circuit = CircuitBuilder::new(7).neurons(8).build();
    /// // Spill to a temp page file, keep at most 4 pages in RAM.
    /// let db = NeuroDb::builder()
    ///     .circuit(&circuit)
    ///     .page_capacity(32)
    ///     .paged(true)
    ///     .frame_budget(4)
    ///     .build()
    ///     .expect("temp dir is writable");
    /// let paged = db.paged_index().expect("built paged");
    /// let out = paged.range_query(&Aabb::cube(circuit.bounds().center(), 20.0));
    /// assert_eq!(out.stats.results as usize, out.segments.len());
    /// // Physical I/O shows up in the unified statistics.
    /// assert!(out.stats.cache_hits + out.stats.cache_misses >= out.stats.nodes_read / 2);
    /// ```
    pub fn paged_index(&self) -> Option<&OocFlatIndex> {
        self.index_as::<OocFlatIndex>()
    }

    /// The concrete backend behind this database, by type — the generic
    /// [`SpatialIndex::as_any`] downcast, so *every* backend is reachable
    /// without the facade knowing concrete types:
    ///
    /// ```
    /// use neurospatial::prelude::*;
    ///
    /// let c = CircuitBuilder::new(1).neurons(3).build();
    /// let db = NeuroDb::builder().circuit(&c).backend(IndexBackend::RPlus).build().unwrap();
    /// let rplus = db.index_as::<RPlusTree<NeuronSegment>>().expect("R+ backend");
    /// assert!(rplus.replication_factor() >= 1.0);
    /// assert!(db.index_as::<FlatIndex<NeuronSegment>>().is_none());
    /// ```
    ///
    /// `None` on a live database, whatever its backend: a plain borrow
    /// cannot outlive the next re-freeze. Use [`index`](Self::index),
    /// whose guard pins the generation it was taken from.
    pub fn index_as<T: SpatialIndex>(&self) -> Option<&T> {
        match self.index.view() {
            IndexView::Frozen(index) => index.as_any().downcast_ref::<T>(),
            IndexView::Live(_) => None,
        }
    }

    /// The FLAT index, if this database uses the **monolithic** FLAT
    /// backend (page-level statistics, neighborhood graph inspection).
    /// `None` for every other backend, including sharded FLAT — its
    /// pages are spread over shard-local indexes — and for live
    /// databases. Sugar for [`index_as`](Self::index_as).
    pub fn flat_index(&self) -> Option<&FlatIndex<NeuronSegment>> {
        self.index_as::<FlatIndex<NeuronSegment>>()
    }

    /// Shard count of the underlying index (1 for monolithic backends).
    pub fn shard_count(&self) -> usize {
        match &self.index {
            DbIndex::Flat(_) | DbIndex::Paged(_) => 1,
            DbIndex::Boxed(_) | DbIndex::Live(_) => self.config.shards,
        }
    }

    /// Bounding box of the indexed data. Live databases grow the box to
    /// cover buffered delta inserts as well.
    pub fn bounds(&self) -> Aabb {
        match self.index.view() {
            IndexView::Live(core) => core.bounds(),
            IndexView::Frozen(index) => index.bounds(),
        }
    }

    /// Open the unified query builder — one composable entry point for
    /// every workload the database serves:
    ///
    /// ```
    /// use neurospatial::prelude::*;
    ///
    /// let circuit = CircuitBuilder::new(3).neurons(6).build();
    /// let db = NeuroDb::from_circuit(&circuit);
    /// let region = Aabb::cube(circuit.bounds().center(), 30.0);
    ///
    /// // Collect, stream (never materializes), or explain:
    /// let out = db.query().range(region).collect().unwrap();
    /// let mut n = 0;
    /// db.query().range(region).stream(|_seg| n += 1).unwrap();
    /// assert_eq!(n, out.len());
    /// let plan = db.query().range(region).explain();
    /// assert_eq!(plan.backend, IndexBackend::Flat);
    /// ```
    pub fn query(&self) -> Query<'_> {
        Query::new(self)
    }

    /// Whether this database was opened in durable live-ingest mode.
    pub fn is_live(&self) -> bool {
        self.live().is_some()
    }

    /// Durably insert one segment. The returned [`WriteAck`] means the
    /// op reached the WAL and was fsynced — a crash after this call
    /// replays it. Errors with [`NeuroError::WriteUnsupported`] on
    /// non-durable databases and [`NeuroError::WriteRejected`] (nothing
    /// logged) for duplicate ids or non-finite geometry.
    pub fn insert_segment(&self, segment: NeuronSegment) -> Result<WriteAck, NeuroError> {
        self.write_batch(&[WriteOp::Insert(segment)])
    }

    /// Durably remove the segment with `id` (same ack/error contract as
    /// [`insert_segment`](Self::insert_segment); removing an id the
    /// database does not hold is rejected before logging).
    pub fn remove_segment(&self, id: u64) -> Result<WriteAck, NeuroError> {
        self.write_batch(&[WriteOp::Remove(id)])
    }

    /// Durably apply a batch of writes under one group commit (one WAL
    /// append + one fsync for the whole batch).
    ///
    /// All-or-nothing: the batch is validated first (duplicate inserts,
    /// unknown removals, non-finite geometry → [`NeuroError::WriteRejected`]
    /// with nothing appended), then logged, committed and only then made
    /// visible to queries. A commit failure leaves the delta untouched —
    /// exactly matching replay, which drops uncommitted records.
    pub fn write_batch(&self, ops: &[WriteOp]) -> Result<WriteAck, NeuroError> {
        self.live().ok_or(NeuroError::WriteUnsupported)?.write(ops)
    }

    /// Fold the delta into a fresh frozen index, atomically swap it in,
    /// and checkpoint the WAL (bounding future replay to writes newer
    /// than this call). Queries are never blocked by the build; the swap
    /// itself waits for those in flight (they hold the delta read
    /// lock), and the replaced generation is freed right after it,
    /// outside that lock, unless an [`IndexRef`] still pins it.
    /// Concurrent *writes* wait for the whole refreeze — segment clone,
    /// index build, swap and checkpoint all run under the writer lock
    /// (`core.refreeze_stall_ms_per_swap` in the reference benchmark).
    /// Returns the new generation epoch; a no-op (empty delta) returns
    /// the current epoch.
    ///
    /// A crash *during* the checkpoint leaves the previous WAL intact
    /// (the checkpoint replaces the file atomically), so recovery
    /// replays the old ops over the old snapshot — same state.
    pub fn refreeze(&self) -> Result<u64, NeuroError> {
        self.live().ok_or(NeuroError::WriteUnsupported)?.refreeze()
    }

    /// Refreeze if the delta has crossed the builder's
    /// [`refreeze_threshold`](NeuroDbBuilder::refreeze_threshold).
    /// Returns whether a refreeze ran. The polling half of background
    /// maintenance — see
    /// [`with_ingest_maintenance`](Self::with_ingest_maintenance).
    pub fn maybe_refreeze(&self) -> Result<bool, NeuroError> {
        self.live().map_or(Ok(false), LiveCore::maybe_refreeze)
    }

    /// Run `f` with a background maintenance thread polling
    /// [`maybe_refreeze`](Self::maybe_refreeze) every `poll` — the
    /// scoped-thread idiom the server uses so ingest keeps re-freezing
    /// while requests are served. The thread stops (and is joined) when
    /// `f` returns.
    pub fn with_ingest_maintenance<R>(
        &self,
        poll: std::time::Duration,
        f: impl FnOnce(&Self) -> R,
    ) -> R {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let _ = self.maybe_refreeze();
                    std::thread::park_timeout(poll);
                }
            });
            let out = f(self);
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            out
        })
    }

    /// WAL and ingest health (`None` for non-durable databases).
    pub fn wal_health(&self) -> Option<WalHealth> {
        self.live().map(LiveCore::health)
    }

    /// The live core of a durable database.
    pub(crate) fn live(&self) -> Option<&LiveCore> {
        match &self.index {
            DbIndex::Live(core) => Some(core),
            _ => None,
        }
    }

    /// Run `f` over a coherent (base index, delta overlay) pair — the
    /// query engine's entry point. Non-live databases pass `None` for
    /// the delta; a live one passes its current generation and delta
    /// ([`LiveCore::view`]).
    pub(crate) fn with_view<R>(
        &self,
        f: impl FnOnce(&dyn SpatialIndex, Option<&DeltaBuffer>) -> R,
    ) -> R {
        match self.index.view() {
            IndexView::Live(core) => core.view(|index, delta| f(index, Some(delta))),
            IndexView::Frozen(index) => f(index, None),
        }
    }

    /// Compute aggregate tissue statistics for a region: one streamed
    /// range query folded into the totals, nothing materialized. Panics
    /// where a paged database's file fails under it (use
    /// [`query`](Self::query) to handle that).
    pub fn region_stats(&self, region: &Aabb) -> RegionStats {
        let mut stats = RegionStats::default();
        let mut neurons = HashSet::new();
        let mut radius_sum = 0.0;
        self.query()
            .range(*region)
            .stream(|s| {
                let len = s.geom.axis_length();
                stats.count += 1;
                stats.total_cable_length += len;
                stats.total_cable_volume +=
                    std::f64::consts::PI * s.geom.radius * s.geom.radius * len;
                radius_sum += s.geom.radius;
                neurons.insert(s.neuron);
            })
            .expect("no population to resolve, and a validated page file does not fail");
        if stats.count > 0 {
            stats.mean_radius = radius_sum / stats.count as f64;
            stats.neuron_count = neurons.len();
            stats.density = stats.count as f64 / region.volume().max(f64::MIN_POSITIVE);
        }
        stats
    }

    /// The named populations, in declaration order (empty unless the
    /// builder declared some). Membership is fixed when the database
    /// opens; segments inserted since belong to no population until a
    /// reopen.
    pub fn populations(&self) -> &[Population] {
        &self.populations
    }

    /// Population names, in declaration order.
    pub fn population_names(&self) -> Vec<&str> {
        self.populations.iter().map(|p| p.name.as_str()).collect()
    }

    /// Segments of one population (O(1) — resolved through the name map
    /// built at [`build`](NeuroDbBuilder::build) time). Membership is
    /// fixed when the database opens; segments inserted since belong to
    /// no population until a reopen.
    pub fn population(&self, name: &str) -> Result<&[NeuronSegment], NeuroError> {
        self.population_position(name).map(|i| self.populations[i].segments.as_slice())
    }

    /// Position of a named population in [`populations`](Self::populations).
    pub(crate) fn population_position(&self, name: &str) -> Result<usize, NeuroError> {
        self.population_index.get(name).copied().ok_or_else(|| NeuroError::UnknownPopulation {
            given: name.to_string(),
            known: self.population_names().iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Segment id → position in [`populations`](Self::populations),
    /// built from the population slices by the first call.
    pub(crate) fn population_of_id(&self) -> &HashMap<u64, u32> {
        self.population_of_id.get_or_init(|| {
            self.populations
                .iter()
                .enumerate()
                .flat_map(|(i, p)| p.segments.iter().map(move |s| (s.id, i as u32)))
                .collect()
        })
    }

    /// The join engine this database runs TOUCH workloads with.
    pub(crate) fn join_config(&self) -> &TouchJoin {
        &self.config.join
    }

    /// Run `f` on the database's join scratch, or on a fresh one while
    /// another join holds it. A poisoned lock means a join panicked part
    /// way through and may have left the scratch's invariants broken, so
    /// that scratch is replaced, never reused.
    pub(crate) fn with_join_scratch<R>(&self, f: impl FnOnce(&mut JoinScratch) -> R) -> R {
        match self.join_scratch.try_lock() {
            Ok(mut scratch) => f(&mut scratch),
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut scratch = poisoned.into_inner();
                *scratch = JoinScratch::new();
                self.join_scratch.clear_poison();
                f(&mut scratch)
            }
            Err(TryLockError::WouldBlock) => f(&mut JoinScratch::new()),
        }
    }

    /// The worker behind the builder's `along_path(..).run()` terminal.
    pub(crate) fn replay_walkthrough(
        &self,
        path: &NavigationPath,
        method: WalkthroughMethod,
    ) -> Result<SessionStats, NeuroError> {
        let mut cursor = self.scout_cursor(method)?;
        for q in &path.queries {
            cursor.step(q, false)?;
        }
        Ok(cursor.stats)
    }

    /// Bind a step-wise SCOUT walkthrough over this database's FLAT
    /// pages. A paged database walks its own index: its page file, its
    /// frame pool and workers, stalls in wall-clock time. An in-memory
    /// one gets a view made for this walkthrough
    /// ([`OocFlatIndex::view`]): a cold pool of
    /// `session.buffer_pages` frames over a device that charges
    /// `session.cost` to its own clock, so concurrent walkthroughs
    /// neither share a pool nor depend on one another. Errors on every
    /// other backend, sharded FLAT included.
    pub(crate) fn scout_cursor(
        &self,
        method: WalkthroughMethod,
    ) -> Result<DbCursor<'_>, NeuroError> {
        let prefetcher = method.prefetcher();
        let cursor = match &self.index {
            DbIndex::Flat(flat) => {
                OocFlatIndex::view(Arc::clone(flat), &self.config.session).into_cursor(prefetcher)
            }
            DbIndex::Paged(paged) => paged.cursor(prefetcher),
            DbIndex::Boxed(_) | DbIndex::Live(_) => {
                let layout = if self.config.shards > 1 { "sharded:" } else { "" };
                return Err(NeuroError::WalkthroughUnsupported {
                    backend: format!("{layout}{}", self.backend.name()),
                });
            }
        };
        Ok(DbCursor {
            prefetch_hits_at_start: cursor.index().pool().stats().prefetch_hits,
            cursor,
            stats: SessionStats { method: method.name().to_string(), ..Default::default() },
        })
    }
}

/// A step-wise SCOUT walkthrough and its running statistics: what
/// `along_path(..).run()` replays a path on and what
/// `QuerySession::with_prefetch` binds.
pub(crate) struct DbCursor<'s> {
    cursor: OocCursor<'s>,
    stats: SessionStats,
    /// Pool-wide prefetch-hit count when the cursor bound, so the
    /// session's `useful_prefetched` reports only this cursor's
    /// walkthrough.
    prefetch_hits_at_start: u64,
}

impl DbCursor<'_> {
    /// One step. With `allow_partial` a page that fails permanently is
    /// skipped; without, it is the step's typed error.
    pub(crate) fn step(&mut self, q: &Aabb, allow_partial: bool) -> Result<QueryTrace, NeuroError> {
        let trace = self.cursor.step_partial(q, allow_partial)?;
        self.stats.record(trace);
        self.stats.useful_prefetched =
            self.cursor.index().pool().stats().prefetch_hits - self.prefetch_hits_at_start;
        Ok(trace)
    }

    pub(crate) fn stats(&self) -> &SessionStats {
        &self.stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::delta;
    use crate::index::{Neighbor, QueryOutput};
    use neurospatial_geom::Vec3;
    use neurospatial_model::{CircuitBuilder, DensityStats};
    use neurospatial_touch::JoinResult;

    fn db() -> (NeuroDb, Circuit) {
        let c = CircuitBuilder::new(5).neurons(10).build();
        (NeuroDb::from_circuit(&c), c)
    }

    pub(crate) fn range(db: &NeuroDb, q: &Aabb) -> QueryOutput {
        db.query().range(*q).collect().expect("no population to resolve")
    }

    fn knn(db: &NeuroDb, p: Vec3, k: usize) -> Vec<Neighbor> {
        db.query().knn(p, k).collect().expect("no population to resolve").0
    }

    /// The synapse-placement workload: the first population joined with
    /// the second.
    fn synapse_candidates(db: &NeuroDb, epsilon: f64) -> JoinResult {
        db.query().touching(&db.populations()[1].name, epsilon).collect().expect("two populations")
    }

    fn branch_path(c: &Circuit, seed: u64, view_radius: f64, step: f64) -> NavigationPath {
        NavigationPath::along_random_branch(c, seed, view_radius, step).expect("path exists")
    }

    fn replay(
        db: &NeuroDb,
        path: &NavigationPath,
        method: WalkthroughMethod,
    ) -> Result<SessionStats, NeuroError> {
        db.query().along_path(path).method(method).run()
    }

    #[test]
    fn range_query_counts_match_scan() {
        let (db, c) = db();
        assert_eq!(db.len(), c.segments().len());
        let q = Aabb::cube(c.bounds().center(), 40.0);
        let out = range(&db, &q);
        let brute = c.segments().iter().filter(|s| s.aabb().intersects(&q)).count();
        assert_eq!(out.len(), brute);
        assert_eq!(out.stats.results as usize, brute);
    }

    #[test]
    fn every_backend_answers_the_same_queries() {
        let c = CircuitBuilder::new(8).neurons(6).build();
        let q = Aabb::cube(c.bounds().center(), 35.0);
        let want = range(&NeuroDb::from_circuit(&c), &q).sorted_ids();
        for backend in IndexBackend::ALL {
            let db = NeuroDb::builder().circuit(&c).backend(backend).build().expect("valid");
            assert_eq!(db.backend(), backend);
            assert_eq!(range(&db, &q).sorted_ids(), want, "{backend}");
        }
    }

    #[test]
    fn builder_by_name_and_bad_names() {
        let c = CircuitBuilder::new(5).neurons(2).build();
        let db =
            NeuroDb::builder().circuit(&c).backend_named("str-packed").build().expect("known name");
        assert_eq!(db.backend(), IndexBackend::StrPacked);
        assert!(matches!(
            NeuroDb::builder().circuit(&c).backend_named("btree").build(),
            Err(NeuroError::UnknownBackend { .. })
        ));
        assert!(matches!(NeuroDb::builder().build(), Err(NeuroError::MissingSegments)));
        // FLAT accepts tiny pages (legacy behaviour)…
        assert!(NeuroDb::builder().circuit(&c).page_capacity(1).build().is_ok());
        // …but a zero capacity, or sub-fan-out R-Tree pages, are rejected.
        assert!(matches!(
            NeuroDb::builder().circuit(&c).page_capacity(0).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
        assert!(matches!(
            NeuroDb::builder()
                .circuit(&c)
                .backend(IndexBackend::StrPacked)
                .page_capacity(2)
                .build(),
            Err(NeuroError::InvalidConfig(_))
        ));
    }

    #[test]
    fn builder_rejects_what_the_write_path_rejects() {
        let c = CircuitBuilder::new(5).neurons(2).build();
        let spoil: [fn(&mut NeuronSegment); 4] = [
            |s| s.geom.p0.x = f64::NAN,
            |s| s.geom.p1.z = f64::INFINITY,
            |s| s.geom.radius = f64::NAN,
            |s| s.geom.radius = -1.0,
        ];
        for (k, spoil) in spoil.into_iter().enumerate() {
            let mut segments = c.segments().to_vec();
            let victim = 3 + 7 * k;
            spoil(&mut segments[victim]);
            // The first offender is the one named.
            spoil(&mut segments[victim + 20]);
            let id = segments[victim].id;
            for backend in IndexBackend::ALL {
                let err = NeuroDb::builder().segments(segments.clone()).backend(backend).build();
                assert!(
                    matches!(&err, Err(NeuroError::InvalidConfig(msg))
                        if msg.contains(&format!("segment {id} "))),
                    "case {k} on {backend}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn paged_database_matches_in_memory_and_reports_io() {
        let c = CircuitBuilder::new(5).neurons(10).build();
        let mem = NeuroDb::from_circuit(&c);
        let ooc = NeuroDb::builder()
            .circuit(&c)
            .paged(true)
            .frame_budget(2)
            .build()
            .expect("temp dir is writable");
        assert!(ooc.paged_index().is_some() && mem.paged_index().is_none());
        assert_eq!(ooc.shard_count(), 1);
        let q = Aabb::cube(c.bounds().center(), 40.0);
        let (want, got) = (range(&mem, &q), range(&ooc, &q));
        assert_eq!(want.sorted_ids(), got.sorted_ids());
        assert_eq!(want.stats.nodes_read, got.stats.nodes_read);
        assert!(got.stats.cache_hits + got.stats.cache_misses > 0);
        assert_eq!(want.stats.cache_hits + want.stats.cache_misses, 0);
        // KNN is made of range traversals and reports their page I/O too.
        let p = c.segments()[3].geom.center();
        let (_, knn_stats) = ooc.query().knn(p, 7).collect().expect("healthy page file");
        assert!(knn_stats.cache_hits + knn_stats.cache_misses > 0, "{knn_stats:?}");
    }

    #[test]
    fn knn_over_a_torn_page_is_a_typed_error_or_a_labeled_partial() {
        let c = CircuitBuilder::new(5).neurons(10).build();
        let path = std::env::temp_dir()
            .join(format!("neurospatial-db-torn-knn-{}.flatpages", std::process::id()));
        let db = NeuroDb::builder()
            .circuit(&c)
            .page_file(&path)
            .frame_budget(1)
            .build()
            .expect("explicit page file");
        let pages = db.paged_index().expect("paged").page_count() as u64;
        assert!(pages >= 3, "a middle page the one-frame pool does not hold, got {pages}");
        neurospatial_storage::tear_page(&path, pages / 2).expect("tear");
        // A search that needs every page meets the torn one: first the
        // checksum failure, then — the page now quarantined — the
        // degradation signal; never a panic.
        let (p, k) = (c.bounds().center(), c.segments().len());
        assert!(matches!(db.query().knn(p, k).collect(), Err(NeuroError::Storage(_))));
        assert!(matches!(db.query().knn(p, k).collect(), Err(NeuroError::DegradedResult { .. })));
        assert!(db.query().session().try_knn(p, k, false).is_err());
        let (survivors, stats) =
            db.query().knn(p, k).allow_partial(true).collect().expect("partial");
        assert!(stats.pages_quarantined >= 1, "the loss is labeled: {stats:?}");
        assert!(!survivors.is_empty() && survivors.len() < k);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_prefetching_session_over_a_torn_page_degrades_labeled() {
        let c = CircuitBuilder::new(5).neurons(10).build();
        let path = std::env::temp_dir()
            .join(format!("neurospatial-db-torn-walk-{}.flatpages", std::process::id()));
        let db = NeuroDb::builder()
            .circuit(&c)
            .page_file(&path)
            .frame_budget(1)
            .build()
            .expect("explicit page file");
        let pages = db.paged_index().expect("paged").page_count() as u64;
        assert!(pages >= 3, "a middle page the one-frame pool does not hold, got {pages}");
        neurospatial_storage::tear_page(&path, pages / 2).expect("tear");
        let everything = c.bounds();
        let mut session =
            db.query().session().with_prefetch(WalkthroughMethod::Scout).expect("paged flat");
        assert!(session.try_range_budgeted(&everything, false, || true).is_err());
        // The caller asked for the form that survives a bad page, and
        // the walkthrough step behind the query survives it too.
        let (hits, stats, completed) =
            session.try_range_budgeted(&everything, true, || true).expect("partial");
        assert!(completed);
        assert!(stats.pages_quarantined >= 1, "the loss is labeled: {stats:?}");
        let survivors = hits.len();
        assert!(survivors > 0 && survivors < c.segments().len());
        let walked = session.prefetch_stats().expect("bound");
        assert_eq!(walked.steps.len(), 1, "the partial query advanced the walkthrough");
        assert_eq!(walked.steps[0].results as usize, survivors);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_walkthrough_runs_on_the_real_pager() {
        let c = CircuitBuilder::new(5).neurons(10).build();
        let db = NeuroDb::builder()
            .circuit(&c)
            .paged(true)
            .frame_budget(4)
            .prefetch_workers(1)
            .build()
            .expect("paged flat");
        let path = branch_path(&c, 1, 20.0, 8.0);
        let report = replay(&db, &path, WalkthroughMethod::Scout).expect("paged walkthrough");
        assert_eq!(report.steps.len(), path.queries.len());
        assert_eq!(report.method, "scout");
        let touched: u64 = report.steps.iter().map(|s| s.pages_demanded).sum();
        assert_eq!(touched, report.total_demand_hits + report.total_demand_misses);
    }

    #[test]
    fn paged_mode_rejects_non_flat_and_sharded_layouts() {
        let c = CircuitBuilder::new(5).neurons(2).build();
        assert!(matches!(
            NeuroDb::builder().circuit(&c).backend(IndexBackend::RTree).paged(true).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
        assert!(matches!(
            NeuroDb::builder().circuit(&c).paged(true).shards(2).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
    }

    #[test]
    fn explicit_page_file_survives_and_reopens() {
        let c = CircuitBuilder::new(5).neurons(6).build();
        let path = std::env::temp_dir()
            .join(format!("neurospatial-db-reopen-{}.flatpages", std::process::id()));
        let q = Aabb::cube(c.bounds().center(), 30.0);
        let want = {
            let db = NeuroDb::builder()
                .circuit(&c)
                .page_file(&path)
                .build()
                .expect("explicit page file");
            range(&db, &q).sorted_ids()
        };
        // The database dropped; the explicit file must still be there.
        assert!(path.exists());
        let reopened = OocFlatIndex::open(&path, OocConfig::default()).expect("reopen");
        assert_eq!(reopened.range_query(&q).sorted_ids(), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_temp_page_file_goes_with_its_database() {
        // An explicit page file stays: `explicit_page_file_survives_and_reopens`.
        let c = CircuitBuilder::new(5).neurons(4).build();
        let temp = {
            let db = NeuroDb::builder().circuit(&c).paged(true).build().expect("temp page file");
            let path = db.paged_index().expect("paged").path().to_path_buf();
            assert!(path.exists());
            path
        };
        assert!(!temp.exists(), "{} outlived its database", temp.display());
    }

    #[test]
    fn synapse_join_uses_the_default_parity_populations() {
        let (db, c) = db();
        assert_eq!(db.population_names(), vec!["even", "odd"]);
        let r = synapse_candidates(&db, 2.0);
        assert!(r.is_duplicate_free());
        // Every reported pair crosses the even/odd population boundary.
        let (a, b) = c.split_populations();
        for &(i, j) in &r.pairs {
            assert_eq!(a[i as usize].neuron % 2, 0);
            assert_eq!(b[j as usize].neuron % 2, 1);
        }
    }

    #[test]
    fn duplicate_population_names_are_rejected() {
        let c = CircuitBuilder::new(4).neurons(4).build();
        let err = NeuroDb::builder()
            .circuit(&c)
            .split_populations("x", "x", |s| s.neuron % 2 == 0)
            .build();
        assert!(matches!(err, Err(NeuroError::InvalidConfig(msg)) if msg.contains("'x'")));
    }

    #[test]
    fn custom_predicate_populations() {
        let c = CircuitBuilder::new(12).neurons(9).build();
        let db = NeuroDb::builder()
            .circuit(&c)
            .split_populations("low", "high", |s| s.neuron < 3)
            .build()
            .expect("valid");
        assert_eq!(db.population_names(), vec!["low", "high"]);
        let low = db.population("low").expect("exists");
        assert!(low.iter().all(|s| s.neuron < 3));
        assert!(!low.is_empty());
        let total = low.len() + db.population("high").expect("exists").len();
        assert_eq!(total, c.segments().len());
        assert!(matches!(db.population("mid"), Err(NeuroError::UnknownPopulation { .. })));
        // The left side defaults to the first population.
        let named = db.query().touching("high", 1.5).in_population("low").collect();
        assert_eq!(
            named.expect("both exist").sorted_pairs(),
            synapse_candidates(&db, 1.5).sorted_pairs()
        );
    }

    #[test]
    fn label_fn_builds_many_populations() {
        let c = CircuitBuilder::new(3).neurons(8).build();
        let db = NeuroDb::builder()
            .circuit(&c)
            .populations_by(|s| format!("layer{}", s.neuron % 3))
            .build()
            .expect("valid");
        assert_eq!(db.populations().len(), 3);
        let total: usize = db.populations().iter().map(|p| p.segments.len()).sum();
        assert_eq!(total, c.segments().len());
        // First two populations feed the synapse join.
        assert!(db.query().touching("layer1", 1.0).collect().is_ok());
    }

    #[test]
    fn walkthrough_all_methods_run() {
        let (db, c) = db();
        let path = branch_path(&c, 3, 20.0, 8.0);
        let mut stalls = Vec::new();
        for m in WalkthroughMethod::ALL {
            let stats = replay(&db, &path, m).expect("flat backend");
            assert_eq!(stats.steps.len(), path.queries.len());
            assert_eq!(stats.method, m.name());
            stalls.push((m, stats.total_stall_ms));
        }
        // The no-prefetch baseline is never the fastest.
        let none = stalls.iter().find(|(m, _)| *m == WalkthroughMethod::None).expect("ran").1;
        let scout = stalls.iter().find(|(m, _)| *m == WalkthroughMethod::Scout).expect("ran").1;
        assert!(scout <= none);
    }

    #[test]
    fn sharded_databases_answer_like_monolithic_ones() {
        let c = CircuitBuilder::new(6).neurons(8).build();
        let q = Aabb::cube(c.bounds().center(), 30.0);
        let p = c.segments()[5].geom.center();
        for backend in IndexBackend::ALL {
            let mono = NeuroDb::builder().circuit(&c).backend(backend).build().expect("valid");
            let sharded = NeuroDb::builder()
                .circuit(&c)
                .backend(backend)
                .shards(4)
                .threads(2)
                .build()
                .expect("valid");
            assert_eq!(sharded.shard_count(), 4, "{backend}");
            assert_eq!(mono.shard_count(), 1, "{backend}");
            assert_eq!(sharded.len(), mono.len());
            assert_eq!(range(&sharded, &q).sorted_ids(), range(&mono, &q).sorted_ids());
            let ids = |ns: &[Neighbor]| ns.iter().map(|n| n.segment.id).collect::<Vec<_>>();
            assert_eq!(ids(&knn(&sharded, p, 7)), ids(&knn(&mono, p, 7)), "{backend} knn");
        }
    }

    #[test]
    fn sharded_flat_refuses_a_walkthrough() {
        let c = CircuitBuilder::new(5).neurons(10).build();
        let db = NeuroDb::builder().circuit(&c).shards(3).threads(2).build().expect("valid");
        assert_eq!(db.backend(), IndexBackend::Flat);
        assert_eq!(db.shard_count(), 3);
        assert!(db.flat_index().is_none(), "sharded flat has no single page space");
        let path = branch_path(&c, 3, 20.0, 8.0);
        let err = replay(&db, &path, WalkthroughMethod::Scout).expect_err("no page space to walk");
        assert_eq!(err, NeuroError::WalkthroughUnsupported { backend: "sharded:flat".into() });
        assert!(db.query().session().with_prefetch(WalkthroughMethod::Scout).is_err());
    }

    #[test]
    fn sharded_backend_names_and_invalid_counts() {
        let c = CircuitBuilder::new(5).neurons(4).build();
        let db = NeuroDb::builder()
            .circuit(&c)
            .backend_named("sharded:str-packed")
            .build()
            .expect("sharded name is known");
        assert_eq!(db.backend(), IndexBackend::StrPacked);
        assert!(db.shard_count() >= 2, "sharded: name implies > 1 shard");
        // Explicit shard counts survive the name prefix.
        let db = NeuroDb::builder()
            .circuit(&c)
            .backend_named("sharded:rplus")
            .shards(5)
            .build()
            .expect("valid");
        assert_eq!(db.shard_count(), 5);
        assert!(matches!(
            NeuroDb::builder().circuit(&c).backend_named("sharded:btree").build(),
            Err(NeuroError::UnknownBackend { .. })
        ));
        assert!(matches!(
            NeuroDb::builder().circuit(&c).shards(0).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
        assert!(matches!(
            NeuroDb::builder().circuit(&c).threads(0).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
        // An explicit zero is reported even when a `sharded:` name would
        // otherwise bump the count.
        assert!(matches!(
            NeuroDb::builder().circuit(&c).backend_named("sharded:flat").shards(0).build(),
            Err(NeuroError::InvalidConfig(_))
        ));
    }

    #[test]
    fn walkthrough_requires_flat() {
        let c = CircuitBuilder::new(5).neurons(4).build();
        let db =
            NeuroDb::builder().circuit(&c).backend(IndexBackend::StrPacked).build().expect("valid");
        let path = branch_path(&c, 1, 15.0, 6.0);
        assert!(matches!(
            replay(&db, &path, WalkthroughMethod::Scout),
            Err(NeuroError::WalkthroughUnsupported { .. })
        ));
    }

    #[test]
    fn walkthrough_method_names_round_trip() {
        for m in WalkthroughMethod::ALL {
            assert_eq!(m.name().parse::<WalkthroughMethod>().expect("round trip"), m);
            assert_eq!(m.to_string(), m.name());
        }
        assert!("warp".parse::<WalkthroughMethod>().is_err());
    }

    #[test]
    fn region_stats_aggregate_correctly() {
        let (db, c) = db();
        // Centre the region on actual data (the bounds centre can fall in
        // empty space between neurons).
        let q = Aabb::cube(c.segments()[0].geom.center(), 50.0);
        let s = db.region_stats(&q);
        let out = range(&db, &q);
        assert!(!out.is_empty());
        assert_eq!(s.count, out.len());
        let want_len: f64 = out.segments.iter().map(|h| h.geom.axis_length()).sum();
        assert!((s.total_cable_length - want_len).abs() < 1e-9);
        assert!(s.mean_radius > 0.0);
        assert!(s.density > 0.0);
        assert!(s.neuron_count >= 1 && s.neuron_count <= c.neuron_count());
        assert!(s.total_cable_volume > 0.0);

        // Far-away region: all-zero stats.
        let far = Aabb::cube(Vec3::splat(1e7), 10.0);
        assert_eq!(db.region_stats(&far), RegionStats::default());
    }

    #[test]
    fn dense_region_denser_than_sparse() {
        let (db, c) = db();
        let grid = DensityStats::new(c.bounds(), [5, 5, 5], c.segments());
        let dense = db.region_stats(&Aabb::cube(grid.densest_cell_center(), 25.0));
        let sparse = db.region_stats(&Aabb::cube(grid.sparsest_cell_center(), 25.0));
        assert!(dense.density >= sparse.density);
    }

    #[test]
    fn empty_database() {
        let db = NeuroDb::builder()
            .segments(vec![])
            .split_populations("even", "odd", |s| s.neuron % 2 == 0)
            .build()
            .expect("empty is valid");
        assert!(db.is_empty());
        let out = range(&db, &Aabb::cube(Vec3::ZERO, 5.0));
        assert!(out.is_empty());
        assert!(synapse_candidates(&db, 1.0).pairs.is_empty());
    }

    #[test]
    fn a_database_declares_no_populations_unless_asked() {
        let c = CircuitBuilder::new(2).neurons(3).build();
        let db = NeuroDb::builder().circuit(&c).build().expect("valid");
        assert!(db.populations().is_empty());
        let q = c.bounds().inflate(1.0);
        assert_eq!(range(&db, &q).len(), c.segments().len());
        assert!(matches!(
            db.query().range(q).in_population("even").count(),
            Err(NeuroError::UnknownPopulation { .. })
        ));
        assert!(matches!(
            db.query().touching("odd", 1.0).collect(),
            Err(NeuroError::TooFewPopulations { found: 0, needed: 2 })
        ));
    }

    /// Temp WAL path removed on drop — live-mode tests must not leak
    /// log files between runs.
    pub(crate) struct WalPath(pub(crate) PathBuf);

    impl WalPath {
        pub(crate) fn new(tag: &str) -> Self {
            WalPath(
                std::env::temp_dir()
                    .join(format!("neurospatial-db-wal-{tag}-{}.wal", std::process::id())),
            )
        }
    }

    impl Drop for WalPath {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    pub(crate) fn fresh_segment(id: u64, x: f64) -> NeuronSegment {
        NeuronSegment {
            id,
            neuron: 1000 + id as u32,
            section: 0,
            index_on_section: 0,
            geom: neurospatial_geom::Segment::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 1.0, 0.0, 0.0),
                0.4,
            ),
        }
    }

    #[test]
    fn frozen_databases_reject_writes() {
        let (db, c) = db();
        assert!(!db.is_live());
        assert!(db.wal_health().is_none());
        let next_id = c.segments().len() as u64;
        assert!(matches!(
            db.insert_segment(fresh_segment(next_id, 0.0)),
            Err(NeuroError::WriteUnsupported)
        ));
        assert!(matches!(db.remove_segment(0), Err(NeuroError::WriteUnsupported)));
        assert!(matches!(db.refreeze(), Err(NeuroError::WriteUnsupported)));
        assert!(!db.maybe_refreeze().expect("no-op"));
    }

    #[test]
    fn live_writes_are_visible_and_merge_with_base() {
        let c = CircuitBuilder::new(5).neurons(6).build();
        let wal = WalPath::new("merge");
        let db = NeuroDb::builder().circuit(&c).durable(&wal.0).build().expect("live");
        assert!(db.is_live());
        let base_len = db.len();

        // Insert far from the data, then query it back.
        let s = fresh_segment(1_000_000, 5_000.0);
        let ack = db.insert_segment(s).expect("acked");
        assert!(ack.lsn > 0);
        assert_eq!(ack.pending, 1);
        assert_eq!(db.len(), base_len + 1);
        let near = Aabb::cube(Vec3::new(5_000.5, 0.0, 0.0), 10.0);
        assert_eq!(range(&db, &near).sorted_ids(), vec![1_000_000]);
        assert!(db.bounds().hi.x >= 5_001.0);

        // Remove a base segment: masked out of queries immediately.
        let victim = c.segments()[0];
        db.remove_segment(victim.id).expect("acked");
        assert_eq!(db.len(), base_len);
        let around = Aabb::cube(victim.geom.center(), 1.0);
        assert!(!range(&db, &around).sorted_ids().contains(&victim.id));

        // A limit counts base hits and delta inserts alike, and stops
        // the merge wherever it falls: in the base, on the boundary, or
        // in the delta.
        let everything = db.bounds();
        let full = range(&db, &everything);
        assert_eq!(full.segments.last().map(|s| s.id), Some(1_000_000), "delta comes last");
        for n in [1, full.len() - 1, full.len()] {
            let capped = db.query().range(everything).limit(n).collect().expect("ok");
            assert_eq!(capped.segments, full.segments[..n], "limit {n}");
            assert_eq!(capped.stats.results as usize, n, "limit {n}");
        }

        // KNN sees the delta insert.
        assert_eq!(knn(&db, Vec3::new(5_000.5, 0.0, 0.0), 1)[0].segment.id, 1_000_000);

        // Validation rejects without logging.
        let lsn_before = db.wal_health().expect("live").last_lsn;
        assert!(matches!(
            db.insert_segment(fresh_segment(1_000_000, 0.0)),
            Err(NeuroError::WriteRejected { .. })
        ));
        assert!(matches!(db.remove_segment(victim.id), Err(NeuroError::WriteRejected { .. })));
        let mut bad = fresh_segment(2_000_000, 0.0);
        bad.geom.radius = f64::NAN;
        assert!(matches!(db.insert_segment(bad), Err(NeuroError::WriteRejected { .. })));
        assert_eq!(db.wal_health().expect("live").last_lsn, lsn_before);
    }

    #[test]
    fn live_queries_match_a_rebuilt_frozen_database() {
        let c = CircuitBuilder::new(7).neurons(6).build();
        for backend in IndexBackend::ALL {
            for shards in [1usize, 3] {
                let wal = WalPath::new(&format!("equiv-{backend}-{shards}"));
                let db = NeuroDb::builder()
                    .circuit(&c)
                    .backend(backend)
                    .shards(shards)
                    .threads(2)
                    .durable(&wal.0)
                    .build()
                    .expect("live");
                // Apply a mixed batch of writes.
                let mut want = c.segments().to_vec();
                let ops = vec![
                    WriteOp::Insert(fresh_segment(900_000, 10.0)),
                    WriteOp::Remove(c.segments()[3].id),
                    WriteOp::Insert(fresh_segment(900_001, -20.0)),
                    WriteOp::Remove(c.segments()[10].id),
                ];
                db.write_batch(&ops).expect("acked");
                delta::apply_ops(&mut want, &ops);
                let reference = NeuroDb::builder()
                    .segments(want)
                    .backend(backend)
                    .shards(shards)
                    .threads(2)
                    .build()
                    .expect("frozen reference");
                let q = Aabb::cube(c.bounds().center(), 45.0);
                assert_eq!(
                    range(&db, &q).sorted_ids(),
                    range(&reference, &q).sorted_ids(),
                    "{backend} shards={shards}"
                );
                // The scratch-reusing loop merges the pending inserts
                // and removals too, every time round.
                let mut session = db.query().session();
                for half in [45.0, 20.0, 45.0] {
                    let q = Aabb::cube(c.bounds().center(), half);
                    let mut got: Vec<u64> = session.range(&q).0.iter().map(|s| s.id).collect();
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        range(&reference, &q).sorted_ids(),
                        "{backend} shards={shards} session half={half}"
                    );
                }
                let p = c.segments()[5].geom.center();
                let ids = |ns: &[Neighbor]| ns.iter().map(|n| n.segment.id).collect::<Vec<_>>();
                assert_eq!(
                    ids(&knn(&db, p, 9)),
                    ids(&knn(&reference, p, 9)),
                    "{backend} shards={shards} knn"
                );
                // After a refreeze the answers are unchanged.
                let epoch = db.refreeze().expect("refrozen");
                assert_eq!(epoch, 1);
                assert_eq!(
                    range(&db, &q).sorted_ids(),
                    range(&reference, &q).sorted_ids(),
                    "{backend} shards={shards} post-swap"
                );
                assert_eq!(db.wal_health().expect("live").pending_ops, 0);
            }
        }
    }

    #[test]
    fn recovery_reconstructs_the_acknowledged_prefix() {
        let c = CircuitBuilder::new(3).neurons(4).build();
        let wal = WalPath::new("recover");
        let q = Aabb::cube(c.bounds().center(), 60.0);
        let want = {
            let db = NeuroDb::builder().circuit(&c).durable(&wal.0).build().expect("live");
            db.insert_segment(fresh_segment(500_000, 3.0)).expect("acked");
            db.remove_segment(c.segments()[1].id).expect("acked");
            range(&db, &q).sorted_ids()
        };
        // Reopen: the builder's (different) data source is ignored — the
        // WAL is the source of truth.
        let reopened = NeuroDb::builder().segments(vec![]).durable(&wal.0).build().expect("live");
        assert_eq!(range(&reopened, &q).sorted_ids(), want);
        let health = reopened.wal_health().expect("live");
        assert_eq!(health.replayed_ops, 2);
        assert!(!health.recovered_torn_tail);
        // The reopen folded the tail into a checkpoint: a third open
        // replays nothing.
        drop(reopened);
        let third = NeuroDb::builder().segments(vec![]).durable(&wal.0).build().expect("live");
        assert_eq!(third.wal_health().expect("live").replayed_ops, 0);
        assert_eq!(range(&third, &q).sorted_ids(), want);
    }

    #[test]
    fn crashed_commit_is_not_replayed() {
        use neurospatial_storage::FaultPlan;
        let c = CircuitBuilder::new(4).neurons(3).build();
        let wal = WalPath::new("crash");
        let q = Aabb::cube(c.bounds().center(), 60.0);
        // Find the WAL length after the first (acked) write…
        let (acked_ids, bytes_after_first) = {
            let db = NeuroDb::builder().circuit(&c).durable(&wal.0).build().expect("live");
            db.insert_segment(fresh_segment(700_000, 2.0)).expect("acked");
            (range(&db, &q).sorted_ids(), db.wal_health().expect("live").wal_bytes)
        };
        std::fs::remove_file(&wal.0).expect("reset");
        // …then crash the log exactly there on a second run: the first
        // write commits, the second write's records are torn mid-append.
        {
            let db = NeuroDb::builder()
                .circuit(&c)
                .durable(&wal.0)
                .wal_faults(FaultPlan::new(7).with_write_crash_at(bytes_after_first + 30))
                .build()
                .expect("live");
            db.insert_segment(fresh_segment(700_000, 2.0)).expect("first write acked");
            let err = db.insert_segment(fresh_segment(700_001, 9.0));
            assert!(err.is_err(), "crashed commit must not ack");
        }
        let reopened = NeuroDb::builder().segments(vec![]).durable(&wal.0).build().expect("live");
        assert_eq!(range(&reopened, &q).sorted_ids(), acked_ids);
        let health = reopened.wal_health().expect("live");
        assert!(health.recovered_torn_tail, "torn tail must be detected");
        assert_eq!(health.replayed_ops, 1, "only the acked write replays");
    }

    #[test]
    fn background_maintenance_refreezes_past_the_threshold() {
        let c = CircuitBuilder::new(6).neurons(3).build();
        let wal = WalPath::new("maint");
        let db = NeuroDb::builder()
            .circuit(&c)
            .durable(&wal.0)
            .refreeze_threshold(4)
            .build()
            .expect("live");
        let epoch_after = db.with_ingest_maintenance(std::time::Duration::from_millis(1), |db| {
            for i in 0..32u64 {
                db.insert_segment(fresh_segment(800_000 + i, i as f64 * 3.0)).expect("acked");
            }
            // Wait for the poller to catch up.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while db.wal_health().expect("live").epoch == 0 {
                assert!(std::time::Instant::now() < deadline, "maintenance never refroze");
                std::thread::yield_now();
            }
            db.wal_health().expect("live").epoch
        });
        assert!(epoch_after >= 1);
        // Everything is still queryable after however many swaps ran.
        let q = Aabb::cube(Vec3::new(48.0, 0.0, 0.0), 1_000.0);
        let out = range(&db, &q);
        for i in 0..32u64 {
            assert!(out.sorted_ids().contains(&(800_000 + i)), "segment {i} lost in swap");
        }
    }

    #[test]
    fn concrete_index_borrows_are_for_frozen_databases_only() {
        let c = CircuitBuilder::new(5).neurons(4).build();
        let wal = WalPath::new("borrows");
        let live = NeuroDb::builder().circuit(&c).durable(&wal.0).build().expect("live");
        assert_eq!(live.backend(), IndexBackend::Flat);
        assert!(live.flat_index().is_none());
        assert!(live.paged_index().is_none());
        assert!(live.index_as::<FlatIndex<NeuronSegment>>().is_none());
        // The guard reaches the same index, pinned.
        assert!(live.index().as_any().downcast_ref::<FlatIndex<NeuronSegment>>().is_some());

        let frozen = NeuroDb::from_circuit(&c);
        let flat = frozen.flat_index().expect("monolithic FLAT");
        assert_eq!(flat.len(), frozen.index().len());
        assert!(frozen.paged_index().is_none());
        let paged = NeuroDb::builder().circuit(&c).paged(true).build().expect("paged");
        assert!(paged.paged_index().is_some() && paged.flat_index().is_none());
        let rplus = NeuroDb::builder().circuit(&c).backend(IndexBackend::RPlus).build().unwrap();
        assert!(rplus.index_as::<neurospatial_rtree::RPlusTree<NeuronSegment>>().is_some());
    }
}
