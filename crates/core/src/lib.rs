//! # neurospatial
//!
//! Spatial data management for dense neuroscience models — a faithful
//! open-source reproduction of the systems demonstrated in *"Data-driven
//! Neuroscience: Enabling Breakthroughs Via Innovative Data Management"*
//! (Stougiannis et al., SIGMOD 2013):
//!
//! * **FLAT** ([`flat`]) — range-query execution whose cost is
//!   independent of data density: seed with a tiny R-Tree over page MBRs,
//!   then crawl precomputed page-neighborhood links (§2 of the paper).
//! * **SCOUT** ([`scout`]) — content-aware prefetching for
//!   structure-following query sequences: reconstruct the topological
//!   skeleton of each result, prune candidate structures across queries,
//!   extrapolate exit edges (§3).
//! * **TOUCH** ([`touch`]) — in-memory spatial distance join by
//!   hierarchical data-oriented partitioning, with nested-loop,
//!   plane-sweep, PBSM and S3 baselines (§4).
//!
//! Substrates built for the reproduction: geometric primitives and
//! space-filling curves ([`geom`]), a synthetic neural-tissue generator
//! replacing the proprietary Blue Brain datasets ([`model`]), an R-Tree
//! with STR bulk loading ([`rtree`]) and a paged-storage layer whose
//! modelled device reports the paper's "disk pages retrieved / time"
//! statistics reproducibly ([`storage`]).
//!
//! ## Quickstart
//!
//! Databases are opened through [`NeuroDbBuilder`]: pick a data source,
//! the form of its FLAT index (in memory, sharded, paged or live) and how
//! segments split into named populations.
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! // 1. Generate a microcircuit (substitute for BBP data).
//! let circuit = CircuitBuilder::new(7).neurons(20).build();
//!
//! // 2. Open a database: FLAT in memory, named populations.
//! let db = NeuroDb::builder()
//!     .circuit(&circuit)
//!     .backend(IndexBackend::Flat) // or .backend_named("sharded:flat")
//!     .split_populations("axons", "dendrites", |s| s.neuron % 2 == 0)
//!     .build()
//!     .expect("valid configuration");
//!
//! // 3. Spatial range query through the SpatialIndex API.
//! let region = Aabb::cube(circuit.bounds().center(), 30.0);
//! let out = db.query().range(region).collect().expect("no population to resolve");
//! assert_eq!(out.segments.len(), out.stats.results as usize);
//!
//! // 4. Synapse candidates between the two populations (TOUCH join).
//! let synapses =
//!     db.query().touching("dendrites", 3.0).in_population("axons").collect().expect("both exist");
//! assert!(synapses.stats.results == synapses.pairs.len() as u64);
//!
//! // 5. Replay a branch-following walkthrough with SCOUT prefetching
//! //    (monolithic FLAT only — walkthroughs are page-granular).
//! if let Some(path) = NavigationPath::along_random_branch(&circuit, 1, 20.0, 8.0) {
//!     let report = db.query().along_path(&path).run().expect("flat");
//!     assert!(report.steps.len() == path.queries.len());
//! }
//! ```
//!
//! FLAT is the database's index. The R-Tree family the paper races it
//! against is called directly from [`rtree`], on the same data:
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(1).neurons(6).build();
//! let q = Aabb::cube(circuit.bounds().center(), 25.0);
//! let db = NeuroDb::builder().circuit(&circuit).build().expect("valid");
//! let flat = db.query().range(q).collect().expect("no population to resolve");
//! let tree = RTree::bulk_load(circuit.segments().to_vec(), RTreeParams::default());
//! let mut ids: Vec<u64> = tree.range_query(&q).0.iter().map(|s| s.id).collect();
//! ids.sort_unstable();
//! // FLAT and the STR-packed R-Tree return the identical result set.
//! assert_eq!(flat.sorted_ids(), ids);
//! ```

#![forbid(unsafe_code)]

pub use neurospatial_flat as flat;
pub use neurospatial_geom as geom;
pub use neurospatial_model as model;
pub use neurospatial_obs as obs;
pub use neurospatial_rtree as rtree;
pub use neurospatial_scout as scout;
pub use neurospatial_storage as storage;
pub use neurospatial_touch as touch;

pub mod db;
pub mod delta;
pub mod error;
pub mod index;
mod live;
pub mod metrics;
pub mod prelude;
pub mod query;
pub mod shard;

pub use db::{
    IndexRef, NeuroDb, NeuroDbBuilder, NeuroDbConfig, Population, RegionStats, WalHealth,
    WalkthroughMethod, WriteAck,
};
pub use delta::WriteOp;
pub use error::NeuroError;
pub use index::{
    IndexBackend, IndexParams, IndexPlan, Neighbor, QueryOutput, QueryScratch, QueryStats,
    SpatialIndex,
};
pub use neurospatial_geom::Flow;
pub use query::{
    KnnQuery, PathQuery, Plan, Query, QuerySession, RangeQuery, SegmentPredicate, TouchingQuery,
};
pub use shard::ShardedIndex;
