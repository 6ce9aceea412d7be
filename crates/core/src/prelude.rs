//! Convenience re-exports for typical use of the library.
//!
//! ```
//! use neurospatial::prelude::*;
//!
//! let circuit = CircuitBuilder::new(1).neurons(3).build();
//! let db = NeuroDb::from_circuit(&circuit);
//! let region = Aabb::cube(circuit.bounds().center(), 10.0);
//! let out = db.query().range(region).collect().expect("no population to resolve");
//! assert!(out.len() <= circuit.segments().len());
//! ```

pub use crate::db::{
    IndexRef, NeuroDb, NeuroDbBuilder, NeuroDbConfig, Population, RegionStats, WalHealth,
    WalkthroughMethod, WriteAck,
};
pub use crate::delta::WriteOp;
pub use crate::error::NeuroError;
pub use crate::index::{
    IndexBackend, IndexParams, IndexPlan, Neighbor, QueryOutput, QueryScratch, QueryStats,
    SpatialIndex,
};
pub use crate::query::{
    KnnQuery, PathQuery, Plan, Query, QuerySession, RangeQuery, SegmentPredicate, TouchingQuery,
};
pub use crate::shard::ShardedIndex;

pub use neurospatial_geom::{Aabb, Flow, Segment, Vec3};

pub use neurospatial_model::{
    Circuit, CircuitBuilder, DensityStats, Morphology, MorphologyParams, NavigationPath,
    NeuronSegment, QueryPlacement, RangeQueryWorkload, SomaPlacement,
};

pub use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatQueryStats, PackingStrategy};

pub use neurospatial_rtree::{RPlusTree, RTree, RTreeObject, RTreeParams, SplitStrategy};

pub use neurospatial_scout::{
    ExtrapolationPrefetcher, HilbertPrefetcher, MarkovPrefetcher, NoPrefetch, OocConfig,
    OocFlatIndex, Prefetcher, ScoutPrefetcher, SessionConfig, SessionStats,
};

pub use neurospatial_storage::{
    CostModel, EvictionPolicy, FaultPlan, FrameStats, StorageError, Wal, WalRecovery,
};

pub use neurospatial_touch::{
    JoinObject, JoinResult, JoinScratch, JoinStats, NestedLoopJoin, PbsmJoin, PlaneSweepJoin,
    S3Join, SpatialJoin, TouchEngine, TouchJoin,
};
