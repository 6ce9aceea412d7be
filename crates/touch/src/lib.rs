//! # neurospatial-touch
//!
//! In-memory spatial *distance* joins for synapse placement (§4 of the
//! demo paper; full algorithm in Nobari et al., "TOUCH: In-Memory Spatial
//! Join by Hierarchical Data-Oriented Partitioning", SIGMOD'13).
//!
//! Placing synapses in a brain model means finding all pairs of neuron
//! branches from two populations within distance ε of each other — a
//! distance join over two *unindexed* in-memory datasets. This crate
//! provides TOUCH and every baseline the demo lets the audience race it
//! against:
//!
//! | Algorithm | Strategy | Demo claim |
//! |-----------|----------|------------|
//! | [`NestedLoopJoin`] | all pairs | O(n²), the naive in-memory approach |
//! | [`PlaneSweepJoin`] | sort + sweep on x | degrades when many elements sit on the sweep line |
//! | [`PbsmJoin`] | uniform grid, *space*-oriented, replicates | TOUCH is ~1 order of magnitude faster |
//! | [`S3Join`] | synchronized R-Tree traversal, indexes both sides | TOUCH is ~2 orders faster at equal memory |
//! | [`TouchJoin`] | hierarchical *data*-oriented partitioning, no replication; CSR buckets + SoA lanes + hybrid bucket sweep | — |
//!
//! For repeated joins against a fixed dataset A, build a [`TouchEngine`]
//! once and drive it with a reusable [`JoinScratch`] — steady-state
//! single-threaded joins allocate nothing.
//!
//! All algorithms share the same filter/refine contract and therefore
//! return identical pair sets (property-tested): the *filter* is an
//! ε-inflated AABB intersection test, the *refine* step is the exact
//! geometric predicate of [`JoinObject::refine`].
//!
//! ```
//! use neurospatial_touch::{JoinObject, NestedLoopJoin, SpatialJoin, TouchJoin};
//! use neurospatial_geom::{Aabb, Vec3};
//!
//! let a: Vec<Aabb> = (0..50).map(|i| Aabb::cube(Vec3::new(i as f64, 0.0, 0.0), 0.4)).collect();
//! let b: Vec<Aabb> = (0..50).map(|i| Aabb::cube(Vec3::new(i as f64, 0.7, 0.0), 0.4)).collect();
//! let fast = TouchJoin::default().join(&a, &b, 0.1);
//! let slow = NestedLoopJoin.join(&a, &b, 0.1);
//! assert_eq!(fast.sorted_pairs(), slow.sorted_pairs());
//! assert!(fast.stats.refine_comparisons <= slow.stats.refine_comparisons);
//! ```

#![forbid(unsafe_code)]

pub mod nested;
pub mod pbsm;
pub mod stats;
pub mod sweep;
pub mod touch;
pub mod tree2;

pub use nested::NestedLoopJoin;
pub use pbsm::PbsmJoin;
pub use stats::{JoinResult, JoinStats, PhaseTimer};
pub use sweep::PlaneSweepJoin;
pub use touch::{AssignmentReport, JoinScratch, TouchEngine, TouchJoin, JOIN_TASK_SLOTS};
pub use tree2::S3Join;

use neurospatial_geom::{Aabb, Segment};
use neurospatial_model::NeuronSegment;

/// An object joinable by the algorithms in this crate.
///
/// `refine` must be symmetric and must imply the AABB filter: if
/// `a.refine(b, eps)` then `a.aabb().inflate(eps)` intersects `b.aabb()`.
pub trait JoinObject: Clone + Send + Sync {
    fn aabb(&self) -> Aabb;

    /// Exact predicate: are the two geometries within distance `eps`?
    fn refine(&self, other: &Self, eps: f64) -> bool;
}

impl JoinObject for Aabb {
    fn aabb(&self) -> Aabb {
        *self
    }

    fn refine(&self, other: &Self, eps: f64) -> bool {
        self.min_distance_sq(other) <= eps * eps
    }
}

impl JoinObject for Segment {
    fn aabb(&self) -> Aabb {
        Segment::aabb(self)
    }

    fn refine(&self, other: &Self, eps: f64) -> bool {
        self.within_distance(other, eps)
    }
}

impl JoinObject for NeuronSegment {
    fn aabb(&self) -> Aabb {
        NeuronSegment::aabb(self)
    }

    /// The synapse-candidate predicate: capsule surfaces within `eps`.
    fn refine(&self, other: &Self, eps: f64) -> bool {
        self.geom.within_distance(&other.geom, eps)
    }
}

/// A two-way spatial distance join: all pairs `(i, j)` with
/// `a[i].refine(b[j], eps)`.
pub trait SpatialJoin {
    /// Human-readable algorithm name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Execute the join.
    fn join<T: JoinObject>(&self, a: &[T], b: &[T], eps: f64) -> JoinResult;
}
