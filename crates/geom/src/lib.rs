//! # neurospatial-geom
//!
//! Geometric foundation of the `neurospatial` workspace: 3-D vectors,
//! axis-aligned bounding boxes, capsule-shaped neuron segments, exact
//! distance computations, the Morton / Hilbert space-filling curves
//! used for spatial ordering by the FLAT index and the prefetchers, and
//! the scoped-thread [`Executor`] shared by every parallel query path.
//!
//! All coordinates are `f64`. The crate is `no_std`-agnostic in spirit but
//! uses `std` for convenience; it has no mandatory dependencies.
//!
//! ## Quick tour
//!
//! ```
//! use neurospatial_geom::{Vec3, Aabb, Segment};
//!
//! let a = Segment::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 0.0, 0.0), 0.1);
//! let b = Segment::new(Vec3::new(0.5, 0.15, 0.0), Vec3::new(0.5, 1.0, 0.0), 0.1);
//! // Surface-to-surface distance between two capsules:
//! let d = a.distance(&b);
//! assert!(d == 0.0); // the capsule surfaces overlap
//! assert!(a.aabb().intersects(&b.aabb()));
//! ```

#![forbid(unsafe_code)]

pub mod aabb;
pub mod grid;
pub mod hilbert;
pub mod morton;
pub mod parallel;
pub mod segment;
pub mod swap;
pub mod vec3;

pub use aabb::Aabb;
pub use grid::GridIndexer;
pub use hilbert::{
    hilbert_d2xyz, hilbert_min_key_in, hilbert_range_bbox, hilbert_xyz2d, HilbertSorter,
};
pub use morton::{morton_decode3, morton_encode3};
pub use parallel::Executor;
pub use segment::Segment;
pub use swap::Swap;
pub use vec3::Vec3;

/// Numerical tolerance used by geometric predicates throughout the
/// workspace. Chosen to be far below any biologically meaningful length
/// (micrometre-scale coordinates) while far above `f64` rounding noise.
pub const EPSILON: f64 = 1e-9;

/// Verdict a streaming sink returns for each candidate object a spatial
/// traversal offers it — the control channel that lets predicates and
/// limits push down *below* the index traversal instead of running as a
/// post-filter over a materialized result set.
///
/// The contract every streaming traversal follows: a candidate whose AABB
/// intersects the query is offered to the sink exactly once (replicated
/// entries are de-duplicated first); [`Flow::Emit`] counts it as a result
/// and continues, [`Flow::Skip`] rejects it (filtered out, not counted)
/// and continues, [`Flow::Last`] counts it as the final result and stops
/// the traversal immediately — the early exit a pushed-down `LIMIT`
/// compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Count the candidate as a result and keep traversing.
    Emit,
    /// Reject the candidate (predicate miss) and keep traversing.
    Skip,
    /// Count the candidate as the final result and stop the traversal.
    Last,
}
