//! # neurospatial-model
//!
//! Synthetic neuroscience data: parametric neuron morphologies, tissue
//! microcircuits and query workloads.
//!
//! The SIGMOD'13 demo this workspace reproduces runs on Blue Brain Project
//! rat-neocortex models, which are proprietary. This crate substitutes a
//! *generator* that reproduces the spatial statistics the three systems
//! (FLAT, SCOUT, TOUCH) are sensitive to:
//!
//! * **extreme, spatially varying density** — millions of elongated
//!   segments packed into a small tissue volume (FLAT's motivation);
//! * **tree-structured, jagged branches** — what SCOUT follows and what
//!   defeats location-only prefetchers;
//! * **two unindexed segment populations in close contact** — the synapse
//!   placement (distance join) workload of TOUCH.
//!
//! ```
//! use neurospatial_model::{CircuitBuilder, MorphologyParams};
//!
//! let circuit = CircuitBuilder::new(42)       // deterministic seed
//!     .neurons(20)
//!     .morphology(MorphologyParams::small())
//!     .build();
//! assert!(circuit.segments().len() > 1000);
//! assert!(circuit.bounds().is_valid());
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod io;
pub mod mesh;
pub mod morphology;
pub mod object;
pub mod stats;
pub mod swc;
pub mod workload;

pub use circuit::{Circuit, CircuitBuilder, SomaPlacement};
pub use io::{decode_segments, encode_segments, DecodeError};
pub use mesh::{morphology_mesh, segments_mesh, tessellate_capsule, TriangleMesh};
pub use morphology::{Morphology, MorphologyParams, Section, SectionKind};
pub use object::NeuronSegment;
pub use stats::DensityStats;
pub use workload::{NavigationPath, QueryPlacement, RangeQueryWorkload};

/// The RNG used everywhere in this crate: explicitly seeded and portable
/// across platforms and `rand` point releases, so that every table the
/// `experiments` binary prints is reproducible bit-for-bit.
pub type ModelRng = rand_chacha::ChaCha8Rng;
