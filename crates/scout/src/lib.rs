//! # neurospatial-scout
//!
//! SCOUT — content-aware prefetching for *structure-following* spatial
//! query sequences (§3 of the demo paper; full algorithm in Tauheed et
//! al., "SCOUT: Prefetching for Latent Structure Following Queries",
//! VLDB'12).
//!
//! Scientists exploring a model issue *moving range queries*: a sequence
//! of overlapping boxes following a neuron branch (or an artery, a lung
//! airway, …). Between two queries the user inspects the visualisation —
//! think time a prefetcher can hide I/O in. Location-only predictors fail
//! on neural geometry because branches are jagged; SCOUT instead looks at
//! the *content* of each result:
//!
//! 1. reconstruct the **topological skeleton** of the result (connected
//!    structures of segments, [`skeleton`]);
//! 2. identify the structures **exiting** the query box and intersect
//!    them with the candidates carried over from the previous query — the
//!    structure the user follows must survive every intersection
//!    ([`candidate`], the paper's Figure 5);
//! 3. **extrapolate** the exit edges of the surviving candidates and
//!    prefetch range queries at the predicted positions ([`predict`]).
//!
//! The crate also implements the baselines the demo compares against
//! (Hilbert-order prefetching, query-centre extrapolation, a Markov
//! chain) and the engine that runs a walkthrough: [`OocFlatIndex`] and
//! its [`OocCursor`] read FLAT's pages through the storage crate's frame
//! pool, from a page file or, for an index in memory, from a modelled
//! device whose clock makes the demo's Figure 6 statistics (data
//! prefetched, correctly prefetched, fetched on demand, stall time,
//! speedup) a function of the reads alone.

#![forbid(unsafe_code)]

pub mod candidate;
pub mod markov;
pub mod ooc;
pub mod predict;
pub mod prefetch;
pub mod session;
pub mod skeleton;

pub use candidate::CandidateTracker;
pub use markov::MarkovPrefetcher;
pub use ooc::{
    write_flat_index, DecodedPage, OocConfig, OocCursor, OocFlatIndex, OocIoTrace, OocQueryStats,
    OocScratch,
};
pub use predict::{extrapolate_exits, PredictParams};
pub use prefetch::{
    ExtrapolationPrefetcher, HilbertPrefetcher, NoPrefetch, PrefetchContext, PrefetchPlan,
    Prefetcher, ScoutPrefetcher,
};
pub use session::{QueryTrace, SessionConfig, SessionStats};
pub use skeleton::{ExitEdge, Skeleton, SkeletonParams, Structure};
