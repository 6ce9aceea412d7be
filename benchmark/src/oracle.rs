//! The second implementation range answers are checked against: a frozen
//! STR-packed R-tree over the same segments. It shares no traversal code
//! with FLAT's seed-and-crawl.

use neurospatial::prelude::*;
use neurospatial::rtree::{TraversalCounters, TraversalScratch};
use std::time::Instant;

pub struct RangeOracle {
    tree: RTree<NeuronSegment>,
    scratch: TraversalScratch,
    pub build_s: f64,
}

/// What the oracle expects of each query of a list.
pub struct Expected {
    /// Result count of every query.
    pub counts: Vec<u32>,
    /// Sorted result ids of every [`ID_STRIDE`]-th query.
    pub ids: Vec<Vec<u64>>,
    /// Mean oracle time and tree nodes visited per query.
    pub mean_ns: f64,
    pub nodes_per_query: f64,
}

/// Full id sets are compared on every 64th query, counts on all.
pub const ID_STRIDE: usize = 64;

impl RangeOracle {
    pub fn build(segments: &[NeuronSegment]) -> Self {
        let started = Instant::now();
        let mut tree = RTree::bulk_load(segments.to_vec(), RTreeParams::default());
        tree.freeze();
        RangeOracle {
            tree,
            scratch: TraversalScratch::new(),
            build_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn count(&mut self, q: &Aabb) -> TraversalCounters {
        self.tree.range_query_stream(q, &mut self.scratch, |_| Flow::Emit)
    }

    pub fn sorted_ids(&mut self, q: &Aabb) -> Vec<u64> {
        let mut ids = Vec::new();
        self.tree.range_query_stream(q, &mut self.scratch, |s| {
            ids.push(s.id);
            Flow::Emit
        });
        ids.sort_unstable();
        ids
    }

    pub fn expect(&mut self, queries: &[Aabb]) -> Expected {
        let started = Instant::now();
        let mut nodes = 0u64;
        let counts: Vec<u32> = queries
            .iter()
            .map(|q| {
                let c = self.count(q);
                nodes += c.nodes_visited;
                c.results as u32
            })
            .collect();
        let mean_ns = started.elapsed().as_nanos() as f64 / queries.len().max(1) as f64;
        let ids = queries.iter().step_by(ID_STRIDE).map(|q| self.sorted_ids(q)).collect();
        Expected {
            counts,
            ids,
            mean_ns,
            nodes_per_query: nodes as f64 / queries.len().max(1) as f64,
        }
    }
}

pub fn sorted_ids_of(segments: &[NeuronSegment]) -> Vec<u64> {
    let mut ids: Vec<u64> = segments.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids
}
