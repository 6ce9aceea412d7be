//! FLAT statistics — the quantities shown live in the demo's Figure 3
//! (pages retrieved, time) and Figure 4 (crawl order).

/// Indexing-phase statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlatBuildStats {
    pub sort_ms: f64,
    pub pack_ms: f64,
    pub neighbor_ms: f64,
    pub seed_tree_ms: f64,
    pub total_ms: f64,
    pub pages: u64,
    /// Total directed neighborhood links (2× the undirected edge count).
    pub neighbor_links: u64,
}

/// What kind of page a query touched (what a cost model charges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    /// A data page, by page number.
    Data(u32),
    /// A node of the seed R-Tree: (node id, level).
    SeedNode(usize, usize),
}

/// Per-query execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatQueryStats {
    /// Seed-tree nodes visited across the initial seed and any re-seeds.
    pub seed_nodes_read: u64,
    /// Data pages read (each page at most once per query).
    pub pages_read: u64,
    /// Objects on the pages read: every one is decided against the query
    /// box, those of a page accepted whole by the page's MBR alone (so
    /// `results <= objects_tested` always).
    pub objects_tested: u64,
    /// Objects returned.
    pub results: u64,
    /// Times the crawl front emptied and the executor had to re-seed
    /// (0 on well-connected dense data).
    pub reseeds: u64,
    /// Distinct pages the crawl examined through a link and rejected
    /// because their MBR missed the query (the crawl's only overhead). A
    /// page is examined once per query however many visited pages link
    /// to it.
    pub links_rejected: u64,
    /// Data pages in visit order — the demo's Figure 4 crawl animation.
    pub crawl_order: Vec<u32>,
}

impl FlatQueryStats {
    /// Total page reads (seed + data).
    pub fn total_reads(&self) -> u64 {
        self.seed_nodes_read + self.pages_read
    }

    /// Selectivity of the object tests: results / tested.
    pub fn test_precision(&self) -> f64 {
        if self.objects_tested == 0 {
            0.0
        } else {
            self.results as f64 / self.objects_tested as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_precision() {
        let s = FlatQueryStats {
            seed_nodes_read: 3,
            pages_read: 7,
            objects_tested: 100,
            results: 25,
            ..Default::default()
        };
        assert_eq!(s.total_reads(), 10);
        assert!((s.test_precision() - 0.25).abs() < 1e-12);
        assert_eq!(FlatQueryStats::default().test_precision(), 0.0);
    }
}
