//! Shared workload construction for the paper-table binary
//! (`experiments`), the Criterion benches and the `zero_alloc` test.
//!
//! Everything is deterministic: the same seeds produce the same circuits,
//! workloads and paths on every run and platform (ChaCha8-based
//! generators), so every table `experiments` prints is reproducible.

use neurospatial::prelude::*;

/// A circuit whose neurons are packed into a *fixed* tissue volume, so
/// raising the neuron count raises density — the axis of the paper's §2
/// argument.
pub fn dense_circuit(neurons: u32, seed: u64) -> Circuit {
    CircuitBuilder::new(seed)
        .neurons(neurons)
        .volume(Aabb::new(Vec3::ZERO, Vec3::splat(250.0)))
        .morphology(MorphologyParams::small())
        .placement(SomaPlacement::Clustered { count: 5, sigma: 40.0 })
        .build()
}

/// A circuit with jagged, tortuous branches — the geometry §3 says breaks
/// location-only prefetching (persistence lowered, long axons).
pub fn jagged_circuit(neurons: u32, seed: u64) -> Circuit {
    let mut m = MorphologyParams::cortical();
    m.persistence = 0.45; // much more tortuous than the default 0.7
    m.steps_per_section = 16;
    m.branch_probability = 0.5;
    CircuitBuilder::new(seed).neurons(neurons).morphology(m).build()
}

/// A deterministic dataset of exactly `n` segments: grow a dense circuit
/// until it holds at least `n`, then truncate, so a caller sizes the
/// dataset directly instead of through a neuron count.
pub fn sized_segments(n: usize, seed: u64) -> Vec<NeuronSegment> {
    let mut neurons = 4u32;
    loop {
        let circuit = dense_circuit(neurons, seed);
        if circuit.segments().len() >= n || neurons >= 4096 {
            let mut segments = circuit.segments().to_vec();
            segments.truncate(n);
            return segments;
        }
        neurons *= 2;
    }
}

/// The standard data-centred query workload of E1/E2.
pub fn standard_workload(circuit: &Circuit, n: usize, half_extent: f64) -> RangeQueryWorkload {
    RangeQueryWorkload::generate(
        1000,
        &circuit.bounds(),
        n,
        half_extent,
        QueryPlacement::DataCentered,
        Some(circuit.segments()),
    )
}

/// One row of table E1: averages per query over one density and one
/// query size, FLAT against the STR-packed and the dynamically built
/// R-Tree (64 entries a node or page).
#[derive(Debug, Clone, PartialEq)]
pub struct E1Row {
    pub segments: usize,
    pub half_extent: f64,
    pub avg_result: f64,
    /// FLAT data pages plus seed-tree nodes.
    pub flat_reads: f64,
    pub rtree_reads: f64,
    pub dyn_reads: f64,
    /// Modelled I/O ([`CostModel::default`]): FLAT's data pages and the
    /// packed tree's nodes, each read in visit order on its own disk.
    pub flat_io_ms: f64,
    pub rtree_io_ms: f64,
    pub flat_us: f64,
    pub rtree_us: f64,
}

/// Table E1's rows for `dense_circuit(neurons, 1)`: one row per query
/// half-extent (10 and 30 µm), 40 data-centred queries each. Every
/// column but the two wall times is a function of the inputs.
pub fn e1_rows(neurons: u32) -> Vec<E1Row> {
    use std::time::Instant;
    let circuit = dense_circuit(neurons, 1);
    let segments = circuit.segments().to_vec();
    let flat =
        FlatIndex::build(segments.clone(), FlatBuildParams::default().with_page_capacity(64));
    let packed = RTree::bulk_load(segments.clone(), RTreeParams::with_max_entries(64));
    let mut dynamic = RTree::new(RTreeParams::with_max_entries(64));
    for s in &segments {
        dynamic.insert(*s);
    }

    let mut rows = Vec::new();
    for half_extent in [10.0f64, 30.0] {
        let w = standard_workload(&circuit, 40, half_extent);
        let n = w.queries.len() as f64;
        let (mut results, mut f_reads, mut r_reads, mut d_reads) = (0u64, 0u64, 0u64, 0u64);
        let (mut f_us, mut r_us) = (0.0f64, 0.0f64);
        // Modelled disks (head position, nanoseconds): FLAT pages are
        // Hilbert-contiguous, R-Tree nodes live wherever the arena put
        // them.
        let cost = CostModel::default();
        let (mut f_head, mut f_ns, mut r_head, mut r_ns) = (None, 0u64, None, 0u64);
        for q in &w.queries {
            let t0 = Instant::now();
            let (hits, fs) = flat.range_query_with(q, |p| {
                f_ns += cost.read_ns(f_head.replace(p as u64), p as u64);
            });
            f_us += t0.elapsed().as_secs_f64() * 1e6;
            let t1 = Instant::now();
            let (_, rs) = packed.range_query_with(q, |node, _| {
                r_ns += cost.read_ns(r_head.replace(node as u64), node as u64);
            });
            r_us += t1.elapsed().as_secs_f64() * 1e6;
            let (_, ds) = dynamic.range_query(q);
            results += hits.len() as u64;
            f_reads += fs.pages_read + fs.seed_nodes_read;
            r_reads += rs.nodes_visited();
            d_reads += ds.nodes_visited();
        }
        rows.push(E1Row {
            segments: segments.len(),
            half_extent,
            avg_result: results as f64 / n,
            flat_reads: f_reads as f64 / n,
            rtree_reads: r_reads as f64 / n,
            dyn_reads: d_reads as f64 / n,
            flat_io_ms: f_ns as f64 / 1e6 / n,
            rtree_io_ms: r_ns as f64 / 1e6 / n,
            flat_us: f_us / n,
            rtree_us: r_us / n,
        });
    }
    rows
}

/// Session configuration used by the E4 walkthroughs: a pool smaller than
/// the walkthrough working set and a disk whose random reads are slow
/// enough that prefetch accuracy dominates stall time.
pub fn walkthrough_config() -> SessionConfig {
    SessionConfig {
        // Pool smaller than a walkthrough's working set: pages from a few
        // steps ago get evicted, as on the demo machine where the model
        // dwarfs memory.
        buffer_pages: 48,
        cost: CostModel::default(),
        think_time_ms: 400.0,
    }
}

/// The database the walkthrough tables (E4, E6, A3, A4) replay paths on:
/// FLAT at 64 objects a page with the given session settings. Every
/// `db.query().along_path(..).run()` on it starts on a cold pool over a
/// modelled device, so a table row is a function of its inputs.
pub fn walkthrough_db(circuit: &Circuit, session: SessionConfig) -> NeuroDb {
    NeuroDb::builder()
        .circuit(circuit)
        .page_capacity(64)
        .session(session)
        .build()
        .expect("generated circuits are valid and FLAT takes any page capacity")
}

/// One cold walkthrough on a [`walkthrough_db`].
pub fn walk(db: &NeuroDb, path: &NavigationPath, method: WalkthroughMethod) -> SessionStats {
    db.query().along_path(path).method(method).run().expect("monolithic FLAT walks")
}

/// Branch-following paths for E3/E4: moderately overlapping view boxes
/// along jagged branches.
pub fn walkthrough_paths(circuit: &Circuit, count: u64) -> Vec<NavigationPath> {
    // View boxes of half-extent 15 advanced by 22 µm per step: consecutive
    // queries overlap just enough to track the structure (~27 %), so most
    // pages of every step are *new* — the regime where prefetch accuracy,
    // not cache inertia, decides the stall time.
    (0..count * 8)
        .filter_map(|seed| NavigationPath::along_random_branch(circuit, seed, 15.0, 22.0))
        .filter(|p| p.queries.len() >= 14)
        .take(count as usize)
        .collect()
}

/// Simple fixed-width table printer for the experiment binary.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("| {:>w$} ", c, w = widths[i]));
            }
            s.push('|');
            s
        };
        println!("{}", line(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", line(&sep));
        for r in &self.rows {
            println!("{}", line(r));
        }
    }
}

/// Format helpers.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(dense_circuit(5, 1).segments().len(), dense_circuit(5, 1).segments().len());
        let c = jagged_circuit(4, 2);
        assert!(!walkthrough_paths(&c, 2).is_empty());
    }

    /// Table E4's small circuit, the one the paper's Figure 6 corresponds
    /// to. On the modelled device every count is exact.
    #[test]
    fn e4_small_circuit_rows_are_pinned() {
        use WalkthroughMethod as M;
        let circuit = jagged_circuit(12, 9);
        let db = walkthrough_db(&circuit, walkthrough_config());
        let paths = walkthrough_paths(&circuit, 6);
        assert_eq!(paths.iter().map(|p| p.queries.len()).sum::<usize>(), 97);
        // method, stall ms, demand misses, demand hits, prefetched, useful
        let rows = [
            (M::None, 514.3, 87, 475, 0, 0),
            (M::Hilbert, 337.6, 58, 504, 143, 29),
            (M::Extrapolation, 217.2, 39, 523, 66, 48),
            (M::Markov, 514.3, 87, 475, 0, 0),
            (M::Scout, 128.8, 24, 538, 93, 63),
        ];
        for (method, stall_ms, misses, hits, prefetched, useful) in rows {
            let (mut stall, mut counts) = (0.0, [0u64; 4]);
            for p in &paths {
                let s = walk(&db, p, method);
                stall += s.total_stall_ms;
                counts[0] += s.total_demand_misses;
                counts[1] += s.total_demand_hits;
                counts[2] += s.total_prefetched;
                counts[3] += s.useful_prefetched;
            }
            assert!((stall - stall_ms).abs() < 0.05, "{method}: stall {stall} ms");
            assert_eq!(counts, [misses, hits, prefetched, useful], "{method}");
        }
    }

    /// Table E1's sparsest circuit at both query sizes. `rtree io ms` is
    /// charged from the packed tree's visit hook, node id by node id, so
    /// any change to which nodes a range query visits, or in what order,
    /// moves it.
    #[test]
    fn e1_small_circuit_rows_are_pinned() {
        let rows = e1_rows(10);
        // half extent, avg result, flat / rtree / dyn reads, flat / rtree io ms
        let want = [
            [10.0, 14.9, 4.825, 3.65, 3.725, 11.985, 29.2],
            [30.0, 108.5, 9.7, 8.75, 8.7, 33.3525, 70.0],
        ];
        assert_eq!(rows.len(), want.len());
        for (r, w) in rows.iter().zip(want) {
            assert_eq!(r.segments, 2586);
            let got = [
                r.half_extent,
                r.avg_result,
                r.flat_reads,
                r.rtree_reads,
                r.dyn_reads,
                r.flat_io_ms,
                r.rtree_io_ms,
            ];
            assert!(got.iter().zip(w).all(|(a, b)| (a - b).abs() < 1e-9), "{got:?} != {w:?}");
        }
    }

    #[test]
    fn sized_segments_hits_the_requested_size() {
        let s = sized_segments(1500, 7);
        assert_eq!(s.len(), 1500);
        assert_eq!(s, sized_segments(1500, 7), "deterministic");
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(["a", "bb"]);
        t.row(["1", "2"]);
        t.print(); // smoke: no panic on width computation
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }
}
