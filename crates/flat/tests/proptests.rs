//! Property tests: FLAT is an exact range-query index on arbitrary data —
//! including adversarially disconnected data — and always agrees with both
//! brute force and the R-Tree.

use neurospatial_flat::{
    FlatBuildParams, FlatIndex, FlatQueryStats, FlatScratch, PackingStrategy, PageGraph,
};
use neurospatial_geom::{hilbert_min_key_in, hilbert_range_bbox, hilbert_xyz2d, Aabb, Flow, Vec3};
use neurospatial_rtree::{RTree, RTreeObject, RTreeParams};
use proptest::prelude::*;

fn small_box() -> impl Strategy<Value = Aabb> {
    ((-80.0..80.0, -80.0..80.0, -80.0..80.0), 0.1..6.0f64)
        .prop_map(|((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r))
}

/// Clustered boxes: several tight clusters with big gaps, the worst case
/// for crawl connectivity.
fn clustered_boxes() -> impl Strategy<Value = Vec<Aabb>> {
    prop::collection::vec(
        (
            (-3i32..3, -3i32..3, -3i32..3), // cluster cell
            prop::collection::vec((0.0..5.0f64, 0.0..5.0f64, 0.0..5.0f64), 1..60),
        ),
        1..6,
    )
    .prop_map(|clusters| {
        let mut out = Vec::new();
        for ((cx, cy, cz), pts) in clusters {
            let base = Vec3::new(cx as f64 * 200.0, cy as f64 * 200.0, cz as f64 * 200.0);
            for (x, y, z) in pts {
                out.push(Aabb::cube(base + Vec3::new(x, y, z), 0.5));
            }
        }
        out
    })
}

/// An object that knows its position in the input, so that emission
/// order can be compared and not only the result set.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    id: u32,
    bb: Aabb,
}

impl RTreeObject for Tagged {
    fn aabb(&self) -> Aabb {
        self.bb
    }
}

/// Boxes on the lattice `(k·0.1 + j·1e-9)·scale`: no coordinate is
/// `f32`-representable, faces of different boxes coincide exactly, the
/// extent is 0 to 3 lattice steps (0 is a zero-extent box), `k` runs
/// through negative values, and the scales put the data at 1e-3, 1, 1e3,
/// 1e7 and (1e38) on both sides of `f32::MAX`.
fn lattice_boxes() -> impl Strategy<Value = Vec<Aabb>> {
    let coord = || (-40i32..40, 0u32..3);
    let one = ((coord(), coord(), coord()), (0u32..4, 0u32..4, 0u32..4));
    (prop::collection::vec(one, 0..450), 0usize..5).prop_map(|(cells, scale)| {
        let scale = [1e-3, 1.0, 1e3, 1e7, 1e38][scale];
        let at = |(k, j): (i32, u32)| (f64::from(k) * 0.1 + f64::from(j) * 1e-9) * scale;
        cells
            .into_iter()
            .map(|((x, y, z), (ex, ey, ez))| {
                let lo = Vec3::new(at(x), at(y), at(z));
                let step = 0.1 * scale;
                let ext = Vec3::new(f64::from(ex), f64::from(ey), f64::from(ez)) * step;
                Aabb { lo, hi: lo + ext }
            })
            .collect()
    })
}

/// Page ids in ascending order, duplicates dropped.
fn sorted_pages(pages: &[u32]) -> Vec<u32> {
    let mut sorted = pages.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// The pages whose MBR meets `q`, by brute force over every page (not
/// through the links, which the crawl itself uses).
fn pages_meeting<T: RTreeObject>(idx: &FlatIndex<T>, q: &Aabb) -> Vec<u32> {
    (0..idx.page_count() as u32).filter(|&p| idx.graph().mbr(p).intersects(q)).collect()
}

/// The pages a crawl walks, by brute force: the component, among the
/// pages whose box meets `q` (corners in order), of the owner of any cell
/// of `q`'s block (they are all in one).
fn walked(graph: &PageGraph, q: &Aabb) -> Vec<u32> {
    let r = Aabb::new(q.lo, q.hi);
    if !graph.bounds().intersects(q) {
        return Vec::new();
    }
    let mut seen = vec![graph.owner_of(r.intersection(graph.grid().bounds()).center())];
    let mut i = 0;
    while i < seen.len() {
        for &n in graph.neighbors_of(seen[i]) {
            if graph.boxes()[n as usize].intersects(&r) && !seen.contains(&n) {
                seen.push(n);
            }
        }
        i += 1;
    }
    seen
}

/// Pages read against brute force: the pages whose MBR meets `q`, each
/// read once, and the objects meeting `q` on them.
fn assert_crawl_exact<T: RTreeObject>(
    idx: &FlatIndex<T>,
    objs: &[Aabb],
    q: &Aabb,
) -> Result<(), TestCaseError> {
    let (hits, stats) = idx.range_query(q);
    let want = objs.iter().filter(|o| o.intersects(q)).count();
    prop_assert_eq!(hits.len(), want, "results at {}", q);
    let order = sorted_pages(&stats.crawl_order);
    prop_assert_eq!(order.len(), stats.crawl_order.len(), "a page read twice at {}", q);
    prop_assert_eq!(order, pages_meeting(idx, q), "pages at {}", q);
    Ok(())
}

/// The queries the rounding can get wrong, derived from the data and the
/// built pages: faces equal to object faces, faces one `f64` ulp and one
/// `f32` step either side of them, page MBRs exactly and one ulp inside
/// and outside, infinite faces.
fn awkward_queries(idx: &FlatIndex<Tagged>, objs: &[Aabb], picks: &[usize]) -> Vec<Aabb> {
    let inf = Vec3::splat(f64::INFINITY);
    let mut qs = vec![
        Aabb { lo: -inf, hi: inf },
        Aabb { lo: Vec3::ZERO, hi: inf },
        Aabb { lo: -inf, hi: Vec3::ZERO },
    ];
    let nudged = |b: &Aabb, f: fn(f64) -> f64, g: fn(f64) -> f64| Aabb {
        lo: Vec3::new(f(b.lo.x), f(b.lo.y), f(b.lo.z)),
        hi: Vec3::new(g(b.hi.x), g(b.hi.y), g(b.hi.z)),
    };
    let f32_up = |x: f64| f64::from((x as f32).next_up());
    let f32_down = |x: f64| f64::from((x as f32).next_down());
    for pair in picks.chunks(2) {
        if objs.is_empty() {
            break;
        }
        let (a, b) = (objs[pair[0] % objs.len()], objs[pair[pair.len() - 1] % objs.len()]);
        // Touching a's upper corner and b's lower corner.
        qs.push(Aabb::new(a.hi, b.lo));
        qs.push(Aabb { lo: a.lo, hi: inf });
        // The union's faces are object faces; then nudge them.
        let u = a.union(&b);
        qs.extend([
            u,
            nudged(&u, f64::next_up, f64::next_down),
            nudged(&u, f64::next_down, f64::next_up),
            nudged(&u, f32_up, f32_down),
            nudged(&u, f32_down, f32_up),
        ]);
        let page = (pair[0] % idx.page_count()) as u32;
        let mbr = idx.graph().mbr(page);
        qs.extend([
            mbr,
            nudged(&mbr, f64::next_up, f64::next_down),
            nudged(&mbr, f64::next_down, f64::next_up),
        ]);
    }
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The page kernel against brute force: result set *and* emission
    /// order, through both entry points, under every `Flow`.
    #[test]
    fn kernel_matches_brute_force_on_rounding_cases(
        boxes in lattice_boxes(),
        cap in 0usize..6,
        picks in prop::collection::vec(0usize..10_000, 2..9),
        cut in 0usize..10_000,
    ) {
        let cap = [1, 63, 64, 65, 128, 200][cap];
        let objs: Vec<Tagged> =
            boxes.iter().enumerate().map(|(i, &bb)| Tagged { id: i as u32, bb }).collect();
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(cap));
        let mut scratch = FlatScratch::new();
        for q in awkward_queries(&idx, &boxes, &picks) {
            let mut pages = Vec::new();
            let mut got = Vec::new();
            let stats = idx.range_query_stream(&q, &mut scratch, |p| pages.push(p), |o| {
                got.push(o.id);
                Flow::Emit
            });
            // Brute force over the pages in visit order gives the order;
            // brute force over the input gives the set.
            let want: Vec<u32> = pages
                .iter()
                .flat_map(|&p| idx.page_objects(p))
                .filter(|o| o.bb.intersects(&q))
                .map(|o| o.id)
                .collect();
            prop_assert_eq!(&got, &want, "emission order at {} (cap {})", q, cap);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            let scan: Vec<u32> =
                (0..boxes.len() as u32).filter(|&i| boxes[i as usize].intersects(&q)).collect();
            prop_assert_eq!(&sorted, &scan, "result set at {} (cap {})", q, cap);
            prop_assert_eq!(stats.results as usize, got.len());
            prop_assert_eq!(stats.pages_read as usize, pages.len());
            prop_assert_eq!(sorted_pages(&pages), pages_meeting(&idx, &q), "pages at {}", q);
            let on_pages: usize = pages.iter().map(|&p| idx.page_objects(p).len()).sum();
            prop_assert_eq!(stats.objects_tested as usize, on_pages);

            // Every page box is decided once: the rejected count is the
            // number of distinct rejected neighbours of the walked pages,
            // not of links.
            let r = Aabb::new(q.lo, q.hi);
            let mut rejected: Vec<u32> = walked(idx.graph(), &q)
                .iter()
                .flat_map(|&p| idx.graph().neighbors_of(p))
                .copied()
                .filter(|&n| !idx.graph().boxes()[n as usize].intersects(&r))
                .collect();
            rejected.sort_unstable();
            rejected.dedup();
            prop_assert_eq!(stats.links_rejected as usize, rejected.len(), "at {}", q);

            // The instrumented entry point runs the same crawl.
            let (hits, full) = idx.range_query(&q);
            prop_assert_eq!(hits.iter().map(|o| o.id).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(&full.crawl_order, &pages);
            prop_assert_eq!(&full, &FlatQueryStats { crawl_order: pages.clone(), ..stats });

            // Skip filters without disturbing the stream.
            let mut seen = Vec::new();
            let skipping = idx.range_query_stream(&q, &mut scratch, |_| {}, |o| {
                seen.push(o.id);
                if o.id % 2 == 0 { Flow::Emit } else { Flow::Skip }
            });
            prop_assert_eq!(&seen, &want);
            prop_assert_eq!(skipping.results as usize, want.iter().filter(|&&i| i % 2 == 0).count());

            // Last ends the crawl on that very object, wherever it falls:
            // mid-page, mid-chunk, on an accepted page or a tested one.
            for stop in [want.len() / 2, cut % want.len().max(1)] {
                if want.is_empty() {
                    break;
                }
                let mut seen = Vec::new();
                let cut_short = idx.range_query_stream(&q, &mut scratch, |_| {}, |o| {
                    seen.push(o.id);
                    if seen.len() > stop { Flow::Last } else { Flow::Emit }
                });
                prop_assert_eq!(&seen[..], &want[..=stop], "Last at {} of {}", stop, q);
                prop_assert_eq!(cut_short.results as usize, stop + 1);
            }
        }
    }

    /// Exact results, and a crawl that reads each page meeting the query
    /// once and no other. Besides random boxes, the queries include a
    /// point and a tiny cube inside a page's MBR.
    #[test]
    fn flat_matches_brute_force(
        objs in prop::collection::vec(small_box(), 0..500),
        queries in prop::collection::vec(small_box(), 1..8),
        picks in prop::collection::vec(0usize..10_000, 1..6),
        cap in 4usize..96,
    ) {
        let idx = FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(cap));
        let mut queries = queries;
        if !objs.is_empty() {
            for &pick in &picks {
                let page = idx.graph().mbr((pick % idx.page_count()) as u32);
                queries.push(Aabb::point(page.center()));
                queries.push(Aabb::cube(objs[pick % objs.len()].center(), 0.05));
            }
        }
        for q in &queries {
            assert_crawl_exact(&idx, &objs, q)?;
        }
    }

    /// Every packing, on clustered, sparse and duplicate-centre data: the
    /// pages read are the pages whose MBR meets the query, each once. The
    /// tiling follows the pages' first keys whatever order packed them.
    #[test]
    fn every_packing_reads_exactly_the_pages_meeting_the_query(
        clustered in clustered_boxes(),
        sparse in prop::collection::vec(small_box(), 1..60),
        centre in (-80.0..80.0f64, -80.0..80.0f64, -80.0..80.0f64),
        radii in prop::collection::vec(0.0..4.0f64, 1..200),
        queries in prop::collection::vec(
            ((-700.0..700.0f64, -700.0..700.0f64, -700.0..700.0f64), 0.0..400.0f64),
            1..6,
        ),
        cap in 1usize..40,
    ) {
        let sparse: Vec<Aabb> = sparse.iter().map(|b| Aabb::cube(b.center() * 8.0, 0.3)).collect();
        let c = Vec3::new(centre.0, centre.1, centre.2);
        let duplicate: Vec<Aabb> = radii.iter().map(|&r| Aabb::cube(c, r)).collect();
        for objs in [clustered, sparse, duplicate] {
            let mut qs: Vec<Aabb> = queries
                .iter()
                .map(|&((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r))
                .collect();
            qs.extend(objs.iter().step_by(7).map(|o| Aabb::cube(o.center(), 2.0)));
            for packing in
                [PackingStrategy::Hilbert, PackingStrategy::Morton, PackingStrategy::CoordinateSort]
            {
                let params = FlatBuildParams::default().with_page_capacity(cap).with_packing(packing);
                let idx = FlatIndex::build(objs.clone(), params);
                for q in &qs {
                    assert_crawl_exact(&idx, &objs, q)?;
                }
            }
        }
    }

    /// Queries whose faces lie on the edges of grid cells (exactly, and one
    /// ulp either side) and on the grid's bounds stay exact: the faces the
    /// key's rounding could put in the wrong cell.
    #[test]
    fn queries_on_cell_edges_and_bounds_stay_exact(
        objs in prop::collection::vec(small_box(), 1..300),
        cells in prop::collection::vec((0u32..65_536, 0u32..65_536, 0u32..65_536), 1..6),
        bits in 1u32..17,
        cap in 1usize..40,
    ) {
        let params = FlatBuildParams { hilbert_bits: bits, ..FlatBuildParams::default() };
        let idx = FlatIndex::build(objs.clone(), params.with_page_capacity(cap));
        let g = *idx.graph().grid().bounds();
        let side = ((1u64 << bits) - 1) as f64;
        let edge = |c: u32, a: usize| {
            let (lo, ext) = (g.lo.axis(a), g.extent().axis(a));
            lo + f64::from(c % (1 << bits)) * (ext / side)
        };
        let mut qs = vec![g, Aabb::point(g.lo), Aabb::point(g.hi)];
        for w in cells.windows(2).chain([&cells[..1]]) {
            let (a, b) = (w[0], w[w.len() - 1]);
            let at = |(x, y, z): (u32, u32, u32)| Vec3::new(edge(x, 0), edge(y, 1), edge(z, 2));
            let (p, q) = (at(a), at(b));
            let up = Vec3::new(p.x.next_up(), p.y.next_up(), p.z.next_up());
            let down = Vec3::new(q.x.next_down(), q.y.next_down(), q.z.next_down());
            qs.extend([Aabb::new(p, q), Aabb::new(up, down), Aabb::point(p), Aabb::new(g.lo, p)]);
            qs.push(Aabb::new(p, g.hi));
        }
        for q in &qs {
            assert_crawl_exact(&idx, &objs, q)?;
        }
    }

    #[test]
    fn flat_exact_on_disconnected_clusters(
        objs in clustered_boxes(),
        q in (
            (-700.0..700.0f64, -700.0..700.0f64, -700.0..700.0f64),
            1.0..800.0f64,
        ).prop_map(|((x, y, z), r)| Aabb::cube(Vec3::new(x, y, z), r)),
    ) {
        let idx = FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(8));
        let (hits, _) = idx.range_query(&q);
        let want = objs.iter().filter(|o| o.intersects(&q)).count();
        prop_assert_eq!(hits.len(), want);
    }

    #[test]
    fn flat_and_rtree_agree(
        objs in prop::collection::vec(small_box(), 0..400),
        q in small_box(),
    ) {
        let idx = FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(16));
        let tree = RTree::bulk_load(objs, RTreeParams::with_max_entries(16));
        let (f, _) = idx.range_query(&q);
        let (r, _) = tree.range_query(&q);
        prop_assert_eq!(f.len(), r.len());
    }

    #[test]
    fn page_graph_links_have_geometric_support(
        objs in prop::collection::vec(small_box(), 2..300),
        cap in 4usize..32,
    ) {
        let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(cap));
        let boxes = idx.graph().boxes();
        for u in 0..idx.page_count() as u32 {
            prop_assert!(boxes[u as usize].contains(&idx.graph().mbr(u)));
            for &v in idx.graph().neighbors_of(u) {
                prop_assert!(u != v);
                prop_assert!(idx.graph().neighbors_of(v).contains(&u));
                prop_assert!(boxes[u as usize].intersects(&boxes[v as usize]));
            }
        }
    }
}

/// The walk of the state table against a decode of every cell: every
/// range `[a, b)` of the curve at orders 1 to 3 (and `b` past the end).
#[test]
fn hilbert_range_bbox_matches_brute_force() {
    for bits in 1..=3u32 {
        let n = 1u64 << (3 * bits);
        let side = 1u32 << bits;
        let mut cell_of = vec![[0u32; 3]; n as usize];
        for (x, y, z) in
            (0..side).flat_map(|x| (0..side).flat_map(move |y| (0..side).map(move |z| (x, y, z))))
        {
            cell_of[hilbert_xyz2d(bits, x, y, z) as usize] = [x, y, z];
        }
        for a in 0..=n {
            assert_eq!(hilbert_range_bbox(bits, a, a), None);
            let mut want = ([u32::MAX; 3], [0u32; 3]);
            for b in a + 1..=n {
                let c = cell_of[(b - 1) as usize];
                want = (
                    [0, 1, 2].map(|i| want.0[i].min(c[i])),
                    [0, 1, 2].map(|i| want.1[i].max(c[i])),
                );
                assert_eq!(hilbert_range_bbox(bits, a, b), Some(want), "bits {bits} [{a}, {b})");
            }
            if a < n {
                assert_eq!(
                    hilbert_range_bbox(bits, a, u64::MAX),
                    Some(want),
                    "bits {bits} [{a}, end)"
                );
            }
        }
    }
}

/// The descent to a block's first cell against a decode of every cell of
/// every block at orders 1 and 2.
#[test]
fn hilbert_min_key_in_matches_brute_force() {
    for bits in 1..=2u32 {
        let side = 1u32 << bits;
        let axis = || (0..side).flat_map(move |lo| (lo..side).map(move |hi| (lo, hi)));
        for (x, y, z) in
            axis().flat_map(|x| axis().flat_map(move |y| axis().map(move |z| (x, y, z))))
        {
            let (lo, hi) = ([x.0, y.0, z.0], [x.1, y.1, z.1]);
            let want = (lo[0]..=hi[0])
                .flat_map(|a| {
                    (lo[1]..=hi[1]).flat_map(move |b| (lo[2]..=hi[2]).map(move |c| (a, b, c)))
                })
                .map(|(a, b, c)| hilbert_xyz2d(bits, a, b, c))
                .min();
            assert_eq!(Some(hilbert_min_key_in(bits, lo, hi)), want, "bits {bits} {lo:?}..={hi:?}");
        }
    }
}

/// The NaN and empty objects of the crawl's unit test, and objects with
/// infinite faces, beside finite ones: the grid spans only the finite,
/// non-empty boxes, and every query reads exactly the pages whose MBR
/// meets it.
#[test]
fn unbounded_objects_stay_exact_and_out_of_the_grid() {
    let finite: Vec<Aabb> = (0..300)
        .map(|i| Aabb::cube(Vec3::new((i % 20) as f64, (i / 20) as f64, 0.0), 0.8))
        .collect();
    let want_grid = finite.iter().fold(Aabb::EMPTY, |a, b| a.union(b));
    let inf = f64::INFINITY;
    let mut objs = finite;
    objs.extend([
        Aabb::EMPTY,
        Aabb { lo: Vec3::new(f64::NAN, 1.0, 1.0), hi: Vec3::splat(2.0) },
        Aabb { lo: Vec3::new(3.0, 3.0, 0.0), hi: Vec3::new(inf, 4.0, 1.0) },
        Aabb { lo: Vec3::splat(-inf), hi: Vec3::new(-50.0, 2.0, 2.0) },
    ]);
    for cap in [1, 7, 16, 64, 128] {
        let idx =
            FlatIndex::build(objs.clone(), FlatBuildParams::default().with_page_capacity(cap));
        assert_eq!(*idx.graph().grid().bounds(), want_grid, "cap {cap}");
        let mut qs = vec![
            Aabb { lo: Vec3::splat(-inf), hi: Vec3::splat(inf) },
            Aabb::new(Vec3::splat(-1e6), Vec3::splat(1e6)),
            Aabb::new(Vec3::new(100.0, 3.5, 0.5), Vec3::new(1e9, 3.6, 0.6)),
            Aabb::cube(Vec3::new(-1e7, 1.0, 1.0), 5.0),
            Aabb::cube(Vec3::new(1.5, 1.5, 1.5), 0.1),
        ];
        qs.extend((0..40).map(|i| Aabb::cube(Vec3::new(i as f64 * 0.7, i as f64 * 0.4, 0.0), 1.5)));
        for q in &qs {
            assert_crawl_exact(&idx, &objs, q).unwrap_or_else(|e| panic!("cap {cap}: {e}"));
        }
    }
}
