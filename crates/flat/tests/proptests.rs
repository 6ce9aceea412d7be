//! Property tests: FLAT is an exact range-query index on arbitrary data —
//! including adversarially disconnected data — and always agrees with both
//! brute force and the R-Tree.

use neurospatial_flat::{FlatBuildParams, FlatIndex, FlatScratch};
use neurospatial_geom::{Aabb, Flow, Vec3};
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
/// through the seed tree, which the crawl itself uses).
fn pages_meeting<T: RTreeObject>(idx: &FlatIndex<T>, q: &Aabb) -> Vec<u32> {
    (0..idx.page_count() as u32).filter(|&p| idx.graph().mbr(p).intersects(q)).collect()
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

            // Every page MBR is decided once: the rejected count is the
            // number of distinct rejected neighbours, not of links.
            let mut rejected: Vec<u32> = pages
                .iter()
                .flat_map(|&p| idx.graph().neighbors_of(p))
                .copied()
                .filter(|&n| !idx.graph().mbr(n).intersects(&q))
                .collect();
            rejected.sort_unstable();
            rejected.dedup();
            prop_assert_eq!(stats.links_rejected as usize, rejected.len(), "at {}", q);

            // The instrumented entry point runs the same crawl.
            let (hits, full) = idx.range_query(&q);
            prop_assert_eq!(hits.iter().map(|o| o.id).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(&full.crawl_order, &pages);
            prop_assert_eq!(
                (full.pages_read, full.seed_nodes_read, full.objects_tested, full.results),
                (stats.pages_read, stats.seed_nodes_read, stats.objects_tested, stats.results)
            );
            prop_assert_eq!((full.links_rejected, full.reseeds), (stats.links_rejected, stats.reseeds));

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
    /// point and a tiny cube inside a page's MBR: the queries a page can
    /// contain, for which the crawl skips the final re-seed check.
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
            let (hits, stats) = idx.range_query(q);
            let want = objs.iter().filter(|o| o.intersects(q)).count();
            prop_assert_eq!(hits.len(), want, "query {}", q);
            prop_assert_eq!(stats.results as usize, want);
            let order = sorted_pages(&stats.crawl_order);
            prop_assert_eq!(order.len(), stats.crawl_order.len(), "a page read twice at {}", q);
            prop_assert_eq!(order, pages_meeting(&idx, q), "pages at {}", q);
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
        eps in 0.0..10.0f64,
        cap in 4usize..32,
    ) {
        let idx = FlatIndex::build(
            objs,
            FlatBuildParams::default().with_page_capacity(cap).with_neighbor_epsilon(eps),
        );
        for u in 0..idx.page_count() as u32 {
            for &v in idx.graph().neighbors_of(u) {
                prop_assert!(u != v);
                prop_assert!(idx.graph().neighbors_of(v).contains(&u));
                prop_assert!(idx.graph().mbr(u).inflate(eps).intersects(&idx.graph().mbr(v)));
            }
        }
    }
}
