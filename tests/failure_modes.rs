//! Degenerate inputs and failure paths, end to end: the library must
//! behave predictably at the edges downstream users will hit.

use neurospatial::model::{decode_segments, encode_segments};
use neurospatial::prelude::*;
use std::path::PathBuf;

#[test]
fn single_neuron_circuit_works_everywhere() {
    let c = CircuitBuilder::new(1).neurons(1).build();
    let db = NeuroDb::from_circuit(&c);
    assert!(!db.is_empty());
    let out = db.query().range(c.bounds().inflate(1.0)).collect().expect("range");
    assert_eq!(out.len(), c.segments().len());
    // One neuron → one population empty → join returns nothing but works.
    let r = db.query().touching("odd", 5.0).collect().expect("parity populations always exist");
    assert!(r.pairs.is_empty());
}

#[test]
fn zero_extent_query_is_a_point_probe() {
    let c = CircuitBuilder::new(2).neurons(4).build();
    let db = NeuroDb::from_circuit(&c);
    let p = c.segments()[10].geom.center();
    let q = Aabb::point(p);
    let out = db.query().range(q).collect().expect("range");
    // At least the segment whose centre we probed intersects.
    assert!(out.segments.iter().any(|s| s.id == c.segments()[10].id));
    let brute = c.segments().iter().filter(|s| s.aabb().intersects(&q)).count();
    assert_eq!(out.len(), brute);
}

#[test]
fn enormous_epsilon_joins_everything() {
    let c = CircuitBuilder::new(3).neurons(4).build();
    let (a, b) = c.split_populations();
    let a: Vec<_> = a.into_iter().take(50).collect();
    let b: Vec<_> = b.into_iter().take(50).collect();
    let eps = 1e7; // larger than the whole model
    let r = TouchJoin::default().join(&a, &b, eps);
    assert_eq!(r.pairs.len(), a.len() * b.len(), "everything joins everything");
    assert!(r.is_duplicate_free());
    // And the baselines agree even in this extreme.
    assert_eq!(PlaneSweepJoin.join(&a, &b, eps).pairs.len(), r.pairs.len());
    assert_eq!(PbsmJoin::default().join(&a, &b, eps).pairs.len(), r.pairs.len());
}

#[test]
fn walkthrough_of_length_one_path() {
    let c = CircuitBuilder::new(7).neurons(3).build();
    let db = NeuroDb::from_circuit(&c);
    // Manufacture a single-query "path".
    let mut path = NavigationPath::along_random_branch(&c, 1, 15.0, 6.0).expect("path");
    path.queries.truncate(1);
    path.waypoints.truncate(1);
    for m in WalkthroughMethod::ALL {
        let s = db.query().along_path(&path).method(m).run().expect("flat backend");
        assert_eq!(s.steps.len(), 1);
        // One query, cold cache: every method pays the same stall.
        assert_eq!(s.total_demand_hits, 0);
    }
}

#[test]
fn corrupted_files_never_panic() {
    let c = CircuitBuilder::new(5).neurons(2).build();
    let good = encode_segments(c.segments());
    // Flip every byte of the header region one at a time.
    for i in 0..16.min(good.len()) {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        let _ = decode_segments(&bad); // must return, not panic
    }
    // Random truncations.
    for len in [0usize, 1, 15, 16, 17, good.len() - 1] {
        let _ = decode_segments(&good[..len]);
    }
}

/// A scratch page-file path unique to this test + process, removed on
/// drop so failed assertions don't leak files between runs.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        ScratchFile(
            std::env::temp_dir()
                .join(format!("neurospatial-failure-{tag}-{}.flatpages", std::process::id())),
        )
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// Write a small but multi-page FLAT page file and return its bytes.
fn valid_page_file(file: &ScratchFile) -> Vec<u8> {
    let c = CircuitBuilder::new(3).neurons(2).build();
    let index =
        FlatIndex::build(c.segments().to_vec(), FlatBuildParams::default().with_page_capacity(16));
    assert!(index.page_count() >= 4, "need a multi-page file to corrupt");
    neurospatial::scout::ooc::write_flat_index(&index, &file.0).expect("write page file");
    std::fs::read(&file.0).expect("read back")
}

#[test]
fn truncated_page_files_are_rejected_with_typed_errors() {
    let file = ScratchFile::new("truncate");
    let good = valid_page_file(&file);
    // Every prefix strictly shorter than the file must fail with a
    // typed storage error — never a panic, never a silent success.
    for len in [0, 1, 8, 63, 64, 80, good.len() / 2, good.len() - 1] {
        std::fs::write(&file.0, &good[..len]).expect("write truncated");
        let err = PagedFlatIndex::open(&file.0, OocConfig::default())
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes must not open"));
        assert!(matches!(err, NeuroError::Storage(_)), "len={len}: {err:?}");
    }
}

#[test]
fn bit_flipped_page_files_never_panic_and_never_lie() {
    let file = ScratchFile::new("bitflip");
    let good = valid_page_file(&file);
    // Sample flips across the whole file: the header, the first page's
    // header and payload, and a stride through the page array + meta.
    let mut offsets: Vec<usize> = (0..64).collect();
    offsets.extend((64..good.len()).step_by(97));
    offsets.push(good.len() - 1);
    for off in offsets {
        let mut bad = good.clone();
        bad[off] ^= 0x40;
        std::fs::write(&file.0, &bad).expect("write corrupted");
        // Every mutated byte is either under a checksum (open must fail
        // with a typed error) or in unchecksummed header padding (open
        // may succeed — but then queries must still be exact, which the
        // open-time page validation already proved). Panics fail the
        // test by themselves.
        match PagedFlatIndex::open(&file.0, OocConfig::default()) {
            Err(e) => assert!(matches!(e, NeuroError::Storage(_)), "offset {off}: {e:?}"),
            Ok(index) => {
                let out = index.range_query(&index.bounds());
                assert_eq!(out.len(), index.len(), "offset {off} corrupted results");
            }
        }
    }
}

#[test]
fn foreign_and_wrong_version_page_files_are_rejected() {
    let file = ScratchFile::new("foreign");
    // Not a page file at all.
    std::fs::write(&file.0, b"GIF89a definitely not a page file").expect("write");
    assert!(matches!(
        PagedFlatIndex::open(&file.0, OocConfig::default()),
        Err(NeuroError::Storage(_))
    ));
    // A structurally valid page file whose metadata is not FLAT's.
    let mut w = neurospatial::storage::PageFileWriter::create(&file.0, 256).expect("create");
    w.append_page(&[0u8; 200]).expect("append");
    w.finish(b"someone else's metadata").expect("finish");
    let Err(err) = PagedFlatIndex::open(&file.0, OocConfig::default()) else {
        panic!("foreign metadata must not open");
    };
    assert!(matches!(err, NeuroError::Storage(StorageError::Corrupt(_))), "{err:?}");
}

#[test]
fn missing_page_file_paths_surface_as_io_errors() {
    let path = std::env::temp_dir().join("neurospatial-failure-definitely-missing.flatpages");
    let Err(err) = PagedFlatIndex::open(&path, OocConfig::default()) else {
        panic!("missing file must not open");
    };
    assert!(matches!(err, NeuroError::Storage(StorageError::Io { .. })), "{err:?}");
    // And the same through the database builder's explicit-file lane:
    // the builder *creates* files, so point it at an unwritable path.
    let c = CircuitBuilder::new(3).neurons(1).build();
    let bad_dir = path.join("nested/impossible.flatpages");
    let Err(err) = NeuroDb::builder().circuit(&c).page_file(&bad_dir).build() else {
        panic!("unwritable page-file path must not build");
    };
    assert!(matches!(err, NeuroError::Storage(StorageError::Io { .. })), "{err:?}");
}

#[test]
fn queries_far_outside_the_model_are_cheap_and_empty() {
    let c = CircuitBuilder::new(9).neurons(6).build();
    let db = NeuroDb::from_circuit(&c);
    let far = Aabb::cube(Vec3::splat(1e9), 100.0);
    let out = db.query().range(far).collect().expect("range");
    assert!(out.is_empty());
    // Root/seed check proves emptiness with only seed-tree reads, no
    // data-page I/O.
    let flat = db.flat_index().expect("default backend is FLAT");
    let (_, fstats) = flat.range_query(&far);
    assert_eq!(fstats.pages_read, 0, "root check proves emptiness without I/O");
    assert_eq!(db.region_stats(&far), neurospatial::RegionStats::default());
}

#[test]
fn flat_handles_pathological_coincident_objects() {
    // Thousands of identical segments at one point: every page has the
    // same MBR (total overlap), the crawl must still terminate and be
    // exact.
    let seg = Segment::new(Vec3::ONE, Vec3::new(1.0, 2.0, 1.0), 0.3);
    let objs: Vec<NeuronSegment> = (0..5000)
        .map(|i| NeuronSegment {
            id: i,
            neuron: 0,
            section: 0,
            index_on_section: i as u32,
            geom: seg,
        })
        .collect();
    let idx = FlatIndex::build(objs, FlatBuildParams::default().with_page_capacity(32));
    let (hits, stats) = idx.range_query(&Aabb::cube(Vec3::ONE, 0.5));
    assert_eq!(hits.len(), 5000);
    assert_eq!(stats.pages_read, idx.page_count() as u64);
}

#[test]
fn rtree_handles_pathological_coincident_objects() {
    let b = Aabb::cube(Vec3::ONE, 0.5);
    let mut tree = RTree::new(RTreeParams::with_max_entries(8));
    for _ in 0..2000 {
        tree.insert(b);
    }
    let (hits, _) = tree.range_query(&b);
    assert_eq!(hits.len(), 2000);
    neurospatial::rtree::validation::validate(&tree).expect("valid despite total overlap");
}
