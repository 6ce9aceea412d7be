//! Density scaling: the FLAT experiment of §2 of the paper.
//!
//! Increases the density of the model (more neurons in the same tissue
//! volume) and shows that the R-Tree's page accesses grow with density
//! while FLAT's stay proportional to the result size.
//!
//! Run with: `cargo run --release --example density_scaling`

use neurospatial::prelude::*;

fn main() {
    println!("range queries on circuits of growing density (fixed tissue volume)\n");
    println!(
        "{:>8} | {:>9} | {:>7} | {:>12} | {:>12} | {:>12}",
        "neurons", "segments", "result", "flat pages", "rtree nodes", "dyn-rtree"
    );

    let volume = Aabb::new(Vec3::ZERO, Vec3::splat(300.0));
    for neurons in [5u32, 10, 20, 40] {
        let circuit = CircuitBuilder::new(11)
            .neurons(neurons)
            .volume(volume)
            .morphology(MorphologyParams::small())
            .build();
        let segments = circuit.segments().to_vec();

        let flat = FlatIndex::build(segments.clone(), FlatBuildParams::default());
        let packed = RTree::bulk_load(segments.clone(), RTreeParams::default());
        let mut dynamic = RTree::new(RTreeParams::default());
        for s in &segments {
            dynamic.insert(*s);
        }

        // Average over a data-centred workload.
        let w = RangeQueryWorkload::generate(
            3,
            &circuit.bounds(),
            30,
            20.0,
            QueryPlacement::DataCentered,
            Some(&segments),
        );
        let (mut fp, mut rn, mut dn, mut res) = (0u64, 0u64, 0u64, 0u64);
        for q in &w.queries {
            let (hits, fs) = flat.range_query(q);
            let (_, ps) = packed.range_query(q);
            let (_, ds) = dynamic.range_query(q);
            fp += fs.pages_read;
            rn += ps.nodes_visited();
            dn += ds.nodes_visited();
            res += hits.len() as u64;
        }
        let n = w.queries.len() as u64;
        println!(
            "{:>8} | {:>9} | {:>7} | {:>12.1} | {:>12.1} | {:>12.1}",
            neurons,
            segments.len(),
            res / n,
            fp as f64 / n as f64,
            rn as f64 / n as f64,
            dn as f64 / n as f64,
        );
    }
    println!("\nFLAT page reads track the result size; R-Tree node accesses grow faster");
    println!("with density because MBR overlap forces wider traversals (§2 of the paper).");
}
