//! Branch following: the SCOUT walkthrough of §3 of the paper.
//!
//! A scientist follows a neuron branch through the model with moving
//! range queries on a cold pool over a modelled disk; compares the five
//! prefetching policies and
//! prints the candidate-pruning series of Figure 5.
//!
//! Run with: `cargo run --release --example branch_following`

use neurospatial::prelude::*;
use neurospatial::scout::{PrefetchContext, ScoutPrefetcher};

fn main() {
    let circuit =
        CircuitBuilder::new(13).neurons(25).morphology(MorphologyParams::cortical()).build();
    let db = NeuroDb::from_circuit(&circuit);
    let path = NavigationPath::along_random_branch(&circuit, 3, 22.0, 9.0)
        .expect("generated circuits always have branches");

    println!(
        "following neuron {} through {} sections, {} steps, {:.0} µm of cable",
        path.neuron,
        path.sections.len(),
        path.queries.len(),
        path.path_length()
    );

    // --- Figure 6: per-method walkthrough statistics ---------------------
    println!("\nwalkthrough statistics (disk model: {:?}):", CostModel::default());
    println!(
        "{:>13} | {:>9} | {:>9} | {:>10} | {:>11} | {:>8}",
        "method", "stall ms", "hit rate", "prefetched", "useful", "speedup"
    );
    let walk = |m| db.query().along_path(&path).method(m).run().expect("flat backend");
    let baseline = walk(WalkthroughMethod::None);
    for m in WalkthroughMethod::ALL {
        let s = walk(m);
        println!(
            "{:>13} | {:>9.1} | {:>8.1}% | {:>10} | {:>10.1}% | {:>7.1}×",
            s.method,
            s.total_stall_ms,
            s.hit_ratio() * 100.0,
            s.total_prefetched,
            s.prefetch_precision() * 100.0,
            s.speedup_over(&baseline).min(999.0),
        );
    }

    // --- Figure 5: candidate-set pruning ---------------------------------
    // Replay the walkthrough manually to expose SCOUT's candidate counts.
    let mut scout = ScoutPrefetcher::default();
    let mut history = Vec::new();
    let flat = db.flat_index().expect("default backend is FLAT");
    for q in &path.queries {
        history.push(q.center());
        let (result, stats) = flat.range_query(q);
        let pages: Vec<u32> = stats.crawl_order.clone();
        let ctx =
            PrefetchContext { query: q, result: &result, history: &history, pages_read: &pages };
        let _ = scout.plan(&ctx);
    }
    println!("\ncandidate structures per step (the paper's Figure 5 pruning):");
    print!("  ");
    for (i, c) in scout.candidate_history().iter().enumerate() {
        print!("q{i}:{c} ");
    }
    println!();
    let last = *scout.candidate_history().last().expect("at least one step");
    println!(
        "  → converged to {last} candidate(s); the followed structure was {}",
        if last <= 2 { "identified" } else { "still ambiguous" }
    );
}
