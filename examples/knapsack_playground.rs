//! The paper's §IV worked example, interactively: generate caching
//! options from Table I latencies, run the dynamic program at several
//! cache sizes, and compare against the greedy heuristic and the exact
//! optimum.
//!
//! ```sh
//! cargo run --release --example knapsack_playground
//! ```

use agar::{generate_options, greedy, optimum, KnapsackSolver, ObjectOptions};
use agar_ec::{CodingParams, ObjectId};
use agar_net::latency::LatencyModel;
use agar_net::presets::{paper_table_one, FRANKFURT};
use agar_store::ObjectManifest;
use std::collections::HashMap;
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let preset = paper_table_one();
    let params = CodingParams::paper_default();

    // Table I as the region manager would report it from Frankfurt.
    let latencies: Vec<Duration> = preset
        .topology
        .ids()
        .map(|r| preset.latency.mean(FRANKFURT, r, 111_112))
        .collect();
    println!("latency estimates from Frankfurt (Table I):");
    for region in preset.topology.iter() {
        println!(
            "  {:<12} {:>6.0} ms",
            region.name(),
            latencies[region.id().index()].as_secs_f64() * 1e3
        );
    }

    // The paper's example: key1 with popularity 80.
    let manifest = ObjectManifest::new(
        ObjectId::new(1),
        1_000_000,
        1,
        params,
        (0..12).map(|i| agar_net::RegionId::new(i % 6)).collect(),
    );
    let options = generate_options(&manifest, &latencies, preset.cache_read, 80.0);
    println!("\ncaching options for key1 (popularity 80):");
    for option in options.dominant() {
        println!(
            "  weight {} -> value {:>9.0}  (read latency with cache: {:>5.0} ms)",
            option.weight(),
            option.value(),
            option.expected_latency().as_secs_f64() * 1e3
        );
    }
    let w1 = options.by_weight(1).expect("weight-1 option exists");
    assert_eq!(w1.value(), 80.0 * 2_000.0, "the paper's 160,000 example");
    println!("  (weight 1 = 80 x 2,000 ms = 160,000 — matches §IV)");

    // A small universe of objects with decaying popularity.
    let universe: HashMap<ObjectId, ObjectOptions> = (0..6u64)
        .map(|i| {
            let object = ObjectId::new(i);
            let manifest = ObjectManifest::new(
                object,
                1_000_000,
                1,
                params,
                (0..12).map(|c| agar_net::RegionId::new(c % 6)).collect(),
            );
            let popularity = 80.0 / (i + 1) as f64;
            (
                object,
                generate_options(&manifest, &latencies, preset.cache_read, popularity),
            )
        })
        .collect();

    println!("\nsolver comparison over 6 objects (popularity 80/i):");
    println!(
        "{:>9} {:>12} {:>12} {:>12}  dp allocation (object:weight)",
        "capacity", "DP", "greedy", "optimum"
    );
    for capacity in [5u32, 9, 14, 23, 45] {
        let dp = KnapsackSolver::new().populate(&universe, capacity);
        let gr = greedy(&universe, capacity);
        let opt = optimum(&universe, capacity);
        let mut allocation: Vec<(u64, u32)> = dp
            .options()
            .iter()
            .map(|o| (o.object().index(), o.weight()))
            .collect();
        allocation.sort_unstable();
        println!(
            "{:>9} {:>12.0} {:>12.0} {:>12.0}  {:?}",
            capacity,
            dp.value(),
            gr.value(),
            opt.value(),
            allocation
        );
        assert!(dp.value() >= gr.value() - 1e-9, "DP must dominate greedy");
        assert!(
            (dp.value() - opt.value()).abs() <= 1e-9 * opt.value(),
            "DP must match the optimum at capacity {capacity}"
        );
    }
    println!("\nthe DP matches the optimum and dominates greedy at every size");
    Ok(())
}
