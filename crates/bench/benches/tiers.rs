//! Host execution time of the two-tier experiment cells: one seeded
//! closed-loop run (150 simulated reads) per engine at 16× catalogue
//! pressure against a shared deployment. The *simulated* latencies the
//! cells report are asserted relative to each other — this bench keeps
//! the disk tier's host-side cost visible (the warm-up's append-log
//! writes and the checksummed frame reads are real I/O even on a
//! virtual clock), and `experiments -- tiers` prints the full sweep.

use agar_bench::{tiers_run, Deployment, TiersParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const OPERATIONS: usize = 150;

fn bench_tiers_cells(c: &mut Criterion) {
    let mut params = TiersParams::tiny();
    params.operations = OPERATIONS;
    let deployment = Deployment::build(params.scale);

    let mut group = c.benchmark_group("tiers_cells");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPERATIONS as u64));
    for tiered in [false, true] {
        let label = if tiered { "tiered" } else { "ram_only" };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("catalogue_16x_{label}")),
            &tiered,
            |b, &tiered| b.iter(|| black_box(tiers_run(&deployment, &params, 16, tiered))),
        );
    }
    group.finish();

    // Headline: the simulated payoff the disk tier's host cost buys.
    let ram_only = tiers_run(&deployment, &params, 16, false);
    let tiered = tiers_run(&deployment, &params, 16, true);
    eprintln!(
        "tiers: catalogue 16x mean ram-only {:.0} ms vs tiered {:.0} ms \
         (P99 {:.0} vs {:.0}; {} disk hits, {}+{} chunk split)",
        ram_only.latency.mean_ms,
        tiered.latency.mean_ms,
        ram_only.latency.p99_ms,
        tiered.latency.p99_ms,
        tiered.disk_hits,
        tiered.ram_chunks,
        tiered.disk_chunks,
    );
    assert!(
        tiered.latency.mean_ms < ram_only.latency.mean_ms,
        "the disk tier must cut the simulated mean under catalogue pressure"
    );
}

criterion_group!(benches, bench_tiers_cells);
criterion_main!(benches);
