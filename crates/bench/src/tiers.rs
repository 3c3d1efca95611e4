//! The `tiers` experiment: RAM-only vs two-tier (RAM + disk) caching
//! under catalogue pressure.
//!
//! Every cell fixes the catalogue and shrinks the RAM budget to 1×, 4×
//! and 16× below it, then replays the same seeded warm-then-measure
//! run with the disk tier off (`disk_capacity_bytes = 0`,
//! byte-identical to the single-tier engine) and on (a
//! local-SSD-priced tier sized to hold the whole catalogue). The
//! warm-up phase drives the measured workload's own Zipf stream plus
//! one full catalogue sweep through the node — popularity statistics
//! cover every object — and installs the resulting configuration
//! (with its a-priori fill) before the measured closed loop starts;
//! both engines warm identically, so the measured deltas are the
//! hierarchy's. At 1× the two engines tie — RAM already holds
//! everything worth holding; the gap opens as the catalogue outgrows
//! RAM and the two-budget knapsack starts spilling warm objects to
//! disk instead of the WAN.
//!
//! Reported per cell: the full latency percentile ladder, per-tier
//! chunk hit ratios (RAM hits and disk hits over all chunk lookups),
//! the knapsack's tier split (RAM vs disk chunks in the final
//! configuration) and the tier traffic (epoch promotions, log
//! evictions, bytes appended to the log). Everything runs on
//! the deterministic simulated clock, so the JSON output is
//! host-independent and CI-gateable exactly like the `tail` experiment.

use crate::cell::{cell_labels, Cell, ColumnSpec, Layout, Value};
use crate::experiments::ExperimentParams;
use crate::harness::{client_seed, closed_loop, read_stream, CLIENTS};
use agar::{AgarNode, CachingClient};
use agar_ec::ObjectId;
use agar_net::SimTime;
use agar_obs::{MetricsRegistry, StageSummaries};
use std::time::Duration;

/// Catalogue-to-RAM multipliers the experiment sweeps.
const CATALOGUE_MULTIPLES: [usize; 3] = [1, 4, 16];

/// The `tiers` cell layout. `param` is the catalogue-to-RAM multiple.
/// All counters are scoped to the measured window: `chunk_lookups` is
/// RAM hits + RAM misses (disk hits are a subset of the misses),
/// `ram_chunks`/`disk_chunks` are the final knapsack configuration's
/// tier split, `tier_promotions` counts chunks reconfigurations moved
/// disk → RAM, `disk_evictions` live chunks the disk log lost while
/// reclaiming space, `disk_appended_bytes` the frame bytes written to it
/// (a-priori fills, re-tier moves and the cleaner's copies) and
/// `disk_compacted_bytes` the copied part.
pub(crate) static TIERS: Layout = Layout {
    title: "Tiers — RAM-only vs two-tier cache under catalogue pressure (Frankfurt, Zipf 1.1)",
    policy_header: "engine",
    param: Some("catalogue_multiple"),
    stages: true,
    columns: &[
        ColumnSpec::json_only("ram_hits"),
        ColumnSpec::json_only("disk_hits"),
        ColumnSpec::json_only("chunk_lookups"),
        ColumnSpec::shown("ram_hit_ratio", "RAM hit %"),
        ColumnSpec::shown("disk_hit_ratio", "disk hit %"),
        ColumnSpec::shown("ram_chunks", "RAM chunks"),
        ColumnSpec::shown("disk_chunks", "disk chunks"),
        ColumnSpec::shown("tier_promotions", "promotions"),
        ColumnSpec::json_only("disk_evictions"),
        ColumnSpec::json_only("disk_appended_bytes"),
        ColumnSpec::json_only("disk_compacted_bytes"),
    ],
};

/// Seed of every cell: a catalogue multiple's RAM-only and tiered runs
/// replay one workload.
const TIERS_SEED: u64 = 0x71E2;

/// The disk tier's simulated chunk-read latency: a local SSD, not the
/// conservative engine default.
const TIERS_DISK_READ: Duration = Duration::from_millis(45);

/// Runs one (catalogue multiple, engine) cell of `params.operations`
/// measured reads on a deployment of its own, so a cell reports the
/// same alone as in the full sweep: RAM = catalogue / `multiple`;
/// `tiered` additionally attaches a disk tier sized to the whole
/// catalogue. With a registry, the cell's node binds its counters and
/// stage histograms into it under `{scenario, policy}` labels.
///
/// # Panics
///
/// Panics on invalid parameters (caller bugs).
pub fn tiers_run(
    params: &ExperimentParams,
    multiple: usize,
    tiered: bool,
    registry: Option<&MetricsRegistry>,
) -> Cell {
    assert!(multiple > 0, "catalogue multiple must be positive");
    let deployment = params.deployment();
    let scale = deployment.scale;
    let catalogue_bytes = scale.object_count as usize * scale.object_size;
    let scenario = format!("catalogue {multiple}x");
    let policy = if tiered { "tiered" } else { "ram-only" }.to_string();
    let labels = cell_labels(&scenario, &policy);
    let node = deployment.agar_node(
        deployment.region("Frankfurt"),
        catalogue_bytes / multiple,
        client_seed(TIERS_SEED),
        |settings| {
            if tiered {
                settings.disk_capacity_bytes = catalogue_bytes;
                settings.disk_read = TIERS_DISK_READ;
            }
            // Trace every read: the per-stage breakdown columns come
            // from the measured window's traces. Sampling is a
            // deterministic counter, so it never perturbs the engine.
            settings.trace_sample_every = 1;
        },
        registry.map(|r| (r, &labels)),
    );
    let workload = deployment.paper_workload(params.operations);

    // Warm-up: the measured workload's own distribution seeds the
    // popularity statistics and a full catalogue sweep registers the
    // long tail with the monitor (so the disk budget can cover it);
    // the forced reconfiguration then installs the configuration —
    // including the a-priori fill — before measurement starts. Both
    // engines run the identical warm-up, off the measured clock.
    for op in read_stream(&workload, TIERS_SEED ^ 0x3A3A) {
        let _ = node.read(ObjectId::new(op.key()));
    }
    for id in 0..scale.object_count {
        let _ = node.read(ObjectId::new(id));
    }
    node.force_reconfigure();
    let warm_stats = node.cache_stats();
    let (warm_appended, warm_compacted) = disk_bytes(&node);

    let ops = read_stream(&workload, TIERS_SEED);
    // Stamp the trace layer's clock so spans carry simulated time.
    let outcome = closed_loop(&*node, ops, CLIENTS, SimTime::ZERO, &mut |now| {
        node.set_sim_now(now)
    });

    // Counters scoped to the measured window: the warm-up's cold
    // misses are methodology, not results. The trace ring is scoped
    // the same way — warm-up reads were traced too, so keep only the
    // youngest `operations` traces (the measured closed loop).
    let stats = node.cache_stats().delta_since(&warm_stats);
    let traces = node.trace_snapshot();
    let measured = &traces[traces.len().saturating_sub(outcome.samples.len())..];
    let config = node.current_config();
    let lookups = stats.chunk_hits() + stats.chunk_misses();
    let (appended, compacted) = disk_bytes(&node);
    TIERS.cell(
        scenario,
        policy,
        multiple as u64,
        &outcome,
        StageSummaries::from_traces(measured),
        vec![
            Value::Count(stats.chunk_hits()),
            Value::Count(stats.disk_hits()),
            Value::Count(lookups),
            Value::ratio(stats.chunk_hits(), lookups),
            Value::ratio(stats.disk_hits(), lookups),
            Value::Count(config.ram_chunks().into()),
            Value::Count(config.disk_chunks().into()),
            Value::Count(stats.tier_promotions()),
            Value::Count(stats.disk_evictions()),
            Value::Count(appended - warm_appended),
            Value::Count(compacted - warm_compacted),
        ],
    )
}

/// The disk tier's appended and compacted frame bytes so far (zeros
/// without a disk tier).
fn disk_bytes(node: &AgarNode) -> (u64, u64) {
    node.disk_counters().map_or((0, 0), |disk| {
        (disk.appended_bytes.get(), disk.compacted_bytes.get())
    })
}

/// Runs the full sweep, a fresh deployment per cell: RAM-only and
/// tiered at every catalogue multiple.
pub(crate) fn tiers_results(
    params: &ExperimentParams,
    registry: Option<&MetricsRegistry>,
) -> Vec<Cell> {
    let mut results = Vec::new();
    for multiple in CATALOGUE_MULTIPLES {
        for tiered in [false, true] {
            results.push(tiers_run(params, multiple, tiered, registry));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ExperimentParams {
        ExperimentParams {
            operations: 250,
            ..ExperimentParams::tiny()
        }
    }

    #[test]
    fn tiered_beats_ram_only_under_catalogue_pressure() {
        let params = quick_params();
        let ram_only = tiers_run(&params, 16, false, None);
        let tiered = tiers_run(&params, 16, true, None);
        assert_eq!(ram_only.operations, 250);
        assert_eq!(tiered.operations, 250);
        assert!(
            tiered.latency.mean_ms < ram_only.latency.mean_ms,
            "tiered mean {} must beat ram-only {}",
            tiered.latency.mean_ms,
            ram_only.latency.mean_ms
        );
        assert!(
            tiered.latency.p99_ms < ram_only.latency.p99_ms,
            "tiered P99 {} must beat ram-only {}",
            tiered.latency.p99_ms,
            ram_only.latency.p99_ms
        );
        assert!(
            tiered.count("disk_hits") > 0,
            "no disk-tier hits at 16x pressure"
        );
        assert!(
            tiered.count("disk_chunks") > 0,
            "knapsack never used the disk budget"
        );
        assert!(
            tiered.count("ram_chunks") > 0,
            "RAM budget must stay in use"
        );
        // Reads serve disk hits in place, so the log only takes each
        // epoch's fills and re-tier moves: it never wraps, the disk
        // tier keeps what the knapsack put there, and the tail is a
        // disk read, not a WAN fetch.
        assert_eq!(tiered.count("disk_evictions"), 0, "the disk log wrapped");
        assert!(
            tiered.latency.p99_ms <= 160.0,
            "tiered P99 {} ms is not a local read",
            tiered.latency.p99_ms
        );
        // No epoch falls inside the 250-op measured window, and reads
        // write nothing.
        assert_eq!(tiered.count("disk_appended_bytes"), 0);
        assert_eq!(tiered.count("disk_compacted_bytes"), 0);
        // The RAM-only engine never touches a disk tier.
        assert_eq!(ram_only.count("disk_hits"), 0);
        assert_eq!(ram_only.count("disk_chunks"), 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let params = quick_params();
        let a = tiers_run(&params, 4, true, None);
        let b = tiers_run(&params, 4, true, None);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.count("ram_hits"), b.count("ram_hits"));
        assert_eq!(a.count("disk_hits"), b.count("disk_hits"));
        assert_eq!(a.count("ram_chunks"), b.count("ram_chunks"));
        assert_eq!(a.count("disk_chunks"), b.count("disk_chunks"));
    }

    #[test]
    fn stage_breakdown_is_scoped_to_the_measured_window() {
        let params = quick_params();
        let registry = MetricsRegistry::new();
        let result = tiers_run(&params, 4, true, Some(&registry));
        // Only the measured closed loop is summarised, not the warm-up.
        assert_eq!(result.stages.samples(), result.operations);
        assert!(result.stages.lookup.p99_ms >= 0.0);
        let text = registry.render_prometheus();
        assert!(text.contains("scenario=\"catalogue 4x\""));
        assert!(text.contains("policy=\"tiered\""));
    }

    #[test]
    fn table_covers_every_cell() {
        let mut params = quick_params();
        params.operations = 60;
        let results = tiers_results(&params, None);
        assert_eq!(results.len(), CATALOGUE_MULTIPLES.len() * 2);
        let table = TIERS.table(&results);
        assert_eq!(table.len(), results.len());
        assert!(table.title().contains("Tiers"));
        // Hit ratios are well-formed fractions.
        for r in &results {
            for (spec, value) in TIERS.columns.iter().zip(&r.values) {
                if let Value::Ratio(ratio) = value {
                    assert!((0.0..=1.0).contains(ratio), "{}: {ratio}", spec.key);
                }
            }
        }
    }
}
