//! The benchmark's contract in one place: workloads, end-to-end
//! metrics with their bounds, per-layer metrics with the layer they
//! belong to and the end-to-end metric each should move. `manifest()`
//! renders `BENCHMARK.json` from these tables; a test keeps the
//! checked-in file equal to it.

use crate::json::Json;
use crate::stats::Better;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "hot-hit",
        why:
            "8 hot 9 KB objects, all cached: every read is k RAM hits, so fixed per-read \
              overhead is the whole cost; codec kernels, store, disk tier and knapsack are bypassed",
    },
    WorkloadInfo {
        name: "paper-zipf",
        why: "paper sec. V-A: 300 x 1 MB, Zipf 1.1, 10 MB cache, 2 sim clients, 30 s epochs: \
              working set 30x the cache, so byte moving and the per-epoch knapsack dominate",
    },
    WorkloadInfo {
        name: "tiered-pressure",
        why: "300 x 90 KB, RAM = catalogue/16 plus a catalogue-sized disk tier: the only \
              workload where disk frames, promote/demote and the two-budget solve do the work",
    },
    WorkloadInfo {
        name: "cluster-mixed",
        why: "3-member ring, 300 x 90 KB, hedged reads under latency spikes, 20% writes, \
              2 OS-thread clients: leases, invalidation, coalescing and real lock contention",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether two runs with one seed must agree to the last bit on the
    /// single-client workloads (a count or a simulated-clock value).
    pub exact: bool,
}

/// Simulated-clock milliseconds: a model output, bit-equal per seed,
/// not a wall time.
pub const SIM_MS: &str = "ms_sim";

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

// Bounds: at least three times the widest seed-to-seed spread (IQR ÷
// median over ten 20 s runs) seen on any workload on the reference VM —
// wall metrics spread 3–14 % there, so they carry the contract's cap.

pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("read_wall_us", "us", Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Higher, 0.25, false),
    e2e("read_allocs", "count", Lower, 0.15, true),
    e2e("read_alloc_kb", "KB", Lower, 0.05, true),
    e2e("read_sim_mean_ms", SIM_MS, Lower, 0.10, true),
    e2e("read_sim_p99_ms", SIM_MS, Lower, 0.05, true),
    e2e("object_hit_ratio", "ratio", Higher, 0.08, true),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The module the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const NODE: &str = "read_wall_us, read_allocs on hot-hit";
const NODE_SIM: &str = "read_sim_mean_ms, read_sim_p99_ms on paper-zipf, cluster-mixed";
const PLAN: &str = "read_wall_us on hot-hit, cluster-mixed; none on paper-zipf";
const HEDGE: &str = "read_sim_p99_ms (and store.backend_chunks_per_read) on cluster-mixed";
const RAM: &str = "read_wall_us on hot-hit; object_hit_ratio, read_sim_mean_ms on paper-zipf";
const DISK: &str = "read_wall_us, read_sim_mean_ms, ops_per_s on tiered-pressure; none elsewhere";
const EC: &str =
    "read_wall_us, read_alloc_kb on paper-zipf; ops_per_s on cluster-mixed; none on hot-hit";
const STORE: &str = "read_wall_us, read_alloc_kb on paper-zipf; ops_per_s on cluster-mixed";
const KNAP: &str = "ops_per_s on paper-zipf, tiered-pressure; none on hot-hit, cluster-mixed";
const SPLIT: &str = "object_hit_ratio on paper-zipf, tiered-pressure";
const ROUTER: &str = "read_wall_us, ops_per_s on cluster-mixed";
const COORD: &str = "read_sim_mean_ms (and store.backend_chunks_per_read) on cluster-mixed";
const LEASE: &str = "ops_per_s on cluster-mixed";
const NONE: &str = "none: harness health";

pub const PER_LAYER: [PerLayer; 72] = [
    pl("core.node.self_us", "us", Lower, "core.node", NODE),
    pl(
        "core.node.unattributed_frac",
        "ratio",
        Lower,
        "core.node",
        NODE,
    ),
    pl(
        "core.node.read_wall_p99_us",
        "us",
        Lower,
        "core.node",
        "none: scheduler noise on this host, ungated",
    ),
    pl(
        "core.node.read_wall_p999_us",
        "us",
        Lower,
        "core.node",
        "none: scheduler noise on this host, ungated",
    ),
    pl(
        "core.node.retries_per_kop",
        "count",
        Lower,
        "core.node",
        NODE_SIM,
    ),
    pl(
        "core.node.degraded_per_kop",
        "count",
        Lower,
        "core.node",
        NODE_SIM,
    ),
    pl(
        "core.node.fill_chunks_per_read",
        "count",
        Lower,
        "core.node",
        "store.backend_chunks_per_read on paper-zipf",
    ),
    pl(
        "core.node.sim_lookup_ms",
        SIM_MS,
        Lower,
        "core.node",
        NODE_SIM,
    ),
    pl(
        "core.node.sim_fetch_ms",
        SIM_MS,
        Lower,
        "core.node",
        NODE_SIM,
    ),
    pl(
        "core.node.sim_bind_ms",
        SIM_MS,
        Lower,
        "core.node",
        NODE_SIM,
    ),
    pl("core.planner.plan_us", "us", Lower, "core.planner", PLAN),
    pl(
        "core.planner.hedges_per_read",
        "count",
        Lower,
        "core.planner",
        HEDGE,
    ),
    pl(
        "core.planner.hedge_win_frac",
        "ratio",
        Higher,
        "core.planner",
        HEDGE,
    ),
    pl("cache.lookup_us", "us", Lower, "cache.sharded", RAM),
    pl("cache.ram_hit_ratio", "ratio", Higher, "cache.sharded", RAM),
    pl(
        "cache.evictions_per_kop",
        "count",
        Lower,
        "cache.sharded",
        RAM,
    ),
    pl(
        "cache.ram_used_frac",
        "ratio",
        Higher,
        "cache.sharded",
        "must be <= 1",
    ),
    pl("cache.sharded.get_ns", "ns", Lower, "cache.sharded", RAM),
    pl("cache.sharded.insert_ns", "ns", Lower, "cache.sharded", RAM),
    pl(
        "cache.disk_hit_ratio",
        "ratio",
        Higher,
        "cache.tiered",
        DISK,
    ),
    pl(
        "cache.promotions_per_kop",
        "count",
        Lower,
        "cache.tiered",
        DISK,
    ),
    pl(
        "cache.demotions_per_kop",
        "count",
        Lower,
        "cache.tiered",
        DISK,
    ),
    pl(
        "cache.disk_evictions_per_kop",
        "count",
        Lower,
        "cache.disk",
        DISK,
    ),
    pl(
        "cache.disk_used_frac",
        "ratio",
        Higher,
        "cache.disk",
        "must be <= 1",
    ),
    pl(
        "cache.disk.corrupt_frames",
        "count",
        Lower,
        "cache.disk",
        "must be 0",
    ),
    pl("cache.disk.get_us", "us", Lower, "cache.disk", DISK),
    pl("cache.disk.put_us", "us", Lower, "cache.disk", DISK),
    pl("ec.decode_us", "us", Lower, "ec.rs", EC),
    pl(
        "ec.encode_us",
        "us",
        Lower,
        "ec.rs",
        "cluster.router.write_wall_us, ops_per_s on cluster-mixed",
    ),
    pl("ec.gf_bytes_per_read", "B", Lower, "ec.gf256", EC),
    pl("ec.systematic_frac", "ratio", Higher, "ec.rs", EC),
    pl("ec.decode_plan_hit_frac", "ratio", Higher, "ec.rs", EC),
    pl("ec.encode_mbps", "MB/s", Higher, "ec.rs", EC),
    pl("ec.decode_degraded_mbps", "MB/s", Higher, "ec.rs", EC),
    pl("ec.gf256.mul_add_mbps", "MB/s", Higher, "ec.gf256", EC),
    pl("store.fetch_us", "us", Lower, "store.backend", STORE),
    pl(
        "store.fetch_calls_per_read",
        "count",
        Lower,
        "store.backend",
        STORE,
    ),
    pl(
        "store.chunks_per_fetch_call",
        "count",
        Higher,
        "store.backend",
        STORE,
    ),
    pl(
        "store.backend_chunks_per_read",
        "count",
        Lower,
        "store.backend",
        "the WAN cost hedging and fills trade against read_sim_p99_ms",
    ),
    pl("store.manifest_ns", "ns", Lower, "store.backend", STORE),
    pl(
        "store.put_us",
        "us",
        Lower,
        "store.backend",
        "cluster.router.write_wall_us, ops_per_s on cluster-mixed",
    ),
    pl(
        "core.knapsack.reconfigure_wall_ms",
        "ms",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.knapsack.reconfigure_p90_ms",
        "ms",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.knapsack.populate_ms",
        "ms",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.options.generate_ms",
        "ms",
        Lower,
        "core.options",
        KNAP,
    ),
    pl(
        "core.knapsack.fill_wall_ms",
        "ms",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.knapsack.reconfigure_allocs",
        "count",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.knapsack.reconfigurations",
        "count",
        Lower,
        "core.knapsack",
        KNAP,
    ),
    pl(
        "core.knapsack.config_chunks_ram",
        "count",
        Higher,
        "core.knapsack",
        SPLIT,
    ),
    pl(
        "core.knapsack.config_chunks_disk",
        "count",
        Higher,
        "core.knapsack",
        SPLIT,
    ),
    pl(
        "core.monitor.snapshot_us",
        "us",
        Lower,
        "core.monitor",
        KNAP,
    ),
    pl("cluster.ring.owner_ns", "ns", Lower, "cluster.ring", ROUTER),
    pl(
        "cluster.router.overhead_us",
        "us",
        Lower,
        "cluster.router",
        ROUTER,
    ),
    pl(
        "cluster.router.remote_hits_per_read",
        "count",
        Higher,
        "cluster.router",
        ROUTER,
    ),
    pl(
        "cluster.router.write_wall_us",
        "us",
        Lower,
        "cluster.router",
        LEASE,
    ),
    pl(
        "cluster.coordinator.coalesced_frac",
        "ratio",
        Higher,
        "cluster.coordinator",
        COORD,
    ),
    pl(
        "cluster.coordinator.batched_per_read",
        "count",
        Lower,
        "cluster.coordinator",
        COORD,
    ),
    pl(
        "cluster.coordinator.in_flight_end",
        "count",
        Lower,
        "cluster.coordinator",
        "must be 0",
    ),
    pl(
        "cluster.lease.contended_frac",
        "ratio",
        Lower,
        "cluster.lease",
        LEASE,
    ),
    pl(
        "cluster.lease.invalidations_per_write",
        "count",
        Lower,
        "cluster.lease",
        LEASE,
    ),
    pl(
        "cluster.lease.fences",
        "count",
        Lower,
        "cluster.lease",
        "must be 0",
    ),
    pl(
        "net.sample_ns",
        "ns",
        Lower,
        "net.latency",
        "read_wall_us on paper-zipf (k samples per miss)",
    ),
    pl(
        "obs.counter_inc_ns",
        "ns",
        Lower,
        "obs",
        "read_wall_us on hot-hit",
    ),
    pl(
        "obs.scrape_us",
        "us",
        Lower,
        "obs",
        "none: off the read path",
    ),
    pl(
        "workload.gen_ns_per_op",
        "ns",
        Lower,
        "workload",
        "none: outside the program",
    ),
    pl("bench.trace_overhead_frac", "ratio", Lower, "bench", NONE),
    pl("bench.timer_ns", "ns", Lower, "bench", NONE),
    pl("bench.segment_iqr_frac", "ratio", Lower, "bench", NONE),
    pl("bench.verify_us", "us", Lower, "bench", NONE),
    pl("bench.failed_frac", "ratio", Lower, "bench", "must be 0"),
    pl(
        "bench.shadow_mismatches",
        "count",
        Lower,
        "bench",
        "must be 0",
    ),
    pl("bench.sampled_ops", "count", Higher, "bench", NONE),
];

/// The cargo invocation the driver appends its four arguments to.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// The per-layer table as markdown (the README's copy is this output).
pub fn per_layer_markdown() -> String {
    let mut out =
        String::from("| layer | metric | unit | better | should move |\n|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} |\n",
            m.layer,
            m.name,
            m.unit,
            m.better.label(),
            m.moves
        ));
    }
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.label())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = metric(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `cargo run --manifest-path bench/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(!m.layer.is_empty() && !m.moves.is_empty());
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().render().len() < 64 * 1024);
    }
}
