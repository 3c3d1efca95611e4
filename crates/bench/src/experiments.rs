//! Reproduction of every table and figure in the paper's evaluation
//! (§II-C and §V), one function per artefact.
//!
//! Absolute milliseconds depend on the calibrated latency matrix
//! (`agar_net::presets`) and on where the solver departs from the
//! paper's pseudocode (README, "Deviations from the paper's
//! pseudocode"); what these experiments are expected to reproduce is
//! the paper's *shapes*: who wins, by roughly what factor, and where the
//! crossovers fall. EXPERIMENTS.md records paper-vs-measured values.

use crate::cell::Cell;
use crate::chaos::{chaos_results, CHAOS};
use crate::harness::{
    read_stream, run_averaged, run_once, Deployment, LatencyProfile, PolicySpec, RunConfig, Scale,
};
use crate::mixed::mixed_table;
use crate::table::Table;
use crate::tail::{tail_results, TAIL};
use crate::tiers::{tiers_results, TIERS};
use agar::RegionManager;
use agar_net::presets::{FRANKFURT, SIX_REGION_NAMES, SYDNEY};
use agar_obs::MetricsRegistry;
use agar_workload::{zipf_popularity_cdf, Distribution, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// What every experiment is a function of: the scale and latency
/// profile it builds its deployment at, and how many runs and
/// operations it drives. Everything else an experiment fixes itself:
/// its seeds, cache sizes and engine settings sit beside its figure
/// function or its [`Layout`](crate::Layout), and every read-only loop
/// runs the paper's [`CLIENTS`](crate::CLIENTS).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// Deployment scale.
    pub scale: Scale,
    /// Repetitions to average (the paper uses 5); the grid experiments
    /// run every cell once.
    pub runs: usize,
    /// Operations per run (the paper uses 1 000).
    pub operations: usize,
    /// The WAN latency profile every deployment is built with.
    pub profile: LatencyProfile,
}

impl ExperimentParams {
    /// The paper's parameters: full scale, 5 runs x 1 000 reads.
    pub fn paper() -> Self {
        ExperimentParams {
            scale: Scale::paper(),
            runs: 5,
            operations: 1_000,
            profile: LatencyProfile::Calibrated,
        }
    }

    /// What `experiments --tiny` runs: test scale, 1 run x 300
    /// operations.
    pub fn tiny() -> Self {
        ExperimentParams {
            scale: Scale::tiny(),
            runs: 1,
            operations: 300,
            profile: LatencyProfile::Calibrated,
        }
    }

    /// A fresh deployment at this scale and profile: every experiment
    /// builds its own, so none sees another's writes or decode plans.
    pub(crate) fn deployment(&self) -> Deployment {
        Deployment::build_with(self.scale, self.profile, None)
    }

    fn workload(&self, distribution: Distribution) -> WorkloadSpec {
        WorkloadSpec {
            object_count: self.scale.object_count,
            object_size: self.scale.object_size,
            operations: self.operations,
            distribution,
            ..WorkloadSpec::paper_default()
        }
    }
}

/// Every experiment id the `experiments` binary accepts. The first
/// [`PAPER_IDS`] entries are the paper's own artefacts — what `all`
/// (and no id at all) expands to; the rest run on request only.
pub const IDS: [&str; 13] = [
    "fig2", "table1", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10", "ablation", "mixed",
    "tail", "tiers", "chaos",
];

/// How many leading [`IDS`] entries `all` covers.
pub const PAPER_IDS: usize = 9;

/// Dispatches experiment ids, each against a deployment of its own.
pub struct Runner<'a> {
    params: ExperimentParams,
    metrics: Option<&'a MetricsRegistry>,
    /// Figures 6 and 7 report the same runs; computed once.
    comparison: Option<Vec<(String, String, f64, f64)>>,
}

impl<'a> Runner<'a> {
    /// A runner at `params`. With `metrics`, the grid experiments'
    /// cells bind their counters into the registry.
    pub fn new(params: ExperimentParams, metrics: Option<&'a MetricsRegistry>) -> Self {
        Runner {
            params,
            metrics,
            comparison: None,
        }
    }

    /// Runs the experiment called `id` on a deployment built for it
    /// alone (`table1` and `fig9` read no objects and build none): its
    /// table, plus the percentile cells the CI P99 gate reads (`tail`
    /// and `tiers` only — `chaos` reuses tail's scenario names, so its
    /// cells stay out of the shared section). `None` for an id not in
    /// [`IDS`].
    pub fn run(&mut self, id: &str) -> Option<(Table, Vec<Cell>)> {
        let params = &self.params;
        let table = match id {
            "fig2" => fig2(&params.deployment(), params),
            "table1" => table1(params),
            "fig6" | "fig7" => {
                let rows = self
                    .comparison
                    .get_or_insert_with(|| policy_comparison(&params.deployment(), params));
                if id == "fig6" {
                    fig6(rows)
                } else {
                    fig7(rows)
                }
            }
            "fig8a" => fig8a(&params.deployment(), params),
            "fig8b" => fig8b(&params.deployment(), params),
            "fig9" => fig9(params.scale),
            "fig10" => fig10(&params.deployment(), params),
            "ablation" => ablation(&params.deployment(), params),
            "mixed" => mixed_table(params, self.metrics),
            "tail" => {
                let cells = tail_results(params, self.metrics);
                return Some((TAIL.table(&cells), cells));
            }
            "tiers" => {
                let cells = tiers_results(params, self.metrics);
                return Some((TIERS.table(&cells), cells));
            }
            "chaos" => CHAOS.table(&chaos_results(params, self.metrics)),
            _ => return None,
        };
        Some((table, Vec::new()))
    }
}

fn zipf_default() -> Distribution {
    Distribution::Zipfian { skew: 1.1 }
}

/// §II-C / Figure 2 — the motivating experiment: average read latency
/// while caching c ∈ {0, 1, 3, 5, 7, 9} chunks per object in an
/// effectively infinite cache, from Frankfurt and Sydney.
fn fig2(deployment: &Deployment, params: &ExperimentParams) -> Table {
    let chunk_counts = [0usize, 1, 3, 5, 7, 9];
    let mut table = Table::new(
        "Figure 2 — avg read latency (ms) vs chunks cached (infinite cache)",
        std::iter::once("chunks".to_string())
            .chain(["Frankfurt", "Sydney"].map(String::from))
            .collect(),
    );
    for &c in &chunk_counts {
        let mut row = vec![c.to_string()];
        for region in [FRANKFURT, SYDNEY] {
            let policy = if c == 0 {
                PolicySpec::Backend
            } else {
                PolicySpec::Lru(c)
            };
            let config = RunConfig {
                // "enough memory to accommodate our complete working set,
                // in practice emulating an infinite cache" (500 MB).
                cache_mb: 500.0,
                workload: params.workload(zipf_default()),
                seed: 0xF160 + c as u64,
                ..RunConfig::paper_default(region, policy)
            };
            let result = run_averaged(deployment, &config, params.runs);
            row.push(format!("{:.0}", result.mean_latency_ms));
        }
        table.push_row(row);
    }
    table
}

/// Table I — per-region chunk-read latency as estimated by Agar's
/// region manager from Frankfurt during its warm-up phase.
fn table1(params: &ExperimentParams) -> Table {
    let preset = params.profile.preset(params.scale);
    let mut manager = RegionManager::new(FRANKFURT, preset.topology.clone());
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    manager.warm_up(&preset.latency, params.scale.chunk_size(), 10, &mut rng);
    let mut table = Table::new(
        "Table I — chunk read latency estimated from Frankfurt (ms)",
        SIX_REGION_NAMES.iter().map(|s| s.to_string()).collect(),
    );
    table.push_row(
        preset
            .topology
            .ids()
            .map(|r| format!("{:.0}", manager.estimate(r).as_secs_f64() * 1e3))
            .collect(),
    );
    table
}

fn comparison_policies() -> Vec<PolicySpec> {
    let mut policies = vec![PolicySpec::Agar];
    for c in [1usize, 3, 5, 7, 9] {
        policies.push(PolicySpec::Lru(c));
    }
    for c in [1usize, 3, 5, 7, 9] {
        policies.push(PolicySpec::Lfu(c));
    }
    policies.push(PolicySpec::Backend);
    policies
}

/// Shared runner for Figures 6 & 7: every policy at both client regions.
/// Returns (policy label, region name, mean latency ms, hit ratio).
fn policy_comparison(
    deployment: &Deployment,
    params: &ExperimentParams,
) -> Vec<(String, String, f64, f64)> {
    let mut rows = Vec::new();
    for (region, name) in [(FRANKFURT, "Frankfurt"), (SYDNEY, "Sydney")] {
        for policy in comparison_policies() {
            let config = RunConfig {
                workload: params.workload(zipf_default()),
                seed: 0xF166,
                ..RunConfig::paper_default(region, policy)
            };
            let result = run_averaged(deployment, &config, params.runs);
            eprintln!(
                "  [fig6/7] {name:<10} {:<8} {:7.0} ms  hit {:4.1}%",
                result.label,
                result.mean_latency_ms,
                result.hit_ratio * 100.0
            );
            rows.push((
                result.label.clone(),
                name.to_string(),
                result.mean_latency_ms,
                result.hit_ratio,
            ));
        }
    }
    rows
}

/// Figure 6 — average read latency: Agar vs LRU-c vs LFU-c vs Backend,
/// Frankfurt and Sydney.
fn fig6(rows: &[(String, String, f64, f64)]) -> Table {
    let mut table = Table::new(
        "Figure 6 — avg read latency (ms), Zipf 1.1, 10 MB cache",
        vec!["policy".into(), "Frankfurt".into(), "Sydney".into()],
    );
    let labels: Vec<&String> = {
        let mut seen = Vec::new();
        for (label, _, _, _) in rows {
            if !seen.contains(&label) {
                seen.push(label);
            }
        }
        seen
    };
    for label in labels {
        let get = |region: &str| {
            rows.iter()
                .find(|(l, r, _, _)| l == label && r == region)
                .map(|&(_, _, ms, _)| format!("{ms:.0}"))
                .unwrap_or_default()
        };
        table.push_row(vec![label.clone(), get("Frankfurt"), get("Sydney")]);
    }
    table
}

/// Figure 7 — hit ratio (total + partial) for the same runs as Fig. 6.
fn fig7(rows: &[(String, String, f64, f64)]) -> Table {
    let mut table = Table::new(
        "Figure 7 — hit ratio (%), Zipf 1.1, 10 MB cache",
        vec!["policy".into(), "Frankfurt".into(), "Sydney".into()],
    );
    for (label, _, _, _) in rows.iter().filter(|(_, r, _, _)| r == "Frankfurt") {
        if label == "Backend" {
            continue; // the backend has no cache
        }
        let get = |region: &str| {
            rows.iter()
                .find(|(l, r, _, _)| l == label && r == region)
                .map(|&(_, _, _, hr)| format!("{:.1}", hr * 100.0))
                .unwrap_or_default()
        };
        table.push_row(vec![label.clone(), get("Frankfurt"), get("Sydney")]);
    }
    table
}

/// Figure 8a — average latency while the cache size varies
/// (0/5/10/20/50/100 MB), Frankfurt, Zipf 1.1.
fn fig8a(deployment: &Deployment, params: &ExperimentParams) -> Table {
    let policies = [
        PolicySpec::Agar,
        PolicySpec::Lru(5),
        PolicySpec::Lru(9),
        PolicySpec::Lfu(5),
        PolicySpec::Lfu(9),
    ];
    let sizes = [0.0f64, 5.0, 10.0, 20.0, 50.0, 100.0];
    let mut table = Table::new(
        "Figure 8a — avg read latency (ms) vs cache size (Frankfurt, Zipf 1.1)",
        std::iter::once("cache MB".to_string())
            .chain(policies.iter().map(|p| p.label()))
            .collect(),
    );
    for &mb in &sizes {
        let mut row = vec![format!("{mb:.0}")];
        for policy in policies {
            // A 0 MB cache degenerates to the backend for everyone.
            let run_policy = if mb == 0.0 {
                PolicySpec::Backend
            } else {
                policy
            };
            let config = RunConfig {
                cache_mb: mb,
                workload: params.workload(zipf_default()),
                seed: 0xF18A,
                ..RunConfig::paper_default(FRANKFURT, run_policy)
            };
            let ms = run_averaged(deployment, &config, params.runs).mean_latency_ms;
            eprintln!("  [fig8a] {:>5} MB {:<6} {:7.0} ms", mb, policy.label(), ms);
            row.push(format!("{ms:.0}"));
        }
        table.push_row(row);
    }
    table
}

/// Figure 8b — average latency while the workload varies (uniform and
/// Zipf skews 0.2–1.4), Frankfurt, 10 MB cache.
fn fig8b(deployment: &Deployment, params: &ExperimentParams) -> Table {
    let policies = [
        PolicySpec::Backend,
        PolicySpec::Agar,
        PolicySpec::Lru(5),
        PolicySpec::Lru(9),
        PolicySpec::Lfu(5),
        PolicySpec::Lfu(9),
    ];
    let workloads: Vec<(String, Distribution)> =
        std::iter::once(("uniform".to_string(), Distribution::Uniform))
            .chain(
                [0.2f64, 0.5, 0.8, 0.9, 1.0, 1.1, 1.4]
                    .into_iter()
                    .map(|skew| (format!("zipf {skew}"), Distribution::Zipfian { skew })),
            )
            .collect();

    let mut table = Table::new(
        "Figure 8b — avg read latency (ms) vs workload (Frankfurt, 10 MB cache)",
        std::iter::once("workload".to_string())
            .chain(policies.iter().map(|p| p.label()))
            .collect(),
    );
    for (name, dist) in &workloads {
        let mut row = vec![name.clone()];
        for policy in policies {
            let config = RunConfig {
                workload: params.workload(*dist),
                seed: 0xF18B,
                ..RunConfig::paper_default(FRANKFURT, policy)
            };
            let result = run_averaged(deployment, &config, params.runs);
            eprintln!(
                "  [fig8b] {name:<9} {:<8} {:7.0} ms",
                result.label, result.mean_latency_ms
            );
            row.push(format!("{:.0}", result.mean_latency_ms));
        }
        table.push_row(row);
    }
    table
}

/// Figure 9 — cumulative popularity of the top-50 objects under Zipf
/// skews 0.5 / 0.8 / 1.1 / 1.4 (exact CDF of the generators used in
/// every other experiment).
fn fig9(scale: Scale) -> Table {
    let skews = [0.5f64, 0.8, 1.1, 1.4];
    let mut table = Table::new(
        "Figure 9 — cumulative % of requests vs top-N objects",
        std::iter::once("top-N".to_string())
            .chain(skews.iter().map(|s| format!("zipf {s}")))
            .collect(),
    );
    let cdfs: Vec<_> = skews
        .iter()
        .map(|&s| zipf_popularity_cdf(scale.object_count, s, 50).expect("valid CDF parameters"))
        .collect();
    for top in [1usize, 2, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50] {
        let mut row = vec![top.to_string()];
        for cdf in &cdfs {
            row.push(format!("{:.1}", cdf[top - 1].cumulative_fraction * 100.0));
        }
        table.push_row(row);
    }
    table
}

/// Figure 10 — how Agar fills its cache: fraction of cache bytes
/// allocated to objects cached with each chunk count, for
/// {Frankfurt, Sydney} x {5 MB, 10 MB}.
fn fig10(deployment: &Deployment, params: &ExperimentParams) -> Table {
    let scenarios = [
        (FRANKFURT, "Frankfurt", 10.0f64),
        (FRANKFURT, "Frankfurt", 5.0),
        (SYDNEY, "Sydney", 10.0),
        (SYDNEY, "Sydney", 5.0),
    ];
    let mut table = Table::new(
        "Figure 10 — Agar cache contents (% of cached chunks by chunks-per-object)",
        std::iter::once("scenario".to_string())
            .chain((1..=9).map(|c| format!("{c}-chunk")))
            .collect(),
    );
    for (region, name, mb) in scenarios {
        let config = RunConfig {
            cache_mb: mb,
            workload: params.workload(zipf_default()),
            seed: 0xF1_10,
            ..RunConfig::paper_default(region, PolicySpec::Agar)
        };
        let result = run_once(deployment, &config);
        let mut per_count: BTreeMap<usize, usize> = BTreeMap::new();
        let mut total = 0usize;
        for chunks in result.cache_contents.values() {
            *per_count.entry(chunks.len()).or_insert(0) += chunks.len();
            total += chunks.len();
        }
        let mut row = vec![format!("{name} {mb:.0}MB")];
        for c in 1..=9usize {
            let share = per_count
                .get(&c)
                .map(|&chunks| 100.0 * chunks as f64 / total.max(1) as f64)
                .unwrap_or(0.0);
            row.push(format!("{share:.0}"));
        }
        eprintln!("  [fig10] {name} {mb:.0}MB: {per_count:?}");
        table.push_row(row);
    }
    table
}

/// Ablation — the §II-D claim: the dynamic program vs the greedy
/// heuristic vs early-terminated DP, end to end (mean latency at
/// Frankfurt) and solver-value on the same live statistics.
fn ablation(deployment: &Deployment, params: &ExperimentParams) -> Table {
    use agar::{generate_options, greedy, KnapsackSolver};

    let mut table = Table::new(
        "Ablation — knapsack solver variants (Frankfurt, Zipf 1.1, 10 MB)",
        vec![
            "variant".into(),
            "mean latency (ms)".into(),
            "solver value".into(),
        ],
    );

    // End-to-end latency is the same harness run; the solver variants
    // differ only inside the solve, so compare their *planned
    // values* on statistics captured from a live Agar node, plus the
    // node's end-to-end latency as the reference row. The node solves
    // exactly, and at this budget that is the 2-pass DP's answer.
    let config = RunConfig {
        workload: params.workload(zipf_default()),
        seed: 0xAB1A,
        ..RunConfig::paper_default(FRANKFURT, PolicySpec::Agar)
    };
    let dp_run = run_averaged(deployment, &config, params.runs);

    // Re-derive the option sets the node would have seen: popularity
    // from a workload pass, estimates from a warmed region manager.
    let mut monitor = agar::RequestMonitor::new();
    for op in read_stream(&params.workload(zipf_default()), 0xAB1A) {
        monitor.record_read(agar_ec::ObjectId::new(op.key()));
    }
    monitor.end_epoch();
    let mut region_manager = RegionManager::new(FRANKFURT, deployment.preset.topology.clone());
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    region_manager.warm_up(
        &deployment.preset.latency,
        deployment.scale.chunk_size(),
        5,
        &mut rng,
    );
    let options = monitor
        .popularities()
        .into_iter()
        .filter_map(|(object, popularity)| {
            let manifest = deployment.backend.manifest(object).ok()?;
            let options = generate_options(
                &manifest,
                region_manager.estimates(),
                deployment.preset.cache_read,
                popularity,
            );
            Some((object, options))
        })
        .collect();
    let capacity = (deployment.scale.cache_bytes(10.0) / deployment.scale.chunk_size()) as u32;

    let dp_value = KnapsackSolver::new().populate(&options, capacity).value();
    let single_pass = KnapsackSolver::new()
        .with_passes(1)
        .populate(&options, capacity)
        .value();
    let early = KnapsackSolver::new()
        .with_early_termination(5)
        .populate(&options, capacity)
        .value();
    let greedy_value = greedy(&options, capacity).value();

    table.push_row(vec![
        "DP (2 passes)".into(),
        format!("{:.0}", dp_run.mean_latency_ms),
        format!("{dp_value:.0}"),
    ]);
    table.push_row(vec![
        "DP (1 pass, paper literal)".into(),
        "-".into(),
        format!("{single_pass:.0}"),
    ]);
    table.push_row(vec![
        "DP (early termination)".into(),
        "-".into(),
        format!("{early:.0}"),
    ]);
    table.push_row(vec![
        "Greedy (density)".into(),
        "-".into(),
        format!("{greedy_value:.0}"),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Deployment, ExperimentParams) {
        let mut params = ExperimentParams::tiny();
        params.operations = 120;
        (params.deployment(), params)
    }

    #[test]
    fn fig2_shape_nonlinear_and_monotone_tail() {
        let (deployment, mut params) = tiny();
        params.operations = 200;
        let table = fig2(&deployment, &params);
        assert_eq!(table.len(), 6);
        let col = |row: &[String], i: usize| row[i].parse::<f64>().unwrap();
        let rows: Vec<Vec<String>> = table.rows().map(<[String]>::to_vec).collect();
        // c = 0 is slowest, c = 9 is fastest, for both regions.
        for region in [1usize, 2] {
            assert!(col(&rows[0], region) > col(&rows[5], region));
            // 7 chunks is already close to 9 (diminishing returns).
            let seven = col(&rows[4], region);
            let nine = col(&rows[5], region);
            assert!(seven < nine * 2.2, "c=7 {seven} vs c=9 {nine}");
        }
    }

    #[test]
    fn table1_row_matches_topology() {
        let table = table1(&ExperimentParams::tiny());
        assert_eq!(table.len(), 1);
        let row: Vec<String> = table.rows().next().unwrap().to_vec();
        assert_eq!(row.len(), 6);
        // Frankfurt's own estimate is the smallest.
        let values: Vec<f64> = row.iter().map(|v| v.parse().unwrap()).collect();
        assert!(values[0] < values[5]);
    }

    #[test]
    fn fig9_is_monotone_in_skew_and_top() {
        let table = fig9(Scale::tiny());
        let rows: Vec<Vec<f64>> = table
            .rows()
            .map(|r| r.iter().map(|v| v.parse().unwrap()).collect())
            .collect();
        for row in &rows {
            // Higher skew -> more mass in the same top-N.
            assert!(row[4] >= row[1]);
        }
        for pair in rows.windows(2) {
            // More objects -> more cumulative mass.
            assert!(pair[1][1] >= pair[0][1]);
        }
    }
}
