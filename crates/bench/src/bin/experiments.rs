//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run -p agar-bench --release --bin experiments -- [ids...] [--tiny] [--runs N] [--ops N]
//!
//! ids: fig2 table1 fig6 fig7 fig8a fig8b fig9 fig10 ablation all   (default: all)
//!      throughput   (multi-threaded wall-clock scaling; not part of `all`
//!                    because it measures the host, not the simulation)
//!      cluster      (M client threads x K ring-routed nodes; host
//!                    wall-clock, like throughput)
//!      mixed        (K-node cluster under a read/write mix at several
//!                    write ratios: lease write path, stale-read check)
//!      ec           (coding-path throughput: encode/decode MB/s across
//!                    (k, m), chunk sizes and erasure patterns)
//!      tail         (hedged vs unhedged P50/P95/P99/P999 across the
//!                    straggler scenario family; simulated clock, so the
//!                    JSON output is host-independent and CI-gateable)
//!      tiers        (RAM-only vs two-tier RAM+disk cache while the
//!                    catalogue outgrows RAM 1x/4x/16x; simulated clock,
//!                    CI-gateable like tail)
//!      chaos        (baseline vs hardened failure handling — retry
//!                    budgets, circuit breakers — under deterministic
//!                    injected partitions and fetch errors)
//! --tiny        run at test scale (fast, same shapes)
//! --runs N      repetitions to average (default 5, paper value)
//! --ops N       operations per run (default 1000, paper value)
//! --out DIR     also write CSVs under DIR (default results/)
//! --json FILE   also write every table (and tail percentiles) as JSON
//! --metrics FILE  also write the metrics registry (every counter and
//!                 stage histogram the tail/tiers/mixed cells bound)
//!                 as a JSON snapshot
//! ```

use agar_bench::experiments::{self, ExperimentParams};
use agar_bench::{Deployment, Table, TailParams, TailResult, TiersParams, TiersResult};
use agar_obs::MetricsRegistry;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut params = ExperimentParams::paper();
    let mut out_dir = PathBuf::from("results");
    let mut json_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut profile = agar_bench::LatencyProfile::Calibrated;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tiny" => {
                let ops = params.operations;
                params = ExperimentParams::tiny();
                params.operations = ops.min(300);
            }
            "--runs" => {
                params.runs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--runs needs a number"));
            }
            "--ops" => {
                params.operations = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--ops needs a number"));
            }
            "--profile" => {
                profile = match iter.next().map(String::as_str) {
                    Some("calibrated") => agar_bench::LatencyProfile::Calibrated,
                    Some("table1") => agar_bench::LatencyProfile::PaperTable1,
                    _ => usage("--profile needs calibrated|table1"),
                };
            }
            "--out" => {
                out_dir = iter
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a directory"));
            }
            "--json" => {
                json_path = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--json needs a file path")),
                );
            }
            "--metrics" => {
                metrics_path = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics needs a file path")),
                );
            }
            "--help" | "-h" => usage(""),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = [
            "fig2", "table1", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10", "ablation",
        ]
        .map(String::from)
        .to_vec();
    }

    eprintln!(
        "deployment: {} objects x {} bytes, {} runs x {} ops",
        params.scale.object_count, params.scale.object_size, params.runs, params.operations
    );
    let start = std::time::Instant::now();
    let deployment = Deployment::build_with_profile(params.scale, profile);
    eprintln!("populated backend in {:.1?}\n", start.elapsed());

    let registry = MetricsRegistry::new();
    // Only wire the registry through when a dump was requested:
    // registration is cheap but pointless otherwise.
    let metrics = metrics_path.as_ref().map(|_| &registry);
    let mut emitted: Vec<Table> = Vec::new();
    let mut tail_cells: Vec<TailResult> = Vec::new();
    let mut tiers_cells: Vec<TiersResult> = Vec::new();
    let mut comparison: Option<Vec<(String, String, f64, f64)>> = None;
    for id in &ids {
        let start = std::time::Instant::now();
        let tables: Vec<Table> = match id.as_str() {
            "fig2" => vec![experiments::fig2(&deployment, &params)],
            "table1" => vec![experiments::table1(&deployment, &params)],
            "fig6" | "fig7" => {
                if comparison.is_none() {
                    comparison = Some(experiments::policy_comparison(&deployment, &params));
                }
                let rows = comparison.as_ref().expect("just computed");
                match id.as_str() {
                    "fig6" => vec![experiments::fig6(rows)],
                    _ => vec![experiments::fig7(rows)],
                }
            }
            "fig8a" => vec![experiments::fig8a(&deployment, &params)],
            "fig8b" => vec![experiments::fig8b(&deployment, &params)],
            "fig9" => vec![experiments::fig9(&deployment, &params)],
            "fig10" => vec![experiments::fig10(&deployment, &params)],
            "ablation" => vec![experiments::ablation(&deployment, &params)],
            "throughput" => vec![agar_bench::throughput::throughput_table(
                &deployment,
                params.operations,
            )],
            "cluster" => vec![agar_bench::cluster::cluster_table(
                &deployment,
                params.operations,
            )],
            "mixed" => vec![agar_bench::mixed::mixed_table_with(
                &deployment,
                params.operations,
                metrics,
            )],
            "ec" => vec![agar_bench::ec::ec_table()],
            "tail" => {
                let mut tail_params = TailParams::paper();
                tail_params.scale = params.scale;
                tail_params.operations = params.operations;
                let results = agar_bench::tail::tail_results_with(&tail_params, metrics);
                let table = agar_bench::tail_table(&results);
                tail_cells = results;
                vec![table]
            }
            "tiers" => {
                let mut tiers_params = TiersParams::paper();
                tiers_params.scale = params.scale;
                tiers_params.operations = params.operations;
                let results =
                    agar_bench::tiers::tiers_results_with(&deployment, &tiers_params, metrics);
                let table = agar_bench::tiers_table(&results);
                tiers_cells = results;
                vec![table]
            }
            "chaos" => {
                let mut chaos_params = agar_bench::ChaosParams::paper();
                chaos_params.scale = params.scale;
                chaos_params.operations = params.operations;
                let results = agar_bench::chaos::chaos_results_with(&chaos_params, metrics);
                vec![agar_bench::chaos_table(&results)]
            }
            other => usage(&format!("unknown experiment {other}")),
        };
        for table in tables {
            println!("{table}");
            let file = out_dir.join(format!("{id}.csv"));
            if let Err(e) = table.write_csv(&file) {
                eprintln!("warning: could not write {}: {e}", file.display());
            }
            emitted.push(table);
        }
        eprintln!("[{id}] done in {:.1?}\n", start.elapsed());
    }
    if let Some(path) = &metrics_path {
        match std::fs::write(path, registry.render_json()) {
            Ok(()) => eprintln!("wrote metrics snapshot to {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &json_path {
        match std::fs::write(path, results_json(&emitted, &tail_cells, &tiers_cells)) {
            Ok(()) => eprintln!("wrote JSON results to {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "all {} experiment(s) done in {:.1?}; CSVs under {}",
        emitted.len(),
        start.elapsed(),
        out_dir.display()
    );
}

/// Serialises every emitted table plus the tail and tiers percentile
/// cells as a JSON document. Both experiment families land in the
/// `tail` section — `ci/check_bench.py` gates any (scenario, policy,
/// p99_ms) cell list and the scenario namespaces are disjoint
/// (straggler names vs `catalogue Nx`). Hand-rolled: the vendored
/// serde stub has no serialisation backend.
fn results_json(tables: &[Table], tail: &[TailResult], tiers: &[TiersResult]) -> String {
    let mut out = String::from("{\n  \"tables\": [");
    for (i, table) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"title\": ");
        out.push_str(&json_string(table.title()));
        out.push_str(", \"headers\": ");
        json_string_array(&mut out, table.headers());
        out.push_str(", \"rows\": [");
        for (j, row) in table.rows().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json_string_array(&mut out, row);
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"tail\": [");
    for (i, cell) in tail.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"scenario\": {}, \"policy\": {}, \"max_hedges\": {}, \
             \"operations\": {}, \"errors\": {}, \"mean_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"max_ms\": {:.3}, \"backend_fetches\": {}, \
             \"hedged_requests\": {}, \"hedge_wins\": {}, \"hedges_cancelled\": {}, \
             \"plan_p99_ms\": {:.3}, \"lookup_p99_ms\": {:.3}, \"fetch_p99_ms\": {:.3}, \
             \"bind_p99_ms\": {:.3}, \"decode_p99_ms\": {:.3}}}",
            json_string(&cell.scenario),
            json_string(&cell.policy),
            cell.max_hedges,
            cell.operations,
            cell.errors,
            cell.latency.mean_ms,
            cell.latency.p50_ms,
            cell.latency.p95_ms,
            cell.latency.p99_ms,
            cell.latency.p999_ms,
            cell.latency.max_ms,
            cell.backend_fetches,
            cell.hedged_requests,
            cell.hedge_wins,
            cell.hedges_cancelled,
            cell.stages.plan.p99_ms,
            cell.stages.lookup.p99_ms,
            cell.stages.fetch.p99_ms,
            cell.stages.bind.p99_ms,
            cell.stages.decode.p99_ms,
        ));
    }
    for (i, cell) in tiers.iter().enumerate() {
        if i > 0 || !tail.is_empty() {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"scenario\": {}, \"policy\": {}, \"catalogue_multiple\": {}, \
             \"operations\": {}, \"errors\": {}, \"mean_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"max_ms\": {:.3}, \"ram_hits\": {}, \
             \"disk_hits\": {}, \"chunk_lookups\": {}, \"ram_hit_ratio\": {:.4}, \
             \"disk_hit_ratio\": {:.4}, \"ram_chunks\": {}, \"disk_chunks\": {}, \
             \"tier_promotions\": {}, \"disk_evictions\": {}, \
             \"disk_appended_bytes\": {}, \
             \"plan_p99_ms\": {:.3}, \"lookup_p99_ms\": {:.3}, \"fetch_p99_ms\": {:.3}, \
             \"bind_p99_ms\": {:.3}, \"decode_p99_ms\": {:.3}}}",
            json_string(&cell.scenario),
            json_string(&cell.policy),
            cell.catalogue_multiple,
            cell.operations,
            cell.errors,
            cell.latency.mean_ms,
            cell.latency.p50_ms,
            cell.latency.p95_ms,
            cell.latency.p99_ms,
            cell.latency.p999_ms,
            cell.latency.max_ms,
            cell.ram_hits,
            cell.disk_hits,
            cell.chunk_lookups,
            cell.ram_hit_ratio(),
            cell.disk_hit_ratio(),
            cell.ram_chunks,
            cell.disk_chunks,
            cell.tier_promotions,
            cell.disk_evictions,
            cell.disk_appended_bytes,
            cell.stages.plan.p99_ms,
            cell.stages.lookup.p99_ms,
            cell.stages.fetch.p99_ms,
            cell.stages.bind.p99_ms,
            cell.stages.decode.p99_ms,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(item));
    }
    out.push(']');
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: experiments [fig2|table1|fig6|fig7|fig8a|fig8b|fig9|fig10|ablation|throughput|cluster|mixed|ec|tail|tiers|chaos|all]... \
         [--tiny] [--runs N] [--ops N] [--out DIR] [--json FILE] [--metrics FILE]"
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
