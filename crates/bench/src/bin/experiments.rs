//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run -p agar-bench --release --bin experiments -- [ids...] [--tiny] [--runs N] [--ops N]
//!
//! ids: fig2 table1 fig6 fig7 fig8a fig8b fig9 fig10 ablation all   (default: all)
//!      mixed        (K-node cluster under a read/write mix at several
//!                    write ratios: lease write path, stale-read check
//!                    against a write history; simulated clock, CI-gated
//!                    like tail)
//!      tail         (hedged vs unhedged P50/P95/P99/P999 across the
//!                    straggler scenario family; simulated clock, so the
//!                    JSON output is host-independent and CI-gateable)
//!      tiers        (RAM-only vs two-tier RAM+disk cache while the
//!                    catalogue outgrows RAM 1x/4x/16x; simulated clock,
//!                    CI-gateable like tail)
//!      chaos        (baseline vs hardened failure handling — retry
//!                    budgets, circuit breakers — under deterministic
//!                    injected partitions and fetch errors)
//! --tiny        run at test scale (fast, same shapes): 9 KB objects,
//!               and the defaults become 1 run x 300 ops
//! --runs N      repetitions to average (default 5, paper value);
//!               the paper figures only
//! --ops N       operations per run (default 1000, paper value)
//! --profile P   latency profile every deployment is built with,
//!               calibrated (default) or table1
//! --out DIR     also write CSVs under DIR (default results/)
//! --json FILE   also write every table (and tail/tiers percentiles)
//!               as JSON
//! --metrics FILE  also write the metrics registry (every counter and
//!                 stage histogram the tail/tiers/chaos/mixed cells
//!                 bound) as a JSON snapshot
//! ```
//!
//! Flags apply in any order: an explicit `--runs`/`--ops` always wins
//! over the `--tiny` defaults. Each id builds its own deployment from
//! the scale and profile, so its report does not depend on the ids run
//! before it. Host-clock micro-numbers (codec MB/s, cache ns/op, ops/s
//! scaling) come from the gated benchmark under `bench/`, not from
//! here.

use agar_bench::experiments::{ExperimentParams, Runner, IDS, PAPER_IDS};
use agar_bench::{report_json, LatencyProfile};
use agar_obs::MetricsRegistry;
use std::path::PathBuf;

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut tiny = false;
    let mut runs: Option<usize> = None;
    let mut ops: Option<usize> = None;
    let mut profile: Option<LatencyProfile> = None;
    let mut out_dir = PathBuf::from("results");
    let mut json_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--runs" => runs = Some(number(&arg, &value("a number"))),
            "--ops" => ops = Some(number(&arg, &value("a number"))),
            "--profile" => {
                profile = Some(match value("calibrated|table1").as_str() {
                    "calibrated" => LatencyProfile::Calibrated,
                    "table1" => LatencyProfile::PaperTable1,
                    _ => usage("--profile needs calibrated|table1"),
                });
            }
            "--out" => out_dir = PathBuf::from(value("a directory")),
            "--json" => json_path = Some(PathBuf::from(value("a file path"))),
            "--metrics" => metrics_path = Some(PathBuf::from(value("a file path"))),
            "--help" | "-h" => usage(""),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = IDS[..PAPER_IDS].iter().map(|id| id.to_string()).collect();
    }
    for id in &ids {
        if !IDS.contains(&id.as_str()) {
            usage(&format!("unknown experiment {id}"));
        }
        let grid = matches!(id.as_str(), "tail" | "tiers" | "chaos" | "mixed");
        if grid && runs.is_some() {
            eprintln!("note: {id} ignores --runs (every cell is one seeded run)");
        }
    }
    // Scale first, explicit flags after: the two orders of `--tiny`
    // and `--ops`/`--runs` mean the same thing.
    let mut params = if tiny {
        ExperimentParams::tiny()
    } else {
        ExperimentParams::paper()
    };
    params.runs = runs.unwrap_or(params.runs);
    params.operations = ops.unwrap_or(params.operations);
    params.profile = profile.unwrap_or(params.profile);

    eprintln!(
        "deployment: {} objects x {} bytes, {} runs x {} ops",
        params.scale.object_count, params.scale.object_size, params.runs, params.operations
    );
    // Wall time for the stderr `done in` lines only; no report reads it.
    // agar-lint: allow(determinism)
    let start = std::time::Instant::now();
    let registry = MetricsRegistry::new();
    // Only wire the registry through when a dump was requested:
    // registration is cheap but pointless otherwise.
    let metrics = metrics_path.as_ref().map(|_| &registry);
    let mut runner = Runner::new(params, metrics);
    let mut tables = Vec::new();
    let mut cells = Vec::new();
    for id in &ids {
        // agar-lint: allow(determinism)
        let start = std::time::Instant::now();
        let (table, gated) = runner.run(id).expect("ids were checked against IDS");
        println!("{table}");
        let file = out_dir.join(format!("{id}.csv"));
        if let Err(e) = table.write_csv(&file) {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
        tables.push(table);
        cells.extend(gated);
        eprintln!("[{id}] done in {:.1?}\n", start.elapsed());
    }
    if let Some(path) = &metrics_path {
        write_or_exit(path, &registry.render_json(), "metrics snapshot");
    }
    if let Some(path) = &json_path {
        write_or_exit(path, &report_json(&tables, &cells), "JSON results");
    }
    eprintln!(
        "all {} experiment(s) done in {:.1?}; CSVs under {}",
        tables.len(),
        start.elapsed(),
        out_dir.display()
    );
}

fn number(flag: &str, text: &str) -> usize {
    text.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
}

fn write_or_exit(path: &std::path::Path, contents: &str, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("wrote {what} to {}", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: experiments [{}|all]... \
         [--tiny] [--runs N] [--ops N] [--profile calibrated|table1] [--out DIR] \
         [--json FILE] [--metrics FILE]",
        IDS.join("|")
    );
    std::process::exit(if error.is_empty() { 0 } else { 2 });
}
