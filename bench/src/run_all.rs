//! `run`: every workload, untraced then traced, each in a process of
//! its own (so `peak_rss_mb` is that workload's and a crash cannot take
//! the others with it), gathered into one result file.
//!
//! Each child is this same binary in the driver's form, so there is one
//! measuring code path.

use crate::json::Json;
use crate::metrics::{RUN_SECONDS, WORKLOADS};
use crate::{flag, probes, results_dir};
use std::process::{Command, ExitCode, Stdio};

/// The host facts a wall-clock number is meaningless without.
fn host_json() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(name))
            .and_then(|line| line.split_once(':'))
            .map_or(String::new(), |(_, value)| value.trim().to_string())
    };
    let flags = field("flags");
    let relevant: Vec<Json> = ["ssse3", "avx2", "avx512f", "gfni"]
        .into_iter()
        .filter(|wanted| flags.split(' ').any(|flag| flag == *wanted))
        .map(Json::str)
        .collect();
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu_model", Json::str(field("model name"))),
        ("cpu_flags", Json::Arr(relevant)),
        ("gf_kernel_tier", Json::str(probes::gf_kernel_tier())),
        (
            "os_release",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
    ])
}

/// Runs one child and returns its parsed result line.
fn child(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output() // waits for the child to end
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed} trace {trace}: incorrect or failed run"
        ));
    }
    Ok(result)
}

/// Appends one run's values to the per-metric value lists.
fn gather(into: &mut Vec<(String, Vec<f64>, String)>, result: &Json) {
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        match into.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, values, _)) => values.push(value),
            None => into.push((name.clone(), vec![value], unit.to_string())),
        }
    }
}

fn metrics_json(metrics: Vec<(String, Vec<f64>, String)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, values, unit)| {
                (
                    name,
                    Json::obj([
                        ("unit", Json::Str(unit)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn main(args: &[String]) -> ExitCode {
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let runs: u64 = flag(args, "--runs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seconds = flag(args, "--seconds").map_or(RUN_SECONDS.to_string(), str::to_string);
    let out = flag(args, "--out").map_or_else(
        || results_dir().join(format!("run-seed{seed}.json")),
        std::path::PathBuf::from,
    );

    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let (mut end_to_end, mut per_layer) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0.0, 0.0);
        // Run r uses seed + r: a result file with several runs carries
        // the seed-to-seed spread `compare` needs.
        for run in 0..runs.max(1) {
            for trace in [false, true] {
                match child(workload.name, seed + run, &seconds, trace) {
                    Ok(result) => {
                        gather(
                            if trace {
                                &mut per_layer
                            } else {
                                &mut end_to_end
                            },
                            &result,
                        );
                        let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                        attempted += count("attempted");
                        failed += count("failed");
                    }
                    Err(error) => {
                        eprintln!("{error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        workloads.push((
            workload.name,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", metrics_json(end_to_end)),
                ("per_layer", metrics_json(per_layer)),
            ]),
        ));
    }
    let document = Json::obj([
        ("host", host_json()),
        ("first_seed", Json::Num(seed as f64)),
        ("runs", Json::Num(runs.max(1) as f64)),
        ("seconds", Json::Num(seconds.parse().unwrap_or(0.0))),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, document.render_pretty()) {
        Ok(()) => {
            println!("# results written to {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}
