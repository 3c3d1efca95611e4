//! The wall-clock + sim-clock benchmark of the Agar reproduction.
//!
//! ```text
//! agar-perfbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! agar-perfbench run [--seed N] [--seconds S] [--out FILE]       every workload, both kinds
//! agar-perfbench compare A.json B.json                           apply the bounds
//! agar-perfbench manifest                                        print BENCHMARK.json
//! agar-perfbench layers                                          print the per-layer table
//! ```
//!
//! Every layer is measured from outside, through public items only;
//! see `README.md` for the metric definitions and the pinned surface.

mod alloc;
mod cluster_workload;
mod compare;
mod deploy;
mod json;
mod metrics;
mod node_workload;
mod probes;
mod record;
mod reduce;
mod run_all;
mod stats;
mod trace;

use crate::deploy::{ClusterParams, NodeParams};
use crate::json::Json;
use crate::record::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// ~1/100 of the work, for `cargo test`.
    pub smoke: bool,
}

/// Where span files, results and the disk tier's segment files go: the
/// package's own `results/` directory, inside the checkout.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Points the disk tier (`DiskStore::new` uses the system temp dir) at
/// a directory inside the checkout. Must run before any thread starts.
pub fn confine_temp_files() {
    let tmp = results_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("create results/tmp");
    // Single-threaded at this point, so no other thread reads the
    // environment concurrently.
    std::env::set_var("TMPDIR", &tmp);
}

/// Writes the traced run's span file, `results/trace-<workload>.json`.
pub fn write_trace_file(workload: &str, args: &RunArgs, tracer: &trace::Tracer) {
    if args.smoke {
        return;
    }
    let path = results_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload, args.seed).render())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Runs one workload by name.
pub fn run_workload(workload: &str, args: &RunArgs) -> Option<Outcome> {
    let node = |params: NodeParams| {
        let params = if args.smoke { params.smoke() } else { params };
        node_workload::run(&params, args)
    };
    Some(match workload {
        "hot-hit" => node(NodeParams::hot_hit()),
        "paper-zipf" => node(NodeParams::paper_zipf()),
        "tiered-pressure" => node(NodeParams::tiered_pressure()),
        "cluster-mixed" => {
            let params = ClusterParams::cluster_mixed();
            let params = if args.smoke { params.smoke() } else { params };
            cluster_workload::run(&params, args)
        }
        _ => return None,
    })
}

/// The unit a metric is declared with.
pub fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: agar-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         agar-perfbench run [--seed <n>] [--seconds <s>] [--out <file>]\n       \
         agar-perfbench compare <A.json> <B.json>\n       \
         agar-perfbench manifest | layers",
        metrics::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

/// One run in the driver's form: metric lines, notes, then the result
/// object as the last line of standard output.
fn single_run(args: &[String]) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag(args, "--workload"),
        flag(args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        flag(args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag(args, "--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return usage();
    }
    let run = RunArgs {
        seed,
        seconds,
        trace,
        smoke: false,
    };
    confine_temp_files();
    let Some(outcome) = run_workload(workload, &run) else {
        return usage();
    };
    for &(name, value) in &outcome.metrics {
        println!("{workload} {name} {value} {}", unit_of(name));
    }
    for note in &outcome.notes {
        println!("# {workload} {note}");
    }
    println!("{}", result_json(&outcome).render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: INCORRECT — {} of {} operations failed or an end-of-run invariant broke",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        Some("layers") => {
            print!("{}", metrics::per_layer_markdown());
            ExitCode::SUCCESS
        }
        Some(first) if first.starts_with("--") => single_run(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod smoke {
    //! Every workload at ~1/100 of the work, untraced and traced: the
    //! metric sets match the manifest, every byte verifies, and every
    //! sampled read's shadow returned the real read's bytes.
    use super::*;

    fn run(workload: &str, trace: bool) -> Outcome {
        // The disk tier's files stay inside the package here too. `Once`
        // orders the environment write before every test's first read.
        static CONFINE: std::sync::Once = std::sync::Once::new();
        CONFINE.call_once(confine_temp_files);
        let args = RunArgs {
            seed: 7,
            seconds: 0.05,
            trace,
            smoke: true,
        };
        run_workload(workload, &args).expect("known workload")
    }

    fn value(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} not reported"))
            .1
    }

    fn check(workload: &str) -> (Outcome, Outcome) {
        let plain = run(workload, false);
        assert!(
            plain.correct && plain.failed == 0 && plain.attempted > 0,
            "{workload}"
        );
        let names: Vec<&str> = plain.metrics.iter().map(|&(n, _)| n).collect();
        let declared: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            names, declared,
            "{workload}: every end-to-end metric, in order"
        );
        for &(name, v) in &plain.metrics {
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}: never 0");
        }
        let traced = run(workload, true);
        assert!(traced.correct && traced.failed == 0, "{workload} traced");
        let mut names: Vec<&str> = traced.metrics.iter().map(|&(n, _)| n).collect();
        let mut declared: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        declared.sort_unstable();
        assert_eq!(names, declared, "{workload}: every per-layer metric, once");
        assert!(
            traced.metrics.iter().all(|(_, v)| v.is_finite()),
            "{workload}"
        );
        assert!(
            value(&traced, "bench.sampled_ops") > 0.0,
            "{workload}: nothing sampled"
        );
        assert_eq!(value(&traced, "bench.shadow_mismatches"), 0.0, "{workload}");
        assert_eq!(value(&traced, "bench.failed_frac"), 0.0, "{workload}");
        assert!(value(&traced, "cache.ram_used_frac") <= 1.0, "{workload}");
        (plain, traced)
    }

    #[test]
    fn hot_hit_bypasses_store_disk_and_knapsack() {
        let (plain, traced) = check("hot-hit");
        assert_eq!(value(&plain, "object_hit_ratio"), 1.0);
        assert_eq!(value(&traced, "store.fetch_calls_per_read"), 0.0);
        assert_eq!(value(&traced, "store.backend_chunks_per_read"), 0.0);
        assert_eq!(value(&traced, "cache.disk_hit_ratio"), 0.0);
        assert_eq!(value(&traced, "core.knapsack.reconfigurations"), 0.0);
        assert_eq!(value(&traced, "cluster.router.write_wall_us"), 0.0);
    }

    #[test]
    fn paper_zipf_reconfigures_and_fetches() {
        let (plain, traced) = check("paper-zipf");
        let hits = value(&plain, "object_hit_ratio");
        assert!(hits > 0.0 && hits < 1.0, "partial working set: {hits}");
        assert!(value(&traced, "core.knapsack.reconfigurations") > 0.0);
        assert!(value(&traced, "store.fetch_calls_per_read") > 0.0);
        assert_eq!(value(&traced, "cache.disk_hit_ratio"), 0.0);
    }

    #[test]
    fn tiered_pressure_is_the_only_one_on_disk() {
        let (_, traced) = check("tiered-pressure");
        assert!(value(&traced, "cache.disk_hit_ratio") > 0.0);
        assert!(value(&traced, "core.knapsack.config_chunks_disk") > 0.0);
        assert!(value(&traced, "cache.disk_used_frac") <= 1.0);
        assert_eq!(value(&traced, "cache.disk.corrupt_frames"), 0.0);
    }

    #[test]
    fn cluster_mixed_writes_and_stays_coherent() {
        let (_, traced) = check("cluster-mixed");
        assert!(value(&traced, "cluster.router.write_wall_us") > 0.0);
        assert!(value(&traced, "ec.encode_us") > 0.0);
        assert_eq!(value(&traced, "cluster.coordinator.in_flight_end"), 0.0);
        assert_eq!(value(&traced, "cluster.lease.fences"), 0.0);
    }

    #[test]
    fn same_seed_repeats_the_exact_class_on_a_single_client() {
        let (a, b) = (run("paper-zipf", false), run("paper-zipf", false));
        for metric in metrics::END_TO_END.iter().filter(|m| m.exact) {
            assert_eq!(
                value(&a, metric.name).to_bits(),
                value(&b, metric.name).to_bits(),
                "{} must be bit-equal",
                metric.name
            );
        }
    }
}
