//! `compare A.json B.json`: applies the end-to-end bounds to two result
//! files written by `run` (A is the base, B the candidate).
//!
//! Per (workload, metric) the verdict is
//!
//! - `regressed` — B's median is worse than A's by more than the bound
//!   (for an exact-class metric on a single-client workload: any pair
//!   of same-seed runs differs by more than 1 %);
//! - `unresolved` — either side's own run-to-run spread (IQR ÷ median,
//!   needs ≥ 4 runs) is wider than the bound, so the data cannot tell;
//! - `ok` otherwise.
//!
//! Every ratio is printed with its base. Exits non-zero on `regressed`.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{self, Better};
use std::process::ExitCode;

/// The workload whose exact-class values depend on thread interleaving.
const MULTI_CLIENT: &str = "cluster-mixed";
/// Tolerance on an exact-class metric between same-seed runs.
const EXACT_TOLERANCE: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// IQR ÷ median of a side's runs, as `statistics.quantiles(v, n=4)`
/// gives the quartiles; `None` with fewer than four runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // The exclusive method: quartile i sits at position i(n+1)/4.
    let at = |q: f64| {
        let pos = q * (v.len() + 1) as f64 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(v.len() - 1);
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    let median = stats::median(values);
    (median != 0.0).then(|| (at(0.75) - at(0.25)) / median.abs())
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative: better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// The verdict for one (workload, metric) pairing.
pub fn judge(workload: &str, metric: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    if metric.exact && workload != MULTI_CLIENT && base.len() == new.len() {
        // Same seeds on both sides: compare run by run.
        let moved = base
            .iter()
            .zip(new)
            .any(|(&a, &b)| worse_by(a, b, metric.better) > EXACT_TOLERANCE);
        return if moved {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let too_wide = |values: &[f64]| spread(values).is_some_and(|s| s > metric.bound);
    if too_wide(base) || too_wide(new) {
        return Verdict::Unresolved;
    }
    if worse_by(stats::median(base), stats::median(new), metric.better) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values_of(document: &Json, workload: &str, metric: &str) -> Vec<f64> {
    document
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> ExitCode {
    let [base_path, new_path] = args else {
        eprintln!("usage: agar-perfbench compare <A.json> <B.json>");
        return ExitCode::from(2);
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = 0;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let a = values_of(&base, workload.name, metric.name);
            let b = values_of(&new, workload.name, metric.name);
            if a.is_empty() || b.is_empty() {
                println!(
                    "{} {} missing on one side: unresolved",
                    workload.name, metric.name
                );
                continue;
            }
            let verdict = judge(workload.name, metric, &a, &b);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let fmt_spread =
                |v: &[f64]| spread(v).map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{} {} {}: base {} -> {} {} ({:+.2}% worse, better = {}, bound {:.0}%, \
                 spread base {} new {}, {}+{} runs){}",
                workload.name,
                metric.name,
                verdict.label(),
                ma,
                mb,
                metric.unit,
                worse_by(ma, mb, metric.better) * 100.0,
                metric.better.label(),
                metric.bound * 100.0,
                fmt_spread(&a),
                fmt_spread(&b),
                a.len(),
                b.len(),
                if metric.exact && a == b {
                    ", bit-equal"
                } else {
                    ""
                },
            );
        }
    }
    if regressed > 0 {
        eprintln!("{regressed} (workload, metric) pairing(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("declared metric")
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None, "too few runs for quartiles");
        assert_eq!(spread(&[5.0; 6]), Some(0.0));
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn wall_metrics_are_judged_on_medians_within_the_bound() {
        let wall = metric("read_wall_us");
        let base = [10.0, 10.2, 9.9, 10.1, 10.0];
        let slower = |by: f64| base.map(|v| v * (1.0 + by));
        assert_eq!(
            judge("hot-hit", wall, &base, &slower(wall.bound * 0.9)),
            Verdict::Ok
        );
        assert_eq!(
            judge("hot-hit", wall, &base, &slower(wall.bound * 1.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge("hot-hit", wall, &base, &slower(-0.5)),
            Verdict::Ok,
            "faster is fine"
        );
        // A side noisier than the bound cannot resolve the question.
        let noisy = [10.0, 14.0, 7.0, 19.0, 10.0];
        assert_eq!(judge("hot-hit", wall, &base, &noisy), Verdict::Unresolved);
        // Throughput: lower is worse.
        let ops = metric("ops_per_s");
        assert_eq!(
            judge("hot-hit", ops, &base, &slower(-ops.bound * 1.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_metrics_compare_run_by_run_on_single_client_workloads() {
        let allocs = metric("read_allocs");
        let base = [21.0, 21.5, 20.9];
        assert_eq!(judge("paper-zipf", allocs, &base, &base), Verdict::Ok);
        let one_moved = [21.0, 21.5 * 1.02, 20.9];
        assert_eq!(
            judge("paper-zipf", allocs, &base, &one_moved),
            Verdict::Regressed
        );
        // The 2-thread workload varies with interleaving: median rule.
        assert_eq!(judge(MULTI_CLIENT, allocs, &base, &one_moved), Verdict::Ok);
    }
}
