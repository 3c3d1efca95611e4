#!/usr/bin/env python3
"""Gates the bench/ driver's exact rows at equality.

Runs the driver at --seconds 0.1 on seeds 1, 7 and 97 for hot-hit,
paper-zipf and tiered-pressure, untraced and traced, and compares the
rows that repeat for a seed whatever the host's speed with
ci/BENCH_exact_baseline.json. Those rows come from the counted window
(a fixed number of operations that every run completes before it may
stop, so --seconds only bounds the timed phase after it):

- untraced: read_sim_mean_ms, read_sim_p99_ms, object_hit_ratio,
  read_allocs, read_alloc_kb;
- traced: store.backend_chunks_per_read, ec.gf_bytes_per_read.

Simulated-clock, ratio and count rows must be equal. read_allocs and
read_alloc_kb may differ by 0.01 %: an allocation made by a hash map
growing or rehashing in place depends on the per-process hasher seed.
Every run must also report "correct": true and "failed": 0, and
cache.disk.corrupt_frames 0 where it reports the row.

    ci/bench_exact.py           # compare; exit 1 on any difference
    ci/bench_exact.py --write   # regenerate the baseline

A change that moves a row regenerates the file and says why.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = ROOT / "ci" / "BENCH_exact_baseline.json"
WORKLOADS = ["hot-hit", "paper-zipf", "tiered-pressure"]
SEEDS = [1, 7, 97]
ROWS = {
    0: [
        "read_sim_mean_ms",
        "read_sim_p99_ms",
        "object_hit_ratio",
        "read_allocs",
        "read_alloc_kb",
    ],
    1: ["store.backend_chunks_per_read", "ec.gf_bytes_per_read"],
}
ALLOCATION_ROWS = {"read_allocs", "read_alloc_kb"}
ALLOCATION_TOLERANCE = 1e-4


def run(workload, seed, trace):
    """One driver run's result object (the last line it prints)."""
    out = subprocess.run(
        [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", str(ROOT / "bench" / "Cargo.toml"), "--",
            "--workload", workload, "--seed", str(seed),
            "--seconds", "0.1", "--trace", str(trace),
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure():
    """Every run's exact rows, keyed `workload.seedN.traceT`; exits on
    a run that failed its own checks."""
    rows, failures = {}, []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                key = f"{workload}.seed{seed}.trace{trace}"
                result = run(workload, seed, trace)
                metrics = result["metrics"]
                corrupt = metrics.get("cache.disk.corrupt_frames", {}).get("value", 0)
                if not (result["correct"] is True and result["failed"] == 0 and corrupt == 0):
                    failures.append(
                        f"{key}: correct {result['correct']}, failed {result['failed']}, "
                        f"cache.disk.corrupt_frames {corrupt}"
                    )
                rows[key] = {row: metrics[row]["value"] for row in ROWS[trace]}
                print(f"{key}: {rows[key]}", flush=True)
    if failures:
        sys.exit("bench_exact: runs failed their checks:\n" + "\n".join(failures))
    return rows


def differs(row, expected, actual):
    if row in ALLOCATION_ROWS:
        return abs(actual - expected) > ALLOCATION_TOLERANCE * abs(expected)
    return actual != expected


def main():
    rows = measure()
    if sys.argv[1:] == ["--write"]:
        BASELINE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"bench_exact: wrote {BASELINE.relative_to(ROOT)}")
        return
    baseline = json.loads(BASELINE.read_text())
    moved = [
        f"{key} {row}: {expected} -> {rows.get(key, {}).get(row)}"
        for key, expected_rows in sorted(baseline.items())
        for row, expected in sorted(expected_rows.items())
        if key not in rows or row not in rows[key] or differs(row, expected, rows[key][row])
    ]
    moved += [f"{key}: not in the baseline" for key in sorted(rows.keys() - baseline.keys())]
    if moved:
        sys.exit("bench_exact: rows moved:\n" + "\n".join(moved))
    print(f"bench_exact: {len(rows)} runs equal to {BASELINE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
