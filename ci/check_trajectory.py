#!/usr/bin/env python3
"""Checks the shape of the per-change perf ledger at the repo root.

Every row must name its change and the host it was measured on:

- date (YYYY-MM-DD), pr (int), commit (7-40 hex digits), source
  ("measured", or where a back-filled row's figures come from);
- nproc (int >= 1) and cpu_flags (a list of flag names; may be empty
  only on a back-filled row whose source recorded none);
- exact: rows of the bench driver's exact metrics, keyed as the
  baseline of ci/gates.tsv's `exact-rows` gate keys them
  ("workload.seedN.traceT" -> {metric: number}); empty only on a
  back-filled row whose source recorded none under one seed. A
  measured row carries every row of that baseline, and the newest one
  exactly its values, so a change that moves an exact row appends a
  row;
- wall: a list of A/B wall-clock results, each with workload, metric,
  pairs, won, parent_median, change_median, status and host.

    ci/check_trajectory.py TRAJECTORY   # exit 1 with one line per problem

ci/gates.tsv's `trajectory` line names the ledger.
"""

import json
import pathlib
import re
import sys

import gate
ROW_KEYS = {"date", "pr", "commit", "source", "nproc", "cpu_flags", "exact", "wall"}
WALL_KEYS = {"workload", "metric", "pairs", "won", "parent_median", "change_median", "status", "host"}
EXACT_KEY = re.compile(r"^[a-z-]+\.seed\d+\.trace[01]$")


def number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_row(at, row, baseline, problems):
    def bad(message):
        problems.append(f"row {at}: {message}")

    missing = ROW_KEYS - row.keys()
    if missing:
        bad(f"lacks {sorted(missing)}")
        return
    if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", str(row["date"])):
        bad(f"date {row['date']!r} is not YYYY-MM-DD")
    if not isinstance(row["pr"], int):
        bad("pr is not an integer")
    if not re.fullmatch(r"[0-9a-f]{7,40}", str(row["commit"])):
        bad(f"commit {row['commit']!r} is not a hash")
    measured = row["source"] == "measured"
    if not isinstance(row["nproc"], int) or row["nproc"] < 1:
        bad("nproc is not a positive integer")
    flags = row["cpu_flags"]
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        bad("cpu_flags is not a list of names")
    elif measured and not flags:
        bad("a measured row lists no cpu_flags")
    exact = row["exact"]
    if not isinstance(exact, dict):
        bad("exact is not an object")
    elif measured and not exact:
        bad("a measured row has no exact rows")
    else:
        for key, metrics in exact.items():
            if not EXACT_KEY.match(key):
                bad(f"exact key {key!r} is not workload.seedN.traceT")
            elif not isinstance(metrics, dict) or not metrics:
                bad(f"exact {key} holds no metrics")
            elif not all(number(value) for value in metrics.values()):
                bad(f"exact {key} holds a value that is not a number")
        if measured:
            for key, metrics in baseline.items():
                lacking = set(metrics) - set(exact.get(key, {}))
                if lacking:
                    bad(f"exact {key} lacks {sorted(lacking)}")
    if not isinstance(row["wall"], list):
        bad("wall is not a list")
        return
    for entry in row["wall"]:
        lacking = WALL_KEYS - entry.keys()
        if lacking:
            bad(f"wall entry {entry.get('workload')}/{entry.get('metric')} lacks {sorted(lacking)}")
        elif not (number(entry["parent_median"]) and number(entry["change_median"])):
            bad(f"wall entry {entry['workload']}/{entry['metric']} has a median that is not a number")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    (exact,) = [line for line in gate.manifest() if line.comparison == "exact-rows"]
    baseline = json.loads(exact.baseline_path().read_text())
    rows = json.loads(pathlib.Path(sys.argv[1]).read_text()).get("rows", [])
    problems = []
    if not rows:
        problems.append("no rows")
    for at, row in enumerate(rows):
        check_row(at, row, baseline, problems)
    measured = [row for row in rows if row.get("source") == "measured"]
    if measured and measured[-1].get("exact") != baseline:
        problems.append(
            f"the newest measured row's exact rows differ from {exact.baseline}: "
            "a change that moves an exact row appends a row"
        )
    for problem in problems:
        print(f"check_trajectory: {problem}")
    if problems:
        sys.exit(1)
    print(f"check_trajectory: {len(rows)} rows, {len(measured)} measured, all complete")


if __name__ == "__main__":
    main()
