#!/usr/bin/env python3
"""Runs the output gates listed in ci/gates.tsv, the one list of them.

    ci/gate.py check [GROUP|NAME ...]  # run and compare; every gate by default
    ci/gate.py write NAME              # regenerate NAME's baseline, print what moved
    ci/gate.py digest                  # sha256 per deterministic output, and combined
    ci/gate.py result [--zero METRIC ...] < driver-stdout

Every mode runs each distinct command once, from the repo root, with
its outputs under target/gates (the manifest's {out}) and its stdout
kept as target/gates/stdout/NAME.txt (NAME: the first line with that
command).

Every mode but `result` first checks the manifest itself, before it
runs anything: every field filled, names unique, each named baseline
present, each `BENCH_*` / `METRICS_*` / `CSV_*` entry under ci/ the
baseline of exactly one line, and each group a `gate.py check` in the
CI workflow names holding a line.

`digest` runs the `cmp` and `exact-rows` gates and prints one sha256
per output file and per run's stdout, then a combined digest over
them: two checkouts with the same combined digest produced the same
bytes (run it in a clone of the parent and in the change).

`result` reads a bench driver run's stdout and checks its last line,
the result object: "correct" true, "failed" 0, cache.disk.corrupt_frames
0 where reported, and each `--zero` metric reported and 0.
"""

import argparse
import filecmp
import hashlib
import json
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "ci" / "gates.tsv"
OUT = "target/gates"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
COMPARISONS = {"cmp", "exact-rows", "exit"}
BASELINE_PATTERNS = ("BENCH_*", "METRICS_*", "CSV_*")

# The exact-rows rule: the runs, the rows each run contributes, and
# the one tolerance. These rows come from the driver's counted window
# (a fixed number of operations every run completes before it may
# stop), so they repeat for a seed whatever the host's speed; an
# allocation made by a hash map growing or rehashing in place depends
# on the per-process hasher seed, hence the tolerance.
WORKLOADS = ["hot-hit", "paper-zipf", "tiered-pressure"]
SEEDS = [1, 7, 97]
ROWS = {
    0: ["read_sim_mean_ms", "read_sim_p99_ms", "object_hit_ratio", "read_allocs", "read_alloc_kb"],
    1: ["store.backend_chunks_per_read", "ec.gf_bytes_per_read"],
}
ALLOCATION_ROWS = {"read_allocs", "read_alloc_kb"}
ALLOCATION_TOLERANCE = 1e-4


@dataclass
class Gate:
    name: str
    group: str
    command: str
    output: str
    baseline: str
    comparison: str

    def baseline_path(self):
        return ROOT / self.baseline


def manifest():
    """The manifest's gates, in file order; exits on a malformed line."""
    gates = []
    for number, line in enumerate(MANIFEST.read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 6 or not all(fields):
            sys.exit(f"gate: {MANIFEST.name}:{number}: want 6 non-empty tab-separated fields")
        gates.append(Gate(*fields))
    return gates


def manifest_problems(gates):
    """Every way the manifest disagrees with the tree or the workflow."""
    problems = []
    names = [gate.name for gate in gates]
    problems += [f"name {name} is on {names.count(name)} lines" for name in sorted(set(names)) if names.count(name) > 1]
    for gate in gates:
        if gate.comparison not in COMPARISONS:
            problems.append(f"{gate.name}: comparison {gate.comparison!r} is none of {sorted(COMPARISONS)}")
        if gate.comparison != "exit" and "-" in (gate.output, gate.baseline):
            problems.append(f"{gate.name}: a {gate.comparison} gate needs an output and a baseline")
        if gate.baseline != "-" and not gate.baseline_path().exists():
            problems.append(f"{gate.name}: baseline {gate.baseline} does not exist")
    baselines = [gate.baseline for gate in gates]
    for pattern in BASELINE_PATTERNS:
        for path in sorted((ROOT / "ci").glob(pattern)):
            rel = path.relative_to(ROOT).as_posix()
            if baselines.count(rel) != 1:
                problems.append(f"{rel} is the baseline of {baselines.count(rel)} lines, not 1")
    groups = {gate.group for gate in gates}
    for invocation in re.findall(r"gate\.py check ([^\n]*)", WORKFLOW.read_text()):
        for group in invocation.split():
            if group not in groups:
                problems.append(f"{WORKFLOW.name} checks group {group}, which has no line")
    return problems


def select(gates, selectors):
    if not selectors:
        return gates
    known = {gate.name for gate in gates} | {gate.group for gate in gates}
    unknown = [s for s in selectors if s not in known]
    if unknown:
        sys.exit(f"gate: no gate or group named {', '.join(unknown)}")
    return [gate for gate in gates if gate.name in selectors or gate.group in selectors]


def expand(gate, **fields):
    return gate.command.format(out=OUT, baseline=gate.baseline, **fields)


def bash(command, stdout):
    """Runs `command` from the repo root; its stdout goes to `stdout`."""
    print(f"gate: $ {command}", file=sys.stderr, flush=True)
    with open(stdout, "w") as sink:
        return subprocess.run(["bash", "-o", "pipefail", "-c", command], cwd=ROOT, stdout=sink).returncode


def run_result(text, zero=()):
    """The problems of one driver run, from its stdout."""
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        problems = []
        corrupt = metrics.get("cache.disk.corrupt_frames", {}).get("value", 0)
        if not (result["correct"] is True and result["failed"] == 0 and corrupt == 0):
            problems.append(
                f"correct {result['correct']}, failed {result['failed']}, "
                f"cache.disk.corrupt_frames {corrupt}"
            )
        for metric in zero:
            value = metrics.get(metric, {}).get("value")
            if value != 0:
                problems.append(f"{metric} {value}")
        return problems
    except (IndexError, ValueError, KeyError, TypeError) as error:
        return [f"no result object on the last line ({error!r})"]


def run_exact_rows(gate, out):
    """Runs the exact-rows grid; writes the rows to the gate's output.
    Returns the runs that failed their checks."""
    rows, failures = {}, []
    logs = out / "stdout" / gate.name
    logs.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in ROWS:
                key = f"{workload}.seed{seed}.trace{trace}"
                log = logs / f"{key}.txt"
                code = bash(expand(gate, workload=workload, seed=seed, trace=trace), log)
                problems = run_result(log.read_text()) + ([f"exit {code}"] if code else [])
                if problems:
                    failures.append(f"{key}: {', '.join(problems)}")
                    continue
                metrics = json.loads(log.read_text().strip().splitlines()[-1])["metrics"]
                rows[key] = {row: metrics[row]["value"] for row in ROWS[trace]}
    (out / gate.output).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return failures


def distinct(gates):
    """The first gate of each distinct command, in order: the one whose
    name the command's stdout file carries."""
    firsts = {}
    for gate in gates:
        firsts.setdefault(gate.command, gate)
    return list(firsts.values())


def run(gates, out):
    """Runs each distinct command of `gates` once. Returns, per command,
    the failures of the run itself (a non-zero exit, a failed driver
    run), keyed by command."""
    failures = {}
    for gate in distinct(gates):
        # A command that fails to write an output must not leave an
        # earlier run's copy to be compared.
        for other in gates:
            if other.command == gate.command and other.output != "-":
                shutil.rmtree(out / other.output, ignore_errors=True)
                (out / other.output).unlink(missing_ok=True)
        if gate.comparison == "exact-rows":
            failures[gate.command] = run_exact_rows(gate, out)
        else:
            code = bash(expand(gate), out / "stdout" / f"{gate.name}.txt")
            failures[gate.command] = [f"exit {code}"] if code else []
    return failures


def files_under(path):
    """`path` itself, or every file below it, sorted."""
    if path.is_dir():
        return sorted(p for p in path.rglob("*") if p.is_file())
    return [path] if path.exists() else []


def cmp_problems(produced, baseline):
    if not produced.exists():
        return [f"{produced.name} was not produced"]
    if baseline.is_dir():
        names = {p.name for p in produced.iterdir()} if produced.is_dir() else set()
        expected = {p.name for p in baseline.iterdir()}
        if names != expected:
            return [f"file sets differ: only produced {sorted(names - expected)}, only baseline {sorted(expected - names)}"]
        return [f"{name} differs" for name in sorted(names) if not filecmp.cmp(produced / name, baseline / name, shallow=False)]
    return [] if filecmp.cmp(produced, baseline, shallow=False) else [f"{produced.name} differs"]


def differs(row, expected, actual):
    if actual is None:
        return True
    if row in ALLOCATION_ROWS:
        return abs(actual - expected) > ALLOCATION_TOLERANCE * abs(expected)
    return actual != expected


def exact_row_problems(produced, baseline):
    if not produced.exists():
        return [f"{produced.name} was not produced"]
    rows = json.loads(produced.read_text())
    expected = json.loads(baseline.read_text())
    moved = [
        f"{key} {row}: {value} -> {rows.get(key, {}).get(row)}"
        for key, values in sorted(expected.items())
        for row, value in sorted(values.items())
        if differs(row, value, rows.get(key, {}).get(row))
    ]
    return moved + [f"{key}: not in the baseline" for key in sorted(rows.keys() - expected.keys())]


def compare(gate, out):
    if gate.comparison == "exit":
        return []
    produced = out / gate.output
    if gate.comparison == "exact-rows":
        return exact_row_problems(produced, gate.baseline_path())
    return cmp_problems(produced, gate.baseline_path())


def check(gates, selectors, out):
    chosen = select(gates, selectors)
    failures = run(chosen, out)
    failed = 0
    for gate in chosen:
        problems = failures[gate.command] + compare(gate, out)
        against = "" if gate.baseline == "-" else f" ({gate.comparison} {gate.baseline})"
        print(f"gate: {'FAIL' if problems else 'ok'}   {gate.name}{against}")
        for problem in problems:
            print(f"gate:        {problem}")
        failed += bool(problems)
    if failed:
        sys.exit(f"gate: {failed} of {len(chosen)} gates failed; outputs are under {out}")
    print(f"gate: {len(chosen)} gates passed")


def write(gates, name, out):
    gate = next((gate for gate in gates if gate.name == name), None)
    if gate is None or gate.comparison == "exit":
        sys.exit(f"gate: {name} is not a gate with a baseline to write")
    failures = run([gate], out)[gate.command]
    if failures:
        sys.exit(f"gate: {name}'s run failed; baseline left as it was:\n" + "\n".join(failures))
    produced, baseline = out / gate.output, gate.baseline_path()
    moved = compare(gate, out)
    if gate.comparison == "cmp":
        subprocess.run(["diff", "-ru", baseline, produced])
    for line in moved:
        print(f"gate: moved: {line}")
    if baseline.is_dir():
        shutil.rmtree(baseline)
        shutil.copytree(produced, baseline)
    else:
        shutil.copyfile(produced, baseline)
    print(f"gate: wrote {gate.baseline} ({len(moved)} moved)")


def digest(gates, out):
    chosen = [gate for gate in gates if gate.comparison != "exit"]
    failures = [f for fs in run(chosen, out).values() for f in fs]
    if failures:
        sys.exit("gate: runs failed:\n" + "\n".join(failures))
    files = {p for gate in chosen for p in files_under(out / gate.output)}
    files |= {out / "stdout" / f"{gate.name}.txt" for gate in distinct(chosen) if gate.comparison == "cmp"}
    lines = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}\n"
        for p in sorted(files)
    )
    print(lines, end="")
    print(f"combined {hashlib.sha256(lines.encode()).hexdigest()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("check").add_argument("selectors", nargs="*", metavar="GROUP|NAME")
    sub.add_parser("write").add_argument("name")
    sub.add_parser("digest")
    sub.add_parser("result").add_argument("--zero", action="append", default=[], metavar="METRIC")
    args = parser.parse_args()
    if args.mode == "result":
        problems = run_result(sys.stdin.read(), args.zero)
        for problem in problems:
            print(f"gate: result: {problem}")
        sys.exit(1 if problems else 0)
    gates = manifest()
    problems = manifest_problems(gates)
    if problems:
        sys.exit("gate: the manifest is inconsistent:\n" + "\n".join(f"  {p}" for p in problems))
    out = ROOT / OUT
    (out / "stdout").mkdir(parents=True, exist_ok=True)
    if args.mode == "check":
        check(gates, args.selectors, out)
    elif args.mode == "write":
        write(gates, args.name, out)
    else:
        digest(gates, out)


if __name__ == "__main__":
    main()
