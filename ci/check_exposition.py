#!/usr/bin/env python3
"""Validates Prometheus text exposition format on stdin (or a file).

Usage: check_exposition.py [--require-from DIR] [FILE]

Checks the subset of the exposition format the registry emits:

- ``# HELP <name> <text>`` and ``# TYPE <name> counter|gauge|histogram``
  comment lines, at most one of each per metric family, HELP before
  TYPE, both before the family's first sample;
- sample lines ``name{label="value",...} value`` with metric and label
  names matching ``[a-zA-Z_:][a-zA-Z0-9_:]*`` / ``[a-zA-Z_][a-zA-Z0-9_]*``
  and properly escaped label values;
- every sample value parses as a float (Prometheus has no integers);
- histogram families expose ``_bucket`` series with non-decreasing
  cumulative counts ending in ``le="+Inf"``, plus ``_sum`` and
  ``_count`` series;
- no duplicate (name, labelset) samples.

With ``--require-from DIR``, additionally fails unless every metric
family a TYPE line of a ``DIR/*.prom`` file declares is present here
too: the pinned scrapes are the one list of families, and the gate
keeps new instrumentation from silently falling out of the scrape
body.

Exits nonzero with a line-numbered report on any violation.
"""

import pathlib
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
# One label pair: name="value" with \\, \" and \n escapes only.
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\[\\"n])*)"')


def fail(errors):
    for err in errors:
        print(f"check_exposition: {err}", file=sys.stderr)
    print(f"check_exposition: FAILED with {len(errors)} error(s)", file=sys.stderr)
    sys.exit(1)


def parse_labels(raw, lineno, errors):
    """Returns the label string's (name, value) pairs, recording errors."""
    pairs = []
    rest = raw
    while rest:
        match = LABEL_PAIR.match(rest)
        if not match:
            errors.append(f"line {lineno}: malformed label segment {rest!r}")
            return pairs
        pairs.append((match.group(1), match.group(2)))
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            errors.append(f"line {lineno}: expected ',' between labels, got {rest!r}")
            return pairs
    return pairs


def main():
    argv = sys.argv[1:]
    required = []
    if argv[:1] == ["--require-from"]:
        if len(argv) < 2:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        pinned = argv[1]
        required = sorted({
            line.split()[2]
            for prom in sorted(pathlib.Path(pinned).glob("*.prom"))
            for line in prom.read_text(encoding="utf-8").splitlines()
            if line.startswith("# TYPE ")
        })
        argv = argv[2:]
        if not required:
            print(f"check_exposition: no TYPE line under {pinned}/*.prom", file=sys.stderr)
            sys.exit(2)
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    if len(argv) == 1:
        with open(argv[0], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()

    errors = []
    helps = {}      # family -> lineno
    types = {}      # family -> (type, lineno)
    seen_samples = set()   # (name, canonical labelset)
    sampled_families = set()
    buckets = {}    # (family, non-le labelset) -> list of (le, count)
    series_suffixes = {}   # family -> set of suffix kinds seen

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            errors.append(f"line {lineno}: blank line in exposition body")
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            if not METRIC_NAME.match(name):
                errors.append(f"line {lineno}: bad metric name in HELP: {name!r}")
            if name in helps:
                errors.append(
                    f"line {lineno}: duplicate HELP for {name} "
                    f"(first at line {helps[name]})"
                )
            if len(parts) < 2 or not parts[1].strip():
                errors.append(f"line {lineno}: HELP for {name} has no text")
            helps[name] = lineno
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2:
                errors.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram"):
                errors.append(f"line {lineno}: unknown type {kind!r} for {name}")
            if name in types:
                errors.append(
                    f"line {lineno}: duplicate TYPE for {name} "
                    f"(first at line {types[name][1]})"
                )
            if name not in helps:
                errors.append(f"line {lineno}: TYPE for {name} precedes its HELP")
            if name in sampled_families:
                errors.append(f"line {lineno}: TYPE for {name} after its samples")
            types[name] = (kind, lineno)
            continue
        if line.startswith("#"):
            errors.append(f"line {lineno}: unexpected comment {line!r}")
            continue

        match = SAMPLE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        name = match.group("name")
        labels = parse_labels(match.group("labels") or "", lineno, errors)
        for label_name, _ in labels:
            if not LABEL_NAME.match(label_name):
                errors.append(f"line {lineno}: bad label name {label_name!r}")
        try:
            float(match.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {match.group('value')!r}")

        # Histogram series roll up under the family name minus suffix.
        family = name
        suffix = None
        for candidate in ("_bucket", "_sum", "_count"):
            base = name[: -len(candidate)] if name.endswith(candidate) else None
            if base and types.get(base, (None,))[0] == "histogram":
                family, suffix = base, candidate
                break
        if family not in types:
            errors.append(f"line {lineno}: sample for {name} has no TYPE")
        if family not in helps:
            errors.append(f"line {lineno}: sample for {name} has no HELP")
        sampled_families.add(family)
        if suffix:
            series_suffixes.setdefault(family, set()).add(suffix)

        canonical = (name, tuple(sorted(labels)))
        if canonical in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {name}{sorted(labels)}")
        seen_samples.add(canonical)

        if suffix == "_bucket":
            le = dict(labels).get("le")
            if le is None:
                errors.append(f"line {lineno}: _bucket sample without le label")
            else:
                key = (family, tuple(sorted(p for p in labels if p[0] != "le")))
                buckets.setdefault(key, []).append((le, float(match.group("value"))))

    for (family, labelset), series in buckets.items():
        les = [le for le, _ in series]
        if les[-1] != "+Inf":
            errors.append(f"{family}{dict(labelset)}: buckets must end at le=\"+Inf\"")
        counts = [count for _, count in series]
        if any(b < a for a, b in zip(counts, counts[1:])):
            errors.append(f"{family}{dict(labelset)}: cumulative counts decrease")
    for family, suffixes in series_suffixes.items():
        missing = {"_bucket", "_sum", "_count"} - suffixes
        if missing:
            errors.append(f"{family}: histogram missing series {sorted(missing)}")

    for family in required:
        if family not in types:
            errors.append(f"required family {family} absent from exposition")

    if errors:
        fail(errors)
    print(
        f"check_exposition: OK — {len(seen_samples)} samples in "
        f"{len(types)} families ({len(required)} required present)"
    )


if __name__ == "__main__":
    main()
