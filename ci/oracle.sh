#!/usr/bin/env bash
# The byte-identity oracle. Builds this checkout, runs every
# deterministic output the workspace has, and prints one sha256 per
# output and one combined digest over them:
#
# - the refactoring-oracle experiment runs (reports, metric dumps,
#   CSVs and stdout; stderr carries wall-clock lines and is dropped);
# - the six experiment commands CI compares with ci/BENCH_*.json;
# - the exact rows of the bench/ driver at --seconds 0.1 on seeds
#   1, 7 and 97 for hot-hit, paper-zipf and tiered-pressure: untraced
#   read_sim_mean_ms, read_sim_p99_ms, object_hit_ratio, read_allocs,
#   read_alloc_kb; traced store.backend_chunks_per_read and
#   ec.gf_bytes_per_read.
#
# Two checkouts with the same combined digest produced the same bytes.
# Fails on a non-zero exit of any run or a bench run that reports
# "correct":false. Reports go to a temp dir, removed on exit.
#
#   ci/oracle.sh             # from anywhere in the checkout
#
# Honours CARGO_TARGET_DIR like any cargo build. ~1 min warm on 2 vCPUs.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build --release --quiet -p agar-bench --bin experiments
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

experiments() { # NAME ARGS...: one run into $out/NAME
    local name=$1
    shift
    mkdir -p "$out/$name"
    cargo run --release --quiet -p agar-bench --bin experiments -- "$@" \
        --out "$out/$name/csv" >"$out/$name/stdout.txt" 2>/dev/null
}

# The refactoring oracle.
experiments oracle_ttc tail tiers chaos --tiny --ops 300 \
    --json "$out/oracle_ttc/B.json" --metrics "$out/oracle_ttc/M.json"
experiments oracle_all all --tiny --runs 2 --ops 200 --json "$out/oracle_all/F.json"
experiments oracle_mixed mixed --tiny --ops 300 \
    --json "$out/oracle_mixed/X.json" --metrics "$out/oracle_mixed/Y.json"

# The six reports CI compares with ci/BENCH_*.json.
experiments ci_tail tail --tiny --ops 300 --json "$out/ci_tail/BENCH_tail.json"
experiments ci_tiers tiers --tiny --ops 300 --json "$out/ci_tiers/BENCH_tiers.json"
experiments ci_tiers_long tiers --tiny --ops 5000 \
    --json "$out/ci_tiers_long/BENCH_tiers_long.json"
experiments ci_paper all --tiny --json "$out/ci_paper/BENCH_paper.json"
experiments ci_mixed mixed --tiny --ops 300 --json "$out/ci_mixed/BENCH_mixed.json"
experiments ci_chaos chaos --tiny --ops 300 --json "$out/ci_chaos/BENCH_chaos.json"

# The bench/ driver's exact rows.
for workload in hot-hit paper-zipf tiered-pressure; do
    for seed in 1 7 97; do
        for trace in 0 1; do
            if [ "$trace" = 0 ]; then
                rows='read_sim_mean_ms read_sim_p99_ms object_hit_ratio read_allocs read_alloc_kb'
            else
                rows='store.backend_chunks_per_read ec.gf_bytes_per_read'
            fi
            name="bench/$workload.seed$seed.trace$trace"
            mkdir -p "$out/$name"
            cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
                --workload "$workload" --seed "$seed" --seconds 0.1 --trace "$trace" \
                >"$out/$name/stdout.txt" 2>/dev/null
            if ! tail -n 1 "$out/$name/stdout.txt" | grep -q '"correct":true'; then
                echo "oracle: $name did not report \"correct\":true" >&2
                exit 1
            fi
            for row in $rows; do
                awk -v row="$row" '$2 == row' "$out/$name/stdout.txt"
            done >"$out/$name/rows.txt"
            rm "$out/$name/stdout.txt"
        done
    done
done

digests=$(cd "$out" && find . -type f | LC_ALL=C sort | xargs sha256sum)
echo "$digests"
echo "combined $(echo "$digests" | sha256sum | cut -d' ' -f1)"
