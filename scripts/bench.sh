#!/usr/bin/env sh
# Scheduler + checker benchmark smokes with machine-readable output.
#
# Runs kernel_throughput (two-tier scheduler events/s per cell; the
# committed BENCH_kernel.json is the record of that scheduler against the
# binary heap it replaced, and this script leaves it as it is), then the
# mutation_throughput campaign scaling run (median mutants/s at 1 and 2
# workers with IQR and sample count; writes BENCH_mutation.json, which is
# committed), then a checker_overhead smoke. Knobs (defaults chosen for a
# minutes-scale run):
#
#   ABV_BENCH_BUDGET_MS  per-cell time budget      (default 1000)
#   ABV_BENCH_SIZE       RTL workload size         (default 400)
#   ABV_BENCH_STRESS     stress-mix component count (default 10000)
#
# Usage: scripts/bench.sh
set -eu

cd "$(dirname "$0")/.."

: "${ABV_BENCH_BUDGET_MS:=1000}"
: "${ABV_BENCH_SIZE:=400}"
: "${ABV_BENCH_STRESS:=10000}"
export ABV_BENCH_BUDGET_MS ABV_BENCH_SIZE ABV_BENCH_STRESS

echo "==> cargo bench -p abv-bench --bench kernel_throughput"
cargo bench -p abv-bench --bench kernel_throughput

echo "==> cargo bench -p abv-bench --bench mutation_throughput -> BENCH_mutation.json"
ABV_BENCH_JSON="$(pwd)/BENCH_mutation.json" ABV_BENCH_SIZE=8 \
    cargo bench -p abv-bench --bench mutation_throughput

echo "==> cargo bench -p abv-bench --bench checker_overhead (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 \
    cargo bench -p abv-bench --bench checker_overhead

echo "Wrote BENCH_mutation.json."
