#!/usr/bin/env sh
# Kernel and mutation-campaign throughput, written as bench ledgers.
#
# Runs kernel_throughput (two-tier scheduler events/s per cell; writes
# BENCH_kernel.json), then the mutation_throughput campaign scaling run
# (mutants/s at 1 and 2 workers, alternated; writes BENCH_mutation.json).
# Both ledgers hold, per cell, the median over the timed repetitions
# with its interquartile range as `spread` and the sample count `n`, and
# both are committed. Knobs (defaults chosen for a minutes-scale run):
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

echo "==> cargo bench -p abv-bench --bench kernel_throughput -> BENCH_kernel.json"
ABV_BENCH_JSON="$(pwd)/BENCH_kernel.json" \
    cargo bench -p abv-bench --bench kernel_throughput

echo "==> cargo bench -p abv-bench --bench mutation_throughput -> BENCH_mutation.json"
ABV_BENCH_JSON="$(pwd)/BENCH_mutation.json" ABV_BENCH_SIZE=8 \
    cargo bench -p abv-bench --bench mutation_throughput

echo "Wrote BENCH_kernel.json and BENCH_mutation.json."
