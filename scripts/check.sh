#!/usr/bin/env sh
# Full local gate: formatting, lints (warnings are errors), build, tests.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The A/B and golden-output scripts run only by hand; keep them parseable.
echo "==> sh -n scripts/ab.sh"
sh -n scripts/ab.sh
echo "==> sh -n scripts/golden.sh"
sh -n scripts/golden.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

# The workspace's default members are every crate, so this one command runs
# all suites: determinism (semantic and cost digests), the Table I
# semantic and cost pins, checker differential and oracle, scheduler
# differential against the test-local reference heap, RTL-vs-TLM verdicts.
echo "==> cargo test -q"
cargo test -q

# The paper-figure bins, at a tiny size: clippy compiles them, this runs
# them. `fig3` takes no size.
for bin in table1 fig6 bulk_at; do
    echo "==> $bin (smoke)"
    ABV_BENCH_SIZE=5 ABV_BENCH_REPS=1 ABV_BENCH_WORKERS=1 \
        cargo run --release --quiet -p abv-bench --bin "$bin" > /dev/null
done
echo "==> fig3 (smoke)"
cargo run --release --quiet -p abv-bench --bin fig3 > /dev/null

# The kill matrix on the calling thread alone, and on the caller plus two
# helpers: the JSON must not depend on which thread ran a run.
echo "==> rtl2tlm mutate --json at 1 and 3 workers (cmp)"
json=$(mktemp -d)
trap 'rm -rf "$json"' EXIT
for workers in 1 3; do
    cargo run --release --quiet --bin rtl2tlm -- mutate --size 4 --workers "$workers" --json \
        > "$json/$workers.json"
done
cmp "$json/1.json" "$json/3.json"

# The benchmark of record, one second per workload: every Table I grid,
# kill-matrix and traced run is checked against perfbench/pins.txt.
echo "==> perfbench --workload all --seed 2015 (pin smoke)"
last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 2015 --seconds 1 --trace 0 | tail -n 1)
case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench: outputs do not match the pins: $last" >&2; exit 1 ;;
esac

# The held-out seed: pins.txt pins its outputs too.
echo "==> perfbench --workload all --seed 7 (pin smoke)"
last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 7 --seconds 1 --trace 0 | tail -n 1)
case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench: outputs do not match the pins: $last" >&2; exit 1 ;;
esac

# The per-layer path: records through `Tracer::memory()` and exports the
# Chrome JSON, checked against the same pins.
echo "==> perfbench --workload traced-des56 --seed 2015 --trace 1 (per-layer smoke)"
last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload traced-des56 --seed 2015 --seconds 1 --trace 1 | tail -n 1)
case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "perfbench: outputs do not match the pins: $last" >&2; exit 1 ;;
esac

# Every bench runs, not only compiles, at a tiny budget.
# Kernel events/s per cell; each cell asserts identical SimStats on every
# repetition.
echo "==> cargo bench -p abv-bench --bench kernel_throughput (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 ABV_BENCH_STRESS=500 \
    cargo bench -p abv-bench --bench kernel_throughput

# Disabled and memory-sink tracer cells: the traced run paths run here,
# not only compile.
echo "==> cargo bench -p abv-bench --bench trace_overhead (smoke)"
ABV_BENCH_BUDGET_MS=100 cargo bench -p abv-bench --bench trace_overhead

# Evaluation table, next_et vs naive rescaling, online vs post-hoc.
echo "==> cargo bench -p abv-bench --bench ablation (smoke)"
ABV_BENCH_BUDGET_MS=100 cargo bench -p abv-bench --bench ablation

# The kill-matrix campaign at 1 and 2 workers; asserts byte-identical JSON.
echo "==> cargo bench -p abv-bench --bench mutation_throughput (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=4 \
    cargo bench -p abv-bench --bench mutation_throughput

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "All checks passed."
