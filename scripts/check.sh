#!/usr/bin/env sh
# Full local gate: formatting, lints (warnings are errors), build, tests.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

# The workspace's default members are every crate, so this one command runs
# all suites: determinism (golden digests recorded on the reference heap),
# Table I kernel-activity pins, checker differential and oracle, scheduler
# differential against the test-local reference heap, RTL-vs-TLM verdicts.
echo "==> cargo test -q"
cargo test -q

echo "==> rtl2tlm mutate --json (smoke)"
cargo run --release --bin rtl2tlm -- mutate --size 4 --workers 2 --json > /dev/null

echo "==> cargo bench -p abv-bench --bench checker_overhead (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 cargo bench -p abv-bench --bench checker_overhead

# Two-tier events/s per cell; each cell asserts identical SimStats on
# every repetition.
echo "==> cargo bench -p abv-bench --bench kernel_throughput (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 ABV_BENCH_STRESS=500 \
    cargo bench -p abv-bench --bench kernel_throughput

echo "==> cargo doc --no-deps -p abv-obs (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p abv-obs

echo "All checks passed."
