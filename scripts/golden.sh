#!/usr/bin/env sh
# Writes every deterministic output of this tree's build into OUT_DIR: the
# kill-matrix JSON at 1 and 2 workers, deterministic campaigns (report and
# merged trace) and single traced runs for every design and level, the RTL
# VCDs, and the strict-vs-loose AT example. None of them carries wall-clock
# time, so two trees that behave the same write identical directories:
#
#   sh scripts/golden.sh /tmp/before     # in one checkout
#   sh scripts/golden.sh /tmp/after      # in the other
#   diff -r /tmp/before /tmp/after       # empty when nothing moved
#
# It gates nothing on its own; it exists to compare two builds.
#
# Usage: sh scripts/golden.sh OUT_DIR
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 1
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)

cd "$(dirname "$0")/.."
cargo build --release --quiet --bin rtl2tlm --example naive_vs_next_et
target=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
bin="$target/rtl2tlm"

# Output paths are relative to OUT_DIR, so the messages naming them match
# across trees.
cd "$out"

for workers in 1 2; do
    "$bin" mutate --json --workers "$workers" > "mutate-w$workers.json"
done

# One deterministic campaign and one traced run per (design, level) cell.
cell() {
    "$bin" campaign --design "$1" --level "$2" --checkers both --runs 3 \
        --size 20 --seed 2015 --workers 2 --deterministic \
        --trace "campaign-$1-$2.json" > "campaign-$1-$2.txt"
    "$bin" trace --design "$1" --level "$2" --requests 12 --seed 7 \
        --out "trace-$1-$2.json" > "trace-$1-$2.txt"
}
for design in des56 colorconv fir; do
    for level in rtl tlm-ca tlm-at; do
        cell "$design" "$level"
    done
done
cell colorconv tlm-at-bulk

for design in des56 colorconv fir; do
    "$bin" trace --design "$design" --level rtl --requests 8 \
        --out "vcd-$design.json" --vcd "vcd-$design.vcd" > "vcd-$design.txt"
done

"$target/examples/naive_vs_next_et" > naive_vs_next_et.txt

echo "wrote $(ls | wc -l) files to $out"
