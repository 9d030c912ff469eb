#!/usr/bin/env sh
# Writes every deterministic output of this tree's build into OUT_DIR: the
# kill-matrix JSON at 1 and 2 workers, deterministic campaigns (report and
# merged trace) and single traced runs for every design and level, the RTL
# VCDs, and the strict-vs-loose AT example. None of them carries wall-clock
# time. Each output is split, by the rules of tests/common/pins.rs, into
# what the run decided (OUT_DIR/semantic/) and what deciding cost
# (OUT_DIR/cost/):
#
# - a report's `cell N: SPEC -- STATS` header keeps `cell N: SPEC` in
#   semantic/ and leaves `cell N: STATS` in cost/, and its `arena:` and
#   `wrote N trace events` lines go to cost/;
# - a trace's counter samples go to cost/; its other events go to
#   semantic/ with tids renumbered by first appearance per pid, and cost/
#   ends with a `tids PID: RAW...` line per pid that maps them back; the
#   array's trailing commas are dropped;
# - kill-matrix JSON, VCDs and every other line are semantic.
#
# Two trees that decide the same write identical semantic/ directories,
# however much their simulation work differs:
#
#   sh scripts/golden.sh /tmp/before     # in one checkout
#   sh scripts/golden.sh /tmp/after      # in the other
#   diff -r /tmp/before/semantic /tmp/after/semantic   # empty: no verdict moved
#   diff -r /tmp/before/cost /tmp/after/cost           # empty: no work moved
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
rm -rf "$out/raw" "$out/semantic" "$out/cost"
mkdir "$out/raw" "$out/semantic" "$out/cost"

cd "$(dirname "$0")/.."
cargo build --release --quiet --bin rtl2tlm --example naive_vs_next_et
target=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
bin="$target/rtl2tlm"

# Output paths are relative to the working directory, so the messages
# naming them match across trees.
cd "$out/raw"

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

split_report() {
    awk -v sem="$out/semantic/$1" -v cost="$out/cost/$1" '
        /^cell [0-9]+:/ && match($0, / -- [^-]*$/) {
            print substr($0, 1, RSTART - 1) > sem
            print substr($0, 1, index($0, ":")) " " substr($0, RSTART + 4) > cost
            next
        }
        /^arena: / || /^wrote [0-9]+ trace events / { print > cost; next }
        { print > sem }
    ' "$1"
}

split_trace() {
    awk -v sem="$out/semantic/$1" -v cost="$out/cost/$1" '
        { line = $0; sub(/,$/, "", line) }
        line ~ /"ph":"C"/ { print line > cost; next }
        match(line, /"pid":[0-9]+,"tid":[0-9]+/) {
            split(substr(line, RSTART, RLENGTH), f, /[:,]/)
            pid = f[2]; tid = f[4]
            if (!(pid in count)) { pids[npids++] = pid; count[pid] = 0 }
            if (!((pid, tid) in new)) { raw[pid, count[pid]] = tid; new[pid, tid] = count[pid]++ }
            line = substr(line, 1, RSTART - 1) "\"pid\":" pid ",\"tid\":" new[pid, tid] \
                substr(line, RSTART + RLENGTH)
        }
        { print line > sem }
        END {
            for (i = 0; i < npids; i++) {
                p = pids[i]; tids = "tids " p ":"
                for (j = 0; j < count[p]; j++) tids = tids " " raw[p, j]
                print tids > cost
            }
        }
    ' "$1"
}

for f in *; do
    case "$f" in
        *.txt) split_report "$f" ;;
        mutate-*.json | *.vcd) cp "$f" "$out/semantic/$f" ;;
        *.json) split_trace "$f" ;;
        *) echo "golden.sh: no split rule for $f" >&2; exit 1 ;;
    esac
done
cd "$out"
rm -r raw

echo "wrote $(ls semantic | wc -l) files to $out/semantic and $(ls cost | wc -l) to $out/cost"
