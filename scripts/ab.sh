#!/usr/bin/env sh
# Alternating A/B runs of the repository benchmark: a git revision (A)
# against the working tree (B).
#
# Copies both sides into one temporary directory, at paths of equal
# length: REV from `git archive` into `a/`, the working tree (its tracked
# files plus the untracked files git does not ignore) into `b/`. Each side
# builds perfbench in its copy, so the two programs differ only in their
# source: a binary's path alone moves glibc's heap layout and with it
# `peak_rss_mb`. Then runs PAIRS pairs of the command in BENCHMARK.json on
# WORKLOAD, alternating which side runs first. Prints each run's
# end-to-end metrics, then, per end-to-end metric of BENCHMARK.json, the
# median of each side, the interquartile range of REV's runs, the change
# of the medians and the number of pairs B won. A pair whose run is not
# `"correct": true` with `"failed": 0` stops the script. Each run lasts BENCHMARK.json's `run_seconds`. Writes
# nothing tracked: the copies and the run logs live in the temporary
# directory, removed on exit.
#
#   AB_SEED     --seed (default 2015)
#
# Usage: sh scripts/ab.sh REV WORKLOAD PAIRS
#   e.g. sh scripts/ab.sh HEAD~1 table1-grid 10
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS" >&2
    exit 1
fi
rev=$1
workload=$2
pairs=$3
: "${AB_SEED:=2015}"

cd "$(dirname "$0")/.."
sha=$(git rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/a" "$tmp/b"
git archive "$sha" | tar -x -C "$tmp/a"
# Tracked files deleted in the working tree are left out.
git ls-files -z --cached --others --exclude-standard |
    xargs -0 sh -c 'for f; do if [ -e "$f" ]; then printf "%s\0" "$f"; fi; done' sh |
    tar -c --null --no-recursion -T - | tar -x -C "$tmp/b"

# The benchmark command of BENCHMARK.json, one argument per line, and its
# run length.
python3 -c 'import json, sys; print("\n".join(json.load(sys.stdin)["command"]))' \
    < BENCHMARK.json > "$tmp/command"
seconds=$(python3 -c 'import json, sys; print(json.load(sys.stdin)["run_seconds"])' \
    < BENCHMARK.json)

# Runs the command of BENCHMARK.json in side $1's copy on WORKLOAD.
# Each side builds into its own perfbench/target.
bench() {
    (
        cd "$tmp/$1"
        unset CARGO_TARGET_DIR
        set --
        while IFS= read -r word; do
            set -- "$@" "$word"
        done < "$tmp/command"
        "$@" --workload "$workload" --seed "$AB_SEED" --seconds "$seconds" --trace 0
    )
}

echo "==> building perfbench for $rev ($sha) and for the working tree"
for side in a b; do
    (cd "$tmp/$side" && unset CARGO_TARGET_DIR &&
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# One run: side ($1 = a or b), appending its last line to $tmp/$1.log.
run() {
    last=$(bench "$1" | tail -n 1)
    case "$last" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *) echo "side $1: outputs do not match the pins: $last" >&2; exit 1 ;;
    esac
    echo "$last" >> "$tmp/$1.log"
    printf '%s\n' "$last" | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
with open("BENCHMARK.json") as f:
    names = [m["name"] for m in json.load(f)["end_to_end"]]
print("    " + sys.argv[1] + ":", " ".join(
    "%s=%.6g" % (n, metrics[n]["value"]) for n in names if n in metrics))
' "$1"
}

i=1
while [ "$i" -le "$pairs" ]; do
    echo "==> pair $i of $pairs"
    if [ $((i % 2)) -eq 1 ]; then
        run a
        run b
    else
        run b
        run a
    fi
    i=$((i + 1))
done

python3 - "$tmp/a.log" "$tmp/b.log" "$rev" <<'EOF'
import json, sys

def runs(path):
    with open(path) as f:
        return [json.loads(line)["metrics"] for line in f]

def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2

def quartiles(xs):
    xs = sorted(xs)
    half = len(xs) // 2
    if half == 0:
        return xs[0], xs[0]
    return median(xs[:half]), median(xs[len(xs) - half :])

a, b, rev = runs(sys.argv[1]), runs(sys.argv[2]), sys.argv[3]
with open("BENCHMARK.json") as f:
    metrics = json.load(f)["end_to_end"]
print(f"{'metric':<22} {'A=' + rev:>14} {'B=tree':>14} {'A IQR':>12} {'B/A':>7} {'B won':>6}")
for m in metrics:
    name = m["name"]
    if name not in a[0]:
        continue
    xa = [r[name]["value"] for r in a]
    xb = [r[name]["value"] for r in b]
    ma, mb = median(xa), median(xb)
    q1, q3 = quartiles(xa)
    higher = m["better"] == "higher"
    won = sum((y > x) if higher else (y < x) for x, y in zip(xa, xb))
    ratio = mb / ma if ma else float("nan")
    print(f"{name:<22} {ma:>14.6g} {mb:>14.6g} {q3 - q1:>12.4g} {ratio:>7.3f} {won:>3}/{len(xa)}")
EOF
