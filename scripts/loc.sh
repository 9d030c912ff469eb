#!/usr/bin/env sh
# Production and test line counts per crate.
#
# Production: the lines of a crate's `src/` outside `#[cfg(test)]` items and
# outside files that are `#[cfg(test)]` modules (bins included). Test:
# everything else — those items and files plus `tests/`, `benches/` and
# `examples/`. Blank and comment lines count like any other line.
#
# Usage: sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

# Prints "<production> <test>" for one source file: a `#[cfg(test)]` item
# runs from the attribute to the line closing its braces, or to its `;`.
split() {
    awk '
        function count(s, c,   t) { t = s; return gsub(c, "", t) }
        skip {
            tst++
            depth += count($0, "[{]") - count($0, "[}]")
            if (depth > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[ \t]*$/)) skip = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; tst++; next }
        { prod++ }
        END { print prod + 0, tst + 0 }
    ' "$1"
}

# Files declared as `#[cfg(test)] mod name;` under the source files given.
test_module_files() {
    for f in "$@"; do
        awk '/^[ \t]*#\[cfg\(test\)\]/ { getline; if ($0 ~ /^[ \t]*mod [a-z_0-9]+;/) {
            sub(/^[ \t]*mod /, ""); sub(/;.*/, ""); print } }' "$f" |
            while read -r name; do
                dir=$(dirname "$f")
                case $(basename "$f") in
                    lib.rs | main.rs | mod.rs) ;;
                    *) dir="$dir/$(basename "$f" .rs)" ;;
                esac
                for child in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                    if [ -f "$child" ]; then echo "$child"; fi
                done
            done
    done
}

# Prints "<crate> <production> <test>" for the package rooted at $1.
crate_loc() {
    root=$1
    prod=0
    tst=0
    if [ -d "$root/src" ]; then
        srcs=$(find "$root/src" -name '*.rs' | sort)
        # shellcheck disable=SC2086
        testfiles=$(test_module_files $srcs)
        for f in $srcs; do
            if echo "$testfiles" | grep -qx "$f"; then
                tst=$((tst + $(wc -l < "$f")))
            else
                set -- $(split "$f")
                prod=$((prod + $1))
                tst=$((tst + $2))
            fi
        done
    fi
    for d in tests benches examples; do
        if [ -d "$root/$d" ]; then
            n=$(find "$root/$d" -name '*.rs' -exec cat {} + | wc -l)
            tst=$((tst + n))
        fi
    done
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$root/Cargo.toml" | head -n 1)
    echo "$name $prod $tst"
}

{
    crate_loc .
    for c in crates/*/; do
        crate_loc "${c%/}"
    done
} | awk '
    BEGIN { printf "%-14s %10s %6s\n", "crate", "production", "test" }
    { printf "%-14s %10d %6d\n", $1, $2, $3; p += $2; t += $3 }
    END { printf "%-14s %10d %6d\n", "total", p, t }
'
