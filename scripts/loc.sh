#!/usr/bin/env bash
# Non-test source lines per crate, and their total:
#
#   ./scripts/loc.sh [crate ...]      # default: every crate under crates/
#
# Counts every line of each `.rs` file under `crates/<crate>/src` up to
# the file's first unindented `#[cfg(test)]`, which opens its unit-test
# module: those tests are not counted, and files under `tests/` are not
# read. One line per crate, so any subset's sum (say, the five crates
# types storage sequential core dist) reads off the default output.
# Information only: it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for d in crates/*/; do
        crates+=("$(basename "$d")")
    done
fi

total=0
for c in "${crates[@]}"; do
    n=0
    while IFS= read -r f; do
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done < <(find "crates/$c/src" -name '*.rs' | sort)
    printf '%-12s %6d\n' "$c" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
