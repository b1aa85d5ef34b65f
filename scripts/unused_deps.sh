#!/usr/bin/env bash
# Fails on a dependency that no source of its crate uses:
#
#   ./scripts/unused_deps.sh
#
# For each crate under crates/, every name under `[dependencies]` and
# `[dev-dependencies]` in its Cargo.toml must appear as a word (with
# `-` read as `_`) in one of the crate's `.rs` files. For ceh-harness,
# which wires them into cargo targets, the root `tests/` and `examples/`
# count too. A name the crate's `[features]` forwards to (`name/feature`
# or `dep:name`) is exempt: the feature is its use.
set -euo pipefail
cd "$(dirname "$0")/.."

unused=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    sources=("$dir")
    if [ "$(basename "$dir")" = harness ]; then
        sources+=(tests examples)
    fi
    deps=$(awk '
        /^\[/ { section = $0; next }
        (section == "[dependencies]" || section == "[dev-dependencies]") && /^[A-Za-z0-9_-]+[ \t]*=/ {
            sub(/[ \t]*=.*/, ""); print
        }' "$manifest")
    forwarded=$(awk '
        /^\[/ { section = $0; next }
        section == "[features]" { print }' "$manifest")
    for dep in $deps; do
        if grep -qE "\"(dep:)?$dep(/|\")" <<<"$forwarded"; then
            continue
        fi
        word=${dep//-/_}
        if ! grep -rqw --include='*.rs' -- "$word" "${sources[@]}"; then
            echo "unused dependency: $dep in $manifest" >&2
            unused=$((unused + 1))
        fi
    done
done
if [ "$unused" -gt 0 ]; then
    echo "$unused unused dependencies" >&2
    exit 1
fi
echo "no unused dependencies"
