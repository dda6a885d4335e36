#!/usr/bin/env sh
# Non-test lines of mccuckoo-core that use `unsafe`: for each
# crates/mccuckoo-core/src/*.rs, the non-comment lines before its first
# `#[cfg(test)]` (the whole file if it has none) containing the word.
# Prints the total; run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
for f in crates/mccuckoo-core/src/*.rs; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { n++ }
         END { print n + 0 }' "$f"
done | awk '{ total += $1 } END { print total }'
