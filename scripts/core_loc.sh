#!/usr/bin/env sh
# Non-test lines of code in mccuckoo-core: for each crates/mccuckoo-core/src/*.rs,
# the lines before its first `#[cfg(test)]` (the whole file if it has none).
# Prints the total; run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
for f in crates/mccuckoo-core/src/*.rs; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ total += $1 } END { print total }'
