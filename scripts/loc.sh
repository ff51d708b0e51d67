#!/bin/sh
# Non-test lines of Rust under crates/*/src: for every file, the lines
# before its first `#[cfg(test)]` (the whole file when it has none).
# Prints one `lines path` row per file and the total; run from anywhere.
# This is the count every CHANGES.md entry reports as "non-test LoC".
# A last `test total` line counts the rest: each crates/*/src file from
# its first `#[cfg(test)]` on, plus every .rs file under crates/*/tests
# and tests/ (code moved into tests moves between the two totals).
set -eu
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    printf '%6d %s\n' "$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
{
    find crates/*/src -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { t = 1 } t { n++ } END { print n + 0 }' {} \;
    find crates/*/tests tests -name '*.rs' -exec awk 'END { print NR }' {} \;
} | awk '{ total += $1 } END { printf "%6d test total\n", total }'
