#!/usr/bin/env bash
# Prints the non-test code lines of each crate under crates/ and their total.
#
#   bash scripts/loc.sh        # or: just loc
#
# Counted: every *.rs file under crates/*/src except *_diff.rs, props.rs and
# tests.rs, up to the first column-0 `#[cfg(test)]` whose next line opens a
# `mod` (that attribute and everything after it are test code). Blank lines
# and lines whose first non-blank characters are `//` (comments and docs)
# are dropped. CI prints the table for information; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=$(basename "$(dirname "$dir")")
    n=$(find "$dir" -name '*.rs' ! -name '*_diff.rs' ! -name props.rs ! -name tests.rs -print0 |
        sort -z | xargs -0 -r awk '
            FNR == 1 { skip = 0; prev = "" }
            prev == "#[cfg(test)]" && $0 ~ /^(pub(\([a-z]+\))? )?mod / { skip = 1; count -= held }
            { held = 0 }
            !skip && $0 !~ /^[ \t]*$/ && $0 !~ /^[ \t]*\/\// {
                count++
                held = ($0 == "#[cfg(test)]")
            }
            { prev = $0 }
            END { print count + 0 }')
    printf '%-18s %6d\n' "$crate" "${n:-0}"
    total=$((total + ${n:-0}))
done
printf '%-18s %6d\n' total "$total"
