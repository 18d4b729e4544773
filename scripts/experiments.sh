#!/usr/bin/env bash
# Runs every paper-claim experiment (E1-E16, A1-A8) at full size, every
# cell with its experiment's K seeds, into a temporary results directory
# and compares each record byte for byte with the committed
# results/<id>.json. Prints the diff of every record that moved and exits
# non-zero if any did, or if a run failed: an experiment whose claimed
# verdict fails exits 1 after writing its record.
#
#   bash scripts/experiments.sh        # or: just experiments
#
# About 50-60 s in release on a 2-vCPU host after the build (22.6 s with
# one seed per cell, before the sweep). After an intentional change, refresh a
# record with `exp <ID>` (it writes results/<id>.json) and commit it with
# `git add -f`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p reconfig-bench --bin exp
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

moved=0
for id in E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 \
          A1 A2 A3 A4 A5 A6 A7 A8; do
    file="$(echo "$id" | tr '[:upper:]' '[:lower:]').json"
    OUT_DIR_RESULTS="$out" cargo run -q --release -p reconfig-bench --bin exp -- "$id" >/dev/null
    if cmp -s "results/$file" "$out/$file"; then
        echo "ok    $id"
    else
        echo "MOVED $id: results/$file differs from what \`exp $id\` writes" >&2
        diff -u "results/$file" "$out/$file" >&2 || true
        moved=1
    fi
done
exit "$moved"
