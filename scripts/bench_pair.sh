#!/usr/bin/env bash
# Parent-vs-change measurement of one benchmark workload, the way a gain
# has to be shown (choosing-metrics §8): both trees' benchmark built into
# their own target directories, N alternating pairs of untraced runs, and
# per end-to-end metric each side's median and quartiles, the number of
# pairs the change won, and whether the parent's interquartile range is
# smaller than the distance between the medians.
#
#   scripts/bench_pair.sh <parent-worktree> <workload> [pairs=10] [seed=11] [seconds]
#
# <parent-worktree> is a checkout of the commit to compare against (a
# `git clone` or `git worktree` of it); the change is the tree this script
# lives in. Each side runs through its own `benchmark/run.sh`, so each
# builds what it runs from its own sources into its own
# `benchmark/target`; `seconds` defaults to `run_seconds` of this tree's
# BENCHMARK.json. Exits non-zero if the two sides ever print different
# digests or a run is not `correct` — a speed comparison of two programs
# that compute different things means nothing.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$2"
pairs="${3:-10}"
seed="${4:-11}"
seconds="${5:-$(sed -nE 's/.*"run_seconds": *([0-9]+).*/\1/p' "$change/BENCHMARK.json")}"
metrics="$(sed -nE '/"end_to_end"/,/\]/ s/.*"name": *"([a-z_]+)".*/\1/p' "$change/BENCHMARK.json")"

out="$change/benchmark/out/bench-pair.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT
unset CARGO_TARGET_DIR

# One untraced run of one side; appends "<digest> <correct> <metric values...>"
# to that side's table.
run_side() {
    local side="$1" tree="$2" lines detail result row
    if ! lines="$(bash "$tree/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>"$out/stderr")"; then
        cat "$out/stderr" >&2
        exit 1
    fi
    detail="$(head -n 1 <<<"$lines")"
    result="$(tail -n 1 <<<"$lines")"
    row="$(sed -nE 's/.*"digest":"([^"]+)".*/\1/p' <<<"$detail")"
    row+=" $(sed -nE 's/.*"correct":(true|false).*/\1/p' <<<"$result")"
    for m in $metrics; do
        row+=" $(sed -nE "s/.*\"$m\":\{[^}]*\"value\":([^,}]+).*/\1/p" <<<"$result")"
    done
    echo "$row" >>"$out/$side"
    echo "[bench-pair]   $side: $row" >&2
}

echo "[bench-pair] building parent ($parent) and change ($change)" >&2
for tree in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml" \
        --target-dir "$tree/benchmark/target" >&2
done

for ((i = 1; i <= pairs; i++)); do
    echo "[bench-pair] pair $i of $pairs ($workload, seed $seed, $seconds s per run)" >&2
    if ((i % 2)); then
        run_side parent "$parent"
        run_side change "$change"
    else
        run_side change "$change"
        run_side parent "$parent"
    fi
done

digests="$(cat "$out/parent" "$out/change" | cut -d' ' -f1 | sort -u)"
incorrect="$(cat "$out/parent" "$out/change" | cut -d' ' -f2 | grep -vc true || true)"

# Nearest-rank quartiles of a column, as "q1 median q3".
quartiles() {
    cut -d' ' -f"$2" "$1" | sort -g | awk '
        { v[NR] = $1 }
        END {
            q1 = int((NR + 3) / 4); q2 = int((NR + 1) / 2); q3 = NR + 1 - q1
            printf "%s %s %s", v[q1], v[q2], v[q3]
        }'
}

echo "workload $workload, seed $seed, $seconds s per run, $pairs alternating pairs"
col=3
for m in $metrics; do
    better="$(sed -nE "/\"name\": *\"$m\"/,/\}/ s/.*\"better\": *\"([a-z]+)\".*/\1/p" \
        "$change/BENCHMARK.json" | head -n 1)"
    read -r p1 p2 p3 <<<"$(quartiles "$out/parent" "$col")"
    read -r c1 c2 c3 <<<"$(quartiles "$out/change" "$col")"
    paste -d' ' <(cut -d' ' -f"$col" "$out/parent") <(cut -d' ' -f"$col" "$out/change") |
        awk -v m="$m" -v better="$better" -v pairs="$pairs" \
            -v p1="$p1" -v p2="$p2" -v p3="$p3" -v c1="$c1" -v c2="$c2" -v c3="$c3" '
        {
            if ($1 == $2) ties++
            else if ((better == "higher") == ($2 > $1)) wins++
        }
        END {
            gap = c2 - p2; if (gap < 0) gap = -gap
            printf "%-13s (%s is better)\n", m, better
            printf "  parent  median %-12.6g quartiles %.6g .. %.6g\n", p2, p1, p3
            printf "  change  median %-12.6g quartiles %.6g .. %.6g\n", c2, c1, c3
            printf "  change/parent %.3f   change ahead in %d of %d pairs (%d ties)   ", \
                (p2 != 0 ? c2 / p2 : 0), wins, pairs, ties
            printf "medians %s than the parent'"'"'s IQR apart\n", \
                (gap > p3 - p1 ? "further" : "NOT further")
        }'
    col=$((col + 1))
done

if [ "$(wc -l <<<"$digests")" -eq 1 ] && [ "$incorrect" -eq 0 ]; then
    echo "digests agree on every run of both sides: $digests"
else
    echo "DIGESTS OR CORRECTNESS DIFFER: digests {$(tr '\n' ' ' <<<"$digests")}, $incorrect runs not correct" >&2
    exit 1
fi
