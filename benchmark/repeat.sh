#!/usr/bin/env bash
# Run the full benchmark twice on the same code and exit non-zero if any
# end-to-end metric of any workload differs between the two runs by more
# than its bound in BENCHMARK.json, or if any simulated quantity (digest,
# model_*) differs at all. Extra arguments (--seed N, --seconds S) go to
# both runs; the two documents stay in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
mkdir -p benchmark/out

for i in 1 2; do
    echo "[repeat] run $i of 2" >&2
    benchmark/run.sh "$@" > "benchmark/out/repeat-$i.json"
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/overlay-benchmark" compare --manifest BENCHMARK.json \
    benchmark/out/repeat-1.json benchmark/out/repeat-2.json
