#!/usr/bin/env bash
# The repo benchmark's one command. Builds the standalone benchmark crate
# (offline, release) and runs it from the repository root.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       object BENCHMARK.json's driver reads (this is `command`).
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--traced]
#       every workload (or one), each in a process of its own; prints one
#       JSON document with every metric by name and unit; exits non-zero if
#       a correctness check fails.
#   benchmark/run.sh --check
#       smoke sizes: every workload and metric BENCHMARK.json names appears
#       exactly once with a finite number, and the correctness gate passes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Knobs the program reads from the environment would change what is
# measured; the benchmark always runs the defaults.
unset SIMNET_BACKEND TELEMETRY TELEMETRY_TIMING TELEMETRY_EVENTS_CAP \
    WORKLOAD_CASES WORKLOAD_BATCHES WORKLOAD_BATCH_SIZE NODE_LISTEN_ADDR NODE_EPOCH_MS NODE_MAX_FRAME

# One worker thread for the program's parallel sections. On a shared
# two-vCPU host the second vCPU comes and goes: with the default pool the
# repetition times of engine_gossip were bimodal (0.15 s or 0.26 s) and two
# runs of the same code differed by 47 %. The result records `threads: 1`
# beside `host_cpus`; this benchmark makes no claim about parallel speed-up.
export RAYON_NUM_THREADS=1

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from, which is the repository root here.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/overlay-benchmark"

mode=all
args=()
for arg in "$@"; do
    case "$arg" in
        --check) mode=check ;;
        --trace) mode=single; args+=("$arg") ;;
        *) args+=("$arg") ;;
    esac
done

case "$mode" in
    single) exec "$bin" --out benchmark/out --manifest BENCHMARK.json ${args[@]+"${args[@]}"} ;;
    check) exec "$bin" check --out benchmark/out --manifest BENCHMARK.json ${args[@]+"${args[@]}"} ;;
    all) exec "$bin" all --out benchmark/out --manifest BENCHMARK.json ${args[@]+"${args[@]}"} ;;
esac
