#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml. Fails fast on the first error.
# fmt/clippy are skipped with a notice when the components are not installed
# (the hermetic build container ships only the core toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> determinism harness"
cargo test -q -p integration-tests --test determinism

echo "==> telemetry determinism guard (observed runs match committed goldens)"
cargo test -q -p integration-tests --test telemetry_determinism

echo "==> checkpoint/resume digest identity"
cargo test -q -p integration-tests --test checkpoint_resume

echo "==> persisted formats: state_formats golden (bytes of every persisted type), every schema key dropped, retyped and bumped"
cargo test -q -p integration-tests --test determinism golden_state_formats
cargo test -q -p integration-tests --test determinism schema_keys_corrupted_one_at_a_time_are_typed_errors

echo "==> node-id state: NodeId-keyed std maps and sets in non-test code equal DESIGN.md's survivors table"
cargo test -q -p integration-tests --test determinism node_id_std_collections_are_the_listed_survivors

echo "==> golden files unchanged (five overlay/workload families, sampling_direct, attacker, engine, engine_fast, healing_round, runners, cluster_trace and state_formats digests, cost.json, three checkpoint inputs)"
git diff --exit-code -- tests/golden/

echo "==> fault-schedule fuzzing (FUZZ_CASES=${FUZZ_CASES:-100})"
FUZZ_CASES="${FUZZ_CASES:-100}" cargo test -q -p integration-tests --test fault_fuzz

echo "==> fault-injection + self-healing sweep (FUZZ_CASES=${FUZZ_CASES:-100})"
FUZZ_CASES="${FUZZ_CASES:-100}" cargo test -q -p integration-tests --test fault_injection

echo "==> shrinker fuzzing (FUZZ_CASES=${FUZZ_CASES:-100})"
FUZZ_CASES="${FUZZ_CASES:-100}" cargo test -q -p integration-tests --test shrink_fuzz

echo "==> checkpointed soak: dos 4 epochs then resumed to 8, churndos 2 epochs; a bad size, an overflowing epoch count, a checkpoint interval of 0 and a group constant below 1 or for churndos are usage errors naming their flag"
soak_dir="$(mktemp -d)"
soak() { cargo run -q --release -p reconfig-bench --bin soak -- "$@"; }
soak --family dos --epochs 4 --dir "$soak_dir/dos"
soak --family dos --epochs 8 --dir "$soak_dir/dos" --resume
soak --family churndos --epochs 2 --dir "$soak_dir/churndos"
for bad in "--n 2" "--epochs 18446744073709551615" "--every 0" "--group-c 0.5" "--family churndos --group-c 4"; do
    # shellcheck disable=SC2086
    if soak $bad --dir "$soak_dir/bad" 2>"$soak_dir/bad.err"; then
        echo "soak accepted $bad" >&2
        exit 1
    fi
    # The message names the last flag given, and nothing panicked.
    flag=$(printf '%s\n' $bad | grep -- '^--' | tail -n 1)
    if grep -q panicked "$soak_dir/bad.err" || ! grep -q -- "$flag" "$soak_dir/bad.err"; then
        cat "$soak_dir/bad.err" >&2
        exit 1
    fi
done
rm -rf "$soak_dir"

echo "==> experiments match results/ (E1-E16 and A1-A8 at full size, every record byte for byte)"
bash scripts/experiments.sh

echo "==> Byzantine-campaign fuzzing (BYZ_CASES=${BYZ_CASES:-40})"
BYZ_CASES="${BYZ_CASES:-40}" cargo test -q -p integration-tests --test byz_fuzz

echo "==> recovery determinism + catastrophe fuzzing (RECOVERY_CASES=${RECOVERY_CASES:-6})"
RECOVERY_CASES="${RECOVERY_CASES:-6}" cargo test -q -p integration-tests --test recovery_determinism

echo "==> s1-smoke at n=5e4 (xl equals the recorded streams, xl:fast:4 reproducible)"
cargo run -q --release -p reconfig-bench --bin exp -- S1 --smoke --cores 4

echo "==> fast-mode statistical equivalence (EQUIV_SAMPLES=${EQUIV_SAMPLES:-3})"
EQUIV_SAMPLES="${EQUIV_SAMPLES:-3}" cargo test -q -p integration-tests --test fast_mode_equivalence

echo "==> cluster smoke: 8 node processes, churn + DoS + delay campaign, replayed in simnet"
cargo run -q --release -p reconfig-node --bin cluster -- \
    --nodes 8 --rounds 16 --campaign smoke --mode process --run-id ci-smoke

echo "==> cluster teardown left no orphaned node processes"
if pgrep -x reconfig-node >/dev/null 2>&1; then
    echo "orphaned reconfig-node processes survived the cluster run:" >&2
    pgrep -ax reconfig-node >&2
    exit 1
fi

echo "==> N1 (live cluster vs simulator oracle) and W1-W3 (Zipf load, hot keys, chat fan-out) at full size"
scratch="$(mktemp -d)"
for id in N1 W1 W2 W3; do
    OUT_DIR_RESULTS="$scratch" cargo run -q --release -p reconfig-bench --bin exp -- "$id"
done
rm -rf "$scratch"

echo "==> workload replay determinism: three kinds against their recorded digests; backend-free"
cargo test -q -p integration-tests --test workload_determinism

echo "==> DHT routing kernel vs its reference oracle (400 random batches)"
cargo test -q -p overlay-apps --lib dense_kernel_matches_the_reference

echo "==> Algorithm 2 array level vs the message-level run on parity (dims 1/2/4/8, three constants, five seeds, underflows reached)"
cargo test -q -p reconfig-core --lib alg2_direct_matches_the_message_level_run

echo "==> engine above one shard (engine_fast.digests) and exact per-round costs (cost.json's engine rows): both written at the commit before one shard's delivery became the route pass's serial case; cost.json's kv_read_clean, kv_write_faulted and chat_fanout rows hold the W1/W3 workloads' per-batch counters"
cargo test -q -p integration-tests --test determinism golden_engine_fast_digests
cargo test -q -p integration-tests --test cost

echo "==> rustdoc warnings are errors (simnet, simnet-xl, reconfig-core, overlay-apps, overlay-workload)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p simnet -p simnet-xl -p reconfig-core -p overlay-apps -p overlay-workload

echo "==> direct sampler: flat arenas vs the nested-Vec reference (240 seeded cases, pools of 1/2/3), keystream readers, parent-written golden"
cargo test -q -p reconfig-core --lib sampling::direct
cargo test -q -p rand_chacha -p simnet --lib
echo "==> keystream readers again in release, where the wide refill is vectorised (both refill bodies held equal)"
cargo test --release -q -p rand_chacha -p simnet --lib
cargo test -q -p integration-tests --test determinism golden_sampling_direct_digests

echo "==> sampling-run golden written at the parent commit (all five entry points, samples, metrics and recorder capture)"
cargo test -q -p integration-tests --test determinism golden_sampling_run_digests

echo "==> Algorithm 1 layer perf smoke (keystream readers agree; phase split prints)"
cargo run --release -q -p reconfig-bench --bin exp -- P1 --smoke

echo "==> telemetry knobs: a misspelt value exits 1 naming the variable, before any work"
knob_err="$(mktemp)"
if TELEMETRY=of cargo run --release -q -p reconfig-bench --bin exp -- P1 --smoke 2>"$knob_err"; then
    echo "exp accepted TELEMETRY=of" >&2
    exit 1
fi
if grep -q panicked "$knob_err" || ! grep -q 'TELEMETRY must be' "$knob_err"; then
    cat "$knob_err" >&2
    exit 1
fi
rm -f "$knob_err"

echo "==> sorted id runs vs BTreeMap (480 seeded cases), per-group counts vs per-member probes, picker and healing state vs their HashSet / BTreeMap references (480 + 72 seeded cases), shared-snapshot invalidation, parent-written goldens (the DosOverlay checkpoint runs under the epoch clock below)"
cargo test -q -p simnet --lib idrun::props
cargo test -q -p reconfig-core --lib dos::supernode::tests
cargo test -q -p overlay-adversary --lib dos::picker_diff
cargo test -q -p reconfig-core --lib healing::tracker_diff
cargo test -q -p reconfig-core --lib snapshot_is_rebuilt_after_each_structural_change
cargo test -q -p overlay-adversary --lib lateness::tests::one_arc_pushed_every_round
cargo test -q -p integration-tests --test determinism golden_healing_round_digests
cargo test -q -p integration-tests --test determinism golden_runner_digests

echo "==> epoch clock: the DoS, churn+DoS and workload digest streams, both parent-written overlay checkpoints"
cargo test -q -p integration-tests --test determinism golden_dos_overlay_digest_stream
cargo test -q -p integration-tests --test determinism golden_churndos_overlay_digest_stream
cargo test -q -p integration-tests --test determinism golden_workload_digests
cargo test -q -p integration-tests --test determinism golden_dos_overlay_v1_checkpoint_round_trips_byte_for_byte
cargo test -q -p integration-tests --test determinism golden_churndos_overlay_v1_checkpoint_round_trips_byte_for_byte

echo "==> healed DoS round perf smoke (timed and untimed rounds agree; section split prints)"
cargo run --release -q -p reconfig-bench --bin exp -- P2 --smoke

echo "==> live cluster: parent-written trace golden, peer-plane failures as typed errors, perf smoke (n0 = 4 and 8)"
cargo test -q -p integration-tests --test determinism golden_cluster_trace_digests
cargo test -q -p reconfig-node --test peer_faults
cargo run --release -q -p reconfig-bench --bin exp -- P3 --smoke

echo "==> repo benchmark still builds and passes its smoke check (own workspace)"
bash benchmark/run.sh --check

echo "==> workload routing fuzz (WORKLOAD_CASES=${WORKLOAD_CASES:-20})"
WORKLOAD_CASES="${WORKLOAD_CASES:-20}" cargo test -q -p integration-tests --test workload_fuzz

echo "==> non-test code lines per crate (information, not a gate)"
bash scripts/loc.sh

echo "CI gate passed."
