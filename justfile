# Development tasks. `just` not installed? Every recipe is one command —
# copy it out, or run the same sequence via `scripts/ci.sh`.

# Run the full CI gate locally.
ci:
    ./scripts/ci.sh

# Format everything.
fmt:
    cargo fmt --all

# Lint hard.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Build release artifacts.
build:
    cargo build --workspace --release

# Full test suite (includes determinism + fuzz targets).
test:
    cargo test --workspace -q

# Determinism harness only: goldens + fast mode's pool-size differential.
determinism:
    cargo test -q -p integration-tests --test determinism
    cargo test -q -p integration-tests --test telemetry_determinism

# Run one experiment of the registry (EXPERIMENTS.md lists the ids), e.g.
# `just exp E11` or `just exp S1 --smoke --cores 4`.
exp id *flags="":
    cargo run --release -p reconfig-bench --bin exp -- {{id}} {{flags}}

# Every E and A experiment at full size, each record compared byte for byte
# with the committed results/<id>.json (the CI step; ~45 s after the build).
experiments:
    bash scripts/experiments.sh

# Render the telemetry captured by experiments (results/*_telemetry.json).
trace-report *flags="":
    cargo run --release -p reconfig-bench --bin trace-report -- {{flags}}

# Refresh golden digest files after an intentional behavior change: all
# of them, engine, engine_fast, sampling_direct, healing_round, runners,
# cluster_trace and state_formats included (a moved state_formats line is a
# changed persisted format: a renamed key or a new encoding), and
# cost.json. The three checkpoints, network_v1.ckpt.json,
# dos_overlay_v1.ckpt.json and churndos_overlay_v1.ckpt.json, are inputs
# this never rewrites.
golden:
    UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism
    UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test cost
    git diff --stat tests/golden/
    git status --short tests/golden/

# Fault-schedule fuzzing; override cases with `just fuzz 500` (nightly depth).
fuzz cases="100":
    FUZZ_CASES={{cases}} cargo test -q -p integration-tests --test fault_fuzz
    FUZZ_CASES={{cases}} cargo test -q -p integration-tests --test fault_injection
    FUZZ_CASES={{cases}} cargo test -q -p integration-tests --test shrink_fuzz

# Checkpoint/resume digest identity: kill + resume == uninterrupted run.
checkpoint:
    cargo test -q -p integration-tests --test checkpoint_resume

# A6 adaptive-vs-oblivious survival boundary (rewrites results/a6.json).
a6:
    cargo run --release -p reconfig-bench --bin exp -- A6

# A7 Byzantine survival x defense matrix (rewrites results/a7.json).
a7:
    cargo run --release -p reconfig-bench --bin exp -- A7

# Byzantine-campaign fuzzing against the full defense stack;
# `just byzfuzz 200` for the nightly depth.
byzfuzz cases="40":
    BYZ_CASES={{cases}} cargo test -q -p integration-tests --test byz_fuzz

# A8 catastrophic-failure time-to-recover (rewrites results/a8.json).
a8:
    cargo run --release -p reconfig-bench --bin exp -- A8

# Recovery-layer determinism + catastrophe fuzzing;
# `just recoveryfuzz 50` for the nightly depth.
recoveryfuzz cases="6":
    RECOVERY_CASES={{cases}} cargo test -q -p integration-tests --test recovery_determinism

# Engine-scaling benchmark (simnet-xl, parity and fast modes);
# `just s1 --smoke --cores 4` for the CI gate at n=5e4 (xl and xl:fast:1
# equal the recorded streams, xl:fast:4 reproducible), `just s1 --cores 1,2` for
# the full backend x cores sweep to n=1e6 (rewrites results/s1.json and
# BENCH_S1.json).
s1 *flags="":
    cargo run --release -p reconfig-bench --bin exp -- S1 {{flags}}

# Statistical equivalence of xl:fast vs the parity oracle (TV + chi-square
# over all golden families); EQUIV_SAMPLES scales the replicate count.
equivalence *flags="":
    cargo test -p integration-tests --test fast_mode_equivalence {{flags}}

# 3-node demo cluster over real TCP (thread-mode daemons), 5 epochs,
# every per-node state digest verified by simulator replay.
node-demo:
    cargo run --release -p reconfig-node --bin cluster -- --nodes 3 --rounds 5 --campaign demo --mode thread --run-id demo

# CI cluster smoke: 8 separate node processes under a churn + DoS + delay
# campaign; the recorded trace must replay in simnet with matching digests.
node-smoke:
    cargo run --release -p reconfig-node --bin cluster -- --nodes 8 --rounds 16 --campaign smoke --mode process --run-id ci-smoke

# N1 live-cluster-vs-oracle experiment (rewrites results/n1.json).
n1:
    cargo run --release -p reconfig-bench --bin exp -- N1

# Checkpointed adversarial soak; pass soak flags through, e.g.
# `just soak --family dos --epochs 200 --dir soak-out [--resume]`.
soak *flags="":
    cargo run --release -p reconfig-bench --bin soak -- {{flags}}

# W1 DHT Zipf-load workload, both arms (WORKLOAD_BATCHES /
# WORKLOAD_BATCH_SIZE scale it).
w1:
    cargo run --release -p reconfig-bench --bin exp -- W1

# W2 hot-key storm workload.
w2:
    cargo run --release -p reconfig-bench --bin exp -- W2

# W3 chat fan-out workload under subscriber churn.
w3:
    cargo run --release -p reconfig-bench --bin exp -- W3

# Workload replay determinism: three kinds against their recorded digests,
# and a run under fast mode at four shards equal to the default run.
workload-determinism:
    cargo test -q -p integration-tests --test workload_determinism

# The DHT's dense routing kernel against its `#[cfg(test)]` reference
# oracle: every RouteOutcome field equal on 400 random batches.
routing-diff:
    cargo test -q -p overlay-apps --lib dense_kernel_matches_the_reference

# Algorithm 2's array level (`run_alg2_direct_observed`, what the workload
# control plane runs) against the message-level run on parity: samples,
# failures and metrics equal row for row at dims 1/2/4/8, three constants
# (one that underflows) and five seeds.
alg2-diff:
    cargo test -q -p reconfig-core --lib alg2_direct_matches_the_message_level_run

# Exact per-round costs of the engine (allocations, bytes, ChaCha8 blocks,
# messages, bits) against tests/golden/cost.json, and the engine above one
# shard against tests/golden/engine_fast.digests; both files were written
# at the commit before one shard's delivery became the route pass's serial
# case. The cost test prints its deltas.
engine-fences:
    cargo test -q -p integration-tests --test cost -- --nocapture
    cargo test -q -p integration-tests --test determinism golden_engine_fast_digests

# The flat direct sampler against its nested-`Vec` `#[cfg(test)]` reference
# (240 seeded cases, the benchmark shape, pools of 1/2/3 workers), the two
# keystream readers word for word (again in release, where the wide refill
# is vectorised and both of its code generations are held equal), and the
# golden the parent commit wrote.
sampler-diff:
    cargo test -q -p reconfig-core --lib sampling::direct
    cargo test -q -p rand_chacha -p simnet --lib
    cargo test --release -q -p rand_chacha -p simnet --lib
    cargo test -q -p integration-tests --test determinism golden_sampling_direct_digests

# Algorithm 1 layer perf: ns per draw of both keystream readers and the
# per-phase split of one `run_alg1_direct_observed` call. Bare = full sizes, rewrites
# BENCH_ALG1.json; `just perf-alg1 --smoke` = CI sizes, writes nothing.
perf-alg1 *flags="":
    cargo run --release -p reconfig-bench --bin exp -- P1 {{flags}}

# The epoch clock (`core::dos::EpochClock`): the DoS and churn+DoS overlay
# digest streams, the workload golden, and both overlay checkpoints the
# parent commits wrote (loaded, re-saved byte for byte, tampered).
epoch-clock:
    cargo test -q -p integration-tests --test determinism golden_dos_overlay_digest_stream
    cargo test -q -p integration-tests --test determinism golden_churndos_overlay_digest_stream
    cargo test -q -p integration-tests --test determinism golden_workload_digests
    cargo test -q -p integration-tests --test determinism golden_dos_overlay_v1_checkpoint_round_trips_byte_for_byte
    cargo test -q -p integration-tests --test determinism golden_churndos_overlay_v1_checkpoint_round_trips_byte_for_byte

# The round's sorted id runs: `simnet::IdRun` against `BTreeMap` /
# `BTreeSet` (480 seeded cases, values included) and the block set's
# checkpoint loads, the grouped network's per-group counts against a probe
# per member (240 seeded histories), the group-targeted picker against its
# `HashSet` reference (480 seeded snapshots), the healing state against the
# `BTreeMap` tracker and `down` map (72 seeded histories), the shared
# snapshots' invalidation, and the goldens the parent commits wrote.
blockset-diff:
    cargo test -q -p simnet --lib idrun::props
    cargo test -q -p reconfig-core --lib dos::supernode::tests
    cargo test -q -p overlay-adversary --lib dos::picker_diff
    cargo test -q -p reconfig-core --lib healing::tracker_diff
    cargo test -q -p reconfig-core --lib snapshot_is_rebuilt_after_each_structural_change
    cargo test -q -p overlay-adversary --lib lateness::tests::one_arc_pushed_every_round
    cargo test -q -p integration-tests --test determinism golden_healing_round_digests
    cargo test -q -p integration-tests --test determinism golden_dos_overlay_v1_checkpoint_round_trips_byte_for_byte
    cargo test -q -p integration-tests --test determinism golden_runner_digests

# Healed DoS round perf: microseconds per round in each section of
# `FaultyRunner<DosOverlay>::step` and the three steps of its attack
# prologue (snapshot, observe + pick, budget judge) at n = 8 192.
# Bare = full size, rewrites BENCH_DOS_ROUND.json; `just perf-dos-round
# --smoke` = CI size, writes nothing.
perf-dos-round *flags="":
    cargo run --release -p reconfig-bench --bin exp -- P2 {{flags}}

# Live-cluster perf: rounds/s, p50/p99/max round latency (coordinator side),
# threads per daemon and replay time at n0 = 4 and 8, thread mode, no
# pacing floor. Bare = 1 200 rounds, rewrites BENCH_CLUSTER.json;
# `just perf-cluster --smoke` = 60 rounds, writes nothing.
perf-cluster *flags="":
    cargo run --release -p reconfig-bench --bin exp -- P3 {{flags}}

# The live cluster's failure paths (a real daemon against raw-socket fakes)
# and the trace golden the parent commit of the one-thread daemon wrote.
cluster-faults:
    cargo test -q -p reconfig-node --test peer_faults
    cargo test -q -p integration-tests --test determinism golden_cluster_trace_digests

# The repo benchmark (own workspace, outside `cargo test --workspace`):
# smoke sizes, manifest/code consistency, correctness gate.
bench-check:
    bash benchmark/run.sh --check

# Parent-vs-change pairs of one benchmark workload, alternating order:
# `just bench-pair ../parent-checkout engine_gossip` (10 pairs; then
# optionally pairs, seed, seconds). Prints medians, quartiles, wins and
# whether the digests agree.
bench-pair parent workload *args="":
    bash scripts/bench_pair.sh {{parent}} {{workload}} {{args}}

# DHT routing fuzz under random block sets + churn-as-blocking;
# `just workloadfuzz 200` for the nightly depth.
workloadfuzz cases="20":
    WORKLOAD_CASES={{cases}} cargo test -q -p integration-tests --test workload_fuzz

# Non-test code lines per crate and in total (what the simplicity needle
# counts; printed by CI, never a gate).
loc:
    bash scripts/loc.sh
