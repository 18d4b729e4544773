//! Replay determinism of the workload engine.
//!
//! The W-series claims its replay digest is a function of `(spec,
//! campaign)` alone. Each kind is held against a digest recorded when the
//! epoch control plane still ran Algorithm 2 on the engine (the W-series'
//! absolute values are pinned by `golden/workload.digests`). The digest
//! covers inputs and outcomes — ops, block sets, batch metrics, sampled
//! ids — so any divergence (sampling order, RNG stream use, group state)
//! surfaces here as a failing equality, not a silent drift. No part of a
//! run consults the simulation backend; one check runs under fast mode at
//! four shards to show it.

use overlay_adversary::adaptive::Attacker;
use overlay_adversary::Campaign;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadReport, WorkloadSpec};
use reconfig_core::backend::{with_backend, Backend};
use telemetry::Telemetry;

fn kv_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        n: 128,
        seed,
        batches: 3,
        batch_size: 48,
        kind: WorkloadKind::ZipfKv { keyspace: 300, skew: 1.0, read_fraction: 0.5 },
    }
}

fn hot_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        n: 128,
        seed,
        batches: 4,
        batch_size: 32,
        kind: WorkloadKind::HotKey { keyspace: 500, top_k: 8, rotate_every: 2, hot_fraction: 0.8 },
    }
}

fn chat_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        n: 128,
        seed,
        batches: 3,
        batch_size: 12,
        kind: WorkloadKind::Chat {
            topics: 8,
            skew: 0.8,
            subscribers: 32,
            churn_rate: 1.3,
            fanout_cap: 2,
        },
    }
}

fn run_with(spec: &WorkloadSpec, attacker: &mut dyn Attacker) -> WorkloadReport {
    WorkloadEngine::run(spec, attacker, &Telemetry::disabled())
}

/// A run under a `churn+dos` campaign; the campaign is rebuilt per run
/// because attackers are stateful.
fn run(spec: &WorkloadSpec) -> WorkloadReport {
    let mut campaign =
        Campaign::preset("churn+dos", 0.02, 2, spec.seed).expect("churn+dos is a preset");
    run_with(spec, &mut campaign)
}

#[test]
fn all_kinds_replay_their_recorded_digests() {
    for (spec, recorded) in [
        (kv_spec(21), 0xeaa3_6e40_c4a2_5338),
        (hot_spec(22), 0xc7a3_99d4_ee5c_e09e),
        (chat_spec(23), 0x442a_c6b6_3d94_07d7),
    ] {
        assert_eq!(run(&spec).trace_digest, recorded, "kind {} moved", spec.kind.name());
    }
}

#[test]
fn the_run_is_backend_free() {
    for spec in [kv_spec(21), hot_spec(22), chat_spec(23)] {
        let fast = with_backend(Backend::fast(4), || run(&spec));
        assert_eq!(fast, run(&spec), "kind {} consulted the backend", spec.kind.name());
    }
}

#[test]
fn replay_is_stable() {
    for spec in [kv_spec(31), hot_spec(32), chat_spec(33)] {
        assert_eq!(run(&spec), run(&spec), "kind {} did not replay identically", spec.kind.name());
    }
}

#[test]
fn seeds_move_the_digest() {
    assert_ne!(run(&kv_spec(41)).trace_digest, run(&kv_spec(42)).trace_digest);
}

#[test]
fn the_digest_covers_the_fault_schedule() {
    // Same spec, different campaign: the block sets differ, so the
    // digest must too — the trace covers faults, not just ops.
    let spec = kv_spec(51);
    let quiet = run_with(&spec, &mut Campaign::none());
    assert_ne!(quiet.trace_digest, run(&spec).trace_digest);
}
