//! Cross-backend bit-identity of the workload engine.
//!
//! The W-series claims its replay digest is a *parity* statement: the
//! same `(spec, campaign)` must produce byte-identical reports on every
//! backend that delivers in parity's order — parity itself, and fast mode
//! at one shard, whose engine runs without a fault model here (the
//! absolute values are pinned by `golden/workload.digests`, recorded when
//! that engine was still the boxed-slot one). The digest covers inputs and
//! outcomes — ops, block sets, batch metrics, sampled ids — so any
//! backend divergence (sampling order, RNG stream use, group state)
//! surfaces here as a failing equality, not a silent drift.

use overlay_adversary::adaptive::Attacker;
use overlay_adversary::Campaign;
use overlay_workload::{run_on_backend, WorkloadKind, WorkloadReport, WorkloadSpec};
use reconfig_core::backend::Backend;
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

fn campaign(seed: u64) -> impl FnMut() -> Box<dyn Attacker> {
    move || Box::new(Campaign::preset("churn+dos", 0.02, 2, seed).expect("churn+dos is a preset"))
}

fn on(be: Backend, spec: &WorkloadSpec) -> WorkloadReport {
    run_on_backend(be, spec, campaign(spec.seed), &Telemetry::disabled())
}

#[test]
fn all_kinds_are_bit_identical_across_backends() {
    for spec in [kv_spec(21), hot_spec(22), chat_spec(23)] {
        let parity = on(Backend::Parity, &spec);
        let fast = on(Backend::fast(1), &spec);
        assert_eq!(parity, fast, "kind {} diverged between xl and xl:fast:1", spec.kind.name());
    }
}

#[test]
fn replay_on_one_backend_is_stable() {
    for spec in [kv_spec(31), hot_spec(32), chat_spec(33)] {
        let a = on(Backend::fast(2), &spec);
        let b = on(Backend::fast(2), &spec);
        assert_eq!(a, b, "kind {} did not replay identically", spec.kind.name());
    }
}

#[test]
fn seeds_matter_on_every_backend() {
    for be in [Backend::Parity, Backend::fast(2)] {
        let a = on(be, &kv_spec(41));
        let b = on(be, &kv_spec(42));
        assert_ne!(a.trace_digest, b.trace_digest, "seed change must move the digest");
    }
}

#[test]
fn the_digest_covers_the_fault_schedule() {
    // Same spec, different campaign: the block sets differ, so the
    // digest must too — the trace covers faults, not just ops.
    let spec = kv_spec(51);
    let quiet = run_on_backend(
        Backend::Parity,
        &spec,
        || Box::new(Campaign::none()),
        &Telemetry::disabled(),
    );
    let attacked = on(Backend::Parity, &spec);
    assert_ne!(quiet.trace_digest, attacked.trace_digest);
}
