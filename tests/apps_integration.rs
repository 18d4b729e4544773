//! Cross-crate integration: the Section 7 applications under attack.

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_apps::anon::Anonymizer;
use overlay_apps::dht::{DhtOp, RobustDht};
use overlay_apps::pubsub::PubSub;
use reconfig_core::dos::DosParams;
use reconfig_core::healing::HealableOverlay;
use simnet::{BlockSet, NodeId};

#[test]
fn corollary2_anonymizer_delivers_under_sustained_attack() {
    let n = 1024usize;
    let mut anon = Anonymizer::new(n, DosParams::default(), 30);
    let lateness = 2 * anon.overlay().epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 31);
    for _ in 0..3 * anon.overlay().epoch_len() {
        let round = anon.overlay().round();
        adv.observe(anon.overlay().grouped().snapshot(round));
        let blocked = adv.block(round, n);
        let out = anon.exchange(&blocked);
        assert!(out.delivered);
        assert!(out.rounds <= 5, "O(1) rounds per exchange");
        anon.overlay_mut().step(&blocked);
    }
}

#[test]
fn theorem8_batches_complete_under_budget_blocking() {
    let n = 2048usize;
    let mut dht = RobustDht::new(n, 2.0, 32);
    let none = BlockSet::none();
    // Preload.
    let writes: Vec<DhtOp> = (0..300u64).map(|k| DhtOp::Write { key: k, value: k + 1 }).collect();
    let wm = dht.serve_batch(&writes, &none);
    assert_eq!(wm.completed, wm.requests);

    // Attack within budget, reconfigure a few epochs, then serve reads.
    let budget = RobustDht::blocking_budget(n, 2.0);
    let blocked: BlockSet = (0..budget as u64).map(|i| NodeId((i * 97) % n as u64)).collect();
    for _ in 0..2 * dht.epoch_len() {
        dht.step(&blocked);
    }
    let reads: Vec<DhtOp> = (0..300u64).map(|k| DhtOp::Read { key: k }).collect();
    let rm = dht.serve_batch(&reads, &blocked);
    assert_eq!(rm.completed, rm.requests, "all reads served under budget blocking");
    let log3 = (n as f64).log2().powi(3);
    assert!((rm.rounds as f64) < log3, "rounds {} vs log^3 n {}", rm.rounds, log3);

    // Values survived.
    for k in [0u64, 17, 299] {
        assert_eq!(dht.read(k, &blocked).unwrap(), k + 1);
    }
}

#[test]
fn pubsub_pipeline_end_to_end_with_reconfiguration() {
    let mut ps = PubSub::new(1024, 33);
    let none = BlockSet::none();
    ps.publish_batch(&[(42, 1), (42, 2), (7, 70)], &none).unwrap();
    // Let the group overlay reconfigure between batches.
    let epoch = ps.dht_mut().epoch_len();
    for _ in 0..epoch {
        ps.dht_mut().step(&none);
    }
    ps.publish_batch(&[(42, 3)], &none).unwrap();
    assert_eq!(ps.fetch(42, &none).unwrap(), vec![1, 2, 3]);
    assert_eq!(ps.fetch(7, &none).unwrap(), vec![70]);
}

#[test]
fn relay_exit_distribution_is_uniform_with_respect_to_time() {
    // Anonymity: pooled over reconfigurations, relay participation is
    // near-uniform across servers.
    let n = 512usize;
    let mut anon = Anonymizer::new(n, DosParams::default(), 34);
    let mut counts = vec![0u64; n];
    let epoch = anon.overlay().epoch_len();
    for i in 0..1500 {
        let out = anon.exchange(&BlockSet::none());
        for r in &out.relays {
            counts[r.raw() as usize] += 1;
        }
        if i % 8 == 0 {
            for _ in 0..epoch / 3 {
                anon.overlay_mut().step(&BlockSet::none());
            }
        }
    }
    let tv = overlay_stats::tv_distance_uniform(&counts, n);
    assert!(tv < 0.2, "relay usage skewed: tv = {tv}");
}
