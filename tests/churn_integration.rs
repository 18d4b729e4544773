//! Cross-crate integration: reconfiguration under churn (Section 4),
//! including the Lemma 10 uniformity of rebuilt cycles and the Theorem 5
//! survival claim under every churn strategy.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_graphs::spectral::second_eigenvalue;
use overlay_stats::uniform_fit;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput, ExpanderOverlay};
use simnet::NodeId;

#[test]
fn lemma10_rebuilt_cycles_have_uniform_successors() {
    // Reconfigure a small H-graph many times; for a fixed node, its
    // successor in the first rebuilt cycle must be uniform over the other
    // nodes.
    let n = 8u64;
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut counts = vec![0u64; n as usize];
    let trials = 1200;
    for seed in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = overlay_graphs::HGraph::random(&nodes, 8, &mut rng);
        let out = run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed: seed.wrapping_mul(0x9E37_79B9),
        });
        let succ = out.cycles[0].successor(NodeId(0));
        counts[succ.raw() as usize] += 1;
    }
    assert_eq!(counts[0], 0, "a node is never its own successor");
    let others: Vec<u64> = counts[1..].to_vec();
    let (stat, pval) = uniform_fit(&others);
    assert!(pval > 1e-4, "successor distribution rejected: chi2 = {stat}, p = {pval}");
}

#[test]
fn every_churn_strategy_is_survived() {
    for (i, strategy) in [
        ChurnStrategy::Random,
        ChurnStrategy::OldestFirst,
        ChurnStrategy::YoungestFirst,
        ChurnStrategy::Concentrated,
    ]
    .into_iter()
    .enumerate()
    {
        let mut ov = ExpanderOverlay::new(40, 8, SamplingParams::default(), 50 + i as u64);
        let mut sched = ChurnSchedule::new(strategy, 2.0, 0.6, 100_000 * (i as u64 + 1));
        let mut rng = simnet::rng::stream(60 + i as u64, 0, 0);
        for _ in 0..3 {
            let ev = sched.next(ov.members(), &mut rng);
            ov.apply_churn(&ev);
            let m = ov.reconfigure();
            assert!(m.valid, "{strategy:?}");
            assert!(ov.is_connected(), "{strategy:?} disconnected the overlay");
        }
    }
}

#[test]
fn reconfigured_topology_remains_an_expander() {
    // Theorem 4: the new graph is uniform over H_m, hence an expander
    // w.h.p. — check the spectral gap after several churn epochs.
    let mut ov = ExpanderOverlay::new(256, 8, SamplingParams::default(), 77);
    let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 1.5, 0.5, 100_000);
    let mut rng = simnet::rng::stream(77, 1, 1);
    for _ in 0..3 {
        let ev = sched.next(ov.members(), &mut rng);
        ov.apply_churn(&ev);
        ov.reconfigure();
    }
    let lam2 = second_eigenvalue(&ov.graph().adjacency(), 300, 9);
    let bound = 2.0 * (8f64).sqrt();
    assert!(lam2 < bound + 1.0, "spectral gap lost after churn: lambda2 = {lam2}");
}

#[test]
fn static_topology_baseline_collapses_under_the_same_churn() {
    // The E9 control: if the overlay never reconfigures, an oldest-first
    // adversary eventually removes every original node; since new nodes
    // are only ever *introduced* (no edges are built without Algorithm 3),
    // the "network" degenerates into orphaned introductions. We model the
    // baseline as: edges only among original survivors.
    let n = 40u64;
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = overlay_graphs::HGraph::random(&nodes, 8, &mut rng);
    let mut sched = ChurnSchedule::new(ChurnStrategy::OldestFirst, 2.0, 0.8, 100_000);
    let mut members = nodes.clone();
    let mut rng2 = simnet::rng::stream(5, 2, 2);
    for _ in 0..4 {
        let ev = sched.next(&members, &mut rng2);
        ev.apply(&mut members);
    }
    // Original survivors shrink drastically; the static H-graph over the
    // original node set retains no adjacency for the joiners at all.
    let originals: Vec<NodeId> = members.iter().copied().filter(|m| m.raw() < n).collect();
    let joiners = members.len() - originals.len();
    assert!(joiners > 0);
    assert!(originals.len() < n as usize / 2, "churn should have evicted most originals");
    // Every joiner is isolated in the static topology: the baseline fails
    // to integrate them, while ExpanderOverlay::reconfigure integrates all
    // joiners within one epoch (see overlay tests).
    for j in members.iter().filter(|m| m.raw() >= n) {
        assert!(!g.contains(*j));
    }
}

#[test]
fn bridge_ablation_pointer_doubling_vs_naive_is_consistent() {
    // Both bridge modes must produce statistically valid cycles; doubling
    // must never need more bridging rounds than naive walking.
    let nodes: Vec<NodeId> = (0..64).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = overlay_graphs::HGraph::random(&nodes, 8, &mut rng);
    for seed in 0..3 {
        let fast = run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed,
        });
        let slow = run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::NaiveWalk,
            params: SamplingParams::default(),
            seed,
        });
        assert!(fast.bridge_rounds <= slow.bridge_rounds);
        assert_eq!(fast.members.len(), 64);
        assert_eq!(slow.members.len(), 64);
    }
}
