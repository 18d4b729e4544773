//! Cross-crate integration: the sampling primitives (Section 3) exercised
//! end-to-end through the simulator, graphs and statistics crates.

use overlay_graphs::{HGraph, Hypercube};
use overlay_stats::{tv_distance_uniform, uniform_fit};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::sampling::{
    knowledge_spread_rounds, run_alg1_observed, run_alg2_observed, run_baseline_observed,
};
use simnet::NodeId;
use telemetry::Telemetry;

fn hgraph(n: u64, seed: u64) -> HGraph {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    HGraph::random(&nodes, 8, &mut rng)
}

#[test]
fn theorem2_end_to_end_uniformity_rounds_and_work() {
    // One run of Algorithm 1 at n = 128: rounds = 2T+1, enough samples,
    // and the pooled samples pass a chi-square uniformity test.
    let n = 128u64;
    let g = hgraph(n, 1);
    let p = SamplingParams { c: 3.0, ..SamplingParams::default() };
    let (samples, metrics) = run_alg1_observed(&g, &p, 11, &Telemetry::disabled());

    assert_eq!(metrics.rounds as usize, 2 * metrics.iterations + 1);
    assert!(metrics.samples_per_node >= p.samples_needed(n as usize));
    assert_eq!(metrics.failures, 0);

    let mut counts = vec![0u64; n as usize];
    for (_, s) in &samples {
        for id in s {
            counts[id.raw() as usize] += 1;
        }
    }
    let (_, pval) = uniform_fit(&counts);
    assert!(pval > 1e-4, "pooled sample distribution rejected: p = {pval}");
    let tv = tv_distance_uniform(&counts, n as usize);
    assert!(tv < 0.1, "tv distance {tv}");
}

#[test]
fn theorem3_hypercube_samples_are_exactly_uniform_per_origin() {
    // Algorithm 2 gives *exactly* uniform samples: pool one origin's
    // samples across seeds (dim 4 = 16 nodes) and chi-square them.
    let p = SamplingParams { c: 6.0, ..SamplingParams::default() };
    let mut counts = vec![0u64; 16];
    for seed in 0..60 {
        let (samples, m) = run_alg2_observed(4, &p, seed, &Telemetry::disabled());
        assert_eq!(m.failures, 0, "seed {seed}");
        let (_, s) = &samples[0];
        for id in s {
            counts[id.raw() as usize] += 1;
        }
    }
    let (_, pval) = uniform_fit(&counts);
    assert!(pval > 1e-4, "single-origin hypercube samples rejected: p = {pval}");
}

#[test]
fn exponential_separation_between_rapid_and_baseline() {
    // E3's shape at test scale: the baseline's round count grows linearly
    // in log n, the rapid sampler's only in log log n.
    let p = SamplingParams::default();
    let mut rapid_rounds = Vec::new();
    let mut walk_rounds = Vec::new();
    for (i, exp) in [6u32, 8, 10].into_iter().enumerate() {
        let g = hgraph(1 << exp, 100 + i as u64);
        let (_, r) = run_alg1_observed(&g, &p, 5, &Telemetry::disabled());
        let (_, w) = run_baseline_observed(&g, &p, 5, &Telemetry::disabled());
        rapid_rounds.push(r.rounds);
        walk_rounds.push(w.rounds);
    }
    let rapid_growth = rapid_rounds[2] - rapid_rounds[0];
    let walk_growth = walk_rounds[2] - walk_rounds[0];
    assert!(
        walk_growth >= rapid_growth + 4,
        "baseline should grow much faster: rapid {rapid_rounds:?}, walk {walk_rounds:?}"
    );
}

#[test]
fn lemma4_lower_bound_is_respected_by_the_samplers() {
    // The fastest possible information spread needs ceil(log2 D) rounds on
    // a diameter-D graph; Algorithm 2's round count stays within a small
    // constant factor of that optimum on the hypercube.
    let dim = 4u32;
    let h = Hypercube::new(dim);
    let nodes: Vec<NodeId> = h.vertices().map(NodeId).collect();
    let edges: Vec<(NodeId, NodeId)> = h
        .vertices()
        .flat_map(|v| {
            h.neighbors(v).into_iter().filter(move |&w| w > v).map(move |w| (NodeId(v), NodeId(w)))
        })
        .collect();
    let adj = overlay_graphs::Adjacency::from_edges(&nodes, &edges);
    let spread = knowledge_spread_rounds(&adj);
    let optimum = *spread.iter().max().unwrap() as u64;

    let p = SamplingParams { c: 3.0, ..SamplingParams::default() };
    let (_, m) = run_alg2_observed(dim, &p, 3, &Telemetry::disabled());
    assert!(m.rounds >= optimum, "no sampler can beat the spread bound");
    assert!(m.rounds <= 6 * optimum.max(1), "Algorithm 2 is within a constant factor");
}

#[test]
fn schedules_match_the_lemma7_and_lemma9_shapes() {
    let p = SamplingParams::default();
    for exp in [8usize, 12, 16] {
        let s1 = Schedule::algorithm1(1 << exp, 8, &p);
        for i in 1..=s1.iterations {
            assert!(s1.m_at(i - 1) > s1.m_at(i), "m_i must decrease");
        }
        assert!(s1.satisfies(1 << exp, &p));
    }
    let s2 = Schedule::algorithm2(16, &p);
    assert_eq!(s2.iterations, 4);
    for i in 1..=s2.iterations {
        assert!(s2.m_at(i - 1) > s2.m_at(i));
    }
}
