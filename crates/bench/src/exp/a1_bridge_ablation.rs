//! A1 — ablation: Phase 3's pointer doubling vs naive one-hop walking.
//!
//! Expected shape: doubling's bridge rounds grow like log(segment) =
//! O(log log n); naive walking grows with the segment length itself.

use super::prelude::*;
use super::{hgraph, quiet_epoch};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment = Experiment::swept(
    "A1",
    "Bridge ablation",
    "design choice: pointer doubling in Phase 3",
    &[SWEEP],
    verdict,
);

/// Seeds per cell.
const K: u64 = 4;

const SWEEP: Sweep = Sweep {
    title: "A1: bridge ablation — pointer doubling vs naive walk",
    k: K,
    axes: || vec![Axis::new("n", (7..=11).map(|e| 1u64 << e))],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [graph_seed, epoch_seed] = split(seed);
    let g = hgraph(cell.u64("n"), graph_seed);
    let fast = quiet_epoch(&g, BridgeMode::PointerDoubling, epoch_seed);
    let slow = quiet_epoch(&g, BridgeMode::NaiveWalk, epoch_seed);
    Ok(Metrics::new()
        .count("doubling_bridge", fast.bridge_rounds)
        .count("naive_bridge", slow.bridge_rounds)
        .count("doubling_total", fast.metrics.rounds)
        .count("naive_total", slow.metrics.rounds)
        .rate("doubling_not_slower", fast.bridge_rounds <= slow.bridge_rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let never_slower = t[0].iter().all(|a| a.always("doubling_not_slower"));
    let gap = |a: &Agg| a.mean("naive_bridge") - a.mean("doubling_bridge");
    let widens = gap(&t[0][t[0].len() - 1]) > gap(&t[0][0]);
    vec![
        Check::claim("doubling never bridges slower than the naive walk", never_slower),
        Check::control("the mean gap widens from the smallest n to the largest", widens),
    ]
}
