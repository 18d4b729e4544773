//! A3 — baseline comparison: Algorithm 3 vs routing-based reconfiguration
//! on a skip graph (the alternative Section 1.2 sketches and dismisses).
//!
//! In the skip-graph approach every node draws a fresh random label and
//! routes through the *old* skip graph to its new position; the epoch
//! cannot finish before the slowest route does, and with polylog degree
//! routing needs `Omega(log n / log log n)` rounds. Algorithm 3 needs
//! `O(log log n)`.
//!
//! Expected shape: the skip-graph column grows with log n; Algorithm 3's
//! stays nearly flat; the ratio widens.

use super::prelude::*;
use super::{hgraph, quiet_epoch};
use overlay_graphs::SkipGraph;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::reconfig::BridgeMode;
use simnet::NodeId;

pub const EXP: Experiment = Experiment::swept(
    "A3",
    "Reconfiguration baselines",
    "Section 1.2: routing/sorting cannot beat o(log n / log log n)",
    &[SWEEP],
    verdict,
);

/// Seeds per cell.
const K: u64 = 4;

const SWEEP: Sweep = Sweep {
    title: "A3: Algorithm 3 vs skip-graph routing reconfiguration",
    k: K,
    axes: || vec![Axis::new("n", (6..=11).map(|e| 1u64 << e))],
    cell,
};

/// One skip-graph reconfiguration epoch: every node routes to a fresh
/// uniformly random label; the epoch length is the worst route length
/// plus the O(log n) rewiring sweep of the new skip graph.
fn skip_epoch_rounds(n: u64, seed: u64) -> u64 {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = SkipGraph::build(&nodes, &mut rng);
    let worst = nodes.iter().map(|&v| g.route(v, rng.random::<u64>()).len() as u64 - 1).max();
    // Rewiring the new skip graph: one round per level.
    worst.unwrap_or(0) + g.levels() as u64
}

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n = cell.u64("n");
    let [graph_seed, epoch_seed, skip_seed] = split(seed);
    let g = hgraph(n, graph_seed);
    let alg3 = quiet_epoch(&g, BridgeMode::PointerDoubling, epoch_seed).metrics.rounds;
    let skip = skip_epoch_rounds(n, skip_seed);
    let m = Metrics::new().count("alg3_rounds", alg3).count("skip_rounds", skip);
    Ok(m.value("ratio", skip as f64 / alg3 as f64))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let (first, last) = (&t[0][0], &t[0][t[0].len() - 1]);
    let growth = |m: &str| last.mean(m) - first.mean(m);
    let slower = last.mean("skip_rounds") > last.mean("alg3_rounds");
    let faster_growth = growth("skip_rounds") > growth("alg3_rounds");
    vec![
        Check::claim("skip-graph rounds exceed Algorithm 3's at the largest n", slower),
        Check::claim("skip-graph rounds grow faster than Algorithm 3's", faster_growth),
    ]
}
