//! E6 — Lemma 10: Algorithm 3 turns any Hamilton cycle into a *uniformly*
//! random one.
//!
//! Two checks over thousands of reconfigurations of a small network, one
//! seed each:
//! (a) the successor of a fixed node is uniform over the other nodes;
//! (b) the frequency of every distinct oriented cycle (all `(n-1)!` of
//! them at n = 5) is uniform.

use super::prelude::*;
use super::{hgraph, quiet_epoch};
use overlay_graphs::HamiltonCycle;
use reconfig_core::reconfig::BridgeMode;
use simnet::NodeId;

pub const EXP: Experiment = Experiment::swept(
    "E6",
    "Cycle uniformity",
    "Lemma 10 / Theorem 4",
    &[SUCCESSOR, CYCLE],
    verdict,
);

/// Reconfigurations behind the successor check.
const K_SUCCESSOR: u64 = 2000;
/// Reconfigurations behind the whole-cycle check.
const K_CYCLE: u64 = 3000;

const SUCCESSOR: Sweep = Sweep {
    title: "E6a: successor of node 0 after one reconfiguration (Lemma 10)",
    k: K_SUCCESSOR,
    axes: || vec![Axis::new("n", [8u64])],
    cell: |cell, seed| {
        let n = cell.u64("n");
        let next = reconfigure_once(n, seed).successor(NodeId(0)).raw() as usize;
        // Node 0 is never its own successor; the tally is over 1..n.
        let m = Metrics::new().rate("self_successor", next == 0);
        Ok(m.pick("successor", next.max(1) - 1, n as usize - 1))
    },
};

const CYCLE: Sweep = Sweep {
    title: "E6b: the whole oriented cycle after one reconfiguration",
    k: K_CYCLE,
    axes: || vec![Axis::new("n", [5u64])],
    cell,
};

fn reconfigure_once(n: u64, seed: u64) -> HamiltonCycle {
    let [graph_seed, epoch_seed] = split(seed);
    let g = hgraph(n, graph_seed);
    quiet_epoch(&g, BridgeMode::PointerDoubling, epoch_seed).cycles[0].clone()
}

/// The cycle as its rank among the `(n-1)!` orders of nodes `1..n` after
/// node 0 (a mixed-radix Lehmer code).
fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n = cell.u64("n");
    let key = reconfigure_once(n, seed).canonical_key();
    let mut rest: Vec<NodeId> = (1..n).map(NodeId).collect();
    let mut rank = 0;
    for v in &key[1..] {
        let i = rest.iter().position(|r| r == v).unwrap_or(0);
        rank = rank * rest.len() + i;
        rest.remove(i);
    }
    Ok(Metrics::new().pick("cycle", rank, (1..n as usize).product()))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let (successor, cycle) = (&t[0][0], &t[1][0]);
    let all_seen = cycle.tally("cycle").iter().all(|&c| c > 0);
    vec![
        Check::claim("node 0 is never its own successor", successor.never("self_successor")),
        Check::claim("chi-square accepts a uniform successor at the 1% level", {
            successor.p_uniform("successor") > 0.01
        }),
        Check::claim("every oriented cycle is observed", all_seen),
        Check::claim(
            "chi-square accepts uniform cycles at the 1% level",
            cycle.p_uniform("cycle") > 0.01,
        ),
    ]
}
