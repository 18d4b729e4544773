//! E4 — Lemma 4: any node-sampling algorithm needs `Omega(log D)` rounds
//! on a diameter-`D` graph.
//!
//! The fastest conceivable information spread (everyone introduces
//! everyone to everyone) is simulated explicitly; its round count matches
//! `ceil(log2(eccentricity))`, and Algorithm 2's measured rounds stay
//! within a constant factor of that floor.

use super::prelude::*;
use overlay_graphs::{Adjacency, Hypercube};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{knowledge_spread_rounds, run_alg2_observed};
use simnet::NodeId;
use telemetry::Telemetry;

pub const EXP: Experiment =
    Experiment::swept("E4", "Sampling lower bound", "Lemma 4", &[PATHS, CUBES], verdict);

/// Seeds per hypercube cell (the path rows draw nothing).
const K: u64 = 4;

const PATHS: Sweep = Sweep {
    title: "E4: the Omega(log diameter) sampling lower bound on paths (Lemma 4)",
    k: 1,
    axes: || vec![Axis::new("diameter", (2..=6).map(|k| 1u64 << k))],
    cell: |cell, _| {
        let d = cell.u64("diameter");
        let nodes: Vec<NodeId> = (0..=d).map(NodeId).collect();
        let edges: Vec<_> = (0..d).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        Ok(Metrics::new().count("spread_rounds", spread(&Adjacency::from_edges(&nodes, &edges))))
    },
};

const CUBES: Sweep = Sweep {
    title: "E4: the same floor on hypercubes",
    k: K,
    axes: || vec![Axis::new("dim", [2u32, 4, 8])],
    cell,
};

fn spread(adj: &Adjacency) -> u64 {
    knowledge_spread_rounds(adj).into_iter().max().unwrap_or(0) as u64
}

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let dim = cell.u64("dim") as u32;
    let h = Hypercube::new(dim);
    let nodes: Vec<NodeId> = h.vertices().map(NodeId).collect();
    let up =
        |v| h.neighbors(v).into_iter().filter(move |&w| w > v).map(move |w| (NodeId(v), NodeId(w)));
    let edges: Vec<(NodeId, NodeId)> = h.vertices().flat_map(up).collect();
    let params = SamplingParams { c: 3.0, ..SamplingParams::default() };
    let (_, m) = run_alg2_observed(dim, &params, seed, &Telemetry::disabled());
    Ok(Metrics::new()
        .count("spread_rounds", spread(&Adjacency::from_edges(&nodes, &edges)))
        .count("alg2_rounds", m.rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let log = t[0].iter().all(|a| a.max("spread_rounds") == a.at("diameter").log2());
    let floor = t[1].iter().all(|a| a.min("alg2_rounds") >= a.max("spread_rounds"));
    vec![
        Check::claim("spread rounds = log2 D on paths", log),
        Check::claim("Algorithm 2 never beats the spread floor", floor),
    ]
}
