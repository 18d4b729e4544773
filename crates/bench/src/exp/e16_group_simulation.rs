//! E16 — Lemma 14 at message level: groups of representatives correctly
//! simulate their supernodes (two physical rounds per supernode step,
//! lowest-id adoption, relay with dedup) **iff** every group keeps an
//! available member each round.
//!
//! Expected shape: with any rotating blocking pattern that satisfies the
//! availability precondition the simulated token walks all complete;
//! fully starving one group stalls its supernode at step 0.

use super::prelude::*;
use overlay_graphs::Hypercube;
use reconfig_core::dos::group_sim::{build_group_sim, TokenWalkSampler};
use serde_json::json;
use simnet::BlockSet;

pub const EXP: Experiment = Experiment::swept(
    "E16",
    "Message-level group simulation",
    "Lemma 14",
    &[ROTATING, STARVED],
    verdict,
);

/// Seeds per cell.
const K: u64 = 16;

/// (dimension, members per group, members blocked per group).
const CASES: [(u32, usize, usize); 4] = [(3, 4, 0), (3, 4, 2), (4, 5, 3), (4, 8, 6)];

const ROTATING: Sweep = Sweep {
    title: "E16a: message-level group simulation under rotating blocking (Lemma 14)",
    k: K,
    axes: || {
        let case = |(d, m, b)| {
            (format!("dim {d}, {b} of {m} blocked"), json!({"dim": d, "members": m, "blocked": b}))
        };
        vec![Axis::shown("case", CASES.map(case))]
    },
    cell,
};

const STARVED: Sweep = Sweep {
    title: "E16b: one group of three fully silenced, dim 3",
    k: K,
    axes: || vec![Axis::new("dim", [3u32])],
    cell: |cell, seed| {
        let dim = cell.u64("dim") as u32;
        let (mut net, groups) = build_group_sim(Hypercube::new(dim).len(), 3, walker(dim), seed);
        let starve: BlockSet = groups[0].iter().copied().collect();
        for _ in 0..2 * (dim as u64 + 3) + 10 {
            net.step_blocked(&starve);
        }
        let stalled = net.node(groups[0][0]).ok_or_else(|| missing("read starved group 0"))?;
        Ok(Metrics::new().count("stalled_step", stalled.step))
    },
};

/// A token-walk sampler at every supernode of the `dim`-cube.
fn walker(dim: u32) -> impl Fn(u64) -> TokenWalkSampler {
    move |_| TokenWalkSampler { dim, launched: false, samples: Vec::new() }
}

fn missing(what: &str) -> RunError {
    RunError::new(what, "group member missing from the simulation")
}

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (dim, members, blocked_per_group) = CASES[cell.at("case")];
    let (mut net, groups) = build_group_sim(Hypercube::new(dim).len(), members, walker(dim), seed);
    for r in 0..2 * (dim as u64 + 3) + 8 {
        // Rotate which members stay alive, keeping
        // members - blocked_per_group available with overlap.
        let keep_from = ((r / 4) as usize) % members;
        let off = |i: usize| (i + members - keep_from) % members;
        let blocked: BlockSet = groups
            .iter()
            .flat_map(|g| g.iter().enumerate().filter(|&(i, _)| off(i) < blocked_per_group))
            .map(|(_, &v)| v)
            .collect();
        net.step_blocked(&blocked);
    }
    let mut done = 0usize;
    for group in &groups {
        let nodes =
            group.iter().map(|&v| net.node(v).ok_or_else(|| missing("read a member's state")));
        let states = nodes.collect::<Result<Vec<_>, _>>()?;
        done += usize::from(states.iter().any(|n| n.state.samples.len() == 1));
    }
    let m = Metrics::new().count("groups", groups.len()).count("walks_done", done);
    Ok(m.rate("all_done", done == groups.len()))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let finished = t[0].iter().all(|a| a.always("all_done"));
    vec![
        Check::claim("every walk finishes while each group keeps a member available", finished),
        Check::claim("a fully silenced group stalls at step 0", t[1][0].max("stalled_step") == 0.0),
    ]
}
