//! E3 — the exponential improvement over plain random-walk sampling
//! (Sections 1 and 3; cf. Das Sarma et al. and the Nanongkai et al. lower
//! bound the primitive breaks through).
//!
//! Expected shape: the baseline round count grows linearly in log n; the
//! rapid sampler's only in log log n; the `ratio` column therefore widens
//! as n grows.

use super::hgraph;
use super::prelude::*;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_observed, run_baseline_observed};
use telemetry::Telemetry;

pub const EXP: Experiment = Experiment::swept(
    "E3",
    "Exponential improvement over plain random walks",
    "Section 3 headline / related-work comparison",
    &[SWEEP],
    verdict,
);

/// Seeds per cell (both samplers run at message level).
const K: u64 = 2;

const SWEEP: Sweep = Sweep {
    title: "E3: rapid sampling vs plain random walks",
    k: K,
    axes: || vec![Axis::new("n", (6..=11).map(|e| 1u64 << e))],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [graph_seed, run_seed] = split(seed);
    let graph = hgraph(cell.u64("n"), graph_seed);
    let (params, tel) = (SamplingParams::default(), Telemetry::disabled());
    let (_, rapid) = run_alg1_observed(&graph, &params, run_seed, &tel);
    let (_, walk) = run_baseline_observed(&graph, &params, run_seed, &tel);
    Ok(Metrics::new()
        .count("rapid_rounds", rapid.rounds)
        .count("walk_rounds", walk.rounds)
        .value("ratio", walk.rounds as f64 / rapid.rounds as f64)
        .count("rapid_msgs", rapid.total_msgs)
        .count("walk_msgs", walk.total_msgs))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let (first, last) = (&t[0][0], &t[0][t[0].len() - 1]);
    let faster = t[0].iter().all(|a| a.min("ratio") > 1.0);
    vec![
        Check::claim("rapid sampling takes fewer rounds on every seed at every n", faster),
        Check::claim("the mean ratio widens from the smallest n to the largest", {
            last.mean("ratio") > first.mean("ratio")
        }),
    ]
}
