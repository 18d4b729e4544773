//! E1 — Theorem 2: Algorithm 1 samples `>= beta log n` nodes almost
//! uniformly in `O(log log n)` rounds with polylogarithmic communication
//! work per node per round.
//!
//! Expected shape: `rounds` is `2T + 1` and grows by <= 2 when `n`
//! doubles (one doubling iteration per squaring of n), and the pooled
//! sample distribution is within small TV distance of uniform. Message
//! level up to n = 1024, the array level above (same algorithm; see
//! DESIGN.md).

use super::hgraph;
use super::prelude::*;
use overlay_stats::{fit_log, fit_loglog};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_direct_observed, run_alg1_observed};

pub const EXP: Experiment =
    Experiment::swept("E1", "Rapid node sampling in H-graphs", "Theorem 2", &[SWEEP], verdict)
        .with_telemetry();

/// Seeds per cell (a cell at n = 16 384 samples for a second).
const K: u64 = 2;

const SWEEP: Sweep = Sweep {
    title: "E1: rapid node sampling in H-graphs (Theorem 2), message level to n = 1024",
    k: K,
    axes: || vec![Axis::new("n", (8..=14).map(|e| 1u64 << e))],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n = cell.u64("n") as usize;
    let [graph_seed, run_seed] = split(seed);
    let graph = hgraph(n as u64, graph_seed);
    let params = SamplingParams::default();
    let mut counts = vec![0u64; n];
    let m = if n <= 1024 {
        let (samples, m) = run_alg1_observed(&graph, &params, run_seed, cell.tel);
        samples.iter().flat_map(|(_, s)| s).for_each(|id| counts[id.raw() as usize] += 1);
        m
    } else {
        let out = run_alg1_direct_observed(&graph, &params, run_seed, cell.tel);
        out.samples.iter().flatten().for_each(|&id| counts[id as usize] += 1);
        out.metrics
    };
    Ok(Metrics::new()
        .count("iterations", m.iterations)
        .count("rounds", m.rounds)
        .count("samples", m.samples_per_node)
        .count("failures", m.failures)
        .count("max_node_bits", m.max_node_bits)
        .tally("pooled_samples", counts))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let ns: Vec<u64> = t[0].iter().map(|a| a.at("n") as u64).collect();
    let rounds: Vec<f64> = t[0].iter().map(|a| a.mean("rounds")).collect();
    let grown = t[0][t[0].len() - 1].max("rounds") - t[0][0].min("rounds");
    let slower = grown < (ns[ns.len() - 1] / ns[0]).ilog2() as f64;
    let exact = t[0].iter().all(|a| {
        let (lo, hi) = (a.min("iterations"), a.max("iterations"));
        lo == hi && a.min("rounds") == 2.0 * lo + 1.0 && a.max("rounds") == 2.0 * hi + 1.0
    });
    let loglog = fit_loglog(&ns, &rounds).r2 >= fit_log(&ns, &rounds).r2;
    let near = t[0].iter().all(|a| a.tv_uniform("pooled_samples") < 0.2);
    let clean = t[0].iter().all(|a| a.max("failures") == 0.0);
    vec![
        Check::claim("rounds = 2T + 1 on every seed", exact),
        Check::claim("rounds grow slower than log2 n", slower),
        Check::claim("the log log n fit beats the log n fit", loglog),
        Check::claim("pooled samples within TV 0.2 of uniform", near),
        Check::control("no multiset underflows at the default constants", clean),
    ]
}
