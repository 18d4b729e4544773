//! E8 — Lemma 13 / Theorem 4: a full reconfiguration epoch (sampling,
//! permutation, pointer-doubling bridge, wiring) completes in
//! `O(log log n)` rounds with polylogarithmic work.
//!
//! Expected shape: total rounds grow by a small additive constant when
//! n doubles.

use super::prelude::*;
use super::{hgraph, quiet_epoch};
use overlay_stats::{fit_log, fit_loglog};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment = Experiment::swept(
    "E8",
    "Reconfiguration round count",
    "Lemma 13 / Theorem 4",
    &[SWEEP],
    verdict,
);

/// Seeds per cell.
const K: u64 = 4;

const SWEEP: Sweep = Sweep {
    title: "E8: reconfiguration rounds (Lemma 13 / Theorem 4)",
    k: K,
    axes: || vec![Axis::new("n", (6..=11).map(|e| 1u64 << e))],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [graph_seed, epoch_seed] = split(seed);
    let g = hgraph(cell.u64("n"), graph_seed);
    let out = quiet_epoch(&g, BridgeMode::PointerDoubling, epoch_seed);
    Ok(Metrics::new()
        .count("sampling_rounds", out.sampling_rounds)
        .count("bridge_rounds", out.bridge_rounds)
        .count("total_rounds", out.metrics.rounds))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let ns: Vec<u64> = t[0].iter().map(|a| a.at("n") as u64).collect();
    let totals: Vec<f64> = t[0].iter().map(|a| a.mean("total_rounds")).collect();
    let grown = t[0][t[0].len() - 1].max("total_rounds") - t[0][0].min("total_rounds");
    let slower = grown < (ns[ns.len() - 1] / ns[0]).ilog2() as f64;
    let loglog = fit_loglog(&ns, &totals).r2 >= fit_log(&ns, &totals).r2;
    vec![
        Check::claim("rounds grow slower than log2 n", slower),
        Check::control("the log log n fit beats the log n fit", loglog),
    ]
}
