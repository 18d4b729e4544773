//! E7 — Lemmas 11 and 12: during reconfiguration, no node is chosen more
//! than polylogarithmically often (congestion) and no empty segment on
//! the old cycle exceeds polylogarithmic length.
//!
//! Expected shape: both maxima grow like `log n / log log n`-ish balls-
//! into-bins maxima — far below any polynomial; the verdict compares them
//! with `log2^2 n`.

use super::prelude::*;
use super::{hgraph, quiet_epoch};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment =
    Experiment::swept("E7", "Congestion and empty segments", "Lemmas 11 and 12", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 3;

const SWEEP: Sweep = Sweep {
    title: "E7: Phase-1 congestion and empty segments (Lemmas 11, 12)",
    k: K,
    axes: || vec![Axis::new("n", (7..=11).map(|e| 1u64 << e))],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [graph_seed, epoch_seed] = split(seed);
    let g = hgraph(cell.u64("n"), graph_seed);
    let m = quiet_epoch(&g, BridgeMode::PointerDoubling, epoch_seed).metrics;
    Ok(Metrics::new()
        .count("max_congestion", m.max_congestion)
        .count("max_empty_segment", m.max_empty_segment))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let worst = |a: &Agg| a.max("max_congestion").max(a.max("max_empty_segment"));
    let polylog = t[0].iter().all(|a| worst(a) < a.at("n").log2().powi(2));
    vec![Check::claim("congestion and empty segments stay below log2^2 n on every seed", polylog)]
}
