//! E10 — Lemmas 16 and 17: random group assignment concentrates group
//! sizes around `n/N`, and blocking any `(1/2 - eps)`-fraction of nodes
//! (without knowledge of current membership) leaves every group with a
//! strict majority unblocked.
//!
//! Expected shape: min/max group sizes hug `n/N`; the worst-group
//! unblocked share stays above 1/2 for every eps > 0, tightening as eps
//! grows.

use super::prelude::*;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};

pub const EXP: Experiment = Experiment::swept(
    "E10",
    "Group concentration and blocking shares",
    "Lemmas 16 and 17",
    &[SIZES, SHARES],
    verdict,
);

/// Seeds per cell.
const K: u64 = 16;

const SIZES: Sweep = Sweep {
    title: "E10a: group size concentration (Lemma 16)",
    k: K,
    axes: || vec![Axis::new("n", (12..=14).map(|e| 1u64 << e))],
    cell: |cell, seed| {
        let ov = DosOverlay::new(cell.u64("n") as usize, DosParams::default(), seed);
        let (min, max) = ov.grouped().group_size_range();
        let m = Metrics::new().count("supernodes", ov.grouped().cube().len());
        Ok(m.count("min_group", min).count("max_group", max))
    },
};

const SHARES: Sweep = Sweep {
    title: "E10b: worst-group unblocked share, (1/2 - eps) blocked, n = 8192 (Lemma 17)",
    k: K,
    axes: || vec![Axis::new("eps", [0.05, 0.1, 0.2, 0.3, 0.45])],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (n, eps) = (1usize << 13, cell.f64("eps"));
    // Lemma 17's "we can choose a constant c": size groups so the
    // Chernoff upper tail at deviation delta = eps / (1/2 - eps) stays
    // below 1/(50 * #groups). rate = min(d^2, d) * (1/2-eps) / 3 failures
    // per member; required size = ln(50 * #groups) / rate.
    let delta = eps / (0.5 - eps);
    let rate = delta.powi(2).min(delta) * (0.5 - eps) / 3.0;
    let group_c = ((50.0 * 64.0f64).ln() / rate / (n as f64).log2()).max(4.0);
    let [overlay_seed, attacker_seed] = split(seed);
    let ov = DosOverlay::new(n, DosParams { group_c, ..DosParams::default() }, overlay_seed);
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.5 - eps, 0, attacker_seed);
    adv.observe(ov.grouped().snapshot(0));
    let unblocked = ov.grouped().unblocked_per_group(&adv.block(0, n));
    let share =
        |(x, &u): (usize, &usize)| u as f64 / ov.grouped().group(x as u64).len().max(1) as f64;
    let min_share = unblocked.iter().enumerate().map(share).fold(1.0f64, f64::min);
    Ok(Metrics::new()
        .value("group_c", group_c)
        .count("min_group_size", ov.grouped().group_size_range().0)
        .value("min_unblocked_share", min_share)
        .rate("majority_kept", min_share > 0.5))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let concentrated = t[0].iter().all(|a| {
        let mean = a.at("n") / a.mean("supernodes");
        a.min("min_group") > mean / 2.0 && a.max("max_group") < 2.0 * mean
    });
    let majority = t[1].iter().all(|a| a.always("majority_kept"));
    vec![
        Check::claim("every group size lies within (n/2N, 2n/N) on every seed", concentrated),
        Check::claim("every group keeps a strict unblocked majority on every seed", majority),
    ]
}
