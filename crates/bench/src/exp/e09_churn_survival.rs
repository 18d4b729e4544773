//! E9 — Theorem 5: the continuously reconfiguring overlay maintains
//! connectivity under omniscient adversarial churn at constant rates.
//!
//! Expected shape: every (strategy, rate) cell stays connected after
//! every epoch on every seed. The static-topology control, which fails to
//! integrate any joiner, is `churn_integration`'s
//! `static_topology_baseline_collapses_under_the_same_churn`.

use super::prelude::*;
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::ExpanderOverlay;

pub const EXP: Experiment =
    Experiment::swept("E9", "Churn survival", "Theorem 5", &[SWEEP], verdict);

/// Seeds per cell (a cell at rate 4 grows to ~9 000 nodes).
const K: u64 = 2;

const EPOCHS: u64 = 6;

const STRATEGIES: [ChurnStrategy; 4] = [
    ChurnStrategy::Random,
    ChurnStrategy::OldestFirst,
    ChurnStrategy::YoungestFirst,
    ChurnStrategy::Concentrated,
];

const SWEEP: Sweep = Sweep {
    title: "E9: connectivity under adversarial churn (Theorem 5), 6 epochs from n = 96",
    k: K,
    axes: || {
        let strategies = Axis::new("strategy", STRATEGIES.map(|s| format!("{s:?}")));
        vec![strategies, Axis::new("rate", [1.5, 2.0, 4.0])]
    },
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let n0 = 96usize;
    let [overlay_seed, rng_seed] = split(seed);
    let mut ov = ExpanderOverlay::new(n0, 8, SamplingParams::default(), overlay_seed);
    let strategy = STRATEGIES[cell.at("strategy")];
    // Joiners take ids from 10^6 up, clear of the founders' 0..n0.
    let mut sched = ChurnSchedule::new(strategy, cell.f64("rate"), 0.5, 1_000_000);
    let mut rng = simnet::rng::stream(rng_seed, 0, 0);
    let mut connected_epochs = 0u64;
    for _ in 0..EPOCHS {
        let ev = sched.next(ov.members(), &mut rng);
        ov.apply_churn(&ev);
        ov.reconfigure();
        connected_epochs += u64::from(ov.is_connected());
    }
    let originals = ov.members().iter().filter(|m| m.raw() < n0 as u64).count();
    Ok(Metrics::new()
        .rate("survived", connected_epochs == EPOCHS)
        .count("connected_epochs", connected_epochs)
        .count("final_n", ov.members().len())
        .count("originals_evicted", n0 - originals))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let survived = t[0].iter().all(|a| a.always("survived"));
    vec![Check::claim("connected after every epoch, every cell, every seed", survived)]
}
