//! E12 — Lemma 18 / Theorem 7: the split/merge network survives DoS
//! attacks and churn simultaneously, keeping supernode dimensions within
//! a window of 2 and group sizes inside the Equation 1 band.
//!
//! Expected shape: connected in every round, a dimension spread of at
//! most 2 and the Lemma 18 invariant for every (gamma, blocking) cell in
//! the theorem's regime, on every seed.

use super::prelude::*;
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment =
    Experiment::swept("E12", "Combined churn and DoS", "Lemma 18 / Theorem 7", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 16;

const SWEEP: Sweep = Sweep {
    title: "E12: churn + 2t-late GroupTargeted DoS at n = 2048 (Lemma 18 / Theorem 7)",
    k: K,
    axes: || vec![Axis::new("gamma", [1.1, 1.3, 1.6]), Axis::new("block_fraction", [0.1, 0.25])],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let [overlay_seed, attacker_seed, churn_seed] = split(seed);
    let ov = ChurnDosOverlay::new(2048, ChurnDosParams::default(), overlay_seed);
    let (lateness, rounds) = (2 * ov.epoch_len(), 4 * ov.epoch_len());
    let frac = cell.f64("block_fraction");
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, frac, lateness, attacker_seed);
    // Joiners take ids from 10^7 up, clear of the founders' 0..n.
    let churn = ChurnSchedule::new(ChurnStrategy::Random, cell.f64("gamma"), 0.8, 10_000_000);
    let rng = simnet::rng::stream(churn_seed, 0, 0);
    let mut runner = FaultyRunner::paper_model(ov).with_churn(churn, rng);
    let out = runner.run(&mut adv, rounds);
    let ov = &runner.overlay;
    let (d_lo, d_hi) = ov.groups().cover().dim_range().unwrap_or((0, 0));
    Ok(Metrics::new()
        .rate("connected", out.connectivity_rate() == 1.0)
        .count("starved_rounds", out.starved_rounds)
        .count("dim_spread", d_hi - d_lo)
        .count("final_n", ov.len())
        .rate("lemma18", ov.groups().lemma18_holds()))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let connected = t[0].iter().all(|a| a.always("connected"));
    let narrow = t[0].iter().all(|a| a.max("dim_spread") <= 2.0);
    let lemma18 = t[0].iter().all(|a| a.always("lemma18"));
    vec![
        Check::claim("connected in every round of every cell, every seed", connected),
        Check::claim("supernode dimensions spread by at most 2", narrow),
        Check::claim("the Lemma 18 invariant holds at the end of every run", lemma18),
    ]
}
