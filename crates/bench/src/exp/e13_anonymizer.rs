//! E13 — Corollary 2: the anonymizing server system delivers every
//! request in O(1) rounds under a `(1/2 - eps)`-bounded late attack, and
//! the relay (exit) distribution is uniform with respect to what the
//! attacker can know.
//!
//! Expected shape: every request delivered and constant rounds for every
//! blocked fraction below 1/2; the relay-usage TV distance stays small.

use super::prelude::*;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_apps::anon::Anonymizer;
use reconfig_core::dos::DosParams;
use reconfig_core::healing::HealableOverlay;

pub const EXP: Experiment =
    Experiment::swept("E13", "Robust anonymous routing", "Corollary 2", &[SWEEP], verdict);

/// Seeds per cell.
const K: u64 = 16;

const SWEEP: Sweep = Sweep {
    title: "E13: robust anonymous routing at n = 1024, 2t-late GroupTargeted (Corollary 2)",
    k: K,
    axes: || vec![Axis::new("blocked_fraction", [0.0, 0.2, 0.3, 0.45])],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (n, frac) = (1024usize, cell.f64("blocked_fraction"));
    let [anon_seed, attacker_seed] = split(seed);
    let mut anon = Anonymizer::new(n, DosParams::default(), anon_seed);
    let lateness = 2 * anon.overlay().epoch_len();
    let bound = frac.clamp(1e-9, 0.49);
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, bound, lateness, attacker_seed);
    let (mut delivered, mut total, mut max_rounds) = (0u64, 0u64, 0u64);
    let mut relays = vec![0u64; n];
    for _ in 0..4 * anon.overlay().epoch_len() {
        let round = anon.overlay().round();
        adv.observe(anon.overlay().grouped().snapshot(round));
        let blocked = if frac == 0.0 { simnet::BlockSet::none() } else { adv.block(round, n) };
        let out = anon.exchange(&blocked);
        anon.overlay_mut().step(&blocked);
        total += 1;
        delivered += u64::from(out.delivered);
        max_rounds = max_rounds.max(out.rounds);
        out.relays.iter().for_each(|r| relays[r.raw() as usize] += 1);
    }
    Ok(Metrics::new()
        .rate("all_delivered", delivered == total)
        .count("requests", total)
        .count("max_rounds", max_rounds)
        .tally("relay_use", relays))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let delivered = t[0].iter().all(|a| a.always("all_delivered"));
    let lo = t[0].iter().map(|a| a.min("max_rounds")).fold(f64::INFINITY, f64::min);
    let hi = t[0].iter().map(|a| a.max("max_rounds")).fold(0.0, f64::max);
    vec![
        Check::claim("every request is delivered at every blocked fraction, every seed", delivered),
        Check::claim("an exchange takes the same number of rounds everywhere", lo == hi),
    ]
}
