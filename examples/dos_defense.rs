//! DoS defense by reconfiguration (Section 5).
//!
//! Attacks the hypercube-of-groups overlay with a group-targeted blocker
//! at two information latenesses: the paper's `2t`-late regime (defense
//! holds) and 0-late (the impossibility control — the attack wins).
//!
//! ```sh
//! cargo run --release --example dos_defense
//! ```

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

fn run(n: usize, lateness_factor: u64, seed: u64) -> (u64, u64, u64) {
    let overlay = DosOverlay::new(n, DosParams::default(), seed);
    let lateness = lateness_factor * overlay.epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, seed + 1);
    let rounds = 6 * overlay.epoch_len();
    let run = FaultyRunner::paper_model(overlay).run(&mut adv, rounds);
    (run.rounds, run.connected_rounds, run.starved_rounds)
}

fn main() {
    let n = 4096;
    println!("group-targeted DoS attack on {n} nodes, blocking 30% per round");
    println!();
    println!(
        "{:>18} {:>8} {:>11} {:>9} {:>9}",
        "adversary", "rounds", "connected", "starved", "verdict"
    );
    for (name, factor, seed) in [("2t-late (paper)", 2u64, 10u64), ("0-late (control)", 0, 20)] {
        let (rounds, connected, starved) = run(n, factor, seed);
        let verdict = if connected == rounds { "defended" } else { "BREACHED" };
        println!("{name:>18} {rounds:>8} {connected:>11} {starved:>9} {verdict:>9}");
    }
    println!();
    println!(
        "with stale information the attacker blocks yesterday's groups; \
         with current information it isolates a group instantly — exactly \
         the separation Theorem 6 claims."
    );
}
