//! Robust anonymous routing (Section 7.1).
//!
//! Routes requests through destination groups of the DoS-resistant
//! overlay while an attacker blocks 30% of the relays, and reports
//! delivery rate, per-request rounds, and how uniformly relays are used
//! (the anonymity property).
//!
//! ```sh
//! cargo run --release --example anonymous_relay
//! ```

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_apps::anon::Anonymizer;
use overlay_stats::tv_distance_uniform;
use reconfig_core::dos::DosParams;
use reconfig_core::healing::HealableOverlay;

fn main() {
    let n = 1024usize;
    let mut anon = Anonymizer::new(n, DosParams::default(), 5);
    let lateness = 2 * anon.overlay().epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, lateness, 6);

    let mut delivered = 0u64;
    let mut total = 0u64;
    let mut max_rounds = 0u64;
    let mut relay_counts = vec![0u64; n];
    for _ in 0..4 * anon.overlay().epoch_len() {
        let round = anon.overlay().round();
        adv.observe(anon.overlay().grouped().snapshot(round));
        let blocked = adv.block(round, n);
        let out = anon.exchange(&blocked);
        anon.overlay_mut().step(&blocked);
        total += 1;
        if out.delivered {
            delivered += 1;
        }
        max_rounds = max_rounds.max(out.rounds);
        for r in &out.relays {
            relay_counts[r.raw() as usize] += 1;
        }
    }
    let tv = tv_distance_uniform(&relay_counts, n);
    println!("anonymous relay system: {n} servers, 30% blocked each round");
    println!();
    println!("requests delivered : {delivered}/{total}");
    println!("rounds per request : {max_rounds} (constant — Corollary 2)");
    println!("relay uniformity   : TV distance from uniform = {tv:.3}");
    assert_eq!(delivered, total, "Corollary 2: reliable delivery");
}
