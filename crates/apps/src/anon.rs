//! Robust anonymous routing (Section 7.1, Corollary 2).
//!
//! Servers are organized in the DoS-resistant hypercube-of-groups overlay
//! of Section 5. For each server `v`, its *destination group* is
//! `D(v) = R(x) \ {v}` where `x` is `v`'s supernode. A user `v` sends its
//! message to any non-blocked ingress server `s(v)`; `s(v)` forwards it to
//! all servers in `D(s(v))`, which forward it to the recipient `w` (and
//! relay the reply back). Since group membership is uniformly random with
//! respect to everything an `Omega(log log n)`-late attacker can know,
//! the set of exit servers is uniform from its perspective — monitoring
//! any fixed server catches a given flow with probability `|D|/n`.

use rand::seq::IndexedRandom;
use reconfig_core::dos::{DosOverlay, DosParams};
use serde::{Deserialize, Serialize};
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};

/// Outcome of one anonymized request/reply exchange.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Whether the request reached the recipient and the reply returned.
    pub delivered: bool,
    /// Overlay rounds consumed (constant by Corollary 2).
    pub rounds: u64,
    /// The relay group used (exit servers from the attacker's viewpoint).
    pub relays: Vec<NodeId>,
}

/// The anonymizing server system.
pub struct Anonymizer {
    overlay: DosOverlay,
    rng: NodeRng,
}

impl Anonymizer {
    /// Stand up `n` relay servers in a Section 5 overlay.
    pub fn new(n: usize, params: DosParams, seed: u64) -> Self {
        Self {
            overlay: DosOverlay::new(n, params, seed),
            rng: simnet::rng::stream(seed, 3, 0xA2101),
        }
    }

    /// The underlying overlay (for driving reconfiguration/attack rounds).
    pub fn overlay_mut(&mut self) -> &mut DosOverlay {
        &mut self.overlay
    }

    /// The underlying overlay.
    pub fn overlay(&self) -> &DosOverlay {
        &self.overlay
    }

    /// Exchange one request and reply while `blocked` nodes are under
    /// attack (the block set is held for the few rounds the exchange
    /// takes; Corollary 2's O(1) bound makes this faithful for any
    /// adversary that re-decides each round).
    ///
    /// Flow: user -> ingress `s` -> all of `D(s)` -> recipient `w` ->
    /// non-blocked part of `D(s)` -> user. Returns the outcome; delivery
    /// fails only if no ingress server is reachable or the relay group is
    /// entirely blocked (impossible in the Theorem 6 regime).
    pub fn exchange(&mut self, blocked: &BlockSet) -> RequestOutcome {
        let grouped = self.overlay.grouped();
        let unblocked: Vec<NodeId> =
            grouped.nodes().into_iter().filter(|v| !blocked.contains(*v)).collect();
        // Round 1: the user contacts a non-blocked ingress server.
        let Some(&ingress) = unblocked.as_slice().choose(&mut self.rng) else {
            return RequestOutcome { delivered: false, rounds: 1, relays: Vec::new() };
        };
        // Round 2: ingress forwards to its destination group D(ingress).
        // A membership race (ingress evicted between the choose and the
        // lookup) degrades to a failed exchange instead of a panic.
        let Some(x) = grouped.supernode_of(ingress) else {
            return RequestOutcome { delivered: false, rounds: 2, relays: Vec::new() };
        };
        let relays: Vec<NodeId> =
            grouped.group(x).iter().copied().filter(|&v| v != ingress).collect();
        let live_relays: Vec<NodeId> =
            relays.iter().copied().filter(|v| !blocked.contains(*v)).collect();
        if live_relays.is_empty() {
            return RequestOutcome { delivered: false, rounds: 2, relays };
        }
        // Round 3: live relays forward to the recipient; rounds 4-5: the
        // reply retraces. Delivery holds as long as one relay lives.
        RequestOutcome { delivered: true, rounds: 5, relays }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::dos::{DosAdversary, DosStrategy};
    use overlay_stats::tv_distance_uniform;
    use reconfig_core::healing::HealableOverlay;

    #[test]
    fn exchange_succeeds_without_attack() {
        let mut anon = Anonymizer::new(512, DosParams::default(), 1);
        let out = anon.exchange(&BlockSet::none());
        assert!(out.delivered);
        assert_eq!(out.rounds, 5, "Corollary 2: O(1) rounds");
        assert!(!out.relays.is_empty());
    }

    #[test]
    fn exchange_survives_late_attack() {
        let mut anon = Anonymizer::new(1024, DosParams::default(), 2);
        let lateness = 2 * anon.overlay().epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 3);
        // Run a few epochs of attack; exchange every round.
        let epoch = anon.overlay().epoch_len();
        let mut delivered = 0u64;
        let mut total = 0u64;
        for _ in 0..2 * epoch {
            adv.observe(anon.overlay().grouped().snapshot(anon.overlay().round()));
            let blocked = adv.block(anon.overlay().round(), 1024);
            let out = anon.exchange(&blocked);
            anon.overlay_mut().step(&blocked);
            total += 1;
            if out.delivered {
                delivered += 1;
            }
        }
        assert_eq!(delivered, total, "all exchanges must deliver in the Theorem 6 regime");
    }

    #[test]
    fn relay_usage_is_near_uniform_across_servers() {
        // Over many exchanges (with reconfigurations in between), every
        // server should serve as relay roughly equally often.
        let n = 256usize;
        let mut anon = Anonymizer::new(n, DosParams::default(), 4);
        let mut counts = vec![0u64; n];
        let epoch = anon.overlay().epoch_len();
        for i in 0..2000 {
            let out = anon.exchange(&BlockSet::none());
            for r in &out.relays {
                counts[r.raw() as usize] += 1;
            }
            if i % 10 == 0 {
                // Let time pass so groups resample.
                for _ in 0..epoch / 4 {
                    anon.overlay_mut().step(&BlockSet::none());
                }
            }
        }
        let tv = tv_distance_uniform(&counts, n);
        assert!(tv < 0.15, "relay distribution far from uniform: tv = {tv}");
    }

    #[test]
    fn fully_blocked_ingress_fails_gracefully() {
        let mut anon = Anonymizer::new(64, DosParams::default(), 5);
        let everyone: BlockSet = anon.overlay().grouped().nodes().into_iter().collect();
        let out = anon.exchange(&everyone);
        assert!(!out.delivered);
    }
}
